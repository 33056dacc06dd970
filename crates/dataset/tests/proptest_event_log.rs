//! The store's topology event log is computed on the id columns; it
//! must equal [`wm_model::diff`] of the reconstructed snapshots, which
//! keys nodes on *names*. These checks feed the awkward shapes that tell
//! the two apart: one name under both node kinds, duplicate names in a
//! snapshot, link ends missing from the node list, self-loops, parallel
//! links with colliding labels, and identical or empty snapshots.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_dataset::LongitudinalStore;
use wm_model::{
    diff, Duration, Link, LinkEnd, Load, MapKind, Node, NodeKind, SnapshotDiff, Timestamp,
    TopologySnapshot,
};

/// Four names, each under both kinds: eight distinct nodes, with
/// `("r-a", Router)` and `("r-a", Peering)` sharing one name.
fn node(code: u32) -> Node {
    let name = ["r-a", "r-b", "PEER", "r-c"][(code % 4) as usize];
    let kind = if code < 4 {
        NodeKind::Router
    } else {
        NodeKind::Peering
    };
    Node {
        name: name.into(),
        kind,
    }
}

/// Labels drawn from a pool small enough that parallel links collide.
fn label(code: u32) -> Option<String> {
    [None, Some("#1"), Some("#2")][(code % 3) as usize].map(str::to_owned)
}

/// A link as `(end a, end b, label code, load)`.
type LinkCode = (u32, u32, u32, u32);

/// A snapshot from node codes (duplicates kept) and link codes. Link
/// ends are drawn from all eight nodes, listed or not, and may coincide.
fn snapshot(t: Timestamp, nodes: &[u32], links: &[LinkCode]) -> TopologySnapshot {
    let mut s = TopologySnapshot::new(MapKind::Europe, t);
    s.nodes = nodes.iter().map(|&code| node(code)).collect();
    s.links = links
        .iter()
        .map(|&(a, b, l, load)| {
            let load = Load::new((load % 101) as u8).unwrap();
            Link::new(
                LinkEnd::new(node(a), label(l), load),
                LinkEnd::new(node(b), label(l / 3), load),
            )
        })
        .collect();
    s
}

fn nodes_strategy() -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..8, 0..7)
}

fn links_strategy() -> impl Strategy<Value = Vec<LinkCode>> {
    vec((0u32..8, 0u32..8, 0u32..9, 0u32..101), 0..9)
}

/// The event the store logs between its two snapshots, as a diff
/// (empty when it logs none).
fn logged(
    store: &LongitudinalStore,
    older: &TopologySnapshot,
    newer: &TopologySnapshot,
) -> SnapshotDiff {
    match store.events() {
        [] => SnapshotDiff::default(),
        [event] => {
            assert_eq!(event.previous, older.timestamp);
            assert_eq!(event.at, newer.timestamp);
            event.diff.clone()
        }
        more => panic!("two snapshots logged {} events", more.len()),
    }
}

/// Compares field by field, so a failure names the field that differs.
fn assert_same(got: &SnapshotDiff, want: &SnapshotDiff) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.added_nodes, &want.added_nodes);
    prop_assert_eq!(&got.removed_nodes, &want.removed_nodes);
    prop_assert_eq!(got.group_changes.len(), want.group_changes.len());
    for (g, w) in got.group_changes.iter().zip(&want.group_changes) {
        prop_assert_eq!(&g.a, &w.a);
        prop_assert_eq!(&g.b, &w.b);
        prop_assert_eq!(g.before, w.before);
        prop_assert_eq!(g.after, w.after);
    }
    Ok(())
}

fn t0() -> Timestamp {
    Timestamp::from_ymd(2022, 2, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// One pair of random snapshots; with `same` set the newer one is a
    /// copy of the older with other loads (an identical structure).
    #[test]
    fn id_diff_equals_name_diff(
        old_nodes in nodes_strategy(),
        old_links in links_strategy(),
        new_nodes in nodes_strategy(),
        new_links in links_strategy(),
        same in any::<bool>(),
    ) {
        let t1 = t0() + Duration::from_minutes(5);
        let older = snapshot(t0(), &old_nodes, &old_links);
        let newer = if same {
            let shifted: Vec<LinkCode> =
                old_links.iter().map(|&(a, b, l, load)| (a, b, l, load + 7)).collect();
            snapshot(t1, &old_nodes, &shifted)
        } else {
            snapshot(t1, &new_nodes, &new_links)
        };
        let store = LongitudinalStore::from_snapshots([&older, &newer]);
        assert_same(&logged(&store, &older, &newer), &diff(&older, &newer))?;
    }

    /// A longer series: the log holds exactly the non-empty pairwise
    /// diffs, in order.
    #[test]
    fn event_log_equals_pairwise_name_diffs(
        series in vec((nodes_strategy(), links_strategy(), any::<bool>()), 1..7),
    ) {
        let mut snapshots: Vec<TopologySnapshot> = Vec::new();
        for (i, (nodes, links, repeat)) in series.iter().enumerate() {
            let t = t0() + Duration::from_minutes(5 * i as i64);
            let next = match snapshots.last() {
                Some(previous) if *repeat => {
                    let mut copy = previous.clone();
                    copy.timestamp = t;
                    copy
                }
                _ => snapshot(t, nodes, links),
            };
            snapshots.push(next);
        }
        let store = LongitudinalStore::from_snapshots(&snapshots);
        let expected: Vec<(Timestamp, SnapshotDiff)> = snapshots
            .windows(2)
            .map(|pair| (pair[1].timestamp, diff(&pair[0], &pair[1])))
            .filter(|(_, d)| !d.is_empty())
            .collect();
        prop_assert_eq!(store.events().len(), expected.len());
        for (event, (at, want)) in store.events().iter().zip(&expected) {
            prop_assert_eq!(event.at, *at);
            assert_same(&event.diff, want)?;
        }
    }
}

/// Each awkward shape on its own, against the name-keyed reference.
#[test]
fn named_shapes_match_the_reference() {
    let t1 = t0() + Duration::from_minutes(5);
    let cases: Vec<(&str, TopologySnapshot, TopologySnapshot)> = vec![
        (
            "one name under both kinds",
            snapshot(t0(), &[0], &[(0, 1, 0, 5)]),
            snapshot(t1, &[4, 1], &[(4, 1, 0, 5), (1, 0, 0, 5)]),
        ),
        (
            "duplicate names within a snapshot",
            snapshot(t0(), &[0, 0, 4], &[]),
            snapshot(t1, &[1, 1, 5, 2], &[]),
        ),
        (
            "link ends not listed among the nodes",
            snapshot(t0(), &[], &[(0, 1, 0, 1)]),
            snapshot(t1, &[2], &[(0, 2, 0, 1), (5, 1, 0, 1)]),
        ),
        (
            "self-loops",
            snapshot(t0(), &[0], &[(0, 0, 0, 3)]),
            snapshot(t1, &[0, 4], &[(0, 4, 0, 3), (0, 0, 1, 3), (4, 4, 0, 3)]),
        ),
        (
            "parallel links with colliding labels",
            snapshot(t0(), &[0, 1], &[(0, 1, 1, 9), (1, 0, 1, 9)]),
            snapshot(t1, &[0, 1], &[(0, 1, 1, 9), (0, 1, 1, 9), (0, 1, 4, 9)]),
        ),
        (
            "identical snapshots",
            snapshot(t0(), &[0, 1, 6], &[(0, 1, 2, 4), (6, 1, 0, 4)]),
            snapshot(t1, &[0, 1, 6], &[(0, 1, 2, 40), (6, 1, 0, 40)]),
        ),
        (
            "empty snapshots",
            snapshot(t0(), &[], &[]),
            snapshot(t1, &[], &[]),
        ),
        (
            "empty to populated",
            snapshot(t0(), &[], &[]),
            snapshot(t1, &[3, 7], &[(3, 7, 0, 2)]),
        ),
    ];
    for (what, older, newer) in cases {
        let store = LongitudinalStore::from_snapshots([&older, &newer]);
        let want = diff(&older, &newer);
        assert_eq!(logged(&store, &older, &newer), want, "{what}");
    }
}
