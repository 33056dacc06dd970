//! Property-based checks of the structural diff's ordering guarantees.
//!
//! The `diff` command prints [`wm_model::diff`] of two snapshot files,
//! and its output must be a pure function of the snapshots'
//! *structure* — never of the order nodes or links happen to be listed
//! in. These tests pin that contract down.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_model::{diff, Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

const NAMES: [&str; 5] = ["r-a", "r-b", "r-c", "r-d", "PEER"];

/// Decodes a generated edge list (values index into `NAMES` pairs;
/// repetitions become parallel links) into a snapshot.
fn snapshot_from_codes(codes: &[u32]) -> TopologySnapshot {
    let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
    for &code in codes {
        let a = NAMES[(code as usize) % NAMES.len()];
        let b = NAMES[(code as usize / NAMES.len()) % NAMES.len()];
        if a == b {
            continue;
        }
        for name in [a, b] {
            if s.node(name).is_none() {
                s.nodes.push(Node::from_name(name));
            }
        }
        s.links.push(Link::new(
            LinkEnd::new(Node::from_name(a), None, Load::ZERO),
            LinkEnd::new(Node::from_name(b), None, Load::ZERO),
        ));
    }
    s
}

/// A deterministic permutation family: rotate by `shift`, optionally
/// reverse. Covers enough of the permutation group to catch any
/// order-dependence without needing a shuffle primitive.
fn permuted<T: Clone>(items: &[T], shift: usize, reverse: bool) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    if !items.is_empty() {
        let shift = shift % items.len();
        out.extend_from_slice(&items[shift..]);
        out.extend_from_slice(&items[..shift]);
    }
    if reverse {
        out.reverse();
    }
    out
}

fn reordered(snapshot: &TopologySnapshot, shift: usize, reverse: bool) -> TopologySnapshot {
    let mut out = snapshot.clone();
    out.nodes = permuted(&snapshot.nodes, shift, reverse);
    out.links = permuted(&snapshot.links, shift.wrapping_mul(7), !reverse);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Reordering either snapshot's node and link lists must not change
    /// the diff at all — it would otherwise depend on file parse order.
    #[test]
    fn diff_is_invariant_under_reordering(
        old_codes in vec(0u32..25, 0..16),
        new_codes in vec(0u32..25, 0..16),
        shift in 0usize..16,
        reverse in any::<bool>(),
    ) {
        let older = snapshot_from_codes(&old_codes);
        let newer = snapshot_from_codes(&new_codes);
        let baseline = diff(&older, &newer);
        let scrambled = diff(
            &reordered(&older, shift, reverse),
            &reordered(&newer, shift.wrapping_add(3), !reverse),
        );
        prop_assert_eq!(baseline, scrambled);
    }

    /// The diff's own vectors come out sorted: nodes by their `Ord`,
    /// group changes by `(a, b)`, and every reported group actually
    /// changed.
    #[test]
    fn diff_outputs_are_sorted_and_minimal(
        old_codes in vec(0u32..25, 0..16),
        new_codes in vec(0u32..25, 0..16),
    ) {
        let older = snapshot_from_codes(&old_codes);
        let newer = snapshot_from_codes(&new_codes);
        let d = diff(&older, &newer);
        prop_assert!(d.added_nodes.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(d.removed_nodes.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(d
            .group_changes
            .windows(2)
            .all(|w| (&w[0].a, &w[0].b) < (&w[1].a, &w[1].b)));
        for change in &d.group_changes {
            prop_assert!(change.a < change.b, "endpoints must be canonical");
            prop_assert_ne!(change.before, change.after);
        }
    }

    /// Swapping the two snapshots mirrors the diff exactly: adds become
    /// removes and every group delta flips sign.
    #[test]
    fn diff_is_antisymmetric(
        old_codes in vec(0u32..25, 0..16),
        new_codes in vec(0u32..25, 0..16),
    ) {
        let older = snapshot_from_codes(&old_codes);
        let newer = snapshot_from_codes(&new_codes);
        let forward = diff(&older, &newer);
        let backward = diff(&newer, &older);
        prop_assert_eq!(&forward.added_nodes, &backward.removed_nodes);
        prop_assert_eq!(&forward.removed_nodes, &backward.added_nodes);
        prop_assert_eq!(forward.link_delta(), -backward.link_delta());
        prop_assert_eq!(forward.group_changes.len(), backward.group_changes.len());
        for (f, b) in forward.group_changes.iter().zip(&backward.group_changes) {
            prop_assert_eq!(&f.a, &b.a);
            prop_assert_eq!(&f.b, &b.b);
            prop_assert_eq!(f.before, b.after);
            prop_assert_eq!(f.after, b.before);
        }
    }

    /// `diff(s, s)` is empty no matter how the copy is permuted.
    #[test]
    fn self_diff_is_empty(
        codes in vec(0u32..25, 0..16),
        shift in 0usize..16,
        reverse in any::<bool>(),
    ) {
        let s = snapshot_from_codes(&codes);
        prop_assert!(diff(&s, &reordered(&s, shift, reverse)).is_empty());
    }
}

/// Mutation-style pin on the tie-breaking rules: group changes sharing
/// an `a` endpoint order by `b`, endpoint pairs are canonicalised
/// regardless of how the link was written, and node lists order by the
/// full node ordering. A diff implementation that, say, sorted groups
/// only by `a` or kept link orientation would fail one of these exact
/// expectations.
#[test]
fn tie_breaking_is_exact() {
    // Older: one r-a<->r-b link. Newer: grows that group to 2 (written
    // with flipped endpoint orientation), adds r-a<->r-c and r-b<->r-c.
    let older = snapshot_from_codes(&[1]); // r-b <-> r-a
    let mut newer = snapshot_from_codes(&[1]);
    for (a, b) in [("r-b", "r-a"), ("r-c", "r-a"), ("r-c", "r-b")] {
        if newer.node(a).is_none() {
            newer.nodes.push(Node::from_name(a));
        }
        newer.links.push(Link::new(
            LinkEnd::new(Node::from_name(a), None, Load::ZERO),
            LinkEnd::new(Node::from_name(b), None, Load::ZERO),
        ));
    }
    let d = diff(&older, &newer);

    assert_eq!(d.added_nodes, vec![Node::from_name("r-c")]);
    assert!(d.removed_nodes.is_empty());

    let pairs: Vec<(&str, &str, usize, usize)> = d
        .group_changes
        .iter()
        .map(|g| (g.a.as_str(), g.b.as_str(), g.before, g.after))
        .collect();
    // Canonical orientation (a < b) and (a, b)-lexicographic order, with
    // the grown group reported against its canonical name.
    assert_eq!(
        pairs,
        vec![
            ("r-a", "r-b", 1, 2),
            ("r-a", "r-c", 0, 1),
            ("r-b", "r-c", 0, 1),
        ]
    );
    assert_eq!(d.link_delta(), 3);
}

/// The same series diffed pairwise after a global reordering of every
/// snapshot's internals yields an identical sequence of diffs.
#[test]
fn pairwise_event_sequence_is_reorder_proof() {
    let series: Vec<TopologySnapshot> = [
        &[1u32, 1, 2][..],
        &[1, 2, 2, 3],
        &[2, 3, 7],
        &[2, 3, 7, 7, 8],
    ]
    .iter()
    .map(|codes| snapshot_from_codes(codes))
    .collect();

    let baseline: Vec<_> = series.windows(2).map(|w| diff(&w[0], &w[1])).collect();
    for (shift, reverse) in [(1, false), (2, true), (5, true)] {
        let scrambled: Vec<_> = series
            .windows(2)
            .map(|w| {
                diff(
                    &reordered(&w[0], shift, reverse),
                    &reordered(&w[1], shift, reverse),
                )
            })
            .collect();
        assert_eq!(baseline, scrambled, "shift {shift} reverse {reverse}");
    }
}
