//! Segment merges never rebuild snapshots: a window is assembled from
//! slices of decoded segment stores. This pins the merge to the
//! reference build — a random history cut into segments at random
//! boundaries, any half-open window of it, concatenated from per-segment
//! slices, must equal `LongitudinalStore::from_snapshots` of the window
//! (tables and columns) and encode to the same bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_dataset::{encode_store, CorpusFingerprint, CorpusLoadStats, LongitudinalStore};
use wm_model::{Duration, Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

const NAMES: [&str; 6] = ["r-a", "r-b", "r-c", "r-d", "PEER", "IX"];

/// One generated step: node codes, link codes `(a, b, label)`, a load
/// salt, whether to keep the previous structure (a load-only change)
/// and whether to repeat the previous timestamp.
type Step = (Vec<u32>, Vec<(u32, u32, u32)>, u32, bool, bool);

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        vec(0u32..6, 0..5),
        vec((0u32..6, 0u32..6, 0u32..3), 0..6),
        0u32..101,
        any::<bool>(),
        0u32..8,
    )
        .prop_map(|(nodes, links, salt, keep, repeat)| (nodes, links, salt, keep, repeat == 0))
}

/// A history whose structure mostly persists from one snapshot to the
/// next, as a weathermap's does, with occasional changes and repeated
/// timestamps.
fn history(steps: &[Step]) -> Vec<TopologySnapshot> {
    let mut out: Vec<TopologySnapshot> = Vec::new();
    let mut t = Timestamp::from_ymd(2022, 2, 1);
    for (nodes, links, salt, keep, repeat) in steps {
        if !(out.is_empty() || *repeat) {
            t += Duration::from_minutes(5);
        }
        let load = |k: usize| Load::new(((*salt as usize + 13 * k) % 101) as u8).unwrap();
        let mut s = match out.last() {
            Some(previous) if *keep => previous.clone(),
            _ => {
                let mut s = TopologySnapshot::new(MapKind::Europe, t);
                s.nodes = nodes
                    .iter()
                    .map(|&c| Node::from_name(NAMES[c as usize]))
                    .collect();
                s.links = links
                    .iter()
                    .map(|&(a, b, l)| {
                        let label = ["#1", "#2", "#3"][l as usize].to_owned();
                        Link::new(
                            LinkEnd::new(
                                Node::from_name(NAMES[a as usize]),
                                Some(label.clone()),
                                Load::ZERO,
                            ),
                            LinkEnd::new(
                                Node::from_name(NAMES[b as usize]),
                                Some(label),
                                Load::ZERO,
                            ),
                        )
                    })
                    .collect();
                s
            }
        };
        s.timestamp = t;
        for (k, link) in s.links.iter_mut().enumerate() {
            link.a.egress_load = load(k);
            link.b.egress_load = load(k + 1);
        }
        out.push(s);
    }
    out
}

fn bytes(store: &LongitudinalStore) -> Vec<u8> {
    encode_store(
        store,
        &CorpusFingerprint::default(),
        &CorpusLoadStats::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn concatenated_slices_equal_the_reference_build(
        steps in vec(step_strategy(), 0..14),
        cuts in vec(0usize..14, 0..4),
        window in (0usize..15, 0usize..15),
    ) {
        let snapshots = history(&steps);
        let n = snapshots.len();

        // Segments: the history cut at sorted, deduplicated boundaries.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        let segments: Vec<(usize, LongitudinalStore)> = bounds
            .windows(2)
            .map(|w| (w[0], LongitudinalStore::from_snapshots(&snapshots[w[0]..w[1]])))
            .collect();

        // A half-open window of global indices, split across segments.
        let (lo, hi) = (window.0.min(n), window.1.min(n).max(window.0.min(n)));
        let parts: Vec<(&LongitudinalStore, std::ops::Range<usize>)> = segments
            .iter()
            .map(|(start, seg)| {
                let from = lo.clamp(*start, start + seg.len()) - start;
                let to = hi.clamp(*start, start + seg.len()) - start;
                (seg, from..to)
            })
            .collect();

        let reference = LongitudinalStore::from_snapshots(&snapshots[lo..hi]);
        let merged = LongitudinalStore::concat(&parts);
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(bytes(&merged), bytes(&reference));

        // The same through standalone slices, then whole-store concat.
        let slices: Vec<LongitudinalStore> =
            parts.iter().map(|(seg, range)| seg.slice(range.clone())).collect();
        let whole: Vec<(&LongitudinalStore, std::ops::Range<usize>)> =
            slices.iter().map(|s| (s, 0..s.len())).collect();
        prop_assert_eq!(&LongitudinalStore::concat(&whole), &reference);

        // A slice of the whole history is the reference too.
        let full = LongitudinalStore::from_snapshots(&snapshots);
        prop_assert_eq!(&full.slice(lo..hi), &reference);
    }
}

/// Ranges past the end clamp, inverted ranges are empty, and an empty
/// concatenation is the empty store.
#[test]
fn degenerate_ranges_clamp() {
    let steps: Vec<Step> = (0..4)
        .map(|i| (vec![0, 1], vec![(0, 1, 0)], i * 10, false, false))
        .collect();
    let snapshots = history(&steps);
    let store = LongitudinalStore::from_snapshots(&snapshots);
    let empty = LongitudinalStore::from_snapshots(std::iter::empty());
    assert_eq!(
        store.slice(2..99),
        LongitudinalStore::from_snapshots(&snapshots[2..])
    );
    let (start, end) = (3, 1);
    assert_eq!(store.slice(start..end), empty, "inverted");
    assert_eq!(store.slice(9..12), empty);
    assert_eq!(LongitudinalStore::concat(&[]), empty);
    assert_eq!(store.slice(0..store.len()), store);
}
