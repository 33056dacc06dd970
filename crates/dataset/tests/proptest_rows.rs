//! Topology rows: a store keeps each run of equal topologies once. This
//! pins the row rule to the reference build over random histories whose
//! topology changes at random snapshots (returns to an earlier topology
//! included): fresh builds over 1, 2 or 8 builders, windows concatenated
//! from segment slices cut anywhere (also exactly at a change) and
//! decoded images all equal `LongitudinalStore::from_snapshots` and
//! encode to the same bytes; the row count is the number of changes plus
//! one; and a history whose topology changes at every snapshot costs at
//! most 8 B per snapshot more than the format that stored every
//! snapshot's topology. A multi-row segment rejects every truncation and
//! byte flip, and a decoded image re-encodes to exactly its bytes.

use proptest::collection::vec;
use proptest::prelude::*;
use wm_dataset::codec::crc32;
use wm_dataset::{
    decode_segment, decode_store, encode_segment, encode_store, identity_digest, CacheError,
    ColumnarBuilder, CorpusFingerprint, CorpusLoadStats, FingerprintEntry, LongitudinalStore,
    SegmentHeader,
};
use wm_model::{Duration, Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

const NAMES: [&str; 6] = ["r-a", "r-b", "r-c", "r-d", "PEER", "IX"];

/// A topology as node codes and link codes `(a, b, label)`.
type Topology = (Vec<u32>, Vec<(u32, u32, u32)>);

fn topology_strategy() -> impl Strategy<Value = Topology> {
    (vec(0u32..6, 0..5), vec((0u32..6, 0u32..6, 0u32..3), 0..6))
}

/// Snapshot `i` of a history: topology `topology` at `t0 + 5 min × i`,
/// loads salted by `i`.
fn snapshot(i: usize, (nodes, links): &Topology) -> TopologySnapshot {
    let t = Timestamp::from_ymd(2022, 2, 1) + Duration::from_minutes(5 * i as i64);
    let load = |k: usize| Load::new(((7 * i + 13 * k) % 101) as u8).unwrap();
    let mut s = TopologySnapshot::new(MapKind::Europe, t);
    s.nodes = nodes
        .iter()
        .map(|&c| Node::from_name(NAMES[c as usize]))
        .collect();
    s.links = links
        .iter()
        .enumerate()
        .map(|(k, &(a, b, l))| {
            let label = Some(["#1", "#2", "#3"][l as usize].to_owned());
            Link::new(
                LinkEnd::new(Node::from_name(NAMES[a as usize]), label.clone(), load(k)),
                LinkEnd::new(Node::from_name(NAMES[b as usize]), label, load(k + 1)),
            )
        })
        .collect();
    s
}

/// Whether two snapshots share their topology: the same nodes and the
/// same links in the same order and orientation, loads aside.
fn same_topology(x: &TopologySnapshot, y: &TopologySnapshot) -> bool {
    let ends = |s: &TopologySnapshot| -> Vec<_> {
        s.links
            .iter()
            .map(|l| {
                (
                    l.a.node.clone(),
                    l.a.label.clone(),
                    l.b.node.clone(),
                    l.b.label.clone(),
                )
            })
            .collect()
    };
    x.nodes == y.nodes && ends(x) == ends(y)
}

fn bytes(store: &LongitudinalStore) -> Vec<u8> {
    encode_store(
        store,
        &CorpusFingerprint::default(),
        &CorpusLoadStats::default(),
    )
}

/// The image size of `store` in the layout that stored every snapshot's
/// topology (segment format 2): the same fingerprint, stats, symbol
/// tables and snapshot axis, plus per-snapshot node and link offset
/// tables and per-snapshot cells — 4 B per node id, 4 B per link id,
/// 1 B per orientation bit and 2 B of loads per link.
fn format2_len(store: &LongitudinalStore, snapshots: &[TopologySnapshot]) -> usize {
    let n = snapshots.len();
    let nodes: usize = snapshots.iter().map(|s| s.nodes.len()).sum();
    let links: usize = snapshots.iter().map(|s| s.links.len()).sum();
    let table = 4 + 6 * (4 + 8 + 8 + 4);
    let fingerprint = 8;
    let stats = 4 * 8;
    let node_table = 4 + store
        .nodes()
        .iter()
        .map(|node| 1 + 2 + node.name.len())
        .sum::<usize>();
    let label = |l: &Option<String>| 1 + l.as_ref().map_or(0, |l| 2 + l.len());
    let link_table = 4 + store
        .link_defs()
        .iter()
        .map(|def| 8 + label(&def.label_a) + label(&def.label_b))
        .sum::<usize>();
    let axis = 4 + 9 * n + 2 * (8 + 4 * (n + 1));
    let cells = (8 + 4 * nodes) + (8 + 4 * links) + 8 + 3 * links;
    table + fingerprint + stats + node_table + link_table + axis + cells
}

/// The store of `snapshots` built by `count` builders, snapshot `i`
/// going to builder `assign[i] % count`, each builder fed in reverse.
fn built_by(snapshots: &[TopologySnapshot], assign: &[usize], count: usize) -> LongitudinalStore {
    let mut builders: Vec<ColumnarBuilder> = (0..count).map(|_| ColumnarBuilder::new()).collect();
    for (i, s) in snapshots.iter().enumerate().rev() {
        let k = assign.get(i).copied().unwrap_or(i) % count;
        builders[k].add_snapshot(i, s);
    }
    ColumnarBuilder::finish(builders)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rows_follow_the_one_row_rule_on_every_path(
        topologies in vec(topology_strategy(), 1..4),
        choices in vec(0usize..4, 0..16),
        assign in vec(0usize..8, 16..17),
        cuts in vec(0usize..16, 0..3),
        window in (0usize..17, 0usize..17),
    ) {
        let snapshots: Vec<TopologySnapshot> = choices
            .iter()
            .enumerate()
            .map(|(i, &c)| snapshot(i, &topologies[c % topologies.len()]))
            .collect();
        let n = snapshots.len();
        let reference = LongitudinalStore::from_snapshots(&snapshots);
        let image = bytes(&reference);

        // Rows: one per change, plus the first.
        let changes: Vec<usize> = (1..n)
            .filter(|&i| !same_topology(&snapshots[i - 1], &snapshots[i]))
            .collect();
        prop_assert_eq!(reference.topology_rows(), if n == 0 { 0 } else { changes.len() + 1 });
        prop_assert_eq!(reference.snapshots().collect::<Vec<_>>(), snapshots.clone());

        // Fresh builds over any number of builders.
        for count in [1, 2, 8] {
            let built = built_by(&snapshots, &assign, count);
            prop_assert_eq!(&built, &reference, "{} builders", count);
            prop_assert_eq!(bytes(&built), image.clone(), "{} builders", count);
        }

        // Decoded images.
        let (decoded, _, _) = decode_store(&image).expect("decodes");
        prop_assert_eq!(&decoded, &reference);

        // Segments cut at random boundaries and exactly at the first
        // change; a window concatenated from their slices.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(n)).collect();
        bounds.extend(changes.first().copied());
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.dedup();
        let segments: Vec<(usize, LongitudinalStore)> = bounds
            .windows(2)
            .map(|w| (w[0], LongitudinalStore::from_snapshots(&snapshots[w[0]..w[1]])))
            .collect();
        let (lo, hi) = (window.0.min(n), window.1.min(n).max(window.0.min(n)));
        let parts: Vec<(&LongitudinalStore, std::ops::Range<usize>)> = segments
            .iter()
            .map(|(start, seg)| {
                let from = lo.clamp(*start, start + seg.len()) - start;
                let to = hi.clamp(*start, start + seg.len()) - start;
                (seg, from..to)
            })
            .collect();
        let windowed = LongitudinalStore::from_snapshots(&snapshots[lo..hi]);
        let merged = LongitudinalStore::concat(&parts);
        prop_assert_eq!(&merged, &windowed);
        prop_assert_eq!(bytes(&merged), bytes(&windowed));
        prop_assert_eq!(&reference.slice(lo..hi), &windowed);
        let whole: Vec<(&LongitudinalStore, std::ops::Range<usize>)> =
            segments.iter().map(|(_, seg)| (seg, 0..seg.len())).collect();
        prop_assert_eq!(&LongitudinalStore::concat(&whole), &reference);
    }

    #[test]
    fn a_topology_changing_every_snapshot_costs_at_most_8_bytes_more(
        a in topology_strategy(),
        b in topology_strategy(),
        n in 0usize..16,
    ) {
        // B carries a node A lacks, so every snapshot differs from the
        // one before it.
        let mut b = b;
        b.0.push(5);
        let mut a = a;
        a.0.retain(|&c| c != 5);
        let snapshots: Vec<TopologySnapshot> =
            (0..n).map(|i| snapshot(i, if i % 2 == 0 { &a } else { &b })).collect();
        let store = LongitudinalStore::from_snapshots(&snapshots);
        prop_assert_eq!(store.topology_rows(), n);
        let encoded = bytes(&store).len();
        prop_assert!(
            encoded <= format2_len(&store, &snapshots) + 8 * n,
            "{} B vs format 2's {} B for {} snapshots",
            encoded,
            format2_len(&store, &snapshots),
            n
        );
    }
}

/// Five snapshots over three rows (`A→A→B→A→A`), framed as a segment.
/// A and B differ only in their last node, whose ids (the ranks of `r-b`
/// and `r-c`) differ in their lowest bit.
fn multi_row_segment() -> Vec<u8> {
    let a: Topology = (vec![0, 4, 1], vec![(0, 4, 0), (4, 0, 1), (0, 4, 2)]);
    let b: Topology = (vec![0, 4, 2], a.1.clone());
    let snapshots: Vec<TopologySnapshot> = [&a, &a, &b, &a, &a]
        .iter()
        .enumerate()
        .map(|(i, t)| snapshot(i, t))
        .collect();
    let store = LongitudinalStore::from_snapshots(&snapshots);
    assert_eq!(store.topology_rows(), 3);
    let fingerprint = CorpusFingerprint {
        entries: snapshots
            .iter()
            .enumerate()
            .map(|(i, _)| FingerprintEntry {
                path: format!("europe/yaml/2022/02/01/00{:02}.yaml", 5 * i),
                size: 1000 + i as u64,
                hash: 31 * i as u64,
            })
            .collect(),
    };
    let header = SegmentHeader {
        t_min: snapshots[0].timestamp,
        t_max: snapshots[4].timestamp,
        entries: 5,
        snapshots: 5,
        meta_digest: identity_digest(
            fingerprint
                .entries
                .iter()
                .map(|e| (e.path.as_str(), e.size)),
        ),
    };
    let stats = CorpusLoadStats {
        files: 5,
        parsed: 5,
        bytes: 5010,
        ..CorpusLoadStats::default()
    };
    let bytes = encode_segment(&header, &store, &fingerprint, &stats);
    let (_, decoded, _, _) = decode_segment(&bytes).expect("decodes");
    assert_eq!(decoded, store);
    bytes
}

#[test]
fn a_multi_row_segment_rejects_every_truncation_and_byte_flip() {
    let bytes = multi_row_segment();
    for len in 0..bytes.len() {
        let result: Result<_, CacheError> = decode_segment(&bytes[..len]);
        assert!(result.is_err(), "truncation to {len} bytes must not decode");
    }
    for pos in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0xFF;
        assert!(
            decode_segment(&flipped).is_err(),
            "a flip at byte {pos} must not decode"
        );
    }
}

/// Past the CRCs: every byte of the snapshot, row and load sections
/// flipped under a recomputed section CRC. Decoding never panics, and an
/// image it accepts is canonical: the store equals the build of its own
/// snapshots (so no two consecutive rows are equal — flipping the lowest
/// bit of B's last node id makes the rows `A, A, A`) and re-encodes to
/// exactly its bytes.
#[test]
fn decoded_images_are_canonical_even_under_valid_crcs() {
    let bytes = multi_row_segment();
    let image = &bytes[wm_dataset::segment::SEGMENT_HEADER_LEN..];
    let count = u32::from_le_bytes(image[..4].try_into().unwrap()) as usize;
    let mut checked = 0;
    for entry in image[4..4 + 24 * count].chunks_exact(24) {
        let tag = &entry[..4];
        if ![&b"SNAP"[..], b"ROWS", b"LOAD"].contains(&tag) {
            continue;
        }
        let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(entry[12..20].try_into().unwrap()) as usize;
        let crc_at = 4
            + 24 * (image[4..]
                .chunks_exact(24)
                .position(|e| e == entry)
                .unwrap())
            + 20;
        for pos in offset..offset + len {
            for mask in [0x01u8, 0xFF] {
                let mut mutated = image.to_vec();
                mutated[pos] ^= mask;
                let crc = crc32(&mutated[offset..offset + len]);
                mutated[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                if let Ok((store, fingerprint, stats)) = decode_store(&mutated) {
                    let what = format!("{} byte {pos} ^ {mask:#x}", String::from_utf8_lossy(tag));
                    let snapshots: Vec<TopologySnapshot> = store.snapshots().collect();
                    assert_eq!(
                        store,
                        LongitudinalStore::from_snapshots(&snapshots),
                        "{what} decoded to a store no build produces"
                    );
                    assert_eq!(
                        encode_store(&store, &fingerprint, &stats),
                        mutated,
                        "{what} decoded to a store that encodes differently"
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "the three sections were found and mutated");
}
