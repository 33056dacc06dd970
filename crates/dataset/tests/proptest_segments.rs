//! Property-based checks of the time-sharded segment store: the
//! manifest always partitions the corpus (no gaps, no overlaps, canonical
//! chunking), history round-trips exactly through seal/append/compact at
//! any capacity, a reindex counts what a whole-history load counts, and
//! empty-window queries are answered from the manifest alone.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use wm_dataset::segments::{decode_manifest, SegmentPolicy};
use wm_dataset::{
    build_longitudinal_windowed_with, reindex_segments_with, segment_name, CacheMode, DatasetStore,
    FileKind, LongitudinalStore,
};
use wm_extract::to_yaml_string;
use wm_model::{
    Duration, Link, LinkEnd, Load, MapKind, Node, TimeRange, Timestamp, TopologySnapshot,
};

const MAP: MapKind = MapKind::Europe;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-case corpus directory (cases run within one process).
fn temp_store(tag: &str) -> DatasetStore {
    let dir = std::env::temp_dir().join(format!(
        "ovh-weather-proptest-segments-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    DatasetStore::open(&dir).expect("temp corpus")
}

/// A small deterministic snapshot whose YAML round-trips exactly.
fn snapshot(t: Timestamp, salt: u64) -> TopologySnapshot {
    let mut s = TopologySnapshot::new(MAP, t);
    s.nodes = vec![Node::from_name("par-g1"), Node::from_name("rbx-g2")];
    let load = |v: u64| Load::new((v % 101) as u8).unwrap();
    s.links = vec![Link::new(
        LinkEnd::new(
            Node::from_name("par-g1"),
            Some("#1".to_owned()),
            load(salt.wrapping_mul(7) + 13),
        ),
        LinkEnd::new(
            Node::from_name("rbx-g2"),
            Some("#1".to_owned()),
            load(salt.wrapping_mul(3) + 41),
        ),
    )];
    s
}

fn write_snapshots(store: &DatasetStore, snapshots: &[TopologySnapshot]) {
    for s in snapshots {
        store
            .write(
                MAP,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(s).as_bytes(),
            )
            .expect("write yaml");
    }
}

fn load_all(
    store: &DatasetStore,
    mode: CacheMode,
    capacity: usize,
) -> (LongitudinalStore, wm_dataset::CorpusLoadStats) {
    build_longitudinal_windowed_with(
        store,
        MAP,
        TimeRange::ALL,
        2,
        mode,
        SegmentPolicy { capacity },
    )
    .expect("windowed load")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seal/append/compact round-trip: whatever the capacity and however
    /// the corpus is split into an initial build plus an append, the
    /// final store reproduces every written snapshot in order, and the
    /// manifest is the canonical partition of the entry list.
    #[test]
    fn history_round_trips_and_manifest_partitions(
        capacity in 1usize..7,
        total in 1usize..32,
        split_pct in 0usize..101,
        salt in 0u64..1_000,
    ) {
        let store = temp_store("roundtrip");
        let base = Timestamp::from_ymd(2022, 4, 1);
        let all: Vec<TopologySnapshot> = (0..total)
            .map(|i| snapshot(base + Duration::from_minutes(5 * i as i64), salt + i as u64))
            .collect();

        // Initial build over a prefix, then append the rest.
        let split = total * split_pct / 100;
        write_snapshots(&store, &all[..split]);
        if split > 0 {
            let (built, _) = load_all(&store, CacheMode::Auto, capacity);
            prop_assert_eq!(built.len(), split);
        }
        write_snapshots(&store, &all[split..]);
        let (grown, _) = load_all(&store, CacheMode::Auto, capacity);

        // Round trip: the grown store holds exactly the written history.
        let reference = LongitudinalStore::from_snapshots(&all);
        prop_assert_eq!(&grown, &reference);
        let reloaded: Vec<TopologySnapshot> = grown.snapshots().collect();
        prop_assert_eq!(&reloaded, &all);

        // A forced compaction (rebuild) converges on the same store.
        let (compacted, _) = load_all(&store, CacheMode::Rebuild, capacity);
        prop_assert_eq!(&compacted, &reference);

        // The manifest is the canonical partition: ceil(n/c) rows, all
        // full except the last, contiguous in time, named after t_min,
        // spans strictly increasing and non-overlapping.
        let bytes = store
            .read_manifest_bytes(MAP)
            .expect("read manifest")
            .expect("manifest exists");
        let manifest = decode_manifest(&bytes).expect("valid manifest");
        prop_assert_eq!(manifest.segments.len(), total.div_ceil(capacity));
        let mut covered = 0usize;
        for (i, meta) in manifest.segments.iter().enumerate() {
            let chunk = &all[i * capacity..(i * capacity + capacity).min(total)];
            prop_assert_eq!(meta.entries as usize, chunk.len());
            prop_assert_eq!(meta.snapshots as usize, chunk.len());
            prop_assert_eq!(meta.t_min, chunk.first().unwrap().timestamp);
            prop_assert_eq!(meta.t_max, chunk.last().unwrap().timestamp);
            prop_assert_eq!(&meta.name, &segment_name(meta.t_min));
            if i > 0 {
                prop_assert!(manifest.segments[i - 1].t_max < meta.t_min, "overlap/gap");
            }
            covered += meta.entries as usize;
        }
        prop_assert_eq!(covered, total, "partition must cover every entry");

        // Both callers of the one serve path count alike: a reindex
        // reports the load counters and touched segments of a
        // whole-history load at the same capacity.
        let (_, loaded) = load_all(&store, CacheMode::Auto, capacity);
        let (_, reindexed) =
            reindex_segments_with(&store, MAP, 2, CacheMode::Auto, SegmentPolicy { capacity })
                .expect("reindex");
        prop_assert_eq!(reindexed.base(), loaded.base());
        prop_assert_eq!(reindexed.cache.segments_touched, loaded.cache.segments_touched);

        std::fs::remove_dir_all(store.root()).expect("cleanup");
    }

    /// Empty or gap windows are answered without touching anything
    /// beyond the manifest: even with every segment file and the whole
    /// YAML tree deleted, a query into a coverage gap still returns an
    /// empty store.
    #[test]
    fn empty_windows_only_read_the_manifest(
        capacity in 1usize..6,
        sealed in 1usize..4,
        after in 1usize..6,
        salt in 0u64..1_000,
    ) {
        let store = temp_store("gaps");
        let base = Timestamp::from_ymd(2022, 4, 1);
        // `sealed * capacity` files, a one-day hole, then `after` more —
        // so a segment boundary falls exactly on the hole.
        let head: Vec<TopologySnapshot> = (0..sealed * capacity)
            .map(|i| snapshot(base + Duration::from_minutes(5 * i as i64), salt + i as u64))
            .collect();
        let resume = base + Duration::from_days(1);
        let tail: Vec<TopologySnapshot> = (0..after)
            .map(|i| snapshot(resume + Duration::from_minutes(5 * i as i64), salt + 77 + i as u64))
            .collect();
        write_snapshots(&store, &head);
        write_snapshots(&store, &tail);
        load_all(&store, CacheMode::Auto, capacity);

        // An inverted (empty) range reads nothing at all.
        let (empty, stats) = build_longitudinal_windowed_with(
            &store,
            MAP,
            TimeRange::new(resume, base),
            2,
            CacheMode::Auto,
            SegmentPolicy { capacity },
        )
        .expect("empty range");
        prop_assert_eq!(empty.len(), 0);
        prop_assert_eq!(stats, wm_dataset::CorpusLoadStats::default());

        // Strip the store down to just the manifest.
        for name in store.list_segment_files(MAP).expect("list") {
            store.remove_segment_file(MAP, &name).expect("remove segment");
        }
        let yaml_dir = store.root().join(MAP.slug());
        for sub in std::fs::read_dir(&yaml_dir).expect("map dir") {
            let path = sub.expect("entry").path();
            if path.file_name().is_some_and(|n| n == "yaml") {
                std::fs::remove_dir_all(&path).expect("drop yaml tree");
            }
        }

        // A window inside the hole intersects no segment and sits within
        // indexed coverage: answered from the manifest alone.
        let gap_start = Timestamp::from_unix(
            head.last().unwrap().timestamp.unix() + 1,
        );
        let (in_gap, stats) = build_longitudinal_windowed_with(
            &store,
            MAP,
            TimeRange::new(gap_start, resume),
            2,
            CacheMode::Auto,
            SegmentPolicy { capacity },
        )
        .expect("gap query must not need segments or YAML");
        prop_assert_eq!(in_gap.len(), 0);
        prop_assert_eq!(stats.cache.hits, 1);
        prop_assert_eq!(stats.cache.segments_touched, 0);
        prop_assert_eq!(stats.files, 0);

        std::fs::remove_dir_all(store.root()).expect("cleanup");
    }
}
