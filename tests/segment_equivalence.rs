//! Segment-store equivalence: a windowed load must be indistinguishable
//! from a fresh YAML build restricted to the same window — same store,
//! field by field, same load counters, same `SuiteReport` — at 1, 2 and
//! 8 threads, over a fault-injected two-map corpus. Sealed segment
//! bytes must not depend on who wrote them: identical across thread
//! counts and identical between append-then-compact and fresh-build
//! histories. And appending must rewrite only the active tail.

use std::collections::BTreeMap;

use ovh_weather::dataset::decode_manifest;
use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};

const THREADS: [usize; 3] = [1, 2, 8];
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 5 };

/// Materialises a fault-injected YAML window: every third SVG
/// corrupted before extraction, one unparsable YAML file at `to`.
fn write_window(store: &DatasetStore, maps: &[MapKind], from: Timestamp, to: Timestamp) {
    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    for &map in maps {
        let mut inputs: Vec<BatchInput> = sim
            .corpus_between(map, from, to)
            .map(|f| BatchInput {
                timestamp: f.timestamp,
                svg: f.svg,
            })
            .collect();
        for (i, input) in inputs.iter_mut().enumerate() {
            if i % 3 == 0 {
                let fault = FaultKind::ALL[(i / 3) % FaultKind::ALL.len()];
                input.svg = corrupt(&input.svg, fault, i as u64);
            }
        }
        let (snapshots, stats, _) = extract_batch_with(
            &inputs,
            map,
            &ExtractConfig::default(),
            4,
            Scheduling::WorkStealing,
        );
        assert!(stats.processed > 0, "{map}: empty corpus");
        for s in &snapshots {
            store
                .write(
                    map,
                    FileKind::Yaml,
                    s.timestamp,
                    to_yaml_string(s).as_bytes(),
                )
                .expect("write yaml");
        }
        store
            .write(map, FileKind::Yaml, to, b"not: [valid yaml")
            .expect("write broken yaml");
    }
}

fn corpus(tag: &str) -> (DatasetStore, Vec<MapKind>, Timestamp, Timestamp) {
    let dir = std::env::temp_dir().join(format!(
        "ovh-weather-segment-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DatasetStore::open(&dir).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(2);
    let maps = vec![MapKind::Europe, MapKind::World];
    write_window(&store, &maps, from, to);
    (store, maps, from, to)
}

/// Every segment-store file of one map, by name, `manifest` included.
fn segment_files(store: &DatasetStore, map: MapKind) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for name in store.list_segment_files(map).expect("list segments") {
        let bytes = store
            .read_segment_file(map, &name)
            .expect("read segment")
            .expect("segment listed but unreadable");
        files.insert(name, bytes);
    }
    if let Some(bytes) = store.read_manifest_bytes(map).expect("read manifest") {
        files.insert("manifest".to_owned(), bytes);
    }
    files
}

fn windowed(
    store: &DatasetStore,
    map: MapKind,
    range: TimeRange,
    threads: usize,
    mode: CacheMode,
) -> (LongitudinalStore, CorpusLoadStats) {
    build_longitudinal_windowed_with(store, map, range, threads, mode, POLICY)
        .expect("windowed load")
}

#[test]
fn windowed_load_equals_restricted_fresh_build() {
    let (store, maps, from, to) = corpus("windows");

    for &map in &maps {
        // Populate the segment store once.
        let (_, stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(stats.cache.misses, 1, "{map}: first build is a miss");

        // Full-range windowed load ≡ the monolithic fresh build.
        let (full, full_stats) = build_longitudinal(&store, map, 4).expect("fresh build");
        let (via_segments, seg_stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(via_segments, full, "{map}: full-range windowed store");
        assert_eq!(seg_stats.base(), full_stats, "{map}: full-range stats");
        assert_eq!(seg_stats.cache.hits, 1);
        assert_eq!(
            seg_stats.cache.snapshots_from_cache,
            full.len() as u64,
            "{map}: everything served from segments"
        );

        let manifest_bytes = store
            .read_manifest_bytes(map)
            .expect("read manifest")
            .expect("manifest exists");
        let manifest = decode_manifest(&manifest_bytes).expect("valid manifest");
        assert!(manifest.segments.len() >= 3, "{map}: want several segments");

        // A spread of windows: full span, prefix, suffix, interior,
        // exactly one segment's closed span, and a window past history.
        let one_seg = &manifest.segments[1];
        let windows = vec![
            ("all", TimeRange::ALL),
            (
                "prefix hour",
                TimeRange::new(from, from + Duration::from_hours(1)),
            ),
            (
                "suffix",
                TimeRange::new(
                    from + Duration::from_minutes(70),
                    to + Duration::from_hours(1),
                ),
            ),
            (
                "interior",
                TimeRange::new(
                    from + Duration::from_minutes(25),
                    from + Duration::from_minutes(95),
                ),
            ),
            (
                "single segment",
                TimeRange::new(
                    one_seg.t_min,
                    Timestamp::from_unix(one_seg.t_max.unix() + 1),
                ),
            ),
            (
                "past history",
                TimeRange::new(to + Duration::from_days(1), to + Duration::from_days(2)),
            ),
        ];

        for (what, range) in windows {
            // The cache-less reference: a fresh YAML build restricted to
            // the window before parsing.
            let (reference, reference_stats) = windowed(&store, map, range, 4, CacheMode::Off);

            for threads in THREADS {
                let (loaded, stats) = windowed(&store, map, range, threads, CacheMode::Auto);
                assert_eq!(loaded, reference, "{map}/{what}/{threads}t: store");
                assert_eq!(
                    stats.base(),
                    reference_stats.base(),
                    "{map}/{what}/{threads}t: load counters"
                );
                // Only intersecting segments may be touched.
                let intersecting = manifest
                    .segments
                    .iter()
                    .filter(|m| range.intersects_closed(m.t_min, m.t_max))
                    .count() as u64;
                assert_eq!(
                    stats.cache.segments_touched, intersecting,
                    "{map}/{what}/{threads}t: touched ≠ intersecting"
                );
                assert_eq!(stats.cache.segments_rebuilt, 0, "{map}/{what}: no damage");

                // The reports agree, and the suite's own range filter
                // over the *full* store agrees with both.
                let report = AnalysisSuite::run(SuiteConfig::default(), loaded.snapshots());
                let reference_report =
                    AnalysisSuite::run(SuiteConfig::default(), reference.snapshots());
                assert_eq!(report, reference_report, "{map}/{what}: report");
                let config = SuiteConfig {
                    range: Some(range),
                    ..SuiteConfig::default()
                };
                let filtered_report = AnalysisSuite::run(config, full.snapshots());
                assert_eq!(report, filtered_report, "{map}/{what}: suite range filter");
            }
        }

        // An empty window returns an empty store without consulting
        // anything (counters all zero, not even a manifest read).
        let (empty, empty_stats) = windowed(
            &store,
            map,
            TimeRange::new(from + Duration::from_hours(1), from),
            4,
            CacheMode::Auto,
        );
        assert_eq!(empty.len(), 0, "{map}: inverted window is empty");
        assert_eq!(empty_stats, CorpusLoadStats::default());
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn sealed_bytes_are_invariant_across_threads_and_histories() {
    let (store, maps, from, to) = corpus("bytes");

    // Thread invariance: rebuild everything at each thread count and
    // compare every segment file byte for byte.
    for &map in &maps {
        let mut images = Vec::new();
        for threads in THREADS {
            windowed(&store, map, TimeRange::ALL, threads, CacheMode::Rebuild);
            images.push(segment_files(&store, map));
        }
        assert!(
            images.windows(2).all(|w| w[0] == w[1]),
            "{map}: segment bytes differ across thread counts"
        );
    }

    // History invariance: a store grown by append-then-compact must end
    // up byte-identical to one built fresh over the same final corpus.
    let tail_from = to + Duration::from_minutes(5);
    let tail_to = tail_from + Duration::from_hours(1);

    let fresh_dir = std::env::temp_dir().join(format!(
        "ovh-weather-segment-equivalence-bytes-fresh-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&fresh_dir);
    let fresh_store = DatasetStore::open(&fresh_dir).expect("fresh corpus");
    write_window(&fresh_store, &maps, from, to);
    write_window(&fresh_store, &maps, tail_from, tail_to);

    write_window(&store, &maps, tail_from, tail_to);
    for &map in &maps {
        // Grown store: segments already exist for the old prefix; this
        // load appends (never a full miss).
        let (grown, grown_stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(grown_stats.cache.appends, 1, "{map}: growth is an append");
        assert_eq!(grown_stats.cache.misses, 0, "{map}: growth is not a miss");

        // Fresh store: everything built in one go.
        let (fresh, _) = windowed(&fresh_store, map, TimeRange::ALL, 4, CacheMode::Auto);
        assert_eq!(grown, fresh, "{map}: stores agree");
        assert_eq!(
            segment_files(&store, map),
            segment_files(&fresh_store, map),
            "{map}: append-then-compact and fresh-build bytes differ"
        );
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
    std::fs::remove_dir_all(fresh_store.root()).expect("cleanup");
}

#[test]
fn appending_one_snapshot_rewrites_only_the_active_tail() {
    let (store, maps, _, to) = corpus("tail");
    let map = maps[0];

    let (base, _) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
    let before = segment_files(&store, map);
    let manifest = decode_manifest(before.get("manifest").expect("manifest")).expect("manifest");
    let old_tail = manifest.segments.last().expect("segments").name.clone();

    // Append exactly one parsable snapshot strictly past the history.
    let mut snapshot = base.snapshots().last().expect("non-empty store");
    snapshot.timestamp = to + Duration::from_minutes(5);
    store
        .write(
            map,
            FileKind::Yaml,
            snapshot.timestamp,
            to_yaml_string(&snapshot).as_bytes(),
        )
        .expect("append yaml");

    let (grown, stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
    assert_eq!(grown.len(), base.len() + 1, "{map}: one snapshot appended");
    assert_eq!(stats.cache.appends, 1, "append, not a rebuild");
    assert_eq!(stats.cache.misses, 0);
    assert_eq!(
        stats.cache.snapshots_appended, 1,
        "append cost must be the new file alone, not the history"
    );

    // Every file except the old tail and the manifest is byte-identical;
    // at most one brand-new segment name may appear.
    let after = segment_files(&store, map);
    for (name, bytes) in &before {
        if name == &old_tail || name == "manifest" {
            continue;
        }
        assert_eq!(
            after.get(name),
            Some(bytes),
            "sealed segment {name} was rewritten by an append"
        );
    }
    let new_names: Vec<&String> = after.keys().filter(|k| !before.contains_key(*k)).collect();
    assert!(
        new_names.len() <= 1,
        "an append may add at most one segment, added {new_names:?}"
    );

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn off_leaves_no_store_and_rebuild_equals_off() {
    let (store, maps, _, _) = corpus("modes");
    let map = maps[0];

    // Off is a plain YAML build: nothing read or written on disk.
    let (off, off_stats) = windowed(&store, map, TimeRange::ALL, 4, CacheMode::Off);
    assert!(
        !store.segments_dir(map).exists(),
        "{map}: Off must not create .segments/"
    );
    assert_eq!(
        off_stats.cache,
        CacheStats::default(),
        "{map}: Off counters"
    );
    let (fresh, fresh_stats) = build_longitudinal(&store, map, 4).expect("fresh build");
    assert_eq!(off, fresh, "{map}: Off store");
    assert_eq!(off_stats, fresh_stats, "{map}: Off stats");

    // Rebuild over a warm store re-parses everything and still equals Off.
    windowed(&store, map, TimeRange::ALL, 4, CacheMode::Auto);
    for threads in THREADS {
        let (rebuilt, rebuilt_stats) =
            windowed(&store, map, TimeRange::ALL, threads, CacheMode::Rebuild);
        assert_eq!(rebuilt, off, "{map}, {threads} threads: Rebuild store");
        assert_eq!(rebuilt_stats.base(), off_stats, "{map}: Rebuild stats");
        assert_eq!(rebuilt_stats.cache.misses, 1, "{map}: Rebuild is a miss");
        assert_eq!(rebuilt_stats.cache.hits, 0);
        assert_eq!(
            rebuilt_stats.cache.snapshots_appended,
            off.len() as u64,
            "{map}: Rebuild re-parses every snapshot"
        );
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}
