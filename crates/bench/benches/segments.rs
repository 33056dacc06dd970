//! Time-sharded segment store: full and windowed loads, plus the
//! append-and-compact path.
//!
//! The segment store exists so a small-window `analyze --from/--to`
//! decodes only the segments its range intersects and an append
//! rewrites only the active tail. This bench pins those shapes — full
//! windowed load, narrow window, gap query, tail append — so a
//! regression in the segment codec, manifest matching, or the reuse
//! pool shows up as a wall-clock change.

use criterion::{criterion_group, criterion_main, Criterion};
use ovh_weather::prelude::*;

const MAP: MapKind = MapKind::Europe;
const THREADS: usize = 4;
const POLICY: SegmentPolicy = SegmentPolicy { capacity: 6 };

/// Two hours of the Europe map plus the timestamps bracketing the
/// newest half hour (for the append shape).
fn corpus_store() -> (DatasetStore, Timestamp, Timestamp) {
    let dir = std::env::temp_dir().join(format!("wm-bench-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DatasetStore::open(&dir).expect("bench corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.15));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(2);
    pipeline
        .materialize_window(&store, MAP, from, to)
        .expect("materialise bench corpus");
    (store, from, to)
}

fn windowed(
    store: &DatasetStore,
    range: TimeRange,
    mode: CacheMode,
) -> (LongitudinalStore, CorpusLoadStats) {
    build_longitudinal_windowed_with(store, MAP, range, THREADS, mode, POLICY)
        .expect("windowed load")
}

fn bench_segments(c: &mut Criterion) {
    let (store, from, to) = corpus_store();
    let mut group = c.benchmark_group("segments/europe-2h");
    group.sample_size(10);

    group.bench_function("build-all", |b| {
        b.iter(|| {
            store.remove_segments(MAP).expect("reset");
            windowed(&store, TimeRange::ALL, CacheMode::Auto).0.len()
        });
    });

    // One populate so every load below is served from sealed segments.
    windowed(&store, TimeRange::ALL, CacheMode::Auto);

    group.bench_function("full-window", |b| {
        b.iter(|| {
            let (loaded, stats) = windowed(&store, TimeRange::ALL, CacheMode::Auto);
            assert_eq!(stats.cache.hits, 1);
            loaded.len()
        });
    });

    let narrow = TimeRange::new(to - Duration::from_minutes(30), to);
    group.bench_function("window-30min", |b| {
        b.iter(|| {
            let (loaded, stats) = windowed(&store, narrow, CacheMode::Auto);
            assert!(stats.cache.segments_touched > 0);
            loaded.len()
        });
    });

    let before_history = TimeRange::new(from - Duration::from_hours(2), from);
    group.bench_function("window-empty", |b| {
        b.iter(|| windowed(&store, before_history, CacheMode::Auto).0.len());
    });

    // Append: build the segment store once without the newest snapshot
    // file, capture that prefix state, and per iteration reset to it
    // (cheap file writes) before timing the append-and-load.
    let last = store
        .entries_of(MAP, FileKind::Yaml)
        .expect("entries")
        .last()
        .expect("non-empty")
        .timestamp;
    let last_bytes = store.read(MAP, FileKind::Yaml, last).expect("read last");
    std::fs::remove_file(store.path_of(MAP, FileKind::Yaml, last)).expect("stash");
    windowed(&store, TimeRange::ALL, CacheMode::Rebuild);
    let prefix: Vec<(String, Vec<u8>)> = store
        .list_segment_files(MAP)
        .expect("list")
        .into_iter()
        .map(|name| {
            let bytes = store
                .read_segment_file(MAP, &name)
                .expect("read segment")
                .expect("exists");
            (name, bytes)
        })
        .collect();
    let prefix_manifest = store
        .read_manifest_bytes(MAP)
        .expect("read manifest")
        .expect("manifest exists");
    store
        .write(MAP, FileKind::Yaml, last, &last_bytes)
        .expect("restore");
    group.bench_function("append-one", |b| {
        b.iter(|| {
            for name in store.list_segment_files(MAP).expect("list") {
                if !prefix.iter().any(|(n, _)| n == &name) {
                    store.remove_segment_file(MAP, &name).expect("gc");
                }
            }
            for (name, bytes) in &prefix {
                store.write_segment_file(MAP, name, bytes).expect("reset");
            }
            store
                .write_manifest_bytes(MAP, &prefix_manifest)
                .expect("reset manifest");
            let (loaded, stats) = windowed(&store, narrow, CacheMode::Auto);
            assert_eq!(stats.cache.appends, 1);
            loaded.len()
        });
    });

    group.finish();
    let _ = std::fs::remove_dir_all(store.root());
}

criterion_group!(benches, bench_segments);
criterion_main!(benches);
