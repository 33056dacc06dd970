//! Single-pass §5 analysis over a materialised corpus.
//!
//! The suite folds all nine §5 analyses into one streaming scan of the
//! columnar longitudinal store. This bench measures that path end to
//! end (disk to report) at several loader thread counts.

use criterion::{criterion_group, criterion_main, Criterion};
use ovh_weather::prelude::*;

/// Materialises three hours of the Europe map into a temp store shared
/// by every bench iteration.
fn corpus_store() -> DatasetStore {
    let dir = std::env::temp_dir().join(format!("wm-bench-analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DatasetStore::open(&dir).expect("bench corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.15));
    let from = Timestamp::from_ymd(2022, 2, 1);
    pipeline
        .materialize_window(
            &store,
            MapKind::Europe,
            from,
            from + Duration::from_hours(3),
        )
        .expect("materialise bench corpus");
    store
}

/// The suite path: one streaming load, one scan, all nine modules.
fn single_pass(store: &DatasetStore, threads: usize) -> usize {
    let (columnar, _) = build_longitudinal(store, MapKind::Europe, threads).expect("build");
    let report = AnalysisSuite::run(SuiteConfig::default(), columnar.snapshots());
    report.snapshots + report.sites.len() + report.table1.rows.len()
}

fn bench_analyze(c: &mut Criterion) {
    let store = corpus_store();
    let mut group = c.benchmark_group("analyze/europe-3h");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_function(format!("single-pass-t{threads}"), |b| {
            b.iter(|| single_pass(&store, threads));
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(store.root());
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
