//! Single-pass suite equivalence: running all nine §5 analyses in one
//! corpus scan over the columnar longitudinal store must produce exactly
//! what the legacy pattern produced — one corpus load per analysis — and
//! must not depend on the loader's thread count.

use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};
use wm_analysis::{
    coverage_segments, disabled_fraction, evolution_series, maintenance_windows, site_growth,
    GapDistribution,
};

/// Materialises a two-map YAML corpus with injected faults: every third
/// SVG is corrupted before extraction (so the YAML tree has real holes —
/// coverage gaps, not synthetic ones), and one unparsable YAML file per
/// map exercises the loader's skip-and-count path. Each test passes its
/// own `tag`, so tests running in parallel never share a directory.
fn corpus(tag: &str) -> (DatasetStore, Vec<MapKind>) {
    let dir = std::env::temp_dir().join(format!(
        "ovh-weather-analysis-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sim = Simulation::new(SimulationConfig::scaled(7, 0.1));
    let store = DatasetStore::open(&dir).expect("temp corpus");
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(3);
    let maps = vec![MapKind::Europe, MapKind::World];
    for &map in &maps {
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
        assert!(
            stats.failed > 0,
            "{map}: expected injected faults to leave gaps"
        );
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
    (store, maps)
}

#[test]
fn single_pass_suite_equals_legacy_multi_pass() {
    let (store, maps) = corpus("legacy");
    let config = SuiteConfig::default();

    for &map in &maps {
        // Single pass: one streaming load into the columnar store, one
        // suite scan over its reconstructed snapshots.
        let (columnar, _) = build_longitudinal(&store, map, 4).expect("columnar build");
        let report = AnalysisSuite::run(config.clone(), columnar.snapshots());

        // Legacy pattern: every analysis pays its own corpus load.
        let times: Vec<Timestamp> = load_snapshots(&store, map, 4)
            .expect("load")
            .0
            .iter()
            .map(|s| s.timestamp)
            .collect();
        assert_eq!(
            report.timeframe.segments,
            coverage_segments(&times, config.max_gap)
        );
        assert_eq!(report.timeframe.gaps, GapDistribution::new(&times));

        let snapshots = load_snapshots(&store, map, 4).expect("load").0;
        assert_eq!(report.snapshots, snapshots.len());
        assert_eq!(report.evolution.series, evolution_series(&snapshots));

        let snapshots2 = load_snapshots(&store, map, 4).expect("load").0;
        let last = snapshots2.last().expect("non-empty");
        assert_eq!(report.degree, Some(DegreeAnalysis::of(last)));
        assert_eq!(report.table1, table1(std::slice::from_ref(last)));

        let snapshots3 = load_snapshots(&store, map, 4).expect("load").0;
        let mut hourly = HourlyLoads::new();
        let mut cdf = LoadCdf::new();
        let mut imbalance = ImbalanceCdf::new();
        for s in &snapshots3 {
            hourly.add_snapshot(s);
            cdf.add_snapshot(s);
            imbalance.add_snapshot(s);
        }
        assert_eq!(report.hourly, hourly);
        assert_eq!(report.load_cdf, cdf);
        assert_eq!(report.imbalance, imbalance);

        let snapshots4 = load_snapshots(&store, map, 4).expect("load").0;
        assert_eq!(report.sites, site_growth(&snapshots4));
        assert_eq!(report.maintenance.windows, maintenance_windows(&snapshots4));
        assert!(
            (report.maintenance.disabled_fraction() - disabled_fraction(&snapshots4)).abs() < 1e-12
        );
        assert_eq!(report.upgrade, None);
    }

    // A merged multi-map stream assembles Table 1 from the last snapshot
    // seen per map, exactly like handing the legacy function one
    // same-date snapshot per map.
    let mut merged = Vec::new();
    let mut per_map_last = Vec::new();
    for &map in &maps {
        let snapshots = load_snapshots(&store, map, 4).expect("load").0;
        per_map_last.push(snapshots.last().expect("non-empty").clone());
        merged.extend(snapshots);
    }
    merged.sort_by_key(|s| (s.timestamp, s.map));
    let merged_report = AnalysisSuite::run(SuiteConfig::default(), &merged);
    assert_eq!(merged_report.table1, table1(&per_map_last));
    assert_eq!(merged_report.table1.rows.len(), maps.len());

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn store_driven_suite_is_byte_identical_to_legacy() {
    let (store, maps) = corpus("store");
    let config = SuiteConfig::default();

    for &map in &maps {
        let (baseline_store, _) = build_longitudinal(&store, map, 1).expect("serial build");
        let legacy = AnalysisSuite::run(config.clone(), baseline_store.snapshots());
        let legacy_debug = format!("{legacy:?}");
        let legacy_render = legacy.render();

        // A mid-series cut exercises the range-aware path against the
        // legacy suite's own range filter.
        let mid = baseline_store.timestamps()[baseline_store.len() / 2];
        let ranged_config = SuiteConfig {
            range: Some(TimeRange::new(mid, TimeRange::ALL.end)),
            ..SuiteConfig::default()
        };
        let legacy_ranged = AnalysisSuite::run(ranged_config.clone(), baseline_store.snapshots());

        for threads in [1usize, 2, 8] {
            let (columnar, _) = build_longitudinal(&store, map, threads).expect("build");

            // The column-driven suite must be byte-identical to the
            // reconstruction-driven one: same report, same debug form,
            // same rendered text.
            let (report, stats) = AnalysisSuite::run_store(config.clone(), &columnar);
            assert_eq!(report, legacy, "{map}, {threads} threads: report");
            assert_eq!(
                format!("{report:?}"),
                legacy_debug,
                "{map}, {threads} threads: debug form"
            );
            assert_eq!(
                report.render(),
                legacy_render,
                "{map}, {threads} threads: rendered text"
            );
            assert_eq!(stats.snapshots_scanned, columnar.len() as u64);
            assert_eq!(stats.rows_scanned, columnar.observations() as u64);

            let (ranged, ranged_stats) = AnalysisSuite::run_store(ranged_config.clone(), &columnar);
            assert_eq!(ranged, legacy_ranged, "{map}, {threads} threads: ranged");
            assert!(
                ranged_stats.snapshots_scanned < stats.snapshots_scanned,
                "{map}: the range restriction must shrink the scan"
            );
        }
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn suite_is_thread_invariant() {
    let (store, maps) = corpus("threads");

    for &map in &maps {
        let (baseline_store, baseline_stats) =
            build_longitudinal(&store, map, 1).expect("serial build");
        let baseline_report =
            AnalysisSuite::run(SuiteConfig::default(), baseline_store.snapshots());
        let baseline_debug = format!("{baseline_report:?}");
        let baseline_render = baseline_report.render();

        for threads in [2usize, 8] {
            let (columnar, stats) = build_longitudinal(&store, map, threads).expect("build");
            assert_eq!(columnar, baseline_store, "{map}, {threads} threads: store");
            assert_eq!(stats, baseline_stats, "{map}, {threads} threads: stats");
            let report = AnalysisSuite::run(SuiteConfig::default(), columnar.snapshots());
            assert_eq!(report, baseline_report, "{map}, {threads} threads: report");
            // Byte-identical, not merely structurally equal: the rendered
            // text and the full debug form must match the serial run.
            assert_eq!(format!("{report:?}"), baseline_debug);
            assert_eq!(report.render(), baseline_render);
        }
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}
