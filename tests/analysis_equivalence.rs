//! Store-driven suite equivalence: running all nine §5 analyses in one
//! scan of the columnar longitudinal store must produce exactly what
//! the per-figure slice functions — the multi-pass reference, one pass
//! per artifact — produce over the same YAML corpus, parsed file by file
//! without the loader, and must depend neither on the loader's thread
//! count nor on whether the store was loaded whole or windowed.

use ovh_weather::prelude::*;
use ovh_weather::simulator::faults::{corrupt, FaultKind};
use wm_analysis::{
    coverage_segments, detect_changes, disabled_fraction, evolution_series, maintenance_windows,
    site_growth, EvolutionReport, GapDistribution, MaintenanceReport, TimeframeReport,
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

/// The naive YAML reference: every file of `map` read and parsed on
/// its own, in path order, unparsable files skipped.
fn parse_each_file(store: &DatasetStore, map: MapKind) -> Vec<TopologySnapshot> {
    store
        .entries_of(map, FileKind::Yaml)
        .expect("list yaml")
        .iter()
        .filter_map(|entry| {
            let bytes = store
                .read(map, FileKind::Yaml, entry.timestamp)
                .expect("read yaml");
            from_yaml_str(std::str::from_utf8(&bytes).ok()?).ok()
        })
        .collect()
}

/// The multi-pass reference report: every artifact computed by its own
/// slice function over `snapshots`, Fig. 4c and Table 1 from the last.
fn reference_report(snapshots: &[TopologySnapshot], config: &SuiteConfig) -> SuiteReport {
    let times: Vec<Timestamp> = snapshots.iter().map(|s| s.timestamp).collect();
    let series = evolution_series(snapshots);
    let mut hourly = HourlyLoads::new();
    let mut load_cdf = LoadCdf::new();
    let mut imbalance = ImbalanceCdf::new();
    for s in snapshots {
        hourly.add_snapshot(s);
        load_cdf.add_snapshot(s);
        imbalance.add_snapshot(s);
    }
    let last = snapshots.last();
    SuiteReport {
        snapshots: snapshots.len(),
        timeframe: TimeframeReport {
            segments: coverage_segments(&times, config.max_gap),
            gaps: GapDistribution::new(&times),
        },
        evolution: EvolutionReport {
            router_events: detect_changes(&series, |p| p.routers, config.min_router_delta),
            internal_link_events: detect_changes(
                &series,
                |p| p.internal_links,
                config.min_link_delta,
            ),
            series,
        },
        degree: last.map(DegreeAnalysis::of),
        hourly,
        load_cdf,
        imbalance,
        table1: table1(last.map(std::slice::from_ref).unwrap_or_default()),
        sites: site_growth(snapshots),
        maintenance: MaintenanceReport {
            windows: maintenance_windows(snapshots),
            observations: snapshots.iter().map(|s| s.links.len()).sum(),
            disabled: snapshots
                .iter()
                .flat_map(|s| &s.links)
                .filter(|l| l.is_disabled())
                .count(),
        },
        upgrade: None,
    }
}

#[test]
fn single_pass_suite_equals_legacy_multi_pass() {
    let (store, maps) = corpus("legacy");
    let config = SuiteConfig::default();
    let mut merged = Vec::new();
    let mut per_map_last = Vec::new();

    for &map in &maps {
        let snapshots = parse_each_file(&store, map);
        let (columnar, _) = build_longitudinal(&store, map, 4).expect("columnar build");
        let (report, stats) = AnalysisSuite::run_store(config.clone(), &columnar);
        assert_eq!(report.snapshots, snapshots.len());
        assert_eq!(stats.snapshots_scanned, columnar.len() as u64);
        assert_eq!(stats.rows_scanned, columnar.observations() as u64);

        let times: Vec<Timestamp> = snapshots.iter().map(|s| s.timestamp).collect();
        assert_eq!(
            report.timeframe.segments,
            coverage_segments(&times, config.max_gap)
        );
        assert_eq!(report.timeframe.gaps, GapDistribution::new(&times));
        assert_eq!(report.evolution.series, evolution_series(&snapshots));

        let last = snapshots.last().expect("non-empty");
        assert_eq!(report.degree, Some(DegreeAnalysis::of(last)));
        assert_eq!(report.table1, table1(std::slice::from_ref(last)));

        let mut hourly = HourlyLoads::new();
        let mut cdf = LoadCdf::new();
        let mut imbalance = ImbalanceCdf::new();
        for s in &snapshots {
            hourly.add_snapshot(s);
            cdf.add_snapshot(s);
            imbalance.add_snapshot(s);
        }
        assert_eq!(report.hourly, hourly);
        assert_eq!(report.load_cdf, cdf);
        assert_eq!(report.imbalance, imbalance);

        assert_eq!(report.sites, site_growth(&snapshots));
        assert_eq!(report.maintenance.windows, maintenance_windows(&snapshots));
        assert!(
            (report.maintenance.disabled_fraction() - disabled_fraction(&snapshots)).abs() < 1e-12
        );
        assert_eq!(report.upgrade, None);

        per_map_last.push(last.clone());
        merged.extend(snapshots);
    }

    // A merged multi-map store assembles Table 1 from the last snapshot
    // of each map, exactly like handing `table1` one snapshot per map.
    merged.sort_by_key(|s| (s.timestamp, s.map));
    let merged_store = LongitudinalStore::from_snapshots(&merged);
    let (merged_report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &merged_store);
    assert_eq!(merged_report.table1, table1(&per_map_last));
    assert_eq!(merged_report.table1.rows.len(), maps.len());

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}

#[test]
fn store_driven_suite_is_byte_identical_to_legacy() {
    let (store, maps) = corpus("store");
    let config = SuiteConfig::default();

    for &map in &maps {
        let snapshots = parse_each_file(&store, map);
        let reference = reference_report(&snapshots, &config);
        let reference_debug = format!("{reference:?}");
        let reference_render = reference.render();

        // A mid-series window: the windowed load alone restricts what
        // the suite scans, against the reference over the same files.
        let mid = snapshots[snapshots.len() / 2].timestamp;
        let window = TimeRange::new(mid, TimeRange::ALL.end);
        let windowed_snapshots: Vec<TopologySnapshot> = snapshots
            .iter()
            .filter(|s| window.contains(s.timestamp))
            .cloned()
            .collect();
        let windowed_reference = reference_report(&windowed_snapshots, &config);

        for threads in [1usize, 2, 8] {
            let (columnar, _) = build_longitudinal(&store, map, threads).expect("build");

            // Byte-identical, not merely structurally equal: same report,
            // same debug form, same rendered text.
            let (report, stats) = AnalysisSuite::run_store(config.clone(), &columnar);
            assert_eq!(report, reference, "{map}, {threads} threads: report");
            assert_eq!(
                format!("{report:?}"),
                reference_debug,
                "{map}, {threads} threads: debug form"
            );
            assert_eq!(
                report.render(),
                reference_render,
                "{map}, {threads} threads: rendered text"
            );
            assert_eq!(stats.snapshots_scanned, columnar.len() as u64);
            assert_eq!(stats.rows_scanned, columnar.observations() as u64);

            let (windowed, _) =
                build_longitudinal_windowed(&store, map, window, threads, CacheMode::Off)
                    .expect("windowed build");
            let (windowed_report, windowed_stats) =
                AnalysisSuite::run_store(config.clone(), &windowed);
            assert_eq!(
                windowed_report, windowed_reference,
                "{map}, {threads} threads: windowed report"
            );
            assert_eq!(windowed_report.render(), windowed_reference.render());
            assert!(
                windowed_stats.snapshots_scanned < stats.snapshots_scanned,
                "{map}: the window must shrink the scan"
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
        let (baseline_report, _) =
            AnalysisSuite::run_store(SuiteConfig::default(), &baseline_store);
        let baseline_debug = format!("{baseline_report:?}");
        let baseline_render = baseline_report.render();

        for threads in [2usize, 8] {
            let (columnar, stats) = build_longitudinal(&store, map, threads).expect("build");
            assert_eq!(columnar, baseline_store, "{map}, {threads} threads: store");
            assert_eq!(stats, baseline_stats, "{map}, {threads} threads: stats");
            let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &columnar);
            assert_eq!(report, baseline_report, "{map}, {threads} threads: report");
            // Byte-identical, not merely structurally equal: the rendered
            // text and the full debug form must match the serial run.
            assert_eq!(format!("{report:?}"), baseline_debug);
            assert_eq!(report.render(), baseline_render);
        }
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}
