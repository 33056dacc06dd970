//! The paper's evaluation on the one pipeline, and the `reproduce`
//! driver's shared plumbing.
//!
//! ```text
//! reproduce [table1 table2 fig2 fig3 fig4 fig5 fig6 ablation]... [--seed N] [--scale X|full]
//! ```
//!
//! Table 1 and Figs. 4–6 come from [`table1_suite`] and [`run_suite`]:
//! SVG files written to a temporary corpus, extracted by
//! [`extract_to_yaml`] and analysed by [`AnalysisSuite::run_store`] over
//! the segment store — `generate`, `extract` and `analyze --cache`.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

use ovh_weather::analysis::UpgradeTarget;
use ovh_weather::prelude::*;
use ovh_weather::simulator::UpgradeScenario;

/// The options one artifact runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOptions {
    /// Simulation seed (default 42 — the seed EXPERIMENTS.md records).
    pub seed: u64,
    /// Network scale (default depends on the artifact; `--scale full`
    /// selects 1.0).
    pub scale: f64,
}

impl ExpOptions {
    /// The pipeline configured by these options.
    #[must_use]
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(SimulationConfig::scaled(self.seed, self.scale))
    }

    /// Prints the provenance header every artifact starts with.
    pub fn banner(&self, artifact: &str, paper_artifact: &str) {
        println!("=== reproduce {artifact} — reproduces {paper_artifact} ===");
        println!(
            "seed {} | scale {} | deterministic\n",
            self.seed, self.scale
        );
    }
}

/// Formats a paper-vs-measured row.
#[must_use]
pub fn compare_row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<42} paper: {paper:>12}   measured: {measured:>12}")
}

/// Prints a paper-vs-measured row ([`compare_row`]).
pub fn print_row(label: &str, paper: &str, measured: &str) {
    println!("{}", compare_row(label, paper, measured));
}

/// A [`DatasetStore`] in a fresh temporary directory, removed with
/// everything in it when the guard drops.
#[derive(Debug)]
pub struct TempStore(DatasetStore);

impl TempStore {
    /// Opens an empty store in `<temp dir>/wm-bench-<label>-<pid>-<n>`,
    /// where `n` counts the stores this process opened.
    pub fn new(label: &str) -> io::Result<TempStore> {
        static OPENED: AtomicUsize = AtomicUsize::new(0);
        let n = OPENED.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wm-bench-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DatasetStore::open(dir).map(TempStore)
    }
}

impl Deref for TempStore {
    type Target = DatasetStore;

    fn deref(&self) -> &DatasetStore {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(self.0.root());
    }
}

/// Writes `files` as `map`'s SVGs into `store`, extracts them to YAML
/// with [`extract_to_yaml`] and loads the map through the segment store
/// (`generate`, `extract`, then `analyze --cache`'s load). Returns the
/// columns and the extraction counters.
pub fn load_through_store(
    pipeline: &Pipeline,
    store: &DatasetStore,
    map: MapKind,
    files: impl IntoIterator<Item = (Timestamp, String)>,
) -> io::Result<(LongitudinalStore, BatchStats)> {
    let mut instants = Vec::new();
    for (timestamp, svg) in files {
        store.write(map, FileKind::Svg, timestamp, svg.as_bytes())?;
        instants.push(timestamp);
    }
    let threads = pipeline.threads;
    let outcome = extract_to_yaml(store, map, &instants, pipeline.extract_config(), threads)?;
    let (columns, _) =
        build_longitudinal_windowed(store, map, TimeRange::ALL, threads, CacheMode::Auto)?;
    Ok((columns, outcome.stats))
}

/// Runs the §5 suite on the one pipeline over every `stride`-th
/// collected file of `map` in `[from, to)`: the files go through
/// [`load_through_store`] in a [`TempStore`] and are scanned by
/// [`AnalysisSuite::run_store`]. Returns the report and the extraction
/// counters; the store is removed before this returns.
pub fn run_suite(
    pipeline: &Pipeline,
    map: MapKind,
    from: Timestamp,
    to: Timestamp,
    stride: usize,
    config: SuiteConfig,
) -> io::Result<(SuiteReport, BatchStats)> {
    let simulation = pipeline.simulation();
    let files = simulation
        .collection_plan(map)
        .collected_times_between(from, to)
        .step_by(stride.max(1))
        .filter_map(|t| simulation.collected_snapshot(map, t))
        .map(|file| (file.timestamp, file.svg));
    let store = TempStore::new("suite")?;
    let (columns, stats) = load_through_store(pipeline, &store, map, files)?;
    let (report, _) = AnalysisSuite::run_store(config, &columns);
    Ok((report, stats))
}

/// Table 1 on the one pipeline: the four maps' *clean* renders at `at`
/// (a collected file there may be faulted) go through
/// [`load_through_store`] into one [`TempStore`], and
/// [`AnalysisSuite::run_store`] scans the four maps' columns as one
/// store. Returns the report and Europe's mean number of parallel links
/// per connected pair, read from its topology row: link cells over
/// distinct endpoint pairs.
pub fn table1_suite(pipeline: &Pipeline, at: Timestamp) -> io::Result<(SuiteReport, f64)> {
    let store = TempStore::new("table1")?;
    let mut maps = Vec::new();
    for map in MapKind::ALL {
        let svg = pipeline.simulation().snapshot(map, at).svg;
        let (columns, stats) = load_through_store(pipeline, &store, map, [(at, svg)])?;
        if stats.failed > 0 {
            return Err(io::Error::other(format!(
                "{map} extraction failed: {:?}",
                stats.failures_by_kind
            )));
        }
        maps.push(columns);
    }
    let parts: Vec<_> = maps
        .iter()
        .map(|columns| (columns, 0..columns.len()))
        .collect();
    let columns = LongitudinalStore::concat(&parts);
    let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &columns);

    let engine = QueryEngine::new(&columns);
    let europe_row = (0..columns.len())
        .find(|&i| columns.map_of(i) == MapKind::Europe)
        .and_then(|i| columns.row_runs(i..i + 1).next());
    let cell_pairs: Vec<u32> = europe_row.map_or_else(Vec::new, |(row, _)| {
        engine.row_cells(row).map(|cell| cell.pair).collect()
    });
    let pairs: BTreeSet<u32> = cell_pairs.iter().copied().collect();
    let parallelism = if pairs.is_empty() {
        0.0
    } else {
        cell_pairs.len() as f64 / pairs.len() as f64
    };
    Ok((report, parallelism))
}

/// The Fig. 6 suite target of a simulated upgrade: its monitored group
/// and the peering's PeeringDB capacity records.
#[must_use]
pub fn upgrade_target(scenario: &UpgradeScenario) -> UpgradeTarget {
    UpgradeTarget {
        from: scenario.router.clone(),
        to: scenario.peering.clone(),
        records: scenario
            .peeringdb_records
            .iter()
            .map(|r| CapacityRecord {
                at: r.at,
                total_capacity_gbps: r.total_capacity_gbps,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let options = ExpOptions {
            seed: 42,
            scale: 0.25,
        };
        let pipeline = options.pipeline();
        assert_eq!(pipeline.simulation().config().seed, 42);
    }

    #[test]
    fn compare_row_alignment() {
        let row = compare_row("routers", "113", "113");
        assert!(row.contains("paper:"));
        assert!(row.contains("measured:"));
    }

    /// The trip through YAML files and the segment store changes no
    /// figure: `run_suite` reports what the suite reports over the
    /// in-memory extraction, and leaves no directory behind.
    #[test]
    fn run_suite_equals_the_in_memory_suite_and_cleans_up() {
        let pipeline = ExpOptions {
            seed: 42,
            scale: 0.1,
        }
        .pipeline();
        let scenario = pipeline
            .simulation()
            .scenario()
            .expect("the AMS-IX scenario exists at scale 0.1");
        let config = SuiteConfig {
            min_link_delta: 1,
            upgrade: Some(upgrade_target(scenario)),
            ..SuiteConfig::default()
        };
        let (from, to) = (
            Timestamp::from_ymd(2022, 3, 1),
            Timestamp::from_ymd(2022, 3, 8),
        );
        let stride = 36;

        let (report, stats) =
            run_suite(&pipeline, MapKind::Europe, from, to, stride, config.clone())
                .expect("suite run");

        // The in-memory reference: the same sampled files, extracted
        // and scanned without touching the disk.
        let simulation = pipeline.simulation();
        let inputs: Vec<BatchInput> = simulation
            .collection_plan(MapKind::Europe)
            .collected_times_between(from, to)
            .step_by(stride)
            .filter_map(|t| simulation.collected_snapshot(MapKind::Europe, t))
            .map(|file| BatchInput {
                timestamp: file.timestamp,
                svg: file.svg,
            })
            .collect();
        let (snapshots, expected_stats, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            pipeline.extract_config(),
            pipeline.threads,
            Scheduling::WorkStealing,
        );
        let (expected, _) =
            AnalysisSuite::run_store(config, &LongitudinalStore::from_snapshots(&snapshots));
        assert!(report.snapshots > 0);
        assert!(report
            .upgrade
            .as_ref()
            .is_some_and(|u| !u.observations.is_empty()));
        assert_eq!(report, expected);
        assert_eq!(stats, expected_stats);

        let prefix = format!("wm-bench-suite-{}-", std::process::id());
        let left: Vec<_> = fs::read_dir(std::env::temp_dir())
            .expect("list the temp directory")
            .filter_map(Result::ok)
            .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }

    /// Sampling every 12th collected file of six hours extracts at most a
    /// tenth of the window's files, and some.
    #[test]
    fn sampled_window_reduces_density() {
        let pipeline = Pipeline::new(SimulationConfig::scaled(31, 0.1));
        let from = Timestamp::from_ymd(2021, 5, 1);
        let to = from + Duration::from_hours(6);
        let dense = pipeline
            .simulation()
            .collection_plan(MapKind::Europe)
            .collected_times_between(from, to)
            .count();
        let (report, sampled) = run_suite(
            &pipeline,
            MapKind::Europe,
            from,
            to,
            12,
            SuiteConfig::default(),
        )
        .expect("suite run");
        assert!(sampled.total() * 10 <= dense);
        assert!(report.snapshots > 0);
    }

    /// Table 1 through the store equals the table of the extracted
    /// snapshots, and Europe's parallelism read from its row equals the
    /// snapshot's.
    #[test]
    fn table1_suite_equals_the_table_of_the_extracted_snapshots() {
        let pipeline = ExpOptions {
            seed: 42,
            scale: 0.3,
        }
        .pipeline();
        let at = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);
        let (report, parallelism) = table1_suite(&pipeline, at).expect("table 1 run");
        let snapshots: Vec<TopologySnapshot> = MapKind::ALL
            .iter()
            .map(|&map| {
                let svg = pipeline.simulation().snapshot(map, at).svg;
                extract_svg(&svg, map, at, pipeline.extract_config()).expect("clean render")
            })
            .collect();
        assert_eq!(report.table1.rows.len(), 4);
        assert_eq!(report.table1, table1(&snapshots));
        assert_eq!(
            parallelism.to_bits(),
            snapshots[0].mean_parallelism().to_bits()
        );
    }
}
