//! Shared plumbing for the experiment binaries.
//!
//! Every `exp_*` binary regenerates one table or figure of the paper and
//! prints paper-reported values next to the measured ones. They share the
//! command-line convention implemented here:
//!
//! ```text
//! exp_fig4 [--seed N] [--scale X|full]
//! ```
//!
//! Figs. 4–6 come from [`run_suite`]: `ovh-weather analyze --cache`'s path.

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};

use ovh_weather::analysis::UpgradeTarget;
use ovh_weather::prelude::*;
use ovh_weather::simulator::UpgradeScenario;

/// Parsed command-line options of an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOptions {
    /// Simulation seed (default 42 — the seed EXPERIMENTS.md records).
    pub seed: u64,
    /// Network scale (default depends on the experiment; `--scale full`
    /// selects 1.0).
    pub scale: f64,
}

impl ExpOptions {
    /// Parses `--seed` and `--scale` from `std::env::args`.
    ///
    /// `default_scale` is the experiment's fast default.
    #[must_use]
    pub fn from_args(default_scale: f64) -> ExpOptions {
        let mut options = ExpOptions {
            seed: 42,
            scale: default_scale,
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    options.seed = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed expects an integer"));
                    i += 2;
                }
                "--scale" => {
                    let value = args.get(i + 1).map(String::as_str).unwrap_or("");
                    options.scale = if value == "full" {
                        1.0
                    } else {
                        value
                            .parse()
                            .unwrap_or_else(|_| usage("--scale expects a float or 'full'"))
                    };
                    i += 2;
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown option {other:?}")),
            }
        }
        options
    }

    /// The pipeline configured by these options.
    #[must_use]
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(SimulationConfig::scaled(self.seed, self.scale))
    }

    /// Prints the provenance header every experiment starts with.
    pub fn banner(&self, experiment: &str, paper_artifact: &str) {
        println!("=== {experiment} — reproduces {paper_artifact} ===");
        println!(
            "seed {} | scale {} | deterministic\n",
            self.seed, self.scale
        );
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: exp_* [--seed N] [--scale X|full]");
    std::process::exit(2);
}

/// Formats a paper-vs-measured row.
#[must_use]
pub fn compare_row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<42} paper: {paper:>12}   measured: {measured:>12}")
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

/// Runs the §5 suite on `ovh-weather analyze --cache`'s path: extracts
/// every `stride`-th collected snapshot of `map` in `[from, to)`, writes
/// them as YAML into a [`TempStore`], loads it through the segment store
/// and scans it with [`AnalysisSuite::run_store`]. Returns the report and
/// the extraction counters; the store is removed before this returns.
pub fn run_suite(
    pipeline: &Pipeline,
    map: MapKind,
    from: Timestamp,
    to: Timestamp,
    stride: usize,
    config: SuiteConfig,
) -> io::Result<(SuiteReport, BatchStats)> {
    let mut result = pipeline.run_window_sampled(map, from, to, stride);
    let store = TempStore::new("suite")?;
    write_yaml(&store, map, &result.snapshots, &mut result.metrics)?;
    let threads = pipeline.threads;
    let (columns, _) =
        build_longitudinal_windowed(&store, map, TimeRange::ALL, threads, CacheMode::Auto)?;
    let (report, _) = AnalysisSuite::run_store(config, &columns);
    Ok((report, result.stats))
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
        // from_args reads real argv; in tests that's the test harness
        // binary with no --seed/--scale, so defaults apply... except the
        // harness passes filter args. Construct directly instead.
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

        let result = pipeline.run_window_sampled(MapKind::Europe, from, to, stride);
        let (expected, _) = AnalysisSuite::run_store(
            config,
            &LongitudinalStore::from_snapshots(&result.snapshots),
        );
        assert!(report.snapshots > 0);
        assert!(report
            .upgrade
            .as_ref()
            .is_some_and(|u| !u.observations.is_empty()));
        assert_eq!(report, expected);
        assert_eq!(stats, result.stats);

        let prefix = format!("wm-bench-suite-{}-", std::process::id());
        let left: Vec<_> = fs::read_dir(std::env::temp_dir())
            .expect("list the temp directory")
            .filter_map(Result::ok)
            .filter(|entry| entry.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }
}
