//! Single-pass §5 analysis from disk to report: one streaming corpus
//! load into the columnar store, one suite scan.
//!
//! ```sh
//! cargo run --release --bin exp_analyze -- --threads 8
//! ```
//!
//! Reports the wall time and the process's peak RSS (`VmHWM`).

use std::time::Instant;

use ovh_weather::prelude::*;

struct Options {
    seed: u64,
    scale: f64,
    hours: i64,
    threads: usize,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: exp_analyze [--seed N] [--scale X|full] [--hours H] [--threads N]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        seed: 42,
        scale: 1.0,
        hours: 6,
        threads: 8,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str).unwrap_or("");
        match args[i].as_str() {
            "--seed" => options.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--scale" => {
                options.scale = if value == "full" {
                    1.0
                } else {
                    value.parse().unwrap_or_else(|_| usage("bad --scale"))
                }
            }
            "--hours" => options.hours = value.parse().unwrap_or_else(|_| usage("bad --hours")),
            "--threads" => {
                options.threads = value.parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown option {other:?}")),
        }
        i += 2;
    }
    options
}

/// Peak resident set size of this process in KiB, from `VmHWM` in
/// `/proc/self/status` (Linux; `None` elsewhere).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Suite shape: one streaming load into the columnar store, one scan.
fn single_pass(store: &DatasetStore, map: MapKind, threads: usize) {
    let (columnar, _) = build_longitudinal(store, map, threads).expect("build");
    let _ = AnalysisSuite::run(SuiteConfig::default(), columnar.snapshots());
}

fn main() {
    let options = parse_args();
    println!("=== exp_analyze — single-pass §5 analysis ===");
    println!(
        "seed {} | scale {} | {} h of Europe | {} loader threads | deterministic\n",
        options.seed, options.scale, options.hours, options.threads
    );

    let dir = std::env::temp_dir().join(format!("wm-exp-analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DatasetStore::open(&dir).expect("corpus dir");
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed, options.scale));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let to = from + Duration::from_hours(options.hours);
    let map = MapKind::Europe;
    print!("materialising {from} .. {to}... ");
    let result = pipeline
        .materialize_window(&store, map, from, to)
        .expect("materialise corpus");
    println!("{} snapshots\n", result.snapshots.len());

    let started = Instant::now();
    single_pass(&store, map, options.threads);
    let elapsed = started.elapsed().as_secs_f64();
    println!("single-pass (suite)    {elapsed:>8.3} s");
    if let Some(kib) = peak_rss_kib() {
        println!("peak RSS (VmHWM)       {:>8.1} MiB", kib as f64 / 1024.0);
    }

    std::fs::remove_dir_all(store.root()).expect("cleanup");
}
