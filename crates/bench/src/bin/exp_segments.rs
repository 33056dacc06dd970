//! Append latency vs history length and window-load time vs window size
//! over the time-sharded segment store — the measurement behind the
//! EXPERIMENTS.md "Time-sharded segment store" table, emitted as
//! machine-readable `BENCH_segments.json`.
//!
//! ```sh
//! cargo run --release --bin exp_segments -- --threads 8
//! ```
//!
//! A fixed set of extracted template snapshots is re-stamped across
//! histories of increasing length (hourly cadence), so corpus size
//! grows without re-running extraction. For each history the experiment
//! times the cold segment build, the warm full-range load, windowed
//! loads of shrinking spans, and — the headline — the cost of
//! appending one snapshot and re-querying a small window, which must
//! stay flat as history grows. Every full-range load is compared
//! against the monolithic `build_longitudinal` path; the numbers are
//! only printed if the answers are identical.

use std::fmt::Write as _;
use std::time::Instant;

use ovh_weather::prelude::*;

const MAP: MapKind = MapKind::Europe;

struct Options {
    seed: u64,
    scale: f64,
    threads: usize,
    days: Vec<i64>,
    out: String,
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: exp_segments [--seed N] [--scale X|full] [--threads N] \
         [--days A,B,C] [--out FILE.json]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        seed: 42,
        scale: 0.15,
        threads: 8,
        days: vec![2, 7, 30, 60],
        out: "BENCH_segments.json".to_owned(),
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
            "--threads" => {
                options.threads = value.parse().unwrap_or_else(|_| usage("bad --threads"))
            }
            "--days" => {
                options.days = value
                    .split(',')
                    .map(|d| d.parse().unwrap_or_else(|_| usage("bad --days")))
                    .collect()
            }
            "--out" => options.out = value.to_owned(),
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

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

struct WindowRow {
    label: &'static str,
    seconds: f64,
    touched: u64,
    total_segments: usize,
    snapshots: usize,
}

struct HistoryRow {
    days: i64,
    files: usize,
    segments: usize,
    build_s: f64,
    full_s: f64,
    append_s: f64,
    windows: Vec<WindowRow>,
}

fn main() {
    let options = parse_args();
    println!("=== exp_segments — time-sharded segment store: append & windowed loads ===");
    println!(
        "seed {} | scale {} | histories {:?} days (hourly cadence) | {} loader threads | deterministic\n",
        options.seed, options.scale, options.days, options.threads
    );

    // Template snapshots: one extracted hour, re-stamped across history.
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed, options.scale));
    let from = Timestamp::from_ymd(2022, 2, 1);
    let result = pipeline.run_window(MAP, from, from + Duration::from_hours(1));
    let templates = result.snapshots;
    assert!(!templates.is_empty(), "template extraction came up empty");
    println!(
        "templates: {} extracted snapshots, {} routers in the last\n",
        templates.len(),
        templates.last().map_or(0, TopologySnapshot::router_count)
    );

    let threads = options.threads;
    let mut rows: Vec<HistoryRow> = Vec::new();

    for &days in &options.days {
        let dir =
            std::env::temp_dir().join(format!("wm-exp-segments-{}d-{}", days, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(&dir).expect("corpus dir");
        let hours = days * 24;
        for h in 0..hours {
            let mut s = templates[h as usize % templates.len()].clone();
            s.timestamp = from + Duration::from_hours(h);
            store
                .write(
                    MAP,
                    FileKind::Yaml,
                    s.timestamp,
                    to_yaml_string(&s).as_bytes(),
                )
                .expect("write yaml");
        }
        let end = from + Duration::from_hours(hours);

        // Cold: derive every segment from YAML.
        let ((_, build_stats), build_s) = timed(|| {
            build_longitudinal_windowed(&store, MAP, TimeRange::ALL, threads, CacheMode::Rebuild)
                .expect("build")
        });
        assert_eq!(build_stats.cache.misses, 1);

        // Warm full-range load, checked against the monolithic path.
        let ((full, full_stats), full_s) = timed(|| {
            build_longitudinal_windowed(&store, MAP, TimeRange::ALL, threads, CacheMode::Auto)
                .expect("full")
        });
        assert_eq!(full_stats.cache.hits, 1);
        let (reference, _) = build_longitudinal(&store, MAP, threads).expect("reference");
        assert_eq!(full, reference, "{days}d: windowed ≠ monolithic");
        let (report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &full);
        let (reference_report, _) = AnalysisSuite::run_store(SuiteConfig::default(), &reference);
        assert_eq!(report, reference_report, "{days}d: reports differ");
        let total_segments = full_stats.cache.segments_touched as usize;

        // Windowed loads of shrinking spans, newest-first.
        let mut windows = Vec::new();
        for (label, span_hours) in [("24h", 24i64), ("6h", 6), ("1h", 1)] {
            let range = TimeRange::new(end - Duration::from_hours(span_hours), end);
            let ((loaded, stats), seconds) = timed(|| {
                build_longitudinal_windowed(&store, MAP, range, threads, CacheMode::Auto)
                    .expect("window")
            });
            assert_eq!(stats.cache.hits, 1, "{days}d/{label}: warm window");
            windows.push(WindowRow {
                label,
                seconds,
                touched: stats.cache.segments_touched,
                total_segments,
                snapshots: loaded.len(),
            });
        }

        // The headline: append one snapshot, re-query the newest 6 h.
        let mut appended = templates[0].clone();
        appended.timestamp = end;
        store
            .write(
                MAP,
                FileKind::Yaml,
                end,
                to_yaml_string(&appended).as_bytes(),
            )
            .expect("append yaml");
        let after = Timestamp::from_unix(end.unix() + 1);
        let tail_range = TimeRange::new(after - Duration::from_hours(6), after);
        let ((_, append_stats), append_s) = timed(|| {
            build_longitudinal_windowed(&store, MAP, tail_range, threads, CacheMode::Auto)
                .expect("append")
        });
        assert_eq!(append_stats.cache.appends, 1, "{days}d: must append");
        assert_eq!(
            append_stats.cache.snapshots_appended, 1,
            "{days}d: append must parse exactly the new file"
        );

        rows.push(HistoryRow {
            days,
            files: hours as usize + 1,
            segments: total_segments,
            build_s,
            full_s,
            append_s,
            windows,
        });
        std::fs::remove_dir_all(store.root()).expect("cleanup");
    }

    println!("full-range windowed loads identical to the monolithic path: yes\n");
    println!(
        "{:>6} {:>7} {:>9} {:>10} {:>10} {:>12}   windows (touched/total)",
        "days", "files", "segments", "build s", "full s", "append+6h s"
    );
    for row in &rows {
        let windows: Vec<String> = row
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{} {:.3}s ({}/{})",
                    w.label, w.seconds, w.touched, w.total_segments
                )
            })
            .collect();
        println!(
            "{:>6} {:>7} {:>9} {:>10.3} {:>10.3} {:>12.3}   {}",
            row.days,
            row.files,
            row.segments,
            row.build_s,
            row.full_s,
            row.append_s,
            windows.join(", ")
        );
    }
    if let Some(kib) = peak_rss_kib() {
        println!("\npeak RSS (VmHWM)  {:.1} MiB", kib as f64 / 1024.0);
    }

    // Machine-readable artifact.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"segments\",\n");
    let _ = writeln!(
        json,
        "  \"seed\": {}, \"scale\": {}, \"threads\": {},",
        options.seed, options.scale, options.threads
    );
    json.push_str("  \"histories\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"days\": {}, \"files\": {}, \"segments\": {}, \
             \"build_s\": {:.6}, \"full_load_s\": {:.6}, \"append_plus_6h_s\": {:.6}, \"windows\": [",
            row.days, row.files, row.segments, row.build_s, row.full_s, row.append_s
        );
        for (j, w) in row.windows.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"window\": \"{}\", \"seconds\": {:.6}, \"segments_touched\": {}, \
                 \"segments_total\": {}, \"snapshots\": {}}}{}",
                w.label,
                w.seconds,
                w.touched,
                w.total_segments,
                w.snapshots,
                if j + 1 < row.windows.len() { ", " } else { "" }
            );
        }
        let _ = writeln!(json, "]}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&options.out, &json).expect("write BENCH_segments.json");
    println!("wrote {}", options.out);
}
