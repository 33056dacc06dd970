//! `ovh-weather` — command-line front end of the reproduction.
//!
//! ```text
//! ovh-weather generate --out DIR --from DATE --to DATE [--map M] [--seed N] [--scale X]
//! ovh-weather extract  --in DIR [--map M] [--threads N] [--metrics]
//! ovh-weather stats    --in DIR [--cache[=auto|off|rebuild]] [--threads N]
//! ovh-weather index    --in DIR [--map M] [--threads N] [--cache[=auto|rebuild]] [--metrics]
//! ovh-weather inspect  FILE.svg|FILE.yaml [--map M]
//! ovh-weather validate FILE.yaml
//! ovh-weather verify   [--map M] [--at DATE] [--seed N] [--scale X]
//! ovh-weather analyze  --in DIR [--map M] [--threads N] [--cache[=auto|off|rebuild]]
//!                      [--from DATE] [--to DATE] [--metrics]
//! ovh-weather query    --in DIR [--map M] [--op OP] [--k N] [--window HOURS]
//!                      [--kind K] [--site S] [--from DATE] [--to DATE]
//!                      [--threads N] [--cache[=auto|off|rebuild]] [--json] [--metrics]
//! ovh-weather diff     OLD.yaml NEW.yaml
//! ```
//!
//! `generate` materialises a simulated corpus (SVG + YAML trees, exactly
//! the released dataset's layout); `extract` re-extracts the SVG files of
//! an existing corpus; `stats` prints Table 2 for a corpus directory;
//! `index` builds and validates the time-sharded segment store,
//! repairing any damaged segment, so later `--cache` runs skip YAML
//! entirely; `inspect` extracts or parses one file and summarises it;
//! `validate` audits a YAML snapshot; `verify` runs the simulator
//! round-trip check; `analyze` loads a stored corpus into the columnar
//! longitudinal store and runs all nine §5 analyses in one pass —
//! `--from`/`--to` restrict it to a time window served from only the
//! segments the window intersects; `query` compiles one typed query
//! (scan, top-k, percentiles, per-site loads or a heatmap grid) to
//! vectorized kernels over the columnar load rows and emits text or
//! JSON; `diff` names the structural changes between two snapshots.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use ovh_weather::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "extract" => cmd_extract(rest),
        "stats" => cmd_stats(rest),
        "index" => cmd_index(rest),
        "inspect" => cmd_inspect(rest),
        "validate" => cmd_validate(rest),
        "verify" => cmd_verify(rest),
        "analyze" => cmd_analyze(rest),
        "query" => cmd_query(rest),
        "diff" => cmd_diff(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ovh-weather — reproduce the OVH Weather dataset pipeline

commands:
  generate --out DIR --from YYYY-MM-DD --to YYYY-MM-DD [--map M] [--seed N] [--scale X]
  extract  --in DIR [--map M] [--threads N] [--metrics]
  stats    --in DIR [--cache[=auto|off|rebuild]] [--threads N]
  index    --in DIR [--map M] [--threads N] [--cache[=auto|rebuild]] [--metrics]
  inspect  FILE.svg|FILE.yaml [--map M]
  validate FILE.yaml
  verify   [--map M] [--at YYYY-MM-DD] [--seed N] [--scale X]
  analyze  --in DIR [--map M] [--threads N] [--cache[=auto|off|rebuild]]
           [--from YYYY-MM-DD] [--to YYYY-MM-DD] [--metrics]
  query    --in DIR [--map M] [--op scan|topk|percentiles|sites|heatmap]
           [--k N] [--window HOURS] [--kind internal|external] [--site S]
           [--from YYYY-MM-DD] [--to YYYY-MM-DD] [--threads N]
           [--cache[=auto|off|rebuild]] [--json] [--metrics]
  diff     OLD.yaml NEW.yaml

common options:
  --seed N     simulation seed (default 42)
  --scale X    network scale, 1.0 = paper size (default 0.2)
  --map M      europe|world|north-america|asia-pacific (default all/europe)
  --threads N  extraction / corpus-loading workers (default: available parallelism)
  --cache[=M]  segment store mode: auto (bare --cache), off, rebuild
  --from/--to  (analyze, query) restrict to [from, to), served from segments
  --op OP      (query) kernel to run (default scan)
  --k N        (query --op topk) links to return (default 10)
  --window H   (query --op percentiles|heatmap) window width in hours (default 1)
  --kind K     (query) keep only internal or external links
  --site S     (query) keep only links with a router end at site S
  --json       (query) emit one JSON object per map instead of text
  --metrics    print per-stage timing histograms and throughput";

/// Options that are boolean switches rather than `--key value` pairs.
/// `cache` is a switch with an optional mode: bare `--cache` means
/// `auto`, and `--cache=MODE` selects one explicitly.
const FLAG_KEYS: &[&str] = &["metrics", "cache", "json"];

/// Parsed `--key value` options, boolean `--flag`s and positionals.
struct Options {
    values: BTreeMap<String, String>,
    flags: BTreeSet<String>,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut flags = BTreeSet::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if let Some((key, value)) = key.split_once('=') {
                    // `--key=value` spelling, e.g. `--cache=rebuild`.
                    values.insert(key.to_owned(), value.to_owned());
                    i += 1;
                } else if FLAG_KEYS.contains(&key) {
                    flags.insert(key.to_owned());
                    i += 1;
                } else {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} expects a value"))?;
                    values.insert(key.to_owned(), value.clone());
                    i += 2;
                }
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Options {
            values,
            flags,
            positional,
        })
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    fn threads(&self) -> Result<usize, String> {
        match self.values.get("threads") {
            None => Ok(std::thread::available_parallelism().map_or(4, usize::from)),
            Some(v) => match v.parse() {
                Ok(n) if n >= 1 => Ok(n),
                _ => Err(format!("invalid --threads {v:?}")),
            },
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.values.get("seed") {
            None => Ok(42),
            Some(v) => v.parse().map_err(|_| format!("invalid --seed {v:?}")),
        }
    }

    fn scale(&self) -> Result<f64, String> {
        match self.values.get("scale").map(String::as_str) {
            None => Ok(0.2),
            Some("full") => Ok(1.0),
            Some(v) => v.parse().map_err(|_| format!("invalid --scale {v:?}")),
        }
    }

    fn maps(&self) -> Result<Vec<MapKind>, String> {
        match self.values.get("map") {
            None => Ok(MapKind::ALL.to_vec()),
            Some(v) => v.parse().map(|m| vec![m]),
        }
    }

    fn date(&self, key: &str) -> Result<Option<Timestamp>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(v) => parse_date(v).map(Some),
        }
    }

    /// The segment store mode: absent → `Off`, bare `--cache` →
    /// `Auto`, `--cache=MODE` → that mode.
    fn cache_mode(&self) -> Result<CacheMode, String> {
        match self.values.get("cache") {
            Some(v) => CacheMode::parse(v)
                .ok_or_else(|| format!("invalid --cache {v:?} (expected auto, off or rebuild)")),
            None if self.flag("cache") => Ok(CacheMode::Auto),
            None => Ok(CacheMode::Off),
        }
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }
}

/// The optional `--from`/`--to` half-open window shared by `analyze`
/// and `query`: either bound may be omitted, leaving that side open.
fn parse_range(options: &Options) -> Result<Option<TimeRange>, String> {
    let from = options.date("from")?;
    let to = options.date("to")?;
    if from.is_none() && to.is_none() {
        return Ok(None);
    }
    Ok(Some(TimeRange::new(
        from.unwrap_or(TimeRange::ALL.start),
        to.unwrap_or(TimeRange::ALL.end),
    )))
}

/// Accepts `YYYY-MM-DD` or a full ISO 8601 instant.
fn parse_date(text: &str) -> Result<Timestamp, String> {
    if text.len() == 10 {
        Timestamp::parse_iso8601(&format!("{text}T00:00:00Z"))
    } else {
        Timestamp::parse_iso8601(text)
    }
    .map_err(|e| e.to_string())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let out = options.required("out")?;
    let from = options
        .date("from")?
        .ok_or_else(|| "missing required option --from".to_owned())?;
    let to = options
        .date("to")?
        .ok_or_else(|| "missing required option --to".to_owned())?;
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed()?, options.scale()?));
    let store = DatasetStore::open(out).map_err(|e| e.to_string())?;
    for map in options.maps()? {
        let result = pipeline
            .materialize_window(&store, map, from, to)
            .map_err(|e| e.to_string())?;
        println!(
            "{:<15} wrote {} SVG files, extracted {} YAML files, {} refused",
            map.display_name(),
            result.stats.total(),
            result.stats.processed,
            result.stats.failed
        );
    }
    println!("corpus written to {out}");
    Ok(())
}

fn cmd_extract(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let dir = options.required("in")?;
    let threads = options.threads()?;
    let store = DatasetStore::open_existing(dir).map_err(|e| e.to_string())?;
    let config = ExtractConfig::default();
    let mut files_found = 0usize;
    for map in options.maps()? {
        let entries = store
            .entries_of(map, FileKind::Svg)
            .map_err(|e| e.to_string())?;
        if entries.is_empty() {
            continue;
        }
        files_found += entries.len();
        let mut inputs = Vec::with_capacity(entries.len());
        for entry in &entries {
            let bytes = store
                .read(map, FileKind::Svg, entry.timestamp)
                .map_err(|e| e.to_string())?;
            let svg = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            inputs.push(BatchInput {
                timestamp: entry.timestamp,
                svg,
            });
        }
        let (snapshots, stats, mut metrics) =
            extract_batch_with(&inputs, map, &config, threads, Scheduling::WorkStealing);
        for snapshot in &snapshots {
            let emit_started = std::time::Instant::now();
            let yaml = to_yaml_string(snapshot);
            metrics.record_stage(Stage::YamlEmit, emit_started.elapsed());
            store
                .write(map, FileKind::Yaml, snapshot.timestamp, yaml.as_bytes())
                .map_err(|e| e.to_string())?;
        }
        println!(
            "{:<15} {} SVG files: {} extracted, {} refused {:?}",
            map.display_name(),
            entries.len(),
            stats.processed,
            stats.failed,
            stats.failures_by_kind
        );
        if options.flag("metrics") {
            print!(
                "{}",
                PipelineReport {
                    map,
                    stats,
                    metrics
                }
            );
        }
    }
    if files_found == 0 {
        return Err(format!("no SVG files found under {dir}"));
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let dir = options.required("in")?;
    let store = DatasetStore::open_existing(dir).map_err(|e| e.to_string())?;
    let entries = store.entries().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        return Err(format!("no corpus files under {dir}"));
    }
    print!("{}", CorpusStats::from_entries(&entries).render_table());
    let mode = options.cache_mode()?;
    if mode != CacheMode::Off {
        // With caching requested, also summarise each map's longitudinal
        // store — served from (and persisted to) the segment store.
        let threads = options.threads()?;
        for map in options.maps()? {
            let (columnar, load_stats) =
                build_longitudinal_windowed(&store, map, TimeRange::ALL, threads, mode)
                    .map_err(|e| e.to_string())?;
            if columnar.is_empty() {
                continue;
            }
            println!(
                "{:<15} {} snapshots, {} nodes, {} link identities, {} topology events [{}]",
                map.display_name(),
                columnar.len(),
                columnar.nodes().len(),
                columnar.link_defs().len(),
                columnar.events().len(),
                cache_outcome(&load_stats.cache),
            );
        }
    }
    Ok(())
}

/// One-word description of what the cache-aware load did.
fn cache_outcome(cache: &CacheStats) -> &'static str {
    if cache.hits > 0 {
        "cache hit"
    } else if cache.appends > 0 {
        "cache append"
    } else if cache.corrupt > 0 {
        "cache corrupt, rebuilt"
    } else if cache.misses > 0 {
        "cache miss, rebuilt"
    } else {
        "cache off"
    }
}

/// `index`: brings the time-sharded segment store of every map in line
/// with the corpus, validating (and repairing) each segment file on the
/// way.
fn cmd_index(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let dir = options.required("in")?;
    let threads = options.threads()?;
    // `index` exists to build the store, so bare invocations default to
    // `auto` (refresh if stale) instead of `off`.
    let mode = match options.cache_mode()? {
        CacheMode::Off => CacheMode::Auto,
        mode => mode,
    };
    let store = DatasetStore::open_existing(dir).map_err(|e| e.to_string())?;
    let mut maps_indexed = 0usize;
    for map in options.maps()? {
        let started = std::time::Instant::now();
        let (manifest, load_stats) =
            reindex_segments(&store, map, threads, mode).map_err(|e| e.to_string())?;
        if manifest.segments.is_empty() {
            continue;
        }
        maps_indexed += 1;
        let snapshots: u64 = manifest.segments.iter().map(|m| m.snapshots).sum();
        println!(
            "{:<15} indexed {} snapshots into {} segment(s) in {:.2?} [{}]",
            map.display_name(),
            snapshots,
            manifest.segments.len(),
            started.elapsed(),
            cache_outcome(&load_stats.cache),
        );
        if options.flag("metrics") {
            print_segment_metrics(&load_stats, threads);
        }
    }
    if maps_indexed == 0 {
        return Err(format!("no YAML snapshots under {dir}"));
    }
    Ok(())
}

/// The corpus/cache counter block of a segment-store operation, where
/// no columnar store is materialised.
fn print_segment_metrics(load_stats: &CorpusLoadStats, threads: usize) {
    println!(
        "corpus: {} files, {} parsed, {} failed, {:.1} MiB ({threads} threads)",
        load_stats.files,
        load_stats.parsed,
        load_stats.failed,
        load_stats.bytes as f64 / (1024.0 * 1024.0),
    );
    let c = &load_stats.cache;
    println!(
        "cache: {} hit, {} miss, {} append, {} corrupt, {} stale; {} snapshots from cache, {} appended",
        c.hits, c.misses, c.appends, c.corrupt, c.stale, c.snapshots_from_cache, c.snapshots_appended
    );
    println!(
        "segments: {} touched, {} rebuilt",
        c.segments_touched, c.segments_rebuilt
    );
}

/// The deterministic corpus/cache counter block behind `--metrics`.
fn print_load_metrics(load_stats: &CorpusLoadStats, columnar: &LongitudinalStore, threads: usize) {
    println!(
        "corpus: {} files, {} parsed, {} failed, {:.1} MiB read ({threads} threads)",
        load_stats.files,
        load_stats.parsed,
        load_stats.failed,
        load_stats.bytes as f64 / (1024.0 * 1024.0),
    );
    let c = &load_stats.cache;
    if !c.is_empty() {
        println!(
            "cache: {} hit, {} miss, {} append, {} corrupt, {} stale; {} snapshots from cache, {} appended",
            c.hits,
            c.misses,
            c.appends,
            c.corrupt,
            c.stale,
            c.snapshots_from_cache,
            c.snapshots_appended
        );
        if c.segments_touched > 0 || c.segments_rebuilt > 0 {
            println!(
                "segments: {} touched, {} rebuilt",
                c.segments_touched, c.segments_rebuilt
            );
        }
    }
    println!(
        "columnar store: {} snapshots, {} nodes, {} link identities, {} load rows, {} topology events, ~{:.1} MiB",
        columnar.len(),
        columnar.nodes().len(),
        columnar.link_defs().len(),
        columnar.observations(),
        columnar.events().len(),
        columnar.approx_bytes() as f64 / (1024.0 * 1024.0)
    );
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let Some(path) = options.positional.first() else {
        return Err("inspect expects a file path".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snapshot = if path.ends_with(".yaml") || path.ends_with(".yml") {
        from_yaml_str(&text).map_err(|e| e.to_string())?
    } else {
        let map = options.maps()?.first().copied().unwrap_or(MapKind::Europe);
        extract_svg(
            &text,
            map,
            Timestamp::from_unix(0),
            &ExtractConfig::default(),
        )
        .map_err(|e| e.to_string())?
    };
    println!("map:            {}", snapshot.map.display_name());
    println!("timestamp:      {}", snapshot.timestamp);
    println!("routers:        {}", snapshot.router_count());
    println!("peerings:       {}", snapshot.peerings().count());
    println!("internal links: {}", snapshot.internal_link_count());
    println!("external links: {}", snapshot.external_link_count());
    println!("parallel sets:  {}", snapshot.parallel_groups().len());
    let report = ovh_weather::extract::validate(&snapshot);
    if report.is_clean() {
        println!("validation:     clean");
    } else {
        println!("validation:     {:?}", report.tally());
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let Some(path) = options.positional.first() else {
        return Err("validate expects a YAML file path".to_owned());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snapshot = from_yaml_str(&text).map_err(|e| e.to_string())?;
    let report = ovh_weather::extract::validate(&snapshot);
    for finding in &report.findings {
        println!(
            "{:?} [{}] {}",
            finding.severity, finding.code, finding.message
        );
    }
    if report.is_acceptable() {
        println!("OK ({} warnings)", report.findings.len());
        Ok(())
    } else {
        Err(format!("{} error finding(s)", report.errors().count()))
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let dir = options.required("in")?;
    let threads = options.threads()?;
    let mode = options.cache_mode()?;
    // `--from`/`--to` restrict the analysis to a half-open window; the
    // windowed loader then only touches the segments the window
    // intersects instead of materialising the whole history.
    let range = parse_range(&options)?;
    let window = range.unwrap_or(TimeRange::ALL);
    let store = DatasetStore::open_existing(dir).map_err(|e| e.to_string())?;
    let mut maps_analyzed = 0usize;
    for map in options.maps()? {
        let load_started = std::time::Instant::now();
        let (columnar, load_stats) =
            build_longitudinal_windowed(&store, map, window, threads, mode)
                .map_err(|e| e.to_string())?;
        if columnar.is_empty() {
            continue;
        }
        maps_analyzed += 1;
        let load_elapsed = load_started.elapsed();
        let analyze_started = std::time::Instant::now();
        let (report, kernel_stats) = AnalysisSuite::run_store(SuiteConfig::default(), &columnar);
        let analyze_elapsed = analyze_started.elapsed();
        println!("=== {} ===", map.display_name());
        print!("{}", report.render());
        if options.flag("metrics") {
            print_load_metrics(&load_stats, &columnar, threads);
            println!("{}", kernel_metrics_line(&kernel_stats));
            println!("corpus load: {load_elapsed:.2?}");
            println!("single-pass analysis: {analyze_elapsed:.2?}");
        }
        println!();
    }
    if maps_analyzed == 0 {
        return Err(match range {
            Some(range) => format!("no YAML snapshots under {dir} within {range}"),
            None => format!("no YAML snapshots under {dir}"),
        });
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let dir = options.required("in")?;
    let threads = options.threads()?;
    let mode = options.cache_mode()?;
    let range = parse_range(&options)?;
    let query = build_query(&options, range)?;
    let store = DatasetStore::open_existing(dir).map_err(|e| e.to_string())?;
    let json = options.flag("json");
    let mut maps_queried = 0usize;
    for map in options.maps()? {
        let started = std::time::Instant::now();
        let (output, kernel_stats, load_stats) =
            query_windowed(&store, map, &query, threads, mode).map_err(|e| e.to_string())?;
        if output.snapshots == 0 {
            continue;
        }
        maps_queried += 1;
        let elapsed = started.elapsed();
        if json {
            println!("{}", query_json(map, &query, &output));
        } else {
            println!("=== {} ===", map.display_name());
            print_query_text(&output);
        }
        if options.flag("metrics") {
            // Diagnostics go to stderr so `--json` output stays parseable.
            eprintln!(
                "corpus: {} files, {} parsed, {} failed, {:.1} MiB ({threads} threads)",
                load_stats.files,
                load_stats.parsed,
                load_stats.failed,
                load_stats.bytes as f64 / (1024.0 * 1024.0),
            );
            let c = &load_stats.cache;
            if !c.is_empty() {
                eprintln!(
                    "cache: {} hit, {} miss, {} append, {} corrupt, {} stale; segments: {} touched, {} rebuilt",
                    c.hits, c.misses, c.appends, c.corrupt, c.stale,
                    c.segments_touched, c.segments_rebuilt
                );
            }
            eprintln!("{}", kernel_metrics_line(&kernel_stats));
            eprintln!("query wall: {elapsed:.2?}");
        }
    }
    if maps_queried == 0 {
        return Err(match range {
            Some(range) => format!("no snapshots under {dir} within {range}"),
            None => format!("no snapshots under {dir}"),
        });
    }
    Ok(())
}

/// Assembles the typed [`Query`] from `query`'s command-line options.
fn build_query(options: &Options, range: Option<TimeRange>) -> Result<Query, String> {
    let op = match options.values.get("op").map_or("scan", String::as_str) {
        "scan" => QueryOp::Scan,
        "topk" => QueryOp::TopK {
            k: match options.values.get("k") {
                None => 10,
                Some(v) => match v.parse() {
                    Ok(k) if k >= 1 => k,
                    _ => return Err(format!("invalid --k {v:?}")),
                },
            },
        },
        "percentiles" => QueryOp::Percentiles {
            window: parse_window(options)?,
        },
        "sites" => QueryOp::SiteLoads,
        "heatmap" => QueryOp::Heatmap {
            window: parse_window(options)?,
        },
        other => {
            return Err(format!(
                "invalid --op {other:?} (expected scan, topk, percentiles, sites or heatmap)"
            ))
        }
    };
    let mut query = Query::new(op);
    if let Some(range) = range {
        query = query.in_range(range);
    }
    match options.values.get("kind").map(String::as_str) {
        None => {}
        Some("internal") => query = query.of_kind(LinkKind::Internal),
        Some("external") => query = query.of_kind(LinkKind::External),
        Some(other) => {
            return Err(format!(
                "invalid --kind {other:?} (expected internal or external)"
            ))
        }
    }
    if let Some(site) = options.values.get("site") {
        query = query.at_site(site.clone());
    }
    Ok(query)
}

/// `--window HOURS` for the windowed kernels, defaulting to one hour.
fn parse_window(options: &Options) -> Result<Duration, String> {
    match options.values.get("window") {
        None => Ok(Duration::from_hours(1)),
        Some(v) => match v.parse() {
            Ok(hours) if hours >= 1 => Ok(Duration::from_hours(hours)),
            _ => Err(format!("invalid --window {v:?} (whole hours, at least 1)")),
        },
    }
}

/// Renders one query result as the human-readable report.
fn print_query_text(output: &QueryOutput) {
    println!("{output}");
    match &output.result {
        QueryResult::Scan(s) => {
            println!(
                "scan: {} samples ({} disabled), mean {:.2} %, peak {} %",
                s.samples,
                s.disabled,
                s.mean(),
                s.peak
            );
        }
        QueryResult::TopK(links) => {
            for (rank, link) in links.iter().enumerate() {
                println!(
                    "{:>3}. {} [{}] peak {} %, mean {:.2} %, {} samples",
                    rank + 1,
                    link.link,
                    link.kind,
                    link.peak,
                    link.mean(),
                    link.samples
                );
            }
        }
        QueryResult::Percentiles(windows) => {
            for w in windows {
                println!(
                    "{}  p50 {:>3} %  p90 {:>3} %  p99 {:>3} %  max {:>3} %  ({} samples)",
                    w.start, w.p50, w.p90, w.p99, w.max, w.samples
                );
            }
        }
        QueryResult::SiteLoads(sites) => {
            for s in sites {
                println!(
                    "{:<8} mean {:.2} %, peak {} %, {} samples",
                    s.site,
                    s.mean(),
                    s.peak,
                    s.samples
                );
            }
        }
        QueryResult::Heatmap(grid) => {
            println!(
                "heatmap: {} window(s) x {} link group(s)",
                grid.starts.len(),
                grid.groups.len()
            );
            // One aggregate line per window; the full grid is `--json`.
            for (w, start) in grid.starts.iter().enumerate() {
                let mut samples = 0u64;
                let mut sum = 0u64;
                let mut peak = 0u8;
                for g in 0..grid.groups.len() {
                    if let Some(cell) = grid.cell(w, g) {
                        samples += cell.samples;
                        sum += cell.sum;
                        peak = peak.max(cell.peak);
                    }
                }
                let mean = if samples == 0 {
                    0.0
                } else {
                    sum as f64 / samples as f64
                };
                println!("{start}  mean {mean:.2} %  peak {peak} %  ({samples} samples)");
            }
        }
    }
}

/// Renders one query result as a single JSON object.
fn query_json(map: MapKind, query: &Query, output: &QueryOutput) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"map\":\"{}\",\"op\":\"{}\",\"snapshots\":{},\"rows\":{},\"samples\":{},\"result\":",
        map.slug(),
        query.op.name(),
        output.snapshots,
        output.rows,
        output.samples
    ));
    match &output.result {
        QueryResult::Scan(stats) => {
            s.push_str(&format!(
                "{{\"samples\":{},\"disabled\":{},\"sum\":{},\"peak\":{}}}",
                stats.samples, stats.disabled, stats.sum, stats.peak
            ));
        }
        QueryResult::TopK(links) => {
            s.push('[');
            for (i, link) in links.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"link\":\"{}\",\"kind\":\"{}\",\"samples\":{},\"sum\":{},\"peak\":{}}}",
                    json_escape(&link.link),
                    link.kind,
                    link.samples,
                    link.sum,
                    link.peak
                ));
            }
            s.push(']');
        }
        QueryResult::Percentiles(windows) => {
            s.push('[');
            for (i, w) in windows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"start\":\"{}\",\"samples\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                    w.start, w.samples, w.p50, w.p90, w.p99, w.max
                ));
            }
            s.push(']');
        }
        QueryResult::SiteLoads(sites) => {
            s.push('[');
            for (i, site) in sites.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"site\":\"{}\",\"samples\":{},\"sum\":{},\"peak\":{}}}",
                    json_escape(&site.site),
                    site.samples,
                    site.sum,
                    site.peak
                ));
            }
            s.push(']');
        }
        QueryResult::Heatmap(grid) => {
            s.push_str("{\"starts\":[");
            for (i, start) in grid.starts.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{start}\""));
            }
            s.push_str("],\"groups\":[");
            for (i, group) in grid.groups.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\"", json_escape(group)));
            }
            s.push_str("],\"cells\":[");
            for (i, cell) in grid.cells.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"samples\":{},\"sum\":{},\"peak\":{}}}",
                    cell.samples, cell.sum, cell.peak
                ));
            }
            s.push_str("]}");
        }
    }
    s.push('}');
    s
}

/// Minimal JSON string escaping for node and site names.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The deterministic kernel-counter line of `--metrics`, routed through
/// the shared [`MetricsTotals`] projection like every other counter.
fn kernel_metrics_line(stats: &KernelStats) -> String {
    let mut metrics = BatchMetrics::default();
    metrics.query.merge(stats);
    let q = metrics.totals().query;
    format!(
        "queries: {} run, {} kernel passes; {} snapshots, {} rows, {} samples scanned",
        q.queries, q.kernels, q.snapshots_scanned, q.rows_scanned, q.samples
    )
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let [old_path, new_path] = options.positional.as_slice() else {
        return Err("diff expects two YAML file paths".to_owned());
    };
    let read = |path: &String| -> Result<TopologySnapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        from_yaml_str(&text).map_err(|e| e.to_string())
    };
    let older = read(old_path)?;
    let newer = read(new_path)?;
    let d = ovh_weather::model::diff(&older, &newer);
    if d.is_empty() {
        println!(
            "no structural changes ({} -> {})",
            older.timestamp, newer.timestamp
        );
        return Ok(());
    }
    for node in &d.added_nodes {
        println!("+ node {} ({})", node.name, node.kind);
    }
    for node in &d.removed_nodes {
        println!("- node {} ({})", node.name, node.kind);
    }
    for change in &d.group_changes {
        println!(
            "~ links {} <-> {}: {} -> {} ({:+})",
            change.a,
            change.b,
            change.before,
            change.after,
            change.delta()
        );
    }
    println!("net link change: {:+}", d.link_delta());
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args)?;
    let pipeline = Pipeline::new(SimulationConfig::scaled(options.seed()?, options.scale()?));
    let at = options
        .date("at")?
        .unwrap_or_else(|| Timestamp::from_ymd_hms(2022, 2, 1, 12, 0, 0));
    for map in options.maps()? {
        pipeline
            .verify_roundtrip(map, at)
            .map_err(|e| format!("{map}: {e}"))?;
        println!("{:<15} round trip OK at {at}", map.display_name());
    }
    Ok(())
}
