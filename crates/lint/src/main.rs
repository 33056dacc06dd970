//! `wm-lint` command line.
//!
//! ```text
//! wm-lint [--root DIR] [--baseline FILE] [--format text|json]   list findings + panic roots
//! wm-lint --deny-new [...]                                      CI ratchet gate
//! wm-lint --update-baseline [...]                               shrink the baseline
//! wm-lint --explain <rule>                                      rule docs + examples
//! wm-lint --rules                                               list registered rule ids
//! ```
//!
//! Exit codes: 0 clean (for `--deny-new`: no new and no stale entries),
//! 1 gate failed, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use wm_lint::baseline::{self, Baseline};
use wm_lint::callgraph;
use wm_lint::config::Config;
use wm_lint::explain;
use wm_lint::findings::{self, RULES};

const USAGE: &str = "usage: wm-lint [--root DIR] [--baseline FILE] \
                     [--deny-new | --update-baseline] [--format text|json] \
                     [--explain RULE] [--rules]";

/// How many ranked roots the human listing shows.
const ROOT_LIMIT: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    baseline: Option<PathBuf>,
    deny_new: bool,
    update_baseline: bool,
    format: Format,
    explain: Option<String>,
    list_rules: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        baseline: None,
        deny_new: false,
        update_baseline: false,
        format: Format::Text,
        explain: None,
        list_rules: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let value = it.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(value);
            }
            "--baseline" => {
                let value = it.next().ok_or("--baseline needs a file")?;
                opts.baseline = Some(PathBuf::from(value));
            }
            "--deny-new" => opts.deny_new = true,
            "--update-baseline" => opts.update_baseline = true,
            "--format" => {
                let value = it.next().ok_or("--format needs `text` or `json`")?;
                opts.format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format {other:?} (text|json)")),
                };
            }
            // Back-compat alias for `--format json`.
            "--json" => opts.format = Format::Json,
            "--explain" => {
                let value = it.next().ok_or("--explain needs a rule id")?;
                opts.explain = Some(value.clone());
            }
            "--rules" => opts.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if opts.deny_new && opts.update_baseline {
        return Err("--deny-new and --update-baseline are mutually exclusive".to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    // Informational modes that need no workspace scan.
    if opts.list_rules {
        for rule in RULES {
            println!("{rule}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &opts.explain {
        return match explain::lookup(rule) {
            Some(entry) => {
                print!("{}", explain::render(entry));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("error: unknown rule {rule:?} — run `wm-lint --rules` for the catalogue");
                ExitCode::from(2)
            }
        };
    }

    if !opts.root.join("Cargo.toml").is_file() {
        eprintln!(
            "error: {:?} is not a workspace root (no Cargo.toml) — pass --root",
            opts.root
        );
        return ExitCode::from(2);
    }
    let baseline_path = opts
        .baseline
        .clone()
        .unwrap_or_else(|| opts.root.join("lint-baseline.json"));

    let cfg = Config::workspace(opts.root.clone());
    let result = match wm_lint::scan(&cfg) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.update_baseline {
        let baseline = Baseline::from_findings(&result.findings);
        if let Err(e) = baseline.save(&baseline_path) {
            eprintln!("error: cannot write {baseline_path:?}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wm-lint: baseline updated: {} findings in {} (rule, file) entries across {} files",
            result.findings.len(),
            baseline.entries.len(),
            result.files,
        );
        return ExitCode::SUCCESS;
    }

    if opts.deny_new {
        return deny_new(&result, &baseline_path, &cfg.zero_baseline, opts.format);
    }

    // Listing mode: informational, always exits 0.
    if opts.format == Format::Json {
        print!("{}", result.render_json());
    } else {
        print!("{}", findings::render_human(&result.findings));
        println!(
            "wm-lint: {} findings across {} files",
            result.findings.len(),
            result.files
        );
        print!("{}", callgraph::render_roots(&result.roots, ROOT_LIMIT));
    }
    ExitCode::SUCCESS
}

fn deny_new(
    result: &wm_lint::ScanResult,
    baseline_path: &std::path::Path,
    zero_paths: &[String],
    format: Format,
) -> ExitCode {
    let baseline = match Baseline::load(baseline_path) {
        Ok(Some(baseline)) => baseline,
        Ok(None) => {
            eprintln!(
                "error: no baseline at {baseline_path:?} — run `wm-lint --update-baseline` once \
                 and commit the result"
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cmp = baseline::compare(&result.findings, &baseline, zero_paths);
    if cmp.is_clean() {
        println!(
            "wm-lint: clean — {} accepted findings, nothing new, nothing stale",
            result.findings.len()
        );
        return ExitCode::SUCCESS;
    }
    if !cmp.grown.is_empty() {
        eprintln!("wm-lint: NEW findings beyond the committed baseline:");
        for delta in &cmp.grown {
            eprintln!(
                "  [{}] {}: +{} ({} found, {} accepted)",
                delta.rule,
                delta.file,
                delta.found - delta.accepted,
                delta.found,
                delta.accepted
            );
            let shown = if format == Format::Json {
                findings::render_json(&per_key(result, delta))
            } else {
                findings::render_human(&per_key(result, delta))
            };
            for line in shown.lines() {
                eprintln!("    {line}");
            }
        }
        eprintln!("  fix the new findings or suppress with `// wm-lint: allow(rule): reason`");
    }
    if !cmp.stale.is_empty() {
        eprintln!("wm-lint: STALE baseline entries (debt was paid down — ratchet the baseline):");
        for delta in &cmp.stale {
            eprintln!(
                "  [{}] {}: -{} ({} found, {} accepted)",
                delta.rule,
                delta.file,
                delta.accepted - delta.found,
                delta.found,
                delta.accepted
            );
        }
        eprintln!("  run `cargo run -p wm-lint -- --update-baseline` and commit the result");
    }
    ExitCode::FAILURE
}

fn per_key(result: &wm_lint::ScanResult, delta: &baseline::Delta) -> Vec<findings::Finding> {
    result
        .findings
        .iter()
        .filter(|f| f.rule == delta.rule && f.file == delta.file)
        .cloned()
        .collect()
}
