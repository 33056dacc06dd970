//! The linter must satisfy its own rules, and the committed baseline
//! must match what a scan of this workspace actually finds.

use std::fs;
use std::path::{Path, PathBuf};

use wm_lint::baseline::{self, Baseline};
use wm_lint::config::Config;
use wm_lint::source::{classify, SourceFile};
use wm_lint::{scan, scan_sources};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn collect_rs(dir: &Path, rel_prefix: &str, out: &mut Vec<SourceFile>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("read lint source dir")
        .map(|e| e.expect("dir entry"))
        .collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            collect_rs(&path, &format!("{rel_prefix}{name}/"), out);
        } else if name.ends_with(".rs") {
            let rel = format!("{rel_prefix}{name}");
            let text = fs::read_to_string(&path).expect("read lint source");
            out.push(SourceFile::parse(&rel, classify(&rel), text));
        }
    }
}

/// The linter's own sources produce zero findings under the workspace
/// configuration — no unwraps, no indexing, no suppressions needed.
#[test]
fn lint_crate_is_clean_under_its_own_rules() {
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    collect_rs(&src_dir, "crates/lint/src/", &mut files);
    assert!(files.len() >= 10, "expected the full module set");
    let cfg = Config::workspace(workspace_root());
    let result = scan_sources(&files, &cfg);
    assert!(
        result.findings.is_empty(),
        "wm-lint must satisfy its own rules:\n{}",
        wm_lint::findings::render_human(&result.findings)
    );
}

/// A full workspace scan agrees exactly with `lint-baseline.json` — the
/// same comparison `--deny-new` gates CI on.
#[test]
fn workspace_scan_matches_committed_baseline() {
    let root = workspace_root();
    let cfg = Config::workspace(root.clone());
    let result = scan(&cfg).expect("workspace scan");
    assert!(result.files > 50, "walked only {} files", result.files);
    let accepted = Baseline::load(&root.join("lint-baseline.json"))
        .expect("read baseline")
        .expect("lint-baseline.json is committed at the workspace root");
    let cmp = baseline::compare(&result.findings, &accepted);
    assert!(
        cmp.is_clean(),
        "scan drifted from the baseline — run `cargo run -p wm-lint --release -- \
         --update-baseline` if debt shrank, or fix the new findings.\n\
         grown: {:?}\nstale: {:?}",
        cmp.grown,
        cmp.stale
    );
}

/// Every path the workspace configuration names exists, so a deleted or
/// renamed file cannot linger in a rule's scope (or allowlist) unseen.
#[test]
fn configured_paths_exist() {
    let root = workspace_root();
    let cfg = Config::workspace(root.clone());
    let mut named = vec![
        ("error_enum", &cfg.error_enum),
        ("fault_matrix", &cfg.fault_matrix),
    ];
    for (name, paths) in [
        ("det_paths", &cfg.det_paths),
        ("wall_clock_allow", &cfg.wall_clock_allow),
        ("shim_crates", &cfg.shim_crates),
        ("kernel_paths", &cfg.kernel_paths),
        ("arith_paths", &cfg.arith_paths),
    ] {
        named.extend(paths.iter().map(|path| (name, path)));
    }
    let missing: Vec<String> = named
        .into_iter()
        .filter(|(_, path)| !root.join(path).exists())
        .map(|(name, path)| format!("{name}: {path}"))
        .collect();
    assert!(
        missing.is_empty(),
        "Config::workspace names paths that do not exist:\n{}",
        missing.join("\n")
    );
}
