//! Rule-level tests over the fixture corpus in `tests/fixtures/`.
//!
//! Fixtures are parsed directly (never compiled) under synthetic
//! relative paths so each path-scoped rule can be pointed at them via a
//! purpose-built [`Config`].

use std::fs;
use std::path::PathBuf;

use wm_lint::baseline::{self, Baseline};
use wm_lint::config::Config;
use wm_lint::findings::{render_human, render_json, Finding};
use wm_lint::source::{classify, FileClass, SourceFile};
use wm_lint::{scan_sources, ScanResult};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A config whose scoped rules point at synthetic fixture paths.
fn cfg() -> Config {
    let mut cfg = Config::workspace(PathBuf::from("."));
    cfg.det_paths = vec!["det/".to_owned()];
    cfg.wall_clock_allow = vec!["allowed/".to_owned()];
    cfg.shim_crates = vec!["shims/".to_owned()];
    cfg.error_enum = "err/enum.rs".to_owned();
    cfg.error_type = "MiniError".to_owned();
    cfg.fault_matrix = "err/matrix.rs".to_owned();
    cfg
}

fn scan_fixture(name: &str, rel: &str, class: FileClass) -> ScanResult {
    let file = SourceFile::parse(rel, class, fixture(name));
    scan_sources(&[file], &cfg())
}

fn lines_of(result: &ScanResult, rule: &str) -> Vec<u32> {
    result
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---- panic-freedom ----

#[test]
fn panic_freedom_flags_every_violation_class() {
    let result = scan_fixture("panic_positive.rs", "lib/panics.rs", FileClass::Library);
    assert_eq!(
        lines_of(&result, "panic-freedom"),
        vec![5, 6, 8, 11, 12, 13, 16, 17]
    );
    assert_eq!(result.findings.len(), 8, "{result:?}");
}

#[test]
fn panic_freedom_ignores_non_library_classes() {
    for class in [FileClass::Binary, FileClass::Test, FileClass::Bench] {
        let result = scan_fixture("panic_positive.rs", "lib/panics.rs", class);
        assert!(result.findings.is_empty(), "{class:?}: {result:?}");
    }
}

#[test]
fn panic_freedom_accepts_safe_spellings_and_test_code() {
    let result = scan_fixture("panic_negative.rs", "lib/clean.rs", FileClass::Library);
    assert!(result.findings.is_empty(), "{result:?}");
}

#[test]
fn lexer_torture_produces_no_findings() {
    let result = scan_fixture("lexer_torture.rs", "lib/torture.rs", FileClass::Library);
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- allow comments ----

#[test]
fn allows_suppress_and_report_unused_and_malformed() {
    let result = scan_fixture("allow_cases.rs", "lib/allows.rs", FileClass::Library);
    assert_eq!(lines_of(&result, "panic-freedom"), Vec::<u32>::new());
    assert_eq!(lines_of(&result, "unused-allow"), vec![11, 20]);
    assert_eq!(lines_of(&result, "malformed-allow"), vec![14, 17]);
    assert_eq!(result.findings.len(), 4, "{result:?}");
}

#[test]
fn doc_comment_allow_examples_are_inert() {
    let text = "/// // wm-lint: allow(panic-freedom): prose example\npub fn f() {}\n";
    let file = SourceFile::parse("lib/doc.rs", FileClass::Library, text.to_owned());
    let result = scan_sources(&[file], &cfg());
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- determinism ----

#[test]
fn determinism_flags_hash_collections_and_bare_float_display() {
    let result = scan_fixture("det.rs", "det/emit.rs", FileClass::Library);
    assert_eq!(lines_of(&result, "determinism"), vec![5, 6, 10]);
    assert_eq!(result.findings.len(), 3, "{result:?}");
}

#[test]
fn determinism_is_scoped_to_configured_paths() {
    let result = scan_fixture("det.rs", "other/emit.rs", FileClass::Library);
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- no-wall-clock ----

#[test]
fn wall_clock_flags_library_clock_reads() {
    let result = scan_fixture("wall_clock.rs", "lib/time.rs", FileClass::Library);
    assert_eq!(lines_of(&result, "no-wall-clock"), vec![3, 6]);
    assert_eq!(result.findings.len(), 2, "{result:?}");
}

#[test]
fn wall_clock_respects_allowlist_and_class() {
    let allowed = scan_fixture("wall_clock.rs", "allowed/time.rs", FileClass::Library);
    assert!(allowed.findings.is_empty(), "{allowed:?}");
    let binary = scan_fixture("wall_clock.rs", "lib/time.rs", FileClass::Binary);
    assert!(binary.findings.is_empty(), "{binary:?}");
}

// ---- shim-purity ----

#[test]
fn shim_purity_flags_workspace_identifiers_in_shims() {
    let result = scan_fixture("shim_impure.rs", "shims/rand.rs", FileClass::Library);
    assert_eq!(lines_of(&result, "shim-purity"), vec![5, 8]);
    assert_eq!(result.findings.len(), 2, "{result:?}");
}

#[test]
fn shim_purity_ignores_non_shim_files() {
    let result = scan_fixture("shim_impure.rs", "lib/rand.rs", FileClass::Library);
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- unsafe-forbid ----

#[test]
fn unsafe_forbid_requires_the_pledge_at_crate_roots() {
    let ok = scan_fixture("unsafe_ok.rs", "crates/fake/src/lib.rs", FileClass::Library);
    assert!(ok.findings.is_empty(), "{ok:?}");
    let missing = scan_fixture(
        "unsafe_missing.rs",
        "crates/fake/src/lib.rs",
        FileClass::Library,
    );
    assert_eq!(lines_of(&missing, "unsafe-forbid"), vec![1]);
}

#[test]
fn unsafe_forbid_only_checks_crate_roots() {
    let result = scan_fixture(
        "unsafe_missing.rs",
        "crates/fake/src/other.rs",
        FileClass::Library,
    );
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- error-exhaustiveness ----

fn err_sources(matrix_fixture: &str) -> Vec<SourceFile> {
    vec![
        SourceFile::parse("err/enum.rs", FileClass::Library, fixture("err_enum.rs")),
        SourceFile::parse("err/use.rs", FileClass::Library, fixture("err_use.rs")),
        SourceFile::parse("err/matrix.rs", FileClass::Test, fixture(matrix_fixture)),
    ]
}

#[test]
fn error_exhaustiveness_flags_undocumented_kinds() {
    let result = scan_sources(&err_sources("err_matrix_partial.rs"), &cfg());
    let flagged: Vec<&Finding> = result
        .findings
        .iter()
        .filter(|f| f.rule == "error-exhaustiveness")
        .collect();
    assert_eq!(flagged.len(), 1, "{result:?}");
    let finding = flagged.first().copied().unwrap();
    assert_eq!(finding.file, "err/enum.rs");
    assert_eq!(finding.line, 12, "anchored at the BadLoad kind() arm");
    assert!(finding.message.contains("MiniError::BadLoad"));
    assert!(finding.message.contains("bad-load"));
}

#[test]
fn error_exhaustiveness_passes_with_a_complete_matrix() {
    let result = scan_sources(&err_sources("err_matrix_full.rs"), &cfg());
    assert!(result.findings.is_empty(), "{result:?}");
}

// ---- kernel rule pack ----

/// The fixture config with the kernel pack pointed at synthetic paths.
fn kernel_cfg() -> Config {
    let mut cfg = cfg();
    cfg.kernel_paths = vec!["kernel/".to_owned()];
    cfg.arith_paths = vec!["arith/".to_owned()];
    cfg
}

fn scan_kernel(name: &str, rel: &str) -> ScanResult {
    let file = SourceFile::parse(rel, FileClass::Library, fixture(name));
    scan_sources(&[file], &kernel_cfg())
}

#[test]
fn index_unchecked_flags_kernel_indexing_shapes() {
    let result = scan_kernel("kernel_index.rs", "kernel/query.rs");
    assert_eq!(lines_of(&result, "index-unchecked"), vec![4, 5, 6, 7]);
    // Inside a kernel, index-unchecked owns the sites: panic-freedom
    // must not double-report them.
    assert_eq!(lines_of(&result, "panic-freedom"), Vec::<u32>::new());
    assert_eq!(result.findings.len(), 4, "{result:?}");
}

#[test]
fn index_unchecked_cedes_to_panic_freedom_outside_kernels() {
    let result = scan_kernel("kernel_index.rs", "lib/query.rs");
    assert_eq!(lines_of(&result, "index-unchecked"), Vec::<u32>::new());
    assert_eq!(lines_of(&result, "panic-freedom"), vec![4, 5, 6, 7]);
}

#[test]
fn arith_unchecked_flags_hinted_size_arithmetic() {
    let result = scan_kernel("kernel_arith.rs", "arith/codec.rs");
    assert_eq!(lines_of(&result, "arith-unchecked"), vec![4, 5, 6, 8]);
    assert_eq!(result.findings.len(), 4, "{result:?}");
    let messages: Vec<&str> = result.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("checked_add")),
        "{messages:?}"
    );
    assert!(
        messages.iter().any(|m| m.contains("checked_mul")),
        "{messages:?}"
    );
    assert!(messages.iter().any(|m| m.contains("`+=`")), "{messages:?}");
}

#[test]
fn arith_unchecked_is_scoped_to_decode_paths() {
    let result = scan_kernel("kernel_arith.rs", "lib/codec.rs");
    assert_eq!(lines_of(&result, "arith-unchecked"), Vec::<u32>::new());
}

#[test]
fn alloc_in_loop_flags_per_iteration_construction() {
    let result = scan_kernel("kernel_alloc.rs", "kernel/segments.rs");
    assert_eq!(lines_of(&result, "alloc-in-loop"), vec![6, 7, 8, 16, 17]);
    assert_eq!(result.findings.len(), 5, "{result:?}");
    // The hoisted ctor (line 4) and the reused-buffer push (line 9)
    // are the pattern the rule protects, never findings.
}

#[test]
fn alloc_in_loop_ignores_non_kernel_files() {
    let result = scan_kernel("kernel_alloc.rs", "lib/segments.rs");
    assert_eq!(lines_of(&result, "alloc-in-loop"), Vec::<u32>::new());
}

// ---- panic roots ----

#[test]
fn panic_roots_rank_functions_not_sites() {
    let result = scan_kernel("roots.rs", "lib/roots.rs");
    assert_eq!(result.findings.len(), 7, "{result:?}");
    // Seven sites collapse to two roots: the ranking is per function.
    assert_eq!(result.roots.len(), 2, "{:?}", result.roots);
    assert!(result.roots.len() * 3 <= result.findings.len());

    let top = result.roots.first().expect("two roots");
    assert_eq!(top.function, "root_helper");
    assert_eq!(top.line, 4);
    assert_eq!(top.direct_sites, 6);
    assert_eq!(top.tainted_callers, 3, "three transitive callers");

    let minor = result.roots.get(1).expect("two roots");
    assert_eq!(minor.function, "minor");
    assert_eq!((minor.direct_sites, minor.tainted_callers), (1, 0));

    let rendered = wm_lint::callgraph::render_roots(&result.roots, 10);
    assert!(
        rendered.starts_with("panic roots (2 functions"),
        "{rendered}"
    );
    assert!(
        rendered.contains("fn root_helper — 6 direct sites"),
        "{rendered}"
    );
}

#[test]
fn allowed_sites_neither_root_nor_taint() {
    // Suppress every site in the helper: only `minor` remains a root.
    let text = fixture("roots.rs")
        .replace(
            "    let head",
            "    // wm-lint: allow(panic-freedom): fixture suppression\n    let head",
        )
        .replace(
            "    let tail",
            "    // wm-lint: allow(panic-freedom): fixture suppression\n    let tail",
        );
    let file = SourceFile::parse("lib/roots.rs", FileClass::Library, text);
    let result = scan_sources(&[file], &kernel_cfg());
    assert_eq!(result.roots.len(), 1, "{:?}", result.roots);
    assert_eq!(
        result.roots.first().map(|r| r.function.as_str()),
        Some("minor")
    );
}

// ---- classification ----

#[test]
fn path_classification() {
    assert_eq!(classify("crates/xml/src/reader.rs"), FileClass::Library);
    assert_eq!(classify("crates/svg/src/build.rs"), FileClass::Library);
    assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Binary);
    assert_eq!(classify("src/bin/wm.rs"), FileClass::Binary);
    assert_eq!(classify("build.rs"), FileClass::Binary);
    assert_eq!(classify("tests/extraction_robustness.rs"), FileClass::Test);
    assert_eq!(
        classify("crates/extract/tests/pipeline.rs"),
        FileClass::Test
    );
    assert_eq!(classify("benches/extract.rs"), FileClass::Bench);
    assert_eq!(classify("examples/weather.rs"), FileClass::Example);
}

// ---- renderers and baseline ----

#[test]
fn renderers_are_stable() {
    let findings = vec![Finding {
        rule: "panic-freedom",
        file: "lib/a.rs".to_owned(),
        line: 7,
        module: "inner".to_owned(),
        message: "a \"quoted\" message".to_owned(),
    }];
    assert_eq!(
        render_human(&findings),
        "lib/a.rs:7: [panic-freedom] a \"quoted\" message\n"
    );
    let json = render_json(&findings);
    assert!(json.contains("\"rule\":\"panic-freedom\""), "{json}");
    assert!(json.contains("\\\"quoted\\\""), "{json}");
}

#[test]
fn baseline_ratchet_reports_grown_and_stale() {
    let finding = |file: &str| Finding {
        rule: "panic-freedom",
        file: file.to_owned(),
        line: 1,
        module: String::new(),
        message: String::new(),
    };
    let accepted = Baseline::from_findings(&[finding("a.rs"), finding("a.rs"), finding("b.rs")]);

    // Same counts: clean.
    let same = [finding("a.rs"), finding("a.rs"), finding("b.rs")];
    assert!(baseline::compare(&same, &accepted, &[]).is_clean());

    // One more in a.rs: grown. b.rs fixed: stale.
    let moved = [finding("a.rs"), finding("a.rs"), finding("a.rs")];
    let cmp = baseline::compare(&moved, &accepted, &[]);
    assert_eq!(cmp.grown.len(), 1);
    assert_eq!((cmp.grown[0].found, cmp.grown[0].accepted), (3, 2));
    assert_eq!(cmp.stale.len(), 1);
    assert_eq!((cmp.stale[0].found, cmp.stale[0].accepted), (0, 1));

    // A finding in a file the baseline has never seen: grown.
    let fresh = [finding("c.rs")];
    let cmp = baseline::compare(&fresh, &accepted, &[]);
    assert_eq!(cmp.grown.len(), 1);
    assert_eq!(cmp.grown[0].file, "c.rs");
}

#[test]
fn zero_baseline_paths_accept_no_finding() {
    let finding = |file: &str| Finding {
        rule: "panic-freedom",
        file: file.to_owned(),
        line: 1,
        module: String::new(),
        message: String::new(),
    };
    let accepted = Baseline::from_findings(&[finding("zero/a.rs"), finding("b.rs")]);
    let zero = ["zero/".to_owned()];
    // The baseline lists zero/a.rs, but the path accepts nothing.
    let cmp = baseline::compare(&[finding("zero/a.rs"), finding("b.rs")], &accepted, &zero);
    assert_eq!(cmp.grown.len(), 1);
    assert_eq!(cmp.grown[0].file, "zero/a.rs");
    assert_eq!((cmp.grown[0].found, cmp.grown[0].accepted), (1, 0));
    assert!(cmp.stale.is_empty());
    // Once clean, the leftover entry is stale until the baseline drops it.
    let cmp = baseline::compare(&[finding("b.rs")], &accepted, &zero);
    assert!(cmp.grown.is_empty());
    assert_eq!(cmp.stale.len(), 1);
    assert_eq!(cmp.stale[0].file, "zero/a.rs");
}

#[test]
fn baseline_render_roundtrips_through_the_parser() {
    let mut entries = std::collections::BTreeMap::new();
    entries.insert(("panic-freedom".to_owned(), "a.rs".to_owned()), 2u64);
    entries.insert(("determinism".to_owned(), "b \"x\".rs".to_owned()), 1u64);
    let baseline = Baseline { entries };

    let dir = std::env::temp_dir().join(format!("wm-lint-test-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.json");
    baseline.save(&path).unwrap();
    let loaded = Baseline::load(&path).unwrap().expect("file just written");
    fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, baseline);
}
