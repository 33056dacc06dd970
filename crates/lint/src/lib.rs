//! `wm-lint` — workspace-native static analysis for the weather-map
//! reproduction.
//!
//! The repo's guarantees (byte-identical extraction and reports at any
//! thread count and cache state, panic-free handling of arbitrarily
//! corrupt input, pure safe Rust) are runtime-tested by the equivalence
//! and robustness suites — but only on the corpora those suites
//! exercise. This crate checks the *source-level* contracts behind
//! those guarantees, so a stray `HashMap` iteration in an emit path or
//! a fresh `unwrap()` in a parser fails CI before any corpus runs.
//!
//! Three layers, in the same in-repo-tooling spirit as the rand and
//! proptest shims (std-only, dependency-free):
//!
//! 1. [`lexer`] + [`context`] + [`syntax`]: a lightweight Rust lexer
//!    (raw strings, nested comments, lifetimes vs chars) with
//!    `#[cfg(test)]`/`#[test]` region and module-path tracking, and a
//!    recursive-descent item tree on top — functions, call sites, loop
//!    context, index and arithmetic spans;
//! 2. [`findings`] + [`baseline`] + [`callgraph`]: the lint framework —
//!    findings with rule/file/line/module, human and JSON renderers,
//!    allow comments with mandatory reasons and unused-allow detection,
//!    the ratcheting `lint-baseline.json`, and the workspace call graph
//!    with transitive may-panic propagation behind the ranked
//!    panic-root report;
//! 3. [`rules`]: the nine domain rules — `determinism`,
//!    `no-wall-clock`, `panic-freedom`, the kernel pack
//!    (`index-unchecked`, `arith-unchecked`, `alloc-in-loop`),
//!    `unsafe-forbid`, `error-exhaustiveness`, `shim-purity`.
//!
//! Suppression syntax (reason mandatory; the allow covers its own line
//! and the next):
//!
//! ```text
//! // wm-lint: allow(determinism): keys are sorted two lines up
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod config;
pub mod context;
pub mod explain;
pub mod findings;
pub mod json;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod syntax;
pub mod walk;

use std::fs;
use std::io;

use callgraph::PanicRoot;
use config::Config;
use findings::Finding;
use source::SourceFile;

/// The result of scanning a set of source files.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Unsuppressed findings, sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Ranked panic roots: the functions that directly own panic
    /// sites, ordered by how many findings a fix would clear.
    pub roots: Vec<PanicRoot>,
    /// How many files were scanned.
    pub files: usize,
}

impl ScanResult {
    /// Renders the scan as the stable JSON artifact consumed by CI:
    /// an object with `version`, `files`, `findings` (the per-site
    /// list) and `roots` (the ranked panic roots). Key order, spacing
    /// and the trailing newline are fixed — the artifact is diffable.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"files\": {},", self.files);
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\":{},\"file\":{},\"line\":{},\"module\":{},\"message\":{}}}",
                json::escape(f.rule),
                json::escape(&f.file),
                f.line,
                json::escape(&f.module),
                json::escape(&f.message),
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"roots\": [");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"file\":{},\"function\":{},\"line\":{},\"direct_sites\":{},\
                 \"tainted_callers\":{}}}",
                json::escape(&r.file),
                json::escape(&r.function),
                r.line,
                r.direct_sites,
                r.tainted_callers,
            );
        }
        if !self.roots.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Scans the workspace rooted at `cfg.root`.
pub fn scan(cfg: &Config) -> io::Result<ScanResult> {
    let mut sources = Vec::new();
    for (path, rel) in walk::workspace_files(&cfg.root)? {
        let text = fs::read_to_string(&path)?;
        sources.push(SourceFile::parse(&rel, source::classify(&rel), text));
    }
    Ok(scan_sources(&sources, cfg))
}

/// Scans already-parsed sources (the test harness entry point).
#[must_use]
pub fn scan_sources(files: &[SourceFile], cfg: &Config) -> ScanResult {
    let mut raw = Vec::new();
    for file in files {
        raw.extend(rules::check_file(file, cfg));
    }
    rules::error_exhaustiveness::check(files, cfg, &mut raw);

    // Apply each file's allow comments to the findings anchored in it;
    // allows that suppressed nothing become findings themselves.
    let mut kept = Vec::new();
    for file in files {
        let mut allows =
            findings::parse_allows(&file.rel, &file.text, &file.lexed.comments, &mut kept);
        let own: Vec<Finding> = raw.iter().filter(|f| f.file == file.rel).cloned().collect();
        kept.extend(findings::apply_allows(&file.rel, own, &mut allows));
    }
    findings::sort(&mut kept);
    // Roots are computed over the *unsuppressed* findings, so an
    // allowed site neither roots nor taints anything.
    let roots = callgraph::panic_roots(files, &kept);
    ScanResult {
        findings: kept,
        roots,
        files: files.len(),
    }
}
