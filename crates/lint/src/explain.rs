//! `--explain <rule>`: what each rule checks, why, and how to fix it.
//!
//! Every id in [`crate::findings::RULES`] has an entry here — a CI
//! smoke asserts the coverage, so a rule can never ship without its
//! explanation. Each entry carries a one-line summary, the rationale
//! tied to the repo's guarantees, a known-bad example, and the
//! preferred fix.

/// One rule explanation.
#[derive(Debug, Clone, Copy)]
pub struct Explanation {
    /// The rule id (matches [`crate::findings::RULES`]).
    pub rule: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Why the rule exists in this workspace.
    pub why: &'static str,
    /// A minimal snippet that fires the rule.
    pub bad: &'static str,
    /// The preferred fix for the snippet.
    pub good: &'static str,
}

/// The full catalogue, in [`crate::findings::RULES`] order.
pub const EXPLANATIONS: [Explanation; 11] = [
    Explanation {
        rule: "determinism",
        summary: "no random-order collections or bare float Display in emit paths",
        why: "Reports, codec images and YAML output must be byte-identical at any thread \
              count; HashMap iteration order and unpinned float formatting both break that \
              silently.",
        bad: "let mut seen = HashMap::new(); // in crates/analysis/…\nwriteln!(out, \"{}\", 0.1_f64)?;",
        good: "let mut seen = BTreeMap::new();\nwriteln!(out, \"{:.3}\", 0.1_f64)?;",
    },
    Explanation {
        rule: "no-wall-clock",
        summary: "no Instant/SystemTime reads outside the metrics layer",
        why: "Wall-clock reads in analysis or storage code leak nondeterminism into outputs \
              and make the equivalence suites flaky; timing belongs to the metrics capture \
              points listed in the config allowlist.",
        bad: "let t0 = std::time::Instant::now(); // in crates/dataset/…",
        good: "// thread timing through wm_extract::metrics, or move the\n// code into an allowlisted metrics/bench module",
    },
    Explanation {
        rule: "panic-freedom",
        summary: "no unwrap/expect, panic macros, or [] indexing in library code",
        why: "Malformed input must become a typed ExtractError, never a panic — a single \
              abort kills a whole ingest epoch in the planned serve daemon. The listing \
              report ranks panic *roots* by how many transitive findings a fix clears.",
        bad: "let first = items[0];\nlet id = map.get(&key).unwrap();",
        good: "let Some(first) = items.first() else { return Err(Error::Empty) };\nlet Some(id) = map.get(&key) else { return Err(Error::Missing) };",
    },
    Explanation {
        rule: "index-unchecked",
        summary: "no [] or .get().unwrap() indexing in query/decode kernels",
        why: "Kernel modules (query engine, columnar store, codec, spatial grid) run \
              per-row on untrusted history; an unchecked index there is a latent abort and \
              `.get(i).unwrap()` is the same abort with extra steps.",
        bad: "let row = loads[idx]; // in crates/dataset/src/query.rs\nlet cell = cells.get(c).unwrap();",
        good: "let Some(row) = loads.get(idx) else { continue };\nlet Some(cell) = cells.get(c) else { continue };\n// or hoist the bound check: for chunk in loads.chunks_exact(w) { … }",
    },
    Explanation {
        rule: "arith-unchecked",
        summary: "no raw +/-/* on lengths and offsets in decode paths",
        why: "The codec and segment store parse attacker-shaped bytes: offsets and counts \
              read from disk. Raw arithmetic on them wraps in release builds (a bogus but \
              in-bounds slice) and panics in debug builds — both wrong for corrupt images.",
        bad: "let end = offset + len; // in crates/dataset/src/codec.rs",
        good: "let end = offset.checked_add(len).ok_or(CodecError::Corrupt)?;\n// or, for intentionally modular math:\n// wm-lint: allow(arith-unchecked): hash mixing is defined modulo 2^64",
    },
    Explanation {
        rule: "alloc-in-loop",
        summary: "no Vec/String/format! construction inside kernel loops",
        why: "The PR 2 allocation discipline keeps scratch buffers outside hot loops and \
              reuses them; a per-iteration `Vec::new()` or `format!` silently reintroduces \
              allocator round-trips that only a rerun bench would catch.",
        bad: "for link in links {\n    let mut tmp = Vec::new(); // fresh allocation per row\n    tmp.push(link);\n}",
        good: "let mut tmp = Vec::new();\nfor link in links {\n    tmp.clear(); // reuse the allocation\n    tmp.push(link);\n}",
    },
    Explanation {
        rule: "unsafe-forbid",
        summary: "every crate root carries #![forbid(unsafe_code)]",
        why: "The workspace's pure-safe-Rust pledge is part of the reproduction contract; \
              forbid (not deny) means no module can re-enable unsafe locally.",
        bad: "// crates/foo/src/lib.rs without the pledge\npub mod bar;",
        good: "#![forbid(unsafe_code)]\npub mod bar;",
    },
    Explanation {
        rule: "error-exhaustiveness",
        summary: "every constructed ExtractError kind appears in the fault-matrix test",
        why: "The fault matrix is the documented catalogue of failure modes; an error kind \
              that can be constructed but never tested is an undocumented behaviour.",
        bad: "// a new ExtractError::BadLoad arm in kind() with no\n// \"bad-load\" mention in tests/extraction_robustness.rs",
        good: "// add a fault-matrix case that produces bad-load and asserts it",
    },
    Explanation {
        rule: "shim-purity",
        summary: "the rand/proptest shims import nothing from the workspace",
        why: "The shims replace crates.io dependencies; if they reach into workspace crates \
              they stop being drop-in API surfaces and create dependency cycles.",
        bad: "use wm_model::Snapshot; // inside crates/rand/",
        good: "// shims depend on std only",
    },
    Explanation {
        rule: "unused-allow",
        summary: "allow comments must suppress at least one finding",
        why: "A suppression that outlives its finding is stale documentation — the code was \
              fixed or moved, and the allow would silently excuse a future regression.",
        bad: "// wm-lint: allow(panic-freedom): bounded above\nlet x = items.first(); // nothing to suppress",
        good: "// delete the allow, or move it next to the finding it excuses",
    },
    Explanation {
        rule: "malformed-allow",
        summary: "allow comments need the exact allow(rule): reason shape",
        why: "A typo'd allow would otherwise be ignored silently — the author believes a \
              finding is suppressed when it is not (or worse, assumes the reverse).",
        bad: "// wm-lint: allow(panic_freedom) bounded above",
        good: "// wm-lint: allow(panic-freedom): bounded by the loop condition above",
    },
];

/// Looks up the explanation for `rule`.
#[must_use]
pub fn lookup(rule: &str) -> Option<&'static Explanation> {
    EXPLANATIONS.iter().find(|e| e.rule == rule)
}

/// Renders one explanation for the terminal.
#[must_use]
pub fn render(e: &Explanation) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", e.rule, e.summary);
    let _ = writeln!(out);
    let _ = writeln!(out, "why:");
    for line in wrap(e.why, 68) {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "fires on:");
    for line in e.bad.lines() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "preferred fix:");
    for line in e.good.lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Greedy word wrap to `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut current = String::new();
    for word in text.split_whitespace() {
        if !current.is_empty() && current.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut current));
        }
        if !current.is_empty() {
            current.push(' ');
        }
        current.push_str(word);
    }
    if !current.is_empty() {
        lines.push(current);
    }
    lines
}
