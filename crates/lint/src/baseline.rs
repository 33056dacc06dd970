//! The ratcheting baseline.
//!
//! The workspace predates the linter, so hundreds of findings (mostly
//! panic-freedom) already exist. Rather than drowning CI, the accepted
//! debt is frozen into a committed `lint-baseline.json`, keyed by
//! `(rule, file)` with a *count* — line numbers would churn on every
//! unrelated edit. `--deny-new` then enforces a one-way ratchet:
//!
//! - a count above its baseline entry (or a finding in an unlisted
//!   file) is **new debt** and fails;
//! - a count below its baseline entry, or an entry whose file no longer
//!   exists, is a **stale entry** and also fails — run
//!   `--update-baseline` so the recorded debt only ever shrinks;
//! - a finding in a zero-baseline path (`Config::zero_baseline`) fails
//!   even when the baseline lists it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::config::Config;
use crate::findings::Finding;
use crate::json::{self, Value};

/// Accepted findings per `(rule, file)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, file)` to accepted count.
    pub entries: BTreeMap<(String, String), u64>,
}

/// Groups findings into baseline-shaped counts.
#[must_use]
pub fn counts(findings: &[Finding]) -> BTreeMap<(String, String), u64> {
    let mut map = BTreeMap::new();
    for f in findings {
        *map.entry((f.rule.to_owned(), f.file.clone())).or_insert(0) += 1;
    }
    map
}

impl Baseline {
    /// Builds a baseline accepting exactly the given findings.
    #[must_use]
    pub fn from_findings(findings: &[Finding]) -> Baseline {
        Baseline {
            entries: counts(findings),
        }
    }

    /// Loads a baseline; `Ok(None)` when the file does not exist.
    pub fn load(path: &Path) -> io::Result<Option<Baseline>> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let value = json::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?;
        let mut entries = BTreeMap::new();
        let items = value
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or_else(|| bad_data(path, "missing `entries` array"))?;
        for item in items {
            let rule = item.get("rule").and_then(Value::as_str);
            let file = item.get("file").and_then(Value::as_str);
            let count = item.get("count").and_then(Value::as_u64);
            match (rule, file, count) {
                (Some(rule), Some(file), Some(count)) if count > 0 => {
                    entries.insert((rule.to_owned(), file.to_owned()), count);
                }
                _ => return Err(bad_data(path, "entry needs rule, file, and a count > 0")),
            }
        }
        Ok(Some(Baseline { entries }))
    }

    /// Serialises the baseline deterministically.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [");
        for (i, ((rule, file), count)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"count\": {count}}}",
                json::escape(rule),
                json::escape(file),
            );
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the baseline to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.render())
    }
}

fn bad_data(path: &Path, why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {why}"))
}

/// One `(rule, file)` whose count moved against the ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Rule id.
    pub rule: String,
    /// File path.
    pub file: String,
    /// Count in the current scan.
    pub found: u64,
    /// Count accepted by the baseline.
    pub accepted: u64,
}

/// The verdict of a `--deny-new` comparison.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Counts above baseline: new debt.
    pub grown: Vec<Delta>,
    /// Counts below baseline: stale entries to ratchet down.
    pub stale: Vec<Delta>,
}

impl Comparison {
    /// Whether the gate passes.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.grown.is_empty() && self.stale.is_empty()
    }
}

/// Compares a scan against the accepted baseline. Files under a
/// `zero_paths` prefix accept no finding, whatever the baseline says.
#[must_use]
pub fn compare(findings: &[Finding], baseline: &Baseline, zero_paths: &[String]) -> Comparison {
    let current = counts(findings);
    let mut cmp = Comparison::default();
    for (key, &found) in &current {
        let accepted = if Config::matches(zero_paths, &key.1) {
            0
        } else {
            baseline.entries.get(key).copied().unwrap_or(0)
        };
        if found > accepted {
            cmp.grown.push(delta(key, found, accepted));
        }
    }
    for (key, &accepted) in &baseline.entries {
        let found = current.get(key).copied().unwrap_or(0);
        if found < accepted {
            cmp.stale.push(delta(key, found, accepted));
        }
    }
    cmp
}

fn delta(key: &(String, String), found: u64, accepted: u64) -> Delta {
    Delta {
        rule: key.0.clone(),
        file: key.1.clone(),
        found,
        accepted,
    }
}
