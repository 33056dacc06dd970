//! Lint configuration: which paths each path-scoped rule applies to.
//!
//! The lists are workspace knowledge, deliberately centralised here
//! rather than scattered through rule code, so adding an emit path or a
//! timing module is a one-line change reviewed next to its peers.

use std::path::PathBuf;

/// Scoping configuration for a scan.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (where `Cargo.toml` and the baseline live).
    pub root: PathBuf,
    /// Path prefixes whose files feed emitted bytes, reports, or the
    /// binary codec: the determinism rule applies here.
    pub det_paths: Vec<String>,
    /// Path prefixes where wall-clock reads are legitimate in library
    /// code (metrics capture, pipeline timing). Binaries, benches and
    /// tests are exempt by class.
    pub wall_clock_allow: Vec<String>,
    /// Crate directories that must stay import-pure shims.
    pub shim_crates: Vec<String>,
    /// Query/decode kernel modules: the hot-path rule pack
    /// (`index-unchecked`, `alloc-in-loop`) applies here, and
    /// `index-unchecked` owns what would otherwise be panic-freedom
    /// index findings.
    pub kernel_paths: Vec<String>,
    /// Codec/segment decode paths where raw length/offset arithmetic
    /// must be `checked_*`/`wrapping_*` (`arith-unchecked`).
    pub arith_paths: Vec<String>,
    /// Paths held at zero findings: the readers of bytes nobody vouches
    /// for, once their debt was paid. `--deny-new` fails on any finding
    /// here, whatever the baseline accepts.
    pub zero_baseline: Vec<String>,
    /// The file defining the extraction error enum and its `kind()`.
    pub error_enum: String,
    /// Name of the error enum tracked by the exhaustiveness rule.
    pub error_type: String,
    /// The fault-matrix test that must name every constructed kind.
    pub fault_matrix: String,
}

impl Config {
    /// The configuration for this workspace, rooted at `root`.
    #[must_use]
    pub fn workspace(root: PathBuf) -> Config {
        let owned = |items: &[&str]| items.iter().map(|s| (*s).to_owned()).collect();
        Config {
            root,
            det_paths: owned(&[
                "crates/yaml/src/emit.rs",
                "crates/xml/src/writer.rs",
                "crates/svg/src/build.rs",
                "crates/dataset/src/codec.rs",
                "crates/dataset/src/longitudinal.rs",
                "crates/dataset/src/segment.rs",
                "crates/dataset/src/segments.rs",
                "crates/dataset/src/stats.rs",
                "crates/dataset/src/query.rs",
                "crates/model/src/query.rs",
                "crates/analysis/src/",
                "crates/simulator/src/",
                "crates/extract/src/metrics.rs",
            ]),
            wall_clock_allow: owned(&[
                "crates/extract/src/metrics.rs",
                "crates/extract/src/pipeline.rs",
                "crates/core/src/pipeline.rs",
            ]),
            shim_crates: owned(&["crates/rand/", "crates/proptest/"]),
            kernel_paths: owned(&[
                "crates/dataset/src/query.rs",
                "crates/dataset/src/longitudinal.rs",
                "crates/dataset/src/codec.rs",
                "crates/dataset/src/segments.rs",
                "crates/model/src/query.rs",
                "crates/geometry/src/grid.rs",
                // The linter's own hot path: the parser runs per-token
                // on adversarial soup and must stay as disciplined as
                // the kernels it checks. (The call-graph build is a
                // once-per-scan construction pass, not a kernel.)
                "crates/lint/src/syntax.rs",
            ]),
            arith_paths: owned(&[
                "crates/dataset/src/codec.rs",
                "crates/dataset/src/segments.rs",
            ]),
            zero_baseline: owned(&[
                "crates/xml/src/reader.rs",
                "crates/xml/src/escape.rs",
                "crates/svg/src/parse.rs",
                "crates/svg/src/numbers.rs",
                "crates/yaml/src/parse.rs",
                "crates/extract/src/algorithm2.rs",
                "crates/extract/src/validate.rs",
                "crates/geometry/src/polygon.rs",
                "crates/dataset/src/codec.rs",
                "crates/dataset/src/paths.rs",
                "crates/dataset/src/longitudinal.rs",
                "crates/dataset/src/segment.rs",
                "crates/dataset/src/segments.rs",
                "crates/dataset/src/query.rs",
                "crates/dataset/src/loader.rs",
                "crates/extract/src/snapshot_yaml.rs",
                "crates/model/src/time.rs",
            ]),
            error_enum: "crates/extract/src/error.rs".to_owned(),
            error_type: "ExtractError".to_owned(),
            fault_matrix: "tests/extraction_robustness.rs".to_owned(),
        }
    }

    /// Whether `rel` falls under any prefix in `prefixes`.
    #[must_use]
    pub fn matches(prefixes: &[String], rel: &str) -> bool {
        prefixes.iter().any(|p| rel.starts_with(p.as_str()))
    }
}
