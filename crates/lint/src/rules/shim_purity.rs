//! `shim-purity`: the dependency shims must not import workspace
//! crates.
//!
//! `crates/rand` and `crates/proptest` stand in for crates.io
//! packages; they keep the upstream names so source files need no
//! import changes. The moment a shim reaches back into a `wm-*` crate,
//! the dependency graph inverts and the shims can no longer be swapped
//! for the real packages — so any `wm_*` or `ovh_weather` identifier
//! inside a shim is a finding.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Scans a shim-crate file for workspace identifiers.
pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if !Config::matches(&cfg.shim_crates, &file.rel) {
        return;
    }
    for i in 0..file.lexed.tokens.len() {
        let Some(token) = file.token(i) else { break };
        if token.kind != TokenKind::Ident {
            continue;
        }
        let text = file.token_text(i);
        if text.starts_with("wm_") || text == "ovh_weather" {
            out.push(Finding {
                rule: "shim-purity",
                file: file.rel.clone(),
                line: token.line,
                module: file.module_path(i).to_owned(),
                message: format!(
                    "shim crate references workspace crate `{text}` — shims must stay \
                     drop-in replacements for their crates.io originals"
                ),
            });
        }
    }
}
