//! `no-wall-clock`: no `Instant`/`SystemTime` in library code outside
//! the timing allowlist.
//!
//! Wall-clock reads in an extraction or analysis path make output
//! depend on when it ran — the exact failure the equivalence suites
//! exist to prevent. Timing belongs in the metrics layer and the CLI
//! front-ends: library timing paths are allowlisted in
//! [`Config::wall_clock_allow`], and binaries/benches/tests are exempt
//! by class.

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::source::{FileClass, SourceFile};

/// Scans a library file for wall-clock types.
pub fn check(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    if file.class != FileClass::Library || Config::matches(&cfg.wall_clock_allow, &file.rel) {
        return;
    }
    for i in 0..file.lexed.tokens.len() {
        if file.in_test(i) {
            continue;
        }
        let Some(token) = file.token(i) else { break };
        if token.kind != TokenKind::Ident {
            continue;
        }
        let text = file.token_text(i);
        if text == "Instant" || text == "SystemTime" {
            out.push(Finding {
                rule: "no-wall-clock",
                file: file.rel.clone(),
                line: token.line,
                module: file.module_path(i).to_owned(),
                message: format!(
                    "`{text}` outside the timing allowlist — pass timings in from the metrics \
                     layer instead of reading the clock here"
                ),
            });
        }
    }
}
