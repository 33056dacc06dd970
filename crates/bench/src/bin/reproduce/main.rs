//! `reproduce` — regenerates the paper's tables and figures, and the
//! §4 design-choice ablations, printing paper-reported values next to
//! the measured ones.
//!
//! ```text
//! reproduce [table1 table2 fig2 fig3 fig4 fig5 fig6 ablation]... [--seed N] [--scale X|full]
//! ```
//!
//! Naming no artifact runs all of them in paper order. Each artifact
//! runs at its own default scale unless `--scale` sets one for all.

#![forbid(unsafe_code)]

mod ablation;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod table1;
mod table2;

use wm_bench::ExpOptions;

/// One artifact: its name, its default scale and what prints it.
type Artifact = (&'static str, f64, fn(&ExpOptions));

/// Every artifact, in paper order. Figs. 2–3 measure the collection
/// schedule, so their network size is irrelevant.
const ARTIFACTS: [Artifact; 8] = [
    ("table1", 1.0, table1::run),
    ("table2", 0.25, table2::run),
    ("fig2", 0.1, fig2::run),
    ("fig3", 0.1, fig3::run),
    ("fig4", 0.3, fig4::run),
    ("fig5", 0.25, fig5::run),
    ("fig6", 0.5, fig6::run),
    ("ablation", 0.25, ablation::run),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let mut seed = 42;
    let mut scale = None;
    let mut chosen: Vec<&Artifact> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed expects an integer"));
            }
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = Some(if value == "full" {
                    1.0
                } else {
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--scale expects a float or 'full'"))
                });
            }
            "--help" | "-h" => usage(""),
            name => {
                let artifact = ARTIFACTS
                    .iter()
                    .find(|(known, ..)| *known == name)
                    .unwrap_or_else(|| usage(&format!("unknown artifact or option {name:?}")));
                chosen.push(artifact);
            }
        }
    }
    if chosen.is_empty() {
        chosen = ARTIFACTS.iter().collect();
    }
    for (_, default_scale, run) in chosen {
        run(&ExpOptions {
            seed,
            scale: scale.unwrap_or(*default_scale),
        });
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "usage: reproduce [{}]... [--seed N] [--scale X|full]",
        names.join(" ")
    );
    std::process::exit(2);
}
