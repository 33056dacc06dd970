//! Fig. 4 — network infrastructure of the Europe map: router-count
//! history (4a), internal vs external link growth (4b), and the
//! router-degree CCDF (4c), all measured through blind extraction of
//! rendered snapshots sampled weekly over the two-year period and read
//! back through the segment store.

use ovh_weather::prelude::*;
use wm_bench::{print_row, run_suite, ExpOptions};

pub fn run(options: &ExpOptions) {
    options.banner("fig4", "Fig. 4 (network infrastructure of the Europe map)");
    let pipeline = options.pipeline();
    let config = pipeline.simulation().config().clone();

    // Weekly samples: 2 016 five-minute slots per week.
    eprintln!(
        "extracting weekly snapshots over two years (scale {})...",
        options.scale
    );
    let min_step = (5.0 * options.scale).ceil() as usize;
    let (report, _) = run_suite(
        &pipeline,
        MapKind::Europe,
        config.start,
        config.end,
        2016,
        SuiteConfig {
            min_link_delta: min_step,
            ..SuiteConfig::default()
        },
    )
    .expect("suite run");
    let series = &report.evolution.series;
    println!("{} weekly snapshots extracted\n", series.len());

    // --- Fig. 4a/4b -------------------------------------------------------
    println!("(4a/4b) infrastructure series (every 4th sample):");
    println!(
        "{:<22} {:>8} {:>15} {:>15}",
        "date", "routers", "internal", "external"
    );
    for point in series.iter().step_by(4) {
        println!(
            "{:<22} {:>8} {:>15} {:>15}",
            point.timestamp.to_iso8601(),
            point.routers,
            point.internal_links,
            point.external_links
        );
    }

    let router_events = &report.evolution.router_events;
    println!("\n(4a) router-count events:");
    for event in router_events {
        println!(
            "  {}: {} -> {} ({:+})",
            event.at,
            event.before,
            event.after,
            event.delta()
        );
    }
    print_row(
        "Aug-Sep 2020 make-before-break",
        "+10 then -4",
        &summarise_window(router_events, 2020, 8, 2020, 11),
    );
    print_row(
        "June 2021 removals",
        "-4",
        &summarise_window(router_events, 2021, 6, 2021, 7),
    );

    let steps = &report.evolution.internal_link_events;
    println!("\n(4b) internal-link steps (>= {min_step} at once):");
    for event in steps {
        println!("  {}: {:+}", event.at, event.delta());
    }
    print_row(
        "November 2021 internal step",
        &format!("+{} (scaled +40)", (40.0 * options.scale).round()),
        &summarise_window(steps, 2021, 11, 2021, 12),
    );
    let (first, last) = (series.first().expect("data"), series.last().expect("data"));
    print_row(
        "external links: gradual growth",
        "monotonic",
        &format!("{} -> {}", first.external_links, last.external_links),
    );

    // --- Fig. 4c ------------------------------------------------------------
    let degrees = report.degree.as_ref().expect("data");
    println!("\n(4c) router-degree CCDF on {}:", last.timestamp);
    for (degree, ccdf) in degrees.ccdf_points() {
        println!("  degree > {degree:>4}: {:.3}", ccdf);
    }
    print_row(
        "routers with a single link",
        "> 20 %",
        &format!("{:.1} %", degrees.fraction_single_link() * 100.0),
    );
    print_row(
        "routers with more than 20 links",
        "> 20 %",
        &format!("{:.1} %", degrees.fraction_above(20) * 100.0),
    );
}

/// Sums the deltas of events within `[from, to)` month windows.
fn summarise_window(
    events: &[ovh_weather::analysis::ChangeEvent],
    from_year: i32,
    from_month: u8,
    to_year: i32,
    to_month: u8,
) -> String {
    let from = Timestamp::from_ymd(from_year, from_month, 1);
    let to = Timestamp::from_ymd(to_year, to_month, 1);
    let deltas: Vec<i64> = events
        .iter()
        .filter(|e| e.at >= from && e.at < to)
        .map(ovh_weather::analysis::ChangeEvent::delta)
        .collect();
    if deltas.is_empty() {
        "none detected".into()
    } else {
        let gains: i64 = deltas.iter().filter(|d| **d > 0).sum();
        let losses: i64 = deltas.iter().filter(|d| **d < 0).sum();
        format!("{gains:+} then {losses:+}")
    }
}
