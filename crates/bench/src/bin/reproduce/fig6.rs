//! Fig. 6 — the AMS-IX link upgrade of March 2022: the new link appears
//! (*A*), PeeringDB announces the capacity increase (*B*), and activation
//! spreads traffic over all parallel links (*C*). Measured through blind
//! extraction of snapshots sampled four times a day over March 2022 and
//! read back through the segment store.

use ovh_weather::prelude::*;
use wm_bench::{print_row, run_suite, upgrade_target, ExpOptions};

pub fn run(options: &ExpOptions) {
    options.banner("fig6", "Fig. 6 (links load towards AMS-IX over March 2022)");
    let pipeline = options.pipeline();
    let scenario = pipeline
        .simulation()
        .scenario()
        .expect("the AMS-IX scenario requires --scale >= 0.1");
    println!(
        "monitored group: {} <-> {}\nscheduled: A {} | B {} | C {}\n",
        scenario.router,
        scenario.peering,
        scenario.link_added,
        scenario.peeringdb_updated,
        scenario.link_activated
    );

    eprintln!(
        "extracting 6-hourly snapshots over March 2022 (scale {})...",
        options.scale
    );
    let (suite, _) = run_suite(
        &pipeline,
        MapKind::Europe,
        Timestamp::from_ymd(2022, 3, 1),
        Timestamp::from_ymd(2022, 4, 1),
        72,
        SuiteConfig {
            upgrade: Some(upgrade_target(scenario)),
            ..SuiteConfig::default()
        },
    )
    .expect("suite run");
    let upgrade = suite.upgrade.expect("upgrade target configured");
    let (observations, report) = (&upgrade.observations, &upgrade.report);
    println!("{} observations\n", observations.len());

    println!(
        "{:<22} {:>6} {:>8} {:>12}",
        "date", "links", "active", "mean load %"
    );
    for o in observations.iter().step_by(4) {
        println!(
            "{:<22} {:>6} {:>8} {:>12.1}",
            o.timestamp.to_iso8601(),
            o.links,
            o.active_links,
            o.mean_active_load
        );
    }

    println!();
    print_row(
        "A: link added",
        "2022-03-05 (a new 0 % link)",
        &report
            .link_added
            .map_or_else(|| "-".into(), |t| t.to_iso8601()),
    );
    print_row(
        "B: PeeringDB updated (+100 Gbps)",
        "2022-03-14, 400->500 G",
        &report.capacity_update.as_ref().map_or_else(
            || "-".into(),
            |r| format!("{} -> {} G", r.at.to_iso8601(), r.total_capacity_gbps),
        ),
    );
    print_row(
        "C: link activated",
        "2022-03-19 (two weeks after A)",
        &report
            .link_activated
            .map_or_else(|| "-".into(), |t| t.to_iso8601()),
    );
    print_row(
        "inferred per-link capacity",
        "100 Gbps",
        &report
            .inferred_link_capacity_gbps
            .map_or_else(|| "-".into(), |c| format!("{c:.0} Gbps")),
    );

    // Smooth the activation load drop with windowed means (+-3 days),
    // cancelling the diurnal cycle the instantaneous ratio picks up.
    if let Some(activated) = report.link_activated {
        let window = Duration::from_days(3);
        let mean_in = |from: Timestamp, to: Timestamp| -> f64 {
            let loads: Vec<f64> = observations
                .iter()
                .filter(|o| o.timestamp >= from && o.timestamp < to)
                .map(|o| o.mean_active_load)
                .collect();
            loads.iter().sum::<f64>() / loads.len().max(1) as f64
        };
        let before = mean_in(activated - window, activated);
        let after = mean_in(activated, activated + window);
        print_row(
            "load drop at activation (3-day windows)",
            "x0.80 (4 links -> 5)",
            &format!("x{:.2} ({before:.1} % -> {after:.1} %)", after / before),
        );
    }
}
