//! Fig. 3 — the distribution of the time distance between consecutive
//! data files, per map, over the whole collection period.

use ovh_weather::analysis::timeframe::GapDistribution;
use ovh_weather::prelude::*;
use wm_bench::{print_row, ExpOptions};

pub fn run(options: &ExpOptions) {
    options.banner("fig3", "Fig. 3 (inter-snapshot distance distribution)");
    let pipeline = options.pipeline();

    println!(
        "{:<15} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "map", "gaps", "at 5 min", "<= 10 min", "<= 1 h", "max gap"
    );
    let mut europe_at_5min = 0.0;
    for map in MapKind::ALL {
        let times: Vec<Timestamp> = pipeline
            .simulation()
            .collection_plan(map)
            .collected_times()
            .collect();
        let dist = GapDistribution::new(&times);
        if map == MapKind::Europe {
            europe_at_5min = dist.fraction_at_resolution();
        }
        println!(
            "{:<15} {:>10} {:>11.2}% {:>11.2}% {:>11.2}% {:>14}",
            map.display_name(),
            dist.distances.len(),
            dist.fraction_at_resolution() * 100.0,
            dist.fraction_within(Duration::from_minutes(10)) * 100.0,
            dist.fraction_within(Duration::from_hours(1)) * 100.0,
            dist.max_gap().map_or_else(|| "-".into(), |g| g.to_string()),
        );
    }

    println!();
    print_row(
        "Europe snapshots at the 5-minute resolution",
        ">= 99.8 %",
        &format!("{:.2} %", europe_at_5min * 100.0),
    );
    print_row(
        "non-Europe maps coarser than 5 minutes",
        "< 10 % of gaps",
        "see table",
    );
}
