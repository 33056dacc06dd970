//! Fig. 2 — the collected time frame per map.
//!
//! Walks the whole two-year collection plan of every map and prints the
//! coverage segments (breaking on gaps above one hour, which hides single
//! missing snapshots but reveals outages and the year-long non-Europe
//! hole).

use ovh_weather::prelude::*;
use wm_bench::ExpOptions;

pub fn run(options: &ExpOptions) {
    options.banner("fig2", "Fig. 2 (collected data time frame by map)");
    let pipeline = options.pipeline();
    let config = pipeline.simulation().config().clone();

    for map in MapKind::ALL {
        let plan = pipeline.simulation().collection_plan(map);
        let times: Vec<Timestamp> = plan.collected_times().collect();
        let segments = coverage_segments(&times, Duration::from_hours(1));
        println!(
            "{:<15} {} snapshots in {} segments over {} .. {}",
            map.display_name(),
            times.len(),
            segments.len(),
            config.start,
            config.end
        );
        // Print the coarse availability picture: segments longer than a
        // day (the bars the figure draws), eliding the outage-split runs.
        let mut shown = 0;
        for segment in &segments {
            if segment.span() >= Duration::from_days(1) && shown < 12 {
                println!(
                    "    {} .. {}  ({} snapshots)",
                    segment.start.to_iso8601(),
                    segment.end.to_iso8601(),
                    segment.snapshots
                );
                shown += 1;
            }
        }
        if segments.len() > shown {
            println!(
                "    ... and {} shorter segments (outage splits)",
                segments.len() - shown
            );
        }
        // The headline structure of the paper's figure.
        let availability = plan.segments();
        match map {
            MapKind::Europe => println!(
                "    paper: continuous July 2020 -> September 2022 | measured: {} availability window(s)\n",
                availability.len()
            ),
            _ => println!(
                "    paper: July-September 2020, then October 2021 onwards | measured windows: {}\n",
                availability
                    .iter()
                    .map(|(s, e)| format!("{} .. {}", s.to_iso8601(), e.to_iso8601()))
                    .collect::<Vec<_>>()
                    .join(" | ")
            ),
        }
    }
}
