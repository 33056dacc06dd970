//! Table 1 — routers, internal and external links per map on the
//! reference date (2022-09-12), measured by rendering the full-scale maps
//! and reading them back through extraction and the segment store.

use ovh_weather::prelude::*;
use wm_bench::{print_row, table1_suite, ExpOptions};

pub fn run(options: &ExpOptions) {
    options.banner("table1", "Table 1 (network size summary)");
    let pipeline = options.pipeline();
    let reference = Timestamp::from_ymd_hms(2022, 9, 12, 12, 0, 0);

    let (report, parallelism) = table1_suite(&pipeline, reference).expect("table 1 run");
    let table = report.table1;
    println!("{}", table.render());

    let paper = [
        (MapKind::Europe, (113, 744, 265)),
        (MapKind::World, (16, 76, 0)),
        (MapKind::NorthAmerica, (60, 407, 214)),
        (MapKind::AsiaPacific, (23, 96, 39)),
    ];
    println!("paper-vs-measured (at scale {}):", options.scale);
    for (map, (routers, internal, external)) in paper {
        let row = table.rows.iter().find(|r| r.map == map).expect("row");
        print_row(
            &format!("{} routers / internal / external", map.display_name()),
            &format!("{routers}/{internal}/{external}"),
            &format!(
                "{}/{}/{}",
                row.routers, row.internal_links, row.external_links
            ),
        );
    }
    print_row(
        "Total routers (dedup across maps)",
        "181",
        &table.total_routers.to_string(),
    );
    print_row(
        "Total internal / external links",
        "1186 / 518",
        &format!("{} / {}", table.total_internal, table.total_external),
    );
    println!(
        "\nnote: the paper's total row deduplicates intercontinental links drawn on\n\
         both the World and a continental map and ~15 routers shared between\n\
         continental maps; this reproduction shares only the World gateways, so\n\
         its totals are plain sums (see EXPERIMENTS.md)."
    );
    println!(
        "\nmean parallel links per connected pair (Europe): {:.2} (paper: 6.58 per router)",
        parallelism
    );
}
