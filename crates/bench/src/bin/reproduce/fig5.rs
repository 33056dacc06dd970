//! Fig. 5 — links loads of the Europe map: the diurnal distribution by
//! hour of day (5a), the load CDF split by link kind (5b), and the ECMP
//! imbalance CDF over directed parallel sets (5c), measured through blind
//! extraction of snapshots sampled hourly over four weeks and read back
//! through the segment store.

use ovh_weather::prelude::*;
use wm_bench::{print_row, run_suite, ExpOptions};

pub fn run(options: &ExpOptions) {
    options.banner("fig5", "Fig. 5 (links loads in the Europe map)");
    let pipeline = options.pipeline();

    let from = Timestamp::from_ymd(2022, 1, 10);
    let to = Timestamp::from_ymd(2022, 2, 7);
    eprintln!(
        "extracting hourly snapshots over four weeks (scale {})...",
        options.scale
    );
    let (report, _) = run_suite(
        &pipeline,
        MapKind::Europe,
        from,
        to,
        12,
        SuiteConfig::default(),
    )
    .expect("suite run");
    println!("{} snapshots extracted\n", report.snapshots);
    let (hourly, cdf, imbalance) = (&report.hourly, &report.load_cdf, &report.imbalance);

    // --- Fig. 5a ------------------------------------------------------------
    println!("(5a) load percentiles by hour of day:");
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "hour", "p1", "p25", "p50", "p75", "p99"
    );
    for hour in 0..24u8 {
        if let Some(w) = hourly.summary(hour) {
            println!(
                "{hour:>5} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
                w.p1, w.p25, w.p50, w.p75, w.p99
            );
        }
    }
    let (trough, peak) = hourly.extreme_hours().expect("data");
    print_row("median trough hour", "02-04 h", &format!("{trough:02} h"));
    print_row("median peak hour", "19-21 h", &format!("{peak:02} h"));
    let iqr_ratio =
        hourly.summary(peak).expect("peak").iqr() / hourly.summary(trough).expect("trough").iqr();
    print_row(
        "spread grows with load (IQR peak/trough)",
        "> 1",
        &format!("{iqr_ratio:.2}"),
    );

    // --- Fig. 5b ------------------------------------------------------------
    let all = cdf.all();
    println!("\n(5b) load CDF (n = {}):", all.len());
    for x in [5.0, 10.0, 20.0, 33.0, 40.0, 50.0, 60.0, 80.0] {
        println!(
            "  P(load <= {x:>2}) = all {:.3} | internal {:.3} | external {:.3}",
            all.cdf(x),
            cdf.internal().cdf(x),
            cdf.external().cdf(x)
        );
    }
    let (p75, above60, delta) = cdf.headline().expect("data");
    print_row("75th percentile of loads", "~33 %", &format!("{p75:.1} %"));
    print_row(
        "loads above 60 %",
        "very few",
        &format!("{:.2} %", above60 * 100.0),
    );
    print_row(
        "external mean - internal mean",
        "< 0",
        &format!("{delta:+.1} pts"),
    );

    // --- Fig. 5c ------------------------------------------------------------
    println!(
        "\n(5c) ECMP imbalance over directed parallel sets (internal n = {}, external n = {}):",
        imbalance.internal().len(),
        imbalance.external().len()
    );
    for x in [0.0, 1.0, 2.0, 3.0, 5.0, 10.0] {
        println!(
            "  P(imbalance <= {x:>2}) internal {:.3} | external {:.3}",
            imbalance.internal().cdf(x),
            imbalance.external().cdf(x)
        );
    }
    let (all_le_1, external_le_2) = imbalance.headline();
    print_row(
        "imbalance <= 1 point (all sets)",
        "> 60 %",
        &format!("{:.1} %", all_le_1 * 100.0),
    );
    print_row(
        "external imbalance <= 2 points",
        "> 90 %",
        &format!("{:.1} %", external_le_2 * 100.0),
    );
}
