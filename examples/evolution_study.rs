//! Evolution study — reproduces Fig. 4 of the paper on the simulated
//! Europe map: router-count history (4a), internal vs external link
//! growth (4b), and the router-degree CCDF (4c).
//!
//! ```sh
//! cargo run --release --example evolution_study
//! ```

use ovh_weather::prelude::*;

fn main() {
    let scale = 0.3;
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, scale));
    let config = pipeline.simulation().config().clone();

    // Sample the two-year period weekly (2 016 five-minute slots per week).
    println!(
        "sampling the Europe map weekly from {} to {}...",
        config.start, config.end
    );
    let result = pipeline.run_window_sampled(MapKind::Europe, config.start, config.end, 2016);
    println!("  {} snapshots extracted\n", result.snapshots.len());

    // One suite scan produces every artifact below (series, change
    // events, degree CCDF, site growth) instead of one pass per figure.
    let min_step = (4.0 * scale).ceil() as usize;
    let (report, _) = AnalysisSuite::run_store(
        SuiteConfig {
            min_link_delta: min_step,
            ..SuiteConfig::default()
        },
        &LongitudinalStore::from_snapshots(&result.snapshots),
    );

    // --- Fig. 4a/4b: infrastructure series --------------------------------
    let series = &report.evolution.series;
    println!(
        "{:<22} {:>8} {:>15} {:>15}",
        "date", "routers", "internal links", "external links"
    );
    for point in series.iter().step_by(6) {
        println!(
            "{:<22} {:>8} {:>15} {:>15}",
            point.timestamp.to_iso8601(),
            point.routers,
            point.internal_links,
            point.external_links
        );
    }

    // Abrupt router-count changes (the make-before-break and maintenance
    // events §5 narrates).
    println!("\nrouter-count change events:");
    for event in &report.evolution.router_events {
        println!(
            "  {}: {} -> {} ({:+})",
            event.at,
            event.before,
            event.after,
            event.delta()
        );
    }

    // Internal-link steps (Fig. 4b's stepped growth).
    println!("\ninternal-link step events (>= {min_step} links at once):");
    for event in &report.evolution.internal_link_events {
        println!(
            "  {}: {} -> {} ({:+})",
            event.at,
            event.before,
            event.after,
            event.delta()
        );
    }

    // External links grow gradually: compare first and last.
    let (first, last) = (series.first().expect("data"), series.last().expect("data"));
    println!(
        "\nexternal links grew {} -> {} over the period (gradual)",
        first.external_links, last.external_links
    );

    // --- Fig. 4c: degree CCDF ----------------------------------------------
    let final_snapshot = result.snapshots.last().expect("data");
    let degrees = report.degree.as_ref().expect("data");
    println!("\nrouter-degree CCDF on {}:", final_snapshot.timestamp);
    println!("{:>8} {:>10}", "degree", "CCDF");
    for (degree, ccdf) in degrees.ccdf_points().iter().step_by(2) {
        println!("{degree:>8} {ccdf:>10.3}");
    }
    println!(
        "\nfraction of routers with a single link: {:.1} % (paper: > 20 %)",
        degrees.fraction_single_link() * 100.0
    );
    println!(
        "fraction of routers with more than 20 links: {:.1} % (paper: > 20 %)",
        degrees.fraction_above(20) * 100.0
    );

    // --- Paper future work: which sites grow fastest? ----------------------
    // §5 suggests using router names to localise the growth; site prefixes
    // (rbx, gra, fra, ...) are the natural grouping.
    println!("\nper-site growth over the period (link ends, fastest first):");
    for site in report.sites.iter().take(8) {
        println!(
            "  {:<5} routers {:>3} -> {:>3}   link ends {:>4} -> {:>4}  ({:+})",
            site.site,
            site.first.routers,
            site.last.routers,
            site.first.link_ends,
            site.last.link_ends,
            site.link_growth()
        );
    }
}
