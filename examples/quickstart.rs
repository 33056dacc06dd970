//! Quickstart: simulate a weathermap, extract it to YAML, inspect the
//! topology.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::error::Error;

use ovh_weather::prelude::*;

fn main() -> Result<(), Box<dyn Error>> {
    // A deterministic world at 20 % of the paper's network size — small
    // enough to run in a couple of seconds.
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.2));

    // Write one hour of the Europe map's SVGs (five-minute cadence) into
    // a corpus directory and extract each to YAML beside it.
    let from = Timestamp::from_ymd_hms(2021, 3, 1, 18, 0, 0);
    let to = from + Duration::from_hours(1);
    let dir = std::env::temp_dir().join(format!("ovh-weather-quickstart-{}", std::process::id()));
    let store = DatasetStore::open(&dir)?;
    let outcome = pipeline.materialize_window(&store, MapKind::Europe, from, to)?;
    println!(
        "extracted {} snapshots ({} collected, {} failed)",
        outcome.stats.processed,
        outcome.stats.total(),
        outcome.stats.failed
    );

    // Each YAML file reads back as a typed topology.
    let first = store.entries_of(MapKind::Europe, FileKind::Yaml)?[0].timestamp;
    let yaml = String::from_utf8(store.read(MapKind::Europe, FileKind::Yaml, first)?)?;
    let snapshot = from_yaml_str(&yaml)?;
    println!("\nsnapshot at {}:", snapshot.timestamp);
    println!("  routers:        {}", snapshot.router_count());
    println!("  peerings:       {}", snapshot.peerings().count());
    println!("  internal links: {}", snapshot.internal_link_count());
    println!("  external links: {}", snapshot.external_link_count());
    println!("  parallel sets:  {}", snapshot.parallel_groups().len());
    println!(
        "  mean parallel links per set: {:.2}",
        snapshot.mean_parallelism()
    );

    // The busiest link right now.
    let busiest = snapshot
        .links
        .iter()
        .max_by_key(|l| l.a.egress_load.percent().max(l.b.egress_load.percent()))
        .ok_or("snapshot has no links")?;
    println!("\nbusiest link: {busiest}");

    // Snapshots round-trip through the dataset's YAML schema.
    assert_eq!(to_yaml_string(&snapshot), yaml);
    println!(
        "\nYAML head:\n{}",
        yaml.lines().take(8).collect::<Vec<_>>().join("\n")
    );

    // Stored corpora come back through the shared parallel loader.
    let (reloaded, load_stats) = build_longitudinal(&store, MapKind::Europe, 2)?;
    assert_eq!(reloaded.len(), outcome.stats.processed);
    println!("\nstore round trip: {} files reloaded", load_stats.parsed);
    std::fs::remove_dir_all(store.root())?;

    // And the extraction is verifiably exact against the simulator.
    pipeline.verify_roundtrip(MapKind::Europe, from)?;
    println!("\nround-trip verification: OK");
    Ok(())
}
