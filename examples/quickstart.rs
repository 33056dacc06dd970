//! Quickstart: simulate a weathermap, extract it, inspect the topology.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ovh_weather::prelude::*;

fn main() {
    // A deterministic world at 20 % of the paper's network size — small
    // enough to run in a couple of seconds.
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.2));

    // Extract one hour of the Europe map at the five-minute cadence.
    let from = Timestamp::from_ymd_hms(2021, 3, 1, 18, 0, 0);
    let result = pipeline.run_window(MapKind::Europe, from, from + Duration::from_hours(1));
    println!(
        "extracted {} snapshots ({} collected, {} failed)",
        result.snapshots.len(),
        result.stats.total(),
        result.stats.failed
    );

    let snapshot = &result.snapshots[0];
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
        .expect("snapshot has links");
    println!("\nbusiest link: {busiest}");

    // Snapshots round-trip through the dataset's YAML schema.
    let yaml = to_yaml_string(snapshot);
    let restored = from_yaml_str(&yaml).expect("schema round trip");
    assert_eq!(&restored, snapshot);
    println!(
        "\nYAML head:\n{}",
        yaml.lines().take(8).collect::<Vec<_>>().join("\n")
    );

    // Stored corpora come back through the shared parallel loader.
    let dir = std::env::temp_dir().join(format!("ovh-weather-quickstart-{}", std::process::id()));
    let store = DatasetStore::open(&dir).expect("temp store");
    for s in &result.snapshots {
        store
            .write(
                MapKind::Europe,
                FileKind::Yaml,
                s.timestamp,
                to_yaml_string(s).as_bytes(),
            )
            .expect("write yaml");
    }
    let (reloaded, load_stats) =
        build_longitudinal(&store, MapKind::Europe, 2).expect("reload corpus");
    assert!(reloaded.snapshots().eq(result.snapshots.iter().cloned()));
    println!(
        "\nstore round trip: {} files reloaded identically",
        load_stats.parsed
    );
    std::fs::remove_dir_all(store.root()).ok();

    // And the extraction is verifiably exact against the simulator.
    pipeline
        .verify_roundtrip(MapKind::Europe, from)
        .expect("extraction recovers the ground truth");
    println!("\nround-trip verification: OK");
}
