//! Corpus pipeline — materialises a day of all four maps to disk exactly
//! like the released dataset (SVG + YAML trees), then reports the Table
//! 2-style statistics including the files the fault injector corrupted
//! and the extraction pipeline refused.
//!
//! ```sh
//! cargo run --release --example corpus_pipeline [output-dir]
//! ```

use ovh_weather::prelude::*;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("ovh-weather-corpus-{}", std::process::id()))
            .display()
            .to_string()
    });
    let pipeline = Pipeline::new(SimulationConfig::scaled(42, 0.15));
    let store = DatasetStore::open(&out_dir).expect("create corpus directory");
    println!("materialising one day of all four maps into {out_dir}\n");

    // A day inside every map's availability window.
    let from = Timestamp::from_ymd(2022, 2, 15);
    let to = Timestamp::from_ymd(2022, 2, 16);
    for map in MapKind::ALL {
        let result = pipeline
            .materialize_window(&store, map, from, to)
            .expect("write corpus files");
        print!(
            "{:<15} collected {:>4}, extracted {:>4}, refused {:>2}",
            map.display_name(),
            result.stats.total(),
            result.stats.processed,
            result.stats.failed
        );
        if result.stats.failed > 0 {
            print!("  ({:?})", result.stats.failures_by_kind);
        }
        println!();
    }

    // Table 2-style bookkeeping straight from the files on disk.
    let entries = store.entries().expect("scan corpus");
    let stats = CorpusStats::from_entries(&entries);
    println!("\n{}", stats.render_table());

    // SVG-to-YAML size ratio (the paper's corpus compresses ~8x).
    let svg = stats.total(FileKind::Svg);
    let yaml = stats.total(FileKind::Yaml);
    if yaml.bytes > 0 {
        println!(
            "SVG/YAML size ratio: {:.1}x (paper: 227.93 GiB / 28.46 GiB = 8.0x)",
            svg.bytes as f64 / yaml.bytes as f64
        );
    }

    // Read-only consumers reopen the corpus with the strict constructor
    // (a typo'd path fails loudly instead of creating an empty tree) and
    // stream through the shared parallel loader straight into the
    // columnar longitudinal store — no intermediate snapshot vector.
    let reader = DatasetStore::open_existing(&out_dir).expect("corpus exists");
    let (columnar, load_stats) =
        build_longitudinal(&reader, MapKind::Europe, 4).expect("load Europe corpus");
    println!(
        "re-loaded Europe: {} files, {} parsed, {} failed",
        load_stats.files, load_stats.parsed, load_stats.failed
    );
    assert!(!columnar.is_empty(), "some yaml stored");
    let sample = columnar.snapshot(0);
    println!(
        "first snapshot {}: {} routers, {} links",
        sample.timestamp,
        sample.router_count(),
        sample.links.len()
    );
    println!(
        "columnar store: {} snapshots, {} nodes, {} link identities, {} load rows, ~{:.1} MiB",
        columnar.len(),
        columnar.nodes().len(),
        columnar.link_defs().len(),
        columnar.observations(),
        columnar.approx_bytes() as f64 / (1024.0 * 1024.0)
    );
}
