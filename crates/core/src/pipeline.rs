//! The end-to-end pipeline: simulate → collect → extract → analyse.

use std::collections::BTreeSet;
use std::io;
use std::time::Instant;

use wm_dataset::{DatasetStore, FileKind};
use wm_extract::{
    default_threads, extract_batch_with, to_yaml_string, BatchInput, BatchMetrics, BatchStats,
    ExtractConfig, ExtractError, Scheduling, Stage,
};
use wm_model::{MapKind, Timestamp, TopologySnapshot};
use wm_simulator::{Simulation, SimulationConfig};

/// The outcome of processing one collection window in memory.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Successfully extracted snapshots, sorted by timestamp.
    pub snapshots: Vec<TopologySnapshot>,
    /// Extraction bookkeeping (processed/failed per error kind).
    pub stats: BatchStats,
    /// Per-stage timings and throughput counters of the run.
    pub metrics: BatchMetrics,
}

/// What [`extract_to_yaml`] did with one map's SVG files.
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// Extraction bookkeeping over every instant (processed/failed per
    /// error kind).
    pub stats: BatchStats,
    /// Per-stage timings and throughput counters, YAML emits included.
    pub metrics: BatchMetrics,
    /// Instants refused before extraction because their SVG is not
    /// UTF-8, each with its `invalid-xml` reason (`not UTF-8 at byte N`).
    pub refused: Vec<(Timestamp, String)>,
    /// Refused instants whose older YAML file was removed.
    pub removed: Vec<Timestamp>,
}

/// Writes each snapshot of `map` into `store` as YAML, timing every
/// emit into `metrics` as [`Stage::YamlEmit`].
pub fn write_yaml(
    store: &DatasetStore,
    map: MapKind,
    snapshots: &[TopologySnapshot],
    metrics: &mut BatchMetrics,
) -> io::Result<()> {
    for snapshot in snapshots {
        let emit_started = Instant::now();
        let yaml = to_yaml_string(snapshot);
        metrics.record_stage(Stage::YamlEmit, emit_started.elapsed());
        store.write(map, FileKind::Yaml, snapshot.timestamp, yaml.as_bytes())?;
    }
    Ok(())
}

/// Extracts the SVG files of `map` at `instants` in `store` and writes
/// every extracted snapshot beside them as YAML: the one SVG-on-disk →
/// YAML-on-disk path behind `extract`, `generate`
/// ([`Pipeline::materialize_window`]) and the paper's figures.
///
/// A file that is not UTF-8 cannot be XML: it is refused as
/// `invalid-xml`, named by its first invalid byte, and the other files
/// are still extracted. A refused instant keeps no YAML: an older file
/// there is removed, since `analyze` would still count it. Nothing is
/// printed; the outcome lists what was refused and removed.
pub fn extract_to_yaml(
    store: &DatasetStore,
    map: MapKind,
    instants: &[Timestamp],
    config: &ExtractConfig,
    threads: usize,
) -> io::Result<ExtractOutcome> {
    let mut inputs = Vec::with_capacity(instants.len());
    let mut unreadable = Vec::new();
    for &timestamp in instants {
        match String::from_utf8(store.read(map, FileKind::Svg, timestamp)?) {
            Ok(svg) => inputs.push(BatchInput { timestamp, svg }),
            Err(e) => {
                let reason = format!("not UTF-8 at byte {}", e.utf8_error().valid_up_to());
                unreadable.push((timestamp, e.as_bytes().len(), reason));
            }
        }
    }
    let (snapshots, mut stats, mut metrics) =
        extract_batch_with(&inputs, map, config, threads, Scheduling::WorkStealing);
    let mut refused = Vec::with_capacity(unreadable.len());
    for (timestamp, bytes, reason) in unreadable {
        let error = ExtractError::InvalidXml(reason.clone());
        metrics.record_input(bytes);
        metrics.record_failure(error.kind());
        stats.record_failure(&error);
        refused.push((timestamp, reason));
    }
    write_yaml(store, map, &snapshots, &mut metrics)?;
    let extracted: BTreeSet<Timestamp> = snapshots.iter().map(|s| s.timestamp).collect();
    let mut removed = Vec::new();
    for &timestamp in instants.iter().filter(|t| !extracted.contains(t)) {
        if store.remove(map, FileKind::Yaml, timestamp)? {
            removed.push(timestamp);
        }
    }
    Ok(ExtractOutcome {
        stats,
        metrics,
        refused,
        removed,
    })
}

/// The reproduction's end-to-end pipeline.
///
/// Owns a deterministic [`Simulation`] (the data-source substitute) and
/// the extraction configuration, and drives corpora through the same
/// collect → parse → attribute → analyse path the paper describes.
#[derive(Debug)]
pub struct Pipeline {
    simulation: Simulation,
    extract_config: ExtractConfig,
    /// Worker threads for batch extraction.
    pub threads: usize,
}

impl Pipeline {
    /// Builds the pipeline for a simulation configuration.
    #[must_use]
    pub fn new(config: SimulationConfig) -> Pipeline {
        Pipeline {
            simulation: Simulation::new(config),
            extract_config: ExtractConfig::default(),
            threads: default_threads(),
        }
    }

    /// The underlying simulation.
    #[must_use]
    pub fn simulation(&self) -> &Simulation {
        &self.simulation
    }

    /// The extraction configuration in use.
    #[must_use]
    pub fn extract_config(&self) -> &ExtractConfig {
        &self.extract_config
    }

    /// Generates and extracts every collected snapshot of `map` within
    /// `[from, to)` in memory.
    #[must_use]
    pub fn run_window(&self, map: MapKind, from: Timestamp, to: Timestamp) -> WindowResult {
        let inputs: Vec<BatchInput> = self
            .simulation
            .corpus_between(map, from, to)
            .map(|file| BatchInput {
                timestamp: file.timestamp,
                svg: file.svg,
            })
            .collect();
        let (snapshots, stats, metrics) = extract_batch_with(
            &inputs,
            map,
            &self.extract_config,
            self.threads,
            Scheduling::WorkStealing,
        );
        WindowResult {
            snapshots,
            stats,
            metrics,
        }
    }

    /// Writes every collected SVG of `map` within `[from, to)` into
    /// `store`, then extracts that window's files to YAML with
    /// [`extract_to_yaml`] — the released dataset's on-disk shape (and
    /// the inputs of Table 2).
    pub fn materialize_window(
        &self,
        store: &DatasetStore,
        map: MapKind,
        from: Timestamp,
        to: Timestamp,
    ) -> io::Result<ExtractOutcome> {
        let mut instants = Vec::new();
        for file in self.simulation.corpus_between(map, from, to) {
            store.write(map, FileKind::Svg, file.timestamp, file.svg.as_bytes())?;
            instants.push(file.timestamp);
        }
        extract_to_yaml(store, map, &instants, &self.extract_config, self.threads)
    }

    /// Verifies the extraction round trip at one instant: renders the
    /// clean snapshot, extracts it blindly, and compares with the ground
    /// truth.
    pub fn verify_roundtrip(&self, map: MapKind, t: Timestamp) -> Result<(), String> {
        let rendered = self.simulation.snapshot(map, t);
        let mut extracted = wm_extract::extract_svg(&rendered.svg, map, t, &self.extract_config)
            .map_err(|e| format!("extraction failed: {e}"))?;
        let mut truth = rendered.truth;
        extracted.canonicalize();
        truth.canonicalize();
        if extracted == truth {
            Ok(())
        } else {
            Err(format!(
                "round-trip mismatch at {t}: extracted {} nodes/{} links, truth {} nodes/{} links",
                extracted.nodes.len(),
                extracted.links.len(),
                truth.nodes.len(),
                truth.links.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::Duration;

    fn pipeline() -> Pipeline {
        Pipeline::new(SimulationConfig::scaled(31, 0.1))
    }

    #[test]
    fn run_window_extracts_collected_snapshots() {
        let p = pipeline();
        let from = Timestamp::from_ymd(2021, 5, 1);
        let result = p.run_window(MapKind::Europe, from, from + Duration::from_hours(2));
        assert!(result.stats.total() > 10);
        assert_eq!(result.snapshots.len(), result.stats.processed);
        assert!(result
            .snapshots
            .windows(2)
            .all(|w| w[0].timestamp < w[1].timestamp));
        assert_eq!(result.metrics.files_seen as usize, result.stats.total());
        assert_eq!(
            result.metrics.snapshots_out as usize,
            result.stats.processed
        );
    }

    #[test]
    fn roundtrip_verification_passes_across_maps_and_time() {
        let p = pipeline();
        for map in MapKind::ALL {
            for month in [8, 12] {
                let t = Timestamp::from_ymd_hms(2020, month, 15, 18, 30, 0);
                p.verify_roundtrip(map, t)
                    .unwrap_or_else(|e| panic!("{map} {t}: {e}"));
            }
        }
    }

    /// A fresh store under the temp directory, named for one test.
    fn temp_store(test: &str) -> DatasetStore {
        let dir = std::env::temp_dir().join(format!(
            "ovh-weather-pipeline-{test}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DatasetStore::open(&dir).unwrap()
    }

    #[test]
    fn materialize_writes_svg_and_yaml() {
        let p = pipeline();
        let store = temp_store("materialize");
        // Within the Asia-Pacific availability window (it has a year-long
        // collection hole from late 2020 to late 2021).
        let from = Timestamp::from_ymd(2022, 2, 1);
        let to = from + Duration::from_hours(1);
        let result = p
            .materialize_window(&store, MapKind::AsiaPacific, from, to)
            .unwrap();
        let entries = store.entries().unwrap();
        let svg_count = entries.iter().filter(|e| e.kind == FileKind::Svg).count();
        let yaml_count = entries.iter().filter(|e| e.kind == FileKind::Yaml).count();
        assert_eq!(svg_count, result.stats.total());
        assert_eq!(yaml_count, result.stats.processed);
        // YAML files parse back to the snapshots the in-memory path
        // extracts from the same window.
        let reference = p.run_window(MapKind::AsiaPacific, from, to);
        assert_eq!(result.stats, reference.stats);
        let first = &reference.snapshots[0];
        let yaml = store
            .read(MapKind::AsiaPacific, FileKind::Yaml, first.timestamp)
            .unwrap();
        let parsed = wm_extract::from_yaml_str(std::str::from_utf8(&yaml).unwrap()).unwrap();
        assert_eq!(&parsed, first);
        // The emitter records one YAML-emit timing per written snapshot.
        assert_eq!(
            result.metrics.stage(Stage::YamlEmit).count() as usize,
            result.stats.processed
        );
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    /// Of N SVGs one has a 0xFF byte at offset 100 and an older YAML at
    /// its instant: the loop writes N - 1 YAML files, refuses that one
    /// as invalid-xml at byte 100, removes its stale YAML, and counts N.
    #[test]
    fn extract_to_yaml_refuses_non_utf8_and_removes_its_stale_yaml() {
        const N: usize = 6;
        let p = pipeline();
        let store = temp_store("extract");
        let map = MapKind::Europe;
        let from = Timestamp::from_ymd_hms(2022, 2, 1, 12, 0, 0);
        let instants: Vec<Timestamp> = (0..N as u32)
            .map(|i| from + Duration::from_minutes(5 * i64::from(i)))
            .collect();
        for &t in &instants {
            let svg = p.simulation().snapshot(map, t).svg;
            store.write(map, FileKind::Svg, t, svg.as_bytes()).unwrap();
        }
        let bad = instants[2];
        let mut bytes = store.read(map, FileKind::Svg, bad).unwrap();
        bytes[100] = 0xFF;
        store.write(map, FileKind::Svg, bad, &bytes).unwrap();
        store
            .write(map, FileKind::Yaml, bad, b"stale: yaml\n")
            .unwrap();

        let outcome = extract_to_yaml(&store, map, &instants, p.extract_config(), 2).unwrap();
        assert_eq!(store.entries_of(map, FileKind::Yaml).unwrap().len(), N - 1);
        assert!(!store.contains(map, FileKind::Yaml, bad));
        assert_eq!(
            outcome.refused,
            vec![(bad, "not UTF-8 at byte 100".to_owned())]
        );
        assert_eq!(outcome.removed, vec![bad]);
        assert_eq!(outcome.stats.processed, N - 1);
        assert_eq!(outcome.stats.failed, 1);
        assert_eq!(outcome.stats.failures_by_kind.get("invalid-xml"), Some(&1));
        assert_eq!(outcome.stats.total(), N);
        assert_eq!(outcome.metrics.files_seen as usize, N);
        std::fs::remove_dir_all(store.root()).unwrap();
    }

    /// Materialising a second window into a corpus extracts that
    /// window's files only.
    #[test]
    fn materialize_extracts_only_its_window() {
        let p = pipeline();
        let store = temp_store("windows");
        let map = MapKind::Europe;
        let from = Timestamp::from_ymd(2021, 5, 1);
        let mid = from + Duration::from_hours(1);
        let first = p.materialize_window(&store, map, from, mid).unwrap();
        let second = p
            .materialize_window(&store, map, mid, mid + Duration::from_hours(1))
            .unwrap();
        let svgs = store.entries_of(map, FileKind::Svg).unwrap();
        let in_second = svgs.iter().filter(|e| e.timestamp >= mid).count();
        assert!(first.stats.total() > 0 && in_second > 0);
        assert_eq!(second.stats.total(), in_second);
        assert_eq!(first.stats.total() + second.stats.total(), svgs.len());
        assert_eq!(
            store.entries_of(map, FileKind::Yaml).unwrap().len(),
            first.stats.processed + second.stats.processed
        );
        std::fs::remove_dir_all(store.root()).unwrap();
    }
}
