//! The end-to-end pipeline: simulate → collect → extract → analyse.

use std::io;
use std::time::Instant;

use wm_dataset::{DatasetStore, FileKind};
use wm_extract::{
    default_threads, extract_batch_with, to_yaml_string, BatchInput, BatchMetrics, BatchStats,
    ExtractConfig, Scheduling, Stage,
};
use wm_model::{MapKind, Timestamp, TopologySnapshot};
use wm_simulator::{Simulation, SimulationConfig};

/// The outcome of processing one collection window.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Successfully extracted snapshots, sorted by timestamp.
    pub snapshots: Vec<TopologySnapshot>,
    /// Extraction bookkeeping (processed/failed per error kind).
    pub stats: BatchStats,
    /// Per-stage timings and throughput counters of the run.
    pub metrics: BatchMetrics,
}

/// Writes each snapshot of `map` into `store` as YAML, timing every
/// emit into `metrics` as [`Stage::YamlEmit`] — the one emit-and-write
/// loop behind `generate` ([`Pipeline::materialize_window`]) and
/// `extract`.
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
    /// `[from, to)`.
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
        self.extract(map, &inputs)
    }

    /// Generates and extracts a *sampled* window: every `stride`-th
    /// collected snapshot. Long-range experiments (the two-year evolution
    /// series) use hourly or daily strides instead of the full five-minute
    /// density.
    #[must_use]
    pub fn run_window_sampled(
        &self,
        map: MapKind,
        from: Timestamp,
        to: Timestamp,
        stride: usize,
    ) -> WindowResult {
        let stride = stride.max(1);
        let times: Vec<Timestamp> = self
            .simulation
            .collection_plan(map)
            .collected_times_between(from, to)
            .step_by(stride)
            .collect();
        let inputs: Vec<BatchInput> = times
            .iter()
            .filter_map(|t| {
                self.simulation
                    .collected_snapshot(map, *t)
                    .map(|file| BatchInput {
                        timestamp: file.timestamp,
                        svg: file.svg,
                    })
            })
            .collect();
        self.extract(map, &inputs)
    }

    /// Like [`Pipeline::run_window`], but also writes the collected SVG
    /// and the extracted YAML into `store` — producing the released
    /// dataset's on-disk shape (and the inputs of Table 2).
    pub fn materialize_window(
        &self,
        store: &DatasetStore,
        map: MapKind,
        from: Timestamp,
        to: Timestamp,
    ) -> io::Result<WindowResult> {
        let mut inputs = Vec::new();
        for file in self.simulation.corpus_between(map, from, to) {
            store.write(map, FileKind::Svg, file.timestamp, file.svg.as_bytes())?;
            inputs.push(BatchInput {
                timestamp: file.timestamp,
                svg: file.svg,
            });
        }
        let mut result = self.extract(map, &inputs);
        write_yaml(store, map, &result.snapshots, &mut result.metrics)?;
        Ok(result)
    }

    /// Extracts one batch of collected files on the pipeline's workers.
    fn extract(&self, map: MapKind, inputs: &[BatchInput]) -> WindowResult {
        let (snapshots, stats, metrics) = extract_batch_with(
            inputs,
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
    fn sampled_window_reduces_density() {
        let p = pipeline();
        let from = Timestamp::from_ymd(2021, 5, 1);
        let to = from + Duration::from_hours(6);
        let dense = p.run_window(MapKind::Europe, from, to);
        let sampled = p.run_window_sampled(MapKind::Europe, from, to, 12);
        assert!(sampled.stats.total() * 10 <= dense.stats.total());
        assert!(!sampled.snapshots.is_empty());
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

    #[test]
    fn materialize_writes_svg_and_yaml() {
        let p = pipeline();
        let dir =
            std::env::temp_dir().join(format!("ovh-weather-pipeline-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(&dir).unwrap();
        // Within the Asia-Pacific availability window (it has a year-long
        // collection hole from late 2020 to late 2021).
        let from = Timestamp::from_ymd(2022, 2, 1);
        let result = p
            .materialize_window(
                &store,
                MapKind::AsiaPacific,
                from,
                from + Duration::from_hours(1),
            )
            .unwrap();
        let entries = store.entries().unwrap();
        let svg_count = entries.iter().filter(|e| e.kind == FileKind::Svg).count();
        let yaml_count = entries.iter().filter(|e| e.kind == FileKind::Yaml).count();
        assert_eq!(svg_count, result.stats.total());
        assert_eq!(yaml_count, result.stats.processed);
        // YAML files parse back to the extracted snapshots.
        let first = &result.snapshots[0];
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
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
