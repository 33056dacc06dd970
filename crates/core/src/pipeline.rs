//! The end-to-end pipeline: simulate → collect → extract → analyse.

use std::io;
use std::time::Instant;

use wm_dataset::{DatasetStore, FileKind};
use wm_extract::{
    claim_each, default_threads, svg_text, to_yaml_string, BatchMetrics, BatchStats, ExtractConfig,
    ExtractError, Extractor, Stage,
};
use wm_model::{MapKind, Timestamp};
use wm_simulator::{Simulation, SimulationConfig};

/// What [`extract_to_yaml`] did with one map's SVG files.
#[derive(Debug, Clone)]
pub struct ExtractOutcome {
    /// Extraction bookkeeping over every instant (processed/failed per
    /// error kind).
    pub stats: BatchStats,
    /// Per-stage timings and throughput counters, YAML emits included;
    /// the wall time spans the whole loop, reads and writes included.
    pub metrics: BatchMetrics,
    /// Instants refused before extraction because their SVG is not
    /// UTF-8, each with its `invalid-xml` reason (`not UTF-8 at byte N`),
    /// sorted by instant.
    pub refused: Vec<(Timestamp, String)>,
    /// Instants left without a snapshot (refused or failed) whose older
    /// YAML file was removed, sorted by instant.
    pub removed: Vec<Timestamp>,
}

/// One worker of [`extract_to_yaml`]: the shared per-file step and the
/// instants it refused and cleared.
#[derive(Default)]
struct YamlWorker {
    extractor: Extractor,
    refused: Vec<(Timestamp, String)>,
    removed: Vec<Timestamp>,
}

/// Extracts the SVG files of `map` at `instants` in `store` and writes
/// every extracted snapshot beside them as YAML: the one SVG-on-disk →
/// YAML-on-disk path behind `extract`, `generate`
/// ([`Pipeline::materialize_window`]) and the paper's figures.
///
/// Each worker of [`claim_each`] does the whole job for one instant at
/// a time (read, extract, emit, write), so memory is bounded by the
/// thread count, not by the corpus. Every YAML file is independent, so
/// the written bytes do not depend on which worker wrote them.
///
/// A file that is not UTF-8 cannot be XML: it is refused as
/// `invalid-xml`, named by its first invalid byte, and the other files
/// are still extracted. An instant left without a snapshot keeps no
/// YAML: an older file there is removed, since `analyze` would still
/// count it. Nothing is printed; the outcome lists what was refused and
/// removed. The first I/O error in worker order is returned once every
/// worker has stopped.
pub fn extract_to_yaml(
    store: &DatasetStore,
    map: MapKind,
    instants: &[Timestamp],
    config: &ExtractConfig,
    threads: usize,
) -> io::Result<ExtractOutcome> {
    let started = Instant::now();
    let workers = claim_each(
        instants.len(),
        threads,
        YamlWorker::default,
        |worker, index| {
            let Some(&timestamp) = instants.get(index) else {
                return Ok(());
            };
            let bytes = store.read(map, FileKind::Svg, timestamp)?;
            let extracted = match svg_text(&bytes) {
                Ok(svg) => worker.extractor.extract(svg, map, timestamp, config).ok(),
                Err(error) => {
                    worker.extractor.refuse(bytes.len(), &error);
                    if let ExtractError::InvalidXml(reason) = error {
                        worker.refused.push((timestamp, reason));
                    }
                    None
                }
            };
            drop(bytes);
            if let Some(snapshot) = extracted {
                let emit_started = Instant::now();
                let yaml = to_yaml_string(&snapshot);
                let metrics = &mut worker.extractor.metrics;
                metrics.record_stage(Stage::YamlEmit, emit_started.elapsed());
                store.write(map, FileKind::Yaml, timestamp, yaml.as_bytes())
            } else {
                if store.remove(map, FileKind::Yaml, timestamp)? {
                    worker.removed.push(timestamp);
                }
                Ok(())
            }
        },
    )?;
    let mut total = Extractor::default();
    let mut refused = Vec::new();
    let mut removed = Vec::new();
    for worker in workers {
        total.merge(&worker.extractor);
        refused.extend(worker.refused);
        removed.extend(worker.removed);
    }
    refused.sort();
    removed.sort_unstable();
    total.metrics.set_wall_time(started.elapsed());
    Ok(ExtractOutcome {
        stats: total.stats,
        metrics: total.metrics,
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
    use wm_extract::{extract_batch_with, BatchInput, Scheduling};
    use wm_model::Duration;
    use wm_simulator::faults::{corrupt, FaultKind};

    fn pipeline() -> Pipeline {
        Pipeline::new(SimulationConfig::scaled(31, 0.1))
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

    /// The window's snapshots and stats from the in-memory driver.
    fn reference(
        p: &Pipeline,
        map: MapKind,
        from: Timestamp,
        to: Timestamp,
    ) -> (Vec<wm_model::TopologySnapshot>, BatchStats) {
        let inputs: Vec<BatchInput> = p
            .simulation()
            .corpus_between(map, from, to)
            .map(|file| BatchInput {
                timestamp: file.timestamp,
                svg: file.svg,
            })
            .collect();
        let (snapshots, stats, _) = extract_batch_with(
            &inputs,
            map,
            p.extract_config(),
            p.threads,
            Scheduling::WorkStealing,
        );
        (snapshots, stats)
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
        // YAML files parse back to the snapshots the in-memory driver
        // extracts from the same window.
        let (snapshots, stats) = reference(&p, MapKind::AsiaPacific, from, to);
        assert_eq!(result.stats, stats);
        let first = &snapshots[0];
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

    /// Of ten SVGs two are not UTF-8 and one is truncated, and each of
    /// the three has an older YAML in place. At 1, 2 and 8 threads the
    /// loop writes the same YAML tree (the in-memory driver's snapshots,
    /// emitted), the same counters and the same refused and removed
    /// instants, sorted by instant.
    #[test]
    fn extract_to_yaml_is_thread_count_independent() {
        const N: usize = 10;
        let p = pipeline();
        let map = MapKind::Europe;
        let from = Timestamp::from_ymd_hms(2022, 2, 1, 6, 0, 0);
        let instants: Vec<Timestamp> = (0..N as u32)
            .map(|i| from + Duration::from_minutes(5 * i64::from(i)))
            .collect();
        let mut svgs: Vec<Vec<u8>> = instants
            .iter()
            .map(|&t| p.simulation().snapshot(map, t).svg.into_bytes())
            .collect();
        let (truncated, first_bad, second_bad) = (3, 5, 8);
        let clean = String::from_utf8(svgs[truncated].clone()).unwrap();
        svgs[truncated] = corrupt(&clean, FaultKind::TruncatedXml, 7).into_bytes();
        svgs[first_bad][200] = 0xFF;
        svgs[second_bad][40] = 0xC3;
        svgs[second_bad][41] = b'<';

        let runs: Vec<_> = [1, 2, 8]
            .into_iter()
            .map(|threads| {
                let store = temp_store(&format!("threads-{threads}"));
                for (&t, svg) in instants.iter().zip(&svgs) {
                    store.write(map, FileKind::Svg, t, svg).unwrap();
                }
                for i in [truncated, first_bad, second_bad] {
                    let stale = b"stale: yaml\n";
                    store
                        .write(map, FileKind::Yaml, instants[i], stale)
                        .unwrap();
                }
                let outcome =
                    extract_to_yaml(&store, map, &instants, p.extract_config(), threads).unwrap();
                let tree: Vec<(Timestamp, Vec<u8>)> = store
                    .entries_of(map, FileKind::Yaml)
                    .unwrap()
                    .iter()
                    .map(|e| {
                        (
                            e.timestamp,
                            store.read(map, FileKind::Yaml, e.timestamp).unwrap(),
                        )
                    })
                    .collect();
                std::fs::remove_dir_all(store.root()).unwrap();
                (outcome, tree)
            })
            .collect();

        let (base, base_tree) = &runs[0];
        assert_eq!(
            base.refused,
            vec![
                (instants[first_bad], "not UTF-8 at byte 200".to_owned()),
                (instants[second_bad], "not UTF-8 at byte 40".to_owned()),
            ]
        );
        assert_eq!(
            base.removed,
            vec![
                instants[truncated],
                instants[first_bad],
                instants[second_bad]
            ]
        );
        assert_eq!(base.stats.processed, N - 3);
        assert_eq!(base.stats.failures_by_kind.get("invalid-xml"), Some(&3));
        assert_eq!(base.metrics.files_seen as usize, N);
        assert_eq!(base.metrics.snapshots_out as usize, base.stats.processed);
        assert_eq!(
            base.metrics.stage(Stage::YamlEmit).count() as usize,
            base.stats.processed
        );
        assert_eq!(
            base.metrics.bytes_in,
            svgs.iter().map(|svg| svg.len() as u64).sum::<u64>()
        );
        assert!(base.metrics.wall_ns > 0);

        // The tree is the in-memory driver's snapshots, emitted.
        let inputs: Vec<BatchInput> = instants
            .iter()
            .zip(&svgs)
            .filter_map(|(&timestamp, svg)| {
                let svg = String::from_utf8(svg.clone()).ok()?;
                Some(BatchInput { timestamp, svg })
            })
            .collect();
        let (snapshots, _, _) = extract_batch_with(
            &inputs,
            map,
            p.extract_config(),
            2,
            Scheduling::WorkStealing,
        );
        let emitted: Vec<(Timestamp, Vec<u8>)> = snapshots
            .iter()
            .map(|s| (s.timestamp, to_yaml_string(s).into_bytes()))
            .collect();
        assert_eq!(base_tree, &emitted);

        for (outcome, tree) in &runs[1..] {
            assert_eq!(tree, base_tree);
            assert_eq!(outcome.stats, base.stats);
            assert_eq!(outcome.metrics.totals(), base.metrics.totals());
            assert_eq!(outcome.refused, base.refused);
            assert_eq!(outcome.removed, base.removed);
        }
    }
}
