//! The end-to-end extraction pipeline and its parallel batch runner.
//!
//! The batch runner is deterministic by construction: per-file work is
//! pure, results carry their input index so output order never depends
//! on worker interleaving, and all aggregates (statistics, metrics) are
//! order-independent sums kept in per-worker locals and merged at join.
//! Consequently a run with any worker count is byte-for-byte identical
//! to the serial run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wm_model::{MapKind, Timestamp, TopologySnapshot};
use wm_svg::Document;

use crate::algorithm1::{algorithm1_into, RawObjects};
use crate::algorithm2::{algorithm2_with, AttributionScratch, ExtractConfig};
use crate::error::ExtractError;
use crate::metrics::{BatchMetrics, Stage};

/// Per-worker reusable storage for the whole extraction pipeline.
///
/// Holds the parsed document, the Algorithm 1 object lists and the
/// Algorithm 2 working memory, so a worker that extracts thousands of
/// snapshots allocates these buffers once and then runs allocation-free
/// in steady state (strings aside).
#[derive(Debug, Default)]
pub struct ExtractScratch {
    doc: Document,
    objects: RawObjects,
    attribution: AttributionScratch,
}

impl ExtractScratch {
    /// Creates empty scratch storage.
    #[must_use]
    pub fn new() -> ExtractScratch {
        ExtractScratch::default()
    }
}

/// Extracts one snapshot: SVG text → Algorithm 1 → Algorithm 2.
pub fn extract_svg(
    svg: &str,
    map: MapKind,
    timestamp: Timestamp,
    config: &ExtractConfig,
) -> Result<TopologySnapshot, ExtractError> {
    extract_svg_with(svg, map, timestamp, config, &mut ExtractScratch::new())
}

/// [`extract_svg`] with caller-provided scratch storage, for loops that
/// extract many snapshots on one thread.
pub fn extract_svg_with(
    svg: &str,
    map: MapKind,
    timestamp: Timestamp,
    config: &ExtractConfig,
    scratch: &mut ExtractScratch,
) -> Result<TopologySnapshot, ExtractError> {
    Document::parse_into(svg, &mut scratch.doc).map_err(|e| match &e {
        wm_svg::ParseError::Xml(_) => ExtractError::InvalidXml(e.to_string()),
        _ => ExtractError::InvalidSvg(e.to_string()),
    })?;
    algorithm1_into(&scratch.doc, &mut scratch.objects)?;
    algorithm2_with(
        &scratch.objects,
        map,
        timestamp,
        config,
        &mut scratch.attribution,
    )
}

/// [`extract_svg`] with per-stage timings recorded into `metrics` and
/// scratch storage reused across calls.
///
/// A stage's duration is recorded even when it fails, so sample counts
/// stay deterministic: every attempted file contributes exactly one
/// sample to each stage it reached. Broad-phase work counters are drained
/// from the scratch into `metrics` after the attribution stage.
pub fn extract_svg_instrumented(
    svg: &str,
    map: MapKind,
    timestamp: Timestamp,
    config: &ExtractConfig,
    metrics: &mut BatchMetrics,
    scratch: &mut ExtractScratch,
) -> Result<TopologySnapshot, ExtractError> {
    let start = Instant::now();
    let parsed = Document::parse_into(svg, &mut scratch.doc);
    metrics.record_stage(Stage::XmlParse, start.elapsed());
    parsed.map_err(|e| match &e {
        wm_svg::ParseError::Xml(_) => ExtractError::InvalidXml(e.to_string()),
        _ => ExtractError::InvalidSvg(e.to_string()),
    })?;

    let start = Instant::now();
    let objects = algorithm1_into(&scratch.doc, &mut scratch.objects);
    metrics.record_stage(Stage::Algorithm1, start.elapsed());
    objects?;

    let start = Instant::now();
    let snapshot = algorithm2_with(
        &scratch.objects,
        map,
        timestamp,
        config,
        &mut scratch.attribution,
    );
    metrics.record_stage(Stage::Algorithm2, start.elapsed());
    metrics.broad_phase.merge(&scratch.attribution.take_stats());
    snapshot
}

/// One input file of a batch run.
#[derive(Debug, Clone)]
pub struct BatchInput {
    /// Snapshot instant (from the file path in the real dataset).
    pub timestamp: Timestamp,
    /// The collected SVG bytes.
    pub svg: String,
}

/// Aggregate statistics of a batch run — the bookkeeping behind Table 2's
/// "almost all SVG files were processed" row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Files successfully extracted.
    pub processed: usize,
    /// Files rejected by a sanity check.
    pub failed: usize,
    /// Rejections per error kind (see [`ExtractError::kind`]).
    pub failures_by_kind: BTreeMap<String, usize>,
}

impl BatchStats {
    /// Total files seen.
    #[must_use]
    pub fn total(&self) -> usize {
        self.processed + self.failed
    }

    fn record_failure(&mut self, error: &ExtractError) {
        self.failed += 1;
        *self
            .failures_by_kind
            .entry(error.kind().to_owned())
            .or_default() += 1;
    }

    fn merge(&mut self, other: BatchStats) {
        self.processed += other.processed;
        self.failed += other.failed;
        for (kind, count) in other.failures_by_kind {
            *self.failures_by_kind.entry(kind).or_default() += count;
        }
    }
}

/// How batch work is distributed over workers.
///
/// Work-stealing is the only policy. The enum and the matching
/// parameter of [`extract_batch_with`] remain only because the
/// end-to-end benchmark (`perfbench/`) passes `Scheduling::WorkStealing`
/// explicitly; a change to that benchmark can drop both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// Workers pull the next un-claimed file from a shared atomic
    /// cursor, so fast workers absorb the tail of a skewed corpus.
    #[default]
    WorkStealing,
}

/// Where successfully extracted snapshots flow during a batch run.
///
/// One sink lives per worker, accumulating that worker's share of the
/// batch; the coordinator collects the sinks in worker order at join, so
/// any merge a caller performs over them is independent of thread timing.
/// `accept` receives the input index alongside the snapshot: folding the
/// index into the sink's state is what lets a downstream merge
/// reconstruct input order (and thus stay byte-identical across thread
/// counts).
pub trait SnapshotSink: Send + Default {
    /// Folds the successfully extracted snapshot of input `index` into
    /// this worker's state. Called once per processed file, in the order
    /// this worker claimed them.
    fn accept(&mut self, index: usize, snapshot: TopologySnapshot);
}

/// The trivial sink: collect `(index, snapshot)` pairs for a later sort.
impl SnapshotSink for Vec<(usize, TopologySnapshot)> {
    fn accept(&mut self, index: usize, snapshot: TopologySnapshot) {
        self.push((index, snapshot));
    }
}

/// A worker's private accumulator, merged by the coordinator at join.
#[derive(Default)]
struct WorkerOutput<S: SnapshotSink> {
    /// Snapshots flow here together with their input index, so output
    /// order is reconstructed from the inputs, never from worker timing.
    sink: S,
    stats: BatchStats,
    metrics: BatchMetrics,
    /// Buffers reused across every file this worker processes.
    scratch: ExtractScratch,
}

impl<S: SnapshotSink> WorkerOutput<S> {
    fn process(&mut self, index: usize, input: &BatchInput, map: MapKind, config: &ExtractConfig) {
        self.metrics.record_input(input.svg.len());
        match extract_svg_instrumented(
            &input.svg,
            map,
            input.timestamp,
            config,
            &mut self.metrics,
            &mut self.scratch,
        ) {
            Ok(snapshot) => {
                self.stats.processed += 1;
                self.metrics.record_success();
                self.sink.accept(index, snapshot);
            }
            Err(error) => {
                self.stats.record_failure(&error);
                self.metrics.record_failure(error.kind());
            }
        }
    }
}

/// Extracts a batch of files in parallel with `threads` workers.
///
/// Per-file work is pure, so the run is deterministic: results are
/// returned sorted by timestamp (ties broken by input order) and the
/// statistics are order-independent sums. Failed files are skipped (and
/// tallied), matching how the paper's scripts leave fewer than a
/// hundred files per map unprocessed.
pub fn extract_batch(
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
    threads: usize,
) -> (Vec<TopologySnapshot>, BatchStats) {
    let (snapshots, stats, _metrics) =
        extract_batch_with(inputs, map, config, threads, Scheduling::default());
    (snapshots, stats)
}

/// [`extract_batch`] with full [`BatchMetrics`] returned alongside the
/// stats. `Scheduling` has a single variant (see its docs).
pub fn extract_batch_with(
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
    threads: usize,
    _scheduling: Scheduling,
) -> (Vec<TopologySnapshot>, BatchStats, BatchMetrics) {
    let (sinks, stats, metrics) =
        extract_batch_sink::<Vec<(usize, TopologySnapshot)>>(inputs, map, config, threads);
    let mut results: Vec<(usize, TopologySnapshot)> = sinks.into_iter().flatten().collect();
    results.sort_by_key(|(index, snapshot)| (snapshot.timestamp, *index));
    let snapshots = results.into_iter().map(|(_, snapshot)| snapshot).collect();
    (snapshots, stats, metrics)
}

/// The streaming core of the batch runner: extracts every input and
/// folds the successful snapshots into one [`SnapshotSink`] per worker,
/// returned in worker order (never in finish order).
///
/// This is how large corpora are consumed without materialising a
/// `Vec<TopologySnapshot>`: a sink can intern, column-encode or discard
/// each snapshot as it arrives. Determinism contract: per-file work is
/// pure and each input index reaches exactly one sink exactly once, so a
/// sink merge keyed on indices is byte-identical for any thread count.
/// Statistics and metrics are merged here (they are order-independent
/// sums).
pub fn extract_batch_sink<S: SnapshotSink>(
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
    threads: usize,
) -> (Vec<S>, BatchStats, BatchMetrics) {
    let threads = threads.max(1).min(inputs.len().max(1));
    let started = Instant::now();

    let mut outputs: Vec<WorkerOutput<S>> = if threads == 1 {
        // Serial fast path: no spawn overhead, same code path per file.
        let mut out = WorkerOutput::default();
        for (index, input) in inputs.iter().enumerate() {
            out.process(index, input, map, config);
        }
        vec![out]
    } else {
        // Work-stealing: each worker claims the next file from a shared
        // cursor, so fast workers absorb the tail of a skewed corpus.
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut out = WorkerOutput::default();
            loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(index) else {
                    break;
                };
                out.process(index, input, map, config);
            }
            out
        };
        // Outputs are collected in worker order, so the merge below never
        // depends on finish order.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker panicked"))
                .collect()
        })
    };

    let mut sinks = Vec::with_capacity(outputs.len());
    let mut stats = BatchStats::default();
    let mut metrics = BatchMetrics::default();
    for output in &mut outputs {
        stats.merge(std::mem::take(&mut output.stats));
        metrics.merge(&output.metrics);
    }
    for output in outputs {
        sinks.push(output.sink);
    }
    metrics.set_wall_time(started.elapsed());
    (sinks, stats, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::Duration;
    use wm_simulator::{Simulation, SimulationConfig};

    fn sim() -> Simulation {
        Simulation::new(SimulationConfig::scaled(23, 0.12))
    }

    #[test]
    fn extract_rejects_garbage() {
        let config = ExtractConfig::default();
        let t = Timestamp::from_unix(0);
        let err = extract_svg("not xml at all <", MapKind::Europe, t, &config).unwrap_err();
        assert!(matches!(
            err,
            ExtractError::InvalidXml(_) | ExtractError::InvalidSvg(_)
        ));
        let err = extract_svg("<html></html>", MapKind::Europe, t, &config).unwrap_err();
        assert!(matches!(err, ExtractError::InvalidSvg(_)));
    }

    #[test]
    fn round_trip_against_the_simulator() {
        let sim = sim();
        let config = ExtractConfig::default();
        for (map, day) in [
            (MapKind::Europe, 5),
            (MapKind::NorthAmerica, 40),
            (MapKind::AsiaPacific, 55),
            (MapKind::World, 20),
        ] {
            let t = Timestamp::from_ymd(2020, 8, 1) + Duration::from_days(day);
            let rendered = sim.snapshot(map, t);
            let mut extracted = extract_svg(&rendered.svg, map, t, &config)
                .unwrap_or_else(|e| panic!("{map} extraction failed: {e}"));
            let mut truth = rendered.truth.clone();
            extracted.canonicalize();
            truth.canonicalize();
            assert_eq!(extracted, truth, "{map} round trip mismatch");
        }
    }

    #[test]
    fn corrupted_files_are_rejected_with_the_right_kind() {
        use wm_simulator::faults::{corrupt, FaultKind};
        let sim = sim();
        let t = Timestamp::from_ymd(2021, 2, 2);
        let clean = sim.snapshot(MapKind::Europe, t).svg;
        let config = ExtractConfig::default();

        let err = extract_svg(
            &corrupt(&clean, FaultKind::TruncatedXml, 1),
            MapKind::Europe,
            t,
            &config,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-xml");

        let err = extract_svg(
            &corrupt(&clean, FaultKind::MalformedAttribute, 1),
            MapKind::Europe,
            t,
            &config,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-svg");

        let err = extract_svg(
            &corrupt(&clean, FaultKind::MissingRouters, 1),
            MapKind::Europe,
            t,
            &config,
        )
        .unwrap_err();
        assert!(
            err.kind() == "dangling-link" || err.kind() == "self-loop",
            "unexpected kind {}",
            err.kind()
        );
    }

    #[test]
    fn batch_extraction_parallel_matches_serial() {
        let sim = sim();
        let from = Timestamp::from_ymd(2021, 4, 1);
        let to = from + Duration::from_hours(4);
        let inputs: Vec<BatchInput> = sim
            .corpus_between(MapKind::Europe, from, to)
            .map(|f| BatchInput {
                timestamp: f.timestamp,
                svg: f.svg,
            })
            .collect();
        assert!(inputs.len() > 10);
        let config = ExtractConfig::default();
        let (serial, serial_stats) = extract_batch(&inputs, MapKind::Europe, &config, 1);
        let (parallel, parallel_stats) = extract_batch(&inputs, MapKind::Europe, &config, 8);
        assert_eq!(serial, parallel);
        assert_eq!(serial_stats, parallel_stats);
        assert_eq!(serial_stats.total(), inputs.len());
        assert_eq!(serial_stats.processed, inputs.len() - serial_stats.failed);
    }

    /// The serial fast path and work-stealing agree exactly, and the
    /// metrics cover every input.
    #[test]
    fn both_schedulings_match_and_meter_the_whole_corpus() {
        let sim = sim();
        // NorthAmerica has the paper's year-long collection hole around
        // 2021; pick a window inside its second segment.
        let from = Timestamp::from_ymd(2022, 2, 1);
        let to = from + Duration::from_hours(3);
        let inputs: Vec<BatchInput> = sim
            .corpus_between(MapKind::NorthAmerica, from, to)
            .map(|f| BatchInput {
                timestamp: f.timestamp,
                svg: f.svg,
            })
            .collect();
        assert!(
            inputs.len() > 5,
            "corpus window unexpectedly sparse: {}",
            inputs.len()
        );
        let config = ExtractConfig::default();
        let (a, a_stats, a_metrics) = extract_batch_with(
            &inputs,
            MapKind::NorthAmerica,
            &config,
            4,
            Scheduling::WorkStealing,
        );
        let (b, b_stats, b_metrics) = extract_batch_with(
            &inputs,
            MapKind::NorthAmerica,
            &config,
            1,
            Scheduling::WorkStealing,
        );
        assert_eq!(a, b);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_metrics.totals(), b_metrics.totals());
        let total_bytes: u64 = inputs.iter().map(|i| i.svg.len() as u64).sum();
        assert_eq!(a_metrics.bytes_in, total_bytes);
        assert_eq!(a_metrics.files_seen as usize, inputs.len());
        assert_eq!(a_metrics.snapshots_out as usize, a_stats.processed);
        assert!(a_metrics.wall_ns > 0);
        assert!(a_metrics.bytes_per_second() > 0.0);
        // Every file reaches the XML parse stage exactly once; the
        // YAML stage is recorded by the emitter, not the batch runner.
        assert_eq!(
            a_metrics.stage(Stage::XmlParse).count() as usize,
            inputs.len()
        );
        assert_eq!(a_metrics.stage(Stage::YamlEmit).count(), 0);
    }

    #[test]
    fn batch_stats_tally_failures_by_kind() {
        let inputs = vec![
            BatchInput {
                timestamp: Timestamp::from_unix(0),
                svg: "<svg></svg>".into(),
            },
            BatchInput {
                timestamp: Timestamp::from_unix(300),
                svg: "broken <".into(),
            },
            BatchInput {
                timestamp: Timestamp::from_unix(600),
                svg: "broken <".into(),
            },
        ];
        let (ok, stats) = extract_batch(&inputs, MapKind::Europe, &ExtractConfig::default(), 2);
        assert_eq!(ok.len(), 1); // The empty map extracts as empty.
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.failures_by_kind.get("invalid-xml"), Some(&2));
    }

    #[test]
    fn metrics_failure_counters_mirror_batch_stats() {
        let inputs = vec![
            BatchInput {
                timestamp: Timestamp::from_unix(0),
                svg: "<svg></svg>".into(),
            },
            BatchInput {
                timestamp: Timestamp::from_unix(300),
                svg: "broken <".into(),
            },
            BatchInput {
                timestamp: Timestamp::from_unix(600),
                svg: "<html></html>".into(),
            },
        ];
        let (_, stats, metrics) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &ExtractConfig::default(),
            2,
            Scheduling::WorkStealing,
        );
        assert_eq!(metrics.failures_by_kind.len(), stats.failures_by_kind.len());
        for (kind, n) in &stats.failures_by_kind {
            assert_eq!(metrics.failures_by_kind.get(kind), Some(&(*n as u64)));
        }
        assert_eq!(
            metrics.failures_by_kind.values().sum::<u64>() as usize,
            stats.failed
        );
    }

    #[test]
    fn timestamp_ties_preserve_input_order() {
        // Two distinct maps rendered at the same instant extract to
        // different snapshots; the tie must break by input position.
        let sim = sim();
        let t = Timestamp::from_ymd(2021, 5, 1);
        let europe = sim.snapshot(MapKind::Europe, t).svg;
        let world = sim.snapshot(MapKind::World, t).svg;
        let inputs = vec![
            BatchInput {
                timestamp: t,
                svg: europe,
            },
            BatchInput {
                timestamp: t,
                svg: world,
            },
        ];
        let config = ExtractConfig::default();
        let (serial, _) = extract_batch(&inputs, MapKind::Europe, &config, 1);
        let (parallel, _) = extract_batch(&inputs, MapKind::Europe, &config, 2);
        assert_eq!(serial, parallel);
    }
}
