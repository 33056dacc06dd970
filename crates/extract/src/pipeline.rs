//! The per-file extraction step, [`Extractor`], an in-memory batch
//! driver over it and the workspace's one worker pool, [`claim_each`].
//!
//! Every driver is deterministic by construction: per-file work is
//! pure, results are keyed by their input, never by worker
//! interleaving, and all aggregates (statistics, metrics) are
//! order-independent sums kept in per-worker [`Extractor`]s and merged
//! in worker order. Consequently a run with any worker count is
//! byte-for-byte identical to the serial run.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use wm_model::{MapKind, Timestamp, TopologySnapshot};
use wm_svg::Document;

use crate::algorithm1::{algorithm1_into, RawObjects};
use crate::algorithm2::{algorithm2_with, AttributionScratch, ExtractConfig};
use crate::error::ExtractError;
use crate::metrics::{BatchMetrics, Stage};

/// The worker count used when none is given: the machine's available
/// parallelism, or 4 when it cannot be queried.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, usize::from)
}

/// Runs `step` once for every index in `0..len` on at most `threads`
/// workers and returns the workers' states in worker order.
///
/// Each worker starts from `init()` and claims the next unclaimed index
/// from a shared cursor, so fast workers absorb the tail of a skewed
/// workload. With one worker (or `len <= 1`) everything runs inline on
/// the caller's thread and exactly one state comes back. Which worker
/// claims which index depends on timing, so callers that need a
/// deterministic result key what they keep by index (or merge with
/// order-independent operations).
///
/// A failed step stops its worker; the first error in worker order is
/// returned once every worker has finished. A worker panic resumes on
/// the caller with the worker's own payload.
pub fn claim_each<S, E, I, F>(len: usize, threads: usize, init: I, step: F) -> Result<Vec<S>, E>
where
    S: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<(), E> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let work = || -> Result<S, E> {
        let mut state = init();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= len {
                return Ok(state);
            }
            step(&mut state, index)?;
        }
    };
    let workers = threads.clamp(1, len.max(1));
    if workers == 1 {
        return work().map(|state| vec![state]);
    }
    let outcomes: Vec<Result<S, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    outcomes.into_iter().collect()
}

/// One worker's extraction step, shared by every driver: reusable
/// buffers plus the tallies of every file the worker has seen.
///
/// The buffers hold the parsed document (its element rows, text arena,
/// point pool, class table and the XML reader's attribute buffer), the
/// Algorithm 1 object lists and the Algorithm 2 working memory. A
/// worker that extracts thousands of snapshots grows them to the
/// largest file once; after that the parse allocates nothing per
/// element, and the allocations left are what the output owns (each
/// arrow's points, each router and label name, the snapshot itself).
#[derive(Debug, Default)]
pub struct Extractor {
    doc: Document,
    objects: RawObjects,
    attribution: AttributionScratch,
    /// Files extracted and refused, per error kind.
    pub stats: BatchStats,
    /// Stage timings and counters of every file seen.
    pub metrics: BatchMetrics,
}

impl Extractor {
    /// Extracts one file, SVG text → Algorithm 1 → Algorithm 2, and
    /// tallies it as extracted or refused.
    ///
    /// A stage's duration is recorded even when it fails, so sample
    /// counts stay deterministic: every attempted file contributes
    /// exactly one sample to each stage it reached. Broad-phase work
    /// counters are drained into the metrics after the attribution
    /// stage.
    pub fn extract(
        &mut self,
        svg: &str,
        map: MapKind,
        timestamp: Timestamp,
        config: &ExtractConfig,
    ) -> Result<TopologySnapshot, ExtractError> {
        let result = self.stages(svg, map, timestamp, config);
        match &result {
            Ok(_) => {
                self.metrics.record_input(svg.len());
                self.stats.processed += 1;
                self.metrics.record_success();
            }
            Err(error) => self.refuse(svg.len(), error),
        }
        result
    }

    /// Tallies a file of `bytes` bytes as refused, by a stage of
    /// [`Extractor::extract`] or before any stage saw it (an SVG that
    /// is not UTF-8).
    pub fn refuse(&mut self, bytes: usize, error: &ExtractError) {
        self.metrics.record_input(bytes);
        self.stats.record_failure(error);
        self.metrics.record_failure(error.kind());
    }

    /// Adds another worker's tallies to this one's.
    pub fn merge(&mut self, other: &Extractor) {
        self.stats.merge(&other.stats);
        self.metrics.merge(&other.metrics);
    }

    fn stages(
        &mut self,
        svg: &str,
        map: MapKind,
        timestamp: Timestamp,
        config: &ExtractConfig,
    ) -> Result<TopologySnapshot, ExtractError> {
        let start = Instant::now();
        let parsed = Document::parse_into(svg, &mut self.doc);
        self.metrics.record_stage(Stage::XmlParse, start.elapsed());
        parsed.map_err(|e| match &e {
            wm_svg::ParseError::Xml(_) => ExtractError::InvalidXml(e.to_string()),
            _ => ExtractError::InvalidSvg(e.to_string()),
        })?;

        let start = Instant::now();
        let objects = algorithm1_into(&self.doc, &mut self.objects);
        self.metrics
            .record_stage(Stage::Algorithm1, start.elapsed());
        objects?;

        let start = Instant::now();
        let snapshot =
            algorithm2_with(&self.objects, map, timestamp, config, &mut self.attribution);
        self.metrics
            .record_stage(Stage::Algorithm2, start.elapsed());
        self.metrics
            .broad_phase
            .merge(&self.attribution.take_stats());
        snapshot
    }
}

/// The SVG text of a file's raw bytes: a file that is not UTF-8 cannot
/// be XML, so it is refused as `invalid-xml`, named by its first
/// invalid byte (`not UTF-8 at byte N`).
pub fn svg_text(bytes: &[u8]) -> Result<&str, ExtractError> {
    std::str::from_utf8(bytes)
        .map_err(|e| ExtractError::InvalidXml(format!("not UTF-8 at byte {}", e.valid_up_to())))
}

/// Extracts one snapshot: SVG text → Algorithm 1 → Algorithm 2.
pub fn extract_svg(
    svg: &str,
    map: MapKind,
    timestamp: Timestamp,
    config: &ExtractConfig,
) -> Result<TopologySnapshot, ExtractError> {
    Extractor::default().extract(svg, map, timestamp, config)
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

    /// Tallies one rejected file under its error kind.
    pub fn record_failure(&mut self, error: &ExtractError) {
        self.failed += 1;
        *self
            .failures_by_kind
            .entry(error.kind().to_owned())
            .or_default() += 1;
    }

    fn merge(&mut self, other: &BatchStats) {
        self.processed += other.processed;
        self.failed += other.failed;
        for (kind, count) in &other.failures_by_kind {
            *self.failures_by_kind.entry(kind.clone()).or_default() += count;
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

/// Extracts a batch of files in memory with `threads` workers, each
/// running the shared [`Extractor`] step, and returns the snapshots,
/// the stats and the full [`BatchMetrics`]. `Scheduling` has a single
/// variant (see its docs).
///
/// Failed files are skipped (and tallied), matching how the paper's
/// scripts leave fewer than a hundred files per map unprocessed. The
/// library's own SVG → YAML loop (`ovh_weather::extract_to_yaml`)
/// streams instead of collecting; this driver serves the benchmark
/// and the tests that need snapshots in memory.
///
/// Determinism contract: per-file work is pure and each input index is
/// extracted exactly once, by one worker; the snapshots are sorted by
/// `(timestamp, input index)` and the statistics and metrics are
/// order-independent sums, so the result is identical for any thread
/// count.
pub fn extract_batch_with(
    inputs: &[BatchInput],
    map: MapKind,
    config: &ExtractConfig,
    threads: usize,
    _scheduling: Scheduling,
) -> (Vec<TopologySnapshot>, BatchStats, BatchMetrics) {
    let started = Instant::now();
    let Ok(workers) = claim_each(
        inputs.len(),
        threads,
        <(Extractor, Vec<(usize, TopologySnapshot)>)>::default,
        |(extractor, snapshots), index| {
            if let Some(input) = inputs.get(index) {
                if let Ok(snapshot) = extractor.extract(&input.svg, map, input.timestamp, config) {
                    snapshots.push((index, snapshot));
                }
            }
            Ok::<(), Infallible>(())
        },
    );

    let mut results = Vec::with_capacity(inputs.len());
    let mut total = Extractor::default();
    for (extractor, snapshots) in workers {
        total.merge(&extractor);
        results.extend(snapshots);
    }
    results.sort_by_key(|(index, snapshot)| (snapshot.timestamp, *index));
    let snapshots = results.into_iter().map(|(_, snapshot)| snapshot).collect();
    total.metrics.set_wall_time(started.elapsed());
    (snapshots, total.stats, total.metrics)
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
    fn claim_each_runs_every_index_once() {
        for threads in [1, 3, 8] {
            let Ok(states) = claim_each(10, threads, Vec::new, |seen, index| {
                seen.push(index);
                Ok::<(), Infallible>(())
            });
            assert_eq!(states.len(), threads.min(10));
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..10).collect::<Vec<_>>(), "{threads} threads");
        }
        // No work still yields one (initial) state, built inline.
        let caller = std::thread::current().id();
        let Ok(states) = claim_each(
            0,
            4,
            || std::thread::current().id(),
            |_, _| Ok::<(), Infallible>(()),
        );
        assert_eq!(states, vec![caller]);
    }

    #[test]
    fn claim_each_stops_a_failed_worker_and_reports_its_error() {
        let result = claim_each(
            5,
            1,
            || 0,
            |done, index| {
                if index == 2 {
                    return Err(format!("step {index} failed"));
                }
                *done += 1;
                Ok(())
            },
        );
        assert_eq!(result, Err("step 2 failed".to_owned()));
        let result = claim_each(6, 3, || (), |_, _| Err::<(), _>("failed"));
        assert_eq!(result, Err("failed"));
    }

    #[test]
    fn claim_each_resumes_a_worker_panic_with_its_payload() {
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                claim_each(
                    4,
                    threads,
                    || (),
                    |_, index| {
                        if index == 3 {
                            std::panic::panic_any(format!("worker payload {index}"));
                        }
                        Ok::<(), Infallible>(())
                    },
                )
            })
            .unwrap_err();
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("worker payload 3"),
                "{threads} threads"
            );
        }
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
        let (serial, serial_stats, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &config,
            1,
            Scheduling::WorkStealing,
        );
        let (parallel, parallel_stats, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &config,
            8,
            Scheduling::WorkStealing,
        );
        assert_eq!(serial, parallel);
        assert!(serial.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
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
        let (ok, stats, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &ExtractConfig::default(),
            2,
            Scheduling::WorkStealing,
        );
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
        let (serial, _, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &config,
            1,
            Scheduling::WorkStealing,
        );
        let (parallel, _, _) = extract_batch_with(
            &inputs,
            MapKind::Europe,
            &config,
            2,
            Scheduling::WorkStealing,
        );
        assert_eq!(serial, parallel);
    }
}
