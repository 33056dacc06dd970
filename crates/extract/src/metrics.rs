//! Pipeline observability: per-stage wall-time histograms, throughput
//! counters and per-error-kind tallies for batch extraction runs.
//!
//! Every worker owns a private [`BatchMetrics`] while it runs and the
//! coordinator merges them at join, so recording is lock-free. Timings
//! are wall-clock and therefore vary run to run; everything a
//! determinism test may compare is collected in [`MetricsTotals`],
//! which is timing-free and must be identical for any worker count.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The instrumented stages of the extraction pipeline.
///
/// The first three are timed inside [`crate::extract_batch_with`]; the
/// YAML emit stage happens outside this crate's batch runner (snapshot
/// serialisation is the caller's concern) and is recorded by whoever
/// writes the output, e.g. the `ovh-weather extract` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// SVG text to DOM (`wm_svg::Document::parse`).
    XmlParse,
    /// DOM to geometric objects (Algorithm 1).
    Algorithm1,
    /// Objects to attributed topology (Algorithm 2).
    Algorithm2,
    /// Snapshot to YAML text.
    YamlEmit,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::XmlParse,
        Stage::Algorithm1,
        Stage::Algorithm2,
        Stage::YamlEmit,
    ];

    /// Stable lower-case name, used in reports and serialised output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::XmlParse => "xml-parse",
            Stage::Algorithm1 => "algorithm1",
            Stage::Algorithm2 => "algorithm2",
            Stage::YamlEmit => "yaml-emit",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::XmlParse => 0,
            Stage::Algorithm1 => 1,
            Stage::Algorithm2 => 2,
            Stage::YamlEmit => 3,
        }
    }
}

/// Number of power-of-two latency buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, with the last bucket open-ended
/// (`2^39 ns` ≈ 9 minutes, far beyond any single-file stage).
const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-size log2 wall-time histogram over nanoseconds.
///
/// Power-of-two buckets keep recording allocation-free and merging a
/// plain element-wise sum, at the cost of ~2x resolution — plenty for
/// spotting which stage dominates and how skewed the per-file cost is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&mut self, duration: Duration) {
        let ns = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        let bucket = if ns == 0 {
            0
        } else {
            ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Sums another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples, in nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Smallest recorded sample in nanoseconds, or 0 when empty.
    #[must_use]
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample in nanoseconds, or 0 when empty.
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`q` in 0..=1): the upper bound of the
    /// bucket holding the `q`-th sample (accurate to a factor of 2),
    /// clamped to the observed maximum.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << (i + 1).min(63)).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Counters of Algorithm 2's geometric broad phase.
///
/// All fields are exact counts of work performed, independent of timing,
/// worker count and scheduling — they are part of [`MetricsTotals`] and
/// must be identical across equivalent runs. `rects_baseline` is what a
/// brute-force scan *would* have tested, so `rects_tested /
/// rects_baseline` is the surviving fraction after spatial culling (1.0
/// when the spatial index is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BroadPhaseStats {
    /// Carrier lines queried (one per link).
    pub lines: u64,
    /// Rectangles actually passed to the exact intersection predicate.
    pub rects_tested: u64,
    /// Rectangles a brute-force scan would have tested (`lines × rects`).
    pub rects_baseline: u64,
    /// Spatial-index constructions (one per snapshot when enabled).
    pub grid_builds: u64,
    /// Total grid cells across all builds.
    pub grid_cells: u64,
    /// Grid cells holding at least one rectangle, across all builds.
    pub grid_occupied_cells: u64,
}

impl BroadPhaseStats {
    /// Sums another set of counters into this one.
    pub fn merge(&mut self, other: &BroadPhaseStats) {
        self.lines += other.lines;
        self.rects_tested += other.rects_tested;
        self.rects_baseline += other.rects_baseline;
        self.grid_builds += other.grid_builds;
        self.grid_cells += other.grid_cells;
        self.grid_occupied_cells += other.grid_occupied_cells;
    }

    /// Fraction of the brute-force work that survived the broad phase
    /// (1.0 with no baseline recorded).
    #[must_use]
    pub fn tested_fraction(&self) -> f64 {
        if self.rects_baseline == 0 {
            1.0
        } else {
            self.rects_tested as f64 / self.rects_baseline as f64
        }
    }

    /// Mean fraction of grid cells occupied across builds (0 when no
    /// grid was built).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.grid_cells == 0 {
            0.0
        } else {
            self.grid_occupied_cells as f64 / self.grid_cells as f64
        }
    }
}

/// Counters of the segment-store load path.
///
/// All fields are exact event counts, independent of timing, worker
/// count and scheduling — like [`BroadPhaseStats`] they ride inside
/// [`MetricsTotals`] and must be identical across equivalent runs. A
/// plain `analyze` without caching leaves them all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads whose manifest matched the corpus partition exactly (no
    /// YAML was parsed to bring the store up to date).
    pub hits: u64,
    /// Loads that reused nothing: no manifest, no matching segment, or a
    /// forced rebuild — every segment was built from YAML.
    pub misses: u64,
    /// Loads that reused part of the store (a kept segment prefix or
    /// decoded snapshots) and parsed only the changed files — a grown
    /// corpus, but also a deletion or a size-changing edit.
    pub appends: u64,
    /// Store files rejected as corrupt (bad magic, CRC, truncation,
    /// invalid contents) before rebuilding.
    pub corrupt: u64,
    /// Store files written by a different format version — structurally
    /// intact but unreadable by this build, rebuilt like a miss. Kept
    /// apart from `corrupt` so a fleet-wide version bump does not read
    /// as data damage.
    pub stale: u64,
    /// Snapshots served from segment files without parsing YAML.
    pub snapshots_from_cache: u64,
    /// Snapshots parsed from YAML to build or repair segments.
    pub snapshots_appended: u64,
    /// Segments decoded or built to serve a windowed load — the
    /// acceptance counter proving a narrow window never touches the
    /// whole history.
    pub segments_touched: u64,
    /// Segments covering previously indexed time that had to be
    /// re-encoded (damaged file, stale version, or a corpus edit).
    pub segments_rebuilt: u64,
}

impl CacheStats {
    /// Sums another set of counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.appends += other.appends;
        self.corrupt += other.corrupt;
        self.stale += other.stale;
        self.snapshots_from_cache += other.snapshots_from_cache;
        self.snapshots_appended += other.snapshots_appended;
        self.segments_touched += other.segments_touched;
        self.segments_rebuilt += other.segments_rebuilt;
    }

    /// `true` when no cache activity was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == CacheStats::default()
    }
}

/// Counters of the vectorized query engine's kernels.
///
/// All fields are exact counts of work performed, independent of timing
/// and thread count — like [`BroadPhaseStats`] and [`CacheStats`] they
/// ride inside [`MetricsTotals`] and must be identical across
/// equivalent runs. A run that never queries leaves them all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Queries executed (one compiled plan each).
    pub queries: u64,
    /// Kernel passes launched (a query may run more than one).
    pub kernels: u64,
    /// Snapshots inside the resolved time ranges, summed over queries.
    pub snapshots_scanned: u64,
    /// Link rows visited by kernel passes, before filtering.
    pub rows_scanned: u64,
    /// Directed load samples that passed the filter and fed a kernel.
    pub samples: u64,
}

impl KernelStats {
    /// Sums another set of counters into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.queries += other.queries;
        self.kernels += other.kernels;
        self.snapshots_scanned += other.snapshots_scanned;
        self.rows_scanned += other.rows_scanned;
        self.samples += other.samples;
    }

    /// `true` when no query activity was recorded at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == KernelStats::default()
    }
}

/// Metrics of one batch extraction run.
///
/// Workers record into private instances; [`BatchMetrics::merge`]
/// combines them at join. Wall time is the coordinator's span around
/// the whole run (not a per-worker sum) and is set once via
/// [`BatchMetrics::set_wall_time`].
#[derive(Debug, Clone, Default)]
pub struct BatchMetrics {
    stages: [Histogram; 4],
    /// SVG bytes fed into the pipeline.
    pub bytes_in: u64,
    /// Files attempted (successes plus failures).
    pub files_seen: u64,
    /// Snapshots successfully extracted.
    pub snapshots_out: u64,
    /// Failures per [`crate::ExtractError::kind`] string.
    pub failures_by_kind: BTreeMap<String, u64>,
    /// Broad-phase work counters from Algorithm 2.
    pub broad_phase: BroadPhaseStats,
    /// Longitudinal-cache counters (zero unless a cache-aware load ran).
    pub cache: CacheStats,
    /// Query-kernel counters (zero unless the query engine ran).
    pub query: KernelStats,
    /// Wall-clock span of the whole batch, nanoseconds; 0 until set.
    pub wall_ns: u64,
}

impl BatchMetrics {
    /// Records one stage timing.
    pub fn record_stage(&mut self, stage: Stage, duration: Duration) {
        self.stages[stage.index()].record(duration);
    }

    /// Records one input file of `bytes` SVG bytes entering the pipeline.
    pub fn record_input(&mut self, bytes: usize) {
        self.files_seen += 1;
        self.bytes_in += bytes as u64;
    }

    /// Records one successful extraction.
    pub fn record_success(&mut self) {
        self.snapshots_out += 1;
    }

    /// Records one rejection under its stable error-kind string.
    pub fn record_failure(&mut self, kind: &str) {
        *self.failures_by_kind.entry(kind.to_owned()).or_default() += 1;
    }

    /// Stamps the coordinator-measured wall time of the run.
    pub fn set_wall_time(&mut self, wall: Duration) {
        self.wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    }

    /// The timing histogram of one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Merges a worker's metrics into this one (wall time excluded —
    /// it is a span, not a sum).
    pub fn merge(&mut self, other: &BatchMetrics) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge(theirs);
        }
        self.bytes_in += other.bytes_in;
        self.files_seen += other.files_seen;
        self.snapshots_out += other.snapshots_out;
        for (kind, n) in &other.failures_by_kind {
            *self.failures_by_kind.entry(kind.clone()).or_default() += n;
        }
        self.broad_phase.merge(&other.broad_phase);
        self.cache.merge(&other.cache);
        self.query.merge(&other.query);
    }

    /// Input throughput over the run's wall time, bytes per second.
    #[must_use]
    pub fn bytes_per_second(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.bytes_in as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Output throughput over the run's wall time, snapshots per second.
    #[must_use]
    pub fn snapshots_per_second(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.snapshots_out as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// The timing-free projection of these metrics.
    ///
    /// Two runs over the same corpus must produce equal totals no
    /// matter the worker count or how files interleave across workers;
    /// this is what the scheduling-equivalence tests compare.
    #[must_use]
    pub fn totals(&self) -> MetricsTotals {
        MetricsTotals {
            bytes_in: self.bytes_in,
            files_seen: self.files_seen,
            snapshots_out: self.snapshots_out,
            failures_by_kind: self.failures_by_kind.clone(),
            broad_phase: self.broad_phase,
            cache: self.cache,
            query: self.query,
            stage_samples: [
                self.stages[0].count(),
                self.stages[1].count(),
                self.stages[2].count(),
                self.stages[3].count(),
            ],
        }
    }
}

/// The deterministic, timing-free subset of [`BatchMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsTotals {
    /// SVG bytes fed into the pipeline.
    pub bytes_in: u64,
    /// Files attempted.
    pub files_seen: u64,
    /// Snapshots successfully extracted.
    pub snapshots_out: u64,
    /// Failures per error-kind string.
    pub failures_by_kind: BTreeMap<String, u64>,
    /// Broad-phase work counters (exact counts, timing-free).
    pub broad_phase: BroadPhaseStats,
    /// Longitudinal-cache counters (exact counts, timing-free).
    pub cache: CacheStats,
    /// Query-kernel counters (exact counts, timing-free).
    pub query: KernelStats,
    /// Timing-sample counts per stage, in [`Stage::ALL`] order.
    pub stage_samples: [u64; 4],
}

impl fmt::Display for BatchMetrics {
    /// Renders the human-readable report behind `extract --metrics`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline metrics:")?;
        writeln!(
            f,
            "  files:     {} in, {} extracted, {} rejected",
            self.files_seen,
            self.snapshots_out,
            self.files_seen - self.snapshots_out.min(self.files_seen)
        )?;
        writeln!(
            f,
            "  volume:    {} bytes in {:.3} s wall",
            self.bytes_in,
            self.wall_ns as f64 / 1e9
        )?;
        writeln!(
            f,
            "  rates:     {:.0} bytes/s, {:.1} snapshots/s",
            self.bytes_per_second(),
            self.snapshots_per_second()
        )?;
        writeln!(f, "  stages (per-file wall time):")?;
        for stage in Stage::ALL {
            let h = self.stage(stage);
            if h.count() == 0 {
                writeln!(f, "    {:<12} (no samples)", stage.name())?;
            } else {
                writeln!(
                    f,
                    "    {:<12} n={:<6} mean={} p50<{} p99<{} max={}",
                    stage.name(),
                    h.count(),
                    format_ns(h.mean_ns()),
                    format_ns(h.quantile_ns(0.50)),
                    format_ns(h.quantile_ns(0.99)),
                    format_ns(h.max_ns()),
                )?;
            }
        }
        let bp = &self.broad_phase;
        if bp.lines == 0 {
            writeln!(f, "  broad phase: (no lines queried)")?;
        } else {
            writeln!(
                f,
                "  broad phase: {} lines, {} rects tested of {} brute-force ({:.1} %)",
                bp.lines,
                bp.rects_tested,
                bp.rects_baseline,
                bp.tested_fraction() * 100.0
            )?;
            if bp.grid_builds > 0 {
                writeln!(
                    f,
                    "               {} grid builds, mean occupancy {:.0} % of {} cells/build",
                    bp.grid_builds,
                    bp.occupancy() * 100.0,
                    bp.grid_cells / bp.grid_builds
                )?;
            }
        }
        if !self.cache.is_empty() {
            let c = &self.cache;
            writeln!(
                f,
                "  cache:     {} hit, {} miss, {} append, {} corrupt, {} stale",
                c.hits, c.misses, c.appends, c.corrupt, c.stale
            )?;
            writeln!(
                f,
                "             {} snapshots from cache, {} appended from YAML",
                c.snapshots_from_cache, c.snapshots_appended
            )?;
            if c.segments_touched > 0 || c.segments_rebuilt > 0 {
                writeln!(
                    f,
                    "  segments:  {} touched, {} rebuilt",
                    c.segments_touched, c.segments_rebuilt
                )?;
            }
        }
        if !self.query.is_empty() {
            let q = &self.query;
            writeln!(
                f,
                "  queries:   {} run, {} kernel passes",
                q.queries, q.kernels
            )?;
            writeln!(
                f,
                "             {} snapshots, {} rows, {} samples scanned",
                q.snapshots_scanned, q.rows_scanned, q.samples
            )?;
        }
        if self.failures_by_kind.is_empty() {
            writeln!(f, "  failures:  none")?;
        } else {
            writeln!(f, "  failures by kind:")?;
            for (kind, n) in &self.failures_by_kind {
                writeln!(f, "    {kind:<20} {n}")?;
            }
        }
        Ok(())
    }
}

/// Formats nanoseconds with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        a.record(Duration::from_nanos(1));
        a.record(Duration::from_nanos(100));
        a.record(Duration::from_micros(3));
        let mut b = Histogram::default();
        b.record(Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min_ns(), 1);
        assert_eq!(a.max_ns(), 2_000_000);
        assert_eq!(a.total_ns(), 1 + 100 + 3_000 + 2_000_000);
        assert!(a.mean_ns() > 0);
        // The p100 bucket bound clamps to the observed max.
        assert_eq!(a.quantile_ns(1.0), a.max_ns());
        // Lower quantiles never exceed higher ones.
        assert!(a.quantile_ns(0.5) <= a.quantile_ns(0.99));
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        let mut h = Histogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn metrics_merge_is_a_sum_and_totals_ignore_timing() {
        let mut a = BatchMetrics::default();
        a.record_input(100);
        a.record_success();
        a.record_stage(Stage::XmlParse, Duration::from_micros(5));
        let mut b = BatchMetrics::default();
        b.record_input(50);
        b.record_failure("invalid-xml");
        b.record_stage(Stage::XmlParse, Duration::from_micros(9));
        a.merge(&b);
        a.set_wall_time(Duration::from_millis(10));

        let totals = a.totals();
        assert_eq!(totals.bytes_in, 150);
        assert_eq!(totals.files_seen, 2);
        assert_eq!(totals.snapshots_out, 1);
        assert_eq!(totals.failures_by_kind.get("invalid-xml"), Some(&1));
        assert_eq!(totals.stage_samples, [2, 0, 0, 0]);

        // Same counters with different timings → equal totals.
        let mut c = BatchMetrics::default();
        c.record_input(100);
        c.record_input(50);
        c.record_success();
        c.record_failure("invalid-xml");
        c.record_stage(Stage::XmlParse, Duration::from_secs(1));
        c.record_stage(Stage::XmlParse, Duration::ZERO);
        assert_eq!(totals, c.totals());
    }

    #[test]
    fn throughput_uses_wall_time() {
        let mut m = BatchMetrics::default();
        m.record_input(1_000_000);
        m.record_success();
        m.set_wall_time(Duration::from_secs(2));
        assert!((m.bytes_per_second() - 500_000.0).abs() < 1.0);
        assert!((m.snapshots_per_second() - 0.5).abs() < 1e-9);
        assert_eq!(BatchMetrics::default().bytes_per_second(), 0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let mut m = BatchMetrics::default();
        m.record_input(64);
        m.record_failure("invalid-svg");
        m.record_stage(Stage::Algorithm2, Duration::from_micros(42));
        m.set_wall_time(Duration::from_millis(1));
        let text = m.to_string();
        assert!(text.contains("algorithm2"));
        assert!(text.contains("invalid-svg"));
        assert!(text.contains("bytes/s"));
        assert!(text.contains("(no samples)"));
    }
}
