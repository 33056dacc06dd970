//! The vectorized query engine over the columnar store.
//!
//! A [`wm_model::Query`] is compiled by [`QueryEngine::plan`] into a
//! [`QueryPlan`] — a resolved snapshot range plus one or two kernel
//! passes — and executed by [`QueryEngine::run`] directly over the
//! columns: each kernel resolves its per-cell facts (filter mask, link,
//! site ranks, parallel group) once per topology row, then scans only
//! the loads of each snapshot in that row's run — no
//! [`wm_model::TopologySnapshot`] reconstruction and no per-snapshot
//! allocation. Execution is deterministic at any thread count because
//! every accumulator is an integer (sums, counts, peaks, 101-bucket
//! load histograms) merged in chunk order with commutative-associative
//! operations; floats appear only in presentation helpers on the result
//! types.
//!
//! The engine also exposes the kernels' building blocks — the resolved
//! snapshot range, the link catalog (kinds, parallel-group ranks, site
//! ranks), allocation-free views of a topology row's link cells and
//! of a snapshot's rows — so the §5 analysis suite consumes the same
//! machinery instead of reconstructing snapshots.
//!
//! Range-aware execution: [`query_windowed`] loads only the segments a
//! query's time range intersects (via
//! [`crate::build_longitudinal_windowed`]) before running the kernels,
//! so a six-hour question never decodes two years of history.

use std::collections::BTreeSet;
use std::convert::Infallible;
use std::io;
use std::ops::Range;

use wm_extract::{claim_each, KernelStats};
use wm_model::query::{
    HeatmapCell, HeatmapGrid, HotLink, LinkFilter, Query, QueryOp, QueryOutput, QueryResult,
    ScanStats, SiteLoad, WindowStats,
};
use wm_model::time::Duration;
use wm_model::{LinkKind, MapKind, Node, TimeRange, Timestamp};

use crate::loader::{CacheMode, CorpusLoadStats};
use crate::longitudinal::{offsets_between, LinkDef, LinkId, LongitudinalStore, NodeId};
use crate::segments::build_longitudinal_windowed;
use crate::store::DatasetStore;

/// Load percentages are integers in `0..=100`, so every percentile
/// kernel works on a fixed 101-bucket count histogram.
const LOAD_BUCKETS: usize = 101;

/// A compiled query: the resolved snapshot range and kernel shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// Snapshot indices the kernels scan (resolved from the time range
    /// by binary search over the sorted timestamp column).
    pub snapshots: Range<usize>,
    /// Stable kernel name (the operation's [`QueryOp::name`]).
    pub kernel: &'static str,
    /// Row passes the plan executes (heatmap runs a group-discovery
    /// pass before filling the grid).
    pub passes: u32,
    /// Whether a link filter restricts the scanned rows.
    pub filtered: bool,
}

/// One link cell of a topology row: what is the same for every
/// snapshot of the row's run. Cell `i` of a row holds the `i`-th load
/// pair of each of those snapshots ([`LongitudinalStore::loads`]).
#[derive(Debug, Clone, Copy)]
pub struct CellView<'a> {
    /// The link's stable identity.
    pub link: LinkId,
    /// Internal or external, from the catalog.
    pub kind: LinkKind,
    /// Rank of the link's unordered endpoint-name pair (parallel
    /// group) in the engine's sorted pair table.
    pub pair: u32,
    /// `true` when the original link listed the canonical second
    /// endpoint first.
    pub flipped: bool,
    /// The link's definition (endpoints and labels).
    pub def: &'a LinkDef,
}

/// The query engine: a link/site catalog over one store plus reusable
/// kernel scratch and work counters.
///
/// Build one per store with [`QueryEngine::new`], then [`run`] any
/// number of queries; the catalog and filter scratch are reused across
/// runs.
///
/// [`run`]: QueryEngine::run
#[derive(Debug)]
pub struct QueryEngine<'a> {
    store: &'a LongitudinalStore,
    /// Per-def link kind.
    kinds: Vec<LinkKind>,
    /// Per-def rank of the unordered endpoint-name pair.
    pair_of: Vec<u32>,
    /// Sorted distinct endpoint-name pairs.
    pairs: Vec<(String, String)>,
    /// Sorted distinct router sites.
    sites: Vec<String>,
    /// Per-def endpoint site ranks.
    def_sites: Vec<(Option<u32>, Option<u32>)>,
    /// Reusable per-def filter mask.
    mask: Vec<bool>,
    counters: KernelStats,
}

/// The unordered endpoint-name pair, lexicographically sorted.
fn pair_key<'s>(a: &'s str, b: &'s str) -> (&'s str, &'s str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether the filter mask selects a def (out-of-range defs never are).
#[inline]
fn selected(mask: &[bool], def: u32) -> bool {
    mask.get(def as usize).copied().unwrap_or(false)
}

/// Splits `snapshots` into at most `threads` contiguous chunks and maps
/// `work` over them with [`claim_each`], returning results in chunk
/// order whatever worker ran each chunk.
fn run_chunks<T, F>(snapshots: Range<usize>, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let chunks = threads.clamp(1, snapshots.len().max(1));
    let step = snapshots.len().div_ceil(chunks);
    let ranges: Vec<Range<usize>> = (0..chunks)
        .map(|c| {
            let start = snapshots.start.saturating_add(c * step).min(snapshots.end);
            start..start.saturating_add(step).min(snapshots.end)
        })
        .filter(|r| !r.is_empty())
        .collect();
    let Ok(workers) = claim_each(ranges.len(), ranges.len(), Vec::new, |done, chunk| {
        if let Some(range) = ranges.get(chunk) {
            done.push((chunk, work(range.clone())));
        }
        Ok::<(), Infallible>(())
    });
    let mut results: Vec<(usize, T)> = workers.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(chunk, _)| chunk);
    results.into_iter().map(|(_, value)| value).collect()
}

/// Integer load aggregate of one link, site or heatmap cell (kernel
/// scratch): samples, their sum and their peak.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    sum: u64,
    peak: u8,
}

impl Agg {
    /// Adds one load sample.
    #[inline]
    fn add(&mut self, load: u8) {
        self.count += 1;
        self.sum += u64::from(load);
        self.peak = self.peak.max(load);
    }

    /// Folds in another aggregate of the same slot.
    fn merge(&mut self, other: Agg) {
        self.count += other.count;
        self.sum += other.sum;
        self.peak = self.peak.max(other.peak);
    }
}

/// Merges per-chunk aggregate vectors of `len` slots elementwise, in
/// chunk order.
fn merge_aggs(parts: Vec<Vec<Agg>>, len: usize) -> Vec<Agg> {
    let mut merged = vec![Agg::default(); len];
    for part in parts {
        for (into, from) in merged.iter_mut().zip(part) {
            into.merge(from);
        }
    }
    merged
}

/// One window's count histogram (percentile kernel scratch).
#[derive(Debug, Clone)]
struct WindowAcc {
    start: Timestamp,
    samples: u64,
    hist: [u64; LOAD_BUCKETS],
}

/// The load percentage at the `pct`-th nearest-rank percentile of a
/// count histogram holding `total` samples.
fn nearest_rank(hist: &[u64; LOAD_BUCKETS], total: u64, pct: u64) -> u8 {
    if total == 0 {
        return 0;
    }
    let rank = (total * pct).div_ceil(100).max(1);
    let mut seen = 0u64;
    for (value, &n) in hist.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return value as u8;
        }
    }
    100
}

/// The highest occupied bucket of a count histogram.
fn hist_max(hist: &[u64; LOAD_BUCKETS]) -> u8 {
    hist.iter()
        .enumerate()
        .rev()
        .find(|(_, &n)| n > 0)
        .map_or(0, |(value, _)| value as u8)
}

impl<'a> QueryEngine<'a> {
    /// Builds the catalog for one store.
    #[must_use]
    pub fn new(store: &'a LongitudinalStore) -> QueryEngine<'a> {
        let name_of = |id: NodeId| store.nodes.get(id.index()).map_or("", |n| n.name.as_str());
        let is_router = |id: NodeId| store.nodes.get(id.index()).is_some_and(Node::is_router);
        let kinds: Vec<LinkKind> = store
            .defs
            .iter()
            .map(|def| {
                if is_router(def.a) && is_router(def.b) {
                    LinkKind::Internal
                } else {
                    LinkKind::External
                }
            })
            .collect();

        let site_set: BTreeSet<&str> = store.nodes.iter().filter_map(|n| n.site()).collect();
        let sites: Vec<String> = site_set.into_iter().map(str::to_owned).collect();
        let node_sites: Vec<Option<u32>> = store
            .nodes
            .iter()
            .map(|n| {
                n.site()
                    .and_then(|s| sites.binary_search_by(|x| x.as_str().cmp(s)).ok())
                    .map(|rank| rank as u32)
            })
            .collect();
        let site_of = |id: NodeId| node_sites.get(id.index()).copied().flatten();
        let def_sites: Vec<(Option<u32>, Option<u32>)> = store
            .defs
            .iter()
            .map(|def| (site_of(def.a), site_of(def.b)))
            .collect();

        let pair_set: BTreeSet<(&str, &str)> = store
            .defs
            .iter()
            .map(|def| pair_key(name_of(def.a), name_of(def.b)))
            .collect();
        let pairs: Vec<(String, String)> = pair_set
            .into_iter()
            .map(|(x, y)| (x.to_owned(), y.to_owned()))
            .collect();
        let pair_of: Vec<u32> = store
            .defs
            .iter()
            .map(|def| {
                let key = pair_key(name_of(def.a), name_of(def.b));
                pairs
                    .binary_search_by(|(x, y)| (x.as_str(), y.as_str()).cmp(&key))
                    .map_or(0, |rank| rank as u32)
            })
            .collect();

        QueryEngine {
            store,
            kinds,
            pair_of,
            pairs,
            sites,
            def_sites,
            mask: Vec::new(),
            counters: KernelStats::default(),
        }
    }

    /// The store this engine reads.
    #[must_use]
    pub fn store(&self) -> &'a LongitudinalStore {
        self.store
    }

    /// Work counters accumulated over every [`QueryEngine::run`] so far.
    #[must_use]
    pub fn counters(&self) -> KernelStats {
        self.counters
    }

    /// The snapshot indices whose timestamps fall inside `range`.
    #[must_use]
    pub fn snapshot_range(&self, range: TimeRange) -> Range<usize> {
        if range.is_empty() {
            return 0..0;
        }
        let ts = &self.store.timestamps;
        let start = ts.partition_point(|&t| t < range.start);
        let end = ts.partition_point(|&t| t < range.end);
        start..end.max(start)
    }

    /// The endpoint names of pair `rank`, lexicographically ordered.
    #[must_use]
    pub fn pair_names(&self, rank: usize) -> Option<(&str, &str)> {
        self.pairs.get(rank).map(|(x, y)| (x.as_str(), y.as_str()))
    }

    /// The node behind an id, if it exists.
    #[must_use]
    pub fn node_at(&self, id: NodeId) -> Option<&'a Node> {
        self.store.nodes.get(id.index())
    }

    /// The node's name, or `""` for an unknown id.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &'a str {
        self.node_at(id).map_or("", |n| n.name.as_str())
    }

    /// Human-readable endpoints of a link definition:
    /// `name label <-> name label`.
    #[must_use]
    pub fn def_display(&self, def: &LinkDef) -> String {
        let end = |id: NodeId, label: &Option<String>| {
            let name = self.node_name(id);
            match label {
                Some(l) => format!("{name} {l}"),
                None => name.to_owned(),
            }
        };
        format!(
            "{} <-> {}",
            end(def.a, &def.label_a),
            end(def.b, &def.label_b)
        )
    }

    /// Iterates a topology row's link cells in original snapshot order,
    /// one view per cell (a cell naming an id outside the link table,
    /// which neither the builder nor the decoder lets through, is
    /// skipped).
    pub fn row_cells(&self, row: usize) -> impl Iterator<Item = CellView<'a>> + '_ {
        let span = self.store.link_span(row);
        let cells = self.store.link_cells.get(span.clone()).unwrap_or(&[]);
        let flips = self.store.flipped.get(span).unwrap_or(&[]);
        cells.iter().zip(flips).filter_map(move |(&def, &flipped)| {
            let idx = def as usize;
            Some(CellView {
                link: LinkId::from_raw(def),
                kind: self.kinds.get(idx).copied().unwrap_or(LinkKind::External),
                pair: self.pair_of.get(idx).copied().unwrap_or(0),
                flipped,
                def: self.store.defs.get(idx)?,
            })
        })
    }

    /// Compiles a query to its plan.
    #[must_use]
    pub fn plan(&self, query: &Query) -> QueryPlan {
        QueryPlan {
            snapshots: self.snapshot_range(query.range),
            kernel: query.op.name(),
            passes: match query.op {
                QueryOp::Heatmap { .. } => 2,
                _ => 1,
            },
            filtered: !query.filter.is_empty(),
        }
    }

    /// Runs a query with up to `threads` worker threads.
    ///
    /// The result is byte-identical for any `threads` value: chunked
    /// kernels merge integer partial aggregates in chunk order.
    pub fn run(&mut self, query: &Query, threads: usize) -> QueryOutput {
        let plan = self.plan(query);
        let mask = self.take_mask(&query.filter);
        let range_rows = self.rows_in(&plan.snapshots);

        let (samples, result) = match query.op {
            QueryOp::Scan => self.run_scan(&plan, threads, &mask),
            QueryOp::TopK { k } => self.run_topk(&plan, threads, &mask, k),
            QueryOp::Percentiles { window } => self.run_percentiles(&plan, threads, &mask, window),
            QueryOp::SiteLoads => self.run_sites(&plan, threads, &mask),
            QueryOp::Heatmap { window } => self.run_heatmap(&plan, threads, &mask, window),
        };

        self.mask = mask;
        self.counters.queries += 1;
        self.counters.kernels += u64::from(plan.passes);
        self.counters.snapshots_scanned += plan.snapshots.len() as u64;
        self.counters.rows_scanned += u64::from(plan.passes) * range_rows;
        self.counters.samples += samples;

        QueryOutput {
            snapshots: plan.snapshots.len() as u64,
            rows: range_rows,
            samples,
            result,
        }
    }

    /// Fills the reusable per-def mask for `filter` and takes it out of
    /// the engine (returned by the caller after the kernels finish).
    fn take_mask(&mut self, filter: &LinkFilter) -> Vec<bool> {
        let mut mask = std::mem::take(&mut self.mask);
        mask.clear();
        mask.resize(self.store.defs.len(), true);
        if let Some(kind) = filter.kind {
            for (m, &k) in mask.iter_mut().zip(&self.kinds) {
                *m = *m && k == kind;
            }
        }
        if let Some(site) = &filter.site {
            match self.sites.binary_search_by(|x| x.as_str().cmp(site)) {
                Ok(rank) => {
                    let rank = rank as u32;
                    for (m, &(sa, sb)) in mask.iter_mut().zip(&self.def_sites) {
                        *m = *m && (sa == Some(rank) || sb == Some(rank));
                    }
                }
                Err(_) => mask.fill(false),
            }
        }
        mask
    }

    /// Number of link rows (load pairs) stored for a snapshot range.
    fn rows_in(&self, snapshots: &Range<usize>) -> u64 {
        offsets_between(&self.store.load_offsets, snapshots.clone()).len() as u64
    }

    /// Runs a kernel over the snapshots `snaps` one topology row at a
    /// time: `fact` resolves each link cell of a row once, from its link
    /// id (`None` skips the cell), and `scan` then sees each snapshot of
    /// the row's run with its loads, aligned cell by cell with the facts.
    fn scan_rows<F>(
        &self,
        snaps: Range<usize>,
        fact: impl Fn(u32) -> Option<F>,
        mut scan: impl FnMut(usize, &[Option<F>], &[u8], &[u8]),
    ) {
        let mut facts: Vec<Option<F>> = Vec::new();
        for (row, run) in self.store.row_runs(snaps) {
            let cells = self
                .store
                .link_cells
                .get(self.store.link_span(row))
                .unwrap_or(&[]);
            facts.clear();
            facts.extend(cells.iter().map(|&def| fact(def)));
            for snapshot in run {
                let (la, lb) = self.store.loads(snapshot);
                scan(snapshot, &facts, la, lb);
            }
        }
    }

    fn run_scan(&self, plan: &QueryPlan, threads: usize, mask: &[bool]) -> (u64, QueryResult) {
        let parts = run_chunks(plan.snapshots.clone(), threads, |snaps| {
            let mut acc = ScanStats::default();
            self.scan_rows(
                snaps,
                |def| selected(mask, def).then_some(()),
                |_, facts, la, lb| {
                    for ((fact, &a), &b) in facts.iter().zip(la).zip(lb) {
                        if fact.is_none() {
                            continue;
                        }
                        acc.samples += 2;
                        acc.disabled += u64::from(a == 0) + u64::from(b == 0);
                        acc.sum += u64::from(a) + u64::from(b);
                        acc.peak = acc.peak.max(a).max(b);
                    }
                },
            );
            acc
        });
        let mut total = ScanStats::default();
        for part in parts {
            total.samples += part.samples;
            total.disabled += part.disabled;
            total.sum += part.sum;
            total.peak = total.peak.max(part.peak);
        }
        (total.samples, QueryResult::Scan(total))
    }

    fn run_topk(
        &self,
        plan: &QueryPlan,
        threads: usize,
        mask: &[bool],
        k: usize,
    ) -> (u64, QueryResult) {
        let parts = run_chunks(plan.snapshots.clone(), threads, |snaps| {
            let mut links = vec![Agg::default(); self.store.defs.len()];
            self.scan_rows(
                snaps,
                |def| selected(mask, def).then_some(def as usize),
                |_, facts, la, lb| {
                    for ((fact, &a), &b) in facts.iter().zip(la).zip(lb) {
                        let Some(agg) = fact.and_then(|def| links.get_mut(def)) else {
                            continue;
                        };
                        agg.add(a);
                        agg.add(b);
                    }
                },
            );
            links
        });
        let merged = merge_aggs(parts, self.store.defs.len());

        let mut candidates: Vec<(usize, Agg)> = merged
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, agg)| agg.count > 0)
            .collect();
        // Peak descending, then mean descending (cross-multiplied so the
        // comparison stays in integers), then link rank ascending.
        candidates.sort_unstable_by(|(xi, x), (yi, y)| {
            y.peak
                .cmp(&x.peak)
                .then_with(|| {
                    (u128::from(y.sum) * u128::from(x.count))
                        .cmp(&(u128::from(x.sum) * u128::from(y.count)))
                })
                .then(xi.cmp(yi))
        });
        candidates.truncate(k);

        let samples: u64 = merged.iter().map(|agg| agg.count).sum();
        let top: Vec<HotLink> = candidates
            .into_iter()
            .filter_map(|(idx, agg)| {
                let def = self.store.defs.get(idx)?;
                Some(HotLink {
                    link: self.def_display(def),
                    kind: self.kinds.get(idx).copied().unwrap_or(LinkKind::External),
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
            })
            .collect();
        (samples, QueryResult::TopK(top))
    }

    fn run_percentiles(
        &self,
        plan: &QueryPlan,
        threads: usize,
        mask: &[bool],
        window: Duration,
    ) -> (u64, QueryResult) {
        let parts = run_chunks(plan.snapshots.clone(), threads, |snaps| {
            let mut windows: Vec<WindowAcc> = Vec::new();
            self.scan_rows(
                snaps,
                |def| selected(mask, def).then_some(()),
                |snap, facts, la, lb| {
                    let Some(start) = self
                        .store
                        .timestamps
                        .get(snap)
                        .map(|t| t.align_down(window))
                    else {
                        return;
                    };
                    if windows.last().is_none_or(|w| w.start != start) {
                        windows.push(WindowAcc {
                            start,
                            samples: 0,
                            hist: [0; LOAD_BUCKETS],
                        });
                    }
                    let Some(acc) = windows.last_mut() else {
                        return;
                    };
                    for ((fact, &a), &b) in facts.iter().zip(la).zip(lb) {
                        if fact.is_none() {
                            continue;
                        }
                        acc.samples += 2;
                        if let Some(n) = acc.hist.get_mut(a as usize) {
                            *n += 1;
                        }
                        if let Some(n) = acc.hist.get_mut(b as usize) {
                            *n += 1;
                        }
                    }
                },
            );
            windows
        });

        // Chunks cover contiguous ascending snapshot ranges, so window
        // starts are non-decreasing across the concatenation; adjacent
        // chunks sharing a boundary window merge histograms.
        let mut windows: Vec<WindowAcc> = Vec::new();
        for part in parts {
            for acc in part {
                match windows.last_mut() {
                    Some(last) if last.start == acc.start => {
                        last.samples += acc.samples;
                        for (into, from) in last.hist.iter_mut().zip(acc.hist) {
                            *into += from;
                        }
                    }
                    _ => windows.push(acc),
                }
            }
        }

        let samples: u64 = windows.iter().map(|w| w.samples).sum();
        let stats: Vec<WindowStats> = windows
            .into_iter()
            .filter(|w| w.samples > 0)
            .map(|w| WindowStats {
                start: w.start,
                samples: w.samples,
                p50: nearest_rank(&w.hist, w.samples, 50),
                p90: nearest_rank(&w.hist, w.samples, 90),
                p99: nearest_rank(&w.hist, w.samples, 99),
                max: hist_max(&w.hist),
            })
            .collect();
        (samples, QueryResult::Percentiles(stats))
    }

    fn run_sites(&self, plan: &QueryPlan, threads: usize, mask: &[bool]) -> (u64, QueryResult) {
        let parts = run_chunks(plan.snapshots.clone(), threads, |snaps| {
            let mut sites = vec![Agg::default(); self.sites.len()];
            self.scan_rows(
                snaps,
                |def| {
                    selected(mask, def)
                        .then(|| self.def_sites.get(def as usize).copied())
                        .flatten()
                },
                |_, facts, la, lb| {
                    for ((fact, &a), &b) in facts.iter().zip(la).zip(lb) {
                        let Some((sa, sb)) = *fact else {
                            continue;
                        };
                        for (site, load) in [(sa, a), (sb, b)] {
                            let Some(agg) = site.and_then(|rank| sites.get_mut(rank as usize))
                            else {
                                continue;
                            };
                            agg.add(load);
                        }
                    }
                },
            );
            sites
        });
        let merged = merge_aggs(parts, self.sites.len());
        let samples: u64 = merged.iter().map(|agg| agg.count).sum();
        let loads: Vec<SiteLoad> = self
            .sites
            .iter()
            .zip(merged)
            .filter(|(_, agg)| agg.count > 0)
            .map(|(site, agg)| SiteLoad {
                site: site.clone(),
                samples: agg.count,
                sum: agg.sum,
                peak: agg.peak,
            })
            .collect();
        (samples, QueryResult::SiteLoads(loads))
    }

    fn run_heatmap(
        &self,
        plan: &QueryPlan,
        threads: usize,
        mask: &[bool],
        window: Duration,
    ) -> (u64, QueryResult) {
        // Time axis: the distinct (non-empty) windows of the range, from
        // the sorted timestamp column.
        let mut starts: Vec<Timestamp> = Vec::new();
        for snap in plan.snapshots.clone() {
            let Some(start) = self
                .store
                .timestamps
                .get(snap)
                .map(|t| t.align_down(window))
            else {
                continue;
            };
            if starts.last() != Some(&start) {
                starts.push(start);
            }
        }

        // Pass 1: which parallel groups have at least one selected row.
        // Rows alone answer it, whatever their runs' loads.
        let mut used = vec![false; self.pairs.len()];
        for (row, _) in self.store.row_runs(plan.snapshots.clone()) {
            let cells = self
                .store
                .link_cells
                .get(self.store.link_span(row))
                .unwrap_or(&[]);
            for &def in cells {
                if !selected(mask, def) {
                    continue;
                }
                let pair = self.pair_of.get(def as usize).copied().unwrap_or(0);
                if let Some(flag) = used.get_mut(pair as usize) {
                    *flag = true;
                }
            }
        }
        let group_ranks: Vec<u32> = used
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(rank, _)| rank as u32)
            .collect();
        let mut col_of: Vec<Option<usize>> = vec![None; self.pairs.len()];
        for (col, &rank) in group_ranks.iter().enumerate() {
            if let Some(slot) = col_of.get_mut(rank as usize) {
                *slot = Some(col);
            }
        }
        let columns = group_ranks.len();

        // Pass 2: fill per-chunk grids, merge elementwise in chunk order.
        let parts = run_chunks(plan.snapshots.clone(), threads, |snaps| {
            let mut samples = 0u64;
            let mut cells_out = vec![Agg::default(); starts.len() * columns];
            self.scan_rows(
                snaps,
                |def| {
                    let pair = self.pair_of.get(def as usize).copied().unwrap_or(0);
                    selected(mask, def)
                        .then(|| col_of.get(pair as usize).copied().flatten())
                        .flatten()
                },
                |snap, facts, la, lb| {
                    let Some(start) = self
                        .store
                        .timestamps
                        .get(snap)
                        .map(|t| t.align_down(window))
                    else {
                        return;
                    };
                    let base = starts.partition_point(|&s| s < start) * columns;
                    for ((fact, &a), &b) in facts.iter().zip(la).zip(lb) {
                        let Some(col) = *fact else {
                            continue;
                        };
                        samples += 2;
                        if let Some(cell) = cells_out.get_mut(base + col) {
                            cell.add(a);
                            cell.add(b);
                        }
                    }
                },
            );
            (samples, cells_out)
        });
        let (part_samples, part_cells): (Vec<u64>, Vec<Vec<Agg>>) = parts.into_iter().unzip();
        let samples = part_samples.iter().sum();
        let grid_cells: Vec<HeatmapCell> = merge_aggs(part_cells, starts.len() * columns)
            .into_iter()
            .map(|agg| HeatmapCell {
                samples: agg.count,
                sum: agg.sum,
                peak: agg.peak,
            })
            .collect();

        let groups: Vec<String> = group_ranks
            .iter()
            .filter_map(|&rank| self.pairs.get(rank as usize))
            .map(|(x, y)| format!("{x} -- {y}"))
            .collect();
        (
            samples,
            QueryResult::Heatmap(HeatmapGrid {
                starts,
                groups,
                cells: grid_cells,
            }),
        )
    }
}

/// Runs a query range-aware over the on-disk corpus: only the segments
/// the query's time range intersects are decoded (via
/// [`build_longitudinal_windowed`]), then the kernels execute over the
/// windowed store.
///
/// Returns the output, the engine's kernel counters and the load stats
/// (whose `cache.segments_touched` proves how narrow the load was).
pub fn query_windowed(
    store: &DatasetStore,
    map: MapKind,
    query: &Query,
    threads: usize,
    mode: CacheMode,
) -> io::Result<(QueryOutput, KernelStats, CorpusLoadStats)> {
    let (columnar, stats) = build_longitudinal_windowed(store, map, query.range, threads, mode)?;
    let mut engine = QueryEngine::new(&columnar);
    let output = engine.run(query, threads);
    Ok((output, engine.counters(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, TopologySnapshot};

    fn load(p: u8) -> Load {
        Load::new(p).unwrap()
    }

    fn link(a: &str, la: u8, b: &str, lb: u8, label: Option<&str>) -> Link {
        Link::new(
            LinkEnd::new(Node::from_name(a), label.map(str::to_owned), load(la)),
            LinkEnd::new(Node::from_name(b), label.map(str::to_owned), load(lb)),
        )
    }

    /// Four snapshots over two hours: two parallel internal links, one
    /// peering, one disabled stretch and a reversed listing order.
    fn series() -> Vec<TopologySnapshot> {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let mut snaps = Vec::new();
        for (i, loads) in [
            (0u8, [10, 20, 30]),
            (1, [0, 0, 35]),
            (2, [50, 60, 40]),
            (3, [15, 25, 45]),
        ]
        .iter()
        .enumerate()
        {
            let mut s =
                TopologySnapshot::new(MapKind::Europe, t0 + Duration::from_minutes(30 * i as i64));
            s.nodes = vec![
                Node::from_name("rbx-g1"),
                Node::from_name("fra-fr5"),
                Node::from_name("ARELION"),
            ];
            let [l0, l1, l2] = loads.1;
            s.links = vec![
                link("rbx-g1", l0, "fra-fr5", l0.saturating_add(1), Some("#1")),
                link("fra-fr5", l1, "rbx-g1", l1.saturating_add(2), Some("#2")),
                link("fra-fr5", l2, "ARELION", 9, None),
            ];
            let _ = loads.0;
            snaps.push(s);
        }
        snaps
    }

    fn engine_output(query: &Query, threads: usize) -> QueryOutput {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        let mut engine = QueryEngine::new(&store);
        engine.run(query, threads)
    }

    #[test]
    fn scan_counts_every_selected_sample() {
        let out = engine_output(&Query::new(QueryOp::Scan), 1);
        assert_eq!(out.snapshots, 4);
        assert_eq!(out.rows, 12);
        assert_eq!(out.samples, 24);
        let QueryResult::Scan(stats) = out.result else {
            panic!("expected scan result");
        };
        assert_eq!(stats.samples, 24);
        assert_eq!(stats.disabled, 2);
        assert_eq!(stats.peak, 62);
    }

    #[test]
    fn kind_filter_restricts_rows() {
        let out = engine_output(&Query::new(QueryOp::Scan).of_kind(LinkKind::External), 1);
        assert_eq!(out.rows, 12, "rows counts before filtering");
        assert_eq!(out.samples, 8, "one external link, two samples each");
    }

    #[test]
    fn site_filter_matches_either_endpoint() {
        let out = engine_output(&Query::new(QueryOp::Scan).at_site("rbx"), 1);
        assert_eq!(out.samples, 16, "both parallel rbx<->fra links");
        let none = engine_output(&Query::new(QueryOp::Scan).at_site("nowhere"), 1);
        assert_eq!(none.samples, 0);
    }

    #[test]
    fn topk_ranks_by_peak_then_mean_then_rank() {
        let out = engine_output(&Query::new(QueryOp::TopK { k: 2 }), 1);
        let QueryResult::TopK(top) = out.result else {
            panic!("expected topk result");
        };
        assert_eq!(top.len(), 2);
        // The #2 parallel link peaks at 62, the #1 at 51.
        assert!(top[0].link.contains("#2"), "hottest first: {}", top[0].link);
        assert_eq!(top[0].peak, 62);
        assert_eq!(top[1].peak, 51);
        // k beyond the catalog returns everything without panicking.
        let all = engine_output(&Query::new(QueryOp::TopK { k: 99 }), 1);
        let QueryResult::TopK(top) = all.result else {
            panic!("expected topk result");
        };
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn percentiles_use_nearest_rank_per_window() {
        let q = Query::new(QueryOp::Percentiles {
            window: Duration::from_hours(1),
        });
        let out = engine_output(&q, 1);
        let QueryResult::Percentiles(windows) = out.result else {
            panic!("expected percentile result");
        };
        assert_eq!(windows.len(), 2, "two one-hour windows");
        assert!(windows[0].start < windows[1].start);
        for w in &windows {
            assert_eq!(w.samples, 12);
            assert!(w.p50 <= w.p90 && w.p90 <= w.p99 && w.p99 <= w.max);
        }
        assert_eq!(windows[1].max, 62);
    }

    #[test]
    fn site_loads_aggregate_router_ends() {
        let out = engine_output(&Query::new(QueryOp::SiteLoads), 1);
        let QueryResult::SiteLoads(sites) = out.result else {
            panic!("expected site result");
        };
        let names: Vec<&str> = sites.iter().map(|s| s.site.as_str()).collect();
        assert_eq!(names, vec!["fra", "rbx"]);
        // fra has three router ends per snapshot, rbx two; peering ends
        // contribute nothing.
        assert_eq!(out.samples, 4 * 5);
        assert!(sites[0].samples > sites[1].samples);
    }

    #[test]
    fn heatmap_grid_shape_and_groups() {
        let q = Query::new(QueryOp::Heatmap {
            window: Duration::from_hours(1),
        });
        let out = engine_output(&q, 1);
        let QueryResult::Heatmap(grid) = out.result else {
            panic!("expected heatmap result");
        };
        assert_eq!(grid.starts.len(), 2);
        assert_eq!(
            grid.groups,
            vec![
                "ARELION -- fra-fr5".to_owned(),
                "fra-fr5 -- rbx-g1".to_owned()
            ]
        );
        assert_eq!(grid.cells.len(), 4);
        // Parallel links fold into one group: 2 links × 2 snapshots × 2
        // directions per window cell.
        let cell = grid.cell(0, 1).unwrap();
        assert_eq!(cell.samples, 8);
    }

    #[test]
    fn results_are_identical_at_any_thread_count() {
        let window = Duration::from_minutes(30);
        let queries = [
            Query::new(QueryOp::Scan),
            Query::new(QueryOp::TopK { k: 2 }),
            Query::new(QueryOp::Percentiles { window }),
            Query::new(QueryOp::SiteLoads),
            Query::new(QueryOp::Heatmap { window }),
            Query::new(QueryOp::Scan).of_kind(LinkKind::Internal),
        ];
        for query in &queries {
            let single = engine_output(query, 1);
            for threads in [2, 3, 8] {
                assert_eq!(
                    engine_output(query, threads),
                    single,
                    "{} at {threads} threads",
                    query.op.name()
                );
            }
        }
    }

    #[test]
    fn empty_and_partial_ranges() {
        let t0 = Timestamp::from_ymd(2022, 2, 1);
        let empty = Query::new(QueryOp::Scan).in_range(TimeRange::new(t0, t0));
        let out = engine_output(&empty, 4);
        assert_eq!((out.snapshots, out.rows, out.samples), (0, 0, 0));

        let half =
            Query::new(QueryOp::Scan).in_range(TimeRange::new(t0, t0 + Duration::from_minutes(60)));
        let out = engine_output(&half, 1);
        assert_eq!(out.snapshots, 2, "half-open range keeps the first hour");
    }

    #[test]
    fn counters_track_work() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        let mut engine = QueryEngine::new(&store);
        engine.run(&Query::new(QueryOp::Scan), 1);
        engine.run(
            &Query::new(QueryOp::Heatmap {
                window: Duration::from_hours(1),
            }),
            2,
        );
        let c = engine.counters();
        assert_eq!(c.queries, 2);
        assert_eq!(c.kernels, 3, "scan is one pass, heatmap two");
        assert_eq!(c.snapshots_scanned, 8);
        assert_eq!(c.rows_scanned, 12 + 24);
        assert_eq!(c.samples, 24 + 24);
    }

    #[test]
    fn row_cells_expose_original_orientation() {
        let snaps = series();
        let store = LongitudinalStore::from_snapshots(&snaps);
        let engine = QueryEngine::new(&store);
        for (row, run) in store.row_runs(0..store.len()) {
            let cells: Vec<CellView<'_>> = engine.row_cells(row).collect();
            for (index, snapshot) in run.clone().zip(&snaps[run]) {
                let (la, lb) = store.loads(index);
                assert_eq!(cells.len(), snapshot.links.len());
                for (((cell, &a), &b), original) in
                    cells.iter().zip(la).zip(lb).zip(&snapshot.links)
                {
                    let (first, second) = if cell.flipped { (b, a) } else { (a, b) };
                    assert_eq!(first, original.a.egress_load.percent());
                    assert_eq!(second, original.b.egress_load.percent());
                    assert_eq!(cell.kind, original.kind());
                }
            }
        }
    }
}
