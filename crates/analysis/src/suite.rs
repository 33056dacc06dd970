//! The single-pass §5 analysis engine.
//!
//! [`AnalysisSuite::run_store`] folds all nine §5 analyses over one scan
//! of a [`LongitudinalStore`]'s columns. The streaming analyses resolve
//! what a topology row tells them once per row and then read only the
//! load columns of the snapshots in its run; only the artifacts drawn
//! from a final state (Fig. 4c, Table 1) and the optional Fig. 6
//! forensics rebuild [`TopologySnapshot`]s. The per-figure slice functions
//! (`coverage_segments`, `evolution_series`, `table1`, …) are the
//! reference the suite is tested against.

use std::collections::BTreeMap;
use std::ops::Range;

use wm_dataset::{CellView, LongitudinalStore, QueryEngine};
use wm_extract::KernelStats;
use wm_model::{Duration, LinkKind, MapKind, TopologySnapshot};

use crate::degree::DegreeAnalysis;
use crate::evolution::{EvolutionPass, EvolutionReport};
use crate::imbalance::ImbalanceCdf;
use crate::loads::{HourlyLoads, LoadCdf};
use crate::maintenance::{LinkKey, MaintenancePass, MaintenanceReport};
use crate::sites::{SiteCounts, SiteGrowth, SitesPass};
use crate::tables::{table1, Table1};
use crate::timeframe::{TimeframePass, TimeframeReport};
use crate::upgrades::{detect_upgrade, observe_group, UpgradeOutcome, UpgradeTarget};

/// Tuning knobs of an [`AnalysisSuite`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Gap above which a Fig. 2 coverage segment breaks.
    pub max_gap: Duration,
    /// Minimum router-count step reported as a Fig. 4a change event.
    pub min_router_delta: usize,
    /// Minimum internal-link step reported as a Fig. 4b change event.
    pub min_link_delta: usize,
    /// When set, the Fig. 6 upgrade forensics to run alongside.
    pub upgrade: Option<UpgradeTarget>,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            max_gap: Duration::from_hours(1),
            min_router_delta: 1,
            min_link_delta: 4,
            upgrade: None,
        }
    }
}

/// The running state of one suite scan: the streaming accumulators of
/// every §5 analysis.
#[derive(Debug, Clone)]
pub struct AnalysisSuite {
    timeframe: TimeframePass,
    evolution: EvolutionPass,
    hourly: HourlyLoads,
    load_cdf: LoadCdf,
    imbalance: ImbalanceCdf,
    sites: SitesPass,
    maintenance: MaintenancePass,
}

impl AnalysisSuite {
    fn new(config: &SuiteConfig) -> AnalysisSuite {
        AnalysisSuite {
            timeframe: TimeframePass::new(config.max_gap),
            evolution: EvolutionPass::new(config.min_router_delta, config.min_link_delta),
            hourly: HourlyLoads::new(),
            load_cdf: LoadCdf::new(),
            imbalance: ImbalanceCdf::new(),
            sites: SitesPass::default(),
            maintenance: MaintenancePass::default(),
        }
    }

    /// Runs the whole suite over every snapshot of a columnar store, via
    /// the query engine's catalog, topology rows and load columns.
    ///
    /// The streaming analyses (loads, imbalance, sites, evolution,
    /// timeframe, maintenance) resolve each topology row once — router,
    /// link and site counts, per-cell kinds and maintenance keys, the
    /// directed parallel sets — then scan only the loads of each
    /// snapshot in the row's run; no [`TopologySnapshot`] is
    /// reconstructed for them. Fig. 4c and Table 1 read each map's
    /// latest snapshot, reconstructed once per map at the end; the
    /// optional Fig. 6 forensics reconstruct every snapshot. The returned
    /// [`KernelStats`] counts the column work done.
    pub fn run_store(config: SuiteConfig, store: &LongitudinalStore) -> (SuiteReport, KernelStats) {
        let engine = QueryEngine::new(store);
        let mut suite = AnalysisSuite::new(&config);
        let mut row = RowFacts::default();
        let mut latest_per_map: BTreeMap<MapKind, usize> = BTreeMap::new();
        let mut rows_scanned = 0u64;
        let timestamps = store.timestamps();

        for (row_index, run) in store.row_runs(0..store.len()) {
            row.resolve(&engine, row_index, &mut suite.maintenance);
            let span = timestamps.get(run.clone()).unwrap_or(&[]);
            if let (Some(&first), Some(&last)) = (span.first(), span.last()) {
                suite.sites.observe_run(first, last, &row.sites);
            }
            for (index, &timestamp) in run.zip(span) {
                latest_per_map.insert(store.map_of(index), index);
                suite.timeframe.observe_instant(timestamp);
                suite.evolution.observe_counts(
                    timestamp,
                    row.routers,
                    row.internal_links,
                    row.external_links,
                );

                // One fused pass over the snapshot's loads feeds the load
                // and maintenance collectors in original row order.
                let (la, lb) = store.loads(index);
                let hour = timestamp.hour_of_day();
                for ((cell, &a), &b) in row.cells.iter().zip(la).zip(lb) {
                    rows_scanned += 1;
                    let (first, second) = if cell.flipped { (b, a) } else { (a, b) };
                    suite.hourly.push(hour, first);
                    suite.hourly.push(hour, second);
                    suite.load_cdf.push(cell.kind, first);
                    suite.load_cdf.push(cell.kind, second);
                    suite
                        .maintenance
                        .observe_link(timestamp, cell.key, a == 0 && b == 0);
                }

                // Directed parallel-set imbalances, groups in endpoint-pair
                // order, members in row order — exactly `group_imbalances`.
                for (kind, members) in &row.sets {
                    let members = row.members.get(members.clone()).unwrap_or(&[]);
                    if let Some(imbalance) = directed_imbalance(members, la, lb) {
                        suite.imbalance.push(*kind, imbalance);
                    }
                }
            }
        }

        // Fig. 4c and Table 1 read the final state of each map; the
        // overall last snapshot is the latest of its own map.
        let latest: BTreeMap<MapKind, TopologySnapshot> = latest_per_map
            .iter()
            .map(|(&map, &index)| (map, store.snapshot(index)))
            .collect();
        let degree = store
            .len()
            .checked_sub(1)
            .and_then(|last| latest.get(&store.map_of(last)))
            .map(DegreeAnalysis::of);
        let finals: Vec<TopologySnapshot> = latest.into_values().collect();
        let upgrade = config.upgrade.map(|target| {
            let observations: Vec<_> = store
                .snapshots()
                .filter_map(|snapshot| observe_group(&snapshot, &target.from, &target.to))
                .collect();
            let report = detect_upgrade(&observations, &target.records);
            UpgradeOutcome {
                observations,
                report,
            }
        });
        let report = suite.finish(store.len(), degree, table1(&finals), upgrade);

        let stats = KernelStats {
            queries: 1,
            kernels: 1,
            snapshots_scanned: store.len() as u64,
            rows_scanned,
            samples: rows_scanned * 2,
        };
        (report, stats)
    }

    fn finish(
        self,
        snapshots: usize,
        degree: Option<DegreeAnalysis>,
        table1: Table1,
        upgrade: Option<UpgradeOutcome>,
    ) -> SuiteReport {
        SuiteReport {
            snapshots,
            timeframe: self.timeframe.finish(),
            evolution: self.evolution.finish(),
            degree,
            hourly: self.hourly,
            load_cdf: self.load_cdf,
            imbalance: self.imbalance,
            table1,
            sites: self.sites.finish(),
            maintenance: self.maintenance.finish(),
            upgrade,
        }
    }
}

/// What the suite reads of one link cell of a topology row.
#[derive(Debug, Clone, Copy)]
struct CellFacts {
    kind: LinkKind,
    flipped: bool,
    /// The cell's maintenance key, interned in the suite's pass.
    key: u32,
}

/// What the suite needs of one topology row, resolved once for its whole
/// run (scratch, reused across rows).
#[derive(Debug, Default)]
struct RowFacts {
    routers: usize,
    internal_links: usize,
    external_links: usize,
    /// Router and attached-link tallies per site.
    sites: BTreeMap<String, SiteCounts>,
    /// Per link cell, in row order.
    cells: Vec<CellFacts>,
    /// Directed parallel sets in `group_imbalances` order: the group's
    /// link kind and the set's range of `members`.
    sets: Vec<(LinkKind, Range<usize>)>,
    /// Directed-set members: a cell and whether the set reads its
    /// canonical second-end load (otherwise its first-end load).
    members: Vec<(usize, bool)>,
}

impl RowFacts {
    fn resolve(&mut self, engine: &QueryEngine<'_>, row: usize, maintenance: &mut MaintenancePass) {
        self.routers = 0;
        self.sites.clear();
        for id in engine.store().row_node_ids(row) {
            let Some(node) = engine.node_at(id) else {
                continue;
            };
            if node.is_router() {
                self.routers += 1;
                if let Some(site) = node.site() {
                    self.sites.entry(site.to_owned()).or_default().routers += 1;
                }
            }
        }

        let views: Vec<CellView<'_>> = engine.row_cells(row).collect();
        self.internal_links = 0;
        self.external_links = 0;
        self.cells.clear();
        // Parallel groups: pair rank → member cells in row order.
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (position, cell) in views.iter().enumerate() {
            match cell.kind {
                LinkKind::Internal => self.internal_links += 1,
                LinkKind::External => self.external_links += 1,
            }
            self.cells.push(CellFacts {
                kind: cell.kind,
                flipped: cell.flipped,
                key: maintenance.intern(link_key_of(engine, cell)),
            });
            for end in [cell.def.a, cell.def.b] {
                if let Some(site) = engine.node_at(end).and_then(|n| n.site()) {
                    if let Some(entry) = self.sites.get_mut(site) {
                        entry.link_ends += 1;
                    }
                }
            }
            groups.entry(cell.pair).or_default().push(position);
        }

        // A set `from` an end takes each member's load leaving that end
        // (its first matching end, as `egress_load_from`).
        self.sets.clear();
        self.members.clear();
        for (pair, positions) in groups {
            let Some(kind) = positions
                .first()
                .and_then(|&p| views.get(p))
                .map(|cell| cell.kind)
            else {
                continue;
            };
            let Some((pair_a, pair_b)) = engine.pair_names(pair as usize) else {
                continue;
            };
            for from in [pair_a, pair_b] {
                let begin = self.members.len();
                for &position in &positions {
                    let Some(cell) = views.get(position) else {
                        continue;
                    };
                    let (first_name, _, second_name, _) = original_ends(engine, cell);
                    if first_name == from {
                        self.members.push((position, cell.flipped));
                    } else if second_name == from {
                        self.members.push((position, !cell.flipped));
                    }
                }
                self.sets.push((kind, begin..self.members.len()));
            }
        }
    }
}

/// The original listed orientation of a cell: `(first end's name and
/// label, second end's name and label)`.
fn original_ends<'e>(
    engine: &QueryEngine<'e>,
    cell: &CellView<'e>,
) -> (&'e str, &'e Option<String>, &'e str, &'e Option<String>) {
    let name_a = engine.node_name(cell.def.a);
    let name_b = engine.node_name(cell.def.b);
    if cell.flipped {
        (name_b, &cell.def.label_b, name_a, &cell.def.label_a)
    } else {
        (name_a, &cell.def.label_a, name_b, &cell.def.label_b)
    }
}

/// Reproduces the maintenance pass's `key_of` from a column cell: ends
/// ordered by name, labels following their end, ties keeping the
/// original listed order.
fn link_key_of(engine: &QueryEngine<'_>, cell: &CellView<'_>) -> LinkKey {
    let (first_name, first_label, second_name, second_label) = original_ends(engine, cell);
    if first_name <= second_name {
        LinkKey {
            a: first_name.to_owned(),
            b: second_name.to_owned(),
            label_a: first_label.clone(),
            label_b: second_label.clone(),
        }
    } else {
        LinkKey {
            a: second_name.to_owned(),
            b: first_name.to_owned(),
            label_a: second_label.clone(),
            label_b: first_label.clone(),
        }
    }
}

/// The imbalance of one directed parallel set over one snapshot's loads:
/// 0 %/1 % loads discounted, sets left with fewer than two links removed.
fn directed_imbalance(members: &[(usize, bool)], la: &[u8], lb: &[u8]) -> Option<f64> {
    let mut kept = 0usize;
    let mut min = u8::MAX;
    let mut max = 0u8;
    for &(cell, second) in members {
        let column = if second { lb } else { la };
        let Some(&load) = column.get(cell) else {
            continue;
        };
        if load <= 1 {
            continue; // Disabled or control-noise loads are discounted.
        }
        kept += 1;
        min = min.min(load);
        max = max.max(load);
    }
    (kept >= 2).then(|| f64::from(max - min))
}

/// Every §5 artifact of one corpus scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Snapshots observed.
    pub snapshots: usize,
    /// Fig. 2 / Fig. 3: coverage segments and gap distribution.
    pub timeframe: TimeframeReport,
    /// Fig. 4a / Fig. 4b: evolution series and change events.
    pub evolution: EvolutionReport,
    /// Fig. 4c: degree analysis of the final snapshot (`None` on an
    /// empty corpus).
    pub degree: Option<DegreeAnalysis>,
    /// Fig. 5a: loads bucketed by hour of day.
    pub hourly: HourlyLoads,
    /// Fig. 5b: load CDFs by link kind.
    pub load_cdf: LoadCdf,
    /// Fig. 5c: ECMP imbalance CDFs.
    pub imbalance: ImbalanceCdf,
    /// Table 1, assembled from the last snapshot seen per map.
    pub table1: Table1,
    /// Per-site growth ranking.
    pub sites: Vec<SiteGrowth>,
    /// Maintenance windows and disabled-link counters.
    pub maintenance: MaintenanceReport,
    /// Fig. 6 forensics, when a target was configured.
    pub upgrade: Option<UpgradeOutcome>,
}

impl SuiteReport {
    /// Renders the headline facts of every artifact as plain text — the
    /// `ovh-weather analyze` output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("snapshots analysed: {}\n", self.snapshots));

        let tf = &self.timeframe;
        out.push_str(&format!(
            "coverage: {} segment(s); {:.2} % of gaps at 5-min resolution",
            tf.segments.len(),
            tf.gaps.fraction_at_resolution() * 100.0
        ));
        match tf.gaps.max_gap() {
            Some(gap) => out.push_str(&format!("; largest gap {gap}\n")),
            None => out.push('\n'),
        }

        let ev = &self.evolution;
        if let (Some(first), Some(last)) = (ev.series.first(), ev.series.last()) {
            out.push_str(&format!(
                "evolution: routers {} -> {}, internal links {} -> {}, external links {} -> {}\n",
                first.routers,
                last.routers,
                first.internal_links,
                last.internal_links,
                first.external_links,
                last.external_links
            ));
            out.push_str(&format!(
                "changes: {} router event(s), {} internal-link step(s)\n",
                ev.router_events.len(),
                ev.internal_link_events.len()
            ));
        }

        if let Some(degree) = &self.degree {
            out.push_str(&format!(
                "degrees (final snapshot): {:.1} % single-link, {:.1} % above 20 links\n",
                degree.fraction_single_link() * 100.0,
                degree.fraction_above(20) * 100.0
            ));
        }

        if let Some((p75, above60, delta)) = self.load_cdf.headline() {
            out.push_str(&format!(
                "loads: p75 = {:.1} %, {:.2} % above 60 %, externals {:.1} pts {} than internals\n",
                p75,
                above60 * 100.0,
                delta.abs(),
                if delta <= 0.0 { "cooler" } else { "hotter" }
            ));
        }
        if let Some((trough, peak)) = self.hourly.extreme_hours() {
            out.push_str(&format!(
                "diurnal cycle: trough at {trough:02}h, peak at {peak:02}h UTC\n"
            ));
        }

        let (all_le_1, external_le_2) = self.imbalance.headline();
        if !self.imbalance.internal().is_empty() || !self.imbalance.external().is_empty() {
            out.push_str(&format!(
                "imbalance: {:.1} % of directed sets within 1 pt; {:.1} % of external sets within 2 pts\n",
                all_le_1 * 100.0,
                external_le_2 * 100.0
            ));
        }

        if !self.table1.rows.is_empty() {
            out.push('\n');
            out.push_str(&self.table1.render());
        }

        if let Some(top) = self.sites.first() {
            out.push_str(&format!(
                "fastest-growing site: {} ({:+} link ends, {:+} routers)\n",
                top.site,
                top.link_growth(),
                top.router_growth()
            ));
        }

        let maint = &self.maintenance;
        out.push_str(&format!(
            "maintenance: {} window(s), {:.2} % of link observations disabled\n",
            maint.windows.len(),
            maint.disabled_fraction() * 100.0
        ));

        if let Some(upgrade) = &self.upgrade {
            let report = &upgrade.report;
            out.push_str("upgrade forensics:");
            match report.link_added {
                Some(at) => out.push_str(&format!(" added {at};")),
                None => out.push_str(" no addition seen;"),
            }
            if let Some(at) = report.link_activated {
                out.push_str(&format!(" activated {at};"));
            }
            if let Some(capacity) = report.inferred_link_capacity_gbps {
                out.push_str(&format!(" inferred {capacity:.0} Gbps/link;"));
            }
            if let Some(ratio) = report.load_drop_ratio() {
                out.push_str(&format!(" load ratio {ratio:.2}"));
            }
            out.push('\n');
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evolution::{detect_changes, evolution_series};
    use crate::maintenance::{disabled_fraction, maintenance_windows};
    use crate::sites::site_growth;
    use crate::tables::table1;
    use crate::timeframe::{coverage_segments, GapDistribution};
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp};

    fn run(config: SuiteConfig, snapshots: &[TopologySnapshot]) -> (SuiteReport, KernelStats) {
        AnalysisSuite::run_store(config, &LongitudinalStore::from_snapshots(snapshots))
    }

    /// A small two-map series with a diurnal load swing, a disabled
    /// window and a mid-series router addition.
    fn corpus() -> Vec<TopologySnapshot> {
        let mut snapshots = Vec::new();
        for i in 0..12i64 {
            let t = Timestamp::from_ymd_hms(2021, 6, 1, (2 * i) as u8, 0, 0);
            let mut s = TopologySnapshot::new(MapKind::Europe, t);
            s.nodes.push(Node::router("rbx-g1-nc5"));
            s.nodes.push(Node::router("fra-fr5-sbb1"));
            s.nodes.push(Node::peering("ARELION"));
            if i >= 6 {
                s.nodes.push(Node::router("waw-1-n6"));
            }
            let load = |v: u8| Load::new(v).unwrap();
            let wave = (10 + 3 * (i % 4)) as u8;
            for label in ["#1", "#2"] {
                let disabled = label == "#2" && (4..7).contains(&i);
                let (la, lb) = if disabled { (0, 0) } else { (wave, wave / 2) };
                s.links.push(Link::new(
                    LinkEnd::new(Node::router("rbx-g1-nc5"), Some(label.into()), load(la)),
                    LinkEnd::new(Node::router("fra-fr5-sbb1"), Some(label.into()), load(lb)),
                ));
            }
            s.links.push(Link::new(
                LinkEnd::new(Node::router("rbx-g1-nc5"), None, load(wave / 3)),
                LinkEnd::new(Node::peering("ARELION"), None, load(2)),
            ));
            snapshots.push(s);
        }
        // One World snapshot so Table 1 has two rows.
        let mut w = TopologySnapshot::new(
            MapKind::World,
            Timestamp::from_ymd_hms(2021, 6, 1, 23, 0, 0),
        );
        w.nodes.push(Node::router("sin-1-a9"));
        snapshots.push(w);
        snapshots
    }

    #[test]
    fn suite_matches_slice_functions() {
        let snapshots = corpus();
        let config = SuiteConfig::default();
        let (report, stats) = run(config.clone(), &snapshots);

        assert_eq!(report.snapshots, snapshots.len());
        assert_eq!(stats.snapshots_scanned as usize, snapshots.len());
        let links: usize = snapshots.iter().map(|s| s.links.len()).sum();
        assert_eq!(stats.rows_scanned as usize, links);

        let times: Vec<Timestamp> = snapshots.iter().map(|s| s.timestamp).collect();
        assert_eq!(
            report.timeframe.segments,
            coverage_segments(&times, config.max_gap)
        );
        assert_eq!(report.timeframe.gaps, GapDistribution::new(&times));

        let series = evolution_series(&snapshots);
        assert_eq!(report.evolution.series, series);
        assert_eq!(
            report.evolution.router_events,
            detect_changes(&series, |p| p.routers, config.min_router_delta)
        );

        let last = snapshots.last().unwrap();
        assert_eq!(report.degree, Some(DegreeAnalysis::of(last)));

        let mut hourly = HourlyLoads::new();
        let mut cdf = LoadCdf::new();
        let mut imbalance = ImbalanceCdf::new();
        for s in &snapshots {
            hourly.add_snapshot(s);
            cdf.add_snapshot(s);
            imbalance.add_snapshot(s);
        }
        assert_eq!(report.hourly, hourly);
        assert_eq!(report.load_cdf, cdf);
        assert_eq!(report.imbalance, imbalance);

        // Table 1 from the last snapshot per map.
        let last_europe = snapshots
            .iter()
            .rev()
            .find(|s| s.map == MapKind::Europe)
            .unwrap();
        let last_world = snapshots
            .iter()
            .rev()
            .find(|s| s.map == MapKind::World)
            .unwrap();
        assert_eq!(
            report.table1,
            table1(&[last_europe.clone(), last_world.clone()])
        );

        assert_eq!(report.sites, site_growth(&snapshots));
        assert_eq!(report.maintenance.windows, maintenance_windows(&snapshots));
        assert!(
            (report.maintenance.disabled_fraction() - disabled_fraction(&snapshots)).abs() < 1e-12
        );
        assert_eq!(report.upgrade, None);
    }

    #[test]
    fn render_mentions_every_section() {
        let (report, _) = run(SuiteConfig::default(), &corpus());
        let text = report.render();
        for needle in [
            "snapshots analysed",
            "coverage",
            "evolution",
            "degrees",
            "loads",
            "imbalance",
            "Network Map",
            "fastest-growing site",
            "maintenance",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_corpus_is_well_formed() {
        let (report, stats) = run(SuiteConfig::default(), &[]);
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(report.snapshots, 0);
        assert_eq!(report.degree, None);
        assert!(report.table1.rows.is_empty());
        assert!(report.sites.is_empty());
        assert!(report.render().contains("snapshots analysed: 0"));
    }

    #[test]
    fn upgrade_target_runs_fig6() {
        use crate::upgrades::CapacityRecord;
        // 3 parallel r-a <-> AMS-IX links; a 4th appears and activates.
        let mut snapshots = Vec::new();
        for day in 0..8i64 {
            let t = Timestamp::from_unix(day * 86_400);
            let mut s = TopologySnapshot::new(MapKind::Europe, t);
            s.nodes.push(Node::router("r-a"));
            s.nodes.push(Node::peering("AMS-IX"));
            let count = if day < 3 { 3 } else { 4 };
            for i in 0..count {
                let new_active = day >= 6 || i < 3;
                let load = if new_active { 40 } else { 0 };
                s.links.push(Link::new(
                    LinkEnd::new(
                        Node::router("r-a"),
                        Some(format!("#{}", i + 1)),
                        Load::new(load).unwrap(),
                    ),
                    LinkEnd::new(
                        Node::peering("AMS-IX"),
                        Some(format!("#{}", i + 1)),
                        Load::new(load / 4).unwrap(),
                    ),
                ));
            }
            snapshots.push(s);
        }
        let config = SuiteConfig {
            upgrade: Some(UpgradeTarget {
                from: "r-a".into(),
                to: "AMS-IX".into(),
                records: vec![CapacityRecord {
                    at: Timestamp::from_unix(4 * 86_400),
                    total_capacity_gbps: 400,
                }],
            }),
            ..SuiteConfig::default()
        };
        let (report, _) = run(config, &snapshots);
        let upgrade = report.upgrade.expect("upgrade outcome");
        assert_eq!(upgrade.observations.len(), snapshots.len());
        assert_eq!(
            upgrade.report.link_added,
            Some(Timestamp::from_unix(3 * 86_400))
        );
        assert_eq!(
            upgrade.report.link_activated,
            Some(Timestamp::from_unix(6 * 86_400))
        );
    }
}
