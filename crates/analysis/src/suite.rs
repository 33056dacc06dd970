//! The single-pass §5 analysis engine.
//!
//! [`AnalysisSuite::run_store`] folds all nine §5 analyses over one scan
//! of a [`LongitudinalStore`]'s columns. Every analysis resolves what a
//! topology row tells it once per row and then reads only the load
//! columns of the snapshots in its run: the final states behind Fig. 4c
//! and Table 1 are each map's latest row, and the Fig. 6 forensics read
//! the target group's directed set of every row. No snapshot is
//! reconstructed. The per-figure slice functions (`coverage_segments`,
//! `evolution_series`, `table1`, `observe_group`, …) are the reference
//! the suite is tested against.

use std::collections::BTreeMap;
use std::ops::Range;

use wm_dataset::{CellView, LongitudinalStore, QueryEngine};
use wm_extract::KernelStats;
use wm_model::{Duration, LinkKind, MapKind, Node};

use crate::degree::DegreeAnalysis;
use crate::evolution::{EvolutionPass, EvolutionReport};
use crate::imbalance::ImbalanceCdf;
use crate::loads::{HourlyLoads, LoadCdf};
use crate::maintenance::{End, LinkKey, MaintenancePass, MaintenanceReport};
use crate::sites::{SiteCounts, SiteGrowth, SitesPass};
use crate::tables::{assemble_table1, Table1, Table1Row};
use crate::timeframe::{TimeframePass, TimeframeReport};
use crate::upgrades::{detect_upgrade, GroupObservation, UpgradeOutcome, UpgradeTarget};

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

/// The single-pass §5 engine; [`AnalysisSuite::run_store`] is its driver.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisSuite;

impl AnalysisSuite {
    /// Runs the whole suite over every snapshot of a columnar store, via
    /// the query engine's catalog, topology rows and load columns.
    ///
    /// Each topology row is resolved once — router, link and site
    /// counts, per-cell kinds and maintenance keys, the directed
    /// parallel sets and, with a Fig. 6 target, which set is the
    /// target's — then only the loads of each snapshot in the row's run
    /// are scanned. Fig. 4c and Table 1 read each map's latest row,
    /// resolved once at the end; a Fig. 6 observation is the target set's
    /// members over one snapshot's loads. No [`wm_model::TopologySnapshot`]
    /// is reconstructed. The returned [`KernelStats`] counts the column
    /// work done.
    pub fn run_store(config: SuiteConfig, store: &LongitudinalStore) -> (SuiteReport, KernelStats) {
        let engine = QueryEngine::new(store);
        let mut timeframe = TimeframePass::new(config.max_gap);
        let mut evolution = EvolutionPass::new(config.min_router_delta, config.min_link_delta);
        let (mut hourly, mut load_cdf) = (HourlyLoads::new(), LoadCdf::new());
        let mut imbalance = ImbalanceCdf::new();
        let mut sites = SitesPass::default();
        let mut maintenance = MaintenancePass::default();
        let target = config
            .upgrade
            .as_ref()
            .map(|t| (t.from.as_str(), t.to.as_str()));
        let mut row = RowFacts::default();
        // Per map, the row of its latest snapshot (maps can share a row).
        let mut latest_row: BTreeMap<MapKind, usize> = BTreeMap::new();
        let mut observations: Vec<GroupObservation> = Vec::new();
        let mut rows_scanned = 0u64;
        let timestamps = store.timestamps();

        for (row_index, run) in store.row_runs(0..store.len()) {
            row.resolve(&engine, row_index, target, &mut maintenance);
            let span = timestamps.get(run.clone()).unwrap_or(&[]);
            if let (Some(&first), Some(&last)) = (span.first(), span.last()) {
                sites.observe_run(first, last, &row.sites);
            }
            for (index, &timestamp) in run.zip(span) {
                latest_row.insert(store.map_of(index), row_index);
                timeframe.observe_instant(timestamp);
                evolution.observe_counts(
                    timestamp,
                    row.routers.len(),
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
                    hourly.push(hour, first);
                    hourly.push(hour, second);
                    load_cdf.push(cell.kind, first);
                    load_cdf.push(cell.kind, second);
                    maintenance.observe_link(timestamp, cell.key, a == 0 && b == 0);
                }

                // Directed parallel-set imbalances, groups in endpoint-pair
                // order, members in row order — exactly `group_imbalances`.
                for (kind, members) in &row.sets {
                    let members = row.members.get(members.clone()).unwrap_or(&[]);
                    if let Some(spread) = directed_imbalance(members, la, lb) {
                        imbalance.push(*kind, spread);
                    }
                }

                // The Fig. 6 target's set: each member's load leaving
                // `from`, and whether it reads 0 %/0 %.
                if let Some(members) = &row.target {
                    let members = row.members.get(members.clone()).unwrap_or(&[]);
                    let loads = members.iter().filter_map(|&(cell, second)| {
                        let (a, b) = (*la.get(cell)?, *lb.get(cell)?);
                        Some((if second { b } else { a }, a == 0 && b == 0))
                    });
                    observations.push(GroupObservation::of_members(timestamp, loads));
                }
            }
        }

        // Fig. 4c and Table 1 read the final state of each map: the row
        // of its latest snapshot. The overall last snapshot is the latest
        // of its own map.
        let finals: BTreeMap<MapKind, RowFacts<'_>> = latest_row
            .into_iter()
            .map(|(map, row_index)| {
                let mut facts = RowFacts::default();
                facts.resolve(&engine, row_index, None, &mut MaintenancePass::default());
                (map, facts)
            })
            .collect();
        let degree = store
            .len()
            .checked_sub(1)
            .and_then(|last| finals.get(&store.map_of(last)))
            .map(|facts| DegreeAnalysis::from_degrees(facts.degrees()));
        let table1 = assemble_table1(finals.iter().map(|(&map, facts)| {
            let row = Table1Row {
                map,
                routers: facts.routers.len(),
                internal_links: facts.internal_links,
                external_links: facts.external_links,
            };
            (row, facts.routers.iter().map(|node| node.name.as_str()))
        }));
        let report = SuiteReport {
            snapshots: store.len(),
            timeframe: timeframe.finish(),
            evolution: evolution.finish(),
            degree,
            hourly,
            load_cdf,
            imbalance,
            table1,
            sites: sites.finish(),
            maintenance: maintenance.finish(),
            upgrade: config.upgrade.map(|target| UpgradeOutcome {
                report: detect_upgrade(&observations, &target.records),
                observations,
            }),
        };

        let stats = KernelStats {
            queries: 1,
            kernels: 1,
            snapshots_scanned: store.len() as u64,
            rows_scanned,
            samples: rows_scanned * 2,
        };
        (report, stats)
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
struct RowFacts<'e> {
    /// Routers, in node order.
    routers: Vec<&'e Node>,
    internal_links: usize,
    external_links: usize,
    /// Per end name, the link cells with an end there, a cell with both
    /// ends there counted once (`TopologySnapshot::degree`).
    ends: BTreeMap<&'e str, usize>,
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
    /// The `members` range of the Fig. 6 target's directed set, when
    /// the row has the target group.
    target: Option<Range<usize>>,
}

impl<'e> RowFacts<'e> {
    /// Resolves row `row`. `target` is the Fig. 6 `(from, to)` pair: the
    /// set of its group directed from `from`.
    fn resolve(
        &mut self,
        engine: &QueryEngine<'e>,
        row: usize,
        target: Option<(&str, &str)>,
        maintenance: &mut MaintenancePass,
    ) {
        self.routers.clear();
        self.sites.clear();
        let nodes = engine
            .store()
            .row_node_ids(row)
            .filter_map(|id| engine.node_at(id));
        for node in nodes.filter(|node| node.is_router()) {
            self.routers.push(node);
            if let Some(site) = node.site() {
                self.sites.entry(site.to_owned()).or_default().routers += 1;
            }
        }

        self.internal_links = 0;
        self.external_links = 0;
        self.ends.clear();
        self.cells.clear();
        // Parallel groups: pair rank → kind and member cells in row order.
        let mut groups: BTreeMap<u32, (LinkKind, Vec<Member<'e>>)> = BTreeMap::new();
        for (position, cell) in engine.row_cells(row).enumerate() {
            match cell.kind {
                LinkKind::Internal => self.internal_links += 1,
                LinkKind::External => self.external_links += 1,
            }
            let (first, second) = original_ends(engine, &cell);
            *self.ends.entry(first.0).or_default() += 1;
            if second.0 != first.0 {
                *self.ends.entry(second.0).or_default() += 1;
            }
            self.cells.push(CellFacts {
                kind: cell.kind,
                flipped: cell.flipped,
                key: maintenance.intern(LinkKey::of_ends(first, second)),
            });
            for end in [cell.def.a, cell.def.b] {
                if let Some(site) = engine.node_at(end).and_then(|n| n.site()) {
                    if let Some(entry) = self.sites.get_mut(site) {
                        entry.link_ends += 1;
                    }
                }
            }
            let member = (position, first.0, second.0, cell.flipped);
            groups
                .entry(cell.pair)
                .or_insert((cell.kind, Vec::new()))
                .1
                .push(member);
        }

        // A set `from` an end takes each member's load leaving that end
        // (its first matching end, as `egress_load_from`).
        self.sets.clear();
        self.members.clear();
        self.target = None;
        for (pair, (kind, cells)) in groups {
            let Some((pair_a, pair_b)) = engine.pair_names(pair as usize) else {
                continue;
            };
            for (from, to) in [(pair_a, pair_b), (pair_b, pair_a)] {
                let begin = self.members.len();
                for &(position, first, second, flipped) in &cells {
                    if first == from {
                        self.members.push((position, flipped));
                    } else if second == from {
                        self.members.push((position, !flipped));
                    }
                }
                let set = begin..self.members.len();
                if self.target.is_none() && target == Some((from, to)) {
                    self.target = Some(set.clone());
                }
                self.sets.push((kind, set));
            }
        }
    }

    /// The row's router degrees, in node order (Fig. 4c).
    fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.routers
            .iter()
            .map(|node| self.ends.get(node.name.as_str()).copied().unwrap_or(0))
    }
}

/// A parallel-group member: its cell position, its listed first and
/// second end names, and its orientation flag.
type Member<'e> = (usize, &'e str, &'e str, bool);

/// The original listed orientation of a cell: its first end's name and
/// label, then its second end's.
fn original_ends<'e>(engine: &QueryEngine<'e>, cell: &CellView<'e>) -> (End<'e>, End<'e>) {
    let a = (engine.node_name(cell.def.a), &cell.def.label_a);
    let b = (engine.node_name(cell.def.b), &cell.def.label_b);
    if cell.flipped {
        (b, a)
    } else {
        (a, b)
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
    /// Fig. 4c: degree analysis of the final snapshot, read from its
    /// topology row (`None` on an empty corpus).
    pub degree: Option<DegreeAnalysis>,
    /// Fig. 5a: loads bucketed by hour of day.
    pub hourly: HourlyLoads,
    /// Fig. 5b: load CDFs by link kind.
    pub load_cdf: LoadCdf,
    /// Fig. 5c: ECMP imbalance CDFs.
    pub imbalance: ImbalanceCdf,
    /// Table 1, assembled from the topology row of each map's latest
    /// snapshot.
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
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp, TopologySnapshot};

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
