//! Property tests for the vectorized query engine and the §5 suite:
//! every kernel, and every artifact of `AnalysisSuite::run_store`, must
//! agree exactly — field for field — with a naive reference computed
//! from the snapshots themselves, on arbitrary fault-injected two-map
//! histories (absent links, disabled samples, reversed listings,
//! parallel groups, several sites, a mid-history router addition, empty
//! and partial ranges, `k` larger than the link count), the kernels at
//! more than one thread count.

use std::collections::{BTreeMap, BTreeSet};

use ovh_weather::analysis::{
    site_counts, EvolutionReport, LinkKey, MaintenanceReport, MaintenanceWindow, SiteGrowth,
    TimeframeReport, UpgradeOutcome, UpgradeTarget,
};
use ovh_weather::prelude::*;
use proptest::prelude::*;

const SITES: [&str; 3] = ["rbx", "gra", "fra"];

fn base() -> Timestamp {
    Timestamp::from_ymd(2022, 2, 1)
}

/// SplitMix64-style deterministic mixing: the only randomness source of
/// a generated history, so every failure reproduces from its inputs.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ 0xD1B5_4A32_D192_ED03;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

struct Candidate {
    a: String,
    b: String,
    label: Option<String>,
}

/// The full link universe of a history: parallel internal links between
/// every router pair (distinguished by `#n` labels) plus one external
/// link per router–peering pair.
fn candidates(routers: &[String], peerings: &[String], parallels: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    for i in 0..routers.len() {
        for j in (i + 1)..routers.len() {
            for m in 0..parallels {
                out.push(Candidate {
                    a: routers[i].clone(),
                    b: routers[j].clone(),
                    label: Some(format!("#{}", m + 1)),
                });
            }
        }
        for p in peerings {
            out.push(Candidate {
                a: routers[i].clone(),
                b: p.clone(),
                label: None,
            });
        }
    }
    out
}

fn router_names(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| format!("{}-r{i}", SITES[i % SITES.len()]))
        .collect()
}

/// A fault-injected history of two maps, in store order. Europe is
/// drawn every 30 minutes, and its last router only joins halfway
/// through. World is drawn 10 minutes after every other Europe slot,
/// over the first two routers and one peering, so Table 1 has two rows
/// sharing router names. Presence and orientation are drawn per
/// topology epoch (three Europe slots), loads per snapshot, so
/// consecutive snapshots of one map share a topology row. Every 7th
/// (link, epoch) cell is a hole (the link is absent from the map),
/// every 5th directed sample reads `0 %` (disabled), and every 3rd
/// present link is listed in reversed orientation.
fn history(seed: u64, snapshots: usize, routers: usize, parallels: usize) -> Vec<TopologySnapshot> {
    let routers = router_names(routers);
    let peerings = vec!["ARELION".to_owned(), "GOOGLE".to_owned()];
    let cands = candidates(&routers, &peerings, parallels);
    let node = |name: &str| {
        if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Node::peering(name)
        } else {
            Node::router(name)
        }
    };
    let draw = |map: MapKind, ts: Timestamp, epoch: usize, nodes: &[String]| {
        let mut s = TopologySnapshot::new(map, ts);
        s.nodes.extend(nodes.iter().map(|name| node(name)));
        let present = |name: &String| nodes.contains(name);
        for (li, c) in cands.iter().enumerate() {
            let e = mix(!seed, epoch as u64, li as u64);
            if e.is_multiple_of(7) || !present(&c.a) || !present(&c.b) {
                continue;
            }
            let m = mix(seed, ts.unix() as u64, li as u64);
            let la = if m.is_multiple_of(5) {
                0
            } else {
                ((m >> 8) % 101) as u8
            };
            let lb = if (m >> 16).is_multiple_of(5) {
                0
            } else {
                ((m >> 24) % 101) as u8
            };
            let end_a = LinkEnd::new(node(&c.a), c.label.clone(), Load::new(la).unwrap());
            let end_b = LinkEnd::new(node(&c.b), c.label.clone(), Load::new(lb).unwrap());
            if e.is_multiple_of(3) {
                s.links.push(Link::new(end_b, end_a));
            } else {
                s.links.push(Link::new(end_a, end_b));
            }
        }
        s
    };
    let mut all = Vec::new();
    for t in 0..snapshots {
        let ts = base() + Duration::from_minutes(30 * t as i64);
        let joined = if 2 * t < snapshots {
            routers.len() - 1
        } else {
            routers.len()
        };
        let europe: Vec<String> = routers[..joined].iter().chain(&peerings).cloned().collect();
        all.push(draw(MapKind::Europe, ts, t / 3, &europe));
        if t % 2 == 1 {
            let world: Vec<String> = routers[..2].iter().chain(&peerings[..1]).cloned().collect();
            let at = ts + Duration::from_minutes(10);
            all.push(draw(MapKind::World, at, t / 3, &world));
        }
    }
    all
}

/// Mirrors the store's canonical link orientation: ends ordered by
/// `(name, kind, label)`.
fn canonical(link: &Link) -> (&LinkEnd, &LinkEnd) {
    let key = |e: &LinkEnd| {
        (
            e.node.name.to_string(),
            format!("{:?}", e.node.kind),
            e.label.clone(),
        )
    };
    if key(&link.b) < key(&link.a) {
        (&link.b, &link.a)
    } else {
        (&link.a, &link.b)
    }
}

/// The engine's `name label <-> name label` display, from the canonical
/// orientation.
fn display(link: &Link) -> String {
    let (first, second) = canonical(link);
    let end = |e: &LinkEnd| match &e.label {
        Some(l) => format!("{} {}", e.node.name, l),
        None => e.node.name.to_string(),
    };
    format!("{} <-> {}", end(first), end(second))
}

/// Link identities in the order the columnar builder interns them:
/// first appearance over the full history, snapshots then links in
/// input order.
fn def_order(all: &[TopologySnapshot]) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    for s in all {
        for l in &s.links {
            let d = display(l);
            if seen.insert(d.clone()) {
                order.push(d);
            }
        }
    }
    order
}

fn selected(link: &Link, filter: &LinkFilter) -> bool {
    if let Some(kind) = filter.kind {
        if link.kind() != kind {
            return false;
        }
    }
    if let Some(site) = &filter.site {
        let hit = [&link.a, &link.b]
            .iter()
            .any(|e| e.node.site() == Some(site.as_str()));
        if !hit {
            return false;
        }
    }
    true
}

/// Nearest-rank percentile over raw percentage samples.
fn percentile(sorted: &[u8], pct: u64) -> u8 {
    let total = sorted.len() as u64;
    let rank = (total * pct).div_ceil(100).max(1);
    sorted.get(rank as usize - 1).copied().unwrap_or(0)
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    sum: u64,
    peak: u8,
}

impl Agg {
    fn add(&mut self, load: u8) {
        self.count += 1;
        self.sum += u64::from(load);
        self.peak = self.peak.max(load);
    }
}

/// The naive reference: reconstruct every snapshot, filter and fold in
/// plain per-snapshot loops — no columns, no chunking, no engine.
fn reference(all: &[TopologySnapshot], query: &Query) -> QueryOutput {
    let in_range: Vec<&TopologySnapshot> = all
        .iter()
        .filter(|s| query.range.contains(s.timestamp))
        .collect();
    let snapshots = in_range.len() as u64;
    let rows: u64 = in_range.iter().map(|s| s.links.len() as u64).sum();
    fn picked<'a>(s: &'a TopologySnapshot, filter: &LinkFilter) -> Vec<&'a Link> {
        s.links.iter().filter(|l| selected(l, filter)).collect()
    }
    let selected_rows: u64 = in_range
        .iter()
        .map(|s| picked(s, &query.filter).len() as u64)
        .sum();

    let (samples, result) = match query.op {
        QueryOp::Scan => {
            let mut stats = ScanStats::default();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    for load in [l.a.egress_load.percent(), l.b.egress_load.percent()] {
                        stats.samples += 1;
                        stats.disabled += u64::from(load == 0);
                        stats.sum += u64::from(load);
                        stats.peak = stats.peak.max(load);
                    }
                }
            }
            (stats.samples, QueryResult::Scan(stats))
        }
        QueryOp::TopK { k } => {
            let order = def_order(all);
            let mut aggs: BTreeMap<&str, (Agg, LinkKind)> = BTreeMap::new();
            let mut names: BTreeMap<String, LinkKind> = BTreeMap::new();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    names.entry(display(l)).or_insert_with(|| l.kind());
                }
            }
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    let d = display(l);
                    let (name, kind) = names.get_key_value(&d).expect("interned");
                    let entry = aggs.entry(name.as_str()).or_insert((Agg::default(), *kind));
                    entry.0.add(l.a.egress_load.percent());
                    entry.0.add(l.b.egress_load.percent());
                }
            }
            let rank_of = |name: &str| order.iter().position(|d| d == name).unwrap_or(usize::MAX);
            let mut candidates: Vec<(&str, Agg, LinkKind)> = aggs
                .iter()
                .map(|(name, (agg, kind))| (*name, *agg, *kind))
                .collect();
            candidates.sort_by(|x, y| {
                y.1.peak
                    .cmp(&x.1.peak)
                    .then_with(|| {
                        (u128::from(y.1.sum) * u128::from(x.1.count))
                            .cmp(&(u128::from(x.1.sum) * u128::from(y.1.count)))
                    })
                    .then_with(|| rank_of(x.0).cmp(&rank_of(y.0)))
            });
            candidates.truncate(k);
            let top: Vec<HotLink> = candidates
                .into_iter()
                .map(|(name, agg, kind)| HotLink {
                    link: name.to_owned(),
                    kind,
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
                .collect();
            (selected_rows * 2, QueryResult::TopK(top))
        }
        QueryOp::Percentiles { window } => {
            let mut windows: Vec<(Timestamp, Vec<u8>)> = Vec::new();
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                if windows.last().map(|w| w.0) != Some(start) {
                    windows.push((start, Vec::new()));
                }
                let bucket = &mut windows.last_mut().expect("window").1;
                for l in picked(s, &query.filter) {
                    bucket.push(l.a.egress_load.percent());
                    bucket.push(l.b.egress_load.percent());
                }
            }
            let stats: Vec<WindowStats> = windows
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(start, mut v)| {
                    v.sort_unstable();
                    WindowStats {
                        start,
                        samples: v.len() as u64,
                        p50: percentile(&v, 50),
                        p90: percentile(&v, 90),
                        p99: percentile(&v, 99),
                        max: v.last().copied().unwrap_or(0),
                    }
                })
                .collect();
            (selected_rows * 2, QueryResult::Percentiles(stats))
        }
        QueryOp::SiteLoads => {
            let mut sites: BTreeMap<String, Agg> = BTreeMap::new();
            for s in &in_range {
                for l in picked(s, &query.filter) {
                    for e in [&l.a, &l.b] {
                        if let Some(site) = e.node.site() {
                            sites
                                .entry(site.to_owned())
                                .or_default()
                                .add(e.egress_load.percent());
                        }
                    }
                }
            }
            let samples: u64 = sites.values().map(|a| a.count).sum();
            let loads: Vec<SiteLoad> = sites
                .into_iter()
                .map(|(site, agg)| SiteLoad {
                    site,
                    samples: agg.count,
                    sum: agg.sum,
                    peak: agg.peak,
                })
                .collect();
            (samples, QueryResult::SiteLoads(loads))
        }
        QueryOp::Heatmap { window } => {
            let mut starts: Vec<Timestamp> = Vec::new();
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                if starts.last() != Some(&start) {
                    starts.push(start);
                }
            }
            let pair_of = |l: &Link| {
                let (x, y) = (l.a.node.name.to_string(), l.b.node.name.to_string());
                if y < x {
                    (y, x)
                } else {
                    (x, y)
                }
            };
            let used: BTreeSet<(String, String)> = in_range
                .iter()
                .flat_map(|s| picked(s, &query.filter).into_iter().map(pair_of))
                .collect();
            let groups: Vec<(String, String)> = used.into_iter().collect();
            let columns = groups.len();
            let mut cells = vec![HeatmapCell::default(); starts.len() * columns];
            let mut samples = 0u64;
            for s in &in_range {
                let start = s.timestamp.align_down(window);
                let widx = starts.iter().position(|&w| w == start).expect("window");
                for l in picked(s, &query.filter) {
                    let col = groups
                        .iter()
                        .position(|g| *g == pair_of(l))
                        .expect("used group");
                    samples += 2;
                    let cell = &mut cells[widx * columns + col];
                    cell.samples += 2;
                    cell.sum +=
                        u64::from(l.a.egress_load.percent()) + u64::from(l.b.egress_load.percent());
                    cell.peak = cell
                        .peak
                        .max(l.a.egress_load.percent())
                        .max(l.b.egress_load.percent());
                }
            }
            (
                samples,
                QueryResult::Heatmap(HeatmapGrid {
                    starts,
                    groups: groups
                        .into_iter()
                        .map(|(x, y)| format!("{x} -- {y}"))
                        .collect(),
                    cells,
                }),
            )
        }
    };

    QueryOutput {
        snapshots,
        rows,
        samples,
        result,
    }
}

/// The unordered-pair maintenance identity of a link: ends ordered by
/// name, labels following their end, ties keeping the listed order.
fn link_key(link: &Link) -> LinkKey {
    let (a, b) = if link.b.node.name < link.a.node.name {
        (&link.b, &link.a)
    } else {
        (&link.a, &link.b)
    };
    LinkKey {
        a: a.node.name.to_string(),
        b: b.node.name.to_string(),
        label_a: a.label.clone(),
        label_b: b.label.clone(),
    }
}

/// Per-site growth: each site's counts where it is first and last seen,
/// fastest link growth first, ties by name.
fn naive_sites(all: &[TopologySnapshot]) -> Vec<SiteGrowth> {
    let mut sites: BTreeMap<String, SiteGrowth> = BTreeMap::new();
    for s in all {
        for (site, counts) in site_counts(s) {
            let growth = sites.entry(site.clone()).or_insert(SiteGrowth {
                site,
                first: counts,
                last: counts,
                first_seen: s.timestamp,
                last_seen: s.timestamp,
            });
            growth.last = counts;
            growth.last_seen = s.timestamp;
        }
    }
    let mut out: Vec<SiteGrowth> = sites.into_values().collect();
    out.sort_by(|x, y| {
        y.link_growth()
            .cmp(&x.link_growth())
            .then(x.site.cmp(&y.site))
    });
    out
}

/// Maintenance windows as per-link runs of disabled observations; runs
/// still open at the end are reported too.
fn naive_maintenance(all: &[TopologySnapshot]) -> MaintenanceReport {
    let mut open: BTreeMap<LinkKey, MaintenanceWindow> = BTreeMap::new();
    let mut windows = Vec::new();
    let (mut observations, mut disabled) = (0, 0);
    for s in all {
        for link in &s.links {
            observations += 1;
            let key = link_key(link);
            if link.is_disabled() {
                disabled += 1;
                let run = open.entry(key.clone()).or_insert(MaintenanceWindow {
                    link: key,
                    start: s.timestamp,
                    end: s.timestamp,
                    snapshots: 0,
                });
                run.end = s.timestamp;
                run.snapshots += 1;
            } else if let Some(run) = open.remove(&key) {
                windows.push(run);
            }
        }
    }
    windows.extend(open.into_values());
    windows.sort_by(|x, y| (x.start, &x.link).cmp(&(y.start, &y.link)));
    MaintenanceReport {
        windows,
        observations,
        disabled,
    }
}

/// The naive suite reference: the per-figure slice functions applied to
/// the snapshots, plus the two folds above for the artifacts whose
/// library functions share the suite's own accumulators.
fn naive_suite(all: &[TopologySnapshot], config: &SuiteConfig) -> SuiteReport {
    let times: Vec<Timestamp> = all.iter().map(|s| s.timestamp).collect();
    let series = evolution_series(all);
    let mut hourly = HourlyLoads::new();
    let mut load_cdf = LoadCdf::new();
    let mut imbalance = ImbalanceCdf::new();
    for s in all {
        hourly.add_snapshot(s);
        load_cdf.add_snapshot(s);
        imbalance.add_snapshot(s);
    }
    let mut finals: Vec<TopologySnapshot> = Vec::new();
    for s in all.iter().rev() {
        if finals.iter().all(|f| f.map != s.map) {
            finals.push(s.clone());
        }
    }
    let upgrade = config.upgrade.as_ref().map(|target| {
        let observations: Vec<_> = all
            .iter()
            .filter_map(|s| observe_group(s, &target.from, &target.to))
            .collect();
        let report = detect_upgrade(&observations, &target.records);
        UpgradeOutcome {
            observations,
            report,
        }
    });
    SuiteReport {
        snapshots: all.len(),
        timeframe: TimeframeReport {
            segments: coverage_segments(&times, config.max_gap),
            gaps: GapDistribution::new(&times),
        },
        evolution: EvolutionReport {
            router_events: detect_changes(&series, |p| p.routers, config.min_router_delta),
            internal_link_events: detect_changes(
                &series,
                |p| p.internal_links,
                config.min_link_delta,
            ),
            series,
        },
        degree: all.last().map(DegreeAnalysis::of),
        hourly,
        load_cdf,
        imbalance,
        table1: table1(&finals),
        sites: naive_sites(all),
        maintenance: naive_maintenance(all),
        upgrade,
    }
}

/// A link with both ends at one router counts once in that router's
/// degree, as `TopologySnapshot::degree` counts it; generated histories
/// never draw such a link.
#[test]
fn a_loop_counts_once_in_the_final_degree() {
    let end = |node: Node| LinkEnd::new(node, None, Load::new(10).unwrap());
    let mut s = TopologySnapshot::new(MapKind::Europe, base());
    s.nodes = vec![Node::router("rbx-r0"), Node::peering("ARELION")];
    s.links.push(Link::new(
        end(Node::router("rbx-r0")),
        end(Node::router("rbx-r0")),
    ));
    s.links.push(Link::new(
        end(Node::router("rbx-r0")),
        end(Node::peering("ARELION")),
    ));
    let all = vec![s];
    let config = SuiteConfig::default();
    let (report, _) =
        AnalysisSuite::run_store(config.clone(), &LongitudinalStore::from_snapshots(&all));
    assert_eq!(report, naive_suite(&all, &config));
    let degree = report.degree.expect("one router");
    assert_eq!(degree.distribution().samples(), &[2.0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any kernel, filter and (possibly empty) range over any
    /// fault-injected history: the vectorized engine must equal the
    /// naive reconstruction reference exactly, at one thread and at
    /// several.
    #[test]
    fn kernels_match_the_naive_reference(
        seed in 0u64..1_000,
        snapshots in 0usize..10,
        routers in 2usize..6,
        parallels in 1usize..4,
        op_idx in 0usize..5,
        kind_idx in 0usize..3,
        site_idx in 0usize..4,
        from_slot in 0i64..12,
        span in 0i64..12,
        k in 1usize..40,
        window_hours in 1u64..4,
    ) {
        let all = history(seed, snapshots, routers, parallels);
        let window = Duration::from_hours(window_hours as i64);
        let op = match op_idx {
            0 => QueryOp::Scan,
            1 => QueryOp::TopK { k },
            2 => QueryOp::Percentiles { window },
            3 => QueryOp::SiteLoads,
            _ => QueryOp::Heatmap { window },
        };
        let mut query = Query::new(op);
        // Partial and empty ranges: `span == 0` selects nothing.
        let from = base() + Duration::from_minutes(30 * from_slot);
        query = query.in_range(TimeRange::new(from, from + Duration::from_minutes(30 * span)));
        match kind_idx {
            1 => query = query.of_kind(LinkKind::Internal),
            2 => query = query.of_kind(LinkKind::External),
            _ => {}
        }
        match site_idx {
            1 => query = query.at_site("rbx"),
            2 => query = query.at_site("gra"),
            3 => query = query.at_site("zzz"), // unknown site: empty selection
            _ => {}
        }

        let store = LongitudinalStore::from_snapshots(&all);
        let expected = reference(&all, &query);
        for threads in [1usize, 3] {
            let mut engine = QueryEngine::new(&store);
            let output = engine.run(&query, threads);
            prop_assert_eq!(
                &output, &expected,
                "seed {} snapshots {} threads {}: {:?}", seed, snapshots, threads, query
            );
        }
    }

    /// Any suite configuration over any fault-injected two-map history,
    /// with or without a Fig. 6 target (a parallel internal group, or an
    /// external link, from either end): `run_store` over the columnar
    /// store must equal the naive reference over the snapshots.
    #[test]
    fn suite_matches_the_naive_reference(
        seed in 0u64..1_000,
        snapshots in 0usize..12,
        routers in 2usize..6,
        parallels in 1usize..4,
        max_gap_minutes in 5i64..45,
        min_router_delta in 1usize..3,
        min_link_delta in 1usize..6,
        target_idx in 0usize..4,
        record_slot in 0i64..12,
        capacity in 1u32..800,
    ) {
        let all = history(seed, snapshots, routers, parallels);
        let names = router_names(routers);
        let upgrade = match target_idx {
            1 => Some((names[0].clone(), names[1].clone())),
            2 => Some((names[1].clone(), names[0].clone())),
            3 => Some((names[0].clone(), "ARELION".to_owned())),
            _ => None,
        }
        .map(|(from, to)| UpgradeTarget {
            from,
            to,
            records: vec![
                CapacityRecord {
                    at: base() - Duration::from_days(30),
                    total_capacity_gbps: 100,
                },
                CapacityRecord {
                    at: base() + Duration::from_minutes(30 * record_slot),
                    total_capacity_gbps: capacity,
                },
            ],
        });
        let config = SuiteConfig {
            max_gap: Duration::from_minutes(max_gap_minutes),
            min_router_delta,
            min_link_delta,
            upgrade,
        };

        let store = LongitudinalStore::from_snapshots(&all);
        // Two Europe slots of one epoch lead every history, so from six
        // slots on some snapshots share a row and the row-run paths run.
        if snapshots >= 6 {
            prop_assert!(store.topology_rows() < store.len(), "seed {} snapshots {}", seed, snapshots);
        }
        let (report, stats) = AnalysisSuite::run_store(config.clone(), &store);
        prop_assert_eq!(&report, &naive_suite(&all, &config), "seed {} snapshots {}", seed, snapshots);
        let links: usize = all.iter().map(|s| s.links.len()).sum();
        prop_assert_eq!(stats.snapshots_scanned, all.len() as u64);
        prop_assert_eq!(stats.rows_scanned, links as u64);
    }
}
