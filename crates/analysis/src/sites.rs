//! Per-site growth analysis — the paper's stated future work.
//!
//! §5 closes its Fig. 4 discussion with: *"Future work could use router
//! names to identify the spread of these variations in the network, e.g.,
//! to find whether some parts of the network are growing faster than
//! others."* Router names encode their point of presence
//! (`rbx-g1-nc5` → site `rbx`), so this module groups the evolution
//! series by site prefix and ranks sites by growth.

use std::collections::BTreeMap;

use wm_model::{Timestamp, TopologySnapshot};

/// Router and attached-link counts of one site at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteCounts {
    /// Routers whose name carries this site prefix.
    pub routers: usize,
    /// Link endpoints attached to those routers (parallel links counted;
    /// a link internal to the site counts once per attached end).
    pub link_ends: usize,
}

/// Counts routers and attached link ends per site prefix.
#[must_use]
pub fn site_counts(snapshot: &TopologySnapshot) -> BTreeMap<String, SiteCounts> {
    let mut counts: BTreeMap<String, SiteCounts> = BTreeMap::new();
    for router in snapshot.routers() {
        if let Some(site) = router.site() {
            counts.entry(site.to_owned()).or_default().routers += 1;
        }
    }
    for link in &snapshot.links {
        for end in [&link.a, &link.b] {
            if let Some(site) = end.node.site() {
                if let Some(entry) = counts.get_mut(site) {
                    entry.link_ends += 1;
                }
            }
        }
    }
    counts
}

/// One site's first/last counts over a series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteGrowth {
    /// Site prefix (`rbx`, `gra`, …).
    pub site: String,
    /// Counts at the first snapshot the site appears in.
    pub first: SiteCounts,
    /// Counts at the last snapshot the site appears in.
    pub last: SiteCounts,
    /// When the site was first seen.
    pub first_seen: Timestamp,
    /// When the site was last seen.
    pub last_seen: Timestamp,
}

impl SiteGrowth {
    /// Net link-end growth over the observation span.
    #[must_use]
    pub fn link_growth(&self) -> i64 {
        self.last.link_ends as i64 - self.first.link_ends as i64
    }

    /// Net router growth over the observation span.
    #[must_use]
    pub fn router_growth(&self) -> i64 {
        self.last.routers as i64 - self.first.routers as i64
    }
}

/// Computes per-site growth over a time-ordered snapshot series, sorted
/// by descending link growth (the "which parts grow fastest" ranking).
#[must_use]
pub fn site_growth(snapshots: &[TopologySnapshot]) -> Vec<SiteGrowth> {
    let mut pass = SitesPass::default();
    for snapshot in snapshots {
        pass.observe_run(
            snapshot.timestamp,
            snapshot.timestamp,
            &site_counts(snapshot),
        );
    }
    pass.finish()
}

/// The streaming accumulator behind [`site_growth`], shared with the
/// suite.
#[derive(Debug, Clone, Default)]
pub(crate) struct SitesPass {
    growth: BTreeMap<String, SiteGrowth>,
}

impl SitesPass {
    /// Folds the per-site counts shared by a run of snapshots stamped
    /// `first..=last`. Snapshots arrive in non-decreasing time order, so
    /// the run's first snapshot alone can set a site's first counts and
    /// its last alone its last counts: one call is exactly one
    /// observation per snapshot of the run (`first == last` for one).
    pub(crate) fn observe_run(
        &mut self,
        first: Timestamp,
        last: Timestamp,
        counts: &BTreeMap<String, SiteCounts>,
    ) {
        for (site, &counts) in counts {
            match self.growth.get_mut(site) {
                Some(g) => {
                    if last >= g.last_seen {
                        g.last = counts;
                        g.last_seen = last;
                    }
                    if first < g.first_seen {
                        g.first = counts;
                        g.first_seen = first;
                    }
                }
                None => {
                    self.growth.insert(
                        site.clone(),
                        SiteGrowth {
                            site: site.clone(),
                            first: counts,
                            last: counts,
                            first_seen: first,
                            last_seen: last,
                        },
                    );
                }
            }
        }
    }

    /// Ranks the sites by descending link growth, ties by name.
    pub(crate) fn finish(self) -> Vec<SiteGrowth> {
        let mut out: Vec<SiteGrowth> = self.growth.into_values().collect();
        out.sort_by(|a, b| {
            b.link_growth()
                .cmp(&a.link_growth())
                .then(a.site.cmp(&b.site))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node};

    fn snapshot(unix: i64, spec: &[(&str, usize)]) -> TopologySnapshot {
        // spec: (site, routers); each router links once to a shared hub.
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(unix));
        s.nodes.push(Node::peering("HUB"));
        for (site, routers) in spec {
            for i in 0..*routers {
                let name = format!("{site}-g{i}-nc{i}");
                s.nodes.push(Node::router(name.clone()));
                s.links.push(Link::new(
                    LinkEnd::new(Node::router(name), None, Load::ZERO),
                    LinkEnd::new(Node::peering("HUB"), None, Load::ZERO),
                ));
            }
        }
        s
    }

    #[test]
    fn counts_group_by_prefix() {
        let s = snapshot(0, &[("rbx", 3), ("gra", 1)]);
        let counts = site_counts(&s);
        assert_eq!(
            counts["rbx"],
            SiteCounts {
                routers: 3,
                link_ends: 3
            }
        );
        assert_eq!(
            counts["gra"],
            SiteCounts {
                routers: 1,
                link_ends: 1
            }
        );
        assert!(!counts.contains_key("HUB"), "peerings have no site");
    }

    #[test]
    fn intra_site_links_count_once_per_end() {
        let mut s = snapshot(0, &[("rbx", 2)]);
        s.links.push(Link::new(
            LinkEnd::new(Node::router("rbx-g0-nc0"), None, Load::ZERO),
            LinkEnd::new(Node::router("rbx-g1-nc1"), None, Load::ZERO),
        ));
        let counts = site_counts(&s);
        assert_eq!(counts["rbx"].link_ends, 4);
    }

    #[test]
    fn growth_ranks_fastest_site_first() {
        let series = vec![
            snapshot(0, &[("rbx", 2), ("gra", 2)]),
            snapshot(86_400, &[("rbx", 5), ("gra", 2)]),
        ];
        let growth = site_growth(&series);
        assert_eq!(growth[0].site, "rbx");
        assert_eq!(growth[0].router_growth(), 3);
        assert_eq!(growth[0].link_growth(), 3);
        assert_eq!(growth[1].site, "gra");
        assert_eq!(growth[1].link_growth(), 0);
    }

    #[test]
    fn sites_appearing_later_use_their_own_span() {
        let series = vec![
            snapshot(0, &[("rbx", 2)]),
            snapshot(86_400, &[("rbx", 2), ("waw", 1)]),
            snapshot(2 * 86_400, &[("rbx", 2), ("waw", 3)]),
        ];
        let growth = site_growth(&series);
        let waw = growth.iter().find(|g| g.site == "waw").unwrap();
        assert_eq!(waw.first_seen, Timestamp::from_unix(86_400));
        assert_eq!(waw.router_growth(), 2);
    }

    #[test]
    fn empty_series() {
        assert!(site_growth(&[]).is_empty());
    }
}
