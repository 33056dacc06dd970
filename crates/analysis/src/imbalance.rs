//! ECMP load-imbalance analysis (Fig. 5c).
//!
//! §5 computes, for each *directed* set of parallel links, the difference
//! between the maximum and the minimum load, after discarding `0 %` loads
//! (unused links) and `1 %` loads (indistinguishable from control
//! traffic) and dropping sets left with fewer than two links.

use wm_model::{LinkKind, TopologySnapshot};

use crate::stats::Distribution;

/// One directed parallel set's imbalance measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupImbalance {
    /// The traffic source endpoint.
    pub from: String,
    /// The traffic destination endpoint.
    pub to: String,
    /// Internal or external.
    pub kind: LinkKind,
    /// Loads considered (after the 0 %/1 % filter), in percent.
    pub loads: Vec<f64>,
    /// `max(loads) - min(loads)`, in percentage points.
    pub imbalance: f64,
}

/// Computes the imbalance of every directed parallel set of a snapshot.
#[must_use]
pub fn group_imbalances(snapshot: &TopologySnapshot) -> Vec<GroupImbalance> {
    let mut out = Vec::new();
    for group in snapshot.parallel_groups() {
        for (from, to) in [(&group.a, &group.b), (&group.b, &group.a)] {
            let loads: Vec<f64> = snapshot
                .loads_from(&group, from)
                .into_iter()
                .filter(|l| !l.is_control_noise())
                .map(|l| l.as_f64())
                .collect();
            if loads.len() < 2 {
                continue; // Sets with a single remaining link are removed.
            }
            let max = loads.iter().copied().fold(f64::MIN, f64::max);
            let min = loads.iter().copied().fold(f64::MAX, f64::min);
            out.push(GroupImbalance {
                from: from.clone(),
                to: to.clone(),
                kind: group.kind,
                loads,
                imbalance: max - min,
            });
        }
    }
    out
}

/// Accumulates imbalances over many snapshots, split by link kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImbalanceCdf {
    internal: Vec<f64>,
    external: Vec<f64>,
}

impl ImbalanceCdf {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> ImbalanceCdf {
        ImbalanceCdf::default()
    }

    /// Adds all directed-set imbalances of one snapshot.
    pub fn add_snapshot(&mut self, snapshot: &TopologySnapshot) {
        for g in group_imbalances(snapshot) {
            self.push(g.kind, g.imbalance);
        }
    }

    /// Adds one directed-set imbalance — the column-driven feeder the
    /// store-backed suite uses. Callers must have applied the 0 %/1 %
    /// filter and the minimum-set-size rule already.
    pub(crate) fn push(&mut self, kind: LinkKind, imbalance: f64) {
        match kind {
            LinkKind::Internal => self.internal.push(imbalance),
            LinkKind::External => self.external.push(imbalance),
        }
    }

    /// Distribution of internal-set imbalances.
    #[must_use]
    pub fn internal(&self) -> Distribution {
        Distribution::new(self.internal.clone())
    }

    /// Distribution of external-set imbalances.
    #[must_use]
    pub fn external(&self) -> Distribution {
        Distribution::new(self.external.clone())
    }

    /// The two headline Fig. 5c facts: fraction of all imbalances ≤ 1
    /// point (paper: > 60 %) and fraction of external imbalances ≤ 2
    /// points (paper: > 90 %).
    #[must_use]
    pub fn headline(&self) -> (f64, f64) {
        let mut all = self.internal.clone();
        all.extend_from_slice(&self.external);
        let all = Distribution::new(all);
        (all.cdf(1.0), self.external().cdf(2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp};

    /// One group of parallel links between r-a and X (router or peering)
    /// with prescribed per-direction loads.
    fn snapshot(loads: &[(u8, u8)], external: bool) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
        let other = if external {
            Node::peering("PEER")
        } else {
            Node::router("r-b")
        };
        s.nodes.push(Node::router("r-a"));
        s.nodes.push(other.clone());
        for (la, lb) in loads {
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), None, Load::new(*la).unwrap()),
                LinkEnd::new(other.clone(), None, Load::new(*lb).unwrap()),
            ));
        }
        s
    }

    #[test]
    fn imbalance_is_max_minus_min_per_direction() {
        let s = snapshot(&[(30, 10), (34, 13)], false);
        let imbalances = group_imbalances(&s);
        assert_eq!(imbalances.len(), 2);
        let from_a = imbalances.iter().find(|g| g.from == "r-a").unwrap();
        assert_eq!(from_a.imbalance, 4.0);
        let from_b = imbalances.iter().find(|g| g.from == "r-b").unwrap();
        assert_eq!(from_b.imbalance, 3.0);
    }

    #[test]
    fn zero_and_one_percent_loads_are_discounted() {
        // Third link disabled (0 %), fourth at control-noise level (1 %).
        let s = snapshot(&[(30, 10), (34, 13), (0, 0), (1, 1)], false);
        let imbalances = group_imbalances(&s);
        for g in &imbalances {
            assert_eq!(g.loads.len(), 2, "filtered loads: {:?}", g.loads);
        }
    }

    #[test]
    fn singleton_sets_are_removed() {
        // Only one link carries usable traffic in each direction.
        let s = snapshot(&[(30, 10), (0, 1)], false);
        assert!(group_imbalances(&s).is_empty());
    }

    #[test]
    fn kinds_are_tracked() {
        let s = snapshot(&[(30, 10), (31, 12)], true);
        let imbalances = group_imbalances(&s);
        assert!(imbalances.iter().all(|g| g.kind == LinkKind::External));
    }

    #[test]
    fn cdf_headline() {
        let mut cdf = ImbalanceCdf::new();
        // Internal group: imbalances 4 and 3 (both directions > 1).
        cdf.add_snapshot(&snapshot(&[(30, 10), (34, 13)], false));
        // External group: imbalances 1 and 2.
        cdf.add_snapshot(&snapshot(&[(20, 10), (21, 12)], true));
        let (all_le_1, external_le_2) = cdf.headline();
        assert!((all_le_1 - 0.25).abs() < 1e-12, "{all_le_1}");
        assert!((external_le_2 - 1.0).abs() < 1e-12);
        assert_eq!(cdf.internal().len(), 2);
        assert_eq!(cdf.external().len(), 2);
    }

    #[test]
    fn perfectly_balanced_group_has_zero_imbalance() {
        let s = snapshot(&[(25, 25), (25, 25), (25, 25)], false);
        for g in group_imbalances(&s) {
            assert_eq!(g.imbalance, 0.0);
        }
    }
}
