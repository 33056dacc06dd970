//! Router-degree analysis (Fig. 4c).

use wm_model::TopologySnapshot;

use crate::stats::Distribution;

/// The degree distribution of a snapshot's OVH routers, parallel links
/// counted individually (the Fig. 4c definition).
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeAnalysis {
    dist: Distribution,
}

impl DegreeAnalysis {
    /// Computes the distribution from a snapshot.
    #[must_use]
    pub fn of(snapshot: &TopologySnapshot) -> DegreeAnalysis {
        let degrees: Vec<f64> = snapshot
            .router_degrees()
            .into_iter()
            .map(|d| d as f64)
            .collect();
        DegreeAnalysis {
            dist: Distribution::new(degrees),
        }
    }

    /// The underlying distribution.
    #[must_use]
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// Fraction of routers with exactly one link (the paper: more than
    /// 20 % — routers whose other connections live outside the map).
    #[must_use]
    pub fn fraction_single_link(&self) -> f64 {
        if self.dist.is_empty() {
            return 0.0;
        }
        let singles = self.dist.samples().iter().filter(|d| **d == 1.0).count();
        singles as f64 / self.dist.len() as f64
    }

    /// Fraction of routers with more than `threshold` links (the paper:
    /// more than 20 % of routers have more than 20 links).
    #[must_use]
    pub fn fraction_above(&self, threshold: usize) -> f64 {
        self.dist.ccdf(threshold as f64)
    }

    /// The CCDF evaluated at each distinct degree — the Fig. 4c curve.
    #[must_use]
    pub fn ccdf_points(&self) -> Vec<(f64, f64)> {
        self.dist
            .cdf_points()
            .into_iter()
            .map(|(x, cdf)| (x, 1.0 - cdf))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp};

    /// A snapshot with routers of prescribed degrees (via a star around a
    /// peering hub so degrees are controlled exactly).
    fn snapshot_with_degrees(degrees: &[usize]) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
        s.nodes.push(Node::peering("HUB"));
        for (i, d) in degrees.iter().enumerate() {
            let name = format!("r-{i}");
            s.nodes.push(Node::router(name.clone()));
            for _ in 0..*d {
                s.links.push(Link::new(
                    LinkEnd::new(Node::router(name.clone()), None, Load::ZERO),
                    LinkEnd::new(Node::peering("HUB"), None, Load::ZERO),
                ));
            }
        }
        s
    }

    #[test]
    fn fractions_match_prescription() {
        let s = snapshot_with_degrees(&[1, 1, 5, 25, 30]);
        let a = DegreeAnalysis::of(&s);
        assert!((a.fraction_single_link() - 0.4).abs() < 1e-12);
        assert!((a.fraction_above(20) - 0.4).abs() < 1e-12);
        assert!((a.fraction_above(4) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ccdf_points_decrease() {
        let s = snapshot_with_degrees(&[1, 2, 2, 7]);
        let points = DegreeAnalysis::of(&s).ccdf_points();
        assert_eq!(points.len(), 3);
        assert!(points.windows(2).all(|w| w[0].1 > w[1].1));
        // After the largest degree, nothing remains.
        assert_eq!(points.last().unwrap().1, 0.0);
    }

    #[test]
    fn peerings_are_excluded() {
        let s = snapshot_with_degrees(&[3]);
        let a = DegreeAnalysis::of(&s);
        // One router with degree 3; the HUB peering must not count.
        assert_eq!(a.distribution().len(), 1);
        assert_eq!(a.distribution().samples()[0], 3.0);
    }

    #[test]
    fn empty_snapshot() {
        let s = TopologySnapshot::new(MapKind::World, Timestamp::from_unix(0));
        let a = DegreeAnalysis::of(&s);
        assert_eq!(a.fraction_single_link(), 0.0);
        assert_eq!(a.fraction_above(1), 0.0);
    }
}
