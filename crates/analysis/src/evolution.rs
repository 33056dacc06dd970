//! Network-infrastructure evolution series (Fig. 4a and Fig. 4b).

use wm_model::{Timestamp, TopologySnapshot};

/// One point of the infrastructure evolution series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvolutionPoint {
    /// The snapshot instant.
    pub timestamp: Timestamp,
    /// OVH routers on the map (Fig. 4a's y-axis).
    pub routers: usize,
    /// Internal links (Fig. 4b, solid series).
    pub internal_links: usize,
    /// External links (Fig. 4b, dashed series).
    pub external_links: usize,
}

/// Builds the evolution series from snapshots (any order; sorted on
/// return).
#[must_use]
pub fn evolution_series(snapshots: &[TopologySnapshot]) -> Vec<EvolutionPoint> {
    let mut series: Vec<EvolutionPoint> = snapshots
        .iter()
        .map(|s| EvolutionPoint {
            timestamp: s.timestamp,
            routers: s.router_count(),
            internal_links: s.internal_link_count(),
            external_links: s.external_link_count(),
        })
        .collect();
    series.sort_by_key(|p| p.timestamp);
    series
}

/// A detected abrupt change in a count series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangeEvent {
    /// When the change was first visible.
    pub at: Timestamp,
    /// Count before.
    pub before: usize,
    /// Count after.
    pub after: usize,
}

impl ChangeEvent {
    /// Signed magnitude of the change.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.after as i64 - self.before as i64
    }
}

/// Finds points where `metric` jumps by at least `min_delta` between
/// consecutive snapshots — the router additions/removals and link steps
/// §5 narrates.
#[must_use]
pub fn detect_changes(
    series: &[EvolutionPoint],
    metric: fn(&EvolutionPoint) -> usize,
    min_delta: usize,
) -> Vec<ChangeEvent> {
    let mut events = Vec::new();
    for pair in series.windows(2) {
        let before = metric(&pair[0]);
        let after = metric(&pair[1]);
        if before.abs_diff(after) >= min_delta {
            events.push(ChangeEvent {
                at: pair[1].timestamp,
                before,
                after,
            });
        }
    }
    events
}

/// The finished evolution artifact: the Fig. 4a/4b series plus the
/// change events §5 narrates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvolutionReport {
    /// The evolution series, sorted by timestamp.
    pub series: Vec<EvolutionPoint>,
    /// Router-count steps of at least the configured delta.
    pub router_events: Vec<ChangeEvent>,
    /// Internal-link-count steps of at least the configured delta.
    pub internal_link_events: Vec<ChangeEvent>,
}

/// The suite's streaming accumulator for an [`EvolutionReport`]: the
/// fold form of [`evolution_series`] + [`detect_changes`].
#[derive(Debug, Clone)]
pub(crate) struct EvolutionPass {
    min_router_delta: usize,
    min_link_delta: usize,
    series: Vec<EvolutionPoint>,
}

impl EvolutionPass {
    /// Creates an accumulator with the given change-detection
    /// thresholds.
    pub(crate) fn new(min_router_delta: usize, min_link_delta: usize) -> EvolutionPass {
        EvolutionPass {
            min_router_delta,
            min_link_delta,
            series: Vec::new(),
        }
    }

    /// Records one snapshot's counts.
    pub(crate) fn observe_counts(
        &mut self,
        timestamp: Timestamp,
        routers: usize,
        internal_links: usize,
        external_links: usize,
    ) {
        self.series.push(EvolutionPoint {
            timestamp,
            routers,
            internal_links,
            external_links,
        });
    }

    /// Sorts the series and detects its change events.
    pub(crate) fn finish(mut self) -> EvolutionReport {
        self.series.sort_by_key(|p| p.timestamp);
        let router_events = detect_changes(&self.series, |p| p.routers, self.min_router_delta);
        let internal_link_events =
            detect_changes(&self.series, |p| p.internal_links, self.min_link_delta);
        EvolutionReport {
            series: self.series,
            router_events,
            internal_link_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node};

    fn snapshot(unix: i64, routers: usize, internal: usize, external: usize) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(unix));
        for i in 0..routers {
            s.nodes.push(Node::router(format!("r-{i}")));
        }
        s.nodes.push(Node::peering("PEER"));
        let link = |a: String, b: String| {
            Link::new(
                LinkEnd::new(Node::from_name(a), None, Load::ZERO),
                LinkEnd::new(Node::from_name(b), None, Load::ZERO),
            )
        };
        for i in 0..internal {
            s.links.push(link(
                format!("r-{}", i % routers),
                format!("r-{}", (i + 1) % routers),
            ));
        }
        for _ in 0..external {
            s.links.push(link("r-0".into(), "PEER".into()));
        }
        s
    }

    #[test]
    fn series_is_sorted_and_counts_match() {
        let snaps = vec![snapshot(600, 5, 4, 2), snapshot(0, 4, 3, 1)];
        let series = evolution_series(&snaps);
        assert_eq!(series[0].timestamp, Timestamp::from_unix(0));
        assert_eq!(series[0].routers, 4);
        assert_eq!(series[1].internal_links, 4);
        assert_eq!(series[1].external_links, 2);
    }

    #[test]
    fn change_detection_finds_steps() {
        let snaps: Vec<TopologySnapshot> = (0..10)
            .map(|i| {
                let internal = if i < 5 { 10 } else { 18 };
                snapshot(i * 300, 5, internal, 1)
            })
            .collect();
        let series = evolution_series(&snaps);
        let events = detect_changes(&series, |p| p.internal_links, 3);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].delta(), 8);
        assert_eq!(events[0].at, Timestamp::from_unix(5 * 300));
    }

    #[test]
    fn small_wiggles_are_ignored() {
        let snaps: Vec<TopologySnapshot> = (0..6)
            .map(|i| snapshot(i * 300, 5, 10 + (i % 2) as usize, 1))
            .collect();
        let series = evolution_series(&snaps);
        assert!(detect_changes(&series, |p| p.internal_links, 3).is_empty());
    }

    #[test]
    fn empty_series() {
        assert!(evolution_series(&[]).is_empty());
        assert!(detect_changes(&[], |p| p.routers, 1).is_empty());
    }
}
