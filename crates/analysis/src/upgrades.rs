//! Link-upgrade forensics (Fig. 6).
//!
//! Fig. 6 tracks the links towards one peering over a month and reads off
//! three milestones: the new link appearing at `0 %` (*A*), the PeeringDB
//! capacity record updating (*B*), and the link activating with traffic
//! rapidly spread over all parallel links (*C*) — from which the paper
//! infers the per-link capacity and checks it against the load drop.

use wm_model::{Timestamp, TopologySnapshot};

/// A dated total-capacity record for a peering LAN, as PeeringDB
/// publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityRecord {
    /// When the record was updated.
    pub at: Timestamp,
    /// Total announced capacity, in Gbps.
    pub total_capacity_gbps: u32,
}

/// The per-snapshot observation of one monitored link group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupObservation {
    /// Snapshot instant.
    pub timestamp: Timestamp,
    /// Number of parallel links drawn on the map.
    pub links: usize,
    /// Number of links with a non-zero load in at least one direction.
    pub active_links: usize,
    /// Mean load of the active links, egress from `from`, in percent.
    pub mean_active_load: f64,
}

/// Extracts the observation of the `(from, to)` group from one snapshot.
///
/// Returns `None` when the snapshot has no such group.
#[must_use]
pub fn observe_group(
    snapshot: &TopologySnapshot,
    from: &str,
    to: &str,
) -> Option<GroupObservation> {
    let groups = snapshot.parallel_groups();
    let group = groups
        .iter()
        .find(|g| (g.a == from && g.b == to) || (g.a == to && g.b == from))?;
    let loads = snapshot.loads_from(group, from);
    let active: Vec<f64> = group
        .link_indices
        .iter()
        .map(|&i| &snapshot.links[i])
        .zip(&loads)
        .filter(|(link, _)| !link.is_disabled())
        .map(|(_, l)| l.as_f64())
        .collect();
    let mean_active_load = if active.is_empty() {
        0.0
    } else {
        active.iter().sum::<f64>() / active.len() as f64
    };
    Some(GroupObservation {
        timestamp: snapshot.timestamp,
        links: group.len(),
        active_links: active.len(),
        mean_active_load,
    })
}

/// The reconstructed Fig. 6 storyline.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeReport {
    /// Arrow *A*: first snapshot showing the additional link.
    pub link_added: Option<Timestamp>,
    /// Arrow *C*: first snapshot showing the link carrying traffic.
    pub link_activated: Option<Timestamp>,
    /// Arrow *B*: the capacity record published between *A* and *C* (or
    /// the closest after *A*).
    pub capacity_update: Option<CapacityRecord>,
    /// Inferred per-link capacity: capacity delta divided by links added.
    pub inferred_link_capacity_gbps: Option<f64>,
    /// Mean active-link load shortly before activation.
    pub load_before: Option<f64>,
    /// Mean active-link load shortly after activation.
    pub load_after: Option<f64>,
}

impl UpgradeReport {
    /// The observed load ratio `after / before` — the paper checks this
    /// against the capacity ratio (4/5 for the AMS-IX event).
    #[must_use]
    pub fn load_drop_ratio(&self) -> Option<f64> {
        match (self.load_before, self.load_after) {
            (Some(before), Some(after)) if before > 0.0 => Some(after / before),
            _ => None,
        }
    }
}

/// Reconstructs the upgrade storyline from a time-ordered series of
/// observations plus the PeeringDB records of the peering.
#[must_use]
pub fn detect_upgrade(
    observations: &[GroupObservation],
    records: &[CapacityRecord],
) -> UpgradeReport {
    let mut report = UpgradeReport {
        link_added: None,
        link_activated: None,
        capacity_update: None,
        inferred_link_capacity_gbps: None,
        load_before: None,
        load_after: None,
    };
    let mut links_added = 0usize;
    // Active-link count before the addition: the activation criterion is
    // exceeding this baseline, so a link flapping back from maintenance
    // (active count returning *to* the baseline) is not mistaken for the
    // upgrade going live.
    let mut baseline_active = 0usize;
    for pair in observations.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        if cur.links > prev.links && report.link_added.is_none() {
            report.link_added = Some(cur.timestamp);
            links_added = cur.links - prev.links;
            baseline_active = prev.links;
        }
        if report.link_added.is_some()
            && report.link_activated.is_none()
            && cur.active_links > baseline_active
        {
            report.link_activated = Some(cur.timestamp);
            report.load_before = Some(prev.mean_active_load);
            report.load_after = Some(cur.mean_active_load);
        }
    }
    if let Some(added_at) = report.link_added {
        // Arrow B: the first record published at or after the addition.
        let record = records
            .iter()
            .filter(|r| r.at >= added_at)
            .min_by_key(|r| r.at.unix());
        if let Some(record) = record {
            // Capacity before the update: the latest earlier record.
            let before = records
                .iter()
                .filter(|r| r.at < record.at)
                .max_by_key(|r| r.at.unix())
                .map_or(0, |r| r.total_capacity_gbps);
            let delta = record.total_capacity_gbps.saturating_sub(before);
            report.capacity_update = Some(record.clone());
            if links_added > 0 && delta > 0 {
                report.inferred_link_capacity_gbps = Some(f64::from(delta) / links_added as f64);
            }
        }
    }
    report
}

/// The monitored group and PeeringDB records of one Fig. 6 run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpgradeTarget {
    /// One endpoint of the monitored group (the OVH side in Fig. 6).
    pub from: String,
    /// The other endpoint (the peering LAN in Fig. 6).
    pub to: String,
    /// The peering's dated capacity records.
    pub records: Vec<CapacityRecord>,
}

/// The finished Fig. 6 artifact: the full observation series plus the
/// reconstructed storyline.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeOutcome {
    /// Per-snapshot observations of the monitored group, in observation
    /// order (snapshots without the group are skipped).
    pub observations: Vec<GroupObservation>,
    /// The detected milestones.
    pub report: UpgradeReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(day: i64, links: usize, active: usize, load: f64) -> GroupObservation {
        GroupObservation {
            timestamp: Timestamp::from_unix(day * 86_400),
            links,
            active_links: active,
            mean_active_load: load,
        }
    }

    /// The Fig. 6 storyline: 4 links at ~50 %, a 5th appears on day 5,
    /// PeeringDB updates on day 14, activation on day 19 drops loads to
    /// ~40 %.
    fn fig6_series() -> (Vec<GroupObservation>, Vec<CapacityRecord>) {
        let mut series = Vec::new();
        for day in 0..5 {
            series.push(obs(day, 4, 4, 50.0));
        }
        for day in 5..19 {
            series.push(obs(day, 5, 4, 50.0));
        }
        for day in 19..30 {
            series.push(obs(day, 5, 5, 40.0));
        }
        let records = vec![
            CapacityRecord {
                at: Timestamp::from_unix(-400 * 86_400),
                total_capacity_gbps: 400,
            },
            CapacityRecord {
                at: Timestamp::from_unix(14 * 86_400),
                total_capacity_gbps: 500,
            },
        ];
        (series, records)
    }

    #[test]
    fn detects_the_three_milestones() {
        let (series, records) = fig6_series();
        let report = detect_upgrade(&series, &records);
        assert_eq!(report.link_added, Some(Timestamp::from_unix(5 * 86_400)));
        assert_eq!(
            report.link_activated,
            Some(Timestamp::from_unix(19 * 86_400))
        );
        let record = report.capacity_update.clone().unwrap();
        assert_eq!(record.total_capacity_gbps, 500);
        assert_eq!(report.inferred_link_capacity_gbps, Some(100.0));
    }

    #[test]
    fn load_drop_matches_capacity_ratio() {
        let (series, records) = fig6_series();
        let report = detect_upgrade(&series, &records);
        let ratio = report.load_drop_ratio().unwrap();
        assert!((ratio - 0.8).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn no_event_in_flat_series() {
        let series: Vec<GroupObservation> = (0..10).map(|d| obs(d, 4, 4, 50.0)).collect();
        let report = detect_upgrade(&series, &[]);
        assert_eq!(report.link_added, None);
        assert_eq!(report.link_activated, None);
        assert_eq!(report.load_drop_ratio(), None);
    }

    #[test]
    fn activation_without_visible_addition_is_ignored() {
        // A link flapping back on is not an upgrade.
        let series = vec![obs(0, 4, 3, 50.0), obs(1, 4, 4, 45.0), obs(2, 4, 4, 45.0)];
        let report = detect_upgrade(&series, &[]);
        assert_eq!(report.link_added, None);
        assert_eq!(report.link_activated, None);
    }

    #[test]
    fn observe_group_reads_a_snapshot() {
        use wm_model::{Link, LinkEnd, Load, MapKind, Node};
        let mut s = TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(0));
        s.nodes.push(Node::router("r-a"));
        s.nodes.push(Node::peering("AMS-IX"));
        for load in [40u8, 42, 0] {
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), None, Load::new(load).unwrap()),
                LinkEnd::new(Node::peering("AMS-IX"), None, Load::new(load / 4).unwrap()),
            ));
        }
        let o = observe_group(&s, "r-a", "AMS-IX").unwrap();
        assert_eq!(o.links, 3);
        assert_eq!(o.active_links, 2);
        assert!((o.mean_active_load - 41.0).abs() < 1e-12);
        assert!(observe_group(&s, "r-a", "DE-CIX").is_none());
    }
}
