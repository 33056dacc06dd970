//! Maintenance-window detection.
//!
//! The paper's discussion (§6) points at OVH's public maintenance/incident
//! feed as a future data source to correlate with the weathermap: a link
//! drawn at `0 %` in both directions is the map's signature of a disabled
//! link. This module reconstructs, from a time-ordered snapshot series,
//! the windows during which each physical link was disabled — the
//! weathermap-side half of that correlation.

use std::collections::BTreeMap;

use wm_model::{Timestamp, TopologySnapshot};

/// Identity of one physical link across snapshots: the unordered endpoint
/// pair plus the `#n` labels (parallel links are distinguished by label;
/// links without labels collapse per pair).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey {
    /// Lexicographically smaller endpoint.
    pub a: String,
    /// Lexicographically larger endpoint.
    pub b: String,
    /// The label at `a`'s end, when drawn.
    pub label_a: Option<String>,
    /// The label at `b`'s end, when drawn.
    pub label_b: Option<String>,
}

/// One listed end of a link: its node's name and its label.
pub(crate) type End<'a> = (&'a str, &'a Option<String>);

impl LinkKey {
    /// The key of a link listed as `first`–`second`: ends ordered by
    /// name, labels following their end, ties keeping the listed order.
    pub(crate) fn of_ends(first: End<'_>, second: End<'_>) -> LinkKey {
        let ((a, label_a), (b, label_b)) = if first.0 <= second.0 {
            (first, second)
        } else {
            (second, first)
        };
        LinkKey {
            a: a.to_owned(),
            b: b.to_owned(),
            label_a: label_a.clone(),
            label_b: label_b.clone(),
        }
    }
}

/// One contiguous stretch of snapshots in which a link was disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceWindow {
    /// Which link.
    pub link: LinkKey,
    /// First snapshot showing the link at 0 %.
    pub start: Timestamp,
    /// Last snapshot showing the link at 0 %.
    pub end: Timestamp,
    /// Number of snapshots inside the window.
    pub snapshots: usize,
}

/// Detects per-link maintenance windows over a time-ordered series.
///
/// A window opens when a link reads `0 %` in both directions and closes
/// at the first later snapshot where it carries traffic again (or where
/// the link disappears from the map, which ends observation rather than
/// maintenance — such open windows are reported too, ending at the last
/// sighting).
#[must_use]
pub fn maintenance_windows(snapshots: &[TopologySnapshot]) -> Vec<MaintenanceWindow> {
    run_pass(snapshots).windows
}

/// Fraction of link-snapshot observations that were disabled — a
/// one-number health summary of the series.
#[must_use]
pub fn disabled_fraction(snapshots: &[TopologySnapshot]) -> f64 {
    run_pass(snapshots).disabled_fraction()
}

fn run_pass(snapshots: &[TopologySnapshot]) -> MaintenanceReport {
    let mut pass = MaintenancePass::default();
    for snapshot in snapshots {
        for link in &snapshot.links {
            let (a, b) = (&link.a, &link.b);
            let key = pass.intern(LinkKey::of_ends(
                (&a.node.name, &a.label),
                (&b.node.name, &b.label),
            ));
            pass.observe_link(snapshot.timestamp, key, link.is_disabled());
        }
    }
    pass.finish()
}

/// The finished maintenance artifact of one series scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// All detected windows, sorted by `(start, link)`.
    pub windows: Vec<MaintenanceWindow>,
    /// Total link-snapshot observations.
    pub observations: usize,
    /// Observations that read disabled (0 % both directions).
    pub disabled: usize,
}

impl MaintenanceReport {
    /// Fraction of observations that were disabled (0 on an empty
    /// series).
    #[must_use]
    pub fn disabled_fraction(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.disabled as f64 / self.observations as f64
        }
    }
}

/// The streaming accumulator behind [`maintenance_windows`] and
/// [`disabled_fraction`], shared with the suite.
///
/// Links are observed by an interned key index ([`MaintenancePass::intern`]),
/// so a caller that knows its links in advance resolves each key once;
/// [`MaintenancePass::finish`] turns the indices back into [`LinkKey`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaintenancePass {
    /// Interned keys; a key's position is its index.
    keys: Vec<LinkKey>,
    key_ids: BTreeMap<LinkKey, u32>,
    /// Open windows by key index: (start, last_seen, count).
    open: Vec<Option<(Timestamp, Timestamp, usize)>>,
    /// Closed windows as (key index, start, end, count), in closing order.
    closed: Vec<(u32, Timestamp, Timestamp, usize)>,
    observations: usize,
    disabled: usize,
}

impl MaintenancePass {
    /// The index of a link key, interning it if new.
    pub(crate) fn intern(&mut self, key: LinkKey) -> u32 {
        if let Some(&id) = self.key_ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.key_ids.insert(key, id);
        self.open.push(None);
        id
    }

    /// Folds one link observation of the link interned as `key`.
    pub(crate) fn observe_link(&mut self, at: Timestamp, key: u32, disabled: bool) {
        self.observations += 1;
        let Some(open) = self.open.get_mut(key as usize) else {
            return;
        };
        if disabled {
            self.disabled += 1;
            match open {
                Some((_, last, count)) => {
                    *last = at;
                    *count += 1;
                }
                None => *open = Some((at, at, 1)),
            }
        } else if let Some((start, last, count)) = open.take() {
            self.closed.push((key, start, last, count));
        }
    }

    /// Closes the windows still open and sorts them by `(start, link)`.
    pub(crate) fn finish(self) -> MaintenanceReport {
        let keys = self.keys;
        let window = |key: u32, start, end, snapshots| {
            keys.get(key as usize).map(|link| MaintenanceWindow {
                link: link.clone(),
                start,
                end,
                snapshots,
            })
        };
        let mut windows: Vec<MaintenanceWindow> = self
            .closed
            .iter()
            .filter_map(|&(key, start, end, count)| window(key, start, end, count))
            .collect();
        // Windows still open at the end of the series.
        for (key, open) in self.open.iter().enumerate() {
            if let Some((start, last, count)) = *open {
                windows.extend(window(key as u32, start, last, count));
            }
        }
        windows.sort_by(|x, y| x.start.cmp(&y.start).then_with(|| x.link.cmp(&y.link)));
        MaintenanceReport {
            windows,
            observations: self.observations,
            disabled: self.disabled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node};

    /// One link between r-a and r-b with the given loads per snapshot.
    fn series(loads: &[(u8, u8)]) -> Vec<TopologySnapshot> {
        loads
            .iter()
            .enumerate()
            .map(|(i, (la, lb))| {
                let mut s =
                    TopologySnapshot::new(MapKind::Europe, Timestamp::from_unix(i as i64 * 300));
                s.nodes.push(Node::router("r-a"));
                s.nodes.push(Node::router("r-b"));
                s.links.push(Link::new(
                    LinkEnd::new(
                        Node::router("r-a"),
                        Some("#1".into()),
                        Load::new(*la).unwrap(),
                    ),
                    LinkEnd::new(
                        Node::router("r-b"),
                        Some("#1".into()),
                        Load::new(*lb).unwrap(),
                    ),
                ));
                s
            })
            .collect()
    }

    #[test]
    fn detects_a_closed_window() {
        let snaps = series(&[(10, 12), (0, 0), (0, 0), (9, 11)]);
        let windows = maintenance_windows(&snaps);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].start, Timestamp::from_unix(300));
        assert_eq!(windows[0].end, Timestamp::from_unix(600));
        assert_eq!(windows[0].snapshots, 2);
        assert_eq!(windows[0].link.a, "r-a");
    }

    #[test]
    fn open_windows_are_reported() {
        let snaps = series(&[(10, 12), (0, 0)]);
        let windows = maintenance_windows(&snaps);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].start, Timestamp::from_unix(300));
        assert_eq!(windows[0].end, Timestamp::from_unix(300));
    }

    #[test]
    fn separate_windows_stay_separate() {
        let snaps = series(&[(0, 0), (10, 10), (0, 0), (10, 10)]);
        let windows = maintenance_windows(&snaps);
        assert_eq!(windows.len(), 2);
    }

    #[test]
    fn one_sided_zero_is_not_maintenance() {
        // 0 % egress with traffic coming back is an idle direction, not a
        // disabled link.
        let snaps = series(&[(0, 12), (0, 9)]);
        assert!(maintenance_windows(&snaps).is_empty());
    }

    #[test]
    fn disabled_fraction_counts_observations() {
        let snaps = series(&[(10, 12), (0, 0), (0, 0), (9, 11)]);
        assert!((disabled_fraction(&snaps) - 0.5).abs() < 1e-12);
        assert_eq!(disabled_fraction(&[]), 0.0);
    }

    #[test]
    fn parallel_links_tracked_independently() {
        let mut snaps = series(&[(10, 12), (11, 13)]);
        // Add a second parallel link (#2) that is down in both snapshots.
        for s in &mut snaps {
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), Some("#2".into()), Load::ZERO),
                LinkEnd::new(Node::router("r-b"), Some("#2".into()), Load::ZERO),
            ));
        }
        let windows = maintenance_windows(&snaps);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].link.label_a.as_deref(), Some("#2"));
        assert_eq!(windows[0].snapshots, 2);
    }
}
