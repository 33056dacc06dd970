//! Link-load analyses (Fig. 5a and Fig. 5b).

use wm_model::{LinkKind, TopologySnapshot};

use crate::stats::{Distribution, WhiskerSummary};

/// Loads grouped by hour of day — the Fig. 5a machinery.
///
/// Every directed load of every snapshot lands in its capture hour's
/// bucket; the figure then draws the per-hour whisker summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HourlyLoads {
    buckets: [Vec<f64>; 24],
}

impl HourlyLoads {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> HourlyLoads {
        HourlyLoads::default()
    }

    /// Adds every directed load of a snapshot to its hour bucket.
    pub fn add_snapshot(&mut self, snapshot: &TopologySnapshot) {
        let hour = snapshot.timestamp.hour_of_day();
        for (_, load) in snapshot.directed_loads() {
            self.push(hour, load.as_f64());
        }
    }

    /// Adds one directed load to an hour bucket — the column-driven
    /// feeder the store-backed suite uses.
    pub(crate) fn push(&mut self, hour: u8, value: f64) {
        if let Some(bucket) = self.buckets.get_mut(hour as usize) {
            bucket.push(value);
        }
    }

    /// Number of samples collected for one hour (0 for an hour ≥ 24).
    #[must_use]
    pub fn samples_in_hour(&self, hour: u8) -> usize {
        self.buckets.get(hour as usize).map_or(0, Vec::len)
    }

    /// The whisker summary of one hour (`None` when the bucket is empty
    /// or the hour is ≥ 24).
    #[must_use]
    pub fn summary(&self, hour: u8) -> Option<WhiskerSummary> {
        let dist = Distribution::new(self.buckets.get(hour as usize)?.clone());
        WhiskerSummary::of(&dist)
    }

    /// All 24 summaries — the rows of Fig. 5a.
    #[must_use]
    pub fn summaries(&self) -> Vec<Option<WhiskerSummary>> {
        (0..24).map(|h| self.summary(h)).collect()
    }

    /// The hour with the lowest median (the paper: between 2 and 4 a.m.)
    /// and the hour with the highest (7–9 p.m.).
    #[must_use]
    pub fn extreme_hours(&self) -> Option<(u8, u8)> {
        let medians: Vec<(u8, f64)> = (0..24u8)
            .filter_map(|h| self.summary(h).map(|s| (h, s.p50)))
            .collect();
        if medians.is_empty() {
            return None;
        }
        let min = medians.iter().min_by(|a, b| a.1.total_cmp(&b.1))?.0;
        let max = medians.iter().max_by(|a, b| a.1.total_cmp(&b.1))?.0;
        Some((min, max))
    }
}

/// Load CDFs split by link kind — the Fig. 5b machinery.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadCdf {
    all: Vec<f64>,
    internal: Vec<f64>,
    external: Vec<f64>,
}

impl LoadCdf {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> LoadCdf {
        LoadCdf::default()
    }

    /// Adds every directed load of a snapshot.
    pub fn add_snapshot(&mut self, snapshot: &TopologySnapshot) {
        for (kind, load) in snapshot.directed_loads() {
            self.push(kind, load.as_f64());
        }
    }

    /// Adds one directed load — the column-driven feeder the
    /// store-backed suite uses.
    pub(crate) fn push(&mut self, kind: LinkKind, value: f64) {
        self.all.push(value);
        match kind {
            LinkKind::Internal => self.internal.push(value),
            LinkKind::External => self.external.push(value),
        }
    }

    /// Distribution over all directed loads.
    #[must_use]
    pub fn all(&self) -> Distribution {
        Distribution::new(self.all.clone())
    }

    /// Distribution over internal-link loads.
    #[must_use]
    pub fn internal(&self) -> Distribution {
        Distribution::new(self.internal.clone())
    }

    /// Distribution over external-link loads.
    #[must_use]
    pub fn external(&self) -> Distribution {
        Distribution::new(self.external.clone())
    }

    /// The three headline Fig. 5b facts, as `(p75, fraction_above_60,
    /// external_mean_minus_internal_mean)`:
    /// 75 % of loads below ~33 %, very few above 60 %, externals cooler.
    #[must_use]
    pub fn headline(&self) -> Option<(f64, f64, f64)> {
        let all = self.all();
        let p75 = all.quantile(0.75)?;
        let above60 = all.ccdf(60.0);
        let delta = self.external().mean()? - self.internal().mean()?;
        Some((p75, above60, delta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_model::{Link, LinkEnd, Load, MapKind, Node, Timestamp};

    fn snapshot(hour: u8, loads: &[(u8, u8, bool)]) -> TopologySnapshot {
        let mut s = TopologySnapshot::new(
            MapKind::Europe,
            Timestamp::from_ymd_hms(2021, 6, 15, hour, 0, 0),
        );
        s.nodes.push(Node::router("r-a"));
        s.nodes.push(Node::router("r-b"));
        s.nodes.push(Node::peering("PEER"));
        for (la, lb, internal) in loads {
            let other = if *internal {
                Node::router("r-b")
            } else {
                Node::peering("PEER")
            };
            s.links.push(Link::new(
                LinkEnd::new(Node::router("r-a"), None, Load::new(*la).unwrap()),
                LinkEnd::new(other, None, Load::new(*lb).unwrap()),
            ));
        }
        s
    }

    #[test]
    fn hourly_buckets_fill_by_capture_hour() {
        let mut hourly = HourlyLoads::new();
        hourly.add_snapshot(&snapshot(3, &[(10, 20, true)]));
        hourly.add_snapshot(&snapshot(20, &[(40, 50, true), (60, 70, true)]));
        assert_eq!(hourly.samples_in_hour(3), 2);
        assert_eq!(hourly.samples_in_hour(20), 4);
        assert_eq!(hourly.samples_in_hour(12), 0);
        assert!(hourly.summary(12).is_none());
        let s3 = hourly.summary(3).unwrap();
        assert_eq!(s3.p50, 15.0);
    }

    #[test]
    fn hours_past_the_day_are_empty() {
        let mut hourly = HourlyLoads::new();
        hourly.add_snapshot(&snapshot(23, &[(10, 20, true)]));
        for hour in [24, 255] {
            assert_eq!(hourly.samples_in_hour(hour), 0);
            assert!(hourly.summary(hour).is_none());
        }
    }

    #[test]
    fn extreme_hours_identify_trough_and_peak() {
        let mut hourly = HourlyLoads::new();
        hourly.add_snapshot(&snapshot(3, &[(5, 5, true)]));
        hourly.add_snapshot(&snapshot(12, &[(20, 20, true)]));
        hourly.add_snapshot(&snapshot(20, &[(50, 50, true)]));
        assert_eq!(hourly.extreme_hours(), Some((3, 20)));
        assert_eq!(HourlyLoads::new().extreme_hours(), None);
    }

    #[test]
    fn cdf_splits_by_kind() {
        let mut cdf = LoadCdf::new();
        cdf.add_snapshot(&snapshot(10, &[(10, 20, true), (2, 4, false)]));
        assert_eq!(cdf.all().len(), 4);
        assert_eq!(cdf.internal().len(), 2);
        assert_eq!(cdf.external().len(), 2);
        assert_eq!(cdf.internal().mean(), Some(15.0));
        assert_eq!(cdf.external().mean(), Some(3.0));
    }

    #[test]
    fn headline_reports_the_fig_5b_facts() {
        let mut cdf = LoadCdf::new();
        // 8 loads: internals hot, externals cool, one above 60.
        cdf.add_snapshot(&snapshot(10, &[(30, 25, true), (20, 65, true)]));
        cdf.add_snapshot(&snapshot(11, &[(5, 10, false), (8, 12, false)]));
        let (p75, above60, delta) = cdf.headline().unwrap();
        assert!(p75 <= 30.0, "p75 {p75}");
        assert!((above60 - 0.125).abs() < 1e-12);
        assert!(delta < 0.0, "externals must be cooler");
        assert!(LoadCdf::new().headline().is_none());
    }
}
