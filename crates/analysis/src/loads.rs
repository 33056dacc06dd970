//! Link-load analyses (Fig. 5a and Fig. 5b).
//!
//! Every load the weathermap draws is an integer percent, so the
//! collectors keep exact per-percent counts ([`PercentCounts`]) instead
//! of sample vectors: a quantile, a CCDF or a mean read from the counts
//! equals the one read from the sorted samples, without a clone or a
//! sort.

use wm_model::{LinkKind, TopologySnapshot};

use crate::stats::{Distribution, WhiskerSummary};

/// Exact counts of integer-percent samples (`0..=100`; larger values
/// count as 100, which no [`wm_model::Load`] produces).
///
/// Reads agree bit for bit with [`Distribution`] over the same samples:
/// the sorted samples are the values in increasing order, each repeated
/// by its count, and sums of integers below 2^53 are exact in any
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PercentCounts {
    counts: [u64; 101],
    len: u64,
}

impl Default for PercentCounts {
    fn default() -> PercentCounts {
        PercentCounts {
            counts: [0; 101],
            len: 0,
        }
    }
}

impl PercentCounts {
    /// Counts one sample.
    pub fn push(&mut self, percent: u8) {
        let at = usize::from(percent.min(100));
        if let Some(count) = self.counts.get_mut(at) {
            *count += 1;
            self.len += 1;
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The sample of 0-based `rank` in sorted order.
    fn value_at(&self, rank: u64) -> Option<f64> {
        let mut below = 0u64;
        for (value, &count) in self.counts.iter().enumerate() {
            below += count;
            if rank < below {
                return Some(value as f64);
            }
        }
        None
    }

    /// [`Distribution::quantile`] of the samples.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.len - 1) as f64;
        let low = pos.floor();
        let frac = pos - low;
        let low = self.value_at(low as u64)?;
        let high = self.value_at(pos.ceil() as u64)?;
        Some(low * (1.0 - frac) + high * frac)
    }

    /// [`Distribution::ccdf`] of the samples: the fraction above `x`.
    #[must_use]
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let at_most: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(value, _)| value as f64 <= x)
            .map(|(_, &count)| count)
            .sum();
        1.0 - at_most as f64 / self.len as f64
    }

    /// [`Distribution::mean`] of the samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(value, &count)| value as u64 * count)
            .sum();
        Some(sum as f64 / self.len as f64)
    }

    /// The samples as a [`Distribution`].
    #[must_use]
    pub fn distribution(&self) -> Distribution {
        let mut samples = Vec::with_capacity(self.len());
        for (value, &count) in self.counts.iter().enumerate() {
            samples.extend(std::iter::repeat_n(value as f64, count as usize));
        }
        Distribution::new(samples)
    }
}

/// Loads grouped by hour of day — the Fig. 5a machinery.
///
/// Every directed load of every snapshot lands in its capture hour's
/// bucket; the figure then draws the per-hour whisker summaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HourlyLoads {
    buckets: [PercentCounts; 24],
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
            self.push(hour, load.percent());
        }
    }

    /// Adds one directed load to an hour bucket — the column-driven
    /// feeder the store-backed suite uses.
    pub(crate) fn push(&mut self, hour: u8, percent: u8) {
        if let Some(bucket) = self.buckets.get_mut(hour as usize) {
            bucket.push(percent);
        }
    }

    /// The whisker summary of one hour (`None` when the bucket is empty
    /// or the hour is ≥ 24).
    #[must_use]
    pub fn summary(&self, hour: u8) -> Option<WhiskerSummary> {
        let bucket = self.buckets.get(hour as usize)?;
        Some(WhiskerSummary {
            p1: bucket.quantile(0.01)?,
            p25: bucket.quantile(0.25)?,
            p50: bucket.quantile(0.50)?,
            p75: bucket.quantile(0.75)?,
            p99: bucket.quantile(0.99)?,
        })
    }

    /// The hour with the lowest median (the paper: between 2 and 4 a.m.)
    /// and the hour with the highest (7–9 p.m.).
    #[must_use]
    pub fn extreme_hours(&self) -> Option<(u8, u8)> {
        let medians: Vec<(u8, f64)> = (0..24u8)
            .zip(&self.buckets)
            .filter_map(|(h, bucket)| bucket.quantile(0.5).map(|median| (h, median)))
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
    internal: PercentCounts,
    external: PercentCounts,
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
            self.push(kind, load.percent());
        }
    }

    /// Adds one directed load — the column-driven feeder the
    /// store-backed suite uses.
    pub(crate) fn push(&mut self, kind: LinkKind, percent: u8) {
        match kind {
            LinkKind::Internal => self.internal.push(percent),
            LinkKind::External => self.external.push(percent),
        }
    }

    /// Counts over all directed loads.
    fn all_counts(&self) -> PercentCounts {
        let mut all = self.internal.clone();
        for (sum, &external) in all.counts.iter_mut().zip(&self.external.counts) {
            *sum += external;
        }
        all.len += self.external.len;
        all
    }

    /// Distribution over all directed loads.
    #[must_use]
    pub fn all(&self) -> Distribution {
        self.all_counts().distribution()
    }

    /// Distribution over internal-link loads.
    #[must_use]
    pub fn internal(&self) -> Distribution {
        self.internal.distribution()
    }

    /// Distribution over external-link loads.
    #[must_use]
    pub fn external(&self) -> Distribution {
        self.external.distribution()
    }

    /// The three headline Fig. 5b facts, as `(p75, fraction_above_60,
    /// external_mean_minus_internal_mean)`:
    /// 75 % of loads below ~33 %, very few above 60 %, externals cooler.
    #[must_use]
    pub fn headline(&self) -> Option<(f64, f64, f64)> {
        let all = self.all_counts();
        let p75 = all.quantile(0.75)?;
        let above60 = all.ccdf(60.0);
        let delta = self.external.mean()? - self.internal.mean()?;
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
        assert!(hourly.summary(12).is_none());
        let s3 = hourly.summary(3).unwrap();
        assert_eq!(s3.p50, 15.0);
    }

    #[test]
    fn hours_past_the_day_are_empty() {
        let mut hourly = HourlyLoads::new();
        hourly.add_snapshot(&snapshot(23, &[(10, 20, true)]));
        for hour in [24, 255] {
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
    fn percent_counts_read_exactly_like_the_sorted_samples() {
        // A deterministic spread of integer percents, skewed low like
        // real loads, in arbitrary order.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in [1usize, 2, 3, 7, 100, 1001] {
            let mut counts = PercentCounts::default();
            let mut samples = Vec::new();
            for _ in 0..len {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let percent = ((state >> 33) % 101) as u8 / ((state >> 20) % 3 + 1) as u8;
                counts.push(percent);
                samples.push(f64::from(percent));
            }
            let dist = Distribution::new(samples);
            assert_eq!(counts.distribution(), dist);
            for q in [0.0, 0.01, 0.25, 0.333, 0.5, 0.75, 0.99, 1.0] {
                let (a, b) = (counts.quantile(q).unwrap(), dist.quantile(q).unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}, q {q}");
            }
            for x in [0.0, 10.0, 33.5, 60.0, 100.0] {
                assert_eq!(
                    counts.ccdf(x).to_bits(),
                    dist.ccdf(x).to_bits(),
                    "len {len}, x {x}"
                );
            }
            assert_eq!(
                counts.mean().unwrap().to_bits(),
                dist.mean().unwrap().to_bits()
            );
        }
        let empty = PercentCounts::default();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.ccdf(60.0), 0.0);
        assert_eq!(empty.mean(), None);
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
