//! UTC civil time, implemented from scratch.
//!
//! The dataset spans July 2020 → September 2022 at five-minute resolution;
//! the analyses need calendar arithmetic (hour-of-day grouping for
//! Fig. 5a, month boundaries for Fig. 2/4 axes) but nothing approaching a
//! full datetime library, so this module implements the proleptic
//! Gregorian calendar directly using Howard Hinnant's `days_from_civil` /
//! `civil_from_days` algorithms.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Seconds in one minute.
pub const SECS_PER_MINUTE: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 3_600;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 86_400;
/// The snapshot cadence of the weathermap: five minutes.
pub const SNAPSHOT_INTERVAL: Duration = Duration::from_minutes(5);

/// A span of time with second resolution. May be negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    seconds: i64,
}

impl Duration {
    /// A zero-length duration.
    pub const ZERO: Duration = Duration { seconds: 0 };

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(seconds: i64) -> Duration {
        Duration { seconds }
    }

    /// Creates a duration from whole minutes.
    #[must_use]
    pub const fn from_minutes(minutes: i64) -> Duration {
        Duration {
            seconds: minutes * SECS_PER_MINUTE,
        }
    }

    /// Creates a duration from whole hours.
    #[must_use]
    pub const fn from_hours(hours: i64) -> Duration {
        Duration {
            seconds: hours * SECS_PER_HOUR,
        }
    }

    /// Creates a duration from whole days.
    #[must_use]
    pub const fn from_days(days: i64) -> Duration {
        Duration {
            seconds: days * SECS_PER_DAY,
        }
    }

    /// The length in whole seconds.
    #[inline]
    #[must_use]
    pub const fn as_secs(self) -> i64 {
        self.seconds
    }

    /// The length in fractional days.
    #[inline]
    #[must_use]
    pub fn as_days_f64(self) -> f64 {
        self.seconds as f64 / SECS_PER_DAY as f64
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.seconds + rhs.seconds)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration::from_secs(self.seconds - rhs.seconds)
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration::from_secs(self.seconds * rhs)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.seconds;
        let sign = if total < 0 { "-" } else { "" };
        let total = total.abs();
        let (d, rem) = (total / SECS_PER_DAY, total % SECS_PER_DAY);
        let (h, rem) = (rem / SECS_PER_HOUR, rem % SECS_PER_HOUR);
        let (m, s) = (rem / SECS_PER_MINUTE, rem % SECS_PER_MINUTE);
        if d > 0 {
            write!(f, "{sign}{d}d{h:02}h{m:02}m{s:02}s")
        } else if h > 0 {
            write!(f, "{sign}{h}h{m:02}m{s:02}s")
        } else if m > 0 {
            write!(f, "{sign}{m}m{s:02}s")
        } else {
            write!(f, "{sign}{s}s")
        }
    }
}

/// An instant in UTC with second resolution, stored as a Unix timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp {
    unix: i64,
}

/// A broken-down UTC civil date-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CivilDateTime {
    /// Calendar year (proleptic Gregorian).
    pub year: i32,
    /// Month, `1..=12`.
    pub month: u8,
    /// Day of month, `1..=31`.
    pub day: u8,
    /// Hour of day, `0..=23`.
    pub hour: u8,
    /// Minute, `0..=59`.
    pub minute: u8,
    /// Second, `0..=59`.
    pub second: u8,
}

/// Day of the week.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Weekday {
    /// Monday.
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday.
    Saturday,
    /// Sunday.
    Sunday,
}

impl Weekday {
    /// `true` for Saturday and Sunday — the traffic model dampens weekend
    /// business traffic.
    #[must_use]
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

impl Timestamp {
    /// Creates a timestamp from a Unix time in seconds.
    #[must_use]
    pub const fn from_unix(unix: i64) -> Timestamp {
        Timestamp { unix }
    }

    /// Creates a timestamp from a UTC civil date and time.
    ///
    /// # Panics
    /// Panics when a field is out of range (month 0, hour 24, …); all call
    /// sites use literals or validated values.
    #[must_use]
    pub fn from_ymd_hms(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        assert!(hour < 24 && minute < 60 && second < 60, "time out of range");
        let days = days_from_civil(year, month, day);
        Timestamp {
            unix: days * SECS_PER_DAY
                + i64::from(hour) * SECS_PER_HOUR
                + i64::from(minute) * SECS_PER_MINUTE
                + i64::from(second),
        }
    }

    /// Creates a timestamp at midnight UTC of a civil date.
    #[must_use]
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Timestamp {
        Timestamp::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// The Unix time in seconds.
    #[inline]
    #[must_use]
    pub const fn unix(self) -> i64 {
        self.unix
    }

    /// Broken-down UTC civil representation.
    #[must_use]
    pub fn civil(self) -> CivilDateTime {
        let days = self.unix.div_euclid(SECS_PER_DAY);
        let secs = self.unix.rem_euclid(SECS_PER_DAY);
        let (year, month, day) = civil_from_days(days);
        CivilDateTime {
            year,
            month,
            day,
            hour: (secs / SECS_PER_HOUR) as u8,
            minute: ((secs % SECS_PER_HOUR) / SECS_PER_MINUTE) as u8,
            second: (secs % SECS_PER_MINUTE) as u8,
        }
    }

    /// Hour of the UTC day, `0..=23` — the grouping key of Fig. 5a.
    #[must_use]
    pub fn hour_of_day(self) -> u8 {
        (self.unix.rem_euclid(SECS_PER_DAY) / SECS_PER_HOUR) as u8
    }

    /// Day of the week (Unix epoch 1970-01-01 was a Thursday).
    #[must_use]
    pub fn weekday(self) -> Weekday {
        let days = self.unix.div_euclid(SECS_PER_DAY);
        match (days + 3).rem_euclid(7) {
            0 => Weekday::Monday,
            1 => Weekday::Tuesday,
            2 => Weekday::Wednesday,
            3 => Weekday::Thursday,
            4 => Weekday::Friday,
            5 => Weekday::Saturday,
            _ => Weekday::Sunday,
        }
    }

    /// Fractional hours since midnight UTC, in `[0, 24)`.
    ///
    /// The diurnal traffic model is a continuous function of this value.
    #[must_use]
    pub fn fractional_hour(self) -> f64 {
        self.unix.rem_euclid(SECS_PER_DAY) as f64 / SECS_PER_HOUR as f64
    }

    /// Formats as ISO 8601 UTC: `2020-07-15T10:05:00Z`.
    #[must_use]
    pub fn to_iso8601(self) -> String {
        let c = self.civil();
        format!(
            "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
            c.year, c.month, c.day, c.hour, c.minute, c.second
        )
    }

    /// Parses the ISO 8601 UTC form produced by [`Timestamp::to_iso8601`]:
    /// exactly `YYYY-MM-DDTHH:MM:SSZ`, every field ASCII digits (no
    /// sign, no space), naming a real calendar instant.
    pub fn parse_iso8601(s: &str) -> Result<Timestamp, String> {
        let fail = || format!("invalid ISO 8601 timestamp: {s:?}");
        let &[y0, y1, y2, y3, b'-', mo0, mo1, b'-', d0, d1, b'T', h0, h1, b':', mi0, mi1, b':', s0, s1, b'Z'] =
            s.as_bytes()
        else {
            return Err(fail());
        };
        let (Some(year), Some(month), Some(day), Some(hour), Some(minute), Some(second)) = (
            decimal(&[y0, y1, y2, y3]),
            decimal(&[mo0, mo1]),
            decimal(&[d0, d1]),
            decimal(&[h0, h1]),
            decimal(&[mi0, mi1]),
            decimal(&[s0, s1]),
        ) else {
            return Err(fail());
        };
        // Every field has at most four digits, so each fits its type.
        let year = year as i32;
        let (month, day) = (month as u8, day as u8);
        if !(1..=12).contains(&month)
            || !(1..=31).contains(&day)
            || day > days_in_month(year, month)
            || hour >= 24
            || minute >= 60
            || second >= 60
        {
            return Err(fail());
        }
        Ok(Timestamp::from_ymd_hms(
            year,
            month,
            day,
            hour as u8,
            minute as u8,
            second as u8,
        ))
    }

    /// Rounds down to the previous multiple of `interval` (measured from
    /// the Unix epoch). Used to align arbitrary instants to the 5-minute
    /// snapshot grid.
    #[must_use]
    pub fn align_down(self, interval: Duration) -> Timestamp {
        let step = interval.as_secs().max(1);
        Timestamp::from_unix(self.unix.div_euclid(step) * step)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp::from_unix(self.unix + rhs.as_secs())
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.unix += rhs.as_secs();
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp::from_unix(self.unix - rhs.as_secs())
    }
}

impl Sub for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::from_secs(self.unix - rhs.unix)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_iso8601())
    }
}

/// A half-open UTC time range `[start, end)`.
///
/// Snapshot timestamps sit on a 5-minute grid, so the half-open
/// convention composes cleanly: `[a, b)` followed by `[b, c)` covers
/// `[a, c)` with no snapshot counted twice. An empty range (`end <=
/// start`) contains nothing and intersects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// First instant inside the range.
    pub start: Timestamp,
    /// First instant past the range.
    pub end: Timestamp,
}

impl TimeRange {
    /// The range containing every representable timestamp.
    pub const ALL: TimeRange = TimeRange {
        start: Timestamp::from_unix(i64::MIN),
        end: Timestamp::from_unix(i64::MAX),
    };

    /// Creates the range `[start, end)`.
    #[must_use]
    pub const fn new(start: Timestamp, end: Timestamp) -> TimeRange {
        TimeRange { start, end }
    }

    /// Whether `t` lies inside the range.
    #[must_use]
    pub fn contains(self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether the range contains no instant at all.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.end <= self.start
    }

    /// Whether the range intersects the *closed* span `[min, max]`.
    ///
    /// Segment manifests record the closed span of the timestamps a
    /// segment actually holds, so windowed loads ask this question for
    /// every segment.
    #[must_use]
    pub fn intersects_closed(self, min: Timestamp, max: Timestamp) -> bool {
        !self.is_empty() && min < self.end && self.start <= max
    }
}

impl fmt::Display for TimeRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Days from the Unix epoch to a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(year: i32, month: u8, day: u8) -> i64 {
    let y = i64::from(year) - i64::from(month <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(month);
    let d = i64::from(day);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since the Unix epoch (Hinnant's `civil_from_days`).
fn civil_from_days(days: i64) -> (i32, u8, u8) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// The value of a run of ASCII digits, or `None` when any byte is not
/// one (no sign, no space).
fn decimal(digits: &[u8]) -> Option<u32> {
    digits.iter().try_fold(0u32, |value, &byte| {
        byte.is_ascii_digit().then(|| {
            value
                .saturating_mul(10)
                .saturating_add(u32::from(byte - b'0'))
        })
    })
}

/// Number of days in a month of the proleptic Gregorian calendar.
#[must_use]
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Gregorian leap-year rule.
#[must_use]
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_range_membership_is_half_open() {
        let start = Timestamp::from_ymd(2022, 2, 1);
        let end = start + Duration::from_hours(6);
        let range = TimeRange::new(start, end);
        assert!(range.contains(start));
        assert!(range.contains(end - SNAPSHOT_INTERVAL));
        assert!(!range.contains(end));
        assert!(!range.contains(start - SNAPSHOT_INTERVAL));
        assert!(!range.is_empty());
        assert!(TimeRange::new(end, start).is_empty());
        assert!(TimeRange::new(start, start).is_empty());
        assert!(TimeRange::ALL.contains(start));
        assert_eq!(
            range.to_string(),
            "[2022-02-01T00:00:00Z, 2022-02-01T06:00:00Z)"
        );
    }

    #[test]
    fn time_range_closed_span_intersection() {
        let t = |h: i64| Timestamp::from_ymd(2022, 2, 1) + Duration::from_hours(h);
        let range = TimeRange::new(t(2), t(4));
        // Span entirely before, overlapping both edges, entirely after.
        assert!(!range.intersects_closed(t(0), t(1)));
        assert!(range.intersects_closed(t(1), t(2)), "closed max == start");
        assert!(range.intersects_closed(t(3), t(6)));
        assert!(!range.intersects_closed(t(4), t(6)), "end is exclusive");
        assert!(range.intersects_closed(t(0), t(6)), "span swallows range");
        // Empty ranges intersect nothing.
        assert!(!TimeRange::new(t(2), t(2)).intersects_closed(t(0), t(6)));
    }

    #[test]
    fn epoch_is_1970() {
        let t = Timestamp::from_unix(0);
        let c = t.civil();
        assert_eq!(
            (c.year, c.month, c.day, c.hour, c.minute, c.second),
            (1970, 1, 1, 0, 0, 0)
        );
        assert_eq!(t.weekday(), Weekday::Thursday);
    }

    #[test]
    fn known_dates_round_trip() {
        // The paper's collection start and Table 1/2 reference date.
        let start = Timestamp::from_ymd_hms(2020, 7, 15, 0, 0, 0);
        assert_eq!(start.to_iso8601(), "2020-07-15T00:00:00Z");
        let reference = Timestamp::from_ymd_hms(2022, 9, 12, 23, 55, 0);
        assert_eq!(reference.to_iso8601(), "2022-09-12T23:55:00Z");
        assert_eq!(
            Timestamp::parse_iso8601("2022-09-12T23:55:00Z").unwrap(),
            reference
        );
    }

    #[test]
    fn civil_conversion_is_bijective_over_the_dataset_span() {
        let mut t = Timestamp::from_ymd(2020, 1, 1);
        let end = Timestamp::from_ymd(2023, 1, 1);
        while t < end {
            let c = t.civil();
            let back = Timestamp::from_ymd_hms(c.year, c.month, c.day, c.hour, c.minute, c.second);
            assert_eq!(back, t, "round trip failed at {}", t.to_iso8601());
            t += Duration::from_secs(10_007); // coprime-ish step hits varied times
        }
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2020));
        assert!(!is_leap_year(2021));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2000));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2022, 9), 30);
    }

    #[test]
    fn feb_29_parses_only_in_leap_years() {
        assert!(Timestamp::parse_iso8601("2020-02-29T00:00:00Z").is_ok());
        assert!(Timestamp::parse_iso8601("2021-02-29T00:00:00Z").is_err());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "2020-07-15 00:00:00Z",
            "2020-07-15T00:00:00",
            "20-07-15T00:00:00Z",
            "2020-13-01T00:00:00Z",
            "2020-07-32T00:00:00Z",
            "2020-07-15T24:00:00Z",
            "garbage",
            "",
        ] {
            assert!(
                Timestamp::parse_iso8601(bad).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn parse_reads_fields_as_digits_only() {
        for signed in [
            "2022-02-+1T+0:+5:+0Z",
            "-022-02-01T00:05:00Z",
            "+022-02-01T00:05:00Z",
            "2022-+2-01T00:05:00Z",
            "2022-02-01T00:-5:00Z",
            "2022-02- 1T00:05:00Z",
            "2022-02-01T00:05:0 Z",
        ] {
            assert!(
                Timestamp::parse_iso8601(signed).is_err(),
                "{signed:?} should fail"
            );
        }
        assert_eq!(
            Timestamp::parse_iso8601("0000-01-01T00:00:00Z"),
            Ok(Timestamp::from_ymd_hms(0, 1, 1, 0, 0, 0))
        );
    }

    #[test]
    fn hour_of_day_and_fractional_hour() {
        let t = Timestamp::from_ymd_hms(2021, 6, 15, 19, 30, 0);
        assert_eq!(t.hour_of_day(), 19);
        assert!((t.fractional_hour() - 19.5).abs() < 1e-9);
    }

    #[test]
    fn hour_of_day_before_epoch() {
        let t = Timestamp::from_unix(-3_600);
        assert_eq!(t.hour_of_day(), 23);
    }

    #[test]
    fn weekday_cycle() {
        // 2022-09-12 was a Monday.
        assert_eq!(Timestamp::from_ymd(2022, 9, 12).weekday(), Weekday::Monday);
        assert_eq!(
            Timestamp::from_ymd(2022, 9, 17).weekday(),
            Weekday::Saturday
        );
        assert!(Timestamp::from_ymd(2022, 9, 17).weekday().is_weekend());
        assert!(!Timestamp::from_ymd(2022, 9, 12).weekday().is_weekend());
    }

    #[test]
    fn arithmetic_and_alignment() {
        let t = Timestamp::from_ymd_hms(2020, 7, 15, 10, 3, 12);
        let aligned = t.align_down(SNAPSHOT_INTERVAL);
        assert_eq!(aligned.to_iso8601(), "2020-07-15T10:00:00Z");
        assert_eq!(
            aligned + SNAPSHOT_INTERVAL,
            Timestamp::from_ymd_hms(2020, 7, 15, 10, 5, 0)
        );
        assert_eq!(
            Timestamp::from_ymd(2020, 7, 16) - Timestamp::from_ymd(2020, 7, 15),
            Duration::from_days(1)
        );
    }

    #[test]
    fn duration_display() {
        assert_eq!(Duration::from_secs(42).to_string(), "42s");
        assert_eq!(Duration::from_minutes(5).to_string(), "5m00s");
        assert_eq!(Duration::from_hours(2).to_string(), "2h00m00s");
        assert_eq!(Duration::from_days(1).to_string(), "1d00h00m00s");
        assert_eq!(Duration::from_secs(-90).to_string(), "-1m30s");
    }

    #[test]
    fn duration_arithmetic() {
        assert_eq!(Duration::from_minutes(5) * 12, Duration::from_hours(1));
        assert_eq!(
            Duration::from_hours(1) + Duration::from_minutes(30),
            Duration::from_secs(5_400)
        );
        assert_eq!(
            Duration::from_hours(1) - Duration::from_hours(2),
            Duration::from_hours(-1)
        );
        assert!((Duration::from_hours(36).as_days_f64() - 1.5).abs() < 1e-12);
    }
}
