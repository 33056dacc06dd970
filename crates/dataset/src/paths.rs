//! The on-disk path codec.
//!
//! The corpus mirrors the real dataset's organisation: one tree per map
//! and file type, sharded by date so no directory holds more than a day's
//! 288 snapshots:
//!
//! ```text
//! <root>/<map-slug>/<kind>/<YYYY>/<MM>/<DD>/<HHMM>.<ext>
//! e.g.   europe/svg/2021/03/05/1005.svg
//! ```
//!
//! The timestamp is fully recoverable from the path — the extraction
//! pipeline derives each snapshot's instant from its location, exactly as
//! the paper's wrapper scripts do.

use std::ffi::OsStr;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wm_model::time::days_in_month;
use wm_model::{MapKind, Timestamp};

/// Which artefact a file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FileKind {
    /// A collected SVG snapshot.
    Svg,
    /// A processed YAML snapshot.
    Yaml,
}

impl FileKind {
    /// Directory name and file extension.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FileKind::Svg => "svg",
            FileKind::Yaml => "yaml",
        }
    }

    /// Both kinds.
    pub const ALL: [FileKind; 2] = [FileKind::Svg, FileKind::Yaml];
}

/// Builds the relative path of a snapshot file.
#[must_use]
pub fn relative_path(map: MapKind, kind: FileKind, t: Timestamp) -> PathBuf {
    PathBuf::from(relative_path_string(map, kind, t))
}

/// The relative path of a snapshot file as a `/`-joined string
/// (platform-independent, so fingerprints are portable): the one
/// rendering of the layout, behind [`relative_path`] too.
#[must_use]
pub(crate) fn relative_path_string(map: MapKind, kind: FileKind, t: Timestamp) -> String {
    let mut out = String::new();
    push_relative_path(&mut out, map, kind, t);
    out
}

/// Appends [`relative_path_string`] to `out`, so a caller that renders
/// many paths can reuse one buffer.
pub(crate) fn push_relative_path(out: &mut String, map: MapKind, kind: FileKind, t: Timestamp) {
    let c = t.civil();
    let ext = kind.as_str();
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "{}/{ext}/{:04}/{:02}/{:02}/{:02}{:02}.{ext}",
        map.slug(),
        c.year,
        c.month,
        c.day,
        c.hour,
        c.minute
    );
}

/// Recovers `(map, kind, timestamp)` from a relative path, or `None` when
/// the path does not follow the layout.
///
/// The map directory must be the map's [`MapKind::slug`], the one
/// spelling [`relative_path`] writes: a path listed under a map must be
/// the one every later read of that map opens. An alias such as `eu`
/// names no map here, however `MapKind`'s parser reads it.
#[must_use]
pub fn parse_path(path: &Path) -> Option<(MapKind, FileKind, Timestamp)> {
    parse_parts(path.iter().map(OsStr::to_str))
}

/// [`parse_path`] of a `/`-joined string, taken literally: it accepts
/// exactly the strings [`relative_path_string`] renders for a
/// four-digit year, with no empty or `.` component.
#[must_use]
pub(crate) fn parse_path_str(path: &str) -> Option<(MapKind, FileKind, Timestamp)> {
    parse_parts(path.split('/').map(Some))
}

/// The layout check behind [`parse_path`] and [`parse_path_str`] over
/// the path's components (`None` for one that is not UTF-8).
fn parse_parts<'a>(
    mut parts: impl Iterator<Item = Option<&'a str>>,
) -> Option<(MapKind, FileKind, Timestamp)> {
    let (
        Some(Some(map)),
        Some(Some(kind)),
        Some(Some(year)),
        Some(Some(month)),
        Some(Some(day)),
        Some(Some(file)),
        None,
    ) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    )
    else {
        return None;
    };
    let map = MapKind::ALL.into_iter().find(|m| m.slug() == map)?;
    let kind = match kind {
        "svg" => FileKind::Svg,
        "yaml" => FileKind::Yaml,
        _ => return None,
    };
    let (stem, ext) = file.split_once('.')?;
    if ext != kind.as_str() {
        return None;
    }
    // Exactly the digits `relative_path` writes: a path listed under a
    // timestamp must be the one that timestamp reads back.
    let (hour, minute) = stem.as_bytes().split_at_checked(2)?;
    let (year, month, day, hour, minute) = (
        fixed_digits::<4>(year.as_bytes())?,
        fixed_digits::<2>(month.as_bytes())?,
        fixed_digits::<2>(day.as_bytes())?,
        fixed_digits::<2>(hour)?,
        fixed_digits::<2>(minute)?,
    );
    // Four digits fit an `i32` and two a `u8`.
    let (year, month, day, hour, minute) = (
        year as i32,
        month as u8,
        day as u8,
        hour as u8,
        minute as u8,
    );
    if !(1..=12).contains(&month)
        || !(1..=days_in_month(year, month)).contains(&day)
        || hour >= 24
        || minute >= 60
    {
        return None;
    }
    Some((
        map,
        kind,
        Timestamp::from_ymd_hms(year, month, day, hour, minute, 0),
    ))
}

/// The value of exactly `N` ASCII digits (no sign, no space), or `None`
/// for any other bytes.
fn fixed_digits<const N: usize>(bytes: &[u8]) -> Option<u32> {
    let digits: &[u8; N] = bytes.try_into().ok()?;
    digits.iter().try_fold(0u32, |value, &byte| {
        byte.is_ascii_digit().then(|| {
            value
                .saturating_mul(10)
                .saturating_add(u32::from(byte - b'0'))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn path_round_trip() {
        let t = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0);
        for map in MapKind::ALL {
            for kind in FileKind::ALL {
                let p = relative_path(map, kind, t);
                let (m, k, ts) = parse_path(&p).expect("parses back");
                assert_eq!((m, k, ts), (map, kind, t), "{p:?}");
            }
        }
    }

    #[test]
    fn example_path_shape() {
        let t = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0);
        let p = relative_path(MapKind::Europe, FileKind::Svg, t);
        assert_eq!(p, PathBuf::from("europe/svg/2021/03/05/1005.svg"));
    }

    #[test]
    fn seconds_are_dropped_by_design() {
        // Snapshots sit on the 5-minute grid; seconds never appear.
        let t = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 30);
        let p = relative_path(MapKind::Europe, FileKind::Svg, t);
        let (_, _, ts) = parse_path(&p).unwrap();
        assert_eq!(ts, Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0));
    }

    #[test]
    fn malformed_paths_rejected() {
        for bad in [
            "europe/svg/2021/03/05/1005.yaml", // extension mismatch
            "europe/png/2021/03/05/1005.png",  // unknown kind
            "mars/svg/2021/03/05/1005.svg",    // unknown map
            "eu/svg/2021/03/05/1005.svg",      // alias, not the slug
            "Europe/svg/2021/03/05/1005.svg",  // display name, not the slug
            "europe/svg/2021/13/05/1005.svg",  // bad month
            "europe/svg/2021/03/05/2505.svg",  // bad hour
            "europe/svg/2021/03/1005.svg",     // missing component
            "europe/svg/2021/03/05/105.svg",   // short stem
            "europe/yaml/2022/02/01/1é1.yaml", // four bytes, not four digits
            "europe/svg/2021/03/05/+105.svg",  // sign, not a digit
            "europe/svg/2021/3/05/1005.svg",   // unpadded month
            "europe/svg/2021/03/5/1005.svg",   // unpadded day
            "europe/svg/+2021/03/05/1005.svg", // signed year
        ] {
            assert!(
                parse_path(Path::new(bad)).is_none(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn cache_and_backup_files_are_rejected() {
        // A leftover cache file and common editor droppings must never
        // parse as corpus members, whatever directory they land in.
        for bad in [
            "europe/.longitudinal.cache",
            "europe/.longitudinal.cache.tmp",
            "europe/yaml/2021/03/05/1005.yaml~",
            "europe/yaml/2021/03/05/.1005.yaml.swp",
            "europe/yaml/2021/03/05/1005.yaml.bak",
            "europe/yaml/2021/03/05/#1005.yaml#",
        ] {
            assert!(
                parse_path(Path::new(bad)).is_none(),
                "{bad} should be rejected"
            );
        }
    }

    /// The rendering this module shipped before it rendered one string:
    /// a `PathBuf` joined from five formatted components.
    fn reference_relative_path(map: MapKind, kind: FileKind, t: Timestamp) -> PathBuf {
        let c = t.civil();
        PathBuf::from(map.slug())
            .join(kind.as_str())
            .join(format!("{:04}", c.year))
            .join(format!("{:02}", c.month))
            .join(format!("{:02}", c.day))
            .join(format!("{:02}{:02}.{}", c.hour, c.minute, kind.as_str()))
    }

    /// That `PathBuf`'s components joined with `/`.
    fn reference_relative_path_string(map: MapKind, kind: FileKind, t: Timestamp) -> String {
        let path = reference_relative_path(map, kind, t);
        let mut out = String::new();
        for component in path.iter() {
            if !out.is_empty() {
                out.push('/');
            }
            out.push_str(&component.to_string_lossy());
        }
        out
    }

    /// The parser this module shipped before fixed-width digit parsing:
    /// a `Vec` of components and a round trip through ISO 8601.
    fn reference_parse_path(path: &Path) -> Option<(MapKind, FileKind, Timestamp)> {
        let parts: Vec<&str> = path.iter().map(|c| c.to_str()).collect::<Option<_>>()?;
        let [map, kind, year, month, day, file] = parts.as_slice() else {
            return None;
        };
        let map = MapKind::ALL.into_iter().find(|m| m.slug() == *map)?;
        let kind = match *kind {
            "svg" => FileKind::Svg,
            "yaml" => FileKind::Yaml,
            _ => return None,
        };
        let (stem, ext) = file.split_once('.')?;
        let digits = |s: &str, n: usize| s.len() == n && s.bytes().all(|b| b.is_ascii_digit());
        if ext != kind.as_str()
            || !digits(year, 4)
            || !digits(month, 2)
            || !digits(day, 2)
            || !digits(stem, 4)
        {
            return None;
        }
        let year: i32 = year.parse().ok()?;
        let month: u8 = month.parse().ok()?;
        let day: u8 = day.parse().ok()?;
        let hour: u8 = stem.get(..2)?.parse().ok()?;
        let minute: u8 = stem.get(2..)?.parse().ok()?;
        let iso = format!("{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:00Z");
        let t = Timestamp::parse_iso8601(&iso).ok()?;
        Some((map, kind, t))
    }

    #[test]
    fn rendering_equals_the_joined_components_at_edge_instants() {
        let instants = [
            Timestamp::from_ymd_hms(1, 1, 1, 0, 0, 0),
            Timestamp::from_ymd_hms(9999, 12, 31, 23, 55, 0),
            Timestamp::from_ymd_hms(2020, 2, 29, 23, 55, 0),
            Timestamp::from_ymd_hms(2000, 2, 29, 0, 5, 0),
            Timestamp::from_ymd_hms(2021, 12, 31, 23, 55, 59),
            Timestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0),
            Timestamp::from_ymd_hms(0, 1, 1, 0, 0, 0),
            // Outside the four-digit years the layout parses back.
            Timestamp::from_ymd_hms(-1, 12, 31, 23, 55, 0),
            Timestamp::from_ymd_hms(10000, 1, 1, 0, 0, 0),
        ];
        for t in instants {
            for map in MapKind::ALL {
                for kind in FileKind::ALL {
                    let expected = reference_relative_path_string(map, kind, t);
                    assert_eq!(relative_path_string(map, kind, t), expected, "{t}");
                    assert_eq!(
                        relative_path(map, kind, t),
                        reference_relative_path(map, kind, t),
                        "{t}"
                    );
                    let mut buf = String::from("stale");
                    buf.clear();
                    push_relative_path(&mut buf, map, kind, t);
                    assert_eq!(buf, expected, "{t}");
                    let year = t.civil().year;
                    let parsed = parse_path_str(&expected);
                    if (0..=9999).contains(&year) {
                        let minute = t.align_down(wm_model::Duration::from_minutes(1));
                        assert_eq!(parsed, Some((map, kind, minute)), "{expected}");
                    } else {
                        assert_eq!(parsed, None, "{expected}");
                    }
                }
            }
        }
    }

    /// One path component: mostly well-formed, often off by a sign, a
    /// width, a non-ASCII digit or a range.
    fn component(valid: BoxedStrategy<String>, odd: &[&str]) -> BoxedStrategy<String> {
        let odd: Vec<String> = odd.iter().map(|s| (*s).to_owned()).collect();
        prop_oneof![
            valid.clone(),
            valid.clone(),
            valid.clone(),
            valid,
            prop::sample::select(odd)
        ]
        .boxed()
    }

    /// Six-part paths around the layout, some with a part dropped, a
    /// part added or stray separators.
    fn candidate_paths() -> impl Strategy<Value = String> {
        let map = prop::sample::select(vec![
            "europe",
            "europe",
            "europe",
            "world",
            "north-america",
            "asia-pacific",
            "eu",
            "Europe",
            "",
        ]);
        let kind = prop::sample::select(vec!["svg", "yaml", "yaml", "yaml", "Yaml"]);
        let year = component(
            prop_oneof![
                (0u32..10_000).prop_map(|y| format!("{y:04}")),
                prop::sample::select(vec![2020u32, 2021, 1900, 2000, 0, 1, 9999])
                    .prop_map(|y| format!("{y:04}")),
            ]
            .boxed(),
            &[
                "+202",
                "-202",
                "202",
                "02021",
                "２０２１",
                "٢٠٢١",
                "2o21",
                " 202",
                "202 ",
            ],
        );
        let month = component(
            (1u32..13).prop_map(|m| format!("{m:02}")).boxed(),
            &["00", "13", "1", "001", "+1", "-1", "１２", " 1", "٠٢"],
        );
        let day = component(
            (1u32..29).prop_map(|d| format!("{d:02}")).boxed(),
            &["00", "29", "30", "31", "32", "1", "001", "+1", "-1", "٣١"],
        );
        let stem = component(
            (0u32..24, 0u32..60)
                .prop_map(|(h, m)| format!("{h:02}{m:02}"))
                .boxed(),
            &[
                "2400", "2360", "0060", "2359", "105", "10050", "+105", "-105", "１０05", "10 5",
                "1é1", "",
            ],
        );
        // `None` is the kind's own extension.
        let ext = prop::sample::select(vec![
            None,
            None,
            None,
            None,
            None,
            None,
            None,
            Some(".svg"),
            Some(".yaml"),
            Some(".yaml~"),
            Some(".svg.bak"),
            Some(""),
            Some("."),
        ]);
        let shape = prop::sample::select(vec![
            "six", "six", "six", "six", "six", "six", "six", "six", "drop", "extra", "lead",
            "trail", "double", "dot",
        ]);
        (
            (map, kind, year, month),
            (day, stem, ext),
            (shape, 0usize..6),
        )
            .prop_map(
                |((map, kind, year, month), (day, stem, ext), (shape, at))| {
                    let mut parts: Vec<String> = vec![
                        map.to_owned(),
                        kind.to_owned(),
                        year,
                        month,
                        day,
                        format!("{stem}{}", ext.map_or(format!(".{kind}"), str::to_owned)),
                    ];
                    match shape {
                        "drop" => {
                            parts.remove(at);
                        }
                        "extra" => parts.insert(at, "01".to_owned()),
                        "dot" => parts.insert(at, ".".to_owned()),
                        "double" => parts.insert(at, String::new()),
                        _ => {}
                    }
                    let joined = parts.join("/");
                    match shape {
                        "lead" => format!("/{joined}"),
                        "trail" => format!("{joined}/"),
                        _ => joined,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn parse_path_equals_the_reference_parser(path in candidate_paths()) {
            let parsed = parse_path(Path::new(&path));
            prop_assert_eq!(parsed, reference_parse_path(Path::new(&path)));
            // The literal string parser accepts a subset: exactly the
            // strings the layout renders.
            let literal = parse_path_str(&path);
            match literal {
                Some((map, kind, t)) => {
                    prop_assert_eq!(Some((map, kind, t)), parsed);
                    prop_assert_eq!(relative_path_string(map, kind, t), path);
                }
                None => prop_assert!(
                    parsed.is_none_or(|(map, kind, t)| relative_path_string(map, kind, t) != path)
                ),
            }
        }
    }

    #[test]
    fn candidate_paths_are_often_accepted_and_often_not() {
        let strategy = candidate_paths();
        let mut rng = proptest::test_runner::TestRng::new(34);
        let accepted = (0..4096)
            .filter(|_| parse_path(Path::new(&strategy.generate(&mut rng))).is_some())
            .count();
        assert!(
            (400..3700).contains(&accepted),
            "{accepted} of 4096 accepted"
        );
    }

    #[test]
    fn leap_day_paths_parse() {
        let p = Path::new("europe/svg/2020/02/29/0000.svg");
        assert!(parse_path(p).is_some());
        let p = Path::new("europe/svg/2021/02/29/0000.svg");
        assert!(parse_path(p).is_none());
    }
}
