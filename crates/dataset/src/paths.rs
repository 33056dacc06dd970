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

use std::path::{Path, PathBuf};

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
    let c = t.civil();
    PathBuf::from(map.slug())
        .join(kind.as_str())
        .join(format!("{:04}", c.year))
        .join(format!("{:02}", c.month))
        .join(format!("{:02}", c.day))
        .join(format!("{:02}{:02}.{}", c.hour, c.minute, kind.as_str()))
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
    // Exactly the digits `relative_path` writes: a path listed under a
    // timestamp must be the one that timestamp reads back.
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
    // Validate ranges by round-tripping through the ISO form.
    let iso = format!("{year:04}-{month:02}-{day:02}T{hour:02}:{minute:02}:00Z");
    let t = Timestamp::parse_iso8601(&iso).ok()?;
    Some((map, kind, t))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn leap_day_paths_parse() {
        let p = Path::new("europe/svg/2020/02/29/0000.svg");
        assert!(parse_path(p).is_some());
        let p = Path::new("europe/svg/2021/02/29/0000.svg");
        assert!(parse_path(p).is_none());
    }
}
