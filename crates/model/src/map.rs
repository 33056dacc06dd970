//! The four backbone weathermaps.

use std::fmt;
use std::str::FromStr;

/// One of the four OVH backbone weathermaps (§4 of the paper).
///
/// The *Europe* map has historically been the largest; *World* only holds
/// intercontinental links between routers of the other maps and has no
/// peering links; *North America* is roughly half the size of Europe;
/// *Asia-Pacific* is the smallest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MapKind {
    /// The European backbone — the largest map.
    Europe,
    /// Intercontinental links only; contains no peerings.
    World,
    /// The North American backbone.
    NorthAmerica,
    /// The Asia-Pacific backbone — the smallest map.
    AsiaPacific,
}

impl MapKind {
    /// All four maps, in the paper's table order.
    pub const ALL: [MapKind; 4] = [
        MapKind::Europe,
        MapKind::World,
        MapKind::NorthAmerica,
        MapKind::AsiaPacific,
    ];

    /// The human-readable name used in the paper's tables.
    #[must_use]
    pub fn display_name(self) -> &'static str {
        match self {
            MapKind::Europe => "Europe",
            MapKind::World => "World",
            MapKind::NorthAmerica => "North America",
            MapKind::AsiaPacific => "Asia Pacific",
        }
    }

    /// The short machine identifier used in file paths and YAML.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            MapKind::Europe => "europe",
            MapKind::World => "world",
            MapKind::NorthAmerica => "north-america",
            MapKind::AsiaPacific => "asia-pacific",
        }
    }
}

/// Europe — the largest and longest-observed map, the natural default
/// wherever one map must stand in for "a" map.
impl Default for MapKind {
    fn default() -> MapKind {
        MapKind::Europe
    }
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl FromStr for MapKind {
    type Err = String;

    /// Accepts both slugs and display names, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase().replace([' ', '_'], "-");
        match norm.as_str() {
            "europe" | "eu" => Ok(MapKind::Europe),
            "world" => Ok(MapKind::World),
            "north-america" | "na" => Ok(MapKind::NorthAmerica),
            "asia-pacific" | "apac" => Ok(MapKind::AsiaPacific),
            _ => Err(format!("unknown map: {s:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_four_distinct_maps() {
        let mut v = MapKind::ALL.to_vec();
        v.dedup();
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn names_and_slugs() {
        assert_eq!(MapKind::NorthAmerica.display_name(), "North America");
        assert_eq!(MapKind::NorthAmerica.slug(), "north-america");
        assert_eq!(MapKind::AsiaPacific.to_string(), "Asia Pacific");
    }

    #[test]
    fn parsing_accepts_slugs_and_names() {
        assert_eq!("europe".parse::<MapKind>().unwrap(), MapKind::Europe);
        assert_eq!(
            "North America".parse::<MapKind>().unwrap(),
            MapKind::NorthAmerica
        );
        assert_eq!(
            "asia_pacific".parse::<MapKind>().unwrap(),
            MapKind::AsiaPacific
        );
        assert_eq!("APAC".parse::<MapKind>().unwrap(), MapKind::AsiaPacific);
        assert!("mars".parse::<MapKind>().is_err());
    }

    #[test]
    fn round_trip_slug() {
        for map in MapKind::ALL {
            assert_eq!(map.slug().parse::<MapKind>().unwrap(), map);
        }
    }
}
