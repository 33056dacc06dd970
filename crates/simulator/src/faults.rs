//! Snapshot corruption — the unprocessable files of Table 2.
//!
//! The paper observes that a tiny fraction of collected SVGs (fewer than a
//! hundred per map out of hundreds of thousands) cannot be processed, for
//! two identified reasons: invalid SVG (e.g. malformed attribute values)
//! and SVGs lacking elements such as the OVH routers (producing links
//! whose intersections cannot be found). This module decides — by hash,
//! deterministically — which snapshots are corrupted and applies the
//! corruption to rendered SVG text.

use wm_model::{MapKind, Timestamp};

use crate::rng::{hash_labels, unit_f64};

/// Per-snapshot corruption probability (the paper's rate is ≈ 86/214 426
/// on the Europe map).
pub const FAULT_RATE: f64 = 0.0004;

/// The ways a snapshot can be unprocessable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The file is cut mid-element — invalid XML.
    TruncatedXml,
    /// An attribute value is garbage — invalid SVG geometry.
    MalformedAttribute,
    /// The router boxes are missing — extraction cannot attribute links.
    MissingRouters,
}

impl FaultKind {
    /// All corruption modes.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::TruncatedXml,
        FaultKind::MalformedAttribute,
        FaultKind::MissingRouters,
    ];
}

/// Decides whether the snapshot of `map` at `t` is corrupted, and how.
#[must_use]
pub fn fault_for(seed: u64, map: MapKind, t: Timestamp) -> Option<FaultKind> {
    let key = hash_labels(seed, &[0xFA_17, map as u64, t.unix() as u64]);
    if unit_f64(key) >= FAULT_RATE {
        return None;
    }
    Some(match key % 4 {
        0 | 1 => FaultKind::TruncatedXml,
        2 => FaultKind::MalformedAttribute,
        _ => FaultKind::MissingRouters,
    })
}

/// Applies a corruption to rendered SVG text.
#[must_use]
pub fn corrupt(svg: &str, fault: FaultKind, seed: u64) -> String {
    match fault {
        FaultKind::TruncatedXml => {
            // Cut somewhere in the middle, at a char boundary.
            let cut = (svg.len() / 2).max(1) + (hash_labels(seed, &[1]) % 64) as usize;
            let mut cut = cut.min(svg.len().saturating_sub(1));
            while cut > 0 && !svg.is_char_boundary(cut) {
                cut -= 1;
            }
            svg[..cut].to_owned()
        }
        FaultKind::MalformedAttribute => {
            // Damage the first polygon's points attribute the way the
            // paper describes: a malformed value, still well-formed XML.
            match svg.find("points=\"") {
                Some(at) => {
                    let value_start = at + "points=\"".len();
                    match svg[value_start..].find('"') {
                        Some(len) => {
                            let mut out = String::with_capacity(svg.len());
                            out.push_str(&svg[..value_start]);
                            out.push_str("12,,garbage");
                            out.push_str(&svg[value_start + len..]);
                            out
                        }
                        None => svg.to_owned(),
                    }
                }
                None => svg.to_owned(),
            }
        }
        FaultKind::MissingRouters => {
            // Drop every object rect/text pair, leaving links dangling.
            let mut out = String::with_capacity(svg.len());
            let mut rest = svg;
            loop {
                // Remove self-closed rects and the text elements that
                // carry class="object".
                let Some(at) = rest.find("class=\"object\"") else {
                    out.push_str(rest);
                    break;
                };
                // Walk back to the opening '<'.
                let elem_start = rest[..at].rfind('<').unwrap_or(0);
                out.push_str(&rest[..elem_start]);
                let after = &rest[elem_start..];
                // The element ends at the first "/>" or "</text>".
                let end = if after.starts_with("<rect") {
                    after.find("/>").map(|i| i + 2)
                } else {
                    after.find("</text>").map(|i| i + "</text>".len())
                };
                match end {
                    Some(end) => rest = &after[end..],
                    None => {
                        out.push_str(after);
                        break;
                    }
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_geometry::{Point, Rect};
    use wm_svg::{Builder, Document};

    fn sample_svg() -> String {
        let mut b = Builder::new(400.0, 300.0);
        b.rect("object", Rect::new(10.0, 10.0, 80.0, 20.0));
        b.text("object", Point::new(14.0, 24.0), "rbx-g1-nc1");
        b.rect("object", Rect::new(200.0, 10.0, 80.0, 20.0));
        b.text("object", Point::new(204.0, 24.0), "fra-g1-nc1");
        b.polygon(
            "link",
            &[
                Point::new(90.0, 20.0),
                Point::new(140.0, 16.0),
                Point::new(140.0, 24.0),
            ],
        );
        b.polygon(
            "link",
            &[
                Point::new(200.0, 20.0),
                Point::new(150.0, 16.0),
                Point::new(150.0, 24.0),
            ],
        );
        b.text("labellink", Point::new(130.0, 12.0), "42 %");
        b.text("labellink", Point::new(160.0, 12.0), "9 %");
        b.finish()
    }

    #[test]
    fn truncation_breaks_xml() {
        let svg = sample_svg();
        let broken = corrupt(&svg, FaultKind::TruncatedXml, 1);
        assert!(broken.len() < svg.len());
        assert!(Document::parse(&broken).is_err());
    }

    #[test]
    fn malformed_attribute_breaks_geometry_not_xml() {
        let svg = sample_svg();
        let broken = corrupt(&svg, FaultKind::MalformedAttribute, 1);
        let err = Document::parse(&broken).unwrap_err();
        assert!(
            matches!(err, wm_svg::ParseError::BadGeometry { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_routers_removes_objects_keeps_links() {
        let svg = sample_svg();
        let broken = corrupt(&svg, FaultKind::MissingRouters, 1);
        let doc = Document::parse(&broken).expect("still valid SVG");
        assert_eq!(doc.elements_with_class_prefix("object").count(), 0);
        assert!(doc.elements().any(|e| e.class_is("link")));
    }

    #[test]
    fn fault_rate_is_small_but_nonzero() {
        let mut faults = 0;
        let n = 200_000;
        for i in 0..n {
            let t = Timestamp::from_unix(i64::from(i) * 300);
            if fault_for(42, MapKind::Europe, t).is_some() {
                faults += 1;
            }
        }
        let rate = f64::from(faults) / f64::from(n);
        assert!(
            rate > FAULT_RATE / 4.0 && rate < FAULT_RATE * 4.0,
            "rate {rate}"
        );
    }

    #[test]
    fn all_fault_kinds_occur() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3_000_000i64 {
            if let Some(kind) = fault_for(42, MapKind::Europe, Timestamp::from_unix(i * 300)) {
                seen.insert(format!("{kind:?}"));
            }
            if seen.len() == 3 {
                break;
            }
        }
        assert_eq!(seen.len(), 3, "saw only {seen:?}");
    }

    #[test]
    fn fault_decision_is_deterministic() {
        let t = Timestamp::from_ymd(2021, 5, 5);
        assert_eq!(
            fault_for(1, MapKind::Europe, t),
            fault_for(1, MapKind::Europe, t)
        );
    }
}
