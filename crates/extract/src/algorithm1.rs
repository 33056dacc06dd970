//! Algorithm 1 — SVG parsing to objects.
//!
//! A direct implementation of the paper's Algorithm 1: iterate the flat
//! element rows in document order, dispatch on class/tag, and copy out
//! the three raw object lists (the only allocations of this stage):
//!
//! * **routers** (and peerings) from `object`-classed box/name pairs,
//! * **links** from consecutive arrow `polygon` pairs followed by their
//!   two `labellink` load percentages,
//! * **labels** from `node`-classed box/text pairs.
//!
//! No geometry is interpreted here beyond storing coordinates; relating
//! the lists to one another is Algorithm 2's job.

use wm_geometry::{Polygon, Rect};
use wm_model::Load;
use wm_svg::{Document, Element, Shape, Tag};

use crate::error::ExtractError;

/// A router or peering box with its name, as drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct RawRouter {
    /// The white box.
    pub rect: Rect,
    /// The displayed name.
    pub name: String,
}

/// A link under assembly / fully parsed: two arrows, then two loads.
#[derive(Debug, Clone, PartialEq)]
pub struct RawLink {
    /// The two arrow polygons, in document order (the paper's Lines 9–13).
    pub arrows: Vec<Polygon>,
    /// The two load percentages, in document order (Lines 14–15).
    pub loads: Vec<Load>,
}

/// A `#n` label box with its text.
#[derive(Debug, Clone, PartialEq)]
pub struct RawLabel {
    /// The white label box.
    pub rect: Rect,
    /// The label text.
    pub text: String,
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawObjects {
    /// Router/peering boxes with names.
    pub routers: Vec<RawRouter>,
    /// Completed links (two arrows + two loads each).
    pub links: Vec<RawLink>,
    /// Link-end labels.
    pub labels: Vec<RawLabel>,
}

/// Runs Algorithm 1 over a parsed SVG document.
pub fn algorithm1(doc: &Document) -> Result<RawObjects, ExtractError> {
    let mut out = RawObjects::default();
    algorithm1_into(doc, &mut out)?;
    Ok(out)
}

/// [`algorithm1`] writing into caller-owned storage, so batch runs reuse
/// the three object vectors' capacity across snapshots.
///
/// `out` is cleared first; on error it holds the partial parse and must
/// not be read (the next call clears it again).
pub fn algorithm1_into(doc: &Document, out: &mut RawObjects) -> Result<(), ExtractError> {
    out.routers.clear();
    out.links.clear();
    out.labels.clear();
    // Temporary variables, exactly as in the paper's pseudocode.
    let mut link: Option<RawLink> = None;
    let mut label_rect: Option<Rect> = None;
    let mut router_rect: Option<Rect> = None;

    for elem in doc.elements() {
        let class = elem.class();
        if class.is_some_and(|c| c.starts_with("object")) {
            // Router/peering: a box followed by its name text.
            match (elem.shape(), router_rect) {
                (Shape::Rect(rect), _) => router_rect = Some(rect),
                (Shape::Text { content, .. }, Some(rect)) => {
                    if content.trim().is_empty() {
                        return Err(structure("object with an empty name"));
                    }
                    out.routers.push(RawRouter {
                        rect,
                        name: content.trim().to_owned(),
                    });
                    router_rect = None;
                }
                (Shape::Text { .. }, None) => {
                    return Err(structure("object name without its box"));
                }
                _ => return Err(structure("object element is neither rect nor text")),
            }
        } else if elem.tag() == Tag::Polygon {
            // Link arrow (Lines 9–13).
            let points = elem.as_polygon().unwrap_or_default();
            if points.len() < 3 {
                return Err(ExtractError::InvalidSvg(format!(
                    "arrow polygon with {} vertices",
                    points.len()
                )));
            }
            let polygon = Polygon::new(points.to_vec());
            match &mut link {
                None => {
                    link = Some(RawLink {
                        arrows: vec![polygon],
                        loads: Vec::new(),
                    })
                }
                Some(pending) if pending.arrows.len() == 1 && pending.loads.is_empty() => {
                    pending.arrows.push(polygon);
                }
                Some(_) => {
                    return Err(structure("a third arrow before the link's loads"));
                }
            }
        } else if class == Some("labellink") {
            // Load percentage (Lines 14–18).
            let text = text_of(&elem)?;
            let load: Load = text.parse().map_err(|_| ExtractError::InvalidLoad {
                text: text.to_owned(),
            })?;
            match &mut link {
                Some(pending) if pending.arrows.len() == 2 => {
                    pending.loads.push(load);
                    if pending.loads.len() == 2 {
                        // The arm matched `Some(pending)`, so `take()`
                        // always yields the completed link.
                        if let Some(done) = link.take() {
                            out.links.push(done);
                        }
                    }
                }
                Some(_) => return Err(structure("load percentage before both arrows")),
                None => return Err(structure("load percentage outside any link")),
            }
        } else if class == Some("node") {
            // Link label (Lines 19–24).
            match (elem.shape(), label_rect) {
                (Shape::Rect(rect), _) => label_rect = Some(rect),
                (Shape::Text { content, .. }, Some(rect)) => {
                    out.labels.push(RawLabel {
                        rect,
                        text: content.trim().to_owned(),
                    });
                    label_rect = None;
                }
                (Shape::Text { .. }, None) => {
                    return Err(structure("label text without its box"));
                }
                _ => return Err(structure("label element is neither rect nor text")),
            }
        }
        // Anything else (styles, decorations) is ignored, as in the paper.
    }

    if let Some(pending) = link {
        return Err(structure(&format!(
            "document ended with an incomplete link ({} arrows, {} loads)",
            pending.arrows.len(),
            pending.loads.len()
        )));
    }
    if label_rect.is_some() {
        return Err(structure(
            "document ended with a label box awaiting its text",
        ));
    }
    if router_rect.is_some() {
        return Err(structure(
            "document ended with an object box awaiting its name",
        ));
    }
    Ok(())
}

fn text_of<'d>(elem: &Element<'d>) -> Result<&'d str, ExtractError> {
    elem.as_text()
        .ok_or_else(|| structure("expected a text element"))
}

fn structure(detail: &str) -> ExtractError {
    ExtractError::MalformedStructure {
        detail: detail.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_geometry::Point;
    use wm_svg::Builder;

    fn arrow(points: [(f64, f64); 3]) -> Vec<Point> {
        points.iter().map(|(x, y)| Point::new(*x, *y)).collect()
    }

    /// Builds a minimal valid weathermap: two routers, one link, labels.
    fn minimal_svg() -> String {
        let mut b = Builder::new(500.0, 200.0);
        b.rect("object", Rect::new(10.0, 40.0, 90.0, 24.0));
        b.text("object", Point::new(14.0, 55.0), "rbx-g1-nc1");
        b.rect("object", Rect::new(380.0, 40.0, 90.0, 24.0));
        b.text("object", Point::new(384.0, 55.0), "ARELION");
        b.polygon(
            "link",
            &arrow([(100.0, 50.0), (238.0, 52.0), (238.0, 48.0)]),
        );
        b.polygon(
            "link",
            &arrow([(380.0, 50.0), (242.0, 48.0), (242.0, 52.0)]),
        );
        b.text("labellink", Point::new(220.0, 44.0), "42 %");
        b.text("labellink", Point::new(260.0, 44.0), "9 %");
        b.rect("node", Rect::new(103.0, 46.0, 22.0, 9.0));
        b.text("node", Point::new(106.0, 53.0), "#1");
        b.rect("node", Rect::new(355.0, 46.0, 22.0, 9.0));
        b.text("node", Point::new(358.0, 53.0), "#1");
        b.finish()
    }

    fn parse(svg: &str) -> Result<RawObjects, ExtractError> {
        let doc = Document::parse(svg).map_err(|e| ExtractError::InvalidSvg(e.to_string()))?;
        algorithm1(&doc)
    }

    #[test]
    fn extracts_routers_links_labels() {
        let objects = parse(&minimal_svg()).unwrap();
        assert_eq!(objects.routers.len(), 2);
        assert_eq!(objects.routers[0].name, "rbx-g1-nc1");
        assert_eq!(objects.routers[1].name, "ARELION");
        assert_eq!(objects.links.len(), 1);
        assert_eq!(objects.links[0].arrows.len(), 2);
        assert_eq!(
            objects.links[0].loads,
            vec![Load::new(42).unwrap(), Load::new(9).unwrap()]
        );
        assert_eq!(objects.labels.len(), 2);
        assert_eq!(objects.labels[0].text, "#1");
    }

    #[test]
    fn load_out_of_range_is_rejected() {
        let mut b = Builder::new(100.0, 100.0);
        b.polygon("link", &arrow([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]));
        b.polygon("link", &arrow([(20.0, 0.0), (10.0, 0.0), (15.0, 5.0)]));
        b.text("labellink", Point::new(5.0, 5.0), "142 %");
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::InvalidLoad { .. }), "{err}");
    }

    #[test]
    fn non_numeric_load_is_rejected() {
        let mut b = Builder::new(100.0, 100.0);
        b.polygon("link", &arrow([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]));
        b.polygon("link", &arrow([(20.0, 0.0), (10.0, 0.0), (15.0, 5.0)]));
        b.text("labellink", Point::new(5.0, 5.0), "N/A");
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::InvalidLoad { .. }));
    }

    #[test]
    fn third_arrow_before_loads_is_structural_error() {
        let mut b = Builder::new(100.0, 100.0);
        for _ in 0..3 {
            b.polygon("link", &arrow([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]));
        }
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::MalformedStructure { .. }));
    }

    #[test]
    fn load_before_both_arrows_is_structural_error() {
        let mut b = Builder::new(100.0, 100.0);
        b.polygon("link", &arrow([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]));
        b.text("labellink", Point::new(5.0, 5.0), "10 %");
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::MalformedStructure { .. }));
    }

    #[test]
    fn incomplete_trailing_link_is_rejected() {
        let mut b = Builder::new(100.0, 100.0);
        b.polygon("link", &arrow([(0.0, 0.0), (10.0, 0.0), (5.0, 5.0)]));
        b.polygon("link", &arrow([(20.0, 0.0), (10.0, 0.0), (15.0, 5.0)]));
        b.text("labellink", Point::new(5.0, 5.0), "10 %");
        // Second load missing.
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::MalformedStructure { .. }));
    }

    #[test]
    fn label_text_without_box_is_rejected() {
        let mut b = Builder::new(100.0, 100.0);
        b.text("node", Point::new(5.0, 5.0), "#1");
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::MalformedStructure { .. }));
    }

    #[test]
    fn object_name_without_box_is_rejected() {
        let mut b = Builder::new(100.0, 100.0);
        b.text("object", Point::new(5.0, 5.0), "rbx-g1");
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::MalformedStructure { .. }));
    }

    #[test]
    fn degenerate_arrow_polygon_is_invalid_svg() {
        let mut b = Builder::new(100.0, 100.0);
        b.polygon("link", &[Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
        let err = parse(&b.finish()).unwrap_err();
        assert!(matches!(err, ExtractError::InvalidSvg(_)));
    }

    #[test]
    fn zero_percent_loads_parse() {
        let objects = parse(&minimal_svg().replace("42 %", "0 %")).unwrap();
        assert!(objects.links[0].loads[0].is_disabled());
    }

    #[test]
    fn empty_map_parses_to_empty_objects() {
        let b = Builder::new(10.0, 10.0);
        let objects = parse(&b.finish()).unwrap();
        assert_eq!(objects, RawObjects::default());
    }

    #[test]
    fn multiple_links_parse_in_order() {
        let mut b = Builder::new(300.0, 100.0);
        for i in 0..3 {
            let y = 10.0 + f64::from(i) * 20.0;
            b.polygon("link", &arrow([(0.0, y), (40.0, y - 2.0), (40.0, y + 2.0)]));
            b.polygon(
                "link",
                &arrow([(100.0, y), (60.0, y - 2.0), (60.0, y + 2.0)]),
            );
            b.text("labellink", Point::new(30.0, y), &format!("{} %", i + 1));
            b.text("labellink", Point::new(70.0, y), &format!("{} %", i + 11));
        }
        let objects = parse(&b.finish()).unwrap();
        assert_eq!(objects.links.len(), 3);
        assert_eq!(objects.links[2].loads[0].percent(), 3);
        assert_eq!(objects.links[2].loads[1].percent(), 13);
    }
}
