//! SVG document model for weathermaps.
//!
//! Weathermap SVGs are *flat*: the paper (§4) observes that "the SVG file
//! lists the elements of the map in a flat manner with coordinates
//! positioning them in the 2D image space", and both Algorithms 1 and 2
//! exploit the document order and 2-D placement of elements rather than
//! any hierarchy. This crate therefore models an SVG as an ordered list of
//! [`Element`]s with typed [`Shape`] geometry, stored flat: `Copy` rows
//! over one text arena and one point pool, so a reused [`Document`]
//! parses without allocating per element:
//!
//! * [`Document::parse`] / [`Document::parse_into`] turn SVG text into
//!   that list (flattening `<g>` wrappers and applying
//!   `translate`/`matrix` transforms on the way),
//! * [`Builder`] produces weathermap-shaped SVG text for the simulator's
//!   renderer.
//!
//! The parser and the builder deliberately share nothing beyond the
//! element model: the real-world producer was PHP Weathermap and the
//! consumer the authors' Python script, and keeping the two code paths
//! independent preserves that asymmetry (and lets the fault injector emit
//! documents the parser must reject).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod element;
mod numbers;
mod parse;

pub use build::Builder;
pub use element::{Capacity, Document, Element, Shape, Tag};
pub use numbers::{parse_length, parse_points_into};
pub use parse::ParseError;

#[cfg(test)]
mod tests {
    use super::*;
    use wm_geometry::{Point, Rect};

    #[test]
    fn build_then_parse_round_trip() {
        let mut b = Builder::new(800.0, 600.0);
        b.rect("object", Rect::new(10.0, 20.0, 80.0, 18.0));
        b.text("object", Point::new(12.0, 33.0), "fra-fr5-pb6-nc5");
        b.polygon(
            "link",
            &[
                Point::new(100.0, 50.0),
                Point::new(140.0, 50.0),
                Point::new(120.0, 60.0),
            ],
        );
        let svg = b.finish();

        let doc = Document::parse(&svg).unwrap();
        assert_eq!(doc.width, 800.0);
        assert_eq!(doc.height, 600.0);
        assert_eq!(doc.len(), 3);
        assert!(matches!(doc.element(0).unwrap().shape(), Shape::Rect(_)));
        assert!(
            matches!(doc.element(1).unwrap().shape(), Shape::Text { content, .. }
            if content == "fra-fr5-pb6-nc5")
        );
        assert!(matches!(doc.element(2).unwrap().shape(), Shape::Polygon(p) if p.len() == 3));
    }
}
