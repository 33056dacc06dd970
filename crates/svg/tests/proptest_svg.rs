//! Property-based round-trip: documents produced by the [`Builder`] parse
//! back with identical geometry (within the writer's two-decimal
//! coordinate precision).

use proptest::prelude::*;
use wm_geometry::{Point, Rect};
use wm_svg::{Builder, Document, Shape};

/// Coordinates quantised to the writer's two-decimal output precision, so
/// geometry comparisons are exact.
fn coord() -> impl Strategy<Value = f64> {
    (-400_000i32..400_000).prop_map(|q| f64::from(q) / 100.0)
}

#[derive(Debug, Clone)]
enum Item {
    Rect(Rect),
    Polygon(Vec<Point>),
    Text(Point, String),
}

fn item_strategy() -> impl Strategy<Value = Item> {
    prop_oneof![
        (coord(), coord(), 0.01f64..500.0, 0.01f64..500.0).prop_map(|(x, y, w, h)| {
            // Quantise extents too.
            Item::Rect(Rect::new(
                x,
                y,
                (w * 100.0).round() / 100.0,
                (h * 100.0).round() / 100.0,
            ))
        }),
        prop::collection::vec((coord(), coord()).prop_map(|(x, y)| Point::new(x, y)), 3..8)
            .prop_map(Item::Polygon),
        (
            coord(),
            coord(),
            // Whitespace-only text is excluded: the parser deliberately
            // drops whitespace-only runs (weathermap text never encodes
            // information in them), so such content cannot round-trip.
            proptest::string::string_regex("([ -~]{0,19}[!-~])?").expect("valid regex"),
        )
            .prop_map(|(x, y, text)| Item::Text(Point::new(x, y), text)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_parse_round_trip(items in prop::collection::vec(item_strategy(), 0..12)) {
        let mut builder = Builder::new(1000.0, 800.0);
        for item in &items {
            match item {
                Item::Rect(r) => builder.rect("object", *r),
                Item::Polygon(points) => builder.polygon("link", points),
                Item::Text(anchor, text) => builder.text("node", *anchor, text),
            }
        }
        let svg = builder.finish();
        let doc = Document::parse(&svg)
            .unwrap_or_else(|e| panic!("builder output failed to parse: {e}\n---\n{svg}"));
        prop_assert_eq!(doc.len(), items.len());
        for (element, item) in doc.elements().zip(&items) {
            match (item, element.shape()) {
                (Item::Rect(expected), Shape::Rect(parsed)) => {
                    prop_assert!(
                        (parsed.x - expected.x).abs() < 1e-9
                            && (parsed.y - expected.y).abs() < 1e-9
                            && (parsed.width - expected.width).abs() < 1e-9
                            && (parsed.height - expected.height).abs() < 1e-9,
                        "rect mismatch: {:?} vs {:?}", parsed, expected
                    );
                }
                (Item::Polygon(expected), Shape::Polygon(parsed)) => {
                    prop_assert_eq!(parsed.len(), expected.len());
                    for (p, q) in parsed.iter().zip(expected) {
                        prop_assert!(p.approx_eq(*q), "vertex {} vs {}", p, q);
                    }
                }
                (Item::Text(anchor, text), Shape::Text { anchor: parsed, content }) => {
                    prop_assert!(parsed.approx_eq(*anchor));
                    prop_assert_eq!(content, text);
                }
                (item, shape) => prop_assert!(false, "shape mismatch: {item:?} vs {shape:?}"),
            }
        }
    }
}
