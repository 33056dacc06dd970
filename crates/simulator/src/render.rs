//! Rendering a priced network state to weathermap SVG + ground truth.
//!
//! The renderer owns the *flat-SVG contract* the extraction pipeline
//! re-discovers geometrically (it never shares parsed structures with it):
//!
//! * every node is a `<rect class="object">` immediately followed by a
//!   `<text class="object">` carrying its name;
//! * every physical link is two `<polygon class="link">` arrows (the a→b
//!   arrow first) immediately followed by two
//!   `<text class="labellink">` load percentages in the same order —
//!   Algorithm 1 pairs arrows and loads purely by this document order;
//! * each link end's `#n` label is a `<rect class="node">` immediately
//!   followed by a `<text class="node">` — Algorithm 2 attributes these
//!   to link ends purely by geometry.
//!
//! Alongside the SVG the renderer emits the ground-truth
//! [`TopologySnapshot`], which integration tests compare against the
//! extraction output.

use wm_geometry::{Point, Rect, Vec2};
use wm_model::{Link, LinkEnd, Load, Node, Timestamp, TopologySnapshot};
use wm_svg::Builder;

use crate::layout::{label_centers, MapLayout, LABEL_BOX};
use crate::state::NetworkState;
use crate::traffic::TrafficModel;

/// Half-width of an arrow shaft.
const SHAFT_HALF_WIDTH: f64 = 2.0;
/// Half-width of an arrow head.
const HEAD_HALF_WIDTH: f64 = 5.0;
/// Length of an arrow head.
const HEAD_LENGTH: f64 = 8.0;
/// Gap between the two meeting arrow tips at the middle of a link.
const TIP_GAP: f64 = 2.0;
/// How far an arrow's rear edge is inset from the link end into the node
/// box. Keeps the extracted basis strictly inside the box despite the
/// writer's two-decimal coordinate rounding, so the link's carrier line
/// always passes through the box interior.
const BASIS_INSET: f64 = 2.0;

/// A rendered snapshot: the SVG bytes plus the ground truth they encode.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedSnapshot {
    /// The weathermap SVG document.
    pub svg: String,
    /// What the document truthfully shows.
    pub truth: TopologySnapshot,
}

/// Renders `state` at `t`, pricing links with `traffic`.
#[must_use]
pub fn render(
    state: &NetworkState,
    layout: &MapLayout,
    traffic: &TrafficModel,
    t: Timestamp,
) -> RenderedSnapshot {
    let mut builder = Builder::new(layout.width, layout.height);
    builder.comment(&format!(
        "wm-simulator snapshot map={} t={}",
        state.map.slug(),
        t.to_iso8601()
    ));
    let mut truth = TopologySnapshot::new(state.map, t);

    // --- Nodes -------------------------------------------------------------
    for node_layout in &layout.nodes {
        let node = &state.nodes[node_layout.idx];
        builder.rect("object", node_layout.rect);
        builder.text("object", node_layout.name_anchor, &node.name);
        truth.nodes.push(Node {
            name: node.name.as_str().into(),
            kind: node.kind,
        });
    }

    // --- Links --------------------------------------------------------------
    let priced = traffic.price_state(state, t);
    let load_of = |gi: usize, li: usize| -> (Load, Load) {
        priced
            .iter()
            .find(|(g, l, _, _)| *g == gi && *l == li)
            .map(|(_, _, ab, ba)| (*ab, *ba))
            .expect("every link is priced")
    };

    for lane in &layout.lanes {
        let group = &state.groups[lane.group];
        let slot = &group.links[lane.slot];
        let (load_ab, load_ba) = load_of(lane.group, lane.slot);

        let seg = lane.segment();
        let dir = seg.direction().normalized().unwrap_or(Vec2::new(1.0, 0.0));
        let mid = seg.midpoint();

        // Arrow a→b: basis just inside the box at end_a, tip short of the
        // middle (the inset lies along the lane, so the carrier line is
        // unchanged).
        let tip_ab = mid - dir * TIP_GAP;
        let tip_ba = mid + dir * TIP_GAP;
        builder.polygon(
            "link",
            &arrow_polygon(lane.end_a + dir * BASIS_INSET, tip_ab),
        );
        builder.polygon(
            "link",
            &arrow_polygon(lane.end_b - dir * BASIS_INSET, tip_ba),
        );
        // The two load texts, in the same order as the arrows.
        let perp = dir.perpendicular();
        builder.text(
            "labellink",
            tip_ab - dir * 14.0 + perp * 4.0,
            &format!("{load_ab}"),
        );
        builder.text(
            "labellink",
            tip_ba + dir * 14.0 + perp * 4.0,
            &format!("{load_ba}"),
        );

        // The two #n labels: a white box and its text at each end.
        let (center_a, center_b) = label_centers(lane);
        for (center, text) in [(center_a, &slot.label_a), (center_b, &slot.label_b)] {
            let rect = Rect::new(
                center.x - LABEL_BOX.0 / 2.0,
                center.y - LABEL_BOX.1 / 2.0,
                LABEL_BOX.0,
                LABEL_BOX.1,
            );
            builder.rect("node", rect);
            builder.text(
                "node",
                Point::new(rect.x + 3.0, rect.y + rect.height - 2.0),
                text,
            );
        }

        truth.links.push(Link::new(
            LinkEnd::new(node_of(state, group.a), Some(slot.label_a.clone()), load_ab),
            LinkEnd::new(node_of(state, group.b), Some(slot.label_b.clone()), load_ba),
        ));
    }

    RenderedSnapshot {
        svg: builder.finish(),
        truth,
    }
}

fn node_of(state: &NetworkState, idx: usize) -> Node {
    let n = &state.nodes[idx];
    Node {
        name: n.name.as_str().into(),
        kind: n.kind,
    }
}

/// Builds the arrow polygon from basis `from` to tip `to`.
///
/// Long arrows get the classic seven-vertex shaft+head shape; arrows
/// shorter than two head-lengths degrade to a plain triangle. In both
/// shapes the rear edge straddles `from` symmetrically, so the extracted
/// arrow basis (principal-axis rear midpoint) is exactly `from`.
#[must_use]
pub fn arrow_polygon(from: Point, to: Point) -> Vec<Point> {
    let Some(dir) = (to - from).normalized() else {
        // Degenerate; draw a tiny triangle so the document stays valid.
        return vec![
            Point::new(from.x - 1.0, from.y),
            Point::new(from.x + 1.0, from.y),
            Point::new(from.x, from.y - 1.0),
        ];
    };
    let perp = dir.perpendicular();
    let length = from.distance(to);
    if length < HEAD_LENGTH * 2.0 {
        return vec![
            from + perp * SHAFT_HALF_WIDTH,
            to,
            from - perp * SHAFT_HALF_WIDTH,
        ];
    }
    let neck = to - dir * HEAD_LENGTH;
    vec![
        from + perp * SHAFT_HALF_WIDTH,
        neck + perp * SHAFT_HALF_WIDTH,
        neck + perp * HEAD_HALF_WIDTH,
        to,
        neck - perp * HEAD_HALF_WIDTH,
        neck - perp * SHAFT_HALF_WIDTH,
        from - perp * SHAFT_HALF_WIDTH,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::targets;
    use crate::genesis;
    use crate::layout::layout;
    use wm_geometry::Polygon;
    use wm_model::MapKind;
    use wm_svg::{Document, Tag};

    fn rendered() -> RenderedSnapshot {
        let state = genesis::build(MapKind::Europe, &targets(MapKind::Europe, 0.15), &[], 5).state;
        let l = layout(&state);
        let traffic = TrafficModel::new(5);
        render(
            &state,
            &l,
            &traffic,
            Timestamp::from_ymd_hms(2021, 3, 10, 12, 0, 0),
        )
    }

    #[test]
    fn svg_is_well_formed_and_flat() {
        let r = rendered();
        let doc = Document::parse(&r.svg).expect("renderer output parses");
        assert!(doc.width > 0.0 && doc.height > 0.0);
        assert!(!doc.is_empty());
    }

    #[test]
    fn truth_matches_state_counts() {
        let state = genesis::build(MapKind::Europe, &targets(MapKind::Europe, 0.15), &[], 5).state;
        let l = layout(&state);
        let traffic = TrafficModel::new(5);
        let r = render(&state, &l, &traffic, Timestamp::from_ymd(2021, 3, 10));
        let (internal, external) = state.link_counts();
        assert_eq!(r.truth.links.len(), internal + external);
        assert_eq!(r.truth.internal_link_count(), internal);
        assert_eq!(r.truth.external_link_count(), external);
        assert_eq!(
            r.truth.nodes.len(),
            state.nodes.iter().filter(|n| n.present).count()
        );
    }

    #[test]
    fn element_order_contract_holds() {
        let r = rendered();
        let doc = Document::parse(&r.svg).unwrap();
        // After the object section, links come as polygon, polygon,
        // labellink, labellink; labels as rect.node, text.node pairs.
        let mut i = 0;
        let elems: Vec<_> = doc.elements().collect();
        // Object section: rect/text pairs.
        while i < elems.len() && elems[i].class_starts_with("object") {
            assert_eq!(elems[i].tag(), Tag::Rect);
            assert!(elems[i + 1].class_starts_with("object"));
            assert_eq!(elems[i + 1].tag(), Tag::Text);
            i += 2;
        }
        assert!(i > 0, "no object section found");
        // Link sections.
        let mut links_seen = 0;
        while i < elems.len() {
            assert!(elems[i].class_is("link"), "expected link polygon at {i}");
            assert_eq!(elems[i].tag(), Tag::Polygon);
            assert!(elems[i + 1].class_is("link"));
            assert!(elems[i + 2].class_is("labellink"));
            assert!(elems[i + 3].class_is("labellink"));
            assert!(elems[i + 4].class_is("node"));
            assert_eq!(elems[i + 4].tag(), Tag::Rect);
            assert!(elems[i + 5].class_is("node"));
            assert_eq!(elems[i + 5].tag(), Tag::Text);
            assert!(elems[i + 6].class_is("node"));
            assert!(elems[i + 7].class_is("node"));
            i += 8;
            links_seen += 1;
        }
        assert_eq!(links_seen, r.truth.links.len());
    }

    #[test]
    fn load_texts_are_percentages() {
        let r = rendered();
        let doc = Document::parse(&r.svg).unwrap();
        for e in doc.elements().filter(|e| e.class_is("labellink")) {
            let text = e.as_text().expect("labellink is text");
            let load: Load = text.parse().expect("valid load text");
            assert!(load.percent() <= 100);
        }
    }

    #[test]
    fn arrow_basis_recovers_from_point() {
        for (from, to) in [
            (Point::new(0.0, 0.0), Point::new(100.0, 0.0)),
            (Point::new(10.0, 20.0), Point::new(-50.0, 90.0)),
            (Point::new(5.0, 5.0), Point::new(5.0, 200.0)),
            // Short arrow → triangle shape.
            (Point::new(0.0, 0.0), Point::new(10.0, 4.0)),
        ] {
            let poly = Polygon::new(arrow_polygon(from, to));
            let basis = poly.arrow_basis().expect("arrow has a basis");
            assert!(
                basis.distance(from) < 0.5,
                "basis {basis} should be at {from} (tip {to})"
            );
            let tip = poly.arrow_tip().expect("arrow has a tip");
            assert!(tip.distance(to) < 0.5, "tip {tip} should be at {to}");
        }
    }

    #[test]
    fn degenerate_arrow_is_still_a_polygon() {
        let poly = arrow_polygon(Point::new(3.0, 3.0), Point::new(3.0, 3.0));
        assert_eq!(poly.len(), 3);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(rendered().svg, rendered().svg);
    }
}
