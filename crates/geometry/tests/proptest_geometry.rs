//! Property-based checks of the geometric kernels Algorithm 2 relies on.

use proptest::prelude::*;
use wm_geometry::{Line, Point, Polygon, Rect, Segment};

fn point_strategy() -> impl Strategy<Value = Point> {
    (-1e4f64..1e4, -1e4f64..1e4).prop_map(|(x, y)| Point::new(x, y))
}

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (-1e4f64..1e4, -1e4f64..1e4, 0.1f64..500.0, 0.1f64..500.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rect_contains_its_center_and_corners(r in rect_strategy()) {
        prop_assert!(r.contains(r.center()));
        for corner in r.corners() {
            prop_assert!(r.contains(corner));
            prop_assert!(r.distance_to_point(corner) == 0.0);
        }
    }

    #[test]
    fn line_through_two_points_touches_both(a in point_strategy(), b in point_strategy()) {
        let line = Line::through(a, b);
        prop_assert!(line.distance_to_point(a) < 1e-6);
        prop_assert!(line.distance_to_point(b) < 1e-6);
    }

    #[test]
    fn projection_is_idempotent(a in point_strategy(), b in point_strategy(), p in point_strategy()) {
        prop_assume!(a.distance(b) > 1.0);
        let line = Line::through(a, b);
        let q = line.project(p);
        prop_assert!(q.distance(line.project(q)) < 1e-6);
        prop_assert!(line.distance_to_point(q) < 1e-6);
    }

    #[test]
    fn line_through_rect_center_always_intersects(
        r in rect_strategy(), towards in point_strategy(),
    ) {
        prop_assume!(towards.distance(r.center()) > 1.0);
        let line = Line::through(r.center(), towards);
        prop_assert!(r.intersects_line(&line));
    }

    #[test]
    fn closest_point_is_no_farther_than_endpoints(
        a in point_strategy(), b in point_strategy(), p in point_strategy(),
    ) {
        let s = Segment::new(a, b);
        let d = s.distance_to_point(p);
        prop_assert!(d <= p.distance(a) + 1e-9);
        prop_assert!(d <= p.distance(b) + 1e-9);
    }

    #[test]
    fn arrow_basis_and_tip_are_recovered(
        from in point_strategy(), to in point_strategy(),
    ) {
        prop_assume!(from.distance(to) > 20.0);
        // Build the renderer-shaped seven-vertex arrow by hand.
        let dir = {
            let d = to - from;
            d.normalized().expect("distinct points")
        };
        let perp = dir.perpendicular();
        let neck = to - dir * 8.0;
        let polygon = Polygon::new(vec![
            from + perp * 2.0,
            neck + perp * 2.0,
            neck + perp * 5.0,
            to,
            neck - perp * 5.0,
            neck - perp * 2.0,
            from - perp * 2.0,
        ]);
        let basis = polygon.arrow_basis().expect("arrow shape");
        let tip = polygon.arrow_tip().expect("arrow shape");
        prop_assert!(basis.distance(from) < 0.5, "basis {} vs {}", basis, from);
        prop_assert!(tip.distance(to) < 0.5, "tip {} vs {}", tip, to);
    }
}
