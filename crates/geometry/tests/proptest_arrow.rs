//! Property test: the allocation-free arrow geometry (`arrow_tip`,
//! `arrow_basis`) returns bit for bit what the original allocating code
//! returned, copied here as the reference.

use proptest::prelude::*;
use wm_geometry::{Point, Polygon};

/// The original `axis_extremes`: projections, extremes and the two
/// extreme groups, each in its own `Vec`.
fn reference_extremes(polygon: &Polygon) -> Option<(Vec<Point>, Vec<Point>)> {
    let vertices = polygon.vertices();
    let axis = polygon.principal_axis()?;
    let c = polygon.centroid()?;
    let ts: Vec<f64> = vertices.iter().map(|p| (*p - c).dot(axis)).collect();
    let tmin = ts.iter().copied().fold(f64::INFINITY, f64::min);
    let tmax = ts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = tmax - tmin;
    let tol = (span * 0.01).clamp(0.5, 3.0).max(wm_geometry::EPSILON);
    let low = vertices
        .iter()
        .zip(&ts)
        .filter(|(_, t)| (**t - tmin).abs() <= tol)
        .map(|(p, _)| *p)
        .collect();
    let high = vertices
        .iter()
        .zip(&ts)
        .filter(|(_, t)| (tmax - **t).abs() <= tol)
        .map(|(p, _)| *p)
        .collect();
    Some((low, high))
}

fn reference_mean(points: &[Point]) -> Point {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    Point::new(sx / n, sy / n)
}

fn reference_tip(polygon: &Polygon) -> Option<Point> {
    if polygon.len() < 3 {
        return None;
    }
    let (low, high) = reference_extremes(polygon)?;
    match low.len().cmp(&high.len()) {
        std::cmp::Ordering::Less => Some(reference_mean(&low)),
        std::cmp::Ordering::Greater => Some(reference_mean(&high)),
        std::cmp::Ordering::Equal => {
            let c = polygon.centroid()?;
            polygon
                .vertices()
                .iter()
                .copied()
                .max_by(|a, b| a.distance_squared(c).total_cmp(&b.distance_squared(c)))
        }
    }
}

fn reference_basis(polygon: &Polygon) -> Option<Point> {
    if polygon.len() < 3 {
        return None;
    }
    let (low, high) = reference_extremes(polygon)?;
    match low.len().cmp(&high.len()) {
        std::cmp::Ordering::Less => Some(reference_mean(&high)),
        std::cmp::Ordering::Greater => Some(reference_mean(&low)),
        std::cmp::Ordering::Equal => {
            let tip = reference_tip(polygon)?;
            let mut rest: Vec<Point> = polygon.vertices().to_vec();
            rest.sort_by(|a, b| b.distance_squared(tip).total_cmp(&a.distance_squared(tip)));
            match (rest.first(), rest.get(1)) {
                (Some(a), Some(b)) => Some(a.midpoint(*b)),
                _ => None,
            }
        }
    }
}

fn bits(p: Option<Point>) -> Option<(u64, u64)> {
    p.map(|p| (p.x.to_bits(), p.y.to_bits()))
}

/// Small integer and two-decimal coordinates: a narrow range makes
/// coincident vertices, equal distances and symmetric shapes common.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-6i32..6).prop_map(f64::from),
        (-200_000i32..200_000).prop_map(|c| f64::from(c) / 100.0),
    ]
}

/// A renderer-shaped seven-vertex arrow from `from` to `to`.
fn arrow() -> impl Strategy<Value = Vec<Point>> {
    (coord(), coord(), coord(), coord()).prop_map(|(x0, y0, x1, y1)| {
        let (from, to) = (Point::new(x0, y0), Point::new(x1, y1));
        let d = to - from;
        let len = (d.x * d.x + d.y * d.y).sqrt().max(1e-9);
        let dir = Point::new(d.x / len, d.y / len);
        let perp = Point::new(-dir.y, dir.x);
        let at = |base: Point, along: f64, across: f64| {
            Point::new(
                base.x + dir.x * along + perp.x * across,
                base.y + dir.y * along + perp.y * across,
            )
        };
        vec![
            at(from, 0.0, 2.0),
            at(to, -8.0, 2.0),
            at(to, -8.0, 5.0),
            to,
            at(to, -8.0, -5.0),
            at(to, -8.0, -2.0),
            at(from, 0.0, -2.0),
        ]
    })
}

/// Regular-ish symmetric shapes (rectangles, diamonds), whose extreme
/// groups have equal sizes and exercise the fallback branches.
fn symmetric() -> impl Strategy<Value = Vec<Point>> {
    (coord(), coord(), 1i32..20, 1i32..20, any::<bool>()).prop_map(|(x, y, w, h, diamond)| {
        let (w, h) = (f64::from(w), f64::from(h));
        if diamond {
            vec![
                Point::new(x, y - h),
                Point::new(x + w, y),
                Point::new(x, y + h),
                Point::new(x - w, y),
            ]
        } else {
            vec![
                Point::new(x, y),
                Point::new(x + w, y),
                Point::new(x + w, y + h),
                Point::new(x, y + h),
            ]
        }
    })
}

fn polygon() -> impl Strategy<Value = Polygon> {
    prop_oneof![
        arrow(),
        symmetric(),
        prop::collection::vec(
            (coord(), coord()).prop_map(|(x, y)| Point::new(x, y)),
            0..10
        ),
    ]
    .prop_map(Polygon::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arrow_geometry_matches_the_allocating_reference(polygon in polygon()) {
        prop_assert_eq!(bits(polygon.arrow_tip()), bits(reference_tip(&polygon)), "{:?}", polygon);
        prop_assert_eq!(
            bits(polygon.arrow_basis()),
            bits(reference_basis(&polygon)),
            "{:?}", polygon
        );
    }
}
