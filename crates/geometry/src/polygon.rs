//! Simple polygons — the shape of weathermap link arrows.

use crate::Point;

/// A simple polygon given by its vertices in drawing order.
///
/// In weathermap SVGs every half of a bidirectional link is drawn as one
/// `<polygon>` arrow. Algorithm 1 extracts the raw coordinate list of those
/// polygons; the geometric helpers here recover the arrow *basis* (the rear
/// edge midpoint) and *tip*, from which Algorithm 2 builds the link segment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from vertices in drawing order.
    #[must_use]
    pub fn new(vertices: Vec<Point>) -> Self {
        Self { vertices }
    }

    /// The vertices in drawing order.
    #[inline]
    #[must_use]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` when the polygon has no vertices.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Arithmetic mean of the vertices.
    ///
    /// Returns `None` for an empty polygon.
    #[must_use]
    pub fn centroid(&self) -> Option<Point> {
        if self.vertices.is_empty() {
            return None;
        }
        let n = self.vertices.len() as f64;
        let (sx, sy) = self
            .vertices
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Some(Point::new(sx / n, sy / n))
    }

    /// The unit direction of the polygon's principal axis.
    ///
    /// Weathermap arrows are elongated along the link direction; the
    /// principal axis (dominant eigenvector of the vertex covariance
    /// matrix) recovers that direction regardless of rotation.
    #[must_use]
    pub fn principal_axis(&self) -> Option<crate::Vec2> {
        let c = self.centroid()?;
        let n = self.vertices.len() as f64;
        let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
        for p in &self.vertices {
            let dx = p.x - c.x;
            let dy = p.y - c.y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        sxx /= n;
        sxy /= n;
        syy /= n;
        // Dominant eigenvector of [[sxx, sxy], [sxy, syy]].
        let trace = sxx + syy;
        let det = sxx * syy - sxy * sxy;
        let lambda = trace / 2.0 + (trace * trace / 4.0 - det).max(0.0).sqrt();
        let v = if sxy.abs() > crate::EPSILON {
            crate::Vec2::new(lambda - syy, sxy)
        } else if sxx >= syy {
            crate::Vec2::new(1.0, 0.0)
        } else {
            crate::Vec2::new(0.0, 1.0)
        };
        v.normalized()
    }

    /// Summarises the two extreme groups of vertices along the principal
    /// axis: `(low end, high end)`, each group being every vertex within
    /// a small tolerance of its extreme projection.
    ///
    /// Allocation-free: the projections are computed once for the
    /// extremes and again (the same float operations, so the same
    /// values) for the grouping.
    fn axis_extremes(&self) -> Option<(Extreme, Extreme)> {
        let axis = self.principal_axis()?;
        let c = self.centroid()?;
        let t = |p: &Point| (*p - c).dot(axis);
        let tmin = self.vertices.iter().map(t).fold(f64::INFINITY, f64::min);
        let tmax = self
            .vertices
            .iter()
            .map(t)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = tmax - tmin;
        // Vertices within a small absolute distance of each extreme belong
        // to it. The tolerance must stay below the arrow-head length (the
        // neck vertices sit ~8 units from the tip) even for very long
        // arrows, so it is clamped rather than purely span-relative.
        let tol = (span * 0.01).clamp(0.5, 3.0).max(crate::EPSILON);
        let mut low = Extreme::default();
        let mut high = Extreme::default();
        for p in &self.vertices {
            let tp = t(p);
            if (tp - tmin).abs() <= tol {
                low.add(*p);
            }
            if (tmax - tp).abs() <= tol {
                high.add(*p);
            }
        }
        Some((low, high))
    }

    /// Identifies the apex (tip) of an arrow-shaped polygon.
    ///
    /// The tip is the single vertex at one extreme of the principal axis;
    /// the rear edge contributes two or more vertices at the other extreme.
    /// When both ends have the same number of extreme vertices (a symmetric
    /// shape that is not an arrow) the vertex farthest from the centroid is
    /// used as a fallback.
    ///
    /// Returns `None` for polygons with fewer than three vertices.
    #[must_use]
    pub fn arrow_tip(&self) -> Option<Point> {
        if self.vertices.len() < 3 {
            return None;
        }
        let (low, high) = self.axis_extremes()?;
        match low.count.cmp(&high.count) {
            std::cmp::Ordering::Less => Some(low.mean()),
            std::cmp::Ordering::Greater => Some(high.mean()),
            std::cmp::Ordering::Equal => {
                let c = self.centroid()?;
                self.vertices
                    .iter()
                    .copied()
                    .max_by(|a, b| a.distance_squared(c).total_cmp(&b.distance_squared(c)))
            }
        }
    }

    /// Identifies the basis of an arrow-shaped polygon: the midpoint of the
    /// rear edge, i.e. the mean of the vertices at the non-tip extreme of
    /// the principal axis.
    ///
    /// The weathermap renderer draws an arrow as a polygon whose rear edge
    /// sits on the link axis next to the source router; the midpoint of
    /// that rear edge is the "middle coordinates of the basis" that
    /// Algorithm 2 uses to build the link line.
    #[must_use]
    pub fn arrow_basis(&self) -> Option<Point> {
        if self.vertices.len() < 3 {
            return None;
        }
        let (low, high) = self.axis_extremes()?;
        match low.count.cmp(&high.count) {
            std::cmp::Ordering::Less => Some(high.mean()),
            std::cmp::Ordering::Greater => Some(low.mean()),
            std::cmp::Ordering::Equal => {
                // Symmetric fallback: midpoint of the two vertices farthest
                // from the tip, earlier vertices first among equals (what a
                // stable descending sort would put in front).
                let tip = self.arrow_tip()?;
                let mut first: Option<(Point, f64)> = None;
                let mut second: Option<(Point, f64)> = None;
                for &p in &self.vertices {
                    let d = p.distance_squared(tip);
                    let beats = |best: Option<(Point, f64)>| {
                        best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_gt())
                    };
                    if beats(first) {
                        second = first;
                        first = Some((p, d));
                    } else if beats(second) {
                        second = Some((p, d));
                    }
                }
                match (first, second) {
                    (Some((a, _)), Some((b, _))) => Some(a.midpoint(b)),
                    _ => None,
                }
            }
        }
    }
}

/// Running count and coordinate sums of one extreme group of vertices.
#[derive(Debug, Clone, Copy, Default)]
struct Extreme {
    count: usize,
    sx: f64,
    sy: f64,
}

impl Extreme {
    fn add(&mut self, p: Point) {
        self.count += 1;
        self.sx += p.x;
        self.sy += p.y;
    }

    /// Arithmetic mean of the group (summed in vertex order).
    fn mean(&self) -> Point {
        let n = self.count as f64;
        Point::new(self.sx / n, self.sy / n)
    }
}

impl From<Vec<Point>> for Polygon {
    fn from(vertices: Vec<Point>) -> Self {
        Polygon::new(vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arrow pointing right (+x): rear edge at x = 0, tip at x = 10.
    fn right_arrow() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, -2.0),
            Point::new(6.0, -2.0),
            Point::new(6.0, -4.0),
            Point::new(10.0, 0.0),
            Point::new(6.0, 4.0),
            Point::new(6.0, 2.0),
            Point::new(0.0, 2.0),
        ])
    }

    /// A plain triangular arrow pointing up the y axis.
    fn triangle_arrow() -> Polygon {
        Polygon::new(vec![
            Point::new(-3.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(0.0, 12.0),
        ])
    }

    #[test]
    fn centroid_of_square() {
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(p.centroid().unwrap().approx_eq(Point::new(2.0, 2.0)));
    }

    #[test]
    fn empty_polygon_has_no_centroid() {
        let p = Polygon::default();
        assert!(p.is_empty());
        assert!(p.centroid().is_none());
    }

    #[test]
    fn triangle_tip_and_basis() {
        let p = triangle_arrow();
        assert!(p.arrow_tip().unwrap().approx_eq(Point::new(0.0, 12.0)));
        assert!(p.arrow_basis().unwrap().approx_eq(Point::new(0.0, 0.0)));
    }

    #[test]
    fn seven_vertex_arrow_tip_and_basis() {
        let p = right_arrow();
        assert!(p.arrow_tip().unwrap().approx_eq(Point::new(10.0, 0.0)));
        assert!(p.arrow_basis().unwrap().approx_eq(Point::new(0.0, 0.0)));
    }

    #[test]
    fn degenerate_polygons_have_no_arrow_features() {
        assert!(Polygon::new(vec![Point::new(0.0, 0.0)])
            .arrow_tip()
            .is_none());
        assert!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)])
                .arrow_basis()
                .is_none()
        );
    }
}
