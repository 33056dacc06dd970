//! Axis-aligned rectangles.
//!
//! Router boxes, peering boxes and link-label boxes are all drawn as
//! axis-aligned `<rect>` elements in weathermap SVGs, so [`Rect`] is the
//! shape against which Algorithm 2 tests link-line intersections.

use crate::{Line, Point};

/// An axis-aligned rectangle in SVG user units.
///
/// Invariant: `width >= 0` and `height >= 0`. The constructor normalises
/// negative extents, matching how SVG renderers treat them (a rect with a
/// negative width is not rendered; we instead canonicalise it so geometric
/// queries stay meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Left edge (minimum `x`).
    pub x: f64,
    /// Top edge (minimum `y`; SVG `y` grows downwards).
    pub y: f64,
    /// Horizontal extent, always non-negative.
    pub width: f64,
    /// Vertical extent, always non-negative.
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle from its top-left corner and extents,
    /// normalising negative extents.
    #[must_use]
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        let (x, width) = if width < 0.0 {
            (x + width, -width)
        } else {
            (x, width)
        };
        let (y, height) = if height < 0.0 {
            (y + height, -height)
        } else {
            (y, height)
        };
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// Creates the smallest rectangle containing both corner points.
    #[must_use]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Self::new(
            a.x.min(b.x),
            a.y.min(b.y),
            (a.x - b.x).abs(),
            (a.y - b.y).abs(),
        )
    }

    /// Right edge (maximum `x`).
    #[inline]
    #[must_use]
    pub fn right(&self) -> f64 {
        self.x + self.width
    }

    /// Bottom edge (maximum `y`).
    #[inline]
    #[must_use]
    pub fn bottom(&self) -> f64 {
        self.y + self.height
    }

    /// Centre point.
    #[inline]
    #[must_use]
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// The four corners, clockwise from the top-left.
    #[must_use]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x, self.y),
            Point::new(self.right(), self.y),
            Point::new(self.right(), self.bottom()),
            Point::new(self.x, self.bottom()),
        ]
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    #[must_use]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x - crate::EPSILON
            && p.x <= self.right() + crate::EPSILON
            && p.y >= self.y - crate::EPSILON
            && p.y <= self.bottom() + crate::EPSILON
    }

    /// Returns `true` when the infinite line crosses this rectangle.
    ///
    /// This is the core predicate of Algorithm 2: a router (or label) box
    /// is a candidate endpoint for a link when the link's carrier line
    /// intersects the box.
    #[must_use]
    pub fn intersects_line(&self, line: &Line) -> bool {
        // A line crosses an axis-aligned box iff the four corners do not
        // all lie strictly on the same side of the line.
        let mut saw_positive = false;
        let mut saw_negative = false;
        for corner in self.corners() {
            let side = line.signed_side(corner);
            if side > crate::EPSILON {
                saw_positive = true;
            } else if side < -crate::EPSILON {
                saw_negative = true;
            } else {
                // A corner exactly on the line counts as an intersection.
                return true;
            }
        }
        saw_positive && saw_negative
    }

    /// Returns `true` when `other` overlaps this rectangle (boundary
    /// contact counts as overlap).
    #[must_use]
    pub fn intersects_rect(&self, other: &Rect) -> bool {
        self.x <= other.right()
            && other.x <= self.right()
            && self.y <= other.bottom()
            && other.y <= self.bottom()
    }

    /// Distance from the rectangle boundary/interior to `p` (zero when the
    /// point is inside).
    #[must_use]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        let dx = (self.x - p.x).max(0.0).max(p.x - self.right());
        let dy = (self.y - p.y).max(0.0).max(p.y - self.bottom());
        (dx * dx + dy * dy).sqrt()
    }

    /// Grows the rectangle by `margin` on every side.
    #[must_use]
    pub fn inflated(&self, margin: f64) -> Rect {
        Rect::new(
            self.x - margin,
            self.y - margin,
            self.width + 2.0 * margin,
            self.height + 2.0 * margin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Rect {
        Rect::new(0.0, 0.0, 10.0, 10.0)
    }

    #[test]
    fn negative_extents_are_normalised() {
        let r = Rect::new(10.0, 10.0, -4.0, -2.0);
        assert_eq!(r, Rect::new(6.0, 8.0, 4.0, 2.0));
    }

    #[test]
    fn from_corners_any_order() {
        let a = Point::new(5.0, 1.0);
        let b = Point::new(1.0, 7.0);
        assert_eq!(Rect::from_corners(a, b), Rect::new(1.0, 1.0, 4.0, 6.0));
        assert_eq!(Rect::from_corners(b, a), Rect::new(1.0, 1.0, 4.0, 6.0));
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = unit();
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(!r.contains(Point::new(10.1, 5.0)));
    }

    #[test]
    fn line_through_box_intersects() {
        let r = unit();
        let line = Line::through(Point::new(-5.0, 5.0), Point::new(15.0, 5.0));
        assert!(r.intersects_line(&line));
    }

    #[test]
    fn line_missing_box_does_not_intersect() {
        let r = unit();
        let line = Line::through(Point::new(-5.0, 20.0), Point::new(15.0, 20.0));
        assert!(!r.intersects_line(&line));
    }

    #[test]
    fn diagonal_line_through_corner_intersects() {
        let r = unit();
        // Passes exactly through the (10, 10) corner.
        let line = Line::through(Point::new(0.0, 20.0), Point::new(20.0, 0.0));
        assert!(r.intersects_line(&line));
    }

    #[test]
    fn tangent_line_just_outside_misses() {
        let r = unit();
        let line = Line::through(Point::new(-5.0, 10.5), Point::new(15.0, 10.5));
        assert!(!r.intersects_line(&line));
    }

    #[test]
    fn rect_rect_overlap() {
        let r = unit();
        assert!(r.intersects_rect(&Rect::new(5.0, 5.0, 10.0, 10.0)));
        assert!(r.intersects_rect(&Rect::new(10.0, 0.0, 5.0, 5.0))); // edge contact
        assert!(!r.intersects_rect(&Rect::new(10.5, 0.0, 5.0, 5.0)));
    }

    #[test]
    fn distance_to_point_zero_inside() {
        let r = unit();
        assert_eq!(r.distance_to_point(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(r.distance_to_point(Point::new(13.0, 14.0)), 5.0);
        assert_eq!(r.distance_to_point(Point::new(-3.0, 5.0)), 3.0);
    }

    #[test]
    fn inflate_grows_all_sides() {
        let r = unit().inflated(2.0);
        assert_eq!(r, Rect::new(-2.0, -2.0, 14.0, 14.0));
    }

    #[test]
    fn center_is_the_midpoint() {
        let r = Rect::new(2.0, 4.0, 6.0, 8.0);
        assert!(r.center().approx_eq(Point::new(5.0, 8.0)));
    }
}
