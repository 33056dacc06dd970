//! Finite line segments.

use crate::{Line, Point, Vec2};

/// A finite, directed line segment between two points.
///
/// In the extraction pipeline a [`Segment`] models the straight line that
/// Algorithm 2 computes for each link: it joins the basis midpoints of the
/// two arrows of a bidirectional link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub start: Point,
    /// Second endpoint.
    pub end: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    #[must_use]
    pub const fn new(start: Point, end: Point) -> Self {
        Self { start, end }
    }

    /// Displacement from start to end.
    #[inline]
    #[must_use]
    pub fn direction(&self) -> Vec2 {
        self.end - self.start
    }

    /// Euclidean length of the segment.
    #[inline]
    #[must_use]
    pub fn length(&self) -> f64 {
        self.direction().length()
    }

    /// Midpoint of the segment.
    #[inline]
    #[must_use]
    pub fn midpoint(&self) -> Point {
        self.start.midpoint(self.end)
    }

    /// The infinite carrier line of the segment.
    #[inline]
    #[must_use]
    pub fn carrier_line(&self) -> Line {
        Line::through(self.start, self.end)
    }

    /// Returns the segment with its endpoints swapped.
    #[inline]
    #[must_use]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.end, self.start)
    }

    /// The point `start + t * (end - start)`; `t` is not clamped.
    #[inline]
    #[must_use]
    pub fn lerp(&self, t: f64) -> Point {
        self.start + self.direction() * t
    }

    /// Closest point on the segment to `p`.
    #[must_use]
    pub fn closest_point(&self, p: Point) -> Point {
        let d = self.direction();
        let len_sq = d.length_squared();
        if len_sq <= crate::EPSILON * crate::EPSILON {
            return self.start; // Degenerate segment.
        }
        let t = ((p - self.start).dot(d) / len_sq).clamp(0.0, 1.0);
        self.lerp(t)
    }

    /// Distance from `p` to the segment.
    #[inline]
    #[must_use]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_and_midpoint() {
        let s = seg(0.0, 0.0, 6.0, 8.0);
        assert_eq!(s.length(), 10.0);
        assert!(s.midpoint().approx_eq(Point::new(3.0, 4.0)));
    }

    #[test]
    fn closest_point_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!(s
            .closest_point(Point::new(-5.0, 3.0))
            .approx_eq(Point::new(0.0, 0.0)));
        assert!(s
            .closest_point(Point::new(15.0, 3.0))
            .approx_eq(Point::new(10.0, 0.0)));
        assert!(s
            .closest_point(Point::new(4.0, 3.0))
            .approx_eq(Point::new(4.0, 0.0)));
    }

    #[test]
    fn distance_to_point_perpendicular() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.distance_to_point(Point::new(5.0, 7.0)), 7.0);
    }

    #[test]
    fn degenerate_segment_closest_point_is_endpoint() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert!(s
            .closest_point(Point::new(9.0, 9.0))
            .approx_eq(Point::new(2.0, 2.0)));
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let s = seg(1.0, 2.0, 3.0, 4.0);
        assert_eq!(s.reversed(), seg(3.0, 4.0, 1.0, 2.0));
    }
}
