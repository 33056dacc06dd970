//! Infinite lines in implicit form.

use crate::Point;

/// An infinite line in the plane, stored in implicit (normal) form
/// `a*x + b*y + c = 0` with `(a, b)` normalised to unit length.
///
/// Algorithm 2 of the paper computes, for each link, "the straight line in
/// the 2-D space represented by \[the\] link" and then intersects router and
/// label boxes with it. [`Line`] is that object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Line {
    a: f64,
    b: f64,
    c: f64,
}

impl Line {
    /// Creates the line passing through two distinct points.
    ///
    /// For coincident points the direction is degenerate; the resulting
    /// "line" reduces to the locus nearest that single point (a zero normal
    /// would make every query meaningless, so we pick the horizontal line
    /// through the point, which keeps queries well-defined and is flagged
    /// upstream by the extraction sanity checks).
    #[must_use]
    pub fn through(p: Point, q: Point) -> Self {
        let d = q - p;
        match d.perpendicular().normalized() {
            Some(n) => {
                let c = -(n.x * p.x + n.y * p.y);
                Line { a: n.x, b: n.y, c }
            }
            None => Line {
                a: 0.0,
                b: 1.0,
                c: -p.y,
            },
        }
    }

    /// Signed distance from `p` to the line.
    ///
    /// The sign indicates the side of the line on which `p` lies; the
    /// magnitude is the Euclidean point–line distance (the normal is unit
    /// length).
    #[inline]
    #[must_use]
    pub fn signed_side(&self, p: Point) -> f64 {
        self.a * p.x + self.b * p.y + self.c
    }

    /// Euclidean distance from `p` to the line.
    #[inline]
    #[must_use]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.signed_side(p).abs()
    }

    /// Orthogonal projection of `p` onto the line.
    #[must_use]
    pub fn project(&self, p: Point) -> Point {
        let d = self.signed_side(p);
        Point::new(p.x - self.a * d, p.y - self.b * d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn points_on_line_have_zero_distance() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert!(approx_eq(l.distance_to_point(Point::new(5.0, 5.0)), 0.0));
        assert!(approx_eq(l.distance_to_point(Point::new(-3.0, -3.0)), 0.0));
    }

    #[test]
    fn distance_is_perpendicular() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert!(approx_eq(l.distance_to_point(Point::new(5.0, 7.0)), 7.0));
    }

    #[test]
    fn signed_side_distinguishes_halves() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let above = l.signed_side(Point::new(5.0, -1.0));
        let below = l.signed_side(Point::new(5.0, 1.0));
        assert!(
            above * below < 0.0,
            "opposite sides must have opposite signs"
        );
    }

    #[test]
    fn projection_lands_on_line() {
        let l = Line::through(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let p = l.project(Point::new(3.0, 9.0));
        assert!(approx_eq(l.distance_to_point(p), 0.0));
    }

    #[test]
    fn degenerate_line_falls_back_to_horizontal() {
        let l = Line::through(Point::new(3.0, 4.0), Point::new(3.0, 4.0));
        assert!(approx_eq(l.distance_to_point(Point::new(100.0, 4.0)), 0.0));
        assert!(approx_eq(l.distance_to_point(Point::new(3.0, 9.0)), 5.0));
    }
}
