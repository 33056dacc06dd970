//! Points and displacement vectors in the SVG image plane.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::approx_eq;

/// A position in the 2-D SVG user-unit coordinate system.
///
/// The SVG origin is the top-left corner of the image, with `x` growing to
/// the right and `y` growing downwards — mirroring how weathermap files
/// position their elements.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate, in SVG user units.
    pub x: f64,
    /// Vertical coordinate, in SVG user units (grows downwards).
    pub y: f64,
}

/// A displacement between two [`Point`]s.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    #[must_use]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Cheaper than [`Point::distance`]; use it when only comparing
    /// distances (e.g. sorting candidates by proximity in Algorithm 2).
    #[inline]
    #[must_use]
    pub fn distance_squared(self, other: Point) -> f64 {
        (self - other).length_squared()
    }

    /// The point halfway between `self` and `other`.
    ///
    /// Used to compute the *basis* of a link arrow: the middle of the two
    /// rear corners of the arrow polygon.
    #[inline]
    #[must_use]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Componentwise approximate equality within [`crate::EPSILON`].
    #[inline]
    #[must_use]
    pub fn approx_eq(self, other: Point) -> bool {
        approx_eq(self.x, other.x) && approx_eq(self.y, other.y)
    }

    /// Returns `true` when both coordinates are finite.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    /// Creates a vector from its components.
    #[inline]
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean length.
    #[inline]
    #[must_use]
    pub fn length(self) -> f64 {
        self.length_squared().sqrt()
    }

    /// Squared Euclidean length.
    #[inline]
    #[must_use]
    pub fn length_squared(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    #[must_use]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Unit vector in the same direction, or `None` for (near-)zero vectors.
    #[inline]
    #[must_use]
    pub fn normalized(self) -> Option<Vec2> {
        let len = self.length();
        if len <= crate::EPSILON {
            None
        } else {
            Some(self / len)
        }
    }

    /// The vector rotated by 90° counter-clockwise in screen space.
    #[inline]
    #[must_use]
    pub fn perpendicular(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }
}

impl Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vec2> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(2.0, 4.0);
        let b = Point::new(6.0, 8.0);
        assert!(a.midpoint(b).approx_eq(Point::new(4.0, 6.0)));
    }

    #[test]
    fn vector_arithmetic() {
        let v = Point::new(5.0, 7.0) - Point::new(2.0, 3.0);
        assert_eq!(v, Vec2::new(3.0, 4.0));
        assert_eq!(v.length(), 5.0);
        assert_eq!(Point::new(2.0, 3.0) + v, Point::new(5.0, 7.0));
        assert_eq!(Point::new(5.0, 7.0) - v, Point::new(2.0, 3.0));
    }

    #[test]
    fn dot_of_perpendicular_vectors_is_zero() {
        let v = Vec2::new(3.5, -2.0);
        assert!(crate::approx_eq(v.dot(v.perpendicular()), 0.0));
    }

    #[test]
    fn normalized_zero_vector_is_none() {
        assert!(Vec2::new(0.0, 0.0).normalized().is_none());
        let unit = Vec2::new(0.0, 9.0).normalized().unwrap();
        assert!(crate::approx_eq(unit.length(), 1.0));
    }

    #[test]
    fn assign_operators() {
        let mut p = Point::new(1.0, 1.0);
        p += Vec2::new(2.0, 3.0);
        assert_eq!(p, Point::new(3.0, 4.0));
        p -= Vec2::new(1.0, 1.0);
        assert_eq!(p, Point::new(2.0, 3.0));
    }

    #[test]
    fn non_finite_points_detected() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }
}
