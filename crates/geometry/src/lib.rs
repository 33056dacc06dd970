//! 2-D computational geometry for weathermap extraction.
//!
//! The object-attribution step of the extraction pipeline (Algorithm 2 of
//! the IMC '22 paper *Revealing the Evolution of a Cloud Provider Through
//! its Network Weather Map*) is purely geometric: it reconstructs the
//! relationship between links, routers and labels from their positions in
//! the 2-D image space of an SVG weathermap.
//!
//! This crate provides the primitives that step needs:
//!
//! * [`Point`] / [`Vec2`] — positions and displacements,
//! * [`Rect`] — axis-aligned boxes (router boxes, label boxes),
//! * [`Segment`] — the finite line joining the two arrow bases of a link,
//! * [`Line`] — the infinite carrier line of a segment,
//! * [`Polygon`] — arrow heads as drawn by the weathermap renderer,
//! * [`GridIndex`] — a uniform grid over many rectangles, searched
//!   nearest-first around a point,
//! * intersection and distance predicates connecting them.
//!
//! All coordinates are `f64` in SVG user units (pixels). The crate is
//! dependency-free; the primitives are allocation-free except for
//! [`Polygon`] storage and the reusable buffers held by [`GridIndex`] /
//! [`GridScratch`], which allocate only while warming up.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod line;
mod point;
mod polygon;
mod rect;
mod segment;

pub use grid::{GridIndex, GridScratch, Rings};
pub use line::Line;
pub use point::{Point, Vec2};
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::Segment;

/// Tolerance used by approximate comparisons throughout the crate.
///
/// SVG coordinates in weathermaps are written with at most two decimal
/// digits, so anything below a hundredth of a pixel is noise.
pub const EPSILON: f64 = 1e-6;

/// Returns `true` when two floating-point coordinates are equal within
/// [`EPSILON`].
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_noise() {
        assert!(approx_eq(1.0, 1.0 + EPSILON / 2.0));
        assert!(!approx_eq(1.0, 1.0 + EPSILON * 10.0));
    }
}
