//! Property tests of the nearest-first ring query: after every ring, each
//! rect not yet visited lies at least the reported bound away from the
//! query point, ids are never repeated, and an infinite bound means
//! every rect has been visited. Queries between two forgets share one
//! deduplication: together they report each rect exactly once, so every
//! box the line crosses is reported.

use proptest::prelude::*;
use wm_geometry::{GridIndex, GridScratch, Line, Point, Rect};

fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-50i32..50).prop_map(|c| f64::from(c) * 10.0),
        (-200_000i32..200_000).prop_map(|c| f64::from(c) / 100.0),
    ]
}

fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), 0.0f64..120.0, 0.0f64..60.0).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn unvisited_rects_lie_beyond_the_bound(
        rects in prop::collection::vec(rect(), 1..60),
        points in prop::collection::vec((coord(), coord()), 1..6),
        tol in prop_oneof![Just(0.0), Just(0.25), 0.0f64..3.0],
    ) {
        let mut grid = GridIndex::new();
        grid.rebuild(rects.iter().copied(), tol);
        let mut scratch = GridScratch::new();
        for (x, y) in points {
            let p = Point::new(x, y);
            scratch.forget();
            let Some(mut rings) = grid.rings(p, &mut scratch) else {
                continue;
            };
            let mut visited = vec![false; rects.len()];
            while let Some(bound) = rings.next(&mut scratch) {
                for &id in &scratch.out {
                    prop_assert!(!visited[id as usize], "id {} visited twice", id);
                    visited[id as usize] = true;
                }
                for (i, r) in rects.iter().enumerate() {
                    if !visited[i] {
                        let d = r.inflated(tol).distance_to_point(p);
                        prop_assert!(d >= bound, "rect {} at {} < bound {}", i, d, bound);
                    }
                }
                if bound == f64::INFINITY {
                    prop_assert!(visited.iter().all(|&v| v), "infinite bound, rects left");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queries_between_forgets_report_each_rect_once(
        rects in prop::collection::vec(rect(), 1..60),
        ax in coord(),
        ay in coord(),
        bx in coord(),
        by in coord(),
        rings_per_end in 0usize..4,
    ) {
        // Two partial ring searches from the ends of a line, then the
        // `unseen` scan that completes them: no rect is reported twice,
        // and every rect, the ones the line crosses included, is
        // reported by one of them.
        let mut grid = GridIndex::new();
        grid.rebuild(rects.iter().copied(), 0.25);
        let mut scratch = GridScratch::new();
        let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
        let line = Line::through(a, b);
        let mut seen = vec![false; rects.len()];
        let mut record = |out: &[u32]| -> Result<(), TestCaseError> {
            for &id in out {
                prop_assert!(!seen[id as usize], "id {} reported twice", id);
                seen[id as usize] = true;
            }
            Ok(())
        };
        scratch.forget();
        for end in [a, b] {
            if let Some(mut rings) = grid.rings(end, &mut scratch) {
                for _ in 0..rings_per_end {
                    if rings.next(&mut scratch).is_none() {
                        break;
                    }
                    record(&scratch.out)?;
                }
            }
        }
        grid.unseen(&mut scratch);
        record(&scratch.out)?;
        for (i, r) in rects.iter().enumerate() {
            if r.inflated(0.25).intersects_line(&line) {
                prop_assert!(seen[i], "rect {} on the line never reported", i);
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "a rect was never reported");
    }
}

#[test]
fn points_outside_the_bounds_get_no_rings() {
    let mut grid = GridIndex::new();
    grid.rebuild(
        [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(50.0, 20.0, 10.0, 10.0),
        ]
        .into_iter(),
        0.0,
    );
    let mut scratch = GridScratch::new();
    assert!(grid.rings(Point::new(5.0, 5.0), &mut scratch).is_some());
    assert!(grid.rings(Point::new(-1.0, 5.0), &mut scratch).is_none());
    assert!(grid
        .rings(Point::new(5.0, f64::NAN), &mut scratch)
        .is_none());
    assert!(GridIndex::new()
        .rings(Point::new(0.0, 0.0), &mut scratch)
        .is_none());
}
