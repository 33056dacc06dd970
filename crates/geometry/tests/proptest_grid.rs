//! Property tests of the grid's bookkeeping: a rebuilt index answers
//! exactly like a fresh one, and `unseen` completes any partial ring
//! search with every rect it has not reported, ascending and once each.

use proptest::prelude::*;
use wm_geometry::{GridIndex, GridScratch, Point, Rect};

/// Coordinates in the range real weathermaps use (a few thousand user
/// units), plus negatives to exercise the grid origin handling.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-2000i32..2000).prop_map(f64::from),
        // Two-decimal coordinates, as machine-written SVGs print.
        (-200_000i32..200_000).prop_map(|c| f64::from(c) / 100.0),
    ]
}

fn rect() -> impl Strategy<Value = Rect> {
    (coord(), coord(), 0.0f64..200.0, 0.0f64..200.0).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

/// Everything a search around `p` reports: each ring's ids (sorted) and
/// bound, then what `unseen` completes. The scratch forgets first.
fn search(
    grid: &GridIndex,
    scratch: &mut GridScratch,
    p: Point,
) -> (Vec<(Vec<u32>, f64)>, Vec<u32>) {
    scratch.forget();
    let mut rings = Vec::new();
    if let Some(mut traversal) = grid.rings(p, scratch) {
        while let Some(bound) = traversal.next(scratch) {
            let mut ids = scratch.out.clone();
            ids.sort_unstable();
            rings.push((ids, bound));
        }
    }
    grid.unseen(scratch);
    (rings, scratch.out.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rebuild_reuse_matches_fresh_index(
        first in prop::collection::vec(rect(), 0..30),
        second in prop::collection::vec(rect(), 0..30),
        x in coord(),
        y in coord(),
    ) {
        // A reused (rebuilt) index must answer exactly like a fresh one.
        let p = Point::new(x, y);
        let mut reused = GridIndex::new();
        reused.rebuild(first.iter().copied(), 0.25);
        let mut scratch = GridScratch::new();
        search(&reused, &mut scratch, p); // Warm the scratch.
        reused.rebuild(second.iter().copied(), 0.25);

        let mut fresh = GridIndex::new();
        fresh.rebuild(second.iter().copied(), 0.25);
        let mut fresh_scratch = GridScratch::new();

        prop_assert_eq!(reused.occupied_cells(), fresh.occupied_cells());
        prop_assert_eq!(search(&reused, &mut scratch, p), search(&fresh, &mut fresh_scratch, p));
    }

    #[test]
    fn unseen_is_sorted_and_unique(
        rects in prop::collection::vec(rect(), 0..40),
        x in coord(),
        y in coord(),
        rings in 0usize..4,
    ) {
        let mut grid = GridIndex::new();
        grid.rebuild(rects.iter().copied(), 0.25);
        let mut scratch = GridScratch::new();
        scratch.forget();
        let mut reported = vec![false; rects.len()];
        if let Some(mut traversal) = grid.rings(Point::new(x, y), &mut scratch) {
            for _ in 0..rings {
                if traversal.next(&mut scratch).is_none() {
                    break;
                }
                for &id in &scratch.out {
                    reported[id as usize] = true;
                }
            }
        }
        grid.unseen(&mut scratch);
        prop_assert!(scratch.out.windows(2).all(|w| w[0] < w[1]));
        for &id in &scratch.out {
            prop_assert!(!reported[id as usize], "id {} reported twice", id);
            reported[id as usize] = true;
        }
        prop_assert!(reported.iter().all(|&r| r), "a rect was never reported");
        // Once complete, nothing is left unseen until the next forget.
        grid.unseen(&mut scratch);
        prop_assert!(scratch.out.is_empty());
    }
}
