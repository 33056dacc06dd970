//! A uniform-grid spatial index for nearest-first box queries.
//!
//! Algorithm 2 asks, for each link end, "which router and label boxes
//! closest to this end does the link's carrier line cross?". Testing
//! every box against every line is O(links × boxes); a full-scale Europe
//! snapshot pays ~1 200 × ~1 700 exact intersection tests. [`GridIndex`]
//! buckets the boxes into the cells of a uniform grid, and
//! [`GridIndex::rings`] visits cells in rings of growing Chebyshev radius
//! around a point, reporting after each ring a lower bound on the
//! distance to every rect not yet visited, so a caller can stop as soon
//! as its answer lies strictly inside that bound.
//!
//! A search that cannot settle finishes with [`GridIndex::unseen`]: every
//! rect it has not reported yet, in ascending order. Ring traversals and
//! `unseen` share one deduplication until [`GridScratch::forget`], so
//! several queries about the same line report each rect at most once
//! between them. Queries only select rects; callers exact-test what they
//! report and get results identical to brute force (pinned by property
//! tests).
//!
//! Both construction ([`GridIndex::rebuild`]) and queries reuse their
//! buffers: after warm-up a build-query cycle performs no heap
//! allocation, which is what the extraction pipeline's per-worker
//! scratch relies on.

use crate::{Point, Rect};

/// Hard cap on grid resolution per axis, bounding memory for degenerate
/// inputs (e.g. thousands of tiny boxes spread over a huge canvas).
const MAX_CELLS_PER_AXIS: usize = 512;

/// A uniform grid over axis-aligned rectangles answering "which rects
/// lie near this point?".
///
/// Build it with [`GridIndex::rebuild`] (reusable, allocation-free after
/// warm-up) and query it with [`GridIndex::rings`], completed if need be
/// by [`GridIndex::unseen`]. Rects are identified by their index in the
/// slice the grid was built from.
#[derive(Debug, Clone, Default)]
pub struct GridIndex {
    /// Bounding box of all indexed (inflated) rects.
    min_x: f64,
    min_y: f64,
    /// Cell extents; the grid spans `nx × ny` cells from `(min_x, min_y)`.
    cell_w: f64,
    cell_h: f64,
    /// Cached reciprocals: cell lookup is a multiply, not a divide.
    inv_cell_w: f64,
    inv_cell_h: f64,
    nx: usize,
    ny: usize,
    /// CSR buckets in row-major order (cell `row · nx + col`): the cells
    /// of one row are adjacent, so a ring's row reads ONE contiguous
    /// entry range.
    starts: Vec<u32>,
    entries: Vec<u32>,
    /// Reusable bucket-fill cursors (see `rebuild`).
    cursors: Vec<u32>,
    /// Number of indexed rects.
    len: usize,
    /// Cells holding at least one rect.
    occupied: usize,
    /// Far corner of the indexed rects' bounding box.
    max_x: f64,
    max_y: f64,
    /// Rounding slack subtracted from every ring bound.
    ring_slack: f64,
    /// Whether ring queries may report bounds: every rect is finite and
    /// a cell is far larger than the rounding of the coordinates.
    rings_sound: bool,
}

/// Cells at least this fraction of the largest coordinate magnitude
/// keep the rounding of cell lookups and distances (a few ulps of the
/// coordinates, so at most 2⁻³⁰ of a cell) far below the ring bound's
/// slack of 2⁻¹⁰ of a cell.
const MIN_CELL_PER_MAGNITUDE: f64 = 1.0 / (1u64 << 20) as f64;

/// A nearest-first traversal of a [`GridIndex`] around a point, created
/// by [`GridIndex::rings`]. Each [`Rings::next`] call visits one more
/// ring of cells.
#[derive(Debug, Clone)]
pub struct Rings<'g> {
    grid: &'g GridIndex,
    p: Point,
    /// Cell of the query point.
    col: usize,
    row: usize,
    /// Radius of the next ring.
    k: usize,
    /// Cells visited so far, and the most the traversal may visit
    /// before it gives up.
    cells: usize,
    budget: usize,
    /// Every cell has been visited.
    exhausted: bool,
}

/// Reusable query state for [`GridIndex::rings`] and
/// [`GridIndex::unseen`].
///
/// The scratch remembers which rects queries have reported since it
/// last forgot ([`GridScratch::forget`]), and no query reports them
/// again. Remembering uses generation stamps instead of clearing a
/// bitmap, so forgetting is O(1) and a ring costs only the cells it
/// visits. One scratch may serve grids of any size; it grows
/// monotonically and never shrinks, which is the point: steady-state
/// queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    stamps: Vec<u32>,
    generation: u32,
    /// Rect indices of the last query: ascending after
    /// [`GridIndex::unseen`], in visit order after a ring.
    pub out: Vec<u32>,
}

impl GridIndex {
    /// Creates an empty index (no rects, every query returns nothing).
    #[must_use]
    pub fn new() -> GridIndex {
        GridIndex::default()
    }

    /// (Re)builds the index over `rects`, each inflated by `inflate` on
    /// every side — matching a caller that exact-tests
    /// `rect.inflated(tol).intersects_line(..)`.
    ///
    /// The iterator is consumed three times (bounds, bucket counts,
    /// bucket fill), hence `Clone`. Existing buffers are reused.
    pub fn rebuild<I>(&mut self, rects: I, inflate: f64)
    where
        I: Iterator<Item = Rect> + Clone,
    {
        self.starts.clear();
        self.entries.clear();
        self.len = 0;
        self.occupied = 0;
        self.rings_sound = false;

        // Pass 1: bounding box and mean extents of the inflated rects.
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut sum_w = 0.0;
        let mut sum_h = 0.0;
        let mut len = 0usize;
        let mut finite = true;
        for rect in rects.clone() {
            let r = rect.inflated(inflate);
            finite &= r.x.is_finite()
                && r.y.is_finite()
                && r.right().is_finite()
                && r.bottom().is_finite();
            min_x = min_x.min(r.x);
            min_y = min_y.min(r.y);
            max_x = max_x.max(r.right());
            max_y = max_y.max(r.bottom());
            sum_w += r.width;
            sum_h += r.height;
            len += 1;
        }
        if len == 0 {
            self.nx = 0;
            self.ny = 0;
            return;
        }
        self.len = len;
        self.min_x = min_x;
        self.min_y = min_y;

        // Cell size: twice the mean box extent keeps most boxes within
        // one or two cells, so a ring holds a handful of boxes. Guard
        // against zero-extent degenerate input.
        let width = (max_x - min_x).max(crate::EPSILON);
        let height = (max_y - min_y).max(crate::EPSILON);
        let target_w = (2.0 * sum_w / len as f64).max(crate::EPSILON);
        let target_h = (2.0 * sum_h / len as f64).max(crate::EPSILON);
        self.nx = ((width / target_w).ceil() as usize).clamp(1, MAX_CELLS_PER_AXIS);
        self.ny = ((height / target_h).ceil() as usize).clamp(1, MAX_CELLS_PER_AXIS);
        self.cell_w = width / self.nx as f64;
        self.cell_h = height / self.ny as f64;
        self.inv_cell_w = 1.0 / self.cell_w;
        self.inv_cell_h = 1.0 / self.cell_h;
        self.max_x = max_x;
        self.max_y = max_y;
        let cell = self.cell_w.min(self.cell_h);
        self.ring_slack = cell / 1024.0;
        let magnitude = min_x
            .abs()
            .max(max_x.abs())
            .max(min_y.abs())
            .max(max_y.abs());
        self.rings_sound = finite && cell.is_finite() && cell >= magnitude * MIN_CELL_PER_MAGNITUDE;

        // Pass 2: bucket sizes (shifted by one for the prefix sums),
        // then the prefix sums, counting the occupied cells on the way.
        let cells = self.nx * self.ny;
        self.starts.resize(cells + 1, 0);
        for rect in rects.clone() {
            let (c0, c1, r0, r1) = self.cell_span(&rect.inflated(inflate));
            for row in r0..=r1 {
                for col in c0..=c1 {
                    if let Some(slot) = self.starts.get_mut(row * self.nx + col + 1) {
                        *slot += 1;
                    }
                }
            }
        }
        let mut sum = 0u32;
        for slot in &mut self.starts {
            self.occupied += usize::from(*slot > 0);
            sum += *slot;
            *slot = sum;
        }

        // Pass 3: fill the buckets, advancing per-bucket cursors.
        self.entries.resize(sum as usize, 0);
        self.cursors.clear();
        self.cursors
            .extend_from_slice(self.starts.get(..cells).unwrap_or(&[]));
        for (index, rect) in rects.enumerate() {
            let (c0, c1, r0, r1) = self.cell_span(&rect.inflated(inflate));
            for row in r0..=r1 {
                for col in c0..=c1 {
                    if let Some(cursor) = self.cursors.get_mut(row * self.nx + col) {
                        if let Some(slot) = self.entries.get_mut(*cursor as usize) {
                            *slot = index as u32;
                        }
                        *cursor += 1;
                    }
                }
            }
        }
    }

    /// Number of indexed rects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no rects are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of grid cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Number of cells holding at least one rect (counted by `rebuild`).
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.occupied
    }

    /// Writes into `scratch.out`, ascending, every indexed rect not
    /// reported since `scratch` last forgot, and marks them reported.
    ///
    /// After ring traversals that gave up, this completes a search
    /// without reporting a rect they already did: between two forgets,
    /// the queries report each rect exactly once. It costs O(rects).
    pub fn unseen(&self, scratch: &mut GridScratch) {
        scratch.out.clear();
        scratch.reserve(self.len);
        let generation = scratch.generation;
        for (index, stamp) in scratch.stamps.iter_mut().take(self.len).enumerate() {
            if *stamp != generation {
                *stamp = generation;
                scratch.out.push(index as u32);
            }
        }
    }

    /// Starts a nearest-first traversal around `p`.
    ///
    /// Each [`Rings::next`] call writes into `scratch.out` the ids (in
    /// no particular order) of the rects bucketed in the next ring of
    /// cells — ring `k` is every cell at Chebyshev distance `k` from the
    /// cell of `p` — and returns a lower bound on the distance from `p`
    /// to every rect in a cell not yet visited: `f64::INFINITY` once
    /// every cell has been visited.
    ///
    /// The traversal does not forget: it skips the rects that `scratch`
    /// reported since it last forgot ([`GridScratch::forget`]), whether
    /// by this traversal or by earlier queries. A caller that wants
    /// every rect near `p` calls `forget` first; one that searches the
    /// same line from two points keeps what the first search found.
    ///
    /// Returns `None` for an empty grid, a `p` outside the indexed rects'
    /// bounding box (or not finite), and grids whose rounding the bound
    /// cannot absorb (non-finite rects, or cells below 2⁻²⁰ of the
    /// coordinate magnitude).
    ///
    /// # Why the bound holds
    ///
    /// Cell lookup maps `x` to column `⌊(x − min_x)/cell_w⌋` (clamped to
    /// the grid), and a rect is bucketed in every cell of its column ×
    /// row span. After rings `0..=k` around the cell `(c, r)` of `p`,
    /// the visited cells form the block of columns `c − k ..= c + k` and
    /// rows `r − k ..= r + k`, cut to the grid. A rect not yet visited
    /// has its whole span outside that block on one side. Say its first
    /// column exceeds `c + k`: then its left edge is at least
    /// `min_x + (c + k + 1) · cell_w`, the block's right edge, so the
    /// rect is at least as far from `p` as that edge is. The other three
    /// sides are symmetric, and a side where the block reaches the
    /// grid's edge hides no rect. So every unvisited rect is at least as
    /// far from `p` as the nearest open side of the block. The lookups,
    /// edges and distances are computed in floating point; with `p`
    /// inside the bounding box and cells no smaller than 2⁻²⁰ of the
    /// coordinate magnitude, their rounding stays below 2⁻³⁰ of a cell,
    /// and the bound reported is that distance less 2⁻¹⁰ of a cell.
    ///
    /// The traversal gives up (`next` returns `None`) once it has
    /// visited about `max(nx, ny) · min(nx, ny, 3)` cells, leaving the
    /// rest to [`GridIndex::unseen`].
    pub fn rings(&self, p: Point, scratch: &mut GridScratch) -> Option<Rings<'_>> {
        scratch.out.clear();
        let inside =
            (self.min_x..=self.max_x).contains(&p.x) && (self.min_y..=self.max_y).contains(&p.y);
        if self.len == 0 || !self.rings_sound || !inside {
            return None;
        }
        scratch.reserve(self.len);
        Some(Rings {
            grid: self,
            p,
            col: self.col_of(p.x),
            row: self.row_of(p.y),
            k: 0,
            cells: 0,
            // Caps the cells an unsettled search visits before the
            // caller's O(rects) scan of `unseen`: without it, an end that
            // can never settle (a map with no label) would sweep the
            // whole grid, about 38k cells on a full-scale Europe map.
            budget: self.nx.max(self.ny) * self.nx.min(self.ny).min(3),
            exhausted: false,
        })
    }

    /// Pushes the entries of the cells `cols` of row `row` — one
    /// contiguous run of the buckets — deduplicating.
    fn visit_row(&self, row: usize, cols: (usize, usize), scratch: &mut GridScratch) {
        let base = row * self.nx;
        let from = self.starts.get(base + cols.0).copied().unwrap_or(0) as usize;
        let to = self.starts.get(base + cols.1 + 1).copied().unwrap_or(0) as usize;
        for &index in self.entries.get(from..to).unwrap_or(&[]) {
            let Some(stamp) = scratch.stamps.get_mut(index as usize) else {
                continue;
            };
            if *stamp != scratch.generation {
                *stamp = scratch.generation;
                scratch.out.push(index);
            }
        }
    }

    /// Clamped column index of an x coordinate.
    fn col_of(&self, x: f64) -> usize {
        (((x - self.min_x) * self.inv_cell_w) as usize).min(self.nx - 1)
    }

    /// Clamped row index of a y coordinate.
    fn row_of(&self, y: f64) -> usize {
        (((y - self.min_y) * self.inv_cell_h) as usize).min(self.ny - 1)
    }

    /// Inclusive (col0, col1, row0, row1) cell span of a rect.
    fn cell_span(&self, r: &Rect) -> (usize, usize, usize, usize) {
        (
            self.col_of(r.x),
            self.col_of(r.right()),
            self.row_of(r.y),
            self.row_of(r.bottom()),
        )
    }
}

impl Rings<'_> {
    /// Visits the next ring, writing its new rect ids into
    /// `scratch.out`, and returns the lower bound on the distance to
    /// every rect still unvisited (see [`GridIndex::rings`]). Returns
    /// `None` when every cell has been visited or the cell budget is
    /// spent.
    ///
    /// `scratch` must be the one passed to [`GridIndex::rings`] and not
    /// used for another query in between.
    pub fn next(&mut self, scratch: &mut GridScratch) -> Option<f64> {
        scratch.out.clear();
        if self.exhausted || self.cells >= self.budget {
            return None;
        }
        let grid = self.grid;
        let (k, col, row) = (self.k, self.col, self.row);
        let (last_col, last_row) = (grid.nx - 1, grid.ny - 1);
        let cols = (col.saturating_sub(k), (col + k).min(last_col));
        let width = cols.1 - cols.0 + 1;
        // Top and bottom rows of the ring: one contiguous run each.
        if let Some(top) = row.checked_sub(k) {
            grid.visit_row(top, cols, scratch);
            self.cells += width;
        }
        if k > 0 && row + k <= last_row {
            grid.visit_row(row + k, cols, scratch);
            self.cells += width;
        }
        // The rows in between contribute their two side cells.
        if k > 0 {
            let left = col.checked_sub(k);
            let right = (col + k <= last_col).then_some(col + k);
            for r in row.saturating_sub(k - 1)..=(row + k - 1).min(last_row) {
                for c in [left, right].into_iter().flatten() {
                    grid.visit_row(r, (c, c), scratch);
                    self.cells += 1;
                }
            }
        }
        self.k += 1;
        // Distance from `p` to each side of the visited block that does
        // not lie on the grid's edge (see `GridIndex::rings`).
        let open = |is_open: bool, gap: f64| if is_open { gap } else { f64::INFINITY };
        let edge_x = |c: usize| grid.min_x + c as f64 * grid.cell_w;
        let edge_y = |r: usize| grid.min_y + r as f64 * grid.cell_h;
        let p = self.p;
        let gap = open(col > k, p.x - edge_x(col.saturating_sub(k)))
            .min(open(col + k < last_col, edge_x(col + k + 1) - p.x))
            .min(open(row > k, p.y - edge_y(row.saturating_sub(k))))
            .min(open(row + k < last_row, edge_y(row + k + 1) - p.y));
        self.exhausted = gap == f64::INFINITY;
        Some(gap - grid.ring_slack)
    }
}

impl GridScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> GridScratch {
        GridScratch::default()
    }

    /// Forgets which rects earlier queries reported, so the next query
    /// may report any of them again. O(1): it bumps the generation.
    pub fn forget(&mut self) {
        // On wrap-around every stale stamp could collide with the new
        // generation; reset the table (once per ~4 billion forgets).
        let (generation, wrapped) = self.generation.overflowing_add(1);
        self.generation = generation;
        if wrapped || generation == 0 {
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Grows the stamp table to cover a grid of `len` rects; the new
    /// entries start unreported.
    fn reserve(&mut self, len: usize) {
        if self.stamps.len() < len {
            self.stamps.resize(len, 0);
        }
        // Generation 0 is never current, so zeroed stamps read as
        // unreported even before the first `forget`.
        if self.generation == 0 {
            self.generation = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of_boxes() -> Vec<Rect> {
        (0..20)
            .map(|i| Rect::new(f64::from(i) * 50.0, f64::from(i % 5) * 40.0, 30.0, 12.0))
            .collect()
    }

    /// Every id the traversal around `p` reports, ring by ring, with the
    /// bound after each ring; the scratch forgets first.
    fn all_rings(index: &GridIndex, p: Point, scratch: &mut GridScratch) -> Vec<(Vec<u32>, f64)> {
        scratch.forget();
        let mut rings = Vec::new();
        if let Some(mut traversal) = index.rings(p, scratch) {
            while let Some(bound) = traversal.next(scratch) {
                let mut ids = scratch.out.clone();
                ids.sort_unstable();
                rings.push((ids, bound));
            }
        }
        rings
    }

    #[test]
    fn empty_grid_reports_nothing() {
        let index = GridIndex::new();
        let mut scratch = GridScratch::new();
        scratch.forget();
        index.unseen(&mut scratch);
        assert!(scratch.out.is_empty());
        assert!(index.rings(Point::new(0.0, 0.0), &mut scratch).is_none());
        assert!(index.is_empty());
        assert_eq!(index.cell_count(), 0);
        assert_eq!(index.occupied_cells(), 0);
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        // Zero-size and coincident rects: the rings still cover them all.
        let rects = [
            Rect::new(5.0, 5.0, 0.0, 0.0),
            Rect::new(5.0, 5.0, 0.0, 0.0),
            Rect::new(5.0, 5.0, 1.0, 1.0),
        ];
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), 0.0);
        let mut scratch = GridScratch::new();
        let rings = all_rings(&index, Point::new(5.5, 5.5), &mut scratch);
        let mut seen: Vec<u32> = rings.iter().flat_map(|(ids, _)| ids.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(rings.last().map(|r| r.1), Some(f64::INFINITY));
        index.unseen(&mut scratch);
        assert!(scratch.out.is_empty(), "the rings reported every rect");

        // All rects on one point: cells too small to bound distances, so
        // the rings decline and `unseen` alone reports everything.
        index.rebuild(rects.iter().take(2).copied(), 0.0);
        scratch.forget();
        assert!(index.rings(Point::new(5.0, 5.0), &mut scratch).is_none());
        index.unseen(&mut scratch);
        assert_eq!(scratch.out, [0, 1]);
    }

    #[test]
    fn rebuild_reuses_buffers_and_replaces_contents() {
        let mut index = GridIndex::new();
        index.rebuild(row_of_boxes().iter().copied(), 0.0);
        assert_eq!(index.len(), 20);
        let nonempty = index
            .starts
            .windows(2)
            .filter(|pair| matches!(**pair, [from, to] if to > from))
            .count();
        assert_eq!(index.occupied_cells(), nonempty);
        assert!(nonempty > 0 && nonempty <= index.cell_count());

        index.rebuild(std::iter::once(Rect::new(0.0, 0.0, 10.0, 10.0)), 0.0);
        assert_eq!(index.len(), 1);
        assert_eq!(index.occupied_cells(), 1);
        let mut scratch = GridScratch::new();
        let rings = all_rings(&index, Point::new(5.0, 5.0), &mut scratch);
        assert_eq!(rings, [(vec![0], f64::INFINITY)]);
        scratch.forget();
        index.unseen(&mut scratch);
        assert_eq!(scratch.out, [0]);
    }

    #[test]
    fn unseen_is_ascending_and_skips_what_rings_reported() {
        // One big box spanning many cells is reported exactly once.
        let mut rects = row_of_boxes();
        rects.push(Rect::new(0.0, 0.0, 1000.0, 200.0));
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), 0.0);
        let mut scratch = GridScratch::new();
        scratch.forget();
        let mut traversal = index.rings(Point::new(510.0, 45.0), &mut scratch).unwrap();
        traversal.next(&mut scratch).unwrap();
        let ring = scratch.out.clone();
        assert!(ring.contains(&20));
        index.unseen(&mut scratch);
        assert!(
            scratch.out.windows(2).all(|w| w[0] < w[1]),
            "ascending and unique"
        );
        assert!(scratch.out.iter().all(|id| !ring.contains(id)));
        assert_eq!(ring.len() + scratch.out.len(), rects.len());
    }

    #[test]
    fn rings_prune_most_of_a_spread_scene() {
        // Boxes on a wide lattice: the first rings around one box hold a
        // handful of boxes, and the bound already exceeds the distance
        // to that box.
        let rects: Vec<Rect> = (0..30)
            .flat_map(|i| {
                (0..30)
                    .map(move |j| Rect::new(f64::from(i) * 100.0, f64::from(j) * 100.0, 40.0, 16.0))
            })
            .collect();
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), 0.25);
        let mut scratch = GridScratch::new();
        scratch.forget();
        let p = Point::new(1220.0, 1208.0);
        let mut traversal = index.rings(p, &mut scratch).unwrap();
        let mut visited = Vec::new();
        let mut bound = 0.0;
        for _ in 0..2 {
            bound = traversal.next(&mut scratch).unwrap();
            visited.extend_from_slice(&scratch.out);
        }
        assert!(
            visited.len() * 30 < rects.len(),
            "rings should prune: {} of {}",
            visited.len(),
            rects.len()
        );
        let inside = (12 * 30 + 12) as u32;
        assert!(visited.contains(&inside));
        assert!(bound > rects[inside as usize].distance_to_point(p));
    }
}
