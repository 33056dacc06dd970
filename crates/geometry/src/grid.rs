//! A uniform-grid spatial index for line-vs-rectangle broad-phase queries.
//!
//! Algorithm 2 asks, for every link, "which router and label boxes does
//! this carrier line cross?". Testing every box against every line is
//! O(links × boxes); a full-scale Europe snapshot pays ~1 200 × ~1 700
//! exact intersection tests. [`GridIndex`] cuts that down with a classic
//! broad phase: boxes are bucketed into the cells of a uniform grid at
//! construction, and a line query walks only the cells the line crosses,
//! returning the union of their buckets as *candidates*.
//!
//! The broad phase is deliberately conservative — it may return boxes the
//! line misses, never the other way around — so callers re-check every
//! candidate with the exact [`Rect::intersects_line`] predicate and get
//! results identical to brute force (pinned by a property test).
//!
//! A second query, [`GridIndex::rings`], answers the local question
//! Algorithm 2 actually asks — which boxes near this link end does the
//! line cross? — by visiting cells in rings of growing Chebyshev radius
//! around a point and reporting, after each ring, a lower bound on the
//! distance to every rect not yet visited. Ring traversals and
//! [`GridIndex::line_unseen`] share one deduplication until
//! [`GridScratch::forget`], so several queries about the same line
//! report each rect at most once between them.
//!
//! Both construction ([`GridIndex::rebuild`]) and queries
//! ([`GridIndex::line_candidates`], [`GridIndex::line_unseen`],
//! [`GridIndex::rings`]) reuse their buffers: after warm-up a build-query cycle performs no heap
//! allocation, which is what the extraction pipeline's per-worker
//! scratch relies on.

use crate::{Line, Point, Rect};

/// Hard cap on grid resolution per axis, bounding memory for degenerate
/// inputs (e.g. thousands of tiny boxes spread over a huge canvas).
const MAX_CELLS_PER_AXIS: usize = 512;

/// A uniform grid over axis-aligned rectangles answering "which rects may
/// intersect this infinite line?".
///
/// Build it with [`GridIndex::rebuild`] (reusable, allocation-free after
/// warm-up) and query with [`GridIndex::line_candidates`]. Indices into
/// the original rect slice are returned in ascending order, so a caller
/// that filters them with an exact predicate visits rects in exactly the
/// order a brute-force scan would.
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
    /// CSR buckets in column-major order (cell `col · ny + row`): the
    /// cells of one column are adjacent, so a near-horizontal query
    /// reads each column's row span as ONE contiguous entry range.
    col_starts: Vec<u32>,
    col_entries: Vec<u32>,
    /// The same buckets in row-major order (cell `row · nx + col`), for
    /// near-vertical queries. Duplicating the layout costs a few dozen
    /// kilobytes and removes all per-cell lookup overhead from queries.
    row_starts: Vec<u32>,
    row_entries: Vec<u32>,
    /// Reusable bucket-fill cursors (see `rebuild`).
    col_cursors: Vec<u32>,
    row_cursors: Vec<u32>,
    /// Number of indexed rects.
    len: usize,
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

/// Reusable query state for [`GridIndex::line_candidates`],
/// [`GridIndex::line_unseen`] and [`GridIndex::rings`].
///
/// The scratch remembers which rects queries have reported since it
/// last forgot ([`GridScratch::forget`]), and no query reports them
/// again. Remembering uses generation stamps instead of clearing a
/// bitmap, so forgetting is O(1) and a query costs only the cells it
/// visits. One scratch may serve grids of any size; it grows
/// monotonically and never shrinks, which is the point: steady-state
/// queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    stamps: Vec<u32>,
    generation: u32,
    /// Rect indices of the last query: ascending after a line walk, in
    /// visit order after a ring.
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
        self.col_starts.clear();
        self.col_entries.clear();
        self.row_starts.clear();
        self.row_entries.clear();
        self.len = 0;
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
        // one or two cells while a line crossing the canvas visits only
        // O(nx + ny) cells. Guard against zero-extent degenerate input.
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
        // counted for both layouts at once.
        let cells = self.nx * self.ny;
        self.col_starts.resize(cells + 1, 0);
        self.row_starts.resize(cells + 1, 0);
        for rect in rects.clone() {
            let (c0, c1, r0, r1) = self.cell_span(&rect.inflated(inflate));
            for row in r0..=r1 {
                for col in c0..=c1 {
                    if let Some(slot) = self.col_starts.get_mut(col * self.ny + row + 1) {
                        *slot += 1;
                    }
                    if let Some(slot) = self.row_starts.get_mut(row * self.nx + col + 1) {
                        *slot += 1;
                    }
                }
            }
        }
        let mut col_sum = 0u32;
        for slot in &mut self.col_starts {
            col_sum += *slot;
            *slot = col_sum;
        }
        let mut row_sum = 0u32;
        for slot in &mut self.row_starts {
            row_sum += *slot;
            *slot = row_sum;
        }

        // Pass 3: fill both bucket sets, advancing per-bucket cursors.
        let total = self.col_starts.last().map_or(0, |&t| t as usize);
        self.col_entries.resize(total, 0);
        self.row_entries.resize(total, 0);
        self.col_cursors.clear();
        self.col_cursors
            .extend_from_slice(self.col_starts.get(..cells).unwrap_or(&[]));
        self.row_cursors.clear();
        self.row_cursors
            .extend_from_slice(self.row_starts.get(..cells).unwrap_or(&[]));
        for (index, rect) in rects.enumerate() {
            let (c0, c1, r0, r1) = self.cell_span(&rect.inflated(inflate));
            for row in r0..=r1 {
                for col in c0..=c1 {
                    let cm = col * self.ny + row;
                    if let Some(cursor) = self.col_cursors.get_mut(cm) {
                        if let Some(slot) = self.col_entries.get_mut(*cursor as usize) {
                            *slot = index as u32;
                        }
                        *cursor += 1;
                    }
                    let rm = row * self.nx + col;
                    if let Some(cursor) = self.row_cursors.get_mut(rm) {
                        if let Some(slot) = self.row_entries.get_mut(*cursor as usize) {
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

    /// Number of cells holding at least one rect.
    #[must_use]
    pub fn occupied_cells(&self) -> usize {
        self.row_starts
            .windows(2)
            .filter(|pair| matches!(**pair, [from, to] if to > from))
            .count()
    }

    /// Collects into `scratch.out` the indices (ascending, deduplicated)
    /// of every rect whose cells the line crosses.
    ///
    /// This is a superset of the rects actually intersecting the line;
    /// callers must re-check candidates with an exact predicate. The
    /// walk is padded by one cell on each side of the line's row/column
    /// span, so floating-point rounding at cell boundaries can never
    /// drop a true intersection.
    pub fn line_candidates(&self, line: &Line, scratch: &mut GridScratch) {
        scratch.forget();
        self.line_unseen(line, scratch);
        scratch.out.sort_unstable();
    }

    /// Like [`GridIndex::line_candidates`], but collects only the rects
    /// not reported since `scratch` last forgot, in no particular order.
    ///
    /// After a ring traversal that gave up, this completes the line's
    /// candidates without reporting a rect the traversal already did.
    pub fn line_unseen(&self, line: &Line, scratch: &mut GridScratch) {
        scratch.out.clear();
        if self.len == 0 {
            return;
        }
        scratch.reserve(self.len);

        // Sweep the axis the line is most aligned with: for each column
        // (resp. row), the line's span over the cross axis is the
        // interval between its values at the two cell edges. The cells
        // of that span are adjacent in the matching CSR layout, so the
        // whole span is scanned as one contiguous entry range — the
        // per-cell lookup cost of a naive grid walk disappears.
        let d = line.direction();
        if d.x.abs() >= d.y.abs() {
            // More horizontal: for column i over x ∈ [x0, x1], visit the
            // rows covering [min, max] of y(x0), y(x1). A line this flat
            // always has a y(x) (its normal's y component dominates), and
            // y advances by a constant per column, so the sweep is pure
            // adds — no division in the loop. The incremental drift is
            // orders of magnitude below the ±1-row padding.
            let (Some(first), Some(second)) =
                (line.y_at(self.min_x), line.y_at(self.min_x + self.cell_w))
            else {
                return;
            };
            let dy = second - first;
            let mut y0 = first;
            for col in 0..self.nx {
                let y1 = y0 + dy;
                let (ymin, ymax) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
                let lo = self.row_of(ymin).saturating_sub(1);
                let hi = (self.row_of(ymax) + 1).min(self.ny - 1);
                let base = col * self.ny;
                let from = self.col_starts.get(base + lo).copied().unwrap_or(0);
                let to = self.col_starts.get(base + hi + 1).copied().unwrap_or(from);
                Self::visit_span(&self.col_entries, from, to, scratch);
                y0 = y1;
            }
        } else {
            // More vertical: sweep rows, spanning columns via x(y).
            let (Some(first), Some(second)) =
                (line.x_at(self.min_y), line.x_at(self.min_y + self.cell_h))
            else {
                return;
            };
            let dx = second - first;
            let mut x0 = first;
            for row in 0..self.ny {
                let x1 = x0 + dx;
                let (xmin, xmax) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
                let lo = self.col_of(xmin).saturating_sub(1);
                let hi = (self.col_of(xmax) + 1).min(self.nx - 1);
                let base = row * self.nx;
                let from = self.row_starts.get(base + lo).copied().unwrap_or(0);
                let to = self.row_starts.get(base + hi + 1).copied().unwrap_or(from);
                Self::visit_span(&self.row_entries, from, to, scratch);
                x0 = x1;
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
    /// The traversal stops (`next` returns `None`) once it has visited
    /// about as many cells as one [`GridIndex::line_candidates`] walk,
    /// so a caller that falls back to that walk at most doubles its cost.
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
            // A line walk sweeps the longer axis, reading about three
            // cells of the other per step.
            budget: self.nx.max(self.ny) * self.nx.min(self.ny).min(3),
            exhausted: false,
        })
    }

    /// Pushes the entries of the cells `cols` of row `row` — one
    /// contiguous run of the row-major buckets — deduplicating.
    fn visit_row(&self, row: usize, cols: (usize, usize), scratch: &mut GridScratch) {
        let base = row * self.nx;
        let from = self.row_starts.get(base + cols.0).copied().unwrap_or(0);
        let to = self
            .row_starts
            .get(base + cols.1 + 1)
            .copied()
            .unwrap_or(from);
        Self::visit_span(&self.row_entries, from, to, scratch);
    }

    /// Pushes a contiguous run of bucket entries, deduplicating.
    fn visit_span(entries: &[u32], from: u32, to: u32, scratch: &mut GridScratch) {
        let span = entries.get(from as usize..to as usize).unwrap_or(&[]);
        for &index in span {
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
    use crate::Point;

    /// Brute-force reference: indices of rects intersecting the line.
    fn brute(rects: &[Rect], line: &Line, inflate: f64) -> Vec<u32> {
        (0..rects.len() as u32)
            .filter(|&i| rects[i as usize].inflated(inflate).intersects_line(line))
            .collect()
    }

    /// Grid result after the exact re-check — must equal `brute`.
    fn grid(rects: &[Rect], line: &Line, inflate: f64) -> Vec<u32> {
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), inflate);
        let mut scratch = GridScratch::new();
        index.line_candidates(line, &mut scratch);
        scratch
            .out
            .iter()
            .copied()
            .filter(|&i| rects[i as usize].inflated(inflate).intersects_line(line))
            .collect()
    }

    fn row_of_boxes() -> Vec<Rect> {
        (0..20)
            .map(|i| Rect::new(f64::from(i) * 50.0, f64::from(i % 5) * 40.0, 30.0, 12.0))
            .collect()
    }

    #[test]
    fn empty_grid_returns_no_candidates() {
        let index = GridIndex::new();
        let mut scratch = GridScratch::new();
        let line = Line::through(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        index.line_candidates(&line, &mut scratch);
        assert!(scratch.out.is_empty());
        assert!(index.is_empty());
        assert_eq!(index.cell_count(), 0);
    }

    #[test]
    fn horizontal_line_matches_brute_force() {
        let rects = row_of_boxes();
        let line = Line::through(Point::new(-10.0, 46.0), Point::new(2000.0, 46.0));
        assert_eq!(grid(&rects, &line, 0.0), brute(&rects, &line, 0.0));
        assert!(!brute(&rects, &line, 0.0).is_empty());
    }

    #[test]
    fn vertical_line_matches_brute_force() {
        let rects = row_of_boxes();
        let line = Line::through(Point::new(105.0, -5.0), Point::new(105.0, 500.0));
        assert_eq!(grid(&rects, &line, 0.0), brute(&rects, &line, 0.0));
        assert!(!brute(&rects, &line, 0.0).is_empty());
    }

    #[test]
    fn diagonal_line_matches_brute_force_across_tolerances() {
        let rects = row_of_boxes();
        let line = Line::through(Point::new(0.0, 0.0), Point::new(950.0, 170.0));
        for inflate in [0.0, 0.25, 2.0, 25.0] {
            assert_eq!(
                grid(&rects, &line, inflate),
                brute(&rects, &line, inflate),
                "inflate {inflate}"
            );
        }
    }

    #[test]
    fn line_through_shared_corner_is_not_missed() {
        // Four boxes meeting at (100, 100); the diagonal through the
        // corner must report all four (corner contact intersects).
        let rects = vec![
            Rect::new(80.0, 80.0, 20.0, 20.0),
            Rect::new(100.0, 80.0, 20.0, 20.0),
            Rect::new(80.0, 100.0, 20.0, 20.0),
            Rect::new(100.0, 100.0, 20.0, 20.0),
        ];
        let line = Line::through(Point::new(0.0, 200.0), Point::new(200.0, 0.0));
        assert_eq!(grid(&rects, &line, 0.0), brute(&rects, &line, 0.0));
        assert_eq!(brute(&rects, &line, 0.0).len(), 4);
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        // Zero-size rects, coincident rects, a degenerate line.
        let rects = vec![
            Rect::new(5.0, 5.0, 0.0, 0.0),
            Rect::new(5.0, 5.0, 0.0, 0.0),
            Rect::new(5.0, 5.0, 1.0, 1.0),
        ];
        let line = Line::through(Point::new(5.5, 5.5), Point::new(5.5, 5.5));
        assert_eq!(grid(&rects, &line, 0.0), brute(&rects, &line, 0.0));
        let far = Line::through(Point::new(0.0, 50.0), Point::new(10.0, 50.0));
        assert_eq!(grid(&rects, &far, 0.0), brute(&rects, &far, 0.0));
    }

    #[test]
    fn rebuild_reuses_buffers_and_replaces_contents() {
        let mut index = GridIndex::new();
        index.rebuild(row_of_boxes().iter().copied(), 0.0);
        assert_eq!(index.len(), 20);
        let occupied = index.occupied_cells();
        assert!(occupied > 0 && occupied <= index.cell_count());

        index.rebuild(std::iter::once(Rect::new(0.0, 0.0, 10.0, 10.0)), 0.0);
        assert_eq!(index.len(), 1);
        let mut scratch = GridScratch::new();
        let line = Line::through(Point::new(-1.0, 5.0), Point::new(20.0, 5.0));
        index.line_candidates(&line, &mut scratch);
        assert_eq!(scratch.out, [0]);
    }

    #[test]
    fn candidates_are_ascending_and_deduplicated() {
        // One big box spanning many cells must appear exactly once.
        let mut rects = row_of_boxes();
        rects.push(Rect::new(0.0, 0.0, 1000.0, 200.0));
        let line = Line::through(Point::new(0.0, 100.0), Point::new(1000.0, 90.0));
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), 0.0);
        let mut scratch = GridScratch::new();
        index.line_candidates(&line, &mut scratch);
        let mut sorted = scratch.out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(scratch.out, sorted, "ascending and unique");
        assert!(scratch.out.contains(&20));
    }

    #[test]
    fn broad_phase_prunes_most_of_a_spread_scene() {
        // Boxes on a wide grid; an axis-aligned line crosses one row.
        let rects: Vec<Rect> = (0..30)
            .flat_map(|i| {
                (0..30)
                    .map(move |j| Rect::new(f64::from(i) * 100.0, f64::from(j) * 100.0, 40.0, 16.0))
            })
            .collect();
        let line = Line::through(Point::new(-5.0, 208.0), Point::new(3000.0, 208.0));
        let mut index = GridIndex::new();
        index.rebuild(rects.iter().copied(), 0.25);
        let mut scratch = GridScratch::new();
        index.line_candidates(&line, &mut scratch);
        assert!(
            scratch.out.len() * 3 < rects.len(),
            "broad phase should prune: {} of {}",
            scratch.out.len(),
            rects.len()
        );
        let exact: Vec<u32> = scratch
            .out
            .iter()
            .copied()
            .filter(|&i| rects[i as usize].inflated(0.25).intersects_line(&line))
            .collect();
        assert_eq!(exact, brute(&rects, &line, 0.25));
    }
}
