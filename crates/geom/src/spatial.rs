//! Uniform-grid spatial index over planar points.
//!
//! [`SpatialIndex`] bins a fixed point set (ground users) into square
//! bins of a caller-chosen side — keyed to the coarsest coverage radius
//! `R_user^k` of the fleet — so that "points within `r` of a query
//! center" touches only the bins overlapping the query disc instead of
//! the whole population. Instance construction uses it to build the
//! per-class coverage tables in `O(points + hits)` per location, and
//! [`SpatialIndex::relocate`] keeps it exact as points move.

use crate::Point2;

/// A uniform-grid index over a point set.
///
/// Points are stored in CSR layout: `starts[b]..starts[b + 1]` slices
/// `ids` with the (ascending) indices of the points falling into bin
/// `b`. Queries scan the bins overlapping the query disc's bounding
/// box and apply the exact `d² ≤ r²` test per point. The bins span the
/// bounding box of the points at [`build`](SpatialIndex::build) time;
/// [`relocate`](SpatialIndex::relocate) re-bins moved and appended
/// points in place while they stay inside it.
///
/// # Examples
///
/// ```
/// use uavnet_geom::{Point2, SpatialIndex};
///
/// let pts = vec![Point2::new(10.0, 10.0), Point2::new(500.0, 500.0)];
/// let index = SpatialIndex::build(&pts, 100.0);
/// let mut near: Vec<u32> = Vec::new();
/// index.for_each_within(&pts, Point2::new(0.0, 0.0), 50.0, |id| near.push(id));
/// assert_eq!(near, vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// The bin side `build` was asked for, kept for rebuilds.
    requested_bin_m: f64,
    bin_m: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR offsets: bin `b` holds `ids[starts[b]..starts[b + 1]]`.
    starts: Vec<u32>,
    /// Point indices grouped by bin, ascending within each bin.
    ids: Vec<u32>,
}

impl SpatialIndex {
    /// Builds an index over `points` with square bins of side `bin_m`.
    ///
    /// The bin side should be on the order of the largest query radius:
    /// a radius-`r` query then touches at most `⌈r/bin⌉ + 2` bins per
    /// axis. A non-finite or non-positive `bin_m` falls back to a
    /// single bin (the index degrades to a linear scan, never breaks).
    ///
    /// # Panics
    ///
    /// Panics if `points.len()` exceeds `u32::MAX`.
    pub fn build(points: &[Point2], bin_m: f64) -> Self {
        assert!(points.len() <= u32::MAX as usize, "too many points");
        let requested_bin_m = bin_m;
        let bin_m = if bin_m.is_finite() && bin_m > 0.0 {
            bin_m
        } else {
            f64::INFINITY
        };
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if points.is_empty() {
            return SpatialIndex {
                requested_bin_m,
                bin_m: 1.0,
                min_x: 0.0,
                min_y: 0.0,
                cols: 1,
                rows: 1,
                starts: vec![0, 0],
                ids: Vec::new(),
            };
        }
        let span_x = (max_x - min_x).max(0.0);
        let span_y = (max_y - min_y).max(0.0);
        let (cols, rows, bin_m) = if bin_m.is_finite() {
            (
                (span_x / bin_m).floor() as usize + 1,
                (span_y / bin_m).floor() as usize + 1,
                bin_m,
            )
        } else {
            (1, 1, span_x.max(span_y).max(1.0) + 1.0)
        };
        let mut index = SpatialIndex {
            requested_bin_m,
            bin_m,
            min_x,
            min_y,
            cols,
            rows,
            starts: Vec::new(),
            ids: vec![0u32; points.len()],
        };
        // Counting sort into CSR: count per bin, prefix-sum, fill.
        let num_bins = cols * rows;
        let mut counts = vec![0u32; num_bins + 1];
        for &p in points {
            counts[index.bin_of(p) + 1] += 1;
        }
        for b in 0..num_bins {
            counts[b + 1] += counts[b];
        }
        index.starts = counts.clone();
        let mut cursor = counts;
        for (i, &p) in points.iter().enumerate() {
            let b = index.bin_of(p);
            index.ids[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }
        index
    }

    /// Brings the index up to date after points moved or were
    /// appended, without re-binning the others.
    ///
    /// `points` is the point set after the change. `moved` lists
    /// `(id, previous position)` for every already-indexed point whose
    /// coordinates changed, each id at most once; ids from
    /// [`len`](Self::len) up to `points.len()` are new. Afterwards every
    /// query answers exactly as an index built over `points` would.
    ///
    /// One linear merge pass over the CSR arrays re-bins the changed
    /// ids: `O(points + changed · log changed)`, no float work for
    /// unchanged points. A changed point outside the bins' extent
    /// falls back to [`build`](Self::build) with the original bin side.
    ///
    /// # Panics
    ///
    /// Panics if `points` is shorter than the index or longer than
    /// `u32::MAX`.
    pub fn relocate(&mut self, points: &[Point2], moved: &[(u32, Point2)]) {
        let indexed = self.ids.len();
        assert!(
            (indexed..=u32::MAX as usize).contains(&points.len()),
            "relocate needs the {indexed} indexed points plus any appended ones"
        );
        let appended = indexed as u32..points.len() as u32;
        let mut enter = Vec::with_capacity(moved.len() + appended.len());
        for id in moved.iter().map(|&(id, _)| id).chain(appended) {
            match self.bin_inside(points[id as usize]) {
                Some(b) => enter.push((b, id)),
                None => {
                    *self = Self::build(points, self.requested_bin_m);
                    return;
                }
            }
        }
        let mut leave: Vec<(usize, u32)> = moved
            .iter()
            .map(|&(id, prev)| (self.bin_of(prev), id))
            .collect();
        enter.sort_unstable();
        leave.sort_unstable();

        let mut ids = Vec::with_capacity(points.len());
        let mut starts = Vec::with_capacity(self.starts.len());
        starts.push(0);
        let (mut leave, mut enter) = (&leave[..], &enter[..]);
        for (b, w) in self.starts.windows(2).enumerate() {
            let bin = &self.ids[w[0] as usize..w[1] as usize];
            let (gone, rest) = leave.split_at(leave.partition_point(|&(lb, _)| lb == b));
            let (new, tail) = enter.split_at(enter.partition_point(|&(eb, _)| eb == b));
            (leave, enter) = (rest, tail);
            if gone.is_empty() && new.is_empty() {
                ids.extend_from_slice(bin);
            } else {
                // Both sides ascend by id: drop the leavers, merge in
                // the arrivals.
                let mut gone = gone.iter().map(|&(_, id)| id).peekable();
                let mut new = new.iter().map(|&(_, id)| id).peekable();
                for &id in bin {
                    if gone.next_if_eq(&id).is_some() {
                        continue;
                    }
                    while let Some(n) = new.next_if(|&n| n < id) {
                        ids.push(n);
                    }
                    ids.push(id);
                }
                ids.extend(new);
                debug_assert!(gone.next().is_none(), "moved point not in its bin");
            }
            starts.push(ids.len() as u32);
        }
        debug_assert_eq!(ids.len(), points.len());
        self.ids = ids;
        self.starts = starts;
    }

    /// The bin of `p`, clamped to the grid (as at build time).
    fn bin_of(&self, p: Point2) -> usize {
        let bx = (((p.x - self.min_x) / self.bin_m) as usize).min(self.cols - 1);
        let by = (((p.y - self.min_y) / self.bin_m) as usize).min(self.rows - 1);
        by * self.cols + bx
    }

    /// The bin of `p`, or `None` when `p` lies outside the bins'
    /// extent (where queries, which clip to the extent, would miss it).
    fn bin_inside(&self, p: Point2) -> Option<usize> {
        let bx = ((p.x - self.min_x) / self.bin_m).floor();
        let by = ((p.y - self.min_y) / self.bin_m).floor();
        let inside = (0.0..self.cols as f64).contains(&bx) && (0.0..self.rows as f64).contains(&by);
        inside.then(|| by as usize * self.cols + bx as usize)
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The bin side actually in use (meters).
    #[inline]
    pub fn bin_m(&self) -> f64 {
        self.bin_m
    }

    /// Calls `f` with the id of every indexed point within `radius_m`
    /// (Euclidean, inclusive: `d² ≤ r²`) of `center`.
    ///
    /// Ids arrive grouped by bin — ascending within a bin but **not**
    /// globally sorted; callers needing sorted output must sort. The
    /// caller supplies the point coordinates, so the exact distance
    /// test runs here against the index's own copy-free CSR ids.
    pub fn for_each_within(
        &self,
        points: &[Point2],
        center: Point2,
        radius_m: f64,
        mut f: impl FnMut(u32),
    ) {
        if radius_m < 0.0 || !radius_m.is_finite() || self.ids.is_empty() {
            return;
        }
        let r_sq = radius_m * radius_m;
        let lo_bx = (((center.x - radius_m - self.min_x) / self.bin_m).floor()).max(0.0) as usize;
        let lo_by = (((center.y - radius_m - self.min_y) / self.bin_m).floor()).max(0.0) as usize;
        let hi_bx =
            ((((center.x + radius_m - self.min_x) / self.bin_m).floor()) as isize).max(-1) as usize;
        let hi_by =
            ((((center.y + radius_m - self.min_y) / self.bin_m).floor()) as isize).max(-1) as usize;
        if lo_bx >= self.cols || lo_by >= self.rows || hi_bx == usize::MAX || hi_by == usize::MAX {
            return;
        }
        let hi_bx = hi_bx.min(self.cols - 1);
        let hi_by = hi_by.min(self.rows - 1);
        for by in lo_by..=hi_by {
            for bx in lo_bx..=hi_bx {
                let b = by * self.cols + bx;
                let (s, e) = (self.starts[b] as usize, self.starts[b + 1] as usize);
                for &id in &self.ids[s..e] {
                    if points[id as usize].distance_sq(center) <= r_sq {
                        f(id);
                    }
                }
            }
        }
    }
}

/// A partition of a `cols × rows` cell grid into square tiles of
/// `tile × tile` cells (edge tiles may be smaller). Tiles are the
/// shard boundaries of the hierarchical solver: each tile owns the
/// cells inside it, and tile ids follow row-major order over the tile
/// grid.
///
/// # Examples
///
/// ```
/// use uavnet_geom::TilePartition;
///
/// // A 5×4 grid in 2×2-cell tiles → 3×2 = 6 tiles.
/// let tiles = TilePartition::build(5, 4, 2);
/// assert_eq!(tiles.num_tiles(), 6);
/// assert_eq!(tiles.tile_of(0), 0);
/// assert_eq!(tiles.tile_of(4), 2); // col 4 → third tile column
/// let mut all: Vec<u32> = (0..tiles.num_tiles()).flat_map(|t| tiles.cells(t).to_vec()).collect();
/// all.sort_unstable();
/// assert_eq!(all, (0..20).collect::<Vec<u32>>());
/// ```
#[derive(Debug, Clone)]
pub struct TilePartition {
    tile: usize,
    grid_cols: usize,
    tile_cols: usize,
    tile_rows: usize,
    /// CSR offsets: tile `t` owns `cells[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    /// Cell indices grouped by tile, ascending within each tile.
    cells: Vec<u32>,
}

impl TilePartition {
    /// Partitions a `cols × rows` grid into `tile_cells`-sided tiles.
    /// A zero `tile_cells` (or one covering the whole grid) yields a
    /// single tile.
    ///
    /// # Panics
    ///
    /// Panics if the grid has zero cells or more than `u32::MAX`.
    pub fn build(cols: usize, rows: usize, tile_cells: usize) -> Self {
        assert!(cols > 0 && rows > 0, "empty grid");
        assert!(
            cols.saturating_mul(rows) <= u32::MAX as usize,
            "grid too large"
        );
        let tile = if tile_cells == 0 {
            cols.max(rows)
        } else {
            tile_cells
        };
        let tile_cols = cols.div_ceil(tile);
        let tile_rows = rows.div_ceil(tile);
        let num_tiles = tile_cols * tile_rows;
        // Counting sort of cells into tiles, mirroring SpatialIndex's
        // CSR build.
        let mut counts = vec![0u32; num_tiles + 1];
        let tile_of = |cell: usize| {
            let (c, r) = (cell % cols, cell / cols);
            (r / tile) * tile_cols + c / tile
        };
        for cell in 0..cols * rows {
            counts[tile_of(cell) + 1] += 1;
        }
        for t in 0..num_tiles {
            counts[t + 1] += counts[t];
        }
        let mut cursor = counts.clone();
        let mut cells = vec![0u32; cols * rows];
        for cell in 0..cols * rows {
            let t = tile_of(cell);
            cells[cursor[t] as usize] = cell as u32;
            cursor[t] += 1;
        }
        TilePartition {
            tile,
            grid_cols: cols,
            tile_cols,
            tile_rows,
            starts: counts,
            cells,
        }
    }

    /// Number of tiles.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.tile_cols * self.tile_rows
    }

    /// Tile side length in cells.
    #[inline]
    pub fn tile_cells(&self) -> usize {
        self.tile
    }

    /// The tile owning `cell` (row-major cell index).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    #[inline]
    pub fn tile_of(&self, cell: usize) -> usize {
        assert!(cell < self.cells.len(), "cell {cell} outside the grid");
        let (c, r) = (cell % self.grid_cols, cell / self.grid_cols);
        (r / self.tile) * self.tile_cols + c / self.tile
    }

    /// The cells owned by tile `t`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[inline]
    pub fn cells(&self, t: usize) -> &[u32] {
        &self.cells[self.starts[t] as usize..self.starts[t + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cloud() -> Vec<Point2> {
        // Deterministic pseudo-random cloud over a 1 km square.
        let mut pts = Vec::new();
        let mut state = 0x9e37u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 33) as f64 % 1000.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 33) as f64 % 1000.0;
            pts.push(Point2::new(x, y));
        }
        pts
    }

    fn brute(points: &[Point2], center: Point2, r: f64) -> Vec<u32> {
        (0..points.len() as u32)
            .filter(|&i| points[i as usize].distance_sq(center) <= r * r)
            .collect()
    }

    #[test]
    fn matches_bruteforce_across_radii_and_bins() {
        let pts = cloud();
        for bin in [30.0, 100.0, 333.0, 5000.0] {
            let index = SpatialIndex::build(&pts, bin);
            for (cx, cy, r) in [
                (0.0, 0.0, 150.0),
                (500.0, 500.0, 100.0),
                (990.0, 10.0, 400.0),
                (500.0, 500.0, 0.0),
                (-200.0, -200.0, 100.0),
                (500.0, 500.0, 5000.0),
            ] {
                let center = Point2::new(cx, cy);
                let mut got = Vec::new();
                index.for_each_within(&pts, center, r, |id| got.push(id));
                got.sort_unstable();
                assert_eq!(
                    got,
                    brute(&pts, center, r),
                    "bin {bin} r {r} at ({cx},{cy})"
                );
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = SpatialIndex::build(&[], 100.0);
        assert!(empty.is_empty());
        let mut hits = 0;
        empty.for_each_within(&[], Point2::new(0.0, 0.0), 1e9, |_| hits += 1);
        assert_eq!(hits, 0);

        // All points coincident; zero span still indexes.
        let pts = vec![Point2::new(5.0, 5.0); 4];
        let idx = SpatialIndex::build(&pts, 10.0);
        assert_eq!(idx.len(), 4);
        let mut got = Vec::new();
        idx.for_each_within(&pts, Point2::new(5.0, 5.0), 0.0, |id| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn invalid_bin_degrades_to_single_bin() {
        let pts = cloud();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let idx = SpatialIndex::build(&pts, bad);
            let center = Point2::new(400.0, 600.0);
            let mut got = Vec::new();
            idx.for_each_within(&pts, center, 250.0, |id| got.push(id));
            got.sort_unstable();
            assert_eq!(got, brute(&pts, center, 250.0), "bin {bad}");
        }
    }

    #[test]
    fn negative_or_nan_radius_yields_nothing() {
        let pts = cloud();
        let idx = SpatialIndex::build(&pts, 100.0);
        for r in [-1.0, f64::NAN] {
            let mut hits = 0;
            idx.for_each_within(&pts, Point2::new(500.0, 500.0), r, |_| hits += 1);
            assert_eq!(hits, 0);
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = vec![Point2::new(0.0, 0.0), Point2::new(100.0, 0.0)];
        let idx = SpatialIndex::build(&pts, 50.0);
        let mut got = Vec::new();
        idx.for_each_within(&pts, Point2::new(0.0, 0.0), 100.0, |id| got.push(id));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]); // d == r is inside
    }

    /// Every query of `index` over `pts` agrees with the linear scan.
    fn assert_exact(index: &SpatialIndex, pts: &[Point2], what: &str) {
        assert_eq!(index.len(), pts.len(), "{what}: size");
        for (cx, cy, r) in [
            (0.0, 0.0, 150.0),
            (500.0, 500.0, 100.0),
            (990.0, 10.0, 400.0),
            (1_200.0, 1_200.0, 300.0),
            (500.0, 500.0, 5000.0),
        ] {
            let center = Point2::new(cx, cy);
            let mut got = Vec::new();
            index.for_each_within(pts, center, r, |id| got.push(id));
            got.sort_unstable();
            assert_eq!(got, brute(pts, center, r), "{what}: r {r} at ({cx},{cy})");
        }
    }

    #[test]
    fn relocate_matches_a_fresh_build() {
        let mut pts = cloud();
        let mut index = SpatialIndex::build(&pts, 100.0);
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for round in 0..20 {
            // Move a handful of distinct points inside the extent and
            // append a few more.
            let mut ids: Vec<u32> = (0..8).map(|_| (next() % pts.len()) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            let moved: Vec<(u32, Point2)> = ids
                .iter()
                .map(|&id| {
                    let prev = pts[id as usize];
                    pts[id as usize] = Point2::new((next() % 990) as f64, (next() % 990) as f64);
                    (id, prev)
                })
                .collect();
            for _ in 0..round % 3 {
                pts.push(Point2::new((next() % 990) as f64, (next() % 990) as f64));
            }
            index.relocate(&pts, &moved);
            assert_exact(&index, &pts, &format!("round {round}"));
            assert!(index.ids.windows(2).all(|w| w[0] != w[1]));
        }
    }

    #[test]
    fn relocate_outside_the_extent_rebuilds() {
        let mut pts = vec![Point2::new(100.0, 100.0), Point2::new(300.0, 300.0)];
        let mut index = SpatialIndex::build(&pts, 100.0);
        pts[0] = Point2::new(1_200.0, 1_200.0);
        index.relocate(&pts, &[(0, Point2::new(100.0, 100.0))]);
        assert_exact(&index, &pts, "moved out");
        assert_eq!(index.bin_m(), 100.0);

        // An empty index grows into a real one, keeping the bin side.
        let mut empty = SpatialIndex::build(&[], 100.0);
        let pts = cloud();
        empty.relocate(&pts, &[]);
        assert_exact(&empty, &pts, "surge into empty");
        assert_eq!(empty.bin_m(), 100.0);
    }

    #[test]
    fn tiles_partition_every_cell_exactly_once() {
        for (cols, rows, tile) in [(7, 5, 3), (8, 8, 4), (1, 9, 2), (6, 6, 10), (5, 5, 1)] {
            let p = TilePartition::build(cols, rows, tile);
            let mut seen = vec![false; cols * rows];
            for t in 0..p.num_tiles() {
                let cells = p.cells(t);
                assert!(cells.windows(2).all(|w| w[0] < w[1]), "unsorted tile {t}");
                for &c in cells {
                    assert_eq!(p.tile_of(c as usize), t);
                    assert!(!seen[c as usize], "cell {c} in two tiles");
                    seen[c as usize] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "{cols}x{rows}/{tile} missed a cell"
            );
        }
    }

    #[test]
    fn tile_geometry_is_row_major_blocks() {
        // 6×4 grid, 2-cell tiles → 3×2 tile grid.
        let p = TilePartition::build(6, 4, 2);
        assert_eq!(p.num_tiles(), 6);
        assert_eq!(p.cells(0), &[0, 1, 6, 7]);
        assert_eq!(p.cells(2), &[4, 5, 10, 11]);
        assert_eq!(p.cells(3), &[12, 13, 18, 19]);
    }

    #[test]
    fn zero_tile_side_is_one_tile() {
        let p = TilePartition::build(4, 3, 0);
        assert_eq!(p.num_tiles(), 1);
        assert_eq!(p.cells(0).len(), 12);
        assert_eq!(p.tile_cells(), 4);
    }
}
