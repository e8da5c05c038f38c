//! Tree-structured center pruning: sublinear nearest-center queries
//! over the *centers* of a K-means run.
//!
//! The blocked kernel in [`crate::blocked`] made the k-way scan
//! FLOP-bound, but it is still Θ(k·d) per point — and the formation
//! pipeline sets k = N/100, so at N = 100k every point pays for 1 000
//! centers per scan. [`CenterTree`] is a KD-tree over the centers in
//! landmark space, rebuilt once per Lloyd iteration (centers move every
//! iteration; points never do), whose branch-and-bound
//! [`query`](CenterTree::query) visits only the tiles that can still
//! contain one of the two nearest centers. Composed with the Hamerly
//! bounds in [`crate::kmeans()`] — which already skip the scan entirely
//! for most points — the tree makes the *surviving* exact scans
//! sublinear in k.
//!
//! # Why a KD-tree with explicit bounding boxes (and not a ball-tree)
//!
//! Landmark space is low-dimensional (8–25 coordinates) and axis
//! bounds are exact coordinate values, so an axis-aligned bounding box
//! per node gives a lower bound that is (a) tight in practice and
//! (b) *provably conservative in floating point* — each per-dimension
//! clamped difference `max(lo−x, x−hi, 0)` rounds to a value no larger
//! than the rounded `|x−c|` of any center `c` inside the box
//! (f64 subtraction, squaring, and addition are monotone under
//! rounding, and both sums accumulate coordinate-ascending; an in-box
//! coordinate adds `+0.0`, i.e. nothing). A
//! ball-tree bound needs `√` and a subtraction of radii, whose
//! rounding can *overshoot* the true bound and would force an epsilon
//! slop — fatal for the bit-exactness contract below.
//!
//! # Bit-exactness contract
//!
//! [`CenterTree::query`] returns exactly what [`BlockedCenters::scan`]
//! returns — best index, best squared distance, second-best squared
//! distance, ties and all:
//!
//! * **Leaves are [`ecg_coords::CenterTiles`]-layout tiles** of ≤ [`LANE_WIDTH`]
//!   centers: per-pair distances run the identical lane-transposed
//!   accumulation in coordinate-ascending order, so every distance the
//!   tree computes is bit-identical to the scalar `sq_l2` left fold.
//! * **Selection is order-independent by construction.** The running
//!   `(best, second)` pair holds the two smallest distance *values*
//!   seen (order-independent as values), and the best index ties break
//!   lexicographically on `(d², center index)` — so the winner is the
//!   lowest-index argmin no matter which leaf the traversal reaches
//!   first, matching the ascending-index strict-`<` scan.
//! * **Pruning is strictly conservative.** A subtree is skipped only
//!   when its box lower bound *strictly exceeds* the current
//!   second-best distance; every center whose distance could equal the
//!   final best or second-best is therefore evaluated exactly, and the
//!   lower bound never overshoots (see above), so no equal-distance
//!   lower-index center is ever lost.
//!
//! The proptest suite pins `tree == blocked == kmeans_reference` down
//! to the bit, including duplicate points and equidistant centers.
//!
//! # Cost model
//!
//! **Rebuild** is O(k log k · (log k + d)) per iteration: ⌈log₂(k/8)⌉
//! levels, each sorting its slices on one coordinate (log² k — a sort,
//! not a selection, keeps the partition deterministic on `(coordinate,
//! index)`) and folding every center into its node's box (d · log k),
//! reusing every allocation. Measured ≈ 0.5 ms at k = 1 000, d = 8 —
//! 16 rebuilds are ≈ 2 % of a `form-100k` K-means — and reported
//! separately via [`take_tree_build_ms`].
//!
//! **A query** costs what its arithmetic costs. On `form-100k`
//! (k = 1 000, d = 8) it enters 10.7 internal nodes and 2.5 leaves of
//! 127 + 128, ≈ 330 multiply-adds, in ≈ 400 ns (≈ 840 ns before the
//! three points below; one thread, all 100k points against the
//! converged centers). None of the three changes a computed value:
//!
//! * the distance from a coordinate to a box is two selects
//!   (`clamp_outside`), not a three-way branch on data (≈ 165 per
//!   query); an in-box coordinate adds `+0.0`, so the bound keeps its
//!   bits;
//! * an internal node holds both children's boxes in one block,
//!   `[lo_l, lo_r, hi_l, hi_r]` per coordinate, and one pass bounds
//!   both with two independent accumulators (two f64 lanes to the
//!   vectorizer) instead of two scalar chains over separate boxes;
//! * the nearer child is entered in place and only the farther one
//!   stacked, on 384 bytes rather than 1 KiB zeroed per call.
//!
//! Without separation a query degrades towards the full scan, never
//! worse than a constant factor over it (uniform random centers in 8
//! dimensions: ≈ 46 internal nodes, 18 leaves); [`TREE_AUTO_MIN_K`]
//! records where the tree starts to win.
//!
//! Measured on `form-100k` and **not** adopted: skipping a leaf's
//! per-lane selection when no lane is within the second-best distance,
//! or testing that per lane — within noise; a stack of 8 / 32 / 64
//! entries — indistinguishable; a warm-start prune cap from the
//! point's previous two nearest centers — an ideal cap saved < 2 %
//! (the first leaf already sets it); Hamerly's `s(a)/2` test — 3 %
//! fewer exact scans; neighbour-local lower-bound drift — 25 % fewer,
//! but needs per-iteration center-neighbour tables and moves the
//! golden `kmeans.*` counters; visiting points in cluster order —
//! × 1.3 per query only with a permuted 6.4 MB copy of the points.

use crate::blocked::BlockedCenters;
use ecg_coords::{FeatureMatrix, LANE_WIDTH};
use std::cell::Cell;
use std::time::Instant;

/// Below this k, [`AssignMode::Auto`] stays on the flat blocked scan:
/// a tree over a handful of centers costs more in traversal overhead
/// than the scan it replaces (the paper-scale experiments run k ≤ 40).
/// Set by a sweep of Lloyd K-means time over k ∈ {16 … 200} at
/// N = 5k and 20k (table in DESIGN.md): 64 is the smallest k swept at
/// which the tree is ≥ 10 % faster at both sizes (13 % and 24 %); at
/// k = 50 it is level at N = 5k, and below that it loses.
pub const TREE_AUTO_MIN_K: usize = 64;

/// Which nearest-center engine the assignment scans use.
///
/// All three produce bit-identical clusterings (the tree's exactness
/// contract is the point of [`CenterTree`]); the mode only moves
/// wall-clock. `Auto` — the default — picks the tree once k reaches
/// [`TREE_AUTO_MIN_K`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignMode {
    /// Blocked scan below [`TREE_AUTO_MIN_K`] centers, tree at or
    /// above it.
    #[default]
    Auto,
    /// Always the flat blocked scan ([`BlockedCenters`]).
    Blocked,
    /// Always the KD-tree ([`CenterTree`]).
    Tree,
}

impl AssignMode {
    /// Whether this mode routes a `k`-center scan through the tree.
    #[inline]
    pub fn uses_tree(self, k: usize) -> bool {
        match self {
            AssignMode::Auto => k >= TREE_AUTO_MIN_K,
            AssignMode::Blocked => false,
            AssignMode::Tree => true,
        }
    }
}

impl std::str::FromStr for AssignMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(AssignMode::Auto),
            "blocked" => Ok(AssignMode::Blocked),
            "tree" => Ok(AssignMode::Tree),
            other => Err(format!(
                "assign mode must be auto, blocked, or tree, got {other:?}"
            )),
        }
    }
}

thread_local! {
    /// Nanoseconds spent (re)building [`CenterTree`]s on this thread.
    /// Builds always run on the thread driving the Lloyd loop, so the
    /// formation pipeline can read one cell; queries never touch it.
    static TREE_BUILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Drains the tree-build wall-clock accumulated on the calling thread
/// since the last drain, in milliseconds. Purely observational — the
/// clustering never branches on it.
pub fn take_tree_build_ms() -> f64 {
    TREE_BUILD_NS.with(|c| c.replace(0)) as f64 / 1e6
}

/// A KD-tree node. Nodes are stored pre-order in a flat vector, so an
/// internal node's left child is the next node; node `i`'s own bounding
/// box lives at `bounds[i * 2 * dim ..]` (lows, then highs).
#[derive(Debug, Clone, Copy)]
enum Node {
    /// `lanes` centers staged in tile `tile` (lane order = ascending
    /// original center index).
    Leaf { tile: u32, lanes: u32 },
    /// Every internal node has both children: the left is node `id + 1`,
    /// `right` is a node id, and `boxes` is this node's block in
    /// [`CenterTree::child_boxes`].
    Internal { boxes: u32, right: u32 },
}

/// KD-tree over a center matrix for exact two-nearest-center queries
/// (see the module docs for the layout and exactness argument). Build
/// once per clustering run, [`refill`](CenterTree::refill) after each
/// center update; both reuse the allocations.
#[derive(Debug, Clone)]
pub struct CenterTree {
    dim: usize,
    centers: usize,
    nodes: Vec<Node>,
    /// Per node: `dim` lows then `dim` highs (exact coordinate values).
    /// Build scratch (split choice, filling the parent's block); queries
    /// read `child_boxes` instead.
    bounds: Vec<f64>,
    /// Per internal node, `4 * dim` values: for each coordinate the
    /// lane-interleaved `[left low, right low, left high, right high]`,
    /// so one pass over the block bounds both children.
    child_boxes: Vec<f64>,
    /// Leaf tiles, `dim * LANE_WIDTH` values each, identical layout to
    /// [`ecg_coords::CenterTiles`]; padding lanes are zero and never read back.
    tiles: Vec<f64>,
    /// Original center index of each leaf lane (`LANE_WIDTH` slots per
    /// tile; padding slots unused).
    leaf_centers: Vec<u32>,
    /// Build scratch: the permutation being partitioned.
    order: Vec<u32>,
}

/// Traversal stack cap. Only the farther child of each internal node
/// on the current path is ever stacked, a node at level `l` holds at
/// most ⌈k / 2ˡ⌉ centers (median splits) and is a leaf at
/// ≤ [`LANE_WIDTH`] of them, and center ids are `u32` — so a path has
/// at most 29 internal nodes.
const MAX_DEPTH: usize = 32;

/// `max(a, b, +0.0)` as two selects: the distance from a coordinate to
/// the interval `[lo, hi]` given `a = lo − x` and `b = x − hi` (at most
/// one is positive). Equal to the three-way `x < lo` / `x > hi` /
/// inside test, including for NaN (→ 0), with no data-dependent branch.
#[inline(always)]
fn clamp_outside(a: f64, b: f64) -> f64 {
    let m = if a > b { a } else { b };
    if m > 0.0 {
        m
    } else {
        0.0
    }
}

impl CenterTree {
    /// Builds the tree over `centers`.
    pub fn new(centers: &FeatureMatrix) -> Self {
        let mut tree = CenterTree {
            dim: centers.dim(),
            centers: 0,
            nodes: Vec::new(),
            bounds: Vec::new(),
            child_boxes: Vec::new(),
            tiles: Vec::new(),
            leaf_centers: Vec::new(),
            order: Vec::new(),
        };
        tree.refill(centers);
        tree
    }

    /// Rebuilds the tree from a (possibly moved) center matrix,
    /// reusing every allocation — the Lloyd loop calls this once per
    /// iteration.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimension changed since construction.
    pub fn refill(&mut self, centers: &FeatureMatrix) {
        let started = Instant::now();
        assert_eq!(
            centers.dim(),
            self.dim,
            "center dimension changed between refills"
        );
        self.centers = centers.len();
        self.nodes.clear();
        self.bounds.clear();
        self.child_boxes.clear();
        self.tiles.clear();
        self.leaf_centers.clear();
        self.order.clear();
        self.order.extend(0..centers.len() as u32);
        if !self.order.is_empty() {
            self.build(centers, 0, centers.len());
        }
        TREE_BUILD_NS.with(|c| c.set(c.get() + started.elapsed().as_nanos() as u64));
    }

    /// Number of centers staged.
    pub fn centers(&self) -> usize {
        self.centers
    }

    /// Recursively builds the subtree over `order[lo..hi]`, returning
    /// its node id. Deterministic throughout: split dimension is the
    /// widest spread (ties to the lowest dimension), the partition
    /// sorts by `(coordinate, center index)` with `f64::total_cmp`.
    fn build(&mut self, centers: &FeatureMatrix, lo: usize, hi: usize) -> u32 {
        let dim = self.dim;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { tile: 0, lanes: 0 });
        // Exact per-dimension bounding box of the slice.
        let base = self.bounds.len();
        let first = centers.row(self.order[lo] as usize);
        self.bounds.extend_from_slice(first);
        self.bounds.extend_from_slice(first);
        for &c in &self.order[lo + 1..hi] {
            let row = centers.row(c as usize);
            for (d, &v) in row.iter().enumerate() {
                if v < self.bounds[base + d] {
                    self.bounds[base + d] = v;
                }
                if v > self.bounds[base + dim + d] {
                    self.bounds[base + dim + d] = v;
                }
            }
        }

        if hi - lo <= LANE_WIDTH {
            // Leaf: lanes in ascending original-index order, staged in
            // the CenterTiles layout (coordinate-major, LANE_WIDTH
            // lanes, zero padding).
            self.order[lo..hi].sort_unstable();
            let tile_len = dim * LANE_WIDTH;
            let tile = (self.tiles.len() / tile_len) as u32;
            let tile_base = self.tiles.len();
            self.tiles.resize(tile_base + tile_len, 0.0);
            let lane_base = self.leaf_centers.len();
            self.leaf_centers.resize(lane_base + LANE_WIDTH, 0);
            for (lane, &c) in self.order[lo..hi].iter().enumerate() {
                self.leaf_centers[lane_base + lane] = c;
                for (d, &v) in centers.row(c as usize).iter().enumerate() {
                    self.tiles[tile_base + d * LANE_WIDTH + lane] = v;
                }
            }
            self.nodes[id as usize] = Node::Leaf {
                tile,
                lanes: (hi - lo) as u32,
            };
        } else {
            let mut split_dim = 0usize;
            let mut widest = f64::NEG_INFINITY;
            for d in 0..dim {
                let spread = self.bounds[base + dim + d] - self.bounds[base + d];
                if spread > widest {
                    widest = spread;
                    split_dim = d;
                }
            }
            self.order[lo..hi].sort_unstable_by(|&a, &b| {
                centers.row(a as usize)[split_dim]
                    .total_cmp(&centers.row(b as usize)[split_dim])
                    .then(a.cmp(&b))
            });
            let mid = lo + (hi - lo) / 2;
            // Blocks are claimed pre-order too, so a descent to the
            // left reads memory forwards.
            let block = self.child_boxes.len();
            self.child_boxes.resize(block + 4 * dim, 0.0);
            let left = self.build(centers, lo, mid);
            let right = self.build(centers, mid, hi);
            debug_assert_eq!(left, id + 1);
            let (l, r) = (left as usize * 2 * dim, right as usize * 2 * dim);
            for d in 0..dim {
                self.child_boxes[block + 4 * d..block + 4 * d + 4].copy_from_slice(&[
                    self.bounds[l + d],
                    self.bounds[r + d],
                    self.bounds[l + dim + d],
                    self.bounds[r + dim + d],
                ]);
            }
            self.nodes[id as usize] = Node::Internal {
                boxes: (block / (4 * dim)) as u32,
                right,
            };
        }
        id
    }

    /// Exact two-nearest-centers query: `(best index, best squared
    /// distance, second-best squared distance)`, bit-identical to
    /// [`BlockedCenters::scan`] on the same centers — ties break to
    /// the lowest center index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `p` has the wrong dimension.
    #[inline]
    pub fn query(&self, p: &[f64]) -> (usize, f64, f64) {
        self.descend(p, |_| {})
    }

    /// The traversal behind [`query`](CenterTree::query); `visit(is_leaf)`
    /// is called once per node entered (a no-op outside the tests that
    /// pin the visit counts).
    #[inline(always)]
    fn descend(&self, p: &[f64], mut visit: impl FnMut(bool)) -> (usize, f64, f64) {
        debug_assert_eq!(p.len(), self.dim);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        let mut second_d = f64::INFINITY;
        if self.nodes.is_empty() {
            return (best, best_d, second_d);
        }
        let block_len = 4 * self.dim;
        let tile_len = self.dim * LANE_WIDTH;
        // Farther children still to try, with their box lower bounds;
        // a bound is re-tested at pop time because `second_d` shrinks.
        let mut far_ids = [0u32; MAX_DEPTH];
        let mut far_lbs = [0.0f64; MAX_DEPTH];
        let mut top = 0usize;
        let mut id = 0u32;
        loop {
            match self.nodes[id as usize] {
                Node::Internal { boxes, right } => {
                    visit(false);
                    // Both children's box lower bounds in one pass: two
                    // independent accumulators, each coordinate-
                    // ascending, each clamp branch-free. Neither ever
                    // exceeds the tile-computed distance of a center
                    // inside its box (monotone rounding, module docs).
                    let b = boxes as usize * block_len;
                    let block = &self.child_boxes[b..b + block_len];
                    let (mut lb_left, mut lb_right) = (0.0f64, 0.0f64);
                    for (&x, c) in p.iter().zip(block.chunks_exact(4)) {
                        let left = clamp_outside(c[0] - x, x - c[2]);
                        let right = clamp_outside(c[1] - x, x - c[3]);
                        lb_left += left * left;
                        lb_right += right * right;
                    }
                    // Nearer child first (ties: left), in place; only
                    // the farther one is stacked. Strict tests: a bound
                    // equal to the second-best distance may still hide
                    // an equal-distance center that changes the
                    // lowest-index tie-break.
                    let (near, lb_near, far, lb_far) = if lb_left <= lb_right {
                        (id + 1, lb_left, right, lb_right)
                    } else {
                        (right, lb_right, id + 1, lb_left)
                    };
                    if lb_near <= second_d {
                        if lb_far <= second_d {
                            far_ids[top] = far;
                            far_lbs[top] = lb_far;
                            top += 1;
                        }
                        id = near;
                        continue;
                    }
                }
                Node::Leaf { tile, lanes } => {
                    visit(true);
                    let t = tile as usize;
                    let tile_data = &self.tiles[t * tile_len..(t + 1) * tile_len];
                    // Identical accumulation to the blocked kernel:
                    // coordinate-ascending, one accumulator per lane.
                    let mut acc = [0.0f64; LANE_WIDTH];
                    for (d, &pv) in p.iter().enumerate() {
                        let row = &tile_data[d * LANE_WIDTH..(d + 1) * LANE_WIDTH];
                        for (a, &cv) in acc.iter_mut().zip(row) {
                            let diff = pv - cv;
                            *a += diff * diff;
                        }
                    }
                    let lane_base = t * LANE_WIDTH;
                    for (lane, &d2) in acc.iter().take(lanes as usize).enumerate() {
                        let idx = self.leaf_centers[lane_base + lane] as usize;
                        // Lexicographic (d², index): order-independent
                        // lowest-index argmin plus the two smallest
                        // distance values.
                        if d2 < best_d || (d2 == best_d && idx < best) {
                            second_d = best_d;
                            best_d = d2;
                            best = idx;
                        } else if d2 < second_d {
                            second_d = d2;
                        }
                    }
                }
            }
            loop {
                if top == 0 {
                    return (best, best_d, second_d);
                }
                top -= 1;
                if far_lbs[top] <= second_d {
                    id = far_ids[top];
                    break;
                }
            }
        }
    }
}

/// The nearest-center engine an assignment scan runs on: the flat
/// blocked kernel or the KD-tree, per [`AssignMode`]. Both arms return
/// bit-identical triples, so callers are free to switch on k.
#[derive(Debug, Clone)]
pub(crate) enum CenterScanner {
    Blocked(BlockedCenters),
    Tree(CenterTree),
}

impl CenterScanner {
    /// Stages `centers` on the engine `mode` selects for this k.
    pub(crate) fn stage(centers: &FeatureMatrix, mode: AssignMode) -> Self {
        if mode.uses_tree(centers.len()) {
            CenterScanner::Tree(CenterTree::new(centers))
        } else {
            CenterScanner::Blocked(BlockedCenters::new(centers))
        }
    }

    /// Re-stages moved centers, reusing the allocation.
    pub(crate) fn refill(&mut self, centers: &FeatureMatrix) {
        match self {
            CenterScanner::Blocked(b) => b.refill(centers),
            CenterScanner::Tree(t) => t.refill(centers),
        }
    }

    /// `(best index, best d², second-best d²)` — see
    /// [`BlockedCenters::scan`] / [`CenterTree::query`].
    #[inline]
    pub(crate) fn scan(&self, p: &[f64]) -> (usize, f64, f64) {
        match self {
            CenterScanner::Blocked(b) => b.scan(p),
            CenterScanner::Tree(t) => t.query(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The traversal [`CenterTree::descend`] replaced, kept as the oracle
    /// of the equivalence tests: a three-way branch per coordinate over
    /// each node's own box, one pass per child, both children stacked.
    impl CenterTree {
        fn min_d2(&self, node: u32, p: &[f64]) -> f64 {
            let base = node as usize * 2 * self.dim;
            let lows = &self.bounds[base..base + self.dim];
            let highs = &self.bounds[base + self.dim..base + 2 * self.dim];
            let mut acc = 0.0f64;
            for ((&x, &lo), &hi) in p.iter().zip(lows).zip(highs) {
                let diff = if x < lo {
                    lo - x
                } else if x > hi {
                    x - hi
                } else {
                    continue;
                };
                acc += diff * diff;
            }
            acc
        }

        fn query_two_pass(&self, p: &[f64]) -> (usize, f64, f64) {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            let mut second_d = f64::INFINITY;
            if self.nodes.is_empty() {
                return (best, best_d, second_d);
            }
            let mut stack = vec![(0u32, self.min_d2(0, p))];
            let tile_len = self.dim * LANE_WIDTH;
            while let Some((id, lb)) = stack.pop() {
                if lb > second_d {
                    continue;
                }
                match self.nodes[id as usize] {
                    Node::Leaf { tile, lanes } => {
                        let t = tile as usize;
                        let tile_data = &self.tiles[t * tile_len..(t + 1) * tile_len];
                        let mut acc = [0.0f64; LANE_WIDTH];
                        for (d, &pv) in p.iter().enumerate() {
                            let row = &tile_data[d * LANE_WIDTH..(d + 1) * LANE_WIDTH];
                            for (a, &cv) in acc.iter_mut().zip(row) {
                                let diff = pv - cv;
                                *a += diff * diff;
                            }
                        }
                        let lane_base = t * LANE_WIDTH;
                        for (lane, &d2) in acc.iter().take(lanes as usize).enumerate() {
                            let idx = self.leaf_centers[lane_base + lane] as usize;
                            if d2 < best_d || (d2 == best_d && idx < best) {
                                second_d = best_d;
                                best_d = d2;
                                best = idx;
                            } else if d2 < second_d {
                                second_d = d2;
                            }
                        }
                    }
                    Node::Internal { right, .. } => {
                        let left = id + 1;
                        let lb_left = self.min_d2(left, p);
                        let lb_right = self.min_d2(right, p);
                        let (near, far) = if lb_left <= lb_right {
                            ((left, lb_left), (right, lb_right))
                        } else {
                            ((right, lb_right), (left, lb_left))
                        };
                        stack.push(far);
                        stack.push(near);
                    }
                }
            }
            (best, best_d, second_d)
        }

        /// [`CenterTree::query`] plus how many internal nodes and leaves
        /// it entered — the same traversal, counted.
        fn query_counted(&self, p: &[f64]) -> ((usize, f64, f64), usize, usize) {
            let (mut internal, mut leaves) = (0usize, 0usize);
            let found = self.descend(p, |is_leaf| {
                if is_leaf {
                    leaves += 1;
                } else {
                    internal += 1;
                }
            });
            (found, internal, leaves)
        }

        fn leaf_count(&self) -> usize {
            self.tiles.len() / (self.dim * LANE_WIDTH)
        }
    }

    fn rand_matrix(gen: &mut StdRng, rows: usize, dim: usize, span: f64) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(dim);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dim).map(|_| gen.gen_range(-span..span)).collect();
            m.push_row(&row);
        }
        m
    }

    /// Rows whose every coordinate is drawn from `values`.
    fn grid_matrix(gen: &mut StdRng, rows: usize, dim: usize, values: &[f64]) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(dim);
        for _ in 0..rows {
            let row: Vec<f64> = (0..dim)
                .map(|_| values[gen.gen_range(0..values.len())])
                .collect();
            m.push_row(&row);
        }
        m
    }

    /// Points on the faces and corners of the tree's boxes. Every box
    /// bound is a center coordinate, so a point sharing one coordinate
    /// with a center lies on a face of each box bounded there, and a
    /// point assembled from center coordinates alone — one center's
    /// row, or the per-dimension extremes — lies on corners.
    fn boundary_points(gen: &mut StdRng, centers: &FeatureMatrix, span: f64) -> FeatureMatrix {
        let (k, dim) = (centers.len(), centers.dim());
        let mut m = FeatureMatrix::new(dim);
        for _ in 0..8 {
            let mut face: Vec<f64> = (0..dim).map(|_| gen.gen_range(-span..span)).collect();
            let d = gen.gen_range(0..dim);
            face[d] = centers.row(gen.gen_range(0..k))[d];
            m.push_row(&face);
            let corner: Vec<f64> = (0..dim)
                .map(|d| centers.row(gen.gen_range(0..k))[d])
                .collect();
            m.push_row(&corner);
        }
        m.push_row(centers.row(gen.gen_range(0..k)));
        let extreme = |pick: fn(f64, f64) -> f64| -> Vec<f64> {
            (0..dim)
                .map(|d| centers.iter_rows().map(|c| c[d]).reduce(pick).unwrap())
                .collect()
        };
        m.push_row(&extreme(f64::min));
        m.push_row(&extreme(f64::max));
        m
    }

    /// Blocked scan == new traversal == retained old traversal, down to
    /// the bits of both distances.
    fn assert_matches_blocked(points: &FeatureMatrix, centers: &FeatureMatrix, label: &str) {
        let tree = CenterTree::new(centers);
        let blocked = BlockedCenters::new(centers);
        for (i, p) in points.iter_rows().enumerate() {
            let (bb, bd, bs) = blocked.scan(p);
            for (engine, (tb, td, ts)) in [
                ("query", tree.query(p)),
                ("two-pass oracle", tree.query_two_pass(p)),
            ] {
                assert_eq!(bb, tb, "{label}: {engine} best index, point {i}");
                assert_eq!(
                    bd.to_bits(),
                    td.to_bits(),
                    "{label}: {engine} best d2, point {i}"
                );
                assert_eq!(
                    bs.to_bits(),
                    ts.to_bits(),
                    "{label}: {engine} second d2, point {i}"
                );
            }
        }
    }

    #[test]
    fn matches_blocked_scan_across_shapes() {
        let mut gen = StdRng::seed_from_u64(0x7EE5);
        // Single-leaf trees, full and one-over-full leaves, k on both
        // sides of the auto threshold; every dimension from 1 to 24;
        // continuous centers (deep pruning), then centers on a coarse
        // grid holding both zeros (duplicates, equidistant layouts,
        // `-0.0` against `+0.0` box bounds).
        let grid = [-50.0, -25.0, -0.0, 0.0, 25.0, 50.0];
        for k in [1usize, 7, 8, 9, 16, 17, 64, 65] {
            for dim in 1..=24usize {
                let label = format!("k={k} dim={dim}");
                let centers = rand_matrix(&mut gen, k, dim, 50.0);
                assert_matches_blocked(&rand_matrix(&mut gen, 12, dim, 60.0), &centers, &label);
                assert_matches_blocked(
                    &boundary_points(&mut gen, &centers, 60.0),
                    &centers,
                    &label,
                );

                let label = format!("grid k={k} dim={dim}");
                let centers = grid_matrix(&mut gen, k, dim, &grid);
                assert_matches_blocked(&rand_matrix(&mut gen, 6, dim, 60.0), &centers, &label);
                assert_matches_blocked(&grid_matrix(&mut gen, 12, dim, &grid), &centers, &label);
            }
        }
        // Deep trees.
        for &(k, dim) in &[(100usize, 8usize), (257, 5), (1_000, 8)] {
            let centers = rand_matrix(&mut gen, k, dim, 50.0);
            let label = format!("k={k} dim={dim}");
            assert_matches_blocked(&rand_matrix(&mut gen, 40, dim, 60.0), &centers, &label);
            assert_matches_blocked(&boundary_points(&mut gen, &centers, 60.0), &centers, &label);
        }
    }

    #[test]
    fn signed_zero_coordinates_bound_to_the_same_bits() {
        // `lo − x` is `-0.0` exactly when lo = -0.0 and x = +0.0; the
        // clamp may then return either zero, and its square is `+0.0`
        // both ways — the skipped coordinate of the old three-way test.
        for (lo, x, hi) in [(-0.0, 0.0, -0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0)] {
            let diff: f64 = clamp_outside(lo - x, x - hi);
            assert_eq!((diff * diff).to_bits(), 0, "lo={lo:?} x={x:?} hi={hi:?}");
        }
        assert_eq!(clamp_outside(f64::NAN, f64::NAN), 0.0);
        assert_eq!(clamp_outside(3.0, -5.0), 3.0);
        assert_eq!(clamp_outside(-5.0, 3.0), 3.0);
        assert_eq!(clamp_outside(-5.0, -3.0), 0.0);

        let zeros = [-0.0, 0.0];
        let mut gen = StdRng::seed_from_u64(0x2E80);
        for dim in [1usize, 2, 3, 8] {
            let mut centers = grid_matrix(&mut gen, 40, dim, &zeros);
            centers.push_row(&vec![1.0; dim]);
            centers.push_row(&vec![-1.0; dim]);
            let points = grid_matrix(&mut gen, 20, dim, &[-1.0, -0.0, 0.0, 1.0]);
            assert_matches_blocked(&points, &centers, &format!("signed zeros dim={dim}"));
        }
    }

    #[test]
    fn duplicate_and_equidistant_centers_tie_to_the_lowest_index() {
        // All-duplicate centers: every distance is exactly equal, so
        // best must be index 0 from any traversal order.
        let row = vec![3.0, -1.0];
        let mut centers = FeatureMatrix::new(2);
        for _ in 0..20 {
            centers.push_row(&row);
        }
        let tree = CenterTree::new(&centers);
        let (best, best_d, second_d) = tree.query(&row);
        assert_eq!(best, 0);
        assert_eq!(best_d, 0.0);
        assert_eq!(second_d, 0.0);
        let points = FeatureMatrix::from_rows(&[vec![0.0, 0.0], row.clone()]);
        assert_matches_blocked(&points, &centers, "all-duplicate centers");

        // Symmetric centers, query on the axis of symmetry: two
        // exactly equidistant centers in different leaves.
        let centers = FeatureMatrix::from_rows(&[
            vec![-10.0, 0.0],
            vec![10.0, 0.0],
            vec![-10.0, 5.0],
            vec![10.0, 5.0],
            vec![-10.0, -5.0],
            vec![10.0, -5.0],
            vec![-30.0, 0.0],
            vec![30.0, 0.0],
            vec![-30.0, 5.0],
            vec![30.0, 5.0],
        ]);
        let points = FeatureMatrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 2.5], vec![0.0, -2.5]]);
        assert_matches_blocked(&points, &centers, "mirror-symmetric centers");
    }

    #[test]
    fn single_center_reports_infinite_second() {
        let centers = FeatureMatrix::from_rows(&[vec![1.0, 2.0]]);
        let tree = CenterTree::new(&centers);
        let (best, best_d, second_d) = tree.query(&[1.0, 2.0]);
        assert_eq!(best, 0);
        assert_eq!(best_d, 0.0);
        assert!(second_d.is_infinite());
    }

    #[test]
    fn refill_follows_center_movement() {
        let mut centers = rand_matrix(&mut StdRng::seed_from_u64(4), 70, 3, 20.0);
        let mut tree = CenterTree::new(&centers);
        assert_eq!(tree.centers(), 70);
        let points = rand_matrix(&mut StdRng::seed_from_u64(5), 40, 3, 30.0);
        for p in points.iter_rows() {
            let blocked = BlockedCenters::new(&centers);
            assert_eq!(tree.query(p), blocked.scan(p));
        }
        // Move every center and refill: queries must track the move.
        for c in 0..centers.len() {
            for v in centers.row_mut(c) {
                *v = -*v + 7.0;
            }
        }
        tree.refill(&centers);
        let blocked = BlockedCenters::new(&centers);
        for p in points.iter_rows() {
            assert_eq!(tree.query(p), blocked.scan(p));
        }
    }

    #[test]
    #[should_panic(expected = "dimension changed")]
    fn dim_change_rejected() {
        let mut tree = CenterTree::new(&FeatureMatrix::from_rows(&[vec![1.0, 2.0]]));
        tree.refill(&FeatureMatrix::from_rows(&[vec![1.0]]));
    }

    #[test]
    fn clustered_centers_prune_most_leaves() {
        // Tight, distant blobs of eight centers: each blob is one leaf,
        // and a query has both of its nearest centers in one blob, so
        // it opens that leaf and at most the blob across the nearest
        // bisector.
        let mut gen = StdRng::seed_from_u64(0xC1);
        let mut centers = FeatureMatrix::new(4);
        for blob in 0..32 {
            let base = blob as f64 * 1_000.0;
            for _ in 0..8 {
                let row: Vec<f64> = (0..4).map(|_| base + gen.gen_range(-1.0..1.0)).collect();
                centers.push_row(&row);
            }
        }
        let points = rand_matrix(&mut gen, 50, 4, 33_000.0);
        assert_matches_blocked(&points, &centers, "tight distant blobs");
        let tree = CenterTree::new(&centers);
        assert_eq!(tree.leaf_count(), 32);
        for (i, p) in points.iter_rows().enumerate() {
            let (found, _, leaves) = tree.query_counted(p);
            assert_eq!(found, tree.query(p));
            assert!(leaves <= 2, "blob query {i} opened {leaves} leaves");
        }

        // Pathological for pruning — every center on one line — and
        // still no probe opens every leaf.
        let collinear =
            FeatureMatrix::from_rows(&(0..90).map(|i| vec![i as f64, 0.0]).collect::<Vec<_>>());
        let probes = FeatureMatrix::from_rows(&[vec![44.5, 0.0], vec![-3.0, 2.0], vec![91.0, 0.0]]);
        assert_matches_blocked(&probes, &collinear, "collinear centers");
        let tree = CenterTree::new(&collinear);
        for (i, p) in probes.iter_rows().enumerate() {
            let (_, _, leaves) = tree.query_counted(p);
            assert!(
                leaves < tree.leaf_count(),
                "collinear probe {i} opened all {leaves} leaves"
            );
        }
    }

    #[test]
    fn visit_counts_are_pinned_on_a_seeded_fixture() {
        // The `form-100k` shape: 1 000 centers whose 8 coordinates are
        // distances from a position in the plane to 8 landmarks, and
        // 500 queries each a short walk from a center's position. A
        // layout or ordering change that makes the traversal enter
        // more nodes fails here, not in a benchmark.
        let mut gen = StdRng::seed_from_u64(0x51ED);
        let landmarks: Vec<(f64, f64)> = (0..8)
            .map(|_| (gen.gen_range(0.0..100.0), gen.gen_range(0.0..100.0)))
            .collect();
        let features = |x: f64, y: f64| -> Vec<f64> {
            landmarks
                .iter()
                .map(|&(lx, ly)| ((x - lx) * (x - lx) + (y - ly) * (y - ly)).sqrt())
                .collect()
        };
        let positions: Vec<(f64, f64)> = (0..1_000)
            .map(|_| (gen.gen_range(0.0..100.0), gen.gen_range(0.0..100.0)))
            .collect();
        let mut centers = FeatureMatrix::new(8);
        for &(x, y) in &positions {
            centers.push_row(&features(x, y));
        }
        let tree = CenterTree::new(&centers);
        assert_eq!(tree.leaf_count(), 128);
        let (mut internal, mut leaves) = (0usize, 0usize);
        for &(x, y) in positions.iter().step_by(2) {
            let p = features(x + gen.gen_range(-1.0..1.0), y + gen.gen_range(-1.0..1.0));
            let (found, entered, opened) = tree.query_counted(&p);
            assert_eq!(found, tree.query_two_pass(&p));
            internal += entered;
            leaves += opened;
        }
        assert_eq!((internal, leaves), (4392, 880));
    }

    #[test]
    fn assign_mode_resolution() {
        assert!(!AssignMode::Auto.uses_tree(TREE_AUTO_MIN_K - 1));
        assert!(AssignMode::Auto.uses_tree(TREE_AUTO_MIN_K));
        assert!(!AssignMode::Blocked.uses_tree(1_000_000));
        assert!(AssignMode::Tree.uses_tree(1));
        assert_eq!("tree".parse::<AssignMode>(), Ok(AssignMode::Tree));
        assert_eq!("blocked".parse::<AssignMode>(), Ok(AssignMode::Blocked));
        assert_eq!("auto".parse::<AssignMode>(), Ok(AssignMode::Auto));
        assert!("kd".parse::<AssignMode>().is_err());
    }

    #[test]
    fn scanner_arms_agree_and_build_time_accumulates() {
        let mut gen = StdRng::seed_from_u64(0xABC);
        let centers = rand_matrix(&mut gen, 129, 6, 40.0);
        let points = rand_matrix(&mut gen, 60, 6, 60.0);
        let _ = take_tree_build_ms();
        let tree = CenterScanner::stage(&centers, AssignMode::Tree);
        let blocked = CenterScanner::stage(&centers, AssignMode::Blocked);
        let auto = CenterScanner::stage(&centers, AssignMode::Auto);
        assert!(matches!(auto, CenterScanner::Tree(_)));
        for p in points.iter_rows() {
            assert_eq!(tree.scan(p), blocked.scan(p));
            assert_eq!(auto.scan(p), blocked.scan(p));
        }
        // Two tree builds happened above; the drain sees them once.
        assert!(take_tree_build_ms() >= 0.0);
        assert_eq!(take_tree_build_ms(), 0.0);
    }
}
