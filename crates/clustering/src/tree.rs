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
//! # Neighbour tables: the re-scan without the traversal
//!
//! A point that fails the Hamerly test in [`crate::kmeans()`] arrives
//! at its exact scan knowing its assigned center `a` and the exact
//! distance `d_a` to it. [`NeighbourTiles`] holds, per center, the
//! [`NEIGHBOURS`] = 24 centers nearest to it (itself included) as three
//! leaf-layout tiles, and `R_a`, the distance from `a` to the nearest
//! center *left out*. [`NeighbourTiles::scan`] evaluates those 24
//! distances with the leaf's accumulation and the same lexicographic
//! `(d², index)` selection, and **accepts only if
//! `√second + slack < R_a − d_a`**:
//!
//! * by the triangle inequality every excluded center lies at least
//!   `R_a − d_a` from the point, so under the inequality each is
//!   *strictly* farther than the second-nearest found. None can supply
//!   either of the two smallest distances, and none can tie with the
//!   best, so the lowest-index tie-break is decided among the 24 too:
//!   the triple is the one [`CenterTree::query`] returns, bit for bit.
//!   A non-strict test would be wrong exactly when an excluded,
//!   lower-indexed center sits `R_a − d_a` away (a unit test builds
//!   that case);
//! * `R_a`, `d_a` and `√second` are each a correctly rounded square
//!   root of a sum that the tiles reproduce bit for bit, so the three
//!   roots and the subtraction err by a few 10⁻¹⁶ of `R_a + d_a`;
//!   `slack = 10⁻⁹·(R_a + d_a)` is seven orders above that. A NaN
//!   anywhere fails the comparison.
//!
//! Anything not accepted runs the traversal as before, so assignments,
//! bounds, the `kmeans.{pruned,tightened,exact_scans,reassigned}`
//! counters and trace events cannot move; only mini-batch, masked and
//! capped K-means never see the tables.
//!
//! The tables are rebuilt after each refill by one bounded
//! nearest-set traversal per center — the same descent with a 25-entry
//! sorted set in place of the best/second pair, not k² distances.
//! Whether to build them is decided from
//! what the previous scan phase observed, never from a setting: a
//! phase that settled **under half** its exact scans from the tables
//! (centers not separated: it paid three tiles and then the tree)
//! retires them for the rest of the run, and a phase with fewer than
//! 16 exact scans per center — about what one table costs to build —
//! goes without.
//!
//! # Cost model
//!
//! **Rebuild** is O(k log k · (log k + d)) per iteration: ⌈log₂(k/8)⌉
//! levels, each sorting its slices on one coordinate (log² k — a sort,
//! not a selection, keeps the partition deterministic on `(coordinate,
//! index)`) and folding every center into its node's box (d · log k),
//! reusing every allocation. Measured ≈ 0.5 ms at k = 1 000, d = 8. The
//! neighbour tables add ≈ 2.1 µs per center (≈ 2.1 ms at k = 1 000,
//! 1.5 MB), sequential on the driving thread; both are reported via
//! [`take_tree_build_ms`] and together are ≈ 20 % of a `form-100k`
//! K-means.
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
//! **A table scan** is 24 distances, 192 multiply-adds and no
//! data-dependent descent. In the 15 capped iterations of `form-100k`
//! the Hamerly test sends 99 % → 45 % of the points to an exact scan
//! (mean 63 %: the bound is not what is slow), and the tables settle
//! 96.4–97.7 % of those per iteration, so K-means falls from ≈ 228 to
//! ≈ 108 ns per point-iteration (traced, seed 7, 2 threads). Three
//! tiles by measurement: two
//! settle 84.0–88.4 % and four 99.1–99.5 %, and over three alternating
//! rounds three tiles formed the most caches per CPU-second each time
//! (284–314k against 277–297k and 255–307k).
//!
//! Without separation a query degrades towards the full scan, never
//! worse than a constant factor over it (uniform random centers in 8
//! dimensions: ≈ 46 internal nodes, 18 leaves), and the tables settle
//! well under half the scans and retire after one iteration;
//! [`TREE_AUTO_MIN_K`] records where the tree starts to win.
//!
//! Measured on `form-100k` and **not** adopted: skipping a leaf's
//! per-lane selection when no lane is within the second-best distance,
//! or testing that per lane — within noise; a stack of 8 / 32 / 64
//! entries — indistinguishable; a warm-start prune cap from the
//! point's previous two nearest centers, *seeding* the traversal that
//! the tables replace — an ideal cap saved < 2 % (the first leaf
//! already sets it); Hamerly's `s(a)/2` test — 3 % fewer exact scans;
//! neighbour-local lower-bound drift — 25 % fewer, but it moves the
//! golden `kmeans.*` counters; visiting points in cluster order —
//! × 1.3 per query only with a permuted 6.4 MB copy of the points;
//! two or four tiles per table (above).

use crate::blocked::BlockedCenters;
use ecg_coords::{FeatureMatrix, LANE_WIDTH};
use std::cell::Cell;
use std::time::Instant;

/// Below this k the assignment scans stay on the flat blocked scan:
/// a tree over a handful of centers costs more in traversal overhead
/// than the scan it replaces (the paper-scale experiments run k ≤ 40).
/// Set by a sweep of Lloyd K-means time over k ∈ {16 … 200} at
/// N = 5k and 20k, where 64 was the smallest k swept at which the tree
/// was ≥ 10 % faster at both sizes. `ecg-bench time scale` records that
/// sweep as paired tree / blocked ratios (`tree_vs_blocked` in
/// `BENCH_scale.json`, table in DESIGN.md). At k = 25 the tree is ahead
/// at N = 5 000 (0.87) but not resolved at N = 20 000 (0.996
/// [0.91–1.10], ahead in 5 of 10 pairs); from k = 32 it is ahead at both
/// N in every pair. The constant moves only on a re-measurement.
pub const TREE_AUTO_MIN_K: usize = 64;

/// A nearest-center engine forced on the assignment scans, whatever
/// k is: the hook the engine-equality tests and `ecg-bench time scale`'s fixed
/// grid (its crossover cells included) reach each engine through. Both produce bit-identical
/// clusterings (the tree's exactness contract is the point of
/// [`CenterTree`]); unforced, the scans take the tree from
/// [`TREE_AUTO_MIN_K`] centers up and the blocked scan below.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignMode {
    /// The flat blocked scan ([`BlockedCenters`]).
    Blocked,
    /// The KD-tree ([`CenterTree`]).
    Tree,
}

thread_local! {
    /// Nanoseconds spent (re)building [`CenterTree`]s and
    /// [`NeighbourTiles`] on this thread. Builds always run on the
    /// thread driving the Lloyd loop, so the formation pipeline can
    /// read one cell; queries never touch it.
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
        let mut found = TwoNearest::new();
        self.descend(p, &mut found, |_| {});
        found.triple()
    }

    /// The traversal behind [`query`](CenterTree::query) and the
    /// neighbour tables: every center that `found` could still want is
    /// offered to it with its exact squared distance; `visit(is_leaf)`
    /// is called once per node entered (a no-op outside the tests that
    /// pin the visit counts).
    #[inline(always)]
    fn descend<N: Nearest>(&self, p: &[f64], found: &mut N, mut visit: impl FnMut(bool)) {
        debug_assert_eq!(p.len(), self.dim);
        if self.nodes.is_empty() {
            return;
        }
        let block_len = 4 * self.dim;
        let tile_len = self.dim * LANE_WIDTH;
        // Farther children still to try, with their box lower bounds;
        // a bound is re-tested at pop time because the reach shrinks.
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
                    // equal to the reach may still hide an equal-
                    // distance center that changes the lowest-index
                    // tie-break.
                    let (near, lb_near, far, lb_far) = if lb_left <= lb_right {
                        (id + 1, lb_left, right, lb_right)
                    } else {
                        (right, lb_right, id + 1, lb_left)
                    };
                    let reach = found.reach();
                    if lb_near <= reach {
                        if lb_far <= reach {
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
                    let acc = lane_distances(p, &self.tiles[t * tile_len..(t + 1) * tile_len]);
                    let lane_base = t * LANE_WIDTH;
                    for (lane, &d2) in acc.iter().take(lanes as usize).enumerate() {
                        found.offer(d2, self.leaf_centers[lane_base + lane]);
                    }
                }
            }
            loop {
                if top == 0 {
                    return;
                }
                top -= 1;
                if far_lbs[top] <= found.reach() {
                    id = far_ids[top];
                    break;
                }
            }
        }
    }
}

/// Squared distances from `p` to the [`LANE_WIDTH`] centers of one
/// [`ecg_coords::CenterTiles`]-layout tile: coordinate-ascending, one
/// accumulator per lane — the blocked kernel's accumulation, so each
/// value is bit-identical to the scalar `sq_l2` left fold.
#[inline(always)]
fn lane_distances(p: &[f64], tile: &[f64]) -> [f64; LANE_WIDTH] {
    let mut acc = [0.0f64; LANE_WIDTH];
    for (&pv, row) in p.iter().zip(tile.chunks_exact(LANE_WIDTH)) {
        for (a, &cv) in acc.iter_mut().zip(row) {
            let diff = pv - cv;
            *a += diff * diff;
        }
    }
    acc
}

/// What a traversal is looking for: it is offered centers with their
/// exact squared distances and says how far one may lie and still
/// matter. Every implementation orders centers lexicographically on
/// `(d², center index)`, so what it keeps cannot depend on the order
/// the leaves were reached in.
trait Nearest {
    /// Subtrees whose box lower bound *strictly* exceeds this are
    /// skipped; it only ever shrinks.
    fn reach(&self) -> f64;
    fn offer(&mut self, d2: f64, center: u32);
}

/// The lowest-index nearest center and the two smallest distance
/// values — the triple the Hamerly bounds need.
struct TwoNearest {
    best: u32,
    best_d: f64,
    second_d: f64,
}

impl TwoNearest {
    #[inline(always)]
    fn new() -> Self {
        TwoNearest {
            best: 0,
            best_d: f64::INFINITY,
            second_d: f64::INFINITY,
        }
    }

    #[inline(always)]
    fn triple(&self) -> (usize, f64, f64) {
        (self.best as usize, self.best_d, self.second_d)
    }
}

impl Nearest for TwoNearest {
    #[inline(always)]
    fn reach(&self) -> f64 {
        self.second_d
    }

    #[inline(always)]
    fn offer(&mut self, d2: f64, center: u32) {
        if precedes((d2, center), (self.best_d, self.best)) {
            self.second_d = self.best_d;
            self.best_d = d2;
            self.best = center;
        } else if d2 < self.second_d {
            self.second_d = d2;
        }
    }
}

/// Tiles per neighbour table — three, by measurement (module docs).
const NEIGHBOUR_TILES: usize = 3;

/// Centers per [`NeighbourTiles`] table, the center itself included;
/// tables exist only over more centers than this.
pub const NEIGHBOURS: usize = NEIGHBOUR_TILES * LANE_WIDTH;

/// The [`NEIGHBOURS`]` + 1` lexicographically smallest `(d², center)`
/// pairs offered, ascending: a center's table and, last, the nearest
/// center left out of it.
struct NearestSet {
    d2: [f64; NEIGHBOURS + 1],
    center: [u32; NEIGHBOURS + 1],
    len: usize,
}

impl NearestSet {
    fn new() -> Self {
        NearestSet {
            d2: [0.0; NEIGHBOURS + 1],
            center: [0; NEIGHBOURS + 1],
            len: 0,
        }
    }
}

impl Nearest for NearestSet {
    #[inline(always)]
    fn reach(&self) -> f64 {
        if self.len <= NEIGHBOURS {
            f64::INFINITY
        } else {
            self.d2[NEIGHBOURS]
        }
    }

    #[inline(always)]
    fn offer(&mut self, d2: f64, center: u32) {
        let mut slot = self.len;
        if slot > NEIGHBOURS {
            slot = NEIGHBOURS;
            if !precedes((d2, center), (self.d2[slot], self.center[slot])) {
                return;
            }
        } else {
            self.len += 1;
        }
        while slot > 0 && precedes((d2, center), (self.d2[slot - 1], self.center[slot - 1])) {
            self.d2[slot] = self.d2[slot - 1];
            self.center[slot] = self.center[slot - 1];
            slot -= 1;
        }
        self.d2[slot] = d2;
        self.center[slot] = center;
    }
}

/// Lexicographic `(d², center index)` order.
#[inline(always)]
fn precedes(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Relative slack of the [`NeighbourTiles::scan`] acceptance test,
/// far above the rounding of the three square roots and the
/// subtraction it compares (a few 10⁻¹⁶ of the same magnitudes).
const ACCEPT_SLACK: f64 = 1e-9;

/// Per-center neighbour tables for re-scanning a point whose assigned
/// center `a` and exact distance `d_a` are already known: the
/// [`NEIGHBOURS`] centers nearest to `a` (itself included) staged as
/// [`ecg_coords::CenterTiles`]-layout tiles, and `R_a`, the distance
/// from `a` to the nearest center left out.
/// [`scan`](NeighbourTiles::scan) answers the two-nearest query from
/// those tiles alone when the triangle inequality proves no excluded
/// center can matter (module docs), with the triple
/// [`CenterTree::query`] would return.
#[derive(Debug, Clone, Default)]
pub struct NeighbourTiles {
    dim: usize,
    /// Per center, `NEIGHBOUR_TILES` tiles of `dim · LANE_WIDTH` values.
    tiles: Vec<f64>,
    /// Original center index of each table lane, nearest first.
    ids: Vec<u32>,
    /// `R_a` per center.
    reach: Vec<f64>,
}

impl NeighbourTiles {
    /// Builds the tables of `centers` through `tree`, which must have
    /// been built over the same matrix.
    ///
    /// # Panics
    ///
    /// As [`refill`](NeighbourTiles::refill).
    pub fn new(centers: &FeatureMatrix, tree: &CenterTree) -> Self {
        let mut tiles = NeighbourTiles::default();
        tiles.refill(centers, tree);
        tiles
    }

    /// Rebuilds every table after the centers moved and `tree` was
    /// refilled over them, reusing the allocations: one bounded
    /// nearest-set traversal per center. The wall-clock joins
    /// [`take_tree_build_ms`].
    ///
    /// # Panics
    ///
    /// Panics if `tree` holds a different number of centers or another
    /// dimension than `centers`, or if there are too few centers to
    /// leave one out of a table.
    pub fn refill(&mut self, centers: &FeatureMatrix, tree: &CenterTree) {
        let started = Instant::now();
        let (k, dim) = (centers.len(), centers.dim());
        assert!(
            k == tree.centers && dim == tree.dim,
            "tree was built over other centers"
        );
        assert!(k > NEIGHBOURS, "a table needs a center to leave out");
        let tile_len = dim * LANE_WIDTH;
        let table_len = NEIGHBOUR_TILES * tile_len;
        self.dim = dim;
        // Every lane of every table is overwritten below.
        self.tiles.resize(k * table_len, 0.0);
        self.ids.resize(k * NEIGHBOURS, 0);
        self.reach.clear();
        for (a, row) in centers.iter_rows().enumerate() {
            let mut nearest = NearestSet::new();
            tree.descend(row, &mut nearest, |_| {});
            self.reach.push(nearest.d2[NEIGHBOURS].sqrt());
            let table = &mut self.tiles[a * table_len..(a + 1) * table_len];
            let ids = &mut self.ids[a * NEIGHBOURS..(a + 1) * NEIGHBOURS];
            for (slot, (id, &c)) in ids.iter_mut().zip(&nearest.center).enumerate() {
                *id = c;
                let lane = slot / LANE_WIDTH * tile_len + slot % LANE_WIDTH;
                for (d, &v) in centers.row(c as usize).iter().enumerate() {
                    table[lane + d * LANE_WIDTH] = v;
                }
            }
        }
        TREE_BUILD_NS.with(|c| c.set(c.get() + started.elapsed().as_nanos() as u64));
    }

    /// The two-nearest-centers triple of `p` — bit-identical to
    /// [`CenterTree::query`] — from the table of center `a` alone, given
    /// `d_a`, the distance (not squared) from `p` to `a`; `None` when
    /// there is no table for `a` or it cannot prove the answer, and the
    /// caller must ask the tree. Accepts only if
    /// `√second + slack < R_a − d_a`: every center outside the table is
    /// at least `R_a − d_a` from `p`, so strictly farther than the
    /// second-nearest found — it can neither supply one of the two
    /// smallest distances nor tie for the lowest index.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `p` has the wrong dimension.
    #[inline]
    pub fn scan(&self, a: usize, d_a: f64, p: &[f64]) -> Option<(usize, f64, f64)> {
        let reach = *self.reach.get(a)?;
        debug_assert_eq!(p.len(), self.dim);
        let tile_len = self.dim * LANE_WIDTH;
        let table = &self.tiles[a * NEIGHBOUR_TILES * tile_len..][..NEIGHBOUR_TILES * tile_len];
        let ids = &self.ids[a * NEIGHBOURS..][..NEIGHBOURS];
        let mut found = TwoNearest::new();
        for (tile, ids) in table
            .chunks_exact(tile_len)
            .zip(ids.chunks_exact(LANE_WIDTH))
        {
            for (&d2, &center) in lane_distances(p, tile).iter().zip(ids) {
                found.offer(d2, center);
            }
        }
        (found.second_d.sqrt() + ACCEPT_SLACK * (reach + d_a) < reach - d_a).then(|| found.triple())
    }
}

/// Below this many exact scans per center in the previous iteration,
/// rebuilding the neighbour tables costs more than the scans it
/// shortens: ≈ 2 µs per table against ≈ 0.1–0.2 µs saved per scan.
const NEIGHBOUR_MIN_SCANS_PER_CENTER: usize = 16;

/// The nearest-center engine an assignment scan runs on: the flat
/// blocked kernel or the KD-tree. Both arms return
/// bit-identical triples, so callers are free to switch on k.
// One scanner lives on the stack per clustering run and its arms are
// matched on every scan: boxing the tree arm buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum CenterScanner {
    Blocked(BlockedCenters),
    Tree {
        tree: CenterTree,
        /// Tables for [`rescan`](CenterScanner::rescan): built by
        /// [`refresh_neighbours`](CenterScanner::refresh_neighbours),
        /// emptied (no table for any center) whenever `tree` moves on.
        near: NeighbourTiles,
        /// A phase settled under half its scans from `near`: the
        /// centers are not separated enough, never build again.
        near_retired: bool,
    },
}

impl CenterScanner {
    /// Stages `centers` on the KD-tree when `tree`, else on the blocked
    /// kernel.
    pub(crate) fn stage(centers: &FeatureMatrix, tree: bool) -> Self {
        if tree {
            CenterScanner::Tree {
                tree: CenterTree::new(centers),
                near: NeighbourTiles::default(),
                near_retired: false,
            }
        } else {
            CenterScanner::Blocked(BlockedCenters::new(centers))
        }
    }

    /// Re-stages moved centers, reusing the allocation.
    pub(crate) fn refill(&mut self, centers: &FeatureMatrix) {
        match self {
            CenterScanner::Blocked(b) => b.refill(centers),
            CenterScanner::Tree { tree, near, .. } => {
                tree.refill(centers);
                near.reach.clear();
            }
        }
    }

    /// After [`refill`](CenterScanner::refill), decides from what the
    /// previous re-scan phase observed — its exact scans and, if it ran
    /// on neighbour tables, how many of those they settled — whether
    /// the next phase gets tables, and builds them if so. Returns
    /// whether it did. Neither input is a setting: centers that are
    /// not separated (most scans pay for three tiles and then the tree
    /// anyway) retire the tables for the rest of the run, and a phase
    /// with too few exact scans to repay the build goes without.
    pub(crate) fn refresh_neighbours(
        &mut self,
        centers: &FeatureMatrix,
        last_exact_scans: usize,
        last_hits: Option<usize>,
    ) -> bool {
        let CenterScanner::Tree {
            tree,
            near,
            near_retired,
        } = self
        else {
            return false;
        };
        if last_hits.is_some_and(|hits| 2 * hits < last_exact_scans) {
            *near_retired = true;
        }
        let k = tree.centers();
        let build = k > NEIGHBOURS
            && !*near_retired
            && last_exact_scans >= NEIGHBOUR_MIN_SCANS_PER_CENTER * k;
        if build {
            near.refill(centers, tree);
        }
        build
    }

    /// `(best index, best d², second-best d²)` — see
    /// [`BlockedCenters::scan`] / [`CenterTree::query`].
    #[inline]
    pub(crate) fn scan(&self, p: &[f64]) -> (usize, f64, f64) {
        match self {
            CenterScanner::Blocked(b) => b.scan(p),
            CenterScanner::Tree { tree, .. } => tree.query(p),
        }
    }

    /// [`scan`](CenterScanner::scan) for a point whose assigned center
    /// `a` lies at distance `d_a`: the same triple, from the neighbour
    /// tables when they are live and can prove it (`true`), from the
    /// full engine otherwise (`false`).
    #[inline]
    pub(crate) fn rescan(&self, p: &[f64], a: usize, d_a: f64) -> ((usize, f64, f64), bool) {
        if let CenterScanner::Tree { near, .. } = self {
            if let Some(found) = near.scan(a, d_a, p) {
                return (found, true);
            }
        }
        (self.scan(p), false)
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
            let mut found = TwoNearest::new();
            self.descend(p, &mut found, |is_leaf| {
                if is_leaf {
                    leaves += 1;
                } else {
                    internal += 1;
                }
            });
            (found.triple(), internal, leaves)
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
        let features = landmark_features(&mut gen);
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

    /// The `form-100k` feature map: a position in the plane to its
    /// distances from 8 random landmarks.
    fn landmark_features(gen: &mut StdRng) -> impl Fn(f64, f64) -> Vec<f64> {
        let landmarks: Vec<(f64, f64)> = (0..8)
            .map(|_| (gen.gen_range(0.0..100.0), gen.gen_range(0.0..100.0)))
            .collect();
        move |x, y| {
            landmarks
                .iter()
                .map(|&(lx, ly)| ((x - lx) * (x - lx) + (y - ly) * (y - ly)).sqrt())
                .collect()
        }
    }

    /// `count` random positions in the plane under [`landmark_features`].
    fn planar_fixture(gen: &mut StdRng, count: usize) -> FeatureMatrix {
        let features = landmark_features(gen);
        let mut rows = FeatureMatrix::new(8);
        for _ in 0..count {
            rows.push_row(&features(
                gen.gen_range(0.0..100.0),
                gen.gen_range(0.0..100.0),
            ));
        }
        rows
    }

    /// Every table against a brute-force ranking, and every `scan` —
    /// from each point's nearest center and from an arbitrary one —
    /// against the tree and the blocked scan. Returns the accepted
    /// share of the nearest-center scans.
    fn check_neighbour_tiles(points: &FeatureMatrix, centers: &FeatureMatrix, label: &str) -> f64 {
        let k = centers.len();
        let tree = CenterTree::new(centers);
        let blocked = BlockedCenters::new(centers);
        let tables = NeighbourTiles::new(centers, &tree);
        for (a, row) in centers.iter_rows().enumerate() {
            let mut ranked: Vec<(f64, u32)> = (0..k)
                .map(|c| (crate::kmeans::sq_l2(row, centers.row(c)), c as u32))
                .collect();
            ranked.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            let ids: Vec<u32> = ranked[..NEIGHBOURS].iter().map(|r| r.1).collect();
            assert_eq!(
                &tables.ids[a * NEIGHBOURS..][..NEIGHBOURS],
                ids,
                "{label}: table {a}"
            );
            assert_eq!(
                tables.reach[a].to_bits(),
                ranked[NEIGHBOURS].0.sqrt().to_bits(),
                "{label}: reach {a}"
            );
        }
        let mut accepted = 0usize;
        for (i, p) in points.iter_rows().enumerate() {
            let expected = blocked.scan(p);
            assert_eq!(tree.query(p), expected, "{label}: tree, point {i}");
            for (anchor, nearest) in [(expected.0, true), (i % k, false)] {
                let d_a = crate::kmeans::sq_l2(p, centers.row(anchor)).sqrt();
                if let Some((best, best_d, second_d)) = tables.scan(anchor, d_a, p) {
                    assert_eq!(best, expected.0, "{label}: best, point {i}");
                    assert_eq!(best_d.to_bits(), expected.1.to_bits(), "{label}: point {i}");
                    assert_eq!(
                        second_d.to_bits(),
                        expected.2.to_bits(),
                        "{label}: point {i}"
                    );
                    accepted += usize::from(nearest);
                }
            }
        }
        accepted as f64 / points.len() as f64
    }

    #[test]
    fn neighbour_tables_settle_separated_centers_and_decline_the_rest() {
        // Centers on a 2-d manifold in 8-d landmark space, each query a
        // short step off a center: the tables answer nearly all.
        let mut gen = StdRng::seed_from_u64(0x51ED);
        let centers = planar_fixture(&mut gen, 1_000);
        let mut points = FeatureMatrix::new(8);
        for row in centers.iter_rows() {
            let moved: Vec<f64> = row.iter().map(|v| v + gen.gen_range(-1.0..1.0)).collect();
            points.push_row(&moved);
        }
        let share = check_neighbour_tiles(&points, &centers, "planar");
        assert!(share >= 0.9, "planar fixture accepted only {share}");

        // Uniform random centers in 8 dimensions have no such structure:
        // 24 neighbours reach nowhere near the second-nearest center.
        let centers = rand_matrix(&mut gen, 1_000, 8, 50.0);
        let points = rand_matrix(&mut gen, 500, 8, 50.0);
        let share = check_neighbour_tiles(&points, &centers, "uniform 8-d");
        assert!(share < 0.5, "uniform fixture accepted {share}");
    }

    #[test]
    fn neighbour_tables_are_exact_on_ties_duplicates_and_every_shape() {
        let mut gen = StdRng::seed_from_u64(0x7AB1E);
        let grid = [-50.0, -25.0, -0.0, 0.0, 25.0, 50.0];
        for k in [NEIGHBOURS + 1, NEIGHBOURS + 2, 64, 200] {
            for dim in [1usize, 2, 3, 8, 24] {
                let label = format!("k={k} dim={dim}");
                let centers = rand_matrix(&mut gen, k, dim, 50.0);
                check_neighbour_tiles(&rand_matrix(&mut gen, 40, dim, 60.0), &centers, &label);
                check_neighbour_tiles(&boundary_points(&mut gen, &centers, 60.0), &centers, &label);
                // Duplicate and equidistant centers, points on the grid.
                let label = format!("grid k={k} dim={dim}");
                let mut centers = grid_matrix(&mut gen, k, dim, &grid);
                for c in 0..k / 4 {
                    let row: Vec<f64> = (0..dim).map(|_| gen.gen_range(-50.0..50.0)).collect();
                    centers.row_mut(c * 4).copy_from_slice(&row);
                }
                check_neighbour_tiles(&grid_matrix(&mut gen, 30, dim, &grid), &centers, &label);
                check_neighbour_tiles(&rand_matrix(&mut gen, 30, dim, 60.0), &centers, &label);
            }
        }
        // The tie the strict acceptance exists for: 24 centers at 0, and
        // center 0 — lower index, outside their tables — at 12. From
        // x = 6 every center is 6 away, the excluded one exactly
        // `R_a − d_a`, and it wins the tie-break; the table must decline.
        let mut tie = FeatureMatrix::from_rows(&[vec![12.0]]);
        for _ in 0..NEIGHBOURS {
            tie.push_row(&[0.0]);
        }
        let tables = NeighbourTiles::new(&tie, &CenterTree::new(&tie));
        assert_eq!(tables.reach[1], 12.0);
        assert_eq!(tables.scan(1, 6.0, &[6.0]), None);
        assert_eq!(CenterTree::new(&tie).query(&[6.0]), (0, 36.0, 36.0));
        assert_eq!(tables.scan(1, 5.0, &[5.0]), Some((1, 25.0, 25.0)));
        check_neighbour_tiles(&FeatureMatrix::from_rows(&[vec![6.0]]), &tie, "tie");

        // All centers in one place: every reach is zero, nothing is
        // ever accepted, nothing goes wrong.
        let mut same = FeatureMatrix::new(2);
        for _ in 0..40 {
            same.push_row(&[3.0, -1.0]);
        }
        let share = check_neighbour_tiles(&rand_matrix(&mut gen, 10, 2, 9.0), &same, "one place");
        assert_eq!(share, 0.0);
    }

    #[test]
    #[should_panic(expected = "a center to leave out")]
    fn neighbour_tables_need_more_centers_than_a_table_holds() {
        let centers = rand_matrix(&mut StdRng::seed_from_u64(1), NEIGHBOURS, 2, 5.0);
        let _ = NeighbourTiles::new(&centers, &CenterTree::new(&centers));
    }

    #[test]
    fn scanner_builds_tables_only_while_they_pay() {
        let mut gen = StdRng::seed_from_u64(0x6A7E);
        let centers = planar_fixture(&mut gen, 100);
        let floor = NEIGHBOUR_MIN_SCANS_PER_CENTER * 100;
        let mut scanner = CenterScanner::stage(&centers, true);
        let p = centers.row(3).to_vec();
        // No tables before the first refresh, nor on too few scans.
        assert!(!scanner.rescan(&p, 3, 0.0).1);
        assert!(!scanner.refresh_neighbours(&centers, floor - 1, None));
        assert!(!scanner.rescan(&p, 3, 0.0).1);
        // Enough scans: built, and a point on its own center is settled.
        assert!(scanner.refresh_neighbours(&centers, floor, None));
        assert_eq!(scanner.rescan(&p, 3, 0.0), (scanner.scan(&p), true));
        // Moving the centers on drops the stale tables.
        scanner.refill(&centers);
        assert!(!scanner.rescan(&p, 3, 0.0).1);
        // Half the scans settled keeps them; under half retires them
        // for good, however many scans follow.
        assert!(scanner.refresh_neighbours(&centers, floor, Some(floor / 2)));
        assert!(!scanner.refresh_neighbours(&centers, floor, Some(floor / 2 - 1)));
        assert!(!scanner.refresh_neighbours(&centers, 100 * floor, None));
        // The blocked engine and a k no larger than one table: never.
        let mut blocked = CenterScanner::stage(&centers, false);
        assert!(!blocked.refresh_neighbours(&centers, floor, None));
        let few = planar_fixture(&mut gen, NEIGHBOURS);
        let mut small = CenterScanner::stage(&few, true);
        assert!(!small.refresh_neighbours(&few, 1_000_000, None));
    }

    #[test]
    fn scanner_arms_agree_and_build_time_accumulates() {
        let mut gen = StdRng::seed_from_u64(0xABC);
        let centers = rand_matrix(&mut gen, 129, 6, 40.0);
        let points = rand_matrix(&mut gen, 60, 6, 60.0);
        let _ = take_tree_build_ms();
        let tree = CenterScanner::stage(&centers, true);
        let blocked = CenterScanner::stage(&centers, false);
        for p in points.iter_rows() {
            assert_eq!(tree.scan(p), blocked.scan(p));
        }
        // A tree build happened above; the drain sees it once.
        assert!(take_tree_build_ms() >= 0.0);
        assert_eq!(take_tree_build_ms(), 0.0);
    }
}
