//! Residual Dimension Gathering (§III-B): the Matrix Chain Multiplication
//! `U · X · V` on simulated tensor-core fragments.
//!
//! For one rank-1 term `C = u ⊗ vᵀ` and an input tile `X` of side `S`
//! (`S ≥ m + 2h`, multiple of 8), the `m×m = 8×8` output tile is
//!
//! * **Step 1 (vertical gather)**: `T = U · X`, with `U` the 8×S banded
//!   expansion of `u` (Eq. 10). `S/4 × S/8` MMA operations.
//! * **Step 2 (horizontal gather)**: `R = T · V`, with `V` the S×8 banded
//!   expansion of `v` (Eq. 11). `T` is re-used as a left operand through
//!   Butterfly Vector Swapping (§III-D): the accumulator's even/odd column
//!   sets are reinterpreted as A fragments with zero cross-lane shuffles
//!   while the matching rows of `V` are permuted identically (Eq. 17).
//!   `S/4` MMA operations.
//!
//! For `h = 3` (`S = 16`) this is the paper's 8 + 4 = 12 MMA example.

use crate::decompose::RankOneTerm;
use stencil_core::WeightMatrix;
use tcu_sim::{
    FragA, FragASp, FragAcc, FragB, PerfCounters, SharedTile, SimContext, MMA_K, MMA_M, MMA_N,
};

/// Output tile side processed by one warp (`m`).
pub const TILE_M: usize = 8;

/// Geometry of one RDG tile computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdgGeometry {
    /// Kernel radius `h` of the full (possibly fused) kernel.
    pub h: usize,
    /// Padded input tile side `S` (multiple of 8, ≥ `m + 2h`).
    pub s: usize,
}

impl RdgGeometry {
    /// Geometry for a kernel of radius `h`.
    pub fn for_radius(h: usize) -> Self {
        let need = TILE_M + 2 * h;
        let s = need.div_ceil(8) * 8;
        RdgGeometry { h, s: s.max(16) }
    }

    /// Number of 4-row blocks of the input tile (`S/4`).
    pub fn row_blocks(&self) -> usize {
        self.s / MMA_K
    }

    /// Number of 8-column blocks of the input tile (`S/8`).
    pub fn col_blocks(&self) -> usize {
        self.s / MMA_N
    }

    /// MMA instructions one rank-1 term costs on this geometry
    /// (step 1 + step 2).
    pub fn mma_per_term(&self) -> u64 {
        (self.row_blocks() * self.col_blocks() + self.row_blocks()) as u64
    }

    /// Shared-memory bytes of the input tile.
    pub fn tile_bytes(&self) -> u32 {
        (self.s * self.s * std::mem::size_of::<f64>()) as u32
    }
}

/// The input tile's B fragments, loaded once per tile and re-used by every
/// rank-1 term of the decomposition (the fragment-reuse property §III-C
/// relies on: "the input matrix utilized for each RDG in PMA remains
/// constant").
#[derive(Debug, Clone)]
pub struct XFragments {
    geo: RdgGeometry,
    /// Row-major `frags[row_block * col_blocks + col_block]`, each 4×8.
    /// Flat so [`XFragments::load_into`] can reuse one allocation across
    /// tiles.
    frags: Vec<FragB>,
}

impl XFragments {
    /// An empty fragment set to be filled by [`XFragments::load_into`]
    /// (per-worker scratch).
    pub fn empty(geo: RdgGeometry) -> Self {
        XFragments { geo, frags: Vec::new() }
    }

    /// Load all `S/4 × S/8` fragments of the tile (charging one shared
    /// load request each — the quantity Eq. 12 counts).
    pub fn load(ctx: &mut SimContext, tile: &SharedTile, geo: RdgGeometry) -> Self {
        let mut x = XFragments::empty(geo);
        x.load_into(ctx, tile, geo);
        x
    }

    /// Allocation-reusing [`XFragments::load`]: refill `self` from a new
    /// tile, keeping the fragment buffer's capacity. Counter accounting
    /// is identical.
    pub fn load_into(&mut self, ctx: &mut SimContext, tile: &SharedTile, geo: RdgGeometry) {
        self.load_into_at(ctx, tile, geo, 0, 0);
    }

    /// [`XFragments::load_into`] from a sub-window of a larger staged
    /// tile: the fragments cover the S×S window whose top-left corner is
    /// `(r_off, c_off)` inside `tile`. Macro-tiled schedules stage one
    /// large window and rebuild fragments per 8×8 sub-tile through this.
    #[inline(always)]
    pub fn load_into_at(
        &mut self,
        ctx: &mut SimContext,
        tile: &SharedTile,
        geo: RdgGeometry,
        r_off: usize,
        c_off: usize,
    ) {
        self.geo = geo;
        self.frags.clear();
        self.frags.reserve(geo.row_blocks() * geo.col_blocks());
        for rb in 0..geo.row_blocks() {
            for cb in 0..geo.col_blocks() {
                self.frags.push(tile.load_frag_b(
                    ctx,
                    (r_off + rb * MMA_K) as isize,
                    (c_off + cb * MMA_N) as isize,
                ));
            }
        }
    }

    /// Tile geometry.
    pub fn geometry(&self) -> RdgGeometry {
        self.geo
    }

    /// Fragment for `(row_block, col_block)`.
    #[inline]
    pub fn frag(&self, rb: usize, cb: usize) -> &FragB {
        &self.frags[rb * self.geo.col_blocks() + cb]
    }

    /// Element `(r, c)` of the underlying tile, reconstructed from the
    /// owning fragment (register re-use; charges nothing).
    #[inline]
    pub fn peek(&self, r: usize, c: usize) -> f64 {
        self.frag(r / MMA_K, c / MMA_N).get(r % MMA_K, c % MMA_N)
    }
}

/// Build the banded `U` weight fragments for a term (Eq. 10): `S/4`
/// A-fragments, fragment `k` covering `U` columns `4k..4k+4`.
///
/// `U[i][j] = u[t]` iff `j = i + (h − h_t) + t`; the `h − h_t` band shift
/// centers pyramid terms smaller than the kernel. Weights live in
/// registers/constant memory on real hardware, so no loads are charged.
pub fn build_u_frags(term: &RankOneTerm, geo: RdgGeometry) -> Vec<FragA> {
    let shift = geo.h - term.radius();
    let mut frags = vec![FragA::zero(); geo.row_blocks()];
    for i in 0..MMA_M {
        for (t, &w) in term.u.iter().enumerate() {
            let j = i + shift + t;
            debug_assert!(j < geo.s);
            frags[j / MMA_K].set(i, j % MMA_K, w);
        }
    }
    frags
}

/// Build the banded `V` weight fragments for a term (Eq. 11), pre-permuted
/// for the chosen step-2 accumulator split: `S/4` B-fragments, fragment
/// `2j + half` matching the A fragment extracted from accumulator tile `j`
/// with column set `cols[half]`.
///
/// `V[r][q] = v[t]` iff `r = q + (h − h_t) + t`. With BVS the rows are
/// butterfly-permuted (`{0,2,4,6}` / `{1,3,5,7}` within each 8-row block),
/// compensating the shuffle-free accumulator reinterpretation (Eq. 17);
/// without BVS the natural `{0..4}` / `{4..8}` split is used.
pub fn build_v_frags(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Vec<FragB> {
    let _bvs = foundation::obs::span("bvs_build");
    let shift = geo.h - term.radius();
    // dense V first
    let mut v_dense = vec![[0.0f64; MMA_N]; geo.s];
    for q in 0..MMA_N {
        for (t, &w) in term.v.iter().enumerate() {
            let r = q + shift + t;
            debug_assert!(r < geo.s);
            v_dense[r][q] = w;
        }
    }
    let col_sets = if use_bvs { FragAcc::BUTTERFLY_COLS } else { FragAcc::NATURAL_COLS };
    let mut frags = Vec::with_capacity(geo.row_blocks());
    for j in 0..geo.col_blocks() {
        for cols in col_sets {
            let mut f = FragB::zero();
            for (k, &c) in cols.iter().enumerate() {
                let r = j * MMA_N + c;
                for q in 0..MMA_N {
                    f.set(k, q, v_dense[r][q]);
                }
            }
            frags.push(f);
        }
    }
    frags
}

/// Column sets used to split step-1 accumulators into step-2 A fragments.
fn split_cols(use_bvs: bool) -> [[usize; MMA_K]; 2] {
    if use_bvs {
        FragAcc::BUTTERFLY_COLS
    } else {
        FragAcc::NATURAL_COLS
    }
}

/// Largest tile side `S` the strip evaluator handles (radius ≤ 12).
/// Larger geometries run every term on the fragment path.
pub const BAND_MAX_S: usize = 32;

/// Most taps a term has on a [`BAND_MAX_S`] geometry (`2h + 1`).
const BAND_MAX_TAPS: usize = BAND_MAX_S - TILE_M + 1;

/// Largest `Σ|u| · max|X|` for which the strip evaluator runs a term.
/// Below it no step-1 partial sum can overflow, so every `T` element is
/// finite and each `T · 0` product step 2 adds is a signed zero.
const BAND_T_LIMIT: f64 = f64::MAX / 4.0;

/// One term's plan-time tables for [`rdg_apply_term_strip`]. Fixed-size
/// arrays, so building a schedule allocates nothing extra for them.
#[derive(Debug, Clone)]
struct BandTable {
    /// Band offset of the term inside the kernel's tile (`h − h_t`).
    shift: usize,
    /// Tap count `n_t`.
    taps: usize,
    /// `u`, zero-padded.
    u: [f64; BAND_MAX_TAPS],
    /// `Σ|u[t]|`: `|T| ≤ Σ|u| · max|X|` (the overflow guard).
    u_abs: f64,
    /// `v` reversed between seven zeros on each side:
    /// `vpad[7 + j] = v[n_t − 1 − j]`. Any eight consecutive entries are
    /// one row of the banded `V`, zero-padded to the eight output columns.
    vpad: [f64; BAND_MAX_TAPS + 2 * (MMA_N - 1)],
    /// Step 2's walk, in the MMA order `(col block j, split half, k)`:
    /// each window column `c` whose banded `V` row is nonzero, with the
    /// offset of that row in `vpad`, `[c, o]`: `V[c][q] = vpad[o + q]`.
    steps: [[u8; 2]; BAND_MAX_S],
    /// Used prefix of `steps`.
    n_steps: usize,
}

impl BandTable {
    /// The tables for `term`, or `None` when `S > BAND_MAX_S`. The step-2
    /// order walks the same `cols` split [`build_v_frags`] permutes `V` by.
    fn build(term: &RankOneTerm, geo: RdgGeometry, split: [[usize; MMA_K]; 2]) -> Option<Self> {
        if geo.s > BAND_MAX_S {
            return None;
        }
        let shift = geo.h - term.radius();
        let taps = term.u.len();
        let mut u = [0.0; BAND_MAX_TAPS];
        u[..taps].copy_from_slice(&term.u);
        let mut vpad = [0.0; BAND_MAX_TAPS + 2 * (MMA_N - 1)];
        for (j, &w) in term.v.iter().rev().enumerate() {
            vpad[MMA_N - 1 + j] = w;
        }
        let mut steps = [[0u8; 2]; BAND_MAX_S];
        let mut n_steps = 0;
        for j in 0..geo.col_blocks() {
            for half in split {
                for k in half {
                    // V[c][q] = v[c − shift − q] for q in
                    // [c − shift − (n_t − 1), c − shift] ∩ [0, 8)
                    let c = j * MMA_N + k;
                    let Some(top) = c.checked_sub(shift) else { continue };
                    let lo = top.saturating_sub(taps - 1);
                    if lo < MMA_N {
                        // V[c][q] = v[top − q] = vpad[MMA_N − 2 + n_t − top + q]
                        steps[n_steps] = [c as u8, (MMA_N - 2 + taps - top) as u8];
                        n_steps += 1;
                    }
                }
            }
        }
        Some(BandTable {
            shift,
            taps,
            u,
            u_abs: term.u.iter().map(|w| w.abs()).sum(),
            vpad,
            steps,
            n_steps,
        })
    }
}

/// The staged S×S window as the scalar evaluator reads it: transposed,
/// so `xt[c·S + r] = X[r][c]` and 8 consecutive rows of one column are
/// one contiguous 8-lane vector. Lives in the per-worker scratch: a
/// scalar `FragBuild` stages the window here in place of building
/// fragments. Its buffers grow to the largest `S` the worker has seen
/// and stay warm; nothing in them is re-zeroed.
#[derive(Debug, Clone)]
pub struct BandWindow {
    geo: RdgGeometry,
    xt: Vec<f64>,
    /// The scalar evaluator's step-1 `T` columns, 8 rows each.
    t: Vec<[f64; MMA_M]>,
}

impl BandWindow {
    /// An empty window sized for `S ≤ BAND_MAX_S`, filled by
    /// [`BandWindow::load_at`].
    pub fn new() -> Self {
        BandWindow {
            geo: RdgGeometry::for_radius(1),
            xt: vec![0.0; BAND_MAX_S * BAND_MAX_S],
            t: vec![[0.0; MMA_M]; BAND_MAX_S],
        }
    }

    /// [`XFragments::load_into_at`] in band form: stage the S×S window at
    /// `(r_off, c_off)` of `tile` transposed, charging the same `S/4 × S/8`
    /// fragment loads. The buffers grow on the first window wider than
    /// any before.
    #[inline(always)]
    pub fn load_at(
        &mut self,
        ctx: &mut SimContext,
        tile: &SharedTile,
        geo: RdgGeometry,
        r_off: usize,
        c_off: usize,
    ) {
        let s = geo.s;
        if self.xt.len() < s * s {
            self.xt.resize(s * s, 0.0);
            self.t.resize(s, [0.0; MMA_M]);
        }
        self.geo = geo;
        tile.load_window_transposed(ctx, r_off as isize, c_off as isize, s, &mut self.xt[..s * s]);
    }
}

impl Default for BandWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// One 8-row strip of a job row, staged for the tensor-core strip
/// evaluator: the union of the strip's `n` sub-tile S×S windows, `S`
/// rows by `8·(n−1) + S` columns, row-major and untransposed. Sub-tile
/// `j`'s window is columns `8j .. 8j + S`. Lives in the per-worker
/// scratch and grows to the widest strip the worker has seen.
#[derive(Debug, Clone)]
pub struct StripWindow {
    geo: RdgGeometry,
    /// Sub-tiles across the strip.
    n: usize,
    x: Vec<f64>,
    /// Largest `|X|` in the window; NaN or `+inf` when it holds a
    /// non-finite value.
    max_abs: f64,
}

impl StripWindow {
    /// An empty window; [`StripWindow::rows_mut`] shapes it.
    pub fn new() -> Self {
        StripWindow { geo: RdgGeometry::for_radius(1), n: 0, x: Vec::new(), max_abs: 0.0 }
    }

    /// Columns of a strip of `n` sub-tiles on `geo`: `8·(n−1) + S`.
    pub fn width_for(geo: RdgGeometry, n: usize) -> usize {
        TILE_M * (n - 1) + geo.s
    }

    /// Columns of the staged strip.
    pub fn width(&self) -> usize {
        Self::width_for(self.geo, self.n)
    }

    /// Shape the window for `n` sub-tiles on `geo` and hand out its
    /// `S × width` row-major buffer to fill; [`StripWindow::seal`] must
    /// follow. The buffer grows on the first strip wider than any before.
    #[inline(always)]
    pub fn rows_mut(&mut self, geo: RdgGeometry, n: usize) -> &mut [f64] {
        self.geo = geo;
        self.n = n;
        let len = geo.s * self.width();
        if self.x.len() < len {
            self.x.resize(len, 0.0);
        }
        &mut self.x[..len]
    }

    /// Finish staging: scan the whole window, padding rows and columns
    /// included, for the largest magnitude.
    #[inline(always)]
    pub fn seal(&mut self) {
        let len = self.geo.s * self.width();
        // NaN bit patterns sort above +inf's, so the maximum is finite
        // exactly when every value is
        let max_bits = self.x[..len].iter().fold(0u64, |m, v| m.max(v.to_bits() & !(1 << 63)));
        self.max_abs = f64::from_bits(max_bits);
    }

    /// Whether every value of the window is finite. The fragment chain
    /// multiplies every window element, padding included, by a weight
    /// that may be zero, and `0 · inf` is NaN; the strip evaluator skips
    /// those products, so it reproduces the chain only on finite windows.
    #[inline(always)]
    pub fn finite(&self) -> bool {
        self.max_abs.is_finite()
    }

    /// Whether [`rdg_apply_term_strip`] may evaluate `tf` on this window:
    /// the term has band tables and no `T` element can overflow.
    #[inline(always)]
    pub fn admits(&self, tf: &TermFrags) -> bool {
        tf.band.as_ref().is_some_and(|bt| bt.u_abs * self.max_abs <= BAND_T_LIMIT)
    }
}

impl Default for StripWindow {
    fn default() -> Self {
        Self::new()
    }
}

/// One rank-1 term's weight fragments, prebuilt once per plan: they
/// depend only on `(term, geometry, use_bvs)`, never on the input tile,
/// so the executors hoist them out of the per-tile loop (on real
/// hardware they live in registers/constant memory for the whole grid).
#[derive(Debug, Clone)]
pub struct TermFrags {
    /// Banded `U` A-fragments (Eq. 10).
    u: Vec<FragA>,
    /// 2:4-compressed forms of the `U` fragments; `Some` only when the
    /// sparse lowering proved **every** fragment of the term satisfies
    /// the 2:4 pattern (see [`TermFrags::build_sparse`]).
    u_sp: Option<Vec<FragASp>>,
    /// Banded, split-permuted `V` B-fragments (Eq. 11 / Eq. 17).
    v: Vec<FragB>,
    /// Accumulator column split matching `v`'s permutation.
    cols: [[usize; MMA_K]; 2],
    /// Shuffles the term's `2 · S/8` accumulator splits charge.
    shuffles: u64,
    /// The strip evaluator's tables; `None` when `S > BAND_MAX_S`.
    band: Option<BandTable>,
}

impl TermFrags {
    /// Build the fragments for one term on the given geometry.
    pub fn build(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Self {
        let cols = split_cols(use_bvs);
        TermFrags {
            u: build_u_frags(term, geo),
            u_sp: None,
            v: build_v_frags(term, geo, use_bvs),
            cols,
            shuffles: cols.iter().map(|&c| FragAcc::zero().extract_a(c).1).sum::<u64>()
                * geo.col_blocks() as u64,
            band: BandTable::build(term, geo, cols),
        }
    }

    /// [`TermFrags::build`] with the 2:4 compression attempted for the
    /// SparseTcu backend. The fallback policy is **per term**: `u_sp` is
    /// populated only when every `U` fragment passes the validator
    /// ([`tcu_sim::FragASp::compress`]); one incompressible fragment
    /// sends the whole term down the dense path, so a term executes
    /// either fully sparse or fully dense — never mixed — and the
    /// counter model stays closed-form.
    pub fn build_sparse(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Self {
        let mut tf = TermFrags::build(term, geo, use_bvs);
        tf.u_sp = tf.u.iter().map(FragASp::compress).collect();
        tf
    }

    /// Whether this term lowered to the sparse path (all `U` fragments
    /// 2:4-compressed).
    pub fn is_sparse(&self) -> bool {
        self.u_sp.is_some()
    }

    /// Build the fragments for every term of a decomposition.
    pub fn build_all(terms: &[RankOneTerm], geo: RdgGeometry, use_bvs: bool) -> Vec<TermFrags> {
        terms.iter().map(|t| TermFrags::build(t, geo, use_bvs)).collect()
    }

    /// Whether the term has band tables (`S ≤ BAND_MAX_S`).
    pub fn has_band(&self) -> bool {
        self.band.is_some()
    }

    /// Charge the counters this term's chain costs one sub-tile on the
    /// modeled device, from their closed forms: `mma_per_term()` dense
    /// MMAs, or for a 2:4-compressed term `rb·cb` sparse MMAs, `rb`
    /// metadata loads and `2·cb` dense step-2 MMAs; plus the shuffles the
    /// accumulator splits cost. These are exactly the charges of
    /// [`rdg_apply_term_frags_into`] and [`rdg_apply_term_sparse_into`].
    #[inline(always)]
    pub fn charge(&self, geo: RdgGeometry, counters: &mut PerfCounters) {
        let (rb, cb) = (geo.row_blocks() as u64, geo.col_blocks() as u64);
        if self.u_sp.is_some() {
            counters.metadata_loads += rb;
            counters.mma_sp_ops += rb * cb;
            counters.mma_ops += 2 * cb;
        } else {
            counters.mma_ops += geo.mma_per_term();
        }
        counters.shuffle_ops += self.shuffles;
    }

    /// Drop the band tables, sending the term down the fragment path (the
    /// band-vs-fragment differential tests force it this way, through
    /// `Schedule::drop_band_tables`).
    #[cfg(test)]
    pub(crate) fn drop_band(&mut self) {
        self.band = None;
    }
}

/// Whether a rank-1 term is 2:4-compressible on this geometry — the
/// same decision [`TermFrags::build_sparse`] makes, exported so the
/// counter-exactness model predicts per-term sparse/dense splits from
/// first principles. Banded `U` rows carry `term.u`'s nonzero pattern,
/// so taps ≥ 3 without interior zeros always fail (some row has three
/// nonzeros inside one aligned 4-column window) while 1–2-tap terms and
/// star-like terms with interior zeros compress.
pub fn term_is_sparse(term: &RankOneTerm, geo: RdgGeometry) -> bool {
    build_u_frags(term, geo).iter().all(|f| FragASp::compress(f).is_some())
}

/// Apply one rank-1 term to a loaded input tile, accumulating into `acc`
/// (the 8×8 output accumulator). Returns the new accumulator.
///
/// This is the full RDG Matrix Chain Multiplication on tensor cores:
/// `acc += U · X · V`. Convenience form of [`rdg_apply_term_frags`] that
/// builds the weight fragments on the spot.
pub fn rdg_apply_term(
    ctx: &mut SimContext,
    x: &XFragments,
    term: &RankOneTerm,
    use_bvs: bool,
    acc: FragAcc,
) -> FragAcc {
    rdg_apply_term_frags(ctx, x, &TermFrags::build(term, x.geo, use_bvs), acc)
}

/// Apply one rank-1 term given prebuilt weight fragments (the hot-loop
/// form: no allocation, weight fragments shared across all tiles).
pub fn rdg_apply_term_frags(
    ctx: &mut SimContext,
    x: &XFragments,
    tf: &TermFrags,
    acc: FragAcc,
) -> FragAcc {
    let mut out = acc;
    rdg_apply_term_frags_into(ctx, x, tf, &mut out, 1);
    out
}

/// Largest MMA-chain batch [`rdg_apply_term_frags_into`] accepts (enough
/// for any radius ≤ 16 kernel: `S/4 ≤ 10` step-1 fragments per column
/// block).
pub const MAX_MMA_BATCH: usize = 16;

/// In-place, batch-parameterized [`rdg_apply_term_frags`]: accumulate one
/// rank-1 term directly into `out`, issuing the step-1 `U · X` MMAs in
/// register-resident chains of up to `batch` instructions
/// ([`SimContext::mma_chain_into`]). `batch ≤ 1` issues them one at a
/// time, exactly as [`rdg_apply_term_frags`] always has; any batch is
/// bit-identical and charges the same counters — only the host-side
/// accumulator traffic changes. The step-2 MMAs cannot chain across
/// column blocks (each consumes a freshly extracted A fragment).
#[inline(always)]
pub fn rdg_apply_term_frags_into(
    ctx: &mut SimContext,
    x: &XFragments,
    tf: &TermFrags,
    out: &mut FragAcc,
    batch: usize,
) {
    let geo = x.geo;
    let batch = batch.min(MAX_MMA_BATCH);
    // Step 1: T = U · X, one accumulator tile per 8-column block.
    for j in 0..geo.col_blocks() {
        let mut t_acc = FragAcc::zero();
        if batch <= 1 {
            for (k, u_frag) in tf.u.iter().enumerate() {
                ctx.mma_into(u_frag, x.frag(k, j), &mut t_acc);
            }
        } else {
            let rb = geo.row_blocks();
            let mut k = 0;
            while k < rb {
                let end = (k + batch).min(rb);
                let n = end - k;
                let mut a_refs: [&FragA; MAX_MMA_BATCH] = [&tf.u[0]; MAX_MMA_BATCH];
                let mut b_refs: [&FragB; MAX_MMA_BATCH] = [x.frag(0, j); MAX_MMA_BATCH];
                for (i, kk) in (k..end).enumerate() {
                    a_refs[i] = &tf.u[kk];
                    b_refs[i] = x.frag(kk, j);
                }
                ctx.mma_chain_into(&a_refs[..n], &b_refs[..n], &mut t_acc);
                k = end;
            }
        }
        // Step 2: out += T_j · V_j, splitting the accumulator into two A
        // fragments (shuffle-free under BVS).
        for (half, &col_set) in tf.cols.iter().enumerate() {
            let a = ctx.acc_to_a(&t_acc, col_set);
            ctx.mma_into(&a, &tf.v[2 * j + half], out);
        }
    }
}

/// SparseTcu form of [`rdg_apply_term_frags_into`]: step-1 `U · X`
/// issues as structured-sparse `mma.sp` instructions against the
/// compressed fragments (charging `mma_sp_ops`), after one metadata
/// load per `U` fragment (`metadata_loads += S/4`, amortized across the
/// column blocks that reuse the fragment). Step 2 is unchanged — its A
/// operands are freshly extracted accumulators, data-dependent and
/// dense. Falls back to the dense path verbatim when the term did not
/// compress ([`TermFrags::is_sparse`] false).
///
/// Results are bit-identical to the dense path: the pruned step-1
/// products are signed zeros and the surviving ones accumulate in the
/// same increasing-K order (see [`SimContext::mma_sp_into`]).
#[inline(always)]
pub fn rdg_apply_term_sparse_into(
    ctx: &mut SimContext,
    x: &XFragments,
    tf: &TermFrags,
    out: &mut FragAcc,
    batch: usize,
) {
    let Some(u_sp) = &tf.u_sp else {
        rdg_apply_term_frags_into(ctx, x, tf, out, batch);
        return;
    };
    let geo = x.geo;
    ctx.metadata_loads(geo.row_blocks() as u64);
    for j in 0..geo.col_blocks() {
        // sparse MMAs issue one at a time: the metadata registers are
        // single-buffered, so `mma.sp` chains are not modeled (results
        // are bit-identical to any chaining anyway)
        let mut t_acc = FragAcc::zero();
        for (k, u_frag) in u_sp.iter().enumerate() {
            ctx.mma_sp_into(u_frag, x.frag(k, j), &mut t_acc);
        }
        for (half, &col_set) in tf.cols.iter().enumerate() {
            let a = ctx.acc_to_a(&t_acc, col_set);
            ctx.mma_into(&a, &tf.v[2 * j + half], out);
        }
    }
}

/// Strip form of [`rdg_apply_term_frags_into`] and
/// [`rdg_apply_term_sparse_into`]: the same `acc += U·X·V` for every
/// sub-tile of a staged strip, with the structural zeros of the banded
/// `U` skipped on the host and step 1 shared by neighboring sub-tiles.
/// `w` must be [finite](StripWindow::finite) and [admit](StripWindow::admits)
/// `tf`. `acc` is the strip's accumulator, 8 rows of `8·n` columns,
/// row-major; `t` is scratch of at least `8 × w.width()`. Charges
/// nothing: the caller charges [`TermFrags::charge`] per sub-tile.
///
/// * Step 1, once per strip: `T[p][x] = Σ_i u[i]·W[p+shift+i][x]`,
///   seeded at `+0.0`, taps in increasing `i`, one contiguous AXPY per
///   `(p, i)` across the strip: the fragment chain's k-loop minus its
///   zero products. Sub-tile `j`'s column `c` is `x = 8j + c`.
/// * Step 2, per sub-tile, in eight row accumulators: for each `c` in the
///   chain's MMA order `(col block, split half, k)`,
///   `acc[p][8j+q] += T[p][8j+c]·V[c][q]` for all eight `q`, the banded
///   `V` row zero-padded.
///
/// Every product the fragment chain forms and this skips is `0·x` for a
/// finite `x`, a signed zero; so is every `T·0` step 2 adds for a `q`
/// outside the band, since the admission check keeps `T` finite. A
/// `+0.0`-seeded round-to-nearest sum never reaches `-0.0`, so adding a
/// signed zero is the identity: each output element runs the fragment
/// chain's exact operation sequence plus and minus identities, and the
/// bits match.
#[inline(always)]
pub fn rdg_apply_term_strip(w: &StripWindow, tf: &TermFrags, t: &mut [f64], acc: &mut [f64]) {
    let bt = tf.band.as_ref().expect("StripWindow::admits checked the band tables");
    let (n, width) = (w.n, w.width());
    let aw = TILE_M * n;
    // step 1 over the columns some sub-tile's step 2 reads:
    // x in [shift, shift + 8n + n_t − 1)
    let (lo, len) = (bt.shift, aw + bt.taps - 1);
    for p in 0..MMA_M {
        let tp = &mut t[p * width + lo..][..len];
        tp.fill(0.0);
        for (i, &ui) in bt.u[..bt.taps].iter().enumerate() {
            let xr = &w.x[(p + bt.shift + i) * width + lo..][..len];
            for (a, &x) in tp.iter_mut().zip(xr) {
                *a += ui * x;
            }
        }
    }
    // step 2: one sub-tile at a time, its 8×8 block held in registers

    for j in 0..n {
        let x0 = TILE_M * j;
        let mut blk = [[0.0f64; MMA_N]; MMA_M];
        for (p, row) in blk.iter_mut().enumerate() {
            row.copy_from_slice(&acc[p * aw + x0..][..MMA_N]);
        }
        for &[c, o] in &bt.steps[..bt.n_steps] {
            let x = x0 + usize::from(c);
            let vr: &[f64; MMA_N] = bt.vpad[usize::from(o)..][..MMA_N].try_into().expect("8 lanes");
            for (p, row) in blk.iter_mut().enumerate() {
                let tv = t[p * width + x];
                for (a, &v) in row.iter_mut().zip(vr) {
                    *a += tv * v;
                }
            }
        }
        for (p, row) in blk.iter().enumerate() {
            acc[p * aw + x0..][..MMA_N].copy_from_slice(row);
        }
    }
}

/// Strip form of [`apply_pointwise`]: the same `acc + pw·X[h+p][h+q]` per
/// element, one row of the strip at a time. `acc` is laid out as for
/// [`rdg_apply_term_strip`]. Charges nothing (`2·64` CUDA-core FLOPs per
/// sub-tile on the modeled device when `pw ≠ 0`).
#[inline(always)]
pub fn apply_pointwise_strip(w: &StripWindow, pw: f64, acc: &mut [f64]) {
    if pw == 0.0 {
        return;
    }
    let (h, width, aw) = (w.geo.h, w.width(), TILE_M * w.n);
    for p in 0..MMA_M {
        let xr = &w.x[(h + p) * width + h..][..aw];
        for (a, &x) in acc[p * aw..][..aw].iter_mut().zip(xr) {
            *a += pw * x;
        }
    }
}

/// [`apply_pointwise`] on a [`BandWindow`] and a transposed accumulator
/// (the scalar backends' tip): the same `acc + pw·X[h+p][h+q]` per
/// element, eight rows at a time.
#[inline(always)]
pub fn apply_pointwise_band(
    ctx: &mut SimContext,
    w: &BandWindow,
    pw: f64,
    acc: &mut [[f64; MMA_M]; MMA_N],
) {
    if pw == 0.0 {
        return;
    }
    let (h, s) = (w.geo.h, w.geo.s);
    for (q, col) in acc.iter_mut().enumerate() {
        let base = (h + q) * s + h;
        for (a, &x) in col.iter_mut().zip(&w.xt[base..base + MMA_M]) {
            *a += pw * x;
        }
    }
    ctx.cuda_flops(2 * (MMA_M * MMA_N) as u64);
}

/// Apply the pointwise pyramid tip: `acc[r][q] += pw · X[h+r][h+q]`,
/// executed on CUDA cores (the 1×1 term needs no matrix multiply,
/// §III-C); input values are register re-uses of already-loaded fragments.
#[inline(always)]
pub fn apply_pointwise(ctx: &mut SimContext, x: &XFragments, pw: f64, acc: &mut FragAcc) {
    if pw == 0.0 {
        return;
    }
    let h = x.geo.h;
    for r in 0..MMA_M {
        for q in 0..MMA_N {
            let v = acc.get(r, q) + pw * x.peek(h + r, h + q);
            acc.set(r, q, v);
        }
    }
    ctx.cuda_flops(2 * (MMA_M * MMA_N) as u64);
}

/// Issue-overhead multiplier for the scalar CUDA-core RDG path: like all
/// scalar stencil loops, address arithmetic and loop control issue
/// alongside each FMA, holding sustained throughput to ~7 % of FP64
/// peak (same modeling as the CUDA-core baselines).
pub const CUDA_RDG_ISSUE_OVERHEAD: u64 = 14;

/// Issue-overhead multiplier for the tuned host-SIMD RDG path: chunked
/// unrolling amortizes address arithmetic and loop control across the
/// lanes, so each FMA issues with ~2 companion ops instead of the scalar
/// path's 14. The FLOP *count* is identical to the scalar path — only
/// the issue efficiency differs.
pub const SIMD_RDG_ISSUE_OVERHEAD: u64 = 2;

/// The scalar RDG evaluator of both non-tensor-core backends (Fig. 9
/// "RDG w/o TCU" and the tuned SIMD compare point): the same `U · X · V`
/// chain with scalar FMAs, exploiting band sparsity as a hand-written
/// CUDA-core kernel would, charging CUDA-core FLOPs (and no MMAs) times
/// `issue_overhead` ([`CUDA_RDG_ISSUE_OVERHEAD`] or
/// [`SIMD_RDG_ISSUE_OVERHEAD`]). `acc` is the output accumulator
/// transposed (`acc[q][p]`); `w` holds the staged window, any `S`.
///
/// * Step 1: each `T` column step 2 reads (`shift .. shift + n_t − 1 + 8`)
///   as one 8-row vector, `T[p][c] = Σ_k u[k]·X[p+shift+k][c]`, seeded at
///   `+0.0`, `k` increasing.
/// * Step 2: per output column `q`, `s[p] = Σ_k v[k]·T[p][q+shift+k]`,
///   seeded at `+0.0`, then `acc[q][p] += s[p]`.
///
/// Only the band's products are formed, and every one of them is, so
/// non-finite windows need no fallback and the operation sequence per
/// element does not depend on the input. `cuda_flops` counts step 1 over
/// all `S` columns of `T`, as the modeled kernel computes them; the host
/// skips only the columns no output reads.
#[inline(always)]
pub fn rdg_apply_term_scalar(
    ctx: &mut SimContext,
    w: &mut BandWindow,
    term: &RankOneTerm,
    issue_overhead: u64,
    acc: &mut [[f64; MMA_M]; MMA_N],
) {
    let geo = w.geo;
    let n_t = term.u.len();
    let shift = geo.h - term.radius();
    let t = &mut w.t[..n_t - 1 + MMA_N];
    for (c, tc) in t.iter_mut().enumerate() {
        let base = (shift + c) * geo.s + shift;
        let col = &w.xt[base..base + n_t - 1 + MMA_M];
        let mut s = [0.0f64; MMA_M];
        for (&uk, x) in term.u.iter().zip(col.windows(MMA_M)) {
            for (sp, &xp) in s.iter_mut().zip(x) {
                *sp += uk * xp;
            }
        }
        *tc = s;
    }
    ctx.cuda_flops((2 * n_t * MMA_M * geo.s) as u64 * issue_overhead);
    for (q, acc_q) in acc.iter_mut().enumerate() {
        let mut s = [0.0f64; MMA_M];
        for (&vk, tc) in term.v.iter().zip(&t[q..q + n_t]) {
            for (sp, &tp) in s.iter_mut().zip(tc) {
                *sp += vk * tp;
            }
        }
        for (a, sp) in acc_q.iter_mut().zip(s) {
            *a += sp;
        }
    }
    ctx.cuda_flops((2 * n_t * MMA_M * MMA_N + MMA_M * MMA_N) as u64 * issue_overhead);
}

/// Dense reference for tests: directly evaluate `(U X V)[p][q] =
/// Σ_{i,j} u_i X[p+shift+i][q+shift+j] v_j` from a dense tile.
pub fn rdg_reference(tile: &WeightMatrix, term: &RankOneTerm, h: usize) -> [[f64; MMA_N]; MMA_M] {
    let shift = h - term.radius();
    let mut out = [[0.0; MMA_N]; MMA_M];
    for (p, row) in out.iter_mut().enumerate() {
        for (q, o) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &ui) in term.u.iter().enumerate() {
                for (j, &vj) in term.v.iter().enumerate() {
                    s += ui * vj * tile.get(p + shift + i, q + shift + j);
                }
            }
            *o = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;

    fn random_tile(s: usize, seed: u64) -> (SharedTile, WeightMatrix) {
        let mut tile = SharedTile::new(s, s);
        let mut vals = vec![0.0; s * s];
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for v in vals.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        }
        for r in 0..s {
            for c in 0..s {
                tile.poke(r, c, vals[r * s + c]);
            }
        }
        // dense copy for the reference (WeightMatrix needs an odd side,
        // so pad by one zero row/column)
        let dense =
            WeightMatrix::from_fn(s + 1, |i, j| if i < s && j < s { vals[i * s + j] } else { 0.0 });
        (tile, dense)
    }

    #[test]
    fn geometry_matches_paper_example() {
        // h = 3 → S = 16, 12 MMAs per term (8 step-1 + 4 step-2, §III-B).
        let geo = RdgGeometry::for_radius(3);
        assert_eq!(geo.s, 16);
        assert_eq!(geo.mma_per_term(), 12);
        // h = 1 (Box-2D9P unfused) also uses a 16×16 tile (Fig. 7).
        assert_eq!(RdgGeometry::for_radius(1).s, 16);
        // h = 5 → 8+10 = 18 → S = 24
        assert_eq!(RdgGeometry::for_radius(5).s, 24);
    }

    #[test]
    fn rdg_tcu_matches_dense_reference_full_term() {
        let geo = RdgGeometry::for_radius(3);
        let (tile, dense) = random_tile(geo.s, 42);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let acc = rdg_apply_term(&mut ctx, &x, &term, true, FragAcc::zero());
        let want = rdg_reference(&dense, &term, geo.h);
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!(
                    (acc.get(p, q) - want[p][q]).abs() < 1e-12,
                    "({p},{q}): {} vs {}",
                    acc.get(p, q),
                    want[p][q]
                );
            }
        }
        assert_eq!(ctx.counters.mma_ops, geo.mma_per_term());
        assert_eq!(ctx.counters.shuffle_ops, 0, "BVS must be shuffle-free");
    }

    #[test]
    fn rdg_smaller_pyramid_term_is_centered() {
        // a radius-1 term inside a radius-3 kernel geometry
        let geo = RdgGeometry::for_radius(3);
        let (tile, dense) = random_tile(geo.s, 7);
        let term = RankOneTerm::new(vec![1.0, 2.0, 1.0], vec![0.5, 1.0, 0.5]);
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let acc = rdg_apply_term(&mut ctx, &x, &term, true, FragAcc::zero());
        let want = rdg_reference(&dense, &term, geo.h);
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc.get(p, q) - want[p][q]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bvs_and_natural_split_agree_but_only_bvs_is_shuffle_free() {
        let geo = RdgGeometry::for_radius(2);
        let (tile, _) = random_tile(geo.s, 3);
        let term = RankOneTerm::new(vec![0.2, 0.5, 1.0, 0.5, 0.2], vec![0.1, 0.7, 1.0, 0.7, 0.1]);

        let mut ctx_bvs = SimContext::new();
        let x1 = XFragments::load(&mut ctx_bvs, &tile, geo);
        let acc_bvs = rdg_apply_term(&mut ctx_bvs, &x1, &term, true, FragAcc::zero());

        let mut ctx_nat = SimContext::new();
        let x2 = XFragments::load(&mut ctx_nat, &tile, geo);
        let acc_nat = rdg_apply_term(&mut ctx_nat, &x2, &term, false, FragAcc::zero());

        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc_bvs.get(p, q) - acc_nat.get(p, q)).abs() < 1e-12);
            }
        }
        assert_eq!(ctx_bvs.counters.shuffle_ops, 0);
        // natural split shuffles twice per accumulator split
        assert_eq!(ctx_nat.counters.shuffle_ops, 2 * 2 * geo.col_blocks() as u64);
        assert_eq!(ctx_bvs.counters.mma_ops, ctx_nat.counters.mma_ops);
    }

    #[test]
    fn batched_term_apply_is_bit_identical_for_every_batch_width() {
        for h in [1usize, 3, 5] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 1000 + h as u64);
            let taps = 2 * h + 1;
            let term = RankOneTerm::new(
                (0..taps).map(|t| 0.3 + 0.1 * t as f64).collect(),
                (0..taps).map(|t| 1.1 - 0.2 * t as f64).collect(),
            );
            let mut ctx = SimContext::new();
            let x = XFragments::load(&mut ctx, &tile, geo);
            let tf = TermFrags::build(&term, geo, true);
            let base = rdg_apply_term_frags(&mut ctx, &x, &tf, FragAcc::zero());
            let base_mmas = ctx.counters.mma_ops;
            for batch in [1usize, 2, 3, 4, 8, 16, 64] {
                let mut ctx_b = SimContext::new();
                let xb = XFragments::load(&mut ctx_b, &tile, geo);
                let mut acc = FragAcc::zero();
                rdg_apply_term_frags_into(&mut ctx_b, &xb, &tf, &mut acc, batch);
                for p in 0..MMA_M {
                    for q in 0..MMA_N {
                        assert_eq!(
                            acc.get(p, q).to_bits(),
                            base.get(p, q).to_bits(),
                            "h={h} batch={batch} ({p},{q})"
                        );
                    }
                }
                assert_eq!(
                    ctx_b.counters.mma_ops, base_mmas,
                    "batch={batch} must charge Eq. 16 MMAs"
                );
            }
        }
    }

    #[test]
    fn offset_fragment_loads_match_a_direct_subwindow() {
        // stage a 24×24 window, load the S×S sub-window at (8, 8) via
        // load_into_at, and compare against loading a directly-staged copy
        let geo = RdgGeometry::for_radius(1); // S = 16
        let (big, _) = random_tile(24, 77);
        let mut small = SharedTile::new(geo.s, geo.s);
        for r in 0..geo.s {
            for c in 0..geo.s {
                small.poke(r, c, big.peek(8 + r, 8 + c));
            }
        }
        let mut ctx_a = SimContext::new();
        let mut xa = XFragments::empty(geo);
        xa.load_into_at(&mut ctx_a, &big, geo, 8, 8);
        let mut ctx_b = SimContext::new();
        let xb = XFragments::load(&mut ctx_b, &small, geo);
        for r in 0..geo.s {
            for c in 0..geo.s {
                assert_eq!(xa.peek(r, c).to_bits(), xb.peek(r, c).to_bits());
            }
        }
        assert_eq!(ctx_a.counters.shared_load_requests, ctx_b.counters.shared_load_requests);
    }

    #[test]
    fn cuda_path_matches_tcu_path() {
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 11);
        let k = stencil_core::kernels::box_2d49p();
        let d = decompose::decompose(k.weights_2d(), 1e-12);

        let mut ctx_tcu = SimContext::new();
        let x = XFragments::load(&mut ctx_tcu, &tile, geo);
        let mut acc = FragAcc::zero();
        for t in &d.terms {
            acc = rdg_apply_term(&mut ctx_tcu, &x, t, true, acc);
        }
        apply_pointwise(&mut ctx_tcu, &x, d.pointwise, &mut acc);

        let mut ctx_cuda = SimContext::new();
        let mut w = BandWindow::new();
        w.load_at(&mut ctx_cuda, &tile, geo, 0, 0);
        let mut acc_cuda = [[0.0; MMA_M]; MMA_N];
        for t in &d.terms {
            rdg_apply_term_scalar(&mut ctx_cuda, &mut w, t, CUDA_RDG_ISSUE_OVERHEAD, &mut acc_cuda);
        }
        apply_pointwise_band(&mut ctx_cuda, &w, d.pointwise, &mut acc_cuda);

        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc.get(p, q) - acc_cuda[q][p]).abs() < 1e-12);
            }
        }
        assert_eq!(ctx_cuda.counters.mma_ops, 0);
        assert!(ctx_cuda.counters.cuda_flops > 0);
        assert_eq!(ctx_tcu.counters.mma_ops, 3 * geo.mma_per_term());
    }

    #[test]
    fn simd_path_is_bit_identical_to_cuda_path_at_one_seventh_the_overhead() {
        // the two scalar backends share one evaluator: values match to the
        // bit and only the issue-overhead multiplier differs
        for h in [1usize, 3, 4] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 600 + h as u64);
            let term = RankOneTerm::new(
                vec![0.25; 2 * h + 1],
                (0..2 * h + 1).map(|i| 0.5 + 0.125 * i as f64).collect(),
            );
            let run = |overhead: u64| {
                let mut ctx = SimContext::new();
                let mut w = BandWindow::new();
                w.load_at(&mut ctx, &tile, geo, 0, 0);
                let mut acc = [[0.0; MMA_M]; MMA_N];
                rdg_apply_term_scalar(&mut ctx, &mut w, &term, overhead, &mut acc);
                (ctx, acc)
            };
            let (ctx_cuda, acc_cuda) = run(CUDA_RDG_ISSUE_OVERHEAD);
            let (ctx_simd, acc_simd) = run(SIMD_RDG_ISSUE_OVERHEAD);

            for p in 0..MMA_M {
                for q in 0..MMA_N {
                    assert_eq!(
                        acc_simd[q][p].to_bits(),
                        acc_cuda[q][p].to_bits(),
                        "h={h} ({p},{q})"
                    );
                }
            }
            // identical FLOP count, scaled by 2 instead of 14
            assert_eq!(
                ctx_simd.counters.cuda_flops * CUDA_RDG_ISSUE_OVERHEAD,
                ctx_cuda.counters.cuda_flops * SIMD_RDG_ISSUE_OVERHEAD,
                "h={h}"
            );
            assert_eq!(ctx_simd.counters.mma_ops, 0);
            assert_eq!(ctx_simd.counters.shuffle_ops, 0);
        }
    }

    #[test]
    fn x_fragments_charge_eq12_loads() {
        // Eq. 12: ab/8 fragments for the whole grid ⇔ S²/32 per 64-point
        // tile; for S=16 that is 8 fragment loads.
        let geo = RdgGeometry::for_radius(3);
        let tile = SharedTile::new(geo.s, geo.s);
        let mut ctx = SimContext::new();
        let _ = XFragments::load(&mut ctx, &tile, geo);
        assert_eq!(ctx.counters.shared_load_requests, 8);
    }

    #[test]
    fn bvs_keeps_the_mma_pipeline_unbroken() {
        // the point of BVS (§III-D): with it, the whole per-term chain is
        // MMAs and pipelined fragment loads; without it, shuffles sit in
        // the middle of the chain and stall the tensor pipeline
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 99);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        let burst = |use_bvs: bool| {
            let mut ctx = SimContext::new();
            ctx.enable_trace();
            let x = XFragments::load(&mut ctx, &tile, geo);
            rdg_apply_term(&mut ctx, &x, &term, use_bvs, FragAcc::zero());
            let t = ctx.take_trace().unwrap();
            (t.longest_mma_burst(), t.count(|e| matches!(e, tcu_sim::TraceEvent::AccExtract { shuffles, .. } if *shuffles > 0)))
        };
        let (bvs_burst, bvs_stalls) = burst(true);
        let (nat_burst, nat_stalls) = burst(false);
        assert_eq!(bvs_stalls, 0);
        assert!(nat_stalls > 0);
        assert!(
            bvs_burst > nat_burst,
            "BVS burst {bvs_burst} must exceed shuffled burst {nat_burst}"
        );
        // BVS: the full 12-MMA chain issues back to back
        assert_eq!(bvs_burst as u64, geo.mma_per_term());
    }

    #[test]
    fn sparse_term_apply_is_bit_identical_and_charges_sparse_counters() {
        // a 3-tap u with an interior zero: every banded U row carries two
        // nonzeros two columns apart — at most two per aligned 4-window,
        // so every fragment is 2:4-compressible (v may stay dense: only
        // the A operand is constrained)
        for h in [1usize, 3] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 500 + h as u64);
            let term = RankOneTerm::new(vec![0.75, 0.0, -0.25], vec![0.5, 1.0, 1.25]);
            assert!(term_is_sparse(&term, geo), "≤2-nonzero u rows always compress");

            let tf_sp = TermFrags::build_sparse(&term, geo, true);
            assert!(tf_sp.is_sparse());
            let mut ctx_sp = SimContext::new();
            let x_sp = XFragments::load(&mut ctx_sp, &tile, geo);
            let mut acc_sp = FragAcc::zero();
            rdg_apply_term_sparse_into(&mut ctx_sp, &x_sp, &tf_sp, &mut acc_sp, 1);

            let tf_d = TermFrags::build(&term, geo, true);
            let mut ctx_d = SimContext::new();
            let x_d = XFragments::load(&mut ctx_d, &tile, geo);
            let mut acc_d = FragAcc::zero();
            rdg_apply_term_frags_into(&mut ctx_d, &x_d, &tf_d, &mut acc_d, 1);

            for p in 0..MMA_M {
                for q in 0..MMA_N {
                    assert_eq!(
                        acc_sp.get(p, q).to_bits(),
                        acc_d.get(p, q).to_bits(),
                        "h={h} ({p},{q})"
                    );
                }
            }
            let rb = geo.row_blocks() as u64;
            let cb = geo.col_blocks() as u64;
            assert_eq!(ctx_sp.counters.mma_sp_ops, rb * cb, "step 1 all sparse");
            assert_eq!(ctx_sp.counters.mma_ops, rb, "step 2 stays dense");
            assert_eq!(ctx_sp.counters.metadata_loads, rb, "one per U fragment");
            assert_eq!(ctx_d.counters.mma_sp_ops, 0);
        }
    }

    #[test]
    fn dense_fallback_term_charges_no_sparse_counters() {
        // a 7-tap dense-banded term: interior rows carry up to 4 nonzeros
        // in one aligned window → validator rejects, term falls back
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 900);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        assert!(!term_is_sparse(&term, geo));
        let tf = TermFrags::build_sparse(&term, geo, true);
        assert!(!tf.is_sparse(), "7 dense taps cannot satisfy 2:4");
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let mut acc = FragAcc::zero();
        rdg_apply_term_sparse_into(&mut ctx, &x, &tf, &mut acc, 1);
        assert_eq!(ctx.counters.mma_sp_ops, 0);
        assert_eq!(ctx.counters.metadata_loads, 0);
        assert_eq!(ctx.counters.mma_ops, geo.mma_per_term());
        // fallback result equals the plain dense apply
        let want = rdg_apply_term(
            &mut SimContext::new(),
            &XFragments::load(&mut SimContext::new(), &tile, geo),
            &term,
            true,
            FragAcc::zero(),
        );
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert_eq!(acc.get(p, q).to_bits(), want.get(p, q).to_bits());
            }
        }
    }

    /// The strip of `n` sub-tiles whose windows start at the top-left of
    /// `tile` (at least `S × (8·(n−1) + S)`).
    fn strip_of(tile: &SharedTile, geo: RdgGeometry, n: usize) -> StripWindow {
        let mut w = StripWindow::new();
        let width = StripWindow::width_for(geo, n);
        let rows = w.rows_mut(geo, n);
        for r in 0..geo.s {
            for c in 0..width {
                rows[r * width + c] = tile.peek(r, c);
            }
        }
        w.seal();
        w
    }

    #[test]
    fn band_evaluator_matches_the_fragment_chain_bitwise() {
        // full-radius and centered pyramid terms, 2:4-compressible and
        // not, under both accumulator splits, on both backends' charges,
        // on each sub-tile of a three-sub-tile strip
        const N: usize = 3;
        for h in [1usize, 3, 5] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(StripWindow::width_for(geo, N), 300 + h as u64);
            let w = strip_of(&tile, geo, N);
            let taps = 2 * h + 1;
            let terms = [
                RankOneTerm::new(
                    (0..taps).map(|t| 0.3 + 0.1 * t as f64).collect(),
                    (0..taps).map(|t| 1.1 - 0.2 * t as f64).collect(),
                ),
                RankOneTerm::new(vec![0.75, 0.0, -0.25], vec![0.5, 1.0, 1.25]),
            ];
            for (term, use_bvs, sparse) in terms.iter().flat_map(|t| {
                [(t, true, false), (t, false, false), (t, true, true), (t, false, true)]
            }) {
                let case = format!("h={h} taps={} bvs={use_bvs} sparse={sparse}", term.u.len());
                let tf = if sparse {
                    TermFrags::build_sparse(term, geo, use_bvs)
                } else {
                    TermFrags::build(term, geo, use_bvs)
                };
                let mut ctx_f = SimContext::new();
                let mut acc_f = [FragAcc::zero(); N];
                for (j, acc) in acc_f.iter_mut().enumerate() {
                    let mut x = XFragments::empty(geo);
                    x.load_into_at(&mut SimContext::new(), &tile, geo, 0, TILE_M * j);
                    if sparse {
                        rdg_apply_term_sparse_into(&mut ctx_f, &x, &tf, acc, 1);
                    } else {
                        rdg_apply_term_frags_into(&mut ctx_f, &x, &tf, acc, 1);
                    }
                }

                let mut ctx_b = SimContext::new();
                assert!(w.finite() && w.admits(&tf), "{case}");
                let mut t = vec![0.0; MMA_M * w.width()];
                let mut acc_b = vec![0.0; MMA_M * TILE_M * N];
                rdg_apply_term_strip(&w, &tf, &mut t, &mut acc_b);
                for _ in 0..N {
                    tf.charge(geo, &mut ctx_b.counters);
                }

                for (j, acc_f) in acc_f.iter().enumerate() {
                    for p in 0..MMA_M {
                        for q in 0..MMA_N {
                            assert_eq!(
                                acc_b[p * TILE_M * N + TILE_M * j + q].to_bits(),
                                acc_f.get(p, q).to_bits(),
                                "{case} sub-tile {j} ({p},{q})"
                            );
                        }
                    }
                }
                assert_eq!(ctx_b.counters.fields(), ctx_f.counters.fields(), "{case}");
            }
        }
    }

    #[test]
    fn band_window_rejects_non_finite_values_and_overflowing_terms() {
        let geo = RdgGeometry::for_radius(1);
        let term = RankOneTerm::new(vec![1.0, 2.0, 1.0], vec![1.0, 2.0, 1.0]);
        let tf = TermFrags::build(&term, geo, true);
        let mut tile = SharedTile::new(geo.s, geo.s);
        let refill = |tile: &SharedTile| {
            let w = strip_of(tile, geo, 1);
            (w.finite(), w.admits(&tf))
        };
        tile.poke(3, 4, -1e300);
        assert_eq!(refill(&tile), (true, true), "|T| ≤ 4e300 cannot overflow");
        tile.poke(5, 6, f64::MAX);
        assert_eq!(refill(&tile), (true, false), "|T| ≤ 4·MAX could");
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            tile.poke(7, 9, bad);
            assert!(!refill(&tile).0, "{bad} is not finite");
        }
        // the padding rows past 8 + 2h count: the fragment chain reads them
        let mut padded = SharedTile::new(geo.s, geo.s);
        padded.poke(geo.s - 1, 2, f64::NAN);
        assert!(!refill(&padded).0, "a NaN in a padding row is not finite");
        // a window larger than the tables' capacity never gets tables
        let big = RdgGeometry::for_radius(BAND_MAX_S / 2);
        assert!(big.s > BAND_MAX_S);
        let wide = RankOneTerm::new(vec![1.0; 2 * big.h + 1], vec![1.0; 2 * big.h + 1]);
        assert!(!TermFrags::build(&wide, big, true).has_band());
    }

    #[test]
    fn star_like_term_with_interior_zeros_compresses() {
        // taps [a, 0, 0, 0, b]: rows have two nonzeros four apart — they
        // land in different aligned 4-windows, one nonzero per window
        let geo = RdgGeometry::for_radius(3);
        let term = RankOneTerm::new(vec![0.5, 0.0, 0.0, 0.0, -0.5], vec![1.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(term_is_sparse(&term, geo));
    }

    #[test]
    fn pointwise_zero_is_free() {
        let geo = RdgGeometry::for_radius(1);
        let tile = SharedTile::new(geo.s, geo.s);
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let flops0 = ctx.counters.cuda_flops;
        let mut acc = FragAcc::zero();
        apply_pointwise(&mut ctx, &x, 0.0, &mut acc);
        assert_eq!(ctx.counters.cuda_flops, flops0);
    }
}
