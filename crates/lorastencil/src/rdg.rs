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
//!
//! The host evaluates a term in one of three forms:
//!
//! * the lane-exact fragment chain ([`rdg_apply_term_frags_into`], or
//!   [`rdg_apply_term_sparse_into`] for 2:4-compressed terms), which
//!   issues every modeled MMA and charges as it goes: the reference, and
//!   the tensor-core path wherever strips do not run;
//! * the tensor-core strip kernel (`rdg_apply_chain_strip`): the same
//!   bits for a whole chain of terms over an 8-row strip of sub-tiles,
//!   forming only the products inside the bands of `U` and `V`, with `T`
//!   and the accumulator transposed so the eight output rows are one
//!   8-lane vector. It is one generic source over the term's band shape:
//!   compile-time instances for the shapes the registry lowers to
//!   (`SPECIALIZED`), a generic instance for any other;
//! * the scalar strip evaluator ([`rdg_apply_term_strip_scalar`]) of the
//!   `CudaCore` and `SimdCore` backends, which forms the band's products
//!   only (Fig. 9 "RDG w/o TCU").
//!
//! The strip forms charge nothing; the interpreter charges their closed
//! forms ([`TermFrags::charge`], [`scalar_term_flops`]) per sub-tile.

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
const fn split_cols(use_bvs: bool) -> [[usize; MMA_K]; 2] {
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
/// finite and each `T · 0` product the strip kernel skips is a signed
/// zero.
const BAND_T_LIMIT: f64 = f64::MAX / 4.0;

/// Sub-tiles per column block of the tensor-core strip kernel
/// ([`rdg_apply_chain_strip`]): 256 window columns. Blocking keeps the
/// kernel's `Tᵀ` and `accᵀ` scratch fixed-size whatever the plane's
/// width; blocks of 128, 256 and 512 columns timed alike.
const COL_BLOCK: usize = 32;

/// `f64`s of `Tᵀ` one column block's step 1 writes at most: 8×8 per
/// 8-column block, the block's own `COL_BLOCK` plus the at most
/// `⌈(shift mod 8 + n_t + 6) / 8⌉ ≤ 4` its last sub-tile's band reaches
/// past them (`n_t ≤ 25`).
pub(crate) const STRIP_TT_LEN: usize = TILE_M * MMA_N * (COL_BLOCK + 4);

/// `f64`s of one column block's transposed accumulator `accᵀ`.
pub(crate) const STRIP_ACC_T_LEN: usize = TILE_M * MMA_N * COL_BLOCK;

/// Step 2's lane order: `lanes[q][s]` is the window column `c` of lane
/// `q`'s `s`-th band product `T[·][c] · V[c][q]`, `V[c][q] =
/// v[c − shift − q]`. Each lane has exactly `n_t` band products; they are
/// listed in the fragment chain's MMA order (column block, split half,
/// `k`) under the split `bvs` selects, the order [`build_v_frags`]
/// permutes `V` by.
const fn lane_cols(taps: usize, shift: usize, bvs: bool) -> [[u8; BAND_MAX_TAPS]; MMA_N] {
    let split = split_cols(bvs);
    let mut lanes = [[0u8; BAND_MAX_TAPS]; MMA_N];
    let mut len = [0usize; MMA_N];
    let mut c0 = 0;
    // up to lane 7's last band column, `shift + n_t + 6`
    while c0 < shift + taps + MMA_N - 1 {
        let mut half = 0;
        while half < 2 {
            let mut k = 0;
            while k < MMA_K {
                let c = c0 + split[half][k];
                let mut q = 0;
                while q < MMA_N {
                    if c >= shift + q && c < shift + q + taps {
                        lanes[q][len[q]] = c as u8;
                        len[q] += 1;
                    }
                    q += 1;
                }
                k += 1;
            }
            half += 1;
        }
        c0 += MMA_N;
    }
    lanes
}

/// One term's plan-time tables for the strip kernel. Fixed-size arrays,
/// so building a schedule allocates nothing extra for them.
#[derive(Debug, Clone)]
struct BandTable {
    /// Band offset of the term inside the kernel's tile (`h − h_t`).
    shift: usize,
    /// Tap count `n_t`.
    taps: usize,
    /// Whether step 2 follows the BVS split's order (else the natural one).
    bvs: bool,
    /// Whether the kernel runs the term on its compile-time instance
    /// (the shape is in [`SPECIALIZED`]) rather than the generic one.
    fixed: bool,
    /// `u`, zero-padded.
    u: [f64; BAND_MAX_TAPS],
    /// `Σ|u[t]|`: `|T| ≤ Σ|u| · max|X|` (the overflow guard).
    u_abs: f64,
    /// `v`, zero-padded.
    v: [f64; BAND_MAX_TAPS],
    /// [`lane_cols`] of the term, which the generic instance reads.
    lanes: [[u8; BAND_MAX_TAPS]; MMA_N],
}

impl BandTable {
    /// The tables for `term`, or `None` when `S > BAND_MAX_S`.
    fn build(term: &RankOneTerm, geo: RdgGeometry, bvs: bool) -> Option<Self> {
        if geo.s > BAND_MAX_S {
            return None;
        }
        let shift = geo.h - term.radius();
        let taps = term.u.len();
        let mut u = [0.0; BAND_MAX_TAPS];
        u[..taps].copy_from_slice(&term.u);
        let mut v = [0.0; BAND_MAX_TAPS];
        v[..taps].copy_from_slice(&term.v);
        Some(BandTable {
            shift,
            taps,
            bvs,
            fixed: SPECIALIZED.contains(&(taps, shift)),
            u,
            u_abs: term.u.iter().map(|w| w.abs()).sum(),
            v,
            lanes: lane_cols(taps, shift, bvs),
        })
    }
}

/// The vector unit a compiled instance of the job loop runs the
/// tensor-core strip kernel on: eight `f64` lanes, with the loads,
/// stores, adds, multiply-adds and 8×8 transposes the kernel is written in.
/// Holding a value of the type proves the host supports its target
/// features. Every lane operation is one IEEE multiply then one IEEE add,
/// as the scalar expression `acc + a * b` compiles; nothing fuses or
/// reassociates, so every instance computes the same bits.
pub(crate) trait StripIsa: Copy {
    /// Eight lanes, held in registers.
    type F8: Copy;
    /// All lanes `x`.
    fn splat(self, x: f64) -> Self::F8;
    /// Lanes from memory.
    fn load(self, x: &[f64]) -> Self::F8;
    /// Lanes to memory.
    fn store(self, v: Self::F8, out: &mut [f64]);
    /// `a + b` per lane, in that operand order.
    fn add(self, a: Self::F8, b: Self::F8) -> Self::F8;
    /// `acc + a·b` per lane, rounded after the product and after the sum.
    fn add_mul(self, acc: Self::F8, a: Self::F8, b: Self::F8) -> Self::F8;
    /// Rows `m` as columns: lane `p` of `out[k]` is lane `k` of `m[p]`.
    fn transpose8(self, m: [Self::F8; 8]) -> [Self::F8; 8];
}

/// Baseline code for the target: lane arrays the compiler vectorizes as
/// far as it can.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Portable;

impl StripIsa for Portable {
    type F8 = [f64; 8];
    #[inline(always)]
    fn splat(self, x: f64) -> [f64; 8] {
        [x; 8]
    }
    #[inline(always)]
    fn load(self, x: &[f64]) -> [f64; 8] {
        x[..8].try_into().expect("8 lanes")
    }
    #[inline(always)]
    fn store(self, v: [f64; 8], out: &mut [f64]) {
        out[..8].copy_from_slice(&v);
    }
    #[inline(always)]
    fn add(self, mut a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        for (a, &b) in a.iter_mut().zip(&b) {
            *a += b;
        }
        a
    }
    #[inline(always)]
    fn add_mul(self, mut acc: [f64; 8], a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        for ((c, &a), &b) in acc.iter_mut().zip(&a).zip(&b) {
            *c += a * b;
        }
        acc
    }
    #[inline(always)]
    fn transpose8(self, m: [[f64; 8]; 8]) -> [[f64; 8]; 8] {
        let mut out = [[0.0; 8]; 8];
        for (p, row) in m.iter().enumerate() {
            for (k, &x) in row.iter().enumerate() {
                out[k][p] = x;
            }
        }
        out
    }
}

/// x86-64 with AVX2: two 256-bit vectors per eight lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// # Safety
    ///
    /// The host must support AVX2.
    pub(crate) unsafe fn new_unchecked() -> Self {
        Avx2(())
    }
}

// SAFETY (every `unsafe` block of the impl): an `Avx2` exists only on
// hosts with AVX2 (`new_unchecked`), and every pointer is to four lanes
// inside a slice of at least eight
#[cfg(target_arch = "x86_64")]
impl StripIsa for Avx2 {
    type F8 = [std::arch::x86_64::__m256d; 2];
    #[inline(always)]
    fn splat(self, x: f64) -> Self::F8 {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe { [_mm256_set1_pd(x); 2] }
    }
    #[inline(always)]
    fn load(self, x: &[f64]) -> Self::F8 {
        use std::arch::x86_64::*;
        let x = &x[..8];
        // SAFETY: see the impl
        unsafe { [_mm256_loadu_pd(x.as_ptr()), _mm256_loadu_pd(x[4..].as_ptr())] }
    }
    #[inline(always)]
    fn store(self, v: Self::F8, out: &mut [f64]) {
        use std::arch::x86_64::*;
        let out = &mut out[..8];
        // SAFETY: see the impl
        unsafe {
            _mm256_storeu_pd(out.as_mut_ptr(), v[0]);
            _mm256_storeu_pd(out[4..].as_mut_ptr(), v[1]);
        }
    }
    #[inline(always)]
    fn add(self, a: Self::F8, b: Self::F8) -> Self::F8 {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe { [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn add_mul(self, acc: Self::F8, a: Self::F8, b: Self::F8) -> Self::F8 {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe {
            [
                _mm256_add_pd(acc[0], _mm256_mul_pd(a[0], b[0])),
                _mm256_add_pd(acc[1], _mm256_mul_pd(a[1], b[1])),
            ]
        }
    }
    #[inline(always)]
    fn transpose8(self, m: [Self::F8; 8]) -> [Self::F8; 8] {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe {
            let mut out = [[_mm256_setzero_pd(); 2]; 8];
            // the 4×4 block (rows 4P.., lanes 4K..) lands at (rows 4K..,
            // lanes 4P..)
            for pb in 0..2 {
                for kb in 0..2 {
                    let r = |i: usize| m[4 * pb + i][kb];
                    let (lo01, hi01) =
                        (_mm256_unpacklo_pd(r(0), r(1)), _mm256_unpackhi_pd(r(0), r(1)));
                    let (lo23, hi23) =
                        (_mm256_unpacklo_pd(r(2), r(3)), _mm256_unpackhi_pd(r(2), r(3)));
                    out[4 * kb][pb] = _mm256_permute2f128_pd::<0x20>(lo01, lo23);
                    out[4 * kb + 1][pb] = _mm256_permute2f128_pd::<0x20>(hi01, hi23);
                    out[4 * kb + 2][pb] = _mm256_permute2f128_pd::<0x31>(lo01, lo23);
                    out[4 * kb + 3][pb] = _mm256_permute2f128_pd::<0x31>(hi01, hi23);
                }
            }
            out
        }
    }
}

/// x86-64 with AVX-512F: one 512-bit vector per eight lanes.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512f(());

#[cfg(target_arch = "x86_64")]
impl Avx512f {
    /// # Safety
    ///
    /// The host must support AVX-512F.
    pub(crate) unsafe fn new_unchecked() -> Self {
        Avx512f(())
    }
}

// SAFETY (every `unsafe` block of the impl): an `Avx512f` exists only on
// hosts with AVX-512F (`new_unchecked`), and every pointer is to the
// first of eight lanes inside a slice
#[cfg(target_arch = "x86_64")]
impl StripIsa for Avx512f {
    type F8 = std::arch::x86_64::__m512d;
    #[inline(always)]
    fn splat(self, x: f64) -> Self::F8 {
        // SAFETY: see the impl
        unsafe { std::arch::x86_64::_mm512_set1_pd(x) }
    }
    #[inline(always)]
    fn load(self, x: &[f64]) -> Self::F8 {
        // SAFETY: see the impl
        unsafe { std::arch::x86_64::_mm512_loadu_pd(x[..8].as_ptr()) }
    }
    #[inline(always)]
    fn store(self, v: Self::F8, out: &mut [f64]) {
        // SAFETY: see the impl
        unsafe { std::arch::x86_64::_mm512_storeu_pd(out[..8].as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(self, a: Self::F8, b: Self::F8) -> Self::F8 {
        // SAFETY: see the impl
        unsafe { std::arch::x86_64::_mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn add_mul(self, acc: Self::F8, a: Self::F8, b: Self::F8) -> Self::F8 {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe { _mm512_add_pd(acc, _mm512_mul_pd(a, b)) }
    }
    #[inline(always)]
    fn transpose8(self, r: [Self::F8; 8]) -> [Self::F8; 8] {
        use std::arch::x86_64::*;
        // SAFETY: see the impl
        unsafe {
            // per quad of rows 4i..4i + 4: pair the rows (128-bit lane l of
            // an unpack holds lanes 2l / 2l + 1 of two rows), then gather
            // 128-bit lanes (c of rows 01, c + 4 of rows 01, c of rows 23,
            // c + 4 of rows 23) into quad[i][c]
            let mut quad = [[_mm512_setzero_pd(); 4]; 2];
            for (i, q) in quad.iter_mut().enumerate() {
                let (a, b, c, d) = (r[4 * i], r[4 * i + 1], r[4 * i + 2], r[4 * i + 3]);
                let (l0, h0) = (_mm512_unpacklo_pd(a, b), _mm512_unpackhi_pd(a, b));
                let (l1, h1) = (_mm512_unpacklo_pd(c, d), _mm512_unpackhi_pd(c, d));
                *q = [
                    _mm512_shuffle_f64x2::<0x88>(l0, l1),
                    _mm512_shuffle_f64x2::<0x88>(h0, h1),
                    _mm512_shuffle_f64x2::<0xDD>(l0, l1),
                    _mm512_shuffle_f64x2::<0xDD>(h0, h1),
                ];
            }
            let mut out = [_mm512_setzero_pd(); 8];
            for c in 0..4 {
                let (a, b) = (quad[0][c], quad[1][c]);
                out[c] = _mm512_shuffle_f64x2::<0x88>(a, b);
                out[c + 4] = _mm512_shuffle_f64x2::<0xDD>(a, b);
            }
            out
        }
    }
}

/// A term's band shape as the strip kernel sees it: tap count, band
/// shift and step-2 lane order. [`Fixed`] carries it in the type, so
/// every loop bound, table entry and offset is a compile-time constant;
/// `&BandTable` carries it at run time (the generic instance). One
/// kernel source serves both, as kubecl's static and dynamic matmul
/// configs do.
trait BandShape: Copy {
    /// `n_t`.
    fn taps(self) -> usize;
    /// `h − h_t`.
    fn shift(self) -> usize;
    /// [`lane_cols`]`[q][s]`.
    fn col(self, q: usize, s: usize) -> usize;
}

/// A band shape fixed at compile time.
#[derive(Debug, Clone, Copy)]
struct Fixed<const TAPS: usize, const SHIFT: usize, const BVS: bool>;

impl<const TAPS: usize, const SHIFT: usize, const BVS: bool> Fixed<TAPS, SHIFT, BVS> {
    const LANES: [[u8; BAND_MAX_TAPS]; MMA_N] = lane_cols(TAPS, SHIFT, BVS);
}

impl<const TAPS: usize, const SHIFT: usize, const BVS: bool> BandShape for Fixed<TAPS, SHIFT, BVS> {
    #[inline(always)]
    fn taps(self) -> usize {
        TAPS
    }
    #[inline(always)]
    fn shift(self) -> usize {
        SHIFT
    }
    #[inline(always)]
    fn col(self, q: usize, s: usize) -> usize {
        usize::from(Self::LANES[q][s])
    }
}

impl BandShape for &BandTable {
    #[inline(always)]
    fn taps(self) -> usize {
        self.taps
    }
    #[inline(always)]
    fn shift(self) -> usize {
        self.shift
    }
    #[inline(always)]
    fn col(self, q: usize, s: usize) -> usize {
        usize::from(self.lanes[q][s])
    }
}

/// Declares [`SPECIALIZED`] and the dispatch that runs a term on its
/// compile-time instance, for each listed `(n_t, shift)` under both
/// step-2 orders.
macro_rules! band_instances {
    ($(($taps:literal, $shift:literal)),* $(,)?) => {
        /// The `(n_t, shift)` band shapes the strip kernel has
        /// compile-time instances of, under both step-2 orders: every
        /// shape the registry's 2-D and 3-D kernels lower to at their
        /// default fusion (all on `S = 16`). Any other shape runs the
        /// generic instance.
        pub(crate) const SPECIALIZED: &[(usize, usize)] = &[$(($taps, $shift)),*];

        /// [`term_block`] on the term's instance.
        #[allow(clippy::too_many_arguments)]
        #[inline(always)]
        fn term_block_any<I: StripIsa>(
            isa: I,
            bt: &BandTable,
            w: &StripWindow,
            j0: usize,
            m: usize,
            tt: &mut [f64],
            acc_t: &mut [f64],
            zero: bool,
        ) {
            match (bt.fixed, bt.taps, bt.shift, bt.bvs) {
                $(
                    (true, $taps, $shift, true) => {
                        term_block(isa, Fixed::<$taps, $shift, true>, bt, w, j0, m, tt, acc_t, zero)
                    }
                    (true, $taps, $shift, false) => {
                        term_block(isa, Fixed::<$taps, $shift, false>, bt, w, j0, m, tt, acc_t, zero)
                    }
                )*
                _ => term_block(isa, bt, bt, w, j0, m, tt, acc_t, zero),
            }
        }
    };
}

band_instances!((3, 0), (3, 2), (5, 0), (5, 1), (7, 0), (9, 0));

/// One 8-row strip of a job row, staged for the strip evaluators: the
/// union of the strip's `n` sub-tile S×S windows, `S` rows by
/// `8·(n−1) + S` columns, row-major and untransposed. Sub-tile `j`'s
/// window is columns `8j .. 8j + S`. Lives in the per-worker scratch and
/// grows to the widest strip the worker has seen, for any `S`.
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

    /// Finish staging for the tensor-core evaluator: scan the whole
    /// window, padding rows and columns included, for the largest
    /// magnitude. The scalar evaluator needs no scan.
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

    /// Row `p` of the sub-tiles' output points: window row `h + p` from
    /// column `h`, `8·n` values, which the tip `pw·X[h+p][h+q]` reads.
    #[inline(always)]
    pub fn center_row(&self, p: usize) -> &[f64] {
        let h = self.geo.h;
        &self.x[(h + p) * self.width() + h..][..TILE_M * self.n]
    }

    /// Whether the tensor-core strip kernel may evaluate `tf` on this window:
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
            band: BandTable::build(term, geo, use_bvs),
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

    /// Run the term on the strip kernel's generic instance even when its
    /// shape has a compile-time one (the instance tests compare the two).
    #[cfg(test)]
    pub(crate) fn force_generic(&mut self) {
        if let Some(bt) = &mut self.band {
            bt.fixed = false;
        }
    }

    /// Whether the strip kernel runs the term on a compile-time instance.
    #[cfg(test)]
    pub(crate) fn is_fixed(&self) -> bool {
        self.band.as_ref().is_some_and(|bt| bt.fixed)
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

/// An 8×8 block of a row-major buffer, rows `stride` apart from `at`.
#[inline(always)]
fn load8<I: StripIsa>(isa: I, buf: &[f64], at: usize, stride: usize) -> [I::F8; 8] {
    let mut blk = [isa.splat(0.0); 8];
    for (r, row) in blk.iter_mut().enumerate() {
        *row = isa.load(&buf[at + r * stride..]);
    }
    blk
}

/// Store an 8×8 block into a row-major buffer, rows `stride` apart.
#[inline(always)]
fn store8<I: StripIsa>(isa: I, blk: [I::F8; 8], buf: &mut [f64], at: usize, stride: usize) {
    for (r, &row) in blk.iter().enumerate() {
        isa.store(row, &mut buf[at + r * stride..]);
    }
}

/// One term on sub-tiles `j0 .. j0 + m` of the strip, on instance `k`.
///
/// * Step 1, transposed: `Tᵀ[x][p] = Σ_i u[i]·W[p+shift+i][x]`, seeded at
///   `+0.0`, taps in increasing `i`, for every 8-column block of `x` the
///   sub-tiles' band reads; each block is eight 8-lane row sums, then one
///   8×8 transpose into `tt`.
/// * Step 2, band only: `accᵀ[8j+q][p] += v[c−shift−q]·Tᵀ[8j+c][p]` for
///   the `n_t` columns `c` of lane `q`'s band in [`lane_cols`] order,
///   eight output rows `p` per operation and the eight lanes side by side,
///   from `+0.0` instead of `accᵀ` when `zero` (nothing has written it).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn term_block<I: StripIsa, K: BandShape>(
    isa: I,
    k: K,
    bt: &BandTable,
    w: &StripWindow,
    j0: usize,
    m: usize,
    tt: &mut [f64],
    acc_t: &mut [f64],
    zero: bool,
) {
    let (taps, shift, width) = (k.taps(), k.shift(), w.width());
    // the Tᵀ blocks sub-tile j reads run from j + shift/8 to
    // j + (shift + n_t + 6)/8
    let lo = shift / MMA_N;
    let span = shift % MMA_N + taps + MMA_N - 1;
    let nb = m + (shift + taps + MMA_N - 2) / MMA_N - lo;
    let (u, v) = (&bt.u[..taps], &bt.v[..taps]);
    for (b, out) in tt[..TILE_M * MMA_N * nb].chunks_exact_mut(TILE_M * MMA_N).enumerate() {
        let x0 = shift * width + MMA_N * (j0 + lo + b);
        let mut t = [isa.splat(0.0); MMA_M];
        // window row shift + r feeds T row p through tap i = r − p, so
        // each row p still sums its taps in increasing i
        for r in 0..taps + MMA_M - 1 {
            let x = isa.load(&w.x[x0 + r * width..]);
            for (p, tp) in t.iter_mut().enumerate() {
                if let Some(&ui) = r.checked_sub(p).and_then(|i| u.get(i)) {
                    *tp = isa.add_mul(*tp, isa.splat(ui), x);
                }
            }
        }
        store8(isa, isa.transpose8(t), out, 0, MMA_N);
    }
    for (j, at) in acc_t[..TILE_M * MMA_N * m].chunks_exact_mut(TILE_M * MMA_N).enumerate() {
        // sub-tile j's window column c is row c − 8·lo of `tj`
        let tj = &tt[TILE_M * MMA_N * j..][..MMA_N * span];
        let mut a = if zero { [isa.splat(0.0); 8] } else { load8(isa, at, 0, MMA_N) };
        for s in 0..taps {
            for (q, aq) in a.iter_mut().enumerate() {
                let c = k.col(q, s);
                let tr = isa.load(&tj[MMA_N * (c - MMA_N * lo)..]);
                *aq = isa.add_mul(*aq, isa.splat(v[c - shift - q]), tr);
            }
        }
        store8(isa, a, at, 0, MMA_N);
    }
}

/// Where [`rdg_apply_chain_strip`] leaves the chain's result.
pub(crate) enum StripOut<'a> {
    /// Back in the strip's row-major accumulator, for the op groups that
    /// follow.
    Acc,
    /// The output plane: the strip's last chain group ends the strip.
    Plane {
        /// The group's pyramid tip `pw·X[h+p][h+q]`, added to the chain's
        /// result unless `0.0`.
        pw: f64,
        /// Under `AccFold::Merge`, the strip's point-wise-plane
        /// accumulator (8 rows of `8·n` columns): the output is
        /// `vals + acc`.
        vals: Option<&'a [f64]>,
        /// The strip's output rows, `cols` apart; only the first `rows`
        /// rows and `cols` columns are written.
        out: &'a mut [f64],
        rows: usize,
        cols: usize,
    },
}

/// Strip form of [`rdg_apply_term_frags_into`] and
/// [`rdg_apply_term_sparse_into`] for a whole chain of terms: the same
/// `acc += U·X·V`, term after term, for every sub-tile of a staged strip,
/// forming only the products inside the bands of `U` and `V`. `w` must
/// be [finite](StripWindow::finite) and [admit](StripWindow::admits)
/// every term; `chain` must not be empty. `acc` is the strip's
/// accumulator, 8 rows of `8·n` columns, row-major; it is not read when
/// `fresh` (the chain then starts from `+0.0`). `tt` and `acc_t` are scratch of [`STRIP_TT_LEN`] and
/// [`STRIP_ACC_T_LEN`]. Charges nothing: the caller charges
/// [`TermFrags::charge`] per term and sub-tile.
///
/// The strip runs in column blocks of up to 32 sub-tiles. Each block
/// transposes its part of `acc` into `accᵀ[x][p]` (when `fresh`, the
/// first term's step 2 starts from `+0.0` instead), runs every term's
/// step 1 and step 2 on it (`term_block`),
/// and transposes it back into `out`: into `acc`, or, for the strip's
/// last chain group, into the output plane with the group's tip
/// `acc + pw·X` and the `vals + acc` fold applied to each row vector on
/// the way, in the order the per-sub-tile walk applies them. A term runs
/// on its compile-time instance when its shape is in [`SPECIALIZED`],
/// else on the generic one.
///
/// Each output element `(p, q)` receives exactly the fragment chain's
/// non-identity operations, in its order: step 1 is the chain's k-loop
/// without the products of `U`'s structural zeros, and step 2 adds the
/// lane's `n_t` band products in the MMA order of the chain's step 2.
/// Every product the chain forms and this skips is `0·x` for a finite
/// `x` (the admission check keeps `T` finite too), a signed zero, and a
/// `+0.0`-seeded round-to-nearest sum never reaches `-0.0`, so adding a
/// signed zero is the identity: the bits match.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn rdg_apply_chain_strip<'a, I: StripIsa>(
    isa: I,
    w: &StripWindow,
    chain: impl Iterator<Item = &'a TermFrags> + Clone,
    fresh: bool,
    tt: &mut [f64],
    acc_t: &mut [f64],
    acc: &mut [f64],
    mut out: StripOut<'_>,
) {
    let (n, aw) = (w.n, TILE_M * w.n);
    let (h, width) = (w.geo.h, w.width());
    let mut j0 = 0;
    while j0 < n {
        let m = COL_BLOCK.min(n - j0);
        let acc_t = &mut acc_t[..TILE_M * MMA_N * m];
        if !fresh {
            for (j, at) in acc_t.chunks_exact_mut(TILE_M * MMA_N).enumerate() {
                let blk = isa.transpose8(load8(isa, acc, TILE_M * (j0 + j), aw));
                store8(isa, blk, at, 0, MMA_N);
            }
        }
        for (t, tf) in chain.clone().enumerate() {
            let bt = tf.band.as_ref().expect("StripWindow::admits checked the band tables");
            term_block_any(isa, bt, w, j0, m, tt, acc_t, fresh && t == 0);
        }
        match &mut out {
            StripOut::Acc => {
                for (j, at) in acc_t.chunks_exact(TILE_M * MMA_N).enumerate() {
                    let blk = isa.transpose8(load8(isa, at, 0, MMA_N));
                    store8(isa, blk, acc, TILE_M * (j0 + j), aw);
                }
            }
            StripOut::Plane { pw, vals, out, rows, cols } => {
                for (j, at) in acc_t.chunks_exact(TILE_M * MMA_N).enumerate() {
                    let x = TILE_M * (j0 + j);
                    let mut blk = isa.transpose8(load8(isa, at, 0, MMA_N));
                    if *pw != 0.0 {
                        let (pw, xs) = (isa.splat(*pw), load8(isa, &w.x, h * width + h + x, width));
                        for (v, xp) in blk.iter_mut().zip(xs) {
                            *v = isa.add_mul(*v, pw, xp);
                        }
                    }
                    if let Some(vals) = vals {
                        for (v, vp) in blk.iter_mut().zip(load8(isa, vals, x, aw)) {
                            *v = isa.add(vp, *v);
                        }
                    }
                    if *rows == TILE_M && x + MMA_N <= *cols {
                        store8(isa, blk, out, x, *cols);
                        continue;
                    }
                    // a strip past the plane's last row, or the last
                    // sub-tile of a plane whose width is not a multiple of
                    // 8, stores only its rows and lanes inside the plane
                    let lanes = MMA_N.min(*cols - x);
                    for (p, &v) in blk.iter().enumerate().take(*rows) {
                        let mut part = [0.0; MMA_N];
                        isa.store(v, &mut part);
                        out[p * *cols + x..][..lanes].copy_from_slice(&part[..lanes]);
                    }
                }
            }
        }
        j0 += m;
    }
}

/// Step 1 of a term on a strip for the scalar evaluator:
/// `T[p][x] = Σ_i u[i]·W[p+shift+i][x]` for every `x` in
/// `[shift, shift + 8n + n_t − 1)`, the columns some sub-tile's step 2
/// reads; seeded at `+0.0`, taps in increasing `i`, one contiguous AXPY
/// per `(p, i)` across the strip. `t` holds 8 rows of `w.width()`.
#[inline(always)]
fn strip_step1(w: &StripWindow, u: &[f64], shift: usize, t: &mut [f64]) {
    let width = w.width();
    let len = TILE_M * w.n + u.len() - 1;
    for p in 0..MMA_M {
        let tp = &mut t[p * width + shift..][..len];
        tp.fill(0.0);
        for (i, &ui) in u.iter().enumerate() {
            let xr = &w.x[(p + shift + i) * width + shift..][..len];
            for (a, &x) in tp.iter_mut().zip(xr) {
                *a += ui * x;
            }
        }
    }
}

/// The scalar backends' term chain on a strip (Fig. 9 "RDG w/o TCU" and
/// the tuned SIMD compare point): the same `acc += U·X·V` with scalar
/// FMAs over the band only, as a hand-written CUDA-core kernel computes
/// it. `w` may hold any value and any `S`; `acc` is the strip's
/// accumulator, 8 rows of `8·n` columns, row-major, and `t` is scratch of
/// at least `8 × w.width()`. Charges nothing: the caller charges
/// [`scalar_term_flops`] per sub-tile.
///
/// * Step 1 forms the tensor-core kernel's sums, row-major, on `term.u`:
///   `T[p][x] = Σ_i u[i]·W[p+shift+i][x]`, seeded at `+0.0`, `i`
///   increasing.
/// * Step 2, per output column `x`:
///   `s[x] = Σ_k v[k]·T[p][x+shift+k]`, seeded at `+0.0`, `k`
///   increasing, then `acc[p][x] += s[x]`.
///
/// Only the band's products are formed, and every one of them is, so
/// the operation sequence per element does not depend on the input:
/// non-finite windows need no check and no fallback.
#[inline(always)]
pub fn rdg_apply_term_strip_scalar(
    w: &StripWindow,
    term: &RankOneTerm,
    t: &mut [f64],
    acc: &mut [f64],
) {
    let shift = w.geo.h - term.radius();
    strip_step1(w, &term.u, shift, t);
    let (width, aw) = (w.width(), TILE_M * w.n);
    for p in 0..MMA_M {
        let tp = &t[p * width + shift..];
        for (x0, out) in (0..aw).step_by(MMA_N).zip(acc[p * aw..][..aw].chunks_exact_mut(MMA_N)) {
            let mut s = [0.0f64; MMA_N];
            for (k, &vk) in term.v.iter().enumerate() {
                for (sq, &tv) in s.iter_mut().zip(&tp[x0 + k..][..MMA_N]) {
                    *sq += vk * tv;
                }
            }
            for (a, sq) in out.iter_mut().zip(s) {
                *a += sq;
            }
        }
    }
}

/// The CUDA-core FLOPs one scalar term costs one 8×8 sub-tile on the
/// modeled device, times the backend's `issue` overhead: step 1 over all
/// `S` columns of `T` (`2·n_t·8·S`, as the modeled kernel computes
/// them), step 2 (`2·n_t·64`) and the accumulate (`64`).
pub fn scalar_term_flops(term: &RankOneTerm, geo: RdgGeometry, issue: u64) -> u64 {
    let (n_t, tile) = (term.u.len(), MMA_M * MMA_N);
    (2 * n_t * MMA_M * geo.s + 2 * n_t * tile + tile) as u64 * issue
}

/// Strip form of [`apply_pointwise`], the tip of every backend: the same
/// `acc + pw·X[h+p][h+q]` per element, one row of the strip at a time.
/// `acc` is the strip's row-major accumulator. Charges nothing
/// (`2·64` CUDA-core FLOPs per sub-tile on the modeled device when
/// `pw ≠ 0`).
#[inline(always)]
pub fn apply_pointwise_strip(w: &StripWindow, pw: f64, acc: &mut [f64]) {
    if pw == 0.0 {
        return;
    }
    let aw = TILE_M * w.n;
    for p in 0..MMA_M {
        for (a, &x) in acc[p * aw..][..aw].iter_mut().zip(w.center_row(p)) {
            *a += pw * x;
        }
    }
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

    /// Every `(S, n_t, shift)` the registry's 2-D and 3-D kernels lower to
    /// on the tensor cores, fused or not, with fusion overridden up to 3×.
    fn registry_band_shapes() -> std::collections::BTreeSet<(usize, usize, usize)> {
        use crate::plan::{DeviceBackend, ExecConfig, Plan};
        use crate::schedule::{Schedule, ScheduleParams};
        let mut kernels = stencil_core::kernels::all_kernels();
        kernels.extend(stencil_core::kernels_ext::all_extended());
        let mut shapes = std::collections::BTreeSet::new();
        for kernel in kernels.iter().filter(|k| k.dims() >= 2) {
            for allow_fusion in [true, false] {
                for fuse_override in [None, Some(1), Some(2), Some(3)] {
                    let config = ExecConfig {
                        backend: DeviceBackend::TcuF64,
                        allow_fusion,
                        ..ExecConfig::full()
                    };
                    let params = ScheduleParams { fuse_override, ..ScheduleParams::default() };
                    let sched = Schedule::lower(&Plan::new_with_params(kernel, config, params));
                    for lt in sched.terms.iter().filter(|_| sched.geo.s <= BAND_MAX_S) {
                        let (taps, shift) = (lt.term.u.len(), sched.h - lt.term.radius());
                        shapes.insert((sched.geo.s, taps, shift));
                        if allow_fusion && fuse_override.is_none() {
                            assert!(
                                SPECIALIZED.contains(&(taps, shift)),
                                "{} lowers to ({taps}, {shift}) by default: specialize it",
                                kernel.name
                            );
                        }
                    }
                }
            }
        }
        shapes
    }

    /// The strip kernel's accumulator after `chain` on `w` from `init`,
    /// with the counters the caller charges for it.
    fn strip_chain(
        isa: impl StripIsa,
        w: &StripWindow,
        chain: &[TermFrags],
        init: &[f64],
    ) -> (Vec<f64>, PerfCounters) {
        assert!(w.finite() && chain.iter().all(|tf| w.admits(tf)));
        let fresh = init.iter().all(|&a| a.to_bits() == 0);
        let (mut tt, mut acc_t) = (vec![0.0; STRIP_TT_LEN], vec![0.0; STRIP_ACC_T_LEN]);
        let mut acc = init.to_vec();
        let (tt, acc_t) = (&mut tt, &mut acc_t);
        rdg_apply_chain_strip(isa, w, chain.iter(), fresh, tt, acc_t, &mut acc, StripOut::Acc);
        let mut counters = PerfCounters::new();
        for _ in 0..w.n {
            for tf in chain {
                tf.charge(w.geo, &mut counters);
            }
        }
        (acc, counters)
    }

    /// Run `f` on every strip-kernel ISA token this host supports.
    fn for_each_isa(
        mut f: impl FnMut(&str, &dyn Fn(&StripWindow, &[TermFrags], &[f64]) -> (Vec<f64>, PerfCounters)),
    ) {
        f("portable", &|w, c, i| strip_chain(Portable, w, c, i));
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: detected just above
                let isa = unsafe { Avx2::new_unchecked() };
                f("avx2", &move |w, c, i| strip_chain(isa, w, c, i));
            }
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: detected just above
                let isa = unsafe { Avx512f::new_unchecked() };
                f("avx512f", &move |w, c, i| strip_chain(isa, w, c, i));
            }
        }
    }

    /// Every compile-time instance of the strip kernel, and the generic
    /// instance on every band shape the registry and fusion produce
    /// (S = 16, 24, 32), must reproduce the fragment chain bit for bit,
    /// counters included: under both step-2 orders, dense and 2:4
    /// charges, from a zero and a nonzero accumulator, on strips of 1, 2,
    /// 3 and 37 sub-tiles (37 spans a whole column block and part of a
    /// second), on every ISA token the host supports.
    #[test]
    fn every_strip_kernel_instance_matches_the_generic_one_and_the_fragment_chain() {
        let shapes = registry_band_shapes();
        for &(taps, shift) in SPECIALIZED {
            assert!(shapes.iter().any(|&(_, t, s)| (t, s) == (taps, shift)), "({taps}, {shift})");
        }
        assert_eq!(
            shapes.iter().map(|&(s, ..)| s).collect::<std::collections::BTreeSet<_>>(),
            [16, 24, 32].into()
        );
        for &(s, taps, shift) in &shapes {
            let geo = RdgGeometry::for_radius(shift + taps / 2);
            assert_eq!(geo.s, s);
            let scale = 1.0 / taps as f64;
            let term = RankOneTerm::new(
                (0..taps).map(|t| (0.3 + 0.1 * t as f64) * scale).collect(),
                (0..taps).map(|t| (1.1 - 0.2 * t as f64) * scale).collect(),
            );
            // the default kernels' companion term, so chains mix shapes
            let tip3 = RankOneTerm::new(vec![0.75, 0.0, -0.25], vec![0.5, 1.0, 1.25]);
            for n in [1usize, 2, 3, 37] {
                let width = StripWindow::width_for(geo, n);
                let (tile, _) = random_tile(width, (1000 * s + 10 * taps + shift + n) as u64);
                let w = strip_of(&tile, geo, n);
                let seeded: Vec<f64> =
                    (0..MMA_M * TILE_M * n).map(|i| (i % 13) as f64 - 6.5).collect();
                for (use_bvs, sparse, init) in [
                    (true, false, false),
                    (false, false, false),
                    (true, true, true),
                    (false, true, true),
                ] {
                    let case = format!(
                        "S={s} taps={taps} shift={shift} n={n} bvs={use_bvs} sparse={sparse} \
                         init={init}"
                    );
                    let build = |t: &RankOneTerm| {
                        if sparse {
                            TermFrags::build_sparse(t, geo, use_bvs)
                        } else {
                            TermFrags::build(t, geo, use_bvs)
                        }
                    };
                    let chain = [build(&term), build(&tip3)];
                    assert_eq!(chain[0].is_fixed(), SPECIALIZED.contains(&(taps, shift)), "{case}");
                    let mut generic = chain.clone();
                    generic.iter_mut().for_each(TermFrags::force_generic);
                    let init: Vec<f64> =
                        if init { seeded.clone() } else { vec![0.0; seeded.len()] };

                    // the fragment chain, sub-tile by sub-tile
                    let aw = TILE_M * n;
                    let mut ctx = SimContext::new();
                    let mut want = init.clone();
                    for j in 0..n {
                        let mut acc = FragAcc::zero();
                        for p in 0..MMA_M {
                            for q in 0..MMA_N {
                                acc.set(p, q, init[p * aw + TILE_M * j + q]);
                            }
                        }
                        let mut x = XFragments::empty(geo);
                        x.load_into_at(&mut SimContext::new(), &tile, geo, 0, TILE_M * j);
                        for tf in &chain {
                            if sparse {
                                rdg_apply_term_sparse_into(&mut ctx, &x, tf, &mut acc, 1);
                            } else {
                                rdg_apply_term_frags_into(&mut ctx, &x, tf, &mut acc, 1);
                            }
                        }
                        for p in 0..MMA_M {
                            for q in 0..MMA_N {
                                want[p * aw + TILE_M * j + q] = acc.get(p, q);
                            }
                        }
                    }
                    for_each_isa(|isa, run| {
                        for (instance, chain) in [("instance", &chain), ("generic", &generic)] {
                            let (got, counters) = run(&w, chain, &init);
                            for (i, (g, e)) in got.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    g.to_bits(),
                                    e.to_bits(),
                                    "{case} {isa} {instance}: row {} column {}",
                                    i / aw,
                                    i % aw
                                );
                            }
                            assert_eq!(counters.fields(), ctx.counters.fields(), "{case} {isa}");
                        }
                    });
                }
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

    /// A full-radius and a centered 3-tap term for radius `h`, weights
    /// scaled by `1/n_t` so sums stay near 1 at any radius.
    fn scalar_terms(h: usize) -> [RankOneTerm; 2] {
        let taps = 2 * h + 1;
        let scale = 1.0 / taps as f64;
        [
            RankOneTerm::new(
                (0..taps).map(|t| (0.3 + 0.1 * t as f64) * scale).collect(),
                (0..taps).map(|t| (1.1 - 0.2 * t as f64) * scale).collect(),
            ),
            RankOneTerm::new(vec![0.75, 0.0, -0.25], vec![0.5, 1.0, 1.25]),
        ]
    }

    /// The scalar strip evaluator's accumulator for `term` on `w`.
    fn scalar_strip(w: &StripWindow, term: &RankOneTerm, n: usize) -> Vec<f64> {
        let mut t = vec![0.0; MMA_M * w.width()];
        let mut acc = vec![0.0; MMA_M * TILE_M * n];
        rdg_apply_term_strip_scalar(w, term, &mut t, &mut acc);
        acc
    }

    #[test]
    fn cuda_path_matches_tcu_path() {
        // each sub-tile of a three-sub-tile strip against the dense
        // reference and the tensor-core fragment chain, up to S = 48 >
        // BAND_MAX_S
        const N: usize = 3;
        for h in [1usize, 3, 4, 20] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(StripWindow::width_for(geo, N), 700 + h as u64);
            let w = strip_of(&tile, geo, N);
            for term in &scalar_terms(h) {
                let acc = scalar_strip(&w, term, N);
                for j in 0..N {
                    let dense = WeightMatrix::from_fn(geo.s + 1, |r, c| {
                        if r < geo.s && c < geo.s {
                            tile.peek(r, TILE_M * j + c)
                        } else {
                            0.0
                        }
                    });
                    let want = rdg_reference(&dense, term, h);
                    let mut x = XFragments::empty(geo);
                    x.load_into_at(&mut SimContext::new(), &tile, geo, 0, TILE_M * j);
                    let tcu =
                        rdg_apply_term(&mut SimContext::new(), &x, term, true, FragAcc::zero());
                    for p in 0..MMA_M {
                        for q in 0..MMA_N {
                            let got = acc[p * TILE_M * N + TILE_M * j + q];
                            let case =
                                format!("h={h} taps={} sub-tile {j} ({p},{q})", term.u.len());
                            assert!(
                                (got - want[p][q]).abs() < 1e-12,
                                "{case}: {got} vs {}",
                                want[p][q]
                            );
                            assert!((got - tcu.get(p, q)).abs() < 1e-12, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_path_is_bit_identical_to_cuda_path_at_one_seventh_the_overhead() {
        // the two scalar backends share one evaluator: values match to the
        // bit and only the issue-overhead multiplier differs
        const N: usize = 3;
        for h in [1usize, 3, 4, 20] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(StripWindow::width_for(geo, N), 600 + h as u64);
            let w = strip_of(&tile, geo, N);
            for term in &scalar_terms(h) {
                let run = |issue: u64| {
                    let flops = N as u64 * scalar_term_flops(term, geo, issue);
                    (scalar_strip(&w, term, N), flops)
                };
                let (acc_cuda, cuda_flops) = run(CUDA_RDG_ISSUE_OVERHEAD);
                let (acc_simd, simd_flops) = run(SIMD_RDG_ISSUE_OVERHEAD);
                let case = format!("h={h} taps={}", term.u.len());
                for (a, b) in acc_simd.iter().zip(&acc_cuda) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{case}");
                }
                // identical FLOP count, scaled by 2 instead of 14
                assert_eq!(
                    simd_flops * CUDA_RDG_ISSUE_OVERHEAD,
                    cuda_flops * SIMD_RDG_ISSUE_OVERHEAD
                );
                // per sub-tile: step 1 over all S columns, step 2, accumulate
                let n_t = term.u.len() as u64;
                let per_sub = 2 * n_t * 8 * geo.s as u64 + 2 * n_t * 64 + 64;
                assert_eq!(cuda_flops, N as u64 * per_sub * CUDA_RDG_ISSUE_OVERHEAD, "{case}");
            }
        }
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
