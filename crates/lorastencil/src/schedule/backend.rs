//! The backend seam: the device-specific compute behind the schedule
//! interpreter.
//!
//! A [`Backend`] owns the per-tile accumulators and knows how to run the
//! compute ops of a [`Schedule`] — the staging/addressing/boundary logic
//! stays in the interpreter, which is exactly the seam that lets a
//! future backend slot in without touching the per-dimension lowering.
//! Three implementations, four backends:
//!
//! * [`TcuF64`] — the simulated A100 FP64 tensor-core path (MMA chains
//!   via prebuilt fragments, pointwise tip on CUDA cores). This is the
//!   lane-exact per-sub-tile walk: the interpreter runs 2-D and 3-D
//!   schedules strip by strip instead (`rdg_apply_term_strip`) and comes
//!   here only for 1-D, for `S > BAND_MAX_S` and for job rows whose input
//!   the strip evaluator cannot reproduce bit for bit.
//! * [`SparseTcu`] — the structured-sparse tensor-core path: terms whose
//!   banded `U` fragments satisfy the 2:4 constraint run as `mma.sp`
//!   chains (half the tensor FLOPs, plus metadata-register loads); terms
//!   that don't fall back to the dense chain per term. Bit-identical to
//!   [`TcuF64`] — skipping zero products cannot change a
//!   round-to-nearest sum seeded at `+0.0` — and sharing its strip
//!   evaluator.
//! * [`ScalarCore`] — the two backends without tensor cores, one host
//!   evaluator ([`rdg_apply_term_scalar`]) over the transposed window
//!   with two modeled issue charges: [`CudaCore`], the scalar ablation
//!   path (Fig. 9 "RDG w/o TCU", 14 issue ops per FLOP), and
//!   [`SimdCore`], the tuned "no tensor cores" compare point (2).
//!   Their values are identical; only `cuda_flops` differs.
//!
//! Note what is *not* here: BVS. The butterfly split is baked into the
//! prebuilt `V` fragments at lowering time (Eq. 17), so both splits
//! reach the backend as the same MMA chain.

use super::{AccFold, LoweredTerm, Schedule};
use crate::rdg::{
    apply_pointwise, apply_pointwise_band, rdg_apply_term_frags_into, rdg_apply_term_scalar,
    rdg_apply_term_sparse_into, BandWindow, XFragments, CUDA_RDG_ISSUE_OVERHEAD, MAX_MMA_BATCH,
    SIMD_RDG_ISSUE_OVERHEAD, TILE_M,
};
use foundation::obs::Counter;
use std::sync::OnceLock;
use tcu_sim::{FragA, FragAcc, SharedTile, SimContext, MMA_K, MMA_N};

/// The `obs` counter `rdg_band_fallback`: tensor-core terms evaluated on
/// the fragment path instead of on strips (a job row with a non-finite
/// window or a `T` that could overflow, or `S > BAND_MAX_S`).
pub fn band_fallbacks() -> &'static Counter {
    static COUNTER: OnceLock<&'static Counter> = OnceLock::new();
    COUNTER.get_or_init(|| foundation::obs::counter("rdg_band_fallback"))
}

/// Device-specific compute for one output tile. One instance lives on
/// the interpreter's stack per tile; accumulators start at zero.
pub trait Backend: Default {
    /// Whether the backend reads the staged tile only through the
    /// transposed [`BandWindow`], so every `FragBuild` stages the window
    /// and never builds fragments. The tensor-core backends build
    /// fragments and never touch the window.
    const WINDOW_ONLY: bool = false;

    /// Run the RDG chains of `terms` (all against the currently staged
    /// tile: X fragments in `x`, or the window in `band` when the
    /// backend is [`WINDOW_ONLY`](Backend::WINDOW_ONLY)), then the
    /// pointwise pyramid tip if `pointwise` is present (its weight may be
    /// `0.0` — the backend still owns the span structure).
    fn term_chain(
        &mut self,
        ctx: &mut SimContext,
        x: &mut XFragments,
        band: &mut BandWindow,
        sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    );

    /// The fused 1-D gather (§IV-C): one banded MM over the staged
    /// segment matrix.
    fn gather_1d(&mut self, ctx: &mut SimContext, tile: &SharedTile, sched: &Schedule);

    /// The scalar accumulator (plane-wise CUDA-core MACs write here).
    fn vals_mut(&mut self) -> &mut [[f64; MMA_N]; TILE_M];

    /// Fold the accumulators into the tile's output values.
    fn finish(&mut self, fold: AccFold) -> [[f64; MMA_N]; TILE_M];
}

/// The simulated FP64 tensor-core backend.
#[derive(Debug)]
pub struct TcuF64 {
    frag: FragAcc,
    vals: [[f64; MMA_N]; TILE_M],
}

impl TcuF64 {
    /// Fresh zeroed accumulators.
    pub fn new() -> Self {
        TcuF64 { frag: FragAcc::zero(), vals: [[0.0; MMA_N]; TILE_M] }
    }

    /// The term chain of both tensor-core backends on the lane-exact
    /// fragments (`sparse` selects [`SparseTcu`]'s `mma.sp` chains). Every
    /// term counts as a `rdg_band_fallback`.
    #[inline(always)]
    fn chain(
        &mut self,
        ctx: &mut SimContext,
        x: &XFragments,
        sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
        sparse: bool,
    ) {
        {
            let _mma_batch = foundation::obs::span("mma_batch");
            for lt in terms {
                let tf = lt.frags.as_ref().expect("TCU backend needs prebuilt fragments");
                if sparse {
                    // sparse chain when this term compressed; dense
                    // fallback (inside) when it didn't — per term, not
                    // per kernel
                    rdg_apply_term_sparse_into(ctx, x, tf, &mut self.frag, sched.mma_batch);
                } else {
                    rdg_apply_term_frags_into(ctx, x, tf, &mut self.frag, sched.mma_batch);
                }
            }
            if !terms.is_empty() {
                band_fallbacks().add(terms.len() as u64);
            }
        }
        if let Some(pw) = pointwise {
            let _pointwise = foundation::obs::span("pointwise");
            apply_pointwise(ctx, x, pw, &mut self.frag);
        }
    }
}

impl Default for TcuF64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for TcuF64 {
    #[inline(always)]
    fn term_chain(
        &mut self,
        ctx: &mut SimContext,
        x: &mut XFragments,
        _band: &mut BandWindow,
        sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    ) {
        self.chain(ctx, x, sched, terms, pointwise, false);
    }

    #[inline(always)]
    fn gather_1d(&mut self, ctx: &mut SimContext, tile: &SharedTile, sched: &Schedule) {
        let _mma_batch = foundation::obs::span("mma_batch");
        let frag = &mut self.frag;
        if sched.mma_batch <= 1 {
            for (blk, vf) in sched.v1d.iter().enumerate() {
                let a = tile.load_frag_a(ctx, 0, (blk * MMA_K) as isize);
                ctx.mma_into(&a, vf, frag);
            }
            return;
        }
        // batched form: extract a run of A fragments, then issue one
        // register-resident chain (bit-identical to the sequential loop —
        // same loads in the same order, same per-lane FMA sequence)
        let batch = sched.mma_batch.min(MAX_MMA_BATCH);
        let n = sched.v1d.len();
        let mut blk = 0;
        while blk < n {
            let end = (blk + batch).min(n);
            let cnt = end - blk;
            let mut a_store = [FragA::zero(); MAX_MMA_BATCH];
            for (i, b) in (blk..end).enumerate() {
                a_store[i] = tile.load_frag_a(ctx, 0, (b * MMA_K) as isize);
            }
            let mut a_refs: [&FragA; MAX_MMA_BATCH] = [&a_store[0]; MAX_MMA_BATCH];
            let mut b_refs = [&sched.v1d[0]; MAX_MMA_BATCH];
            for i in 0..cnt {
                a_refs[i] = &a_store[i];
                b_refs[i] = &sched.v1d[blk + i];
            }
            ctx.mma_chain_into(&a_refs[..cnt], &b_refs[..cnt], frag);
            blk = end;
        }
    }

    #[inline]
    fn vals_mut(&mut self) -> &mut [[f64; MMA_N]; TILE_M] {
        &mut self.vals
    }

    #[inline]
    fn finish(&mut self, fold: AccFold) -> [[f64; MMA_N]; TILE_M] {
        match fold {
            AccFold::FragOnly => self.frag.to_matrix(),
            AccFold::Merge => {
                // fold the tensor-core accumulator into the scalar one
                let acc = self.frag.to_matrix();
                for (row, acc_row) in self.vals.iter_mut().zip(&acc) {
                    for (v, &a) in row.iter_mut().zip(acc_row) {
                        *v += a;
                    }
                }
                self.vals
            }
            AccFold::Vals => self.vals,
        }
    }
}

/// The structured-sparse tensor-core backend: dense MMA chains swapped
/// for `mma.sp` chains wherever a term's `U` fragments compress 2:4.
/// The accumulator plumbing (fold, 1-D gather) is [`TcuF64`]'s.
#[derive(Debug, Default)]
pub struct SparseTcu {
    inner: TcuF64,
}

impl SparseTcu {
    /// Fresh zeroed accumulators.
    pub fn new() -> Self {
        SparseTcu { inner: TcuF64::new() }
    }
}

impl Backend for SparseTcu {
    #[inline(always)]
    fn term_chain(
        &mut self,
        ctx: &mut SimContext,
        x: &mut XFragments,
        _band: &mut BandWindow,
        sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    ) {
        self.inner.chain(ctx, x, sched, terms, pointwise, true);
    }

    fn gather_1d(&mut self, _ctx: &mut SimContext, _tile: &SharedTile, _sched: &Schedule) {
        // 1-D lowering always selects TcuF64: the fused gather's A
        // operand is the staged segment matrix (dense data), not a
        // banded weight matrix, so 2:4 never applies
        unreachable!("1-D lowering always selects the dense tensor-core backend (§IV-C)");
    }

    #[inline]
    fn vals_mut(&mut self) -> &mut [[f64; MMA_N]; TILE_M] {
        self.inner.vals_mut()
    }

    #[inline]
    fn finish(&mut self, fold: AccFold) -> [[f64; MMA_N]; TILE_M] {
        self.inner.finish(fold)
    }
}

/// The scalar backends: one host evaluator
/// ([`rdg_apply_term_scalar`]) over the transposed window, charging
/// `ISSUE` modeled issue ops per FLOP. [`CudaCore`] and [`SimdCore`]
/// compute identical bits and differ only in that charge.
#[derive(Debug)]
pub struct ScalarCore<const ISSUE: u64> {
    vals: [[f64; MMA_N]; TILE_M],
}

/// The scalar CUDA-core ablation backend (Fig. 9 "RDG w/o TCU"), charged
/// at [`CUDA_RDG_ISSUE_OVERHEAD`] issue ops per FLOP.
pub type CudaCore = ScalarCore<CUDA_RDG_ISSUE_OVERHEAD>;

/// The tuned host-SIMD backend, the honest "no tensor cores" compare
/// point: [`CudaCore`]'s evaluator charged at [`SIMD_RDG_ISSUE_OVERHEAD`].
pub type SimdCore = ScalarCore<SIMD_RDG_ISSUE_OVERHEAD>;

impl<const ISSUE: u64> ScalarCore<ISSUE> {
    /// The span the term chain runs under.
    const SPAN: &'static str =
        if ISSUE == CUDA_RDG_ISSUE_OVERHEAD { "cuda_terms" } else { "simd_terms" };

    /// Fresh zeroed accumulator.
    pub fn new() -> Self {
        ScalarCore { vals: [[0.0; MMA_N]; TILE_M] }
    }
}

impl<const ISSUE: u64> Default for ScalarCore<ISSUE> {
    fn default() -> Self {
        Self::new()
    }
}

/// An 8×8 matrix transposed.
#[inline(always)]
fn transpose(m: &[[f64; 8]; 8]) -> [[f64; 8]; 8] {
    std::array::from_fn(|i| std::array::from_fn(|j| m[j][i]))
}

impl<const ISSUE: u64> Backend for ScalarCore<ISSUE> {
    const WINDOW_ONLY: bool = true;

    #[inline(always)]
    fn term_chain(
        &mut self,
        ctx: &mut SimContext,
        _x: &mut XFragments,
        band: &mut BandWindow,
        _sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    ) {
        let _terms = foundation::obs::span(Self::SPAN);
        // the evaluator accumulates eight rows at a time into the
        // transposed accumulator; moving it in and out is exact
        let mut acc = transpose(&self.vals);
        for lt in terms {
            rdg_apply_term_scalar(ctx, band, &lt.term, ISSUE, &mut acc);
        }
        if let Some(pw) = pointwise {
            apply_pointwise_band(ctx, band, pw, &mut acc);
        }
        self.vals = transpose(&acc);
    }

    fn gather_1d(&mut self, _ctx: &mut SimContext, _tile: &SharedTile, _sched: &Schedule) {
        unreachable!("1-D lowering always selects the tensor-core backend (§IV-C)");
    }

    #[inline]
    fn vals_mut(&mut self) -> &mut [[f64; MMA_N]; TILE_M] {
        &mut self.vals
    }

    #[inline]
    fn finish(&mut self, _fold: AccFold) -> [[f64; MMA_N]; TILE_M] {
        self.vals
    }
}
