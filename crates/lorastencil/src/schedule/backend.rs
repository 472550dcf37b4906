//! The backend seam: what is left of the device backend once lowering
//! has picked one.
//!
//! [`Schedule::lower`] resolves the backend into data: prebuilt weight
//! fragments on the tensor cores (2:4-compressed per term for
//! `SparseTcu`, [`TermFrags::is_sparse`](crate::rdg::TermFrags::is_sparse)),
//! the raw `u`/`v` vectors on the scalar backends. So the interpreter
//! has no backend type and one compiled job loop per host ISA. Two
//! things still read the [`BackendKind`]:
//!
//! * the span a term chain runs under ([`BackendKind::terms_span`]):
//!   `mma_batch` on the tensor cores, `cuda_terms`/`simd_terms` on the
//!   scalar backends;
//! * the modeled issue charge of a scalar chain
//!   ([`BackendKind::scalar_issue`]): `CudaCore` (Fig. 9 "RDG w/o TCU")
//!   and `SimdCore` (the tuned "no tensor cores" compare point) compute
//!   identical bits and differ only in `cuda_flops`.
//!
//! 2-D and 3-D schedules of all four backends run on strips
//! (`stepper::run_strips`). The per-sub-tile walk and its accumulator,
//! [`WalkAcc`], run only the lane-exact tensor-core fragment chain: for
//! 1-D, for `S > BAND_MAX_S`, for a job row that fails the strip check,
//! and as the reference the strip tests compare against.
//!
//! Note what is *not* here: BVS. The butterfly split is baked into the
//! prebuilt `V` fragments at lowering time (Eq. 17), so both splits
//! reach the interpreter as the same MMA chain.

use super::{AccFold, BackendKind, LoweredTerm, Schedule};
use crate::rdg::{
    apply_pointwise, rdg_apply_term_sparse_into, XFragments, CUDA_RDG_ISSUE_OVERHEAD,
    MAX_MMA_BATCH, SIMD_RDG_ISSUE_OVERHEAD, TILE_M,
};
use foundation::obs::Counter;
use std::sync::OnceLock;
use tcu_sim::{FragA, FragAcc, SharedTile, SimContext, MMA_K, MMA_N};

/// The `obs` counter `rdg_band_fallback`: tensor-core terms evaluated on
/// the fragment path instead of on strips (a job row with a non-finite
/// window or a `T` that could overflow, or `S > BAND_MAX_S`). The scalar
/// backends never add to it.
pub fn band_fallbacks() -> &'static Counter {
    static COUNTER: OnceLock<&'static Counter> = OnceLock::new();
    COUNTER.get_or_init(|| foundation::obs::counter("rdg_band_fallback"))
}

impl BackendKind {
    /// The span this backend's term chains run under.
    pub(crate) fn terms_span(self) -> &'static str {
        match self {
            BackendKind::TcuF64 | BackendKind::SparseTcu => "mma_batch",
            BackendKind::CudaCore => "cuda_terms",
            BackendKind::SimdCore => "simd_terms",
        }
    }

    /// Modeled issue ops per FLOP of a scalar term chain
    /// ([`CUDA_RDG_ISSUE_OVERHEAD`] or [`SIMD_RDG_ISSUE_OVERHEAD`]);
    /// `None` on the tensor cores.
    pub(crate) fn scalar_issue(self) -> Option<u64> {
        match self {
            BackendKind::TcuF64 | BackendKind::SparseTcu => None,
            BackendKind::CudaCore => Some(CUDA_RDG_ISSUE_OVERHEAD),
            BackendKind::SimdCore => Some(SIMD_RDG_ISSUE_OVERHEAD),
        }
    }
}

/// The per-sub-tile walk's accumulators for one 8×8 output tile: the
/// tensor-core accumulator fragment, and the scalar values the
/// `PointwisePlane` MACs add to. One lives on the interpreter's stack
/// per sub-tile; both start at zero.
#[derive(Debug)]
pub(crate) struct WalkAcc {
    frag: FragAcc,
    /// The scalar accumulator.
    pub vals: [[f64; MMA_N]; TILE_M],
}

impl WalkAcc {
    /// Fresh zeroed accumulators.
    pub fn new() -> Self {
        WalkAcc { frag: FragAcc::zero(), vals: [[0.0; MMA_N]; TILE_M] }
    }

    /// The RDG chains of `terms` against the staged fragments `x`, then
    /// the pointwise pyramid tip if `pointwise` is present (its weight
    /// may be `0.0`). A term issues `mma.sp` when it compressed 2:4 at
    /// lowering and the dense chain otherwise. Every term counts as a
    /// `rdg_band_fallback`.
    #[inline(always)]
    pub fn chain(
        &mut self,
        ctx: &mut SimContext,
        x: &XFragments,
        sched: &Schedule,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    ) {
        {
            let _mma_batch = foundation::obs::span("mma_batch");
            for lt in terms {
                let tf = lt.frags.as_ref().expect("the walk runs tensor-core terms only");
                rdg_apply_term_sparse_into(ctx, x, tf, &mut self.frag, sched.mma_batch);
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

    /// The fused 1-D gather (§IV-C): one banded MM over the staged
    /// segment matrix.
    #[inline(always)]
    pub fn gather_1d(&mut self, ctx: &mut SimContext, tile: &SharedTile, sched: &Schedule) {
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

    /// Fold the accumulators into the tile's output values.
    #[inline]
    pub fn finish(&mut self, fold: AccFold) -> [[f64; MMA_N]; TILE_M] {
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
