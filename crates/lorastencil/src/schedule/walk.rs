//! The per-sub-tile fragment walk: the lane-exact reference the strip
//! evaluator is tested against.
//!
//! The walk interprets a schedule's warp program once per 8×8 sub-tile
//! of a job (once per 64-point sub-chunk for 1-D) on the simulator's
//! primitives: it stages a macro window per input plane into simulated
//! shared memory, memoizing which plane the window holds, loads the
//! fragments, and issues every MMA of the fragment chain, charging as it
//! goes. Its output bits and counters are what the job loop's strips and
//! closed-form charges must reproduce. It runs tensor-core schedules
//! only.

use super::workspace::plane_at;
use super::{AccFold, LoweredTerm, Op, Schedule};
use crate::rdg::{apply_pointwise, rdg_apply_term_sparse_into, XFragments, TILE_M};
use stencil_core::tiling::{clamped_span, window_origin, Tile2D};
use tcu_sim::{
    acc_add, FragAcc, GlobalArray, PerfCounters, SharedTile, SimContext, MMA_K, MMA_M, MMA_N,
};

/// The walk's per-job buffers: the shared window and the tile's B
/// fragments.
struct WalkScratch {
    tile: SharedTile,
    x: XFragments,
}

/// Run every job of `sched` over `planes` on the walk, in job order:
/// the output planes and each job's counters.
pub(crate) fn walk(
    sched: &Schedule,
    jobs: &[(usize, Tile2D)],
    planes: &[GlobalArray],
) -> (Vec<GlobalArray>, Vec<PerfCounters>) {
    let mut out: Vec<GlobalArray> =
        planes.iter().map(|p| GlobalArray::new(p.rows(), p.cols())).collect();
    let cols = planes[0].cols();
    let mut scratch = WalkScratch { tile: SharedTile::new(0, 0), x: XFragments::empty(sched.geo) };
    let mut slots = Vec::with_capacity(jobs.len());
    for &(z, t) in jobs {
        let base = out[z].as_mut_slice().as_mut_ptr();
        slots.push(run_job(planes, sched, z, t, base, cols, &mut scratch));
    }
    (out, slots)
}

/// Per-job staging state threaded through a macro tile's sub-tiles:
/// which input plane the shared-memory window currently holds, plus
/// whether the job's compulsory HBM share is still to be charged.
struct StageState {
    staged: Option<usize>,
    center_fresh: bool,
}

/// The per-sub-tile walk of one macro job: loop its 8×8 sub-tiles
/// (64-point sub-chunks for 1-D), compute each with stack-local
/// accumulators, and write the disjoint output bands directly. One
/// tile-local context accumulates the whole job's counters.
#[allow(clippy::too_many_arguments)]
fn run_job(
    planes: &[GlobalArray],
    sched: &Schedule,
    z: usize,
    t: Tile2D,
    base: *mut f64,
    cols: usize,
    scratch: &mut WalkScratch,
) -> PerfCounters {
    let mut ctx = SimContext::new();
    let mut stage = StageState { staged: None, center_fresh: true };
    if sched.dims == 1 {
        // a macro 1-D job is a run of the classic 64-point sub-chunks
        let full = MMA_M * MMA_N;
        let mut off = 0;
        while off < t.w {
            let sub = Tile2D { r0: 0, c0: t.c0 + off, h: 1, w: full.min(t.w - off) };
            let vals = subtile(planes, sched, z, t, sub, &mut stage, &mut ctx, scratch);
            for (r, row) in vals.iter().enumerate() {
                let cnt = clamped_span(MMA_N * r, MMA_N, sub.w);
                if cnt == 0 {
                    break;
                }
                // disjoint span write, accounted like a store_span
                // SAFETY: sub-chunks write disjoint spans; `base` stays
                // valid because `out` is exclusively borrowed for the
                // whole application
                let band =
                    unsafe { std::slice::from_raw_parts_mut(base.add(sub.c0 + MMA_N * r), cnt) };
                band.copy_from_slice(&row[..cnt]);
                ctx.counters.global_bytes_written += (cnt * 8) as u64;
            }
            off += full;
        }
    } else {
        let mut sr = 0;
        while sr < t.h {
            let sh = TILE_M.min(t.h - sr);
            let mut sc = 0;
            while sc < t.w {
                let sw = TILE_M.min(t.w - sc);
                let sub = Tile2D { r0: t.r0 + sr, c0: t.c0 + sc, h: sh, w: sw };
                let vals = subtile(planes, sched, z, t, sub, &mut stage, &mut ctx, scratch);
                for (p, row) in vals.iter().enumerate().take(sub.h) {
                    let off = (sub.r0 + p) * cols + sub.c0;
                    // SAFETY: jobs (and their sub-tiles) write disjoint
                    // (z, band) regions
                    let band = unsafe { std::slice::from_raw_parts_mut(base.add(off), sub.w) };
                    band.copy_from_slice(&row[..sub.w]);
                    ctx.counters.global_bytes_written += (sub.w * 8) as u64;
                }
                sc += TILE_M;
            }
            sr += TILE_M;
        }
    }
    ctx.counters
}

/// One sub-tile's op walk with stack-local accumulators.
#[allow(clippy::too_many_arguments)]
fn subtile(
    planes: &[GlobalArray],
    sched: &Schedule,
    z: usize,
    job: Tile2D,
    sub: Tile2D,
    stage: &mut StageState,
    ctx: &mut SimContext,
    scratch: &mut WalkScratch,
) -> [[f64; MMA_N]; TILE_M] {
    let mut acc = WalkAcc::new();
    let h = sched.h;
    let mut i = 0;
    while i < sched.ops.len() {
        match sched.ops[i] {
            Op::SkipPlane { .. } => i += 1,
            Op::Stage { dz } => {
                // staging memoization: every sub-tile of the job reads
                // the same macro window, so a window that already holds
                // plane `dz` is reused as-is
                if stage.staged != Some(dz) {
                    // periodic z boundary, matching the grid convention
                    let src = plane_at(planes, z, dz, h);
                    // the macro window covers every sub-tile's S×S window
                    let wr = TILE_M * (job.h.div_ceil(TILE_M) - 1) + sched.geo.s;
                    let wc = TILE_M * (job.w.div_ceil(TILE_M) - 1) + sched.geo.s;
                    scratch.tile.reset(wr, wc);
                    // the job's own output footprint is its compulsory
                    // HBM share (charged once, on the plane for which
                    // this input is the kernel center); the halo ring and
                    // any re-stage are served by L2
                    let fresh = if dz == h && stage.center_fresh {
                        stage.center_fresh = false;
                        job.h * job.w
                    } else {
                        0
                    };
                    src.copy_to_shared_reuse(
                        ctx,
                        sched.copy_mode,
                        window_origin(job.r0, h),
                        window_origin(job.c0, h),
                        wr,
                        wc,
                        &mut scratch.tile,
                        0,
                        0,
                        fresh,
                    );
                    stage.staged = Some(dz);
                }
                i += 1;
            }
            Op::FragBuild => {
                let (r_off, c_off) = (sub.r0 - job.r0, sub.c0 - job.c0);
                scratch.x.load_into_at(ctx, &scratch.tile, sched.geo, r_off, c_off);
                i += 1;
            }
            Op::RdgGather => {
                scratch.tile.reset(MMA_M, sched.seg_len);
                for r in 0..MMA_M {
                    // 8 of the seg_len loaded elements are this segment's
                    // own outputs (compulsory); the rest is halo overlap
                    // in L2
                    let seg_out = clamped_span(MMA_N * r, MMA_N, sub.w);
                    planes[0].copy_to_shared_reuse(
                        ctx,
                        sched.copy_mode,
                        0,
                        window_origin(sub.c0 + MMA_N * r, h),
                        1,
                        sched.seg_len,
                        &mut scratch.tile,
                        r,
                        0,
                        seg_out,
                    );
                }
                acc.gather_1d(ctx, &scratch.tile, sched);
                i += 1;
            }
            Op::MmaChain { term } => {
                // collect the contiguous chain plus its pyramid tip: one
                // chain call per decomposition, reusing the X fragments
                let first = term as usize;
                let mut end = first + 1;
                i += 1;
                while let Some(&Op::MmaChain { term }) = sched.ops.get(i) {
                    end = term as usize + 1;
                    i += 1;
                }
                let pw = if let Some(&Op::Pointwise { weight }) = sched.ops.get(i) {
                    i += 1;
                    Some(weight)
                } else {
                    None
                };
                acc.chain(ctx, &scratch.x, &sched.terms[first..end], pw);
            }
            Op::Pointwise { weight } => {
                // term-less decomposition: still one (empty) chain call so
                // the phase structure is uniform
                acc.chain(ctx, &scratch.x, &[], Some(weight));
                i += 1;
            }
            Op::PointwisePlane { dz, weight } => {
                // CUDA-core point-wise path: direct coalesced reads (L2:
                // the compulsory HBM pass is charged where this plane is
                // the kernel center), no shared-memory staging
                // (Algorithm 2 line 5).
                let src = plane_at(planes, z, dz, h);
                let mut flops = 0u64;
                let mut span = [0.0f64; MMA_N];
                for (p, row) in acc.vals.iter_mut().enumerate() {
                    let r = sub.r0 + p;
                    if r >= src.rows() {
                        continue;
                    }
                    let cnt = clamped_span(sub.c0, MMA_N, src.cols());
                    if cnt == 0 {
                        continue;
                    }
                    let vals = &mut span[..cnt];
                    if dz == h {
                        src.load_span_into(ctx, r, sub.c0, vals);
                    } else {
                        src.load_span_cached_into(ctx, r, sub.c0, vals);
                    }
                    for (q, v) in vals.iter().enumerate() {
                        row[q] = acc_add(row[q], weight * v);
                    }
                    flops += 2 * cnt as u64;
                }
                ctx.cuda_flops(flops);
                i += 1;
            }
        }
    }
    let vals = acc.finish(sched.fold);
    // each application advances `fuse_steps` temporal steps of updates
    ctx.points((sub.h * sub.w * sched.fuse_steps) as u64);
    vals
}

/// The per-sub-tile walk's accumulators for one 8×8 output tile: the
/// tensor-core accumulator fragment, and the scalar values the
/// `PointwisePlane` MACs add to. One lives on the interpreter's stack
/// per sub-tile; both start at zero.
struct WalkAcc {
    frag: FragAcc,
    /// The scalar accumulator.
    vals: [[f64; MMA_N]; TILE_M],
}

impl WalkAcc {
    /// Fresh zeroed accumulators.
    fn new() -> Self {
        WalkAcc { frag: FragAcc::zero(), vals: [[0.0; MMA_N]; TILE_M] }
    }

    /// The RDG chains of `terms` against the staged fragments `x`, then
    /// the pointwise pyramid tip if `pointwise` is present (its weight
    /// may be `0.0`). A term issues `mma.sp` when it compressed 2:4 at
    /// lowering and the dense chain otherwise.
    fn chain(
        &mut self,
        ctx: &mut SimContext,
        x: &XFragments,
        terms: &[LoweredTerm],
        pointwise: Option<f64>,
    ) {
        for lt in terms {
            let tf = lt.frags.as_ref().expect("the walk runs tensor-core terms only");
            rdg_apply_term_sparse_into(ctx, x, tf, &mut self.frag);
        }
        if let Some(pw) = pointwise {
            apply_pointwise(ctx, x, pw, &mut self.frag);
        }
    }

    /// The fused 1-D gather (§IV-C): one banded MM over the staged
    /// segment matrix.
    fn gather_1d(&mut self, ctx: &mut SimContext, tile: &SharedTile, sched: &Schedule) {
        for (blk, vf) in sched.v1d_frags().iter().enumerate() {
            let a = tile.load_frag_a(ctx, 0, (blk * MMA_K) as isize);
            ctx.mma_into(&a, vf, &mut self.frag);
        }
    }

    /// Fold the accumulators into the tile's output values.
    fn finish(&mut self, fold: AccFold) -> [[f64; MMA_N]; TILE_M] {
        match fold {
            AccFold::FragOnly => self.frag.to_matrix(),
            AccFold::Merge => {
                // fold the tensor-core accumulator into the scalar one
                let acc = self.frag.to_matrix();
                for (row, acc_row) in self.vals.iter_mut().zip(&acc) {
                    for (v, &a) in row.iter_mut().zip(acc_row) {
                        *v = acc_add(*v, a);
                    }
                }
                self.vals
            }
            AccFold::Vals => self.vals,
        }
    }
}
