//! The generic schedule interpreter: one [`Workspace`]/[`Stepper`] pair
//! executes lowered [`Schedule`]s of any dimensionality.
//!
//! The host-side loop keeps the PR 2 steady-state guarantees: a
//! [`Stepper`] double-buffers the grid planes and reuses every per-apply
//! buffer, so an iteration allocates nothing and spawns no threads.
//! Units of work run in parallel and write their disjoint output bands
//! directly; each unit's counters land in a preallocated index-addressed
//! slot, one per unit of work, and the slots merge sequentially **in
//! unit order**, so counters and values are bit-identical at any thread
//! count.
//!
//! A *job* is one macro tile of [`Schedule::tile_h`] × [`Schedule::tile_w`]
//! output points (one modeled thread block). The interpreter evaluates
//! jobs in one of two ways:
//!
//! * **Strips** (every 2-D and 3-D schedule, on all four backends,
//!   unless `S > BAND_MAX_S` on the tensor cores). A *job row* is every
//!   job with the same `(z, r0)`; it spans the plane's width. The
//!   interpreter walks the op list once per 8-row strip of the row:
//!   each `Stage` stages the union of the strip's sub-tile S×S windows
//!   once, row-major, and each term's step 1 runs once across the strip,
//!   shared by horizontally adjacent sub-tiles; step 2, the tip, the
//!   point-wise planes and the fold follow, each element in its op
//!   order. The strip ends at its last op group: on the tensor cores the
//!   chain kernel adds that group's tip, folds and stores straight into
//!   the output plane; on the scalar backends one write-out pass adds the
//!   tip and stores. A tensor-core chain runs in the band-only
//!   strip kernel (`rdg_apply_chain_strip`), which keeps each element's
//!   fragment-chain operation sequence with `T` and the accumulator
//!   transposed inside it, on the term's compile-time instance where its
//!   band shape has one and the generic instance otherwise; the job
//!   loop's ISA token ([`StripIsa`]) supplies its vector operations and
//!   transposes. A scalar element keeps the scalar chain's sequence
//!   (`rdg_apply_term_strip_scalar`). Nothing is
//!   charged while evaluating: each job row's counters come at once from
//!   the closed forms of what the modeled device is charged per sub-tile
//!   ([`StripCharges`]). A tensor-core job row whose staged input the
//!   strip evaluator cannot reproduce bit for bit — a non-finite value
//!   anywhere in a staged strip, padding included, or a term whose `T`
//!   could overflow — runs the per-sub-tile walk instead. The scalar
//!   chains form every product, so they need no such check.
//! * **The per-sub-tile walk** (1-D, `S > BAND_MAX_S` and the
//!   tensor-core fallback: the lane-exact fragment chain only). The
//!   interpreter walks the warp program once per 8×8 **sub-tile** of a
//!   job. Macro tiles stage one large shared window per input plane and
//!   memoize which plane each shared slot holds, so sub-tiles after the
//!   first skip re-staging whenever the slot still matches — under
//!   [`Staging::Double`] two slots ping-pong, letting the next plane's
//!   halo loads overlap the live slot's MMA chain.
//!
//! Sub-tile boundaries stay on multiples of 8, so the global sub-tile set
//! (and with it every Eq. 12/13/16 counter and every FP operation order)
//! is identical for every tile size and for both ways.

use super::backend::WalkAcc;
use super::scratch::{with_tile_scratch, StripScratch, TileScratch};
use super::{plane_extents, AccFold, LoweredTerm, Op, Schedule, ScheduleParams, Staging};
use crate::plan::{ExecConfig, Plan};
use crate::rdg::{
    apply_pointwise_strip, rdg_apply_chain_strip, rdg_apply_term_strip_scalar, scalar_term_flops,
    Portable, StripIsa, StripOut, StripWindow, TermFrags, TILE_M,
};
#[cfg(target_arch = "x86_64")]
use crate::rdg::{Avx2, Avx512f};
use foundation::par::*;
use std::convert::Infallible;
use stencil_core::tiling::{clamped_span, tiles_1d, tiles_2d, window_origin, Tile2D};
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, CopyMode, GlobalArray, PerfCounters, SimContext, MMA_M, MMA_N};

/// Per-job staging state threaded through a macro tile's sub-tiles:
/// which input plane each shared-memory slot currently holds, plus
/// whether the job's compulsory HBM share is still to be charged.
struct StageState {
    staged: [Option<usize>; 2],
    center_fresh: bool,
}

/// The shared slot an op's `slot` payload addresses. 2-D schedules have
/// one Stage per application, so double buffering shows up as cross-job
/// parity: consecutive jobs alternate physical slots, overlapping job
/// `i+1`'s staging with job `i`'s chains.
#[inline]
fn eff_slot(sched: &Schedule, job_i: usize, slot: u8) -> usize {
    if sched.dims == 2 && sched.staging == Staging::Double {
        (slot as usize) ^ (job_i & 1)
    } else {
        slot as usize
    }
}

/// The plane an op addressing relative plane `dz` reads from output plane
/// `z`: periodic in z, matching the grid convention.
#[inline]
fn plane_at(planes: &[GlobalArray], z: usize, dz: usize, h: usize) -> &GlobalArray {
    &planes[(z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize) as usize]
}

/// Interpret one unit of work — a job row on strips, or a run of jobs on
/// the per-sub-tile walk — writing its counters into `slot`: a strip row
/// charges `charges` in closed form, a walked run the sum of its jobs'.
///
/// [`HostIsa`] compiles the loop once per vector unit, `isa` being that
/// unit's token. Every backend runs the same instance.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_unit<I: StripIsa>(
    isa: I,
    planes: &[GlobalArray],
    sched: &Schedule,
    charges: &StripCharges,
    first: usize,
    jobs: &[(usize, Tile2D)],
    base: *mut f64,
    cols: usize,
    scratch: &mut TileScratch,
    slot: &mut PerfCounters,
) {
    if sched.on_strips && run_strips(isa, planes, sched, jobs, base, cols, &mut scratch.strip) {
        *slot = charges.row(sched, jobs);
        return;
    }
    *slot = PerfCounters::new();
    for (k, &(z, t)) in jobs.iter().enumerate() {
        slot.merge(&run_job(planes, sched, first + k, z, t, base, cols, scratch));
    }
}

/// Evaluate one job row strip by strip and write its output rows.
/// Returns `false` as soon as a staged strip fails the tensor-core band
/// check — a non-finite value anywhere in the window, or a term whose
/// `T` could overflow — with the row's output partly written and nothing
/// charged; the caller then re-runs the whole row on the per-sub-tile
/// walk. A scalar schedule always returns `true`.
///
/// A strip ends at its last op group ([`strip_end`]). On the tensor cores
/// the strip kernel stores that group's chain, tip and fold straight into
/// the output rows; under `AccFold::Merge` the strip's `PointwisePlane`s
/// run into `vals` before any group, since they touch only `vals` and the
/// chains only `acc`. On the scalar backends the last tip is added by the
/// write-out pass. `acc` is zero-filled only before an op reads it while
/// nothing has written it yet.
#[inline(always)]
fn run_strips<I: StripIsa>(
    isa: I,
    planes: &[GlobalArray],
    sched: &Schedule,
    jobs: &[(usize, Tile2D)],
    base: *mut f64,
    cols: usize,
    st: &mut StripScratch,
) -> bool {
    let (z, row) = jobs[0];
    let (h, geo) = (sched.h, sched.geo);
    let scalar = sched.backend.scalar_issue().is_some();
    let merge = sched.fold == AccFold::Merge;
    let terms_span = sched.backend.terms_span();
    let end = strip_end(sched);
    // the row's sub-tiles span the plane: columns 0..8n of the accumulators
    let n = cols.div_ceil(TILE_M);
    let aw = TILE_M * n;
    st.reserve(StripWindow::width_for(geo, n), aw);
    let mut sr = 0;
    while sr < row.h {
        let r0 = row.r0 + sr;
        let rows = TILE_M.min(row.h - sr);
        // SAFETY: job rows (and their strips) write disjoint (z, band)
        // regions; `base` stays valid because `out` is exclusively
        // borrowed for the whole application
        let out = unsafe { std::slice::from_raw_parts_mut(base.add(r0 * cols), rows * cols) };
        if merge {
            st.vals[..MMA_M * aw].fill(0.0);
            for op in &sched.ops {
                if let Op::PointwisePlane { dz, weight } = *op {
                    add_plane(plane_at(planes, z, dz, h), weight, r0, rows, &mut st.vals, aw);
                }
            }
        }
        // whether nothing has written `acc` yet this strip
        let mut fresh = true;
        // the last group's tip, left to the write-out: (slot, weight)
        let mut tip = None;
        let mut stored = false;
        let mut cur = 0;
        let mut i = 0;
        while i < sched.ops.len() {
            match sched.ops[i] {
                Op::SkipPlane { .. } => i += 1,
                Op::Stage { dz, slot } => {
                    let _rdg_gather = foundation::obs::span("rdg_gather");
                    let w = &mut st.windows[slot as usize];
                    stage_strip(plane_at(planes, z, dz, h), window_origin(r0, h), sched, n, w);
                    // only the tensor-core evaluator skips products, so
                    // only it needs the window's magnitude
                    if !scalar {
                        w.seal();
                        if !w.finite() {
                            return false;
                        }
                    }
                    i += 1;
                }
                Op::FragBuild { slot } => {
                    cur = slot as usize;
                    i += 1;
                }
                Op::MmaChain { .. } | Op::Pointwise { .. } => {
                    // the contiguous chain plus its pyramid tip, grouped as
                    // the per-sub-tile walk groups them
                    let first = i;
                    while let Some(Op::MmaChain { .. }) = sched.ops.get(i) {
                        i += 1;
                    }
                    let chain = &sched.ops[first..i];
                    let mut pw = 0.0;
                    if let Some(&Op::Pointwise { weight }) = sched.ops.get(i) {
                        pw = weight;
                        i += 1;
                    }
                    let last = end == Some(i);
                    let w = &st.windows[cur];
                    if scalar {
                        // the scalar chain and a tip before the last run
                        // under one span
                        let _terms = foundation::obs::span(terms_span);
                        for op in chain {
                            zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                            let term = &chain_term(sched, op).term;
                            rdg_apply_term_strip_scalar(w, term, &mut st.t, &mut st.acc);
                        }
                        if last {
                            tip = (pw != 0.0).then_some((cur, pw));
                        } else if pw != 0.0 {
                            zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                            apply_pointwise_strip(w, pw, &mut st.acc);
                        }
                        continue;
                    }
                    if !chain.iter().all(|op| w.admits(chain_frags(sched, op))) {
                        return false;
                    }
                    if !chain.is_empty() {
                        let _terms = foundation::obs::span(terms_span);
                        let terms = chain.iter().map(|op| chain_frags(sched, op));
                        let (tt, acc_t) = (&mut st.tt, &mut st.acc_t);
                        let target = if last {
                            stored = true;
                            let vals = merge.then_some(&st.vals[..]);
                            StripOut::Plane { pw, vals, out: &mut *out, rows, cols }
                        } else {
                            StripOut::Acc
                        };
                        rdg_apply_chain_strip(isa, w, terms, fresh, tt, acc_t, &mut st.acc, target);
                        fresh = false;
                    }
                    if !stored && pw != 0.0 {
                        let _pointwise = foundation::obs::span("pointwise");
                        zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                        apply_pointwise_strip(w, pw, &mut st.acc);
                    }
                }
                Op::PointwisePlane { dz, weight } => {
                    // `Merge` ran the point-wise planes into `vals` above;
                    // `Vals` has one accumulator
                    if !merge {
                        zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                        add_plane(plane_at(planes, z, dz, h), weight, r0, rows, &mut st.acc, aw);
                    }
                    i += 1;
                }
                Op::RdgGather => unreachable!("1-D schedules do not run on strips"),
            }
        }
        if !stored {
            zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
            for (p, o) in out.chunks_exact_mut(cols).enumerate() {
                let acc = &st.acc[p * aw..][..cols];
                if merge {
                    // fold the tensor-core accumulator into the scalar one
                    let vals = &st.vals[p * aw..][..cols];
                    for ((o, &v), &a) in o.iter_mut().zip(vals).zip(acc) {
                        *o = v + a;
                    }
                } else if let Some((slot, pw)) = tip {
                    let xs = st.windows[slot].center_row(p);
                    for ((o, &a), &x) in o.iter_mut().zip(acc).zip(xs) {
                        *o = a + pw * x;
                    }
                } else {
                    o.copy_from_slice(acc);
                }
            }
        }
        sr += TILE_M;
    }
    true
}

/// The index just past the op group a strip ends with: the last
/// `Pointwise` op, when no op after it touches `acc` (only `SkipPlane`s
/// and, under `AccFold::Merge`, `PointwisePlane`s follow). `None` when a
/// `PointwisePlane` adds into `acc` after it (`AccFold::Vals`).
fn strip_end(sched: &Schedule) -> Option<usize> {
    let t = sched.ops.iter().rposition(|op| matches!(op, Op::Pointwise { .. }))?;
    let tail_free = sched.ops[t + 1..].iter().all(|op| match op {
        Op::SkipPlane { .. } => true,
        Op::PointwisePlane { .. } => sched.fold == AccFold::Merge,
        _ => false,
    });
    tail_free.then_some(t + 1)
}

/// Zero `acc` before its first read, if nothing has written it yet.
#[inline(always)]
fn zero_if_fresh(fresh: &mut bool, acc: &mut [f64]) {
    if std::mem::take(fresh) {
        acc.fill(0.0);
    }
}

/// A `PointwisePlane`'s MAC `dst += weight·src` over the strip's `rows`
/// output rows from grid row `r0` (`dst` rows `aw` apart).
#[inline(always)]
fn add_plane(src: &GlobalArray, weight: f64, r0: usize, rows: usize, dst: &mut [f64], aw: usize) {
    let cols = src.cols();
    for (p, xs) in src.as_slice()[r0 * cols..][..rows * cols].chunks_exact(cols).enumerate() {
        for (v, &x) in dst[p * aw..][..cols].iter_mut().zip(xs) {
            *v += weight * x;
        }
    }
}

/// The lowered term of an [`Op::MmaChain`].
#[inline(always)]
fn chain_term<'a>(sched: &'a Schedule, op: &Op) -> &'a LoweredTerm {
    let Op::MmaChain { term } = *op else { unreachable!("a chain holds only MmaChain ops") };
    &sched.terms[term as usize]
}

/// The prebuilt fragments of a tensor-core [`Op::MmaChain`]'s term.
#[inline(always)]
fn chain_frags<'a>(sched: &'a Schedule, op: &Op) -> &'a TermFrags {
    chain_term(sched, op).frags.as_ref().expect("tensor-core terms carry prebuilt fragments")
}

/// Stage the strip of `n` sub-tiles whose windows start at grid row
/// `r_origin` and column `-h` into `w`, wrapping periodically in both
/// directions as the per-sub-tile walk's staging does.
#[inline(always)]
fn stage_strip(
    src: &GlobalArray,
    r_origin: isize,
    sched: &Schedule,
    n: usize,
    w: &mut StripWindow,
) {
    let (rows, cols) = (src.rows(), src.cols());
    let data = src.as_slice();
    let width = StripWindow::width_for(sched.geo, n);
    let c_origin = window_origin(0, sched.h).rem_euclid(cols as isize) as usize;
    for (rr, dst) in w.rows_mut(sched.geo, n).chunks_exact_mut(width).enumerate() {
        let r = (r_origin + rr as isize).rem_euclid(rows as isize) as usize;
        let src_row = &data[r * cols..][..cols];
        // the window's columns are at most ⌈width / cols⌉ + 1 contiguous
        // source runs
        let (mut x, mut c) = (0, c_origin);
        while x < width {
            let run = (cols - c).min(width - x);
            dst[x..x + run].copy_from_slice(&src_row[c..c + run]);
            x += run;
            c = 0;
        }
    }
}

/// The counters a strip-evaluated job charges: exactly what the modeled
/// device is charged for the same job's sub-tiles — for a tensor-core
/// job, what the per-sub-tile walk's primitives charge — from their
/// closed forms. Counters are `u64` sums, so the order strips visit the
/// jobs in cannot move them.
struct StripCharges {
    /// Charged once per 8×8 sub-tile: every `FragBuild`'s `S/4 × S/8`
    /// fragment loads, every term's chain ([`TermFrags::charge`] on the
    /// tensor cores, [`scalar_term_flops`] on the scalar backends) and
    /// 128 CUDA-core FLOPs per nonzero tip.
    per_sub: PerfCounters,
    /// `Stage`s that stage in a job's first sub-tile (all of them) and in
    /// each later one (those whose slot holds another plane by then).
    stages_first: u64,
    stages_later: u64,
    /// Whether a `Stage` stages the center plane: the first such stage
    /// charges the job's own output footprint to HBM, the rest to L2.
    center_staged: bool,
    /// `PointwisePlane`s reading the center plane (HBM) and other planes
    /// (L2), one load per output point each.
    center_planes: u64,
    other_planes: u64,
}

impl StripCharges {
    /// The per-sub-tile and per-job charge structure of `sched`.
    fn of(sched: &Schedule) -> Self {
        let geo = sched.geo;
        let mut per_sub = PerfCounters::new();
        let (mut center_staged, mut center_planes, mut other_planes) = (false, 0, 0);
        for op in &sched.ops {
            match *op {
                Op::Stage { dz, .. } => center_staged |= dz == sched.h,
                Op::FragBuild { .. } => {
                    per_sub.shared_load_requests += (geo.row_blocks() * geo.col_blocks()) as u64
                }
                Op::MmaChain { .. } => match sched.backend.scalar_issue() {
                    Some(issue) => {
                        per_sub.cuda_flops +=
                            scalar_term_flops(&chain_term(sched, op).term, geo, issue)
                    }
                    None => chain_frags(sched, op).charge(geo, &mut per_sub),
                },
                Op::Pointwise { weight } if weight != 0.0 => {
                    per_sub.cuda_flops += 2 * (MMA_M * MMA_N) as u64
                }
                Op::PointwisePlane { dz, .. } if dz == sched.h => center_planes += 1,
                Op::PointwisePlane { .. } => other_planes += 1,
                _ => {}
            }
        }
        // the slot memo of the per-sub-tile walk, over a job's first
        // sub-tile and then any later one (every later one alike)
        let mut staged = [None; 2];
        let mut walk = || {
            let mut stages = 0;
            for op in &sched.ops {
                if let Op::Stage { dz, slot } = *op {
                    let eff = eff_slot(sched, 0, slot);
                    if staged[eff] != Some(dz) {
                        staged[eff] = Some(dz);
                        stages += 1;
                    }
                }
            }
            stages
        };
        let (stages_first, stages_later) = (walk(), walk());
        StripCharges {
            per_sub,
            stages_first,
            stages_later,
            center_staged,
            center_planes,
            other_planes,
        }
    }

    /// The counters of a job row: every job but the last has the first
    /// one's shape, so the row is that job's charges times their count
    /// plus the (possibly narrower) last job's.
    fn row(&self, sched: &Schedule, jobs: &[(usize, Tile2D)]) -> PerfCounters {
        let (first, last) = (jobs[0].1, jobs[jobs.len() - 1].1);
        debug_assert!(jobs[..jobs.len() - 1]
            .iter()
            .all(|&(_, t)| (t.h, t.w) == (first.h, first.w)));
        let mut c = self.job(sched, first).scaled(jobs.len() as u64 - 1);
        c.merge(&self.job(sched, last));
        c
    }

    /// The counters of job `t`.
    fn job(&self, sched: &Schedule, t: Tile2D) -> PerfCounters {
        let (sub_rows, sub_cols) = (t.h.div_ceil(TILE_M), t.w.div_ceil(TILE_M));
        let n_sub = (sub_rows * sub_cols) as u64;
        let points = (t.h * t.w) as u64;
        // every stage copies the job's macro window
        let window = ((TILE_M * (sub_rows - 1) + sched.geo.s)
            * (TILE_M * (sub_cols - 1) + sched.geo.s)) as u64;
        let stages = self.stages_first + (n_sub - 1) * self.stages_later;
        let fresh = if self.center_staged { points.min(window) } else { 0 };
        let mut c = self.per_sub.scaled(n_sub);
        c.shared_store_requests += stages * window.div_ceil(32);
        c.global_bytes_read += 8 * (fresh + self.center_planes * points);
        c.l2_bytes += 8 * (stages * window - fresh + self.other_planes * points);
        if sched.copy_mode == CopyMode::Staged {
            c.staged_copy_bytes += 8 * stages * window;
        }
        c.cuda_flops += 2 * points * (self.center_planes + self.other_planes);
        c.global_bytes_written += 8 * points;
        c.points_updated += points * sched.fuse_steps as u64;
        c
    }
}

/// The per-sub-tile walk of one macro job: loop its 8×8 sub-tiles
/// (64-point sub-chunks for 1-D), compute each with stack-local
/// accumulators, and write the disjoint output bands directly. One
/// tile-local context accumulates the whole job's counters.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_job(
    planes: &[GlobalArray],
    sched: &Schedule,
    job_i: usize,
    z: usize,
    t: Tile2D,
    base: *mut f64,
    cols: usize,
    scratch: &mut TileScratch,
) -> PerfCounters {
    let mut ctx = SimContext::new();
    let mut stage = StageState { staged: [None, None], center_fresh: true };
    if sched.dims == 1 {
        // a macro 1-D job is a run of the classic 64-point sub-chunks
        let full = MMA_M * MMA_N;
        let mut off = 0;
        while off < t.w {
            let sub = Tile2D { r0: 0, c0: t.c0 + off, h: 1, w: full.min(t.w - off) };
            let vals = subtile(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
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
                let vals = subtile(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
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

/// One sub-tile's op walk with stack-local accumulators (no allocation).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn subtile(
    planes: &[GlobalArray],
    sched: &Schedule,
    z: usize,
    job: Tile2D,
    sub: Tile2D,
    job_i: usize,
    stage: &mut StageState,
    ctx: &mut SimContext,
    scratch: &mut TileScratch,
) -> [[f64; MMA_N]; TILE_M] {
    let mut acc = WalkAcc::new();
    let h = sched.h;
    let mut i = 0;
    while i < sched.ops.len() {
        match sched.ops[i] {
            Op::SkipPlane { .. } => i += 1,
            Op::Stage { dz, slot } => {
                let eff = eff_slot(sched, job_i, slot);
                // staging memoization: every sub-tile of the job reads
                // the same macro window, so a slot that already holds
                // plane `dz` is reused as-is
                if stage.staged[eff] != Some(dz) {
                    // periodic z boundary, matching the grid convention
                    let src = plane_at(planes, z, dz, h);
                    // the macro window covers every sub-tile's S×S window
                    let wr = TILE_M * (job.h.div_ceil(TILE_M) - 1) + sched.geo.s;
                    let wc = TILE_M * (job.w.div_ceil(TILE_M) - 1) + sched.geo.s;
                    scratch.tiles[eff].reset(wr, wc);
                    // the job's own output footprint is its compulsory
                    // HBM share (charged once, on the plane for which
                    // this input is the kernel center); the halo ring and
                    // any re-stage are served by L2
                    let _rdg_gather = foundation::obs::span("rdg_gather");
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
                        &mut scratch.tiles[eff],
                        0,
                        0,
                        fresh,
                    );
                    stage.staged[eff] = Some(dz);
                }
                i += 1;
            }
            Op::FragBuild { slot } => {
                let eff = eff_slot(sched, job_i, slot);
                let (tile, r_off, c_off) = (&scratch.tiles[eff], sub.r0 - job.r0, sub.c0 - job.c0);
                scratch.x.load_into_at(ctx, tile, sched.geo, r_off, c_off);
                i += 1;
            }
            Op::RdgGather => {
                scratch.tiles[0].reset(MMA_M, sched.seg_len);
                {
                    let _rdg_gather = foundation::obs::span("rdg_gather");
                    for r in 0..MMA_M {
                        // 8 of the seg_len loaded elements are this
                        // segment's own outputs (compulsory); the rest is
                        // halo overlap in L2
                        let seg_out = clamped_span(MMA_N * r, MMA_N, sub.w);
                        planes[0].copy_to_shared_reuse(
                            ctx,
                            sched.copy_mode,
                            0,
                            window_origin(sub.c0 + MMA_N * r, h),
                            1,
                            sched.seg_len,
                            &mut scratch.tiles[0],
                            r,
                            0,
                            seg_out,
                        );
                    }
                }
                acc.gather_1d(ctx, &scratch.tiles[0], sched);
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
                acc.chain(ctx, &scratch.x, sched, &sched.terms[first..end], pw);
            }
            Op::Pointwise { weight } => {
                // term-less decomposition: still one (empty) chain call so
                // the phase structure is uniform
                acc.chain(ctx, &scratch.x, sched, &[], Some(weight));
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
                        row[q] += weight * v;
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

/// A compiled instance of [`run_unit`].
///
/// # Safety
///
/// The host must support the instance's target features; obtain the
/// pointer from [`HostIsa::unit_fn`], which checks that.
type UnitFn = unsafe fn(
    &[GlobalArray],
    &Schedule,
    &StripCharges,
    usize,
    &[(usize, Tile2D)],
    *mut f64,
    usize,
    &mut TileScratch,
    &mut PerfCounters,
);

/// [`run_unit`] recompiled with extra target features. The loop and
/// everything beneath it is `#[inline]`, so all of it — strip evaluators,
/// op walk, walk accumulator, RDG term chains, tcu-sim primitives — is
/// compiled for the wider vector unit, and the tensor-core strip kernel
/// runs on its registers and shuffles ([`StripIsa`]). Rust never
/// contracts `a * b + c` into an FMA and never reassociates, and a
/// transpose only moves values, so vectorization only packs independent
/// accumulator lanes: every output element keeps its operation sequence
/// and the results are bit-identical to the portable instance.
macro_rules! unit_instance {
    ($name:ident, $feature:literal, $isa:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        fn $name(
            planes: &[GlobalArray],
            sched: &Schedule,
            charges: &StripCharges,
            first: usize,
            jobs: &[(usize, Tile2D)],
            base: *mut f64,
            cols: usize,
            scratch: &mut TileScratch,
            slot: &mut PerfCounters,
        ) {
            // SAFETY: the instance runs only on hosts with its target
            // feature (`HostIsa::unit_fn` checks)
            let isa = unsafe { $isa::new_unchecked() };
            run_unit(isa, planes, sched, charges, first, jobs, base, cols, scratch, slot)
        }
    };
}

unit_instance!(run_unit_avx512f, "avx512f", Avx512f);
unit_instance!(run_unit_avx2, "avx2", Avx2);

/// The portable instance of [`run_unit`], the reference of the others.
#[allow(clippy::too_many_arguments)]
fn run_unit_portable(
    planes: &[GlobalArray],
    sched: &Schedule,
    charges: &StripCharges,
    first: usize,
    jobs: &[(usize, Tile2D)],
    base: *mut f64,
    cols: usize,
    scratch: &mut TileScratch,
    slot: &mut PerfCounters,
) {
    run_unit(Portable, planes, sched, charges, first, jobs, base, cols, scratch, slot)
}

/// The compiled instances of the job loop, best first. The host picks
/// the best one it supports once per application; nothing configures
/// the choice, because every instance computes the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostIsa {
    /// x86-64 with AVX-512F (512-bit vectors).
    Avx512f,
    /// x86-64 with AVX2 (256-bit vectors).
    Avx2,
    /// Baseline code for the target (SSE2 on x86-64); the reference
    /// the vector instances are tested against.
    Portable,
}

impl HostIsa {
    /// Every instance, best first.
    const ALL: [HostIsa; 3] = [HostIsa::Avx512f, HostIsa::Avx2, HostIsa::Portable];

    /// Stable name, as reported by [`host_isa`].
    fn name(self) -> &'static str {
        match self {
            HostIsa::Avx512f => "avx512f",
            HostIsa::Avx2 => "avx2",
            HostIsa::Portable => "portable",
        }
    }

    /// Whether this host can run the instance (a cached feature probe).
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx512f => std::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx2 => std::is_x86_feature_detected!("avx2"),
            HostIsa::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The best instance this host supports.
    fn detect() -> HostIsa {
        HostIsa::ALL.into_iter().find(|isa| isa.supported()).unwrap_or(HostIsa::Portable)
    }

    /// The instance's job loop.
    ///
    /// # Panics
    ///
    /// Panics if the host lacks the instance's target features.
    fn unit_fn(self) -> UnitFn {
        assert!(self.supported(), "host cannot run the {} job loop", self.name());
        match self {
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx512f => run_unit_avx512f,
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx2 => run_unit_avx2,
            _ => run_unit_portable,
        }
    }
}

/// Which compiled instance of the job loop this host runs: `"avx512f"`,
/// `"avx2"` or `"portable"`. Host-time numbers are only comparable
/// between runs of the same instance; values and counters are identical
/// across all of them.
pub fn host_isa() -> &'static str {
    HostIsa::detect().name()
}

/// The reusable per-apply buffers of a plan on a fixed grid shape: the
/// lowered schedule and its strip charges, the `(plane, tile)` job list,
/// the counter slots and the output-pointer table. Callers that manage
/// their own grids (the distributed executor) build one per (device,
/// plan) and feed it a fresh input/output pair each application;
/// [`Stepper`] wraps one together with double-buffered planes.
pub struct Workspace {
    sched: Schedule,
    charges: StripCharges,
    jobs: Vec<(usize, Tile2D)>,
    /// Jobs per job row (jobs sharing `(z, r0)`, consecutive in `jobs`):
    /// the units of work on strips are `jobs.len() / row_len` rows.
    row_len: usize,
    /// One counter slot per unit of work.
    slots: Vec<PerfCounters>,
    /// Reusable raw output-plane pointer table: the `UnsafeSlice`
    /// pattern cannot borrow a `Vec` of planes across worker lanes
    /// without re-allocating a slice table per application, so the table
    /// lives here and is refilled in place.
    sinks: Vec<usize>,
}

impl Workspace {
    /// Buffers for applying `plan` to grids of the given extents
    /// (`[n]`, `[rows, cols]` or `[nz, ny, nx]`). Jobs are the plan's
    /// macro tiles ([`ScheduleParams::tile_rows`] ×
    /// [`ScheduleParams::tile_cols`]; `8 · tile_cols` points for 1-D).
    pub fn new(plan: &Plan, extents: &[usize]) -> Self {
        let sched = Schedule::lower(plan);
        let charges = StripCharges::of(&sched);
        let jobs: Vec<(usize, Tile2D)> = match *extents {
            [n] => tiles_1d(n, MMA_M * sched.tile_w)
                .into_iter()
                .map(|t| (0, Tile2D { r0: 0, c0: t.i0, h: 1, w: t.len }))
                .collect(),
            [rows, cols] => tiles_2d(rows, cols, sched.tile_h, sched.tile_w)
                .into_iter()
                .map(|t| (0, t))
                .collect(),
            [nz, ny, nx] => {
                let tiles = tiles_2d(ny, nx, sched.tile_h, sched.tile_w);
                (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect()
            }
            _ => panic!("grids are 1-, 2- or 3-dimensional"),
        };
        // 2-D and 3-D tilings are row-major: a job row is one tile row
        let row_len = match *extents {
            [_, cols] | [_, _, cols] => cols.div_ceil(sched.tile_w).max(1),
            _ => jobs.len(),
        };
        Workspace { sched, charges, jobs, row_len, slots: Vec::new(), sinks: Vec::new() }
    }

    /// The lowered schedule this workspace interprets.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// One (possibly fused) application from `input` into `out`
    /// (single-plane grids: 1-D arrays and 2-D grids).
    pub fn apply(&mut self, input: &GlobalArray, out: &mut GlobalArray) -> PerfCounters {
        self.apply_planes(std::slice::from_ref(input), std::slice::from_mut(out))
    }

    /// One (possibly fused) application from `planes` into `out`. Units
    /// of work — job rows on strips, single jobs otherwise — run in
    /// parallel and write their disjoint output bands directly (the
    /// counters include the `global_bytes_written` a `store_span` of the
    /// outputs would charge); each unit's counters go to a preallocated
    /// slot and the slots merge sequentially in unit order, keeping the
    /// totals independent of scheduling. The loop runs on the best
    /// compiled instance this host supports ([`host_isa`]).
    pub fn apply_planes(
        &mut self,
        planes: &[GlobalArray],
        out: &mut [GlobalArray],
    ) -> PerfCounters {
        self.apply_planes_on(HostIsa::detect(), planes, out)
    }

    /// [`Workspace::apply_planes`] on a given job-loop instance (the
    /// ISA-identity test compares them).
    fn apply_planes_on(
        &mut self,
        isa: HostIsa,
        planes: &[GlobalArray],
        out: &mut [GlobalArray],
    ) -> PerfCounters {
        let unit = isa.unit_fn();
        let _apply = foundation::obs::span("apply");
        let cols = planes[0].cols();
        let per_unit = if self.sched.on_strips { self.row_len } else { 1 };
        let units = self.jobs.len() / per_unit;
        // every unit overwrites its slot, so the slots need no reset
        self.slots.resize(units, PerfCounters::new());
        self.sinks.clear();
        self.sinks.extend(out.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
        {
            let slot_sink = UnsafeSlice::new(&mut self.slots[..]);
            let sinks: &[usize] = &self.sinks;
            let (jobs, sched, charges) = (&self.jobs, &self.sched, &self.charges);
            for_each_index(units, |u| {
                let (lo, hi) = (u * per_unit, (u + 1) * per_unit);
                let base = sinks[jobs[lo].0] as *mut f64;
                // SAFETY: each unit writes only its own slot
                let slot = unsafe { &mut slot_sink.slice_mut(u, 1)[0] };
                // SAFETY: `unit_fn` checked the host supports the instance
                with_tile_scratch(|s| unsafe {
                    unit(planes, sched, charges, lo, &jobs[lo..hi], base, cols, s, slot)
                });
            });
        }
        let mut total = PerfCounters::new();
        for c in self.slots.iter() {
            total.merge(c);
        }
        total
    }
}

/// The steady-state time-stepping loop for any dimensionality:
/// double-buffered grid planes plus every per-apply buffer, allocated
/// once and reused by each [`Stepper::step`]. Safe to ping-pong without
/// clearing because the job list covers every output cell each
/// application.
pub struct Stepper {
    ws: Workspace,
    cur: Vec<GlobalArray>,
    next: Vec<GlobalArray>,
}

impl Stepper {
    /// Set up the loop over `planes` for `plan` (one plane for 1-D
    /// arrays — shaped `1 × n` — and 2-D grids; `nz` planes for 3-D).
    pub fn new(plan: Plan, planes: Vec<GlobalArray>) -> Self {
        let ws = Workspace::new(&plan, &plane_extents(&planes, plan.dims()));
        let next = planes.iter().map(|p| GlobalArray::new(p.rows(), p.cols())).collect();
        Stepper { ws, cur: planes, next }
    }

    /// Set up the loop over a single-plane grid.
    pub fn from_grid(plan: Plan, input: GlobalArray) -> Self {
        Stepper::new(plan, vec![input])
    }

    /// Advance one (possibly fused) application; the result becomes the
    /// current state.
    pub fn step(&mut self) -> PerfCounters {
        let c = self.ws.apply_planes(&self.cur, &mut self.next);
        std::mem::swap(&mut self.cur, &mut self.next);
        c
    }

    /// The current single-plane grid.
    pub fn grid(&self) -> &GlobalArray {
        &self.cur[0]
    }

    /// The current volume's planes.
    pub fn planes(&self) -> &[GlobalArray] {
        &self.cur
    }

    /// Copy out the current planes — the checkpoint hook between steps.
    /// Only the live side of the ping-pong pair is captured: the partner
    /// buffer is fully overwritten by the next application, so it holds
    /// no resumable state. The copy allocates (serialization may); the
    /// step loop itself stays allocation-free.
    pub fn capture_planes(&self) -> Vec<GlobalArray> {
        self.cur.clone()
    }

    /// Consume the stepper, returning the current single-plane grid.
    pub fn into_grid(mut self) -> GlobalArray {
        self.cur.swap_remove(0)
    }

    /// Consume the stepper, returning the current planes.
    pub fn into_planes(self) -> Vec<GlobalArray> {
        self.cur
    }
}

/// One (possibly fused) stencil application over a single-plane grid
/// (allocating convenience form of the [`Stepper`] loop).
pub fn apply_once(input: &GlobalArray, plan: &Plan) -> (GlobalArray, PerfCounters) {
    let mut ws = Workspace::new(plan, &plane_extents(std::slice::from_ref(input), plan.dims()));
    let mut out = GlobalArray::new(input.rows(), input.cols());
    let counters = ws.apply(input, &mut out);
    (out, counters)
}

/// The full time loop of a one-shot run: plan (consulting the installed
/// tuning DB for this kernel/extents/config, falling back to default
/// [`ScheduleParams`]), split the iterations into fused applications
/// plus an unfused remainder, and step through both phases with reused
/// buffers.
pub fn run(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    let extents = plane_extents(&planes, kernel.dims());
    let plan = Plan::new_tuned(kernel, config, &extents);
    let rem_plan =
        || Plan::new_tuned(kernel, ExecConfig { allow_fusion: false, ..config }, &extents);
    let Ok(out) = run_with_plans(plan, rem_plan, planes, iterations, PerfCounters::new(), no_hook);
    out
}

/// The explicit-params variant of [`run`]: execute with exactly the
/// given [`ScheduleParams`], bypassing the tuning DB. This is the
/// measurement primitive of `stencil-cli tune` — every candidate runs
/// through the same loop the production path uses.
pub fn run_tuned(
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    let plan = Plan::new_with_params(kernel, config, params);
    // the remainder is unfused by construction; the candidate's other
    // knobs still apply
    let rem_plan =
        || Plan::new_with_params(kernel, ExecConfig { allow_fusion: false, ..config }, params);
    let Ok(out) = run_with_plans(plan, rem_plan, planes, iterations, PerfCounters::new(), no_hook);
    out
}

/// The per-application hook of a run that only wants its result.
fn no_hook(_: usize, _: &[GlobalArray], _: &PerfCounters) -> Result<(), Infallible> {
    Ok(())
}

/// The one fused/remainder time loop: `iterations / plan.fusion`
/// applications of `plan`, then the remainder one step at a time under
/// `rem_plan()`, which is planned only if there is a remainder.
/// Counters accumulate onto `counters` (a resumed run's prefix). After
/// every application, `on_apply(advance, planes, counters)` sees the
/// steps it advanced, the new planes and the running counters; an error
/// from it stops the run.
pub(crate) fn run_with_plans<E>(
    plan: Plan,
    rem_plan: impl FnOnce() -> Plan,
    planes: Vec<GlobalArray>,
    iterations: usize,
    mut counters: PerfCounters,
    mut on_apply: impl FnMut(usize, &[GlobalArray], &PerfCounters) -> Result<(), E>,
) -> Result<(Vec<GlobalArray>, PerfCounters, BlockResources), E> {
    let block = plan.block_resources();
    let fusion = plan.fusion;
    let rem = iterations % fusion;
    let rem_plan = (rem > 0).then(rem_plan);
    let mut stepper = Stepper::new(plan, planes);
    for _ in 0..iterations / fusion {
        counters.merge(&stepper.step());
        on_apply(fusion, stepper.planes(), &counters)?;
    }
    if let Some(rp) = rem_plan {
        stepper = Stepper::new(rp, stepper.into_planes());
        for _ in 0..rem {
            counters.merge(&stepper.step());
            on_apply(1, stepper.planes(), &counters)?;
        }
    }
    Ok((stepper.into_planes(), counters, block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DeviceBackend;
    use crate::schedule::band_fallbacks;
    use std::io::Write;
    use stencil_core::kernels;

    fn wavy(rows: usize, cols: usize, salt: usize) -> GlobalArray {
        GlobalArray::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((salt * 7919 + i) as f64 * 0.13).sin() * 3.0 + (i % 11) as f64 * 0.1)
                .collect(),
        )
    }

    /// The input planes the bitwise tests run `kernel` on.
    fn test_planes(kernel: &StencilKernel) -> Vec<GlobalArray> {
        match kernel.dims() {
            1 => vec![wavy(1, 157, 0)],
            2 => vec![wavy(24, 40, 1)],
            _ => (0..4).map(|z| wavy(11, 13, z + 2)).collect(),
        }
    }

    /// The toggle sets the bitwise tests cover: full, no-fusion, no-BVS.
    fn test_configs() -> [ExecConfig; 3] {
        let full = ExecConfig::full();
        [full, ExecConfig { allow_fusion: false, ..full }, ExecConfig { use_bvs: false, ..full }]
    }

    /// The schedule shapes the bitwise tests cover.
    fn test_params() -> [ScheduleParams; 3] {
        [
            ScheduleParams::default(),
            ScheduleParams {
                tile_rows: 64,
                tile_cols: 64,
                mma_batch: 2,
                ..ScheduleParams::default()
            },
            ScheduleParams {
                tile_rows: 16,
                tile_cols: 16,
                staging: Staging::Double,
                mma_batch: 4,
                fuse_override: None,
            },
        ]
    }

    /// One application of `ws` to `planes` on the `isa` job loop.
    fn run_on(
        ws: &mut Workspace,
        isa: HostIsa,
        planes: &[GlobalArray],
    ) -> (Vec<GlobalArray>, PerfCounters) {
        let mut out: Vec<GlobalArray> =
            planes.iter().map(|p| GlobalArray::new(p.rows(), p.cols())).collect();
        let counters = ws.apply_planes_on(isa, planes, &mut out);
        (out, counters)
    }

    /// Assert two runs agree on every output bit and every counter.
    fn assert_bitwise(
        case: &str,
        (got, got_counters): &(Vec<GlobalArray>, PerfCounters),
        (want, want_counters): &(Vec<GlobalArray>, PerfCounters),
    ) {
        for (g, w) in got.iter().zip(want) {
            let same =
                g.as_slice().iter().zip(w.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{case}: values differ");
        }
        assert_eq!(got_counters.fields(), want_counters.fields(), "{case}");
    }

    /// The vector instances of the job loop must reproduce the portable
    /// instance exactly — every output bit and every counter — over every
    /// registry kernel, backend, toggle set and schedule shape.
    #[test]
    fn every_host_isa_instance_matches_the_portable_one_bitwise() {
        let mut vector = Vec::new();
        for isa in HostIsa::ALL.into_iter().filter(|&isa| isa != HostIsa::Portable) {
            if isa.supported() {
                vector.push(isa);
            } else {
                // stderr directly: a skipped instance must show even when
                // the harness captures test output
                let _ = writeln!(
                    std::io::stderr(),
                    "note: host lacks {}; its job loop is not checked here",
                    isa.name()
                );
            }
        }
        for kernel in kernels::all_kernels() {
            let planes = test_planes(&kernel);
            let extents = plane_extents(&planes, kernel.dims());
            for backend in DeviceBackend::all() {
                for config in test_configs() {
                    let config = ExecConfig { backend, ..config };
                    for p in test_params() {
                        let plan = Plan::new_with_params(&kernel, config, p);
                        let mut ws = Workspace::new(&plan, &extents);
                        let want = run_on(&mut ws, HostIsa::Portable, &planes);
                        for &isa in &vector {
                            let case = format!(
                                "{} on {} ({config:?}, {})",
                                kernel.name,
                                isa.name(),
                                p.describe()
                            );
                            assert_bitwise(&case, &run_on(&mut ws, isa, &planes), &want);
                        }
                    }
                }
            }
        }
    }

    /// A strip-evaluated job row charges its jobs in closed form: the
    /// full jobs times one full job's charges plus the narrower last job.
    /// On every registry 2-D/3-D kernel, backend and tile shape, over
    /// grids whose width leaves a narrower last job in each row (and
    /// whose height leaves a partial last strip), each row's charge must
    /// equal the sum of its jobs' [`StripCharges::job`], and the slots,
    /// values and totals must not move with the lane count. On the tensor
    /// cores each row's charge must also equal what the per-sub-tile
    /// fragment walk charges the same jobs, with the same output bits
    /// (the walk runs tensor-core terms only).
    #[test]
    fn row_charges_match_the_job_sums_and_the_fragment_walk() {
        let shapes = [(8, 8), (16, 16), (8, 64), (64, 64)]
            .map(|(r, c)| (r, c, Staging::Single))
            .into_iter()
            .chain([(16, 16, Staging::Double)]);
        let isa = HostIsa::detect();
        for kernel in kernels::all_kernels().into_iter().filter(|k| k.dims() >= 2) {
            for backend in DeviceBackend::all() {
                for (tile_rows, tile_cols, staging) in shapes.clone() {
                    for cols in [37, 44] {
                        let planes = match kernel.dims() {
                            2 => vec![wavy(20, cols, 5)],
                            _ => (0..3).map(|z| wavy(11, cols, z + 6)).collect(),
                        };
                        let extents = plane_extents(&planes, kernel.dims());
                        let params =
                            ScheduleParams { tile_rows, tile_cols, staging, ..Default::default() };
                        let config = ExecConfig { backend, ..ExecConfig::full() };
                        let plan = Plan::new_with_params(&kernel, config, params);
                        let case = format!(
                            "{} {backend:?} {} cols {cols}",
                            kernel.name,
                            params.describe()
                        );
                        let mut ws = Workspace::new(&plan, &extents);
                        assert!(ws.sched.on_strips, "{case}");
                        for row in ws.jobs.chunks(ws.row_len) {
                            let mut sum = PerfCounters::new();
                            for &(_, t) in row {
                                sum.merge(&ws.charges.job(&ws.sched, t));
                            }
                            let got = ws.charges.row(&ws.sched, row);
                            assert_eq!(got.fields(), sum.fields(), "{case}: row {:?}", row[0]);
                        }
                        let mut runs = Vec::new();
                        for lanes in ["1", "2", "7"] {
                            std::env::set_var("FOUNDATION_THREADS", lanes);
                            runs.push((run_on(&mut ws, isa, &planes), ws.slots.clone()));
                        }
                        std::env::remove_var("FOUNDATION_THREADS");
                        let (want, rows) = &runs[0];
                        for (got, slots) in &runs[1..] {
                            assert_bitwise(&case, got, want);
                            assert_eq!(slots, rows, "{case}");
                        }
                        if backend.uses_tcu() {
                            let mut walk = Workspace::new(&plan, &extents);
                            walk.sched.drop_band_tables();
                            assert_bitwise(&case, &run_on(&mut walk, isa, &planes), want);
                            for (row, jobs) in rows.iter().zip(walk.slots.chunks(ws.row_len)) {
                                let mut sum = PerfCounters::new();
                                jobs.iter().for_each(|c| sum.merge(c));
                                assert_eq!(row.fields(), sum.fields(), "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `planes` with `cells` (row, col, value) written into every plane,
    /// positions taken modulo the plane's extents.
    fn with_cells(planes: &[GlobalArray], cells: &[(usize, usize, f64)]) -> Vec<GlobalArray> {
        planes
            .iter()
            .map(|p| {
                let mut p = p.clone();
                for &(r, c, v) in cells {
                    p.poke(r % p.rows(), c % p.cols(), v);
                }
                p
            })
            .collect()
    }

    /// The band evaluator must reproduce the fragment path exactly —
    /// every output bit and every counter — on both tensor-core backends,
    /// over every registry kernel, toggle set and schedule shape, and on
    /// inputs that send whole calls (non-finite cells) or single terms
    /// (cells large enough for `T` to overflow) to the fragment path.
    #[test]
    fn band_term_chains_match_the_fragment_path_bitwise() {
        let non_finite = [(3, 5, f64::INFINITY), (10, 17, f64::NEG_INFINITY), (17, 30, f64::NAN)];
        // from cells no term overflows on to cells every term does, with
        // 1e307..3e307 splitting a window's terms between the two paths
        let mut huge = vec![
            (5, 5, 1e300),
            (6, 9, -1e300),
            (1, 30, 1e307),
            (21, 13, -3e307),
            (14, 2, -f64::MAX),
        ];
        for r in 12..15 {
            for c in 20..23 {
                huge.push((r, c, f64::MAX));
            }
        }
        let isa = HostIsa::detect();
        for kernel in kernels::all_kernels() {
            let plain = test_planes(&kernel);
            let extents = plane_extents(&plain, kernel.dims());
            let inputs = [
                ("plain", plain.clone()),
                ("non-finite", with_cells(&plain, &non_finite)),
                ("huge", with_cells(&plain, &huge)),
            ];
            for backend in [DeviceBackend::TcuF64, DeviceBackend::SparseTcu] {
                for config in test_configs() {
                    let config = ExecConfig { backend, ..config };
                    for p in test_params() {
                        let plan = Plan::new_with_params(&kernel, config, p);
                        let mut band = Workspace::new(&plan, &extents);
                        let mut frags = Workspace::new(&plan, &extents);
                        frags.sched.drop_band_tables();
                        for (input, planes) in &inputs {
                            let case =
                                format!("{} {input} ({config:?}, {})", kernel.name, p.describe());
                            assert_bitwise(
                                &case,
                                &run_on(&mut band, isa, planes),
                                &run_on(&mut frags, isa, planes),
                            );
                        }
                    }
                }
            }
        }
    }

    /// The strip check must scan the whole staged strip: a non-finite
    /// value that only a sub-tile window's padding rows hold (rows 14–15
    /// of Box-2D49P's 16×16 window, which the band never reads but the
    /// fragment chain multiplies by zero), or one that only the last
    /// sub-tiles of a row see, must send the job row to the fragment
    /// path, whose bits then match a forced-fragment run.
    #[test]
    fn strip_check_covers_padding_rows_and_the_whole_row() {
        let kernel = kernels::box_2d49p();
        let plain = vec![wavy(40, 44, 3)];
        let extents = plane_extents(&plain, 2);
        let isa = HostIsa::detect();
        // grid row 19 is row 14 of the windows of the strip at row 8 (they
        // start at 8 − h = 5) and a band row of the strip at row 16 only
        let cases =
            [("padding rows", (19, 20)), ("last sub-tiles", (2, 39)), ("last column", (10, 43))];
        for backend in [DeviceBackend::TcuF64, DeviceBackend::SparseTcu] {
            let config = ExecConfig { backend, ..ExecConfig::full() };
            let plan = Plan::new_with_params(&kernel, config, ScheduleParams::default());
            assert_eq!((plan.geo.h, plan.geo.s), (3, 16));
            let mut strips = Workspace::new(&plan, &extents);
            let mut frags = Workspace::new(&plan, &extents);
            frags.sched.drop_band_tables();
            for (name, (r, c)) in cases {
                let planes = with_cells(&plain, &[(r, c, f64::NAN)]);
                let before = band_fallbacks().get();
                let got = run_on(&mut strips, isa, &planes);
                let fell_back = band_fallbacks().get() - before;
                assert_bitwise(
                    &format!("{backend:?} {name}"),
                    &got,
                    &run_on(&mut frags, isa, &planes),
                );
                assert!(fell_back > 0, "{backend:?} {name}: the strip check must fail");
                assert!(got.0[0].as_slice().iter().any(|v| v.is_nan()), "{name}: NaN must spread");
            }
        }
    }
}
