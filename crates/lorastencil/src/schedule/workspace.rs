//! The generic schedule interpreter: a [`Workspace`] executes lowered
//! [`Schedule`]s of any dimensionality, one application at a time.
//!
//! The host-side loop keeps the steady-state guarantees: a workspace
//! sizes every per-apply buffer when it is built (and an
//! [`ExecSession`](super::ExecSession) double-buffers the grid planes
//! around it), so an application, its first included, allocates nothing
//! and spawns no threads. Units of work run in parallel and write their
//! disjoint output bands directly; they charge nothing. What an
//! application charges depends only on the schedule, the grid extents
//! and the tile shape, so the workspace computes it once, when it is
//! built, and every application returns that value: counters and values
//! are bit-identical at any thread count.
//!
//! A *job* is one macro tile of [`ScheduleParams::tile_rows`] ×
//! [`ScheduleParams::tile_cols`] output points (one modeled thread
//! block). The tile shape is an input of the workspace, not of the
//! schedule: it only regroups the same sub-tiles into jobs. The
//! interpreter evaluates every schedule, on all four backends, one way:
//!
//! * **2-D and 3-D: strips.** A unit of work is a *row band*: the rows
//!   of every job with the same `(z, r0)`, spanning the plane's width.
//!   The interpreter walks the op list once per 8-row strip of the band:
//!   each `Stage` stages the union of the strip's sub-tile S×S windows
//!   once, row-major, and each term's step 1 runs once across the strip,
//!   shared by horizontally adjacent sub-tiles; step 2, the tip, the point-wise planes and the fold
//!   follow, each element in its op order. The strip ends at its last op
//!   group: on the tensor cores the chain kernel adds that group's tip,
//!   folds and stores straight into the output plane; on the scalar
//!   backends one write-out pass adds the tip and stores. A tensor-core
//!   chain runs in the strip kernel (`rdg_apply_chain_strip`), which
//!   keeps each element's fragment-chain operation sequence with `T` and
//!   the accumulator transposed inside it: band-only, on the term's
//!   compile-time instance where its band shape has one and the generic
//!   instance otherwise, or, where the staged strip holds a non-finite
//!   value (padding included) or the term's `T` could overflow, on the
//!   dense instance, which also forms the products of the zero weights.
//!   A scalar chain runs in the scalar strip kernel
//!   (`rdg_apply_term_strip_scalar`), which shares the tensor-core
//!   kernel's step 1 and keeps each element's scalar-chain sequence, so
//!   it needs no such check and the staging takes no magnitude for it.
//!   The job loop's ISA token ([`StripIsa`]) supplies both kernels'
//!   vector operations and transposes.
//! * **1-D: one staged span per job.** `Op::RdgGather` stages the job's
//!   overlapping segments as one run of the array, and each output is the
//!   dense banded sum over its `seg_len` taps, in the order the modeled
//!   MMA chain accumulates them. A 1-D job is its own unit of work, so a
//!   long array spreads over the pool.
//!
//! Nothing is charged while evaluating: an application's counters come
//! from the closed forms of what the modeled device is charged per 8×8
//! sub-tile or 64-point sub-chunk ([`StripCharges`]), summed over the
//! tiling's jobs by [`application_counters`], the one function that
//! prices an application for a workspace and for [`RunCharges`] alike.
//! Sub-tile boundaries stay on multiples of 8, so the global sub-tile
//! set (and with it every Eq. 12/13/16 counter and every FP operation
//! order) is identical for every tile size. The tests check both the
//! values and the charges against the per-sub-tile fragment walk
//! (`schedule::walk`), compiled only for them.

use super::backend::band_fallbacks;
use super::scratch::{with_strip_scratch, StripScratch};
use super::{plane_extents, plane_shape, AccFold, LoweredTerm, Op, Schedule, ScheduleParams};
use crate::plan::{ExecConfig, Plan};
use crate::rdg::{
    apply_pointwise_strip, rdg_apply_chain_strip, rdg_apply_term_strip_scalar_on,
    scalar_term_flops, Portable, StripIsa, StripOut, StripWindow, TermFrags, TILE_M,
};
#[cfg(target_arch = "x86_64")]
use crate::rdg::{Avx2, Avx512f};
use foundation::par::for_each_index;
use std::sync::OnceLock;
use stencil_core::tiling::{tiles_2d, window_origin, Tile2D};
use stencil_core::StencilKernel;
use tcu_sim::{acc_add, BlockResources, CopyMode, GlobalArray, PerfCounters, MMA_K, MMA_M, MMA_N};

/// The plane an op addressing relative plane `dz` reads from output plane
/// `z`: periodic in z, matching the grid convention.
#[inline]
pub(super) fn plane_at(planes: &[GlobalArray], z: usize, dz: usize, h: usize) -> &GlobalArray {
    &planes[(z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize) as usize]
}

/// Interpret one unit of work — `(z, band)`, a row band of a 2-D/3-D
/// schedule, or `(0, job)`, one 1-D job — writing its output.
///
/// [`HostIsa`] compiles the loop once per vector unit, `isa` being that
/// unit's token. Every backend runs the same instance.
#[inline(always)]
fn run_unit<I: StripIsa>(
    isa: I,
    planes: &[GlobalArray],
    sched: &Schedule,
    unit: (usize, Tile2D),
    base: *mut f64,
    cols: usize,
    st: &mut StripScratch,
) {
    if sched.dims == 1 {
        run_gather(isa, &planes[0], sched, unit.1, base, &mut st.line);
    } else {
        run_strips(isa, planes, sched, unit, base, cols, st);
    }
}

/// Evaluate one 1-D job and write its outputs: stage the job's
/// overlapping `seg_len`-long segments (`Op::RdgGather`) as one run of
/// the array from `c0 − h`, wrapping periodically, then the banded MM.
/// Output `8i + q` of the job is `Σ_c X[8i + c]·V[c][q]` over all
/// `seg_len` taps `c`, increasing from `+0.0`, as the modeled MMA chain
/// accumulates it, eight outputs `q` per vector operation.
#[inline(always)]
fn run_gather<I: StripIsa>(
    isa: I,
    src: &GlobalArray,
    sched: &Schedule,
    t: Tile2D,
    base: *mut f64,
    line: &mut Vec<f64>,
) {
    let len = MMA_N * (t.w.div_ceil(MMA_N) - 1) + sched.seg_len;
    {
        let _rdg_gather = foundation::obs::span("rdg_gather");
        if line.len() < len {
            line.resize(len, 0.0);
        }
        let n = src.cols() as isize;
        let start = window_origin(t.c0, sched.h).rem_euclid(n) as usize;
        copy_wrapped(src.as_slice(), start, &mut line[..len]);
    }
    let _mma_batch = foundation::obs::span("mma_batch");
    // SAFETY: 1-D jobs write disjoint spans; `base` stays valid because
    // `out` is exclusively borrowed for the whole application
    let out = unsafe { std::slice::from_raw_parts_mut(base.add(t.c0), t.w) };
    for (i, o) in out.chunks_mut(MMA_N).enumerate() {
        let mut acc = isa.splat(0.0);
        for (&x, v) in line[MMA_N * i..][..sched.seg_len].iter().zip(&sched.v1d_rows) {
            acc = isa.add_mul(acc, isa.splat(x), isa.load(v));
        }
        let mut lanes = [0.0; MMA_N];
        isa.store(acc, &mut lanes);
        o.copy_from_slice(&lanes[..o.len()]);
    }
}

/// Fill `dst` from `src` starting at `start`, wrapping periodically: at
/// most `⌈dst.len() / src.len()⌉ + 1` contiguous source runs.
#[inline(always)]
fn copy_wrapped(src: &[f64], start: usize, dst: &mut [f64]) {
    let (mut x, mut c) = (0, start);
    while x < dst.len() {
        let run = (src.len() - c).min(dst.len() - x);
        dst[x..x + run].copy_from_slice(&src[c..c + run]);
        x += run;
        c = 0;
    }
}

/// Evaluate one row band strip by strip and write its output rows.
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
    (z, band): (usize, Tile2D),
    base: *mut f64,
    cols: usize,
    st: &mut StripScratch,
) {
    let (h, geo) = (sched.h, sched.geo);
    let scalar = sched.backend.scalar_issue().is_some();
    let merge = sched.fold == AccFold::Merge;
    let terms_span = sched.backend.terms_span();
    let end = strip_end(sched);
    // the band's sub-tiles span the plane: columns 0..8n of the accumulators
    let n = cols.div_ceil(TILE_M);
    let aw = TILE_M * n;
    st.reserve(geo, n);
    let mut sr = 0;
    while sr < band.h {
        let r0 = band.r0 + sr;
        let rows = TILE_M.min(band.h - sr);
        // SAFETY: row bands (and their strips) write disjoint (z, band)
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
        // the last group's tip weight, left to the write-out
        let mut tip = None;
        let mut stored = false;
        let mut i = 0;
        while i < sched.ops.len() {
            match sched.ops[i] {
                Op::SkipPlane { .. } => i += 1,
                Op::Stage { dz } => {
                    let _rdg_gather = foundation::obs::span("rdg_gather");
                    let w = &mut st.window;
                    stage_strip(plane_at(planes, z, dz, h), window_origin(r0, h), sched, n, w);
                    // only the tensor-core evaluator skips products, so
                    // only it needs the window's magnitude
                    if !scalar {
                        w.seal();
                    }
                    i += 1;
                }
                Op::FragBuild => i += 1,
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
                    let w = &st.window;
                    if scalar {
                        // the scalar chain and a tip before the last run
                        // under one span
                        let _terms = foundation::obs::span(terms_span);
                        for op in chain {
                            zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                            let term = &chain_term(sched, op).term;
                            rdg_apply_term_strip_scalar_on(isa, w, term, &mut st.t, &mut st.acc);
                        }
                        if last {
                            tip = (pw != 0.0).then_some(pw);
                        } else if pw != 0.0 {
                            zero_if_fresh(&mut fresh, &mut st.acc[..MMA_M * aw]);
                            apply_pointwise_strip(w, pw, &mut st.acc);
                        }
                        continue;
                    }
                    if !chain.is_empty() {
                        let _terms = foundation::obs::span(terms_span);
                        let terms = chain.iter().map(|op| chain_frags(sched, op));
                        let (tt, acc_t, acc) = (&mut st.tt, &mut st.acc_t, &mut st.acc);
                        let target = if last {
                            stored = true;
                            let vals = merge.then_some(&st.vals[..]);
                            StripOut::Plane { pw, vals, out: &mut *out, rows, cols }
                        } else {
                            StripOut::Acc
                        };
                        let dense =
                            rdg_apply_chain_strip(isa, w, terms, fresh, tt, acc_t, acc, target);
                        if dense > 0 {
                            band_fallbacks().add((dense * n) as u64);
                        }
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
                Op::RdgGather => unreachable!("1-D schedules run `run_gather`"),
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
                        *o = acc_add(v, a);
                    }
                } else if let Some(pw) = tip {
                    let xs = st.window.center_row(p);
                    for ((o, &a), &x) in o.iter_mut().zip(acc).zip(xs) {
                        *o = acc_add(a, pw * x);
                    }
                } else {
                    o.copy_from_slice(acc);
                }
            }
        }
        sr += TILE_M;
    }
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
            *v = acc_add(*v, weight * x);
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
/// directions as the per-sub-tile walk's staging does. The scalar
/// backends read only rows `0 .. 8 + 2h`, so only those are staged; the
/// tensor cores stage all `S`, padding included.
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
    let read =
        if sched.backend.scalar_issue().is_some() { TILE_M + 2 * sched.h } else { sched.geo.s };
    for (rr, dst) in w.rows_mut(sched.geo, n).chunks_exact_mut(width).take(read).enumerate() {
        let r = (r_origin + rr as isize).rem_euclid(rows as isize) as usize;
        copy_wrapped(&data[r * cols..][..cols], c_origin, dst);
    }
}

/// The counters a job charges: exactly what the modeled device is
/// charged for the same job's 8×8 sub-tiles or 64-point 1-D sub-chunks —
/// for a tensor-core job, what the per-sub-tile walk's primitives charge
/// — from their closed forms. Counters are `u64` sums, so the order
/// they are summed in cannot move them.
struct StripCharges {
    /// Charged once per 8×8 sub-tile: every `FragBuild`'s `S/4 × S/8`
    /// fragment loads, every term's chain ([`TermFrags::charge`] on the
    /// tensor cores, [`scalar_term_flops`] on the scalar backends) and
    /// 128 CUDA-core FLOPs per nonzero tip. Once per 1-D sub-chunk: the
    /// `RdgGather`'s 8 staged `seg_len` segments, all charged to L2 here
    /// (a job moves its own points to HBM), and its `seg_len/4` A-fragment
    /// loads and MMAs.
    per_sub: PerfCounters,
    /// `Stage`s that stage in a job's first sub-tile (all of them) and in
    /// each later one (those whose window holds another plane by then).
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
                Op::FragBuild => {
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
                Op::RdgGather => {
                    let (segs, blocks) = (MMA_M as u64, (sched.seg_len / MMA_K) as u64);
                    let bytes = 8 * segs * sched.seg_len as u64;
                    per_sub.shared_store_requests += segs * sched.seg_len.div_ceil(32) as u64;
                    per_sub.l2_bytes += bytes;
                    if sched.copy_mode == CopyMode::Staged {
                        per_sub.staged_copy_bytes += bytes;
                    }
                    per_sub.shared_load_requests += blocks;
                    per_sub.mma_ops += blocks;
                }
                _ => {}
            }
        }
        // the window memo of the per-sub-tile walk, over a job's first
        // sub-tile and then any later one (every later one alike)
        let mut staged = None;
        let mut walk = || {
            let mut stages = 0;
            for op in &sched.ops {
                if let Op::Stage { dz } = *op {
                    if staged != Some(dz) {
                        staged = Some(dz);
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

    /// The counters of a row `h` rows high and `w` wide cut into
    /// `job_w`-wide jobs: every job but the last is `job_w` wide, so the
    /// row is that job's charges times their count plus the (possibly
    /// narrower) last job's.
    fn row(&self, sched: &Schedule, h: usize, w: usize, job_w: usize) -> PerfCounters {
        let mut c = PerfCounters::new();
        for (jw, n) in spans(w, job_w) {
            c.merge(&self.job(sched, h, jw).scaled(n));
        }
        c
    }

    /// The counters of a job `h` rows high and `w` wide.
    fn job(&self, sched: &Schedule, h: usize, w: usize) -> PerfCounters {
        let points = (h * w) as u64;
        let mut c = if sched.dims == 1 {
            // a run of 64-point sub-chunks; each segment's own 8 points
            // are its compulsory HBM share
            let mut c = self.per_sub.scaled(w.div_ceil(MMA_M * MMA_N) as u64);
            c.global_bytes_read += 8 * points;
            c.l2_bytes -= 8 * points;
            c
        } else {
            let (sub_rows, sub_cols) = (h.div_ceil(TILE_M), w.div_ceil(TILE_M));
            let n_sub = (sub_rows * sub_cols) as u64;
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
            c
        };
        c.global_bytes_written += 8 * points;
        c.points_updated += points * sched.fuse_steps as u64;
        c
    }
}

/// How `tiles_2d` cuts `len` into spans of at most `tile`: the full
/// spans and the clipped last one, each as `(span, count)`.
fn spans(len: usize, tile: usize) -> impl Iterator<Item = (usize, u64)> {
    [(tile, (len / tile) as u64), (len % tile, 1)].into_iter().filter(|&(s, n)| s > 0 && n > 0)
}

/// The `[planes, rows, cols]` of a grid of `extents` and the width of
/// its jobs under `tile`: `tile_cols` columns, or `8 · tile_cols` points
/// of a 1-D array, which is one row.
fn tiling(extents: &[usize], tile: &ScheduleParams) -> ([usize; 3], usize) {
    let job_w = if extents.len() == 1 { MMA_M * tile.tile_cols } else { tile.tile_cols };
    (plane_shape(extents), job_w)
}

/// The counters one application of `sched` charges over a grid of
/// `extents` under `tile`'s tile shape, in closed form: per plane, every
/// row band but the last is `tile_rows` high, so the application is the
/// full bands' row charges times their count plus the last band's.
fn application_counters(
    sched: &Schedule,
    charges: &StripCharges,
    extents: &[usize],
    tile: &ScheduleParams,
) -> PerfCounters {
    let ([nz, rows, cols], job_w) = tiling(extents, tile);
    let mut c = PerfCounters::new();
    for (h, n) in spans(rows, tile.tile_rows) {
        c.merge(&charges.row(sched, h, cols, job_w).scaled(n * nz as u64));
    }
    c
}

/// The units of work of a grid of `extents` under `tile`'s tile shape,
/// in order: per plane, the `tile_rows`-high row bands spanning the
/// plane, or each job of a 1-D array.
fn units(extents: &[usize], tile: &ScheduleParams) -> Vec<(usize, Tile2D)> {
    let ([nz, rows, cols], job_w) = tiling(extents, tile);
    let unit_w = if extents.len() == 1 { job_w } else { cols };
    let bands = tiles_2d(rows, cols, tile.tile_rows, unit_w);
    (0..nz).flat_map(|z| bands.iter().map(move |&t| (z, t))).collect()
}

/// A compiled instance of [`run_unit`].
///
/// # Safety
///
/// The host must support the instance's target features; obtain the
/// pointer from [`HostIsa::unit_fn`], which checks that.
type UnitFn =
    unsafe fn(&[GlobalArray], &Schedule, (usize, Tile2D), *mut f64, usize, &mut StripScratch);

/// [`run_unit`] recompiled with extra target features. The loop and
/// everything beneath it is `#[inline]`, so all of it — the strip
/// evaluators, the 1-D gather and the op walk — is compiled for the
/// wider vector unit, and the tensor-core strip kernel
/// runs on its registers and shuffles ([`StripIsa`]). Rust never
/// contracts `a * b + c` into an FMA and never reassociates, and a
/// transpose only moves values, so vectorization only packs independent
/// accumulator lanes: every output element keeps its operation sequence
/// and the results are bit-identical to the portable instance.
macro_rules! unit_instance {
    ($name:ident, $feature:literal, $isa:ident) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        fn $name(
            planes: &[GlobalArray],
            sched: &Schedule,
            unit: (usize, Tile2D),
            base: *mut f64,
            cols: usize,
            st: &mut StripScratch,
        ) {
            // SAFETY: the instance runs only on hosts with its target
            // feature (`HostIsa::unit_fn` checks)
            let isa = unsafe { $isa::new_unchecked() };
            run_unit(isa, planes, sched, unit, base, cols, st)
        }
    };
}

unit_instance!(run_unit_avx512f, "avx512f", Avx512f);
unit_instance!(run_unit_avx2, "avx2", Avx2);

/// The portable instance of [`run_unit`], the reference of the others.
fn run_unit_portable(
    planes: &[GlobalArray],
    sched: &Schedule,
    unit: (usize, Tile2D),
    base: *mut f64,
    cols: usize,
    st: &mut StripScratch,
) {
    run_unit(Portable, planes, sched, unit, base, cols, st)
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

/// The reusable per-apply buffers of a plan on a fixed grid shape and
/// tile shape: the lowered schedule, its units of work, the counters
/// one application charges and the output-pointer table. Callers that
/// manage their own grids (the distributed executor) build one per
/// (device, plan) and feed it a fresh input/output pair each
/// application; an [`ExecSession`](super::ExecSession) wraps one
/// together with double-buffered planes.
pub struct Workspace {
    sched: Schedule,
    /// The units of work, in order: `(z, band)` for each row band of a
    /// 2-D/3-D grid (it spans the plane), `(0, job)` for each 1-D job.
    units: Vec<(usize, Tile2D)>,
    /// What one application charges ([`application_counters`]).
    counters: PerfCounters,
    /// Reusable raw output-plane pointer table, one entry per plane, its
    /// capacity reserved here: worker lanes cannot share the `&mut`
    /// planes, so each application refills their pointers in place
    /// rather than allocating a table.
    sinks: Vec<usize>,
}

impl Workspace {
    /// Buffers for applying `plan` to grids of the given extents
    /// (`[n]`, `[rows, cols]` or `[nz, ny, nx]`) under `params`' tile
    /// shape: jobs of [`ScheduleParams::tile_rows`] ×
    /// [`ScheduleParams::tile_cols`] points (`8 · tile_cols` for 1-D).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`ScheduleParams::validate`]).
    pub fn new(plan: &Plan, extents: &[usize], params: &ScheduleParams) -> Self {
        let sched = Schedule::lower(plan);
        let charges = StripCharges::of(&sched);
        Workspace::from_lowered(sched, &charges, extents, params)
    }

    /// Buffers for an already lowered schedule and its strip charges.
    fn from_lowered(
        sched: Schedule,
        charges: &StripCharges,
        extents: &[usize],
        params: &ScheduleParams,
    ) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid ScheduleParams: {e}");
        }
        Workspace {
            counters: application_counters(&sched, charges, extents, params),
            units: units(extents, params),
            sinks: Vec::with_capacity(plane_shape(extents)[0]),
            sched,
        }
    }

    /// One (possibly fused) application from `input` into `out`
    /// (single-plane grids: 1-D arrays and 2-D grids).
    pub fn apply(&mut self, input: &GlobalArray, out: &mut GlobalArray) -> PerfCounters {
        self.apply_planes(std::slice::from_ref(input), std::slice::from_mut(out))
    }

    /// One (possibly fused) application from `planes` into `out`, and
    /// its counters (including the `global_bytes_written` a `store_span`
    /// of the outputs would charge), fixed when the workspace was built.
    /// Units of work — row bands, or single 1-D jobs — run in parallel
    /// and write their disjoint output bands directly. The loop runs on
    /// the best compiled instance this host supports ([`host_isa`]).
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
        let run = isa.unit_fn();
        let _apply = foundation::obs::span("apply");
        let cols = planes[0].cols();
        self.sinks.clear();
        self.sinks.extend(out.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
        let (sinks, units, sched) = (&self.sinks[..], &self.units[..], &self.sched);
        for_each_index(units.len(), |u| {
            let base = sinks[units[u].0] as *mut f64;
            // SAFETY: `unit_fn` checked the host supports the instance
            with_strip_scratch(|st| unsafe { run(planes, sched, units[u], base, cols, st) });
        });
        self.counters
    }
}

/// The plans of runs of one problem, and the counters they charge under
/// any tile shape in closed form: what an
/// [`ExecSession`](super::ExecSession)'s `run` returns, without running
/// anything. An application costs what `application_counters` prices
/// it at, and a run is `iterations / fusion` fused applications plus the
/// unfused remainder. The fused and the remainder plan are planned (and
/// decomposed) once, here ([`Plan::with_remainder`]), and lowered once,
/// on first use, or when a session is built from them.
pub struct RunCharges {
    extents: Vec<usize>,
    fused: Variant,
    /// The unfused remainder variant (`None` when the plan does not fuse).
    rem: Option<Variant>,
}

/// One fusion variant of a [`RunCharges`]: its plan and its lowering.
struct Variant {
    plan: Plan,
    lowered: OnceLock<(Schedule, StripCharges)>,
}

impl Variant {
    fn new(plan: Plan) -> Self {
        Variant { plan, lowered: OnceLock::new() }
    }

    /// The counters one application charges under `params`' tile shape.
    fn application(&self, extents: &[usize], params: &ScheduleParams) -> PerfCounters {
        let (sched, charges) = self.lowered.get_or_init(|| {
            let sched = Schedule::lower(&self.plan);
            let charges = StripCharges::of(&sched);
            (sched, charges)
        });
        application_counters(sched, charges, extents, params)
    }

    /// The plan and a workspace running it over grids of `extents` under
    /// `params`, reusing the lowering if one was priced.
    fn into_workspace(self, params: &ScheduleParams, extents: &[usize]) -> (Plan, Workspace) {
        let ws = match self.lowered.into_inner() {
            Some((sched, charges)) => Workspace::from_lowered(sched, &charges, extents, params),
            None => Workspace::new(&self.plan, extents, params),
        };
        (self.plan, ws)
    }
}

impl RunCharges {
    /// Plan `kernel` under `config` for a grid of `extents` (`[n]`,
    /// `[rows, cols]` or `[nz, ny, nx]`).
    pub fn new(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> Self {
        Self::planned(kernel, config, extents, None)
    }

    /// [`RunCharges::new`] for runs of `steps` steps (`None`: any count),
    /// planning the remainder only when such a run has one.
    pub(crate) fn planned(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        steps: Option<usize>,
    ) -> Self {
        assert_eq!(
            extents.len(),
            kernel.dims(),
            "extents {extents:?} for a {}-D kernel",
            kernel.dims()
        );
        let (fused, rem) = Plan::with_remainder(kernel, config, steps);
        RunCharges {
            extents: extents.to_vec(),
            fused: Variant::new(fused),
            rem: rem.map(Variant::new),
        }
    }

    /// The counters `iterations` steps charge under `params`.
    pub fn counters(&self, params: &ScheduleParams, iterations: usize) -> PerfCounters {
        let fusion = self.fused.plan.fusion;
        let (full, rem) = (iterations / fusion, iterations % fusion);
        let mut c = self.fused.application(&self.extents, params).scaled(full as u64);
        if let Some(v) = self.rem.as_ref().filter(|_| rem > 0) {
            c.merge(&v.application(&self.extents, params).scaled(rem as u64));
        }
        c
    }

    /// The fused plan's thread block under `params` (the block a run
    /// reports).
    pub fn block(&self, params: &ScheduleParams) -> BlockResources {
        self.fused.plan.block_resources(params)
    }

    /// The grid extents the charges are for.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// The fused plan with its workspace under `params`, and the
    /// remainder workspace when a remainder was planned: what an
    /// [`ExecSession`](super::ExecSession) runs, from the plans and
    /// lowerings made here.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`ScheduleParams::validate`]).
    pub(crate) fn into_workspaces(
        self,
        params: &ScheduleParams,
    ) -> (Plan, Workspace, Option<Workspace>) {
        let (plan, ws) = self.fused.into_workspace(params, &self.extents);
        let rem_ws = self.rem.map(|v| v.into_workspace(params, &self.extents).1);
        (plan, ws, rem_ws)
    }
}

/// One (possibly fused) stencil application of `plan` over a
/// single-plane grid under the default [`ScheduleParams`], into a new
/// grid.
pub fn apply_once(input: &GlobalArray, plan: &Plan) -> (GlobalArray, PerfCounters) {
    let extents = plane_extents(std::slice::from_ref(input), plan.dims());
    let mut ws = Workspace::new(plan, &extents, &ScheduleParams::default());
    let mut out = GlobalArray::new(input.rows(), input.cols());
    let counters = ws.apply(input, &mut out);
    (out, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DeviceBackend;
    use crate::schedule::walk::walk;
    use std::io::Write;
    use stencil_core::kernels;
    use stencil_core::tiling::tiles_1d;

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
            ScheduleParams { tile_rows: 64, tile_cols: 64 },
            ScheduleParams { tile_rows: 16, tile_cols: 16 },
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

    /// Every job of a tiling of a grid of `extents` under `p`, in the
    /// job loop's unit order (a row band's jobs are consecutive): the
    /// walk's job list, built apart from the workspace's units.
    fn jobs(extents: &[usize], p: &ScheduleParams) -> Vec<(usize, Tile2D)> {
        match *extents {
            [n] => tiles_1d(n, MMA_M * p.tile_cols)
                .into_iter()
                .map(|t| (0, Tile2D { r0: 0, c0: t.i0, h: 1, w: t.len }))
                .collect(),
            [rows, cols] => {
                tiles_2d(rows, cols, p.tile_rows, p.tile_cols).into_iter().map(|t| (0, t)).collect()
            }
            [nz, ny, nx] => {
                let tiles = tiles_2d(ny, nx, p.tile_rows, p.tile_cols);
                (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect()
            }
            _ => unreachable!("grids are 1-, 2- or 3-dimensional"),
        }
    }

    /// The per-sub-tile fragment walk of `ws`'s schedule on `planes`
    /// under `p`'s tile shape: the output planes with the total counters,
    /// and each job's counters, in [`jobs`] order.
    fn walk_on(
        ws: &Workspace,
        p: &ScheduleParams,
        planes: &[GlobalArray],
    ) -> ((Vec<GlobalArray>, PerfCounters), Vec<PerfCounters>) {
        let jobs = jobs(&plane_extents(planes, ws.sched.dims), p);
        let (out, jobs) = walk(&ws.sched, &jobs, planes);
        let mut total = PerfCounters::new();
        jobs.iter().for_each(|c| total.merge(c));
        ((out, total), jobs)
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

    /// Non-finite cells (row, col, value) that send whole chains to the
    /// dense instance and spread NaNs of both signs.
    const NON_FINITE: [(usize, usize, f64); 3] =
        [(3, 5, f64::INFINITY), (10, 17, f64::NEG_INFINITY), (17, 30, f64::NAN)];

    /// The vector instances of the job loop must reproduce the portable
    /// instance exactly — every output bit, NaN payloads included, and
    /// every counter — over every registry kernel, backend, toggle set and
    /// schedule shape, on plain and on non-finite inputs.
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
            let plain = test_planes(&kernel);
            let extents = plane_extents(&plain, kernel.dims());
            let inputs =
                [("plain", plain.clone()), ("non-finite", with_cells(&plain, &NON_FINITE))];
            for backend in DeviceBackend::all() {
                for config in test_configs() {
                    let plan = Plan::new(&kernel, ExecConfig { backend, ..config });
                    for p in test_params() {
                        let mut ws = Workspace::new(&plan, &extents, &p);
                        for (input, planes) in &inputs {
                            let want = run_on(&mut ws, HostIsa::Portable, planes);
                            for &isa in &vector {
                                let case = format!(
                                    "{} {input} on {} ({:?}, {})",
                                    kernel.name,
                                    isa.name(),
                                    plan.config,
                                    p.describe()
                                );
                                assert_bitwise(&case, &run_on(&mut ws, isa, planes), &want);
                            }
                        }
                    }
                }
            }
        }
    }

    /// A unit of work charges its jobs in closed form: a row band the full
    /// jobs times one full job's charges plus the narrower last job, a
    /// 1-D unit its one job. On every registry kernel, backend and tile
    /// shape, over grids whose width leaves a narrower last job in each
    /// row (and whose height leaves a partial last band and strip; 1-D
    /// lengths leave a partial 64-point sub-chunk), the workspace's units
    /// must be the tiling's job rows, each unit's row charge must equal
    /// the sum of its jobs' [`StripCharges::job`], the row charges must
    /// sum to the application's counters, and values and counters must
    /// not move with the lane count. On the tensor cores (and for 1-D,
    /// which gathers on them on every backend) each row charge must also
    /// equal what the per-sub-tile fragment walk charges the same jobs,
    /// with the same output bits (the walk runs tensor-core terms only).
    #[test]
    fn row_charges_match_the_job_sums_and_the_fragment_walk() {
        let shapes = [(8, 8), (16, 16), (8, 64), (64, 64)];
        let isa = HostIsa::detect();
        for kernel in kernels::all_kernels() {
            for backend in DeviceBackend::all() {
                let plan = Plan::new(&kernel, ExecConfig { backend, ..ExecConfig::full() });
                for (tile_rows, tile_cols) in shapes {
                    for cols in [37, 44] {
                        let planes = match kernel.dims() {
                            1 => vec![wavy(1, 4 * cols + 1, 5)],
                            2 => vec![wavy(20, cols, 5)],
                            _ => (0..3).map(|z| wavy(11, cols, z + 6)).collect(),
                        };
                        let extents = plane_extents(&planes, kernel.dims());
                        let params = ScheduleParams { tile_rows, tile_cols };
                        let case = format!(
                            "{} {backend:?} {} cols {cols}",
                            kernel.name,
                            params.describe()
                        );
                        let mut ws = Workspace::new(&plan, &extents, &params);
                        let charges = StripCharges::of(&ws.sched);
                        let job_w = tiling(&extents, &params).1;
                        // a unit's jobs: a row band's, or one 1-D job
                        let jobs = jobs(&extents, &params);
                        let per_unit =
                            if kernel.dims() == 1 { 1 } else { cols.div_ceil(tile_cols) };
                        assert_eq!(jobs.len(), ws.units.len() * per_unit, "{case}");
                        let (mut rows, mut total) = (Vec::new(), PerfCounters::new());
                        for (&(z, u), row) in ws.units.iter().zip(jobs.chunks(per_unit)) {
                            let ctx = format!("{case}: unit {u:?}");
                            assert!(
                                row.iter().all(|&(jz, t)| (jz, t.r0, t.h) == (z, u.r0, u.h)),
                                "{ctx}"
                            );
                            let width: usize = row.iter().map(|(_, t)| t.w).sum();
                            assert_eq!((row[0].1.c0, width), (u.c0, u.w), "{ctx}");
                            let mut sum = PerfCounters::new();
                            for &(_, t) in row {
                                sum.merge(&charges.job(&ws.sched, t.h, t.w));
                            }
                            let got = charges.row(&ws.sched, u.h, u.w, job_w);
                            assert_eq!(got.fields(), sum.fields(), "{ctx}");
                            total.merge(&got);
                            rows.push(got);
                        }
                        assert_eq!(ws.counters.fields(), total.fields(), "{case}");
                        let mut runs = Vec::new();
                        for lanes in ["1", "2", "7"] {
                            std::env::set_var("FOUNDATION_THREADS", lanes);
                            runs.push(run_on(&mut ws, isa, &planes));
                        }
                        std::env::remove_var("FOUNDATION_THREADS");
                        for got in &runs[1..] {
                            assert_bitwise(&case, got, &runs[0]);
                        }
                        if backend.uses_tcu() || kernel.dims() == 1 {
                            let (walked, walk_jobs) = walk_on(&ws, &params, &planes);
                            assert_bitwise(&case, &walked, &runs[0]);
                            for (row, jobs) in rows.iter().zip(walk_jobs.chunks(per_unit)) {
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

    /// The strip evaluator must reproduce the fragment path exactly —
    /// every output bit and every counter — on both tensor-core backends,
    /// over every registry kernel, toggle set and schedule shape, and on
    /// inputs that send whole chains (non-finite cells) or single terms
    /// (cells large enough for `T` to overflow) to the dense instance.
    #[test]
    fn band_term_chains_match_the_fragment_path_bitwise() {
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
                ("non-finite", with_cells(&plain, &NON_FINITE)),
                ("huge", with_cells(&plain, &huge)),
            ];
            for backend in [DeviceBackend::TcuF64, DeviceBackend::SparseTcu] {
                for config in test_configs() {
                    let config = ExecConfig { backend, ..config };
                    let plan = Plan::new(&kernel, config);
                    for p in test_params() {
                        let mut band = Workspace::new(&plan, &extents, &p);
                        for (input, planes) in &inputs {
                            let case =
                                format!("{} {input} ({config:?}, {})", kernel.name, p.describe());
                            assert_bitwise(
                                &case,
                                &run_on(&mut band, isa, planes),
                                &walk_on(&band, &p, planes).0,
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
    /// sub-tiles of a row see, must send the strip's terms to the dense
    /// instance, whose bits then match the fragment walk.
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
            let plan = Plan::new(&kernel, config);
            assert_eq!((plan.geo.h, plan.geo.s), (3, 16));
            let params = ScheduleParams::default();
            let mut strips = Workspace::new(&plan, &extents, &params);
            for (name, (r, c)) in cases {
                let planes = with_cells(&plain, &[(r, c, f64::NAN)]);
                let before = band_fallbacks().get();
                let got = run_on(&mut strips, isa, &planes);
                let fell_back = band_fallbacks().get() - before;
                let walked = walk_on(&strips, &params, &planes).0;
                assert_bitwise(&format!("{backend:?} {name}"), &got, &walked);
                assert!(fell_back > 0, "{backend:?} {name}: the strip check must fail");
                assert!(got.0[0].as_slice().iter().any(|v| v.is_nan()), "{name}: NaN must spread");
            }
        }
    }
}
