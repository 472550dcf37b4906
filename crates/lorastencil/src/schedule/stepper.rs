//! The generic schedule interpreter: one [`Workspace`]/[`Stepper`] pair
//! executes lowered [`Schedule`]s of any dimensionality.
//!
//! The host-side loop keeps the PR 2 steady-state guarantees: a
//! [`Stepper`] double-buffers the grid planes and reuses every per-apply
//! buffer, so an iteration allocates nothing and spawns no threads.
//! Jobs run in parallel and write their disjoint output bands directly;
//! per-job counters land in preallocated index-addressed slots and
//! merge sequentially **in job order**, so counters and values are
//! bit-identical at any thread count.
//!
//! A *job* is one macro tile of [`Schedule::tile_h`] × [`Schedule::tile_w`]
//! output points (one thread block); the interpreter walks the warp
//! program once per 8×8 **sub-tile** inside it. Macro tiles stage one
//! large shared window per input plane and memoize which plane each
//! shared slot holds, so sub-tiles after the first skip re-staging
//! whenever the slot still matches — under [`Staging::Double`] two slots
//! ping-pong, letting the next plane's halo loads overlap the live
//! slot's MMA chain. Sub-tile boundaries stay on multiples of 8, so the
//! global sub-tile set (and with it every Eq. 12/13/16 counter and every
//! FP operation order) is identical for every tile size.

use super::backend::{Backend, CudaCore, SimdCore, SparseTcu, TcuF64};
use super::scratch::{with_tile_scratch, TileScratch};
use super::{plane_extents, BackendKind, Op, Schedule, ScheduleParams, Staging};
use crate::plan::{ExecConfig, Plan};
use crate::rdg::TILE_M;
use foundation::par::*;
use std::convert::Infallible;
use stencil_core::tiling::{clamped_span, tiles_1d, tiles_2d, window_origin, Tile2D};
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, GlobalArray, PerfCounters, SimContext, MMA_M, MMA_N};

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

/// Interpret one macro job: loop its 8×8 sub-tiles (64-point sub-chunks
/// for 1-D), compute each with a stack-local backend, and write the
/// disjoint output bands directly. One tile-local context accumulates
/// the whole job's counters.
///
/// This is the portable instance of the job loop; [`HostIsa`] compiles
/// it again for wider vector units. Each backend gets its own instance
/// ([`HostIsa::job_fn`]), so a sub-tile dispatches on no backend and one
/// backend's code never shares a compiled loop with another's.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_job<B: Backend>(
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
            let vals =
                subtile_on::<B>(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
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
                let vals =
                    subtile_on::<B>(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
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

/// One sub-tile's op walk with a stack-local backend (no allocation).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn subtile_on<B: Backend>(
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
    let mut backend = B::default();
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
                    let zp =
                        (z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize);
                    let src = &planes[zp as usize];
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
                // the scalar backends read only the transposed window;
                // tensor-core chains read it too and build fragments from
                // it only on a fallback, except in a traced run, which
                // records every MMA and so builds them here
                if B::WINDOW_ONLY || (sched.band && ctx.trace().is_none()) {
                    scratch.band.load_at(ctx, tile, sched.geo, r_off, c_off);
                } else {
                    scratch.x.load_into_at(ctx, tile, sched.geo, r_off, c_off);
                    scratch.band.unstage();
                }
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
                backend.gather_1d(ctx, &scratch.tiles[0], sched);
                i += 1;
            }
            Op::MmaChain { term } => {
                // collect the contiguous chain plus its pyramid tip: one
                // backend call per decomposition, reusing the X fragments
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
                backend.term_chain(
                    ctx,
                    &mut scratch.x,
                    &mut scratch.band,
                    sched,
                    &sched.terms[first..end],
                    pw,
                );
            }
            Op::Pointwise { weight } => {
                // term-less decomposition: still one (empty) chain call so
                // the backend's phase structure is uniform
                backend.term_chain(
                    ctx,
                    &mut scratch.x,
                    &mut scratch.band,
                    sched,
                    &[],
                    Some(weight),
                );
                i += 1;
            }
            Op::PointwisePlane { dz, weight } => {
                // CUDA-core point-wise path: direct coalesced reads (L2:
                // the compulsory HBM pass is charged where this plane is
                // the kernel center), no shared-memory staging
                // (Algorithm 2 line 5).
                let zp = (z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize);
                let src = &planes[zp as usize];
                let acc_vals = backend.vals_mut();
                let mut flops = 0u64;
                let mut span = [0.0f64; MMA_N];
                for (p, row) in acc_vals.iter_mut().enumerate() {
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
    let vals = backend.finish(sched.fold);
    // each application advances `fuse_steps` temporal steps of updates
    ctx.points((sub.h * sub.w * sched.fuse_steps) as u64);
    vals
}

/// A compiled instance of [`run_job`] for one backend.
///
/// # Safety
///
/// The host must support the instance's target features; obtain the
/// pointer from [`HostIsa::job_fn`], which checks that.
type JobFn = unsafe fn(
    &[GlobalArray],
    &Schedule,
    usize,
    usize,
    Tile2D,
    *mut f64,
    usize,
    &mut TileScratch,
) -> PerfCounters;

/// [`run_job`] recompiled with extra target features. The job loop and
/// everything beneath it is `#[inline]`, so the whole loop — op walk,
/// backend bodies, RDG term chains, tcu-sim primitives — is compiled for
/// the wider vector unit. Rust never contracts `a * b + c` into an FMA
/// and never reassociates, so vectorization only packs independent
/// accumulator lanes: every output element keeps its operation sequence
/// and the results are bit-identical to the portable instance.
macro_rules! job_instance {
    ($name:ident, $feature:literal) => {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        fn $name<B: Backend>(
            planes: &[GlobalArray],
            sched: &Schedule,
            job_i: usize,
            z: usize,
            t: Tile2D,
            base: *mut f64,
            cols: usize,
            scratch: &mut TileScratch,
        ) -> PerfCounters {
            run_job::<B>(planes, sched, job_i, z, t, base, cols, scratch)
        }
    };
}

job_instance!(run_job_avx512f, "avx512f");
job_instance!(run_job_avx2, "avx2");

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

    /// The instance's job loop for `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the host lacks the instance's target features.
    fn job_fn(self, backend: BackendKind) -> JobFn {
        assert!(self.supported(), "host cannot run the {} job loop", self.name());
        match backend {
            BackendKind::TcuF64 => self.job_fn_on::<TcuF64>(),
            BackendKind::SparseTcu => self.job_fn_on::<SparseTcu>(),
            BackendKind::CudaCore => self.job_fn_on::<CudaCore>(),
            BackendKind::SimdCore => self.job_fn_on::<SimdCore>(),
        }
    }

    /// The instance's job loop monomorphized for backend `B`.
    fn job_fn_on<B: Backend>(self) -> JobFn {
        match self {
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx512f => run_job_avx512f::<B>,
            #[cfg(target_arch = "x86_64")]
            HostIsa::Avx2 => run_job_avx2::<B>,
            _ => run_job::<B>,
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
/// lowered schedule, the `(plane, tile)` job list, the counter slots and
/// the output-pointer table. Callers that manage their own grids (the
/// distributed executor) build one per (device, plan) and feed it a
/// fresh input/output pair each application; [`Stepper`] wraps one
/// together with double-buffered planes.
pub struct Workspace {
    sched: Schedule,
    jobs: Vec<(usize, Tile2D)>,
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
        Workspace { sched, jobs, slots: Vec::new(), sinks: Vec::new() }
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

    /// One (possibly fused) application from `planes` into `out`. Jobs
    /// run in parallel and write their disjoint output bands directly
    /// (each band write charges the same `global_bytes_written` a
    /// `store_span` would); per-job counters go to preallocated slots
    /// and merge sequentially in job order, keeping the totals
    /// independent of scheduling. The job loop runs on the best compiled
    /// instance this host supports ([`host_isa`]).
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
        let job = isa.job_fn(self.sched.backend);
        let _apply = foundation::obs::span("apply");
        let cols = planes[0].cols();
        self.slots.clear();
        self.slots.resize(self.jobs.len(), PerfCounters::new());
        self.sinks.clear();
        self.sinks.extend(out.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
        {
            let slot_sink = UnsafeSlice::new(&mut self.slots[..]);
            let sinks: &[usize] = &self.sinks;
            let jobs = &self.jobs;
            let sched = &self.sched;
            for_each_index(jobs.len(), |i| {
                let (z, t) = jobs[i];
                let base = sinks[z] as *mut f64;
                // SAFETY: `job_fn` checked the host supports the instance
                let counters =
                    with_tile_scratch(|s| unsafe { job(planes, sched, i, z, t, base, cols, s) });
                // SAFETY: each index is written by exactly one job
                unsafe { slot_sink.write(i, counters) };
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
}
