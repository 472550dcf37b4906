//! The one single-device time loop: every run — one-shot, checkpointed,
//! or a long-lived caller's re-run — is an [`ExecSession`].
//!
//! A run of `n` steps is `n / fusion` fused applications followed by
//! `n % fusion` unfused ones. An [`ExecSession`] owns the workspace of
//! each ([`RunCharges`] plans the pair) and the double-buffered planes,
//! and [`ExecSession::run`] steps through both phases. A one-shot
//! [`run_tuned`] (and [`run`]) moves its input planes into a session,
//! runs it once and hands the planes back; it plans and lowers the
//! remainder only when the run has one. A checkpointed run
//! (`crate::checkpoint`) does the same, starting from the counters of the
//! steps before the resume and snapshotting between applications.
//!
//! A request server answering the same (kernel, config, extents) job
//! thousands of times builds its session once, remainder included, and
//! re-runs jobs with **zero heap allocation** after the first call.

use super::planes::{plane_extents, plane_shape};
use super::workspace::{RunCharges, Workspace};
use super::ScheduleParams;
use crate::plan::ExecConfig;
use std::convert::Infallible;
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// A re-runnable execution context for one (kernel, config, extents)
/// triple.
///
/// Construction does all the expensive work — low-rank decomposition,
/// schedule lowering, fragment pre-building, plane and counter-slot
/// allocation. After one warm-up [`run`](ExecSession::run),
/// subsequent `fill` + `run` cycles allocate nothing and spawn no
/// threads (`tests/steady_state.rs` enforces this end-to-end).
pub struct ExecSession {
    ws: Workspace,
    /// Unfused workspace for `iterations % fusion` trailing steps: built
    /// whenever the fused plan advances more than one step per
    /// application, except for a single run ([`ExecSession::for_run`])
    /// that leaves no remainder.
    rem_ws: Option<Workspace>,
    fusion: usize,
    params: ScheduleParams,
    block: BlockResources,
    extents: Vec<usize>,
    cur: Vec<GlobalArray>,
    next: Vec<GlobalArray>,
}

impl ExecSession {
    /// Build a session with the default [`ScheduleParams`]. `extents` is
    /// `[n]`, `[rows, cols]` or `[nz, ny, nx]` and must match
    /// `kernel.dims()`.
    pub fn new(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> Self {
        Self::with_params(kernel, config, extents, ScheduleParams::default())
    }

    /// The explicit-params variant of [`new`](Self::new). The serve
    /// daemon uses this to pin a cache entry's pool refills to the
    /// params the entry memoized at insert time.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`ScheduleParams::validate`]).
    pub fn with_params(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        params: ScheduleParams,
    ) -> Self {
        Self::from_charges(RunCharges::new(kernel, config, extents), params)
    }

    /// The [`with_params`](Self::with_params) session, built from the
    /// plans (and the lowerings) a schedule choice already made for its
    /// kernel, config and extents: nothing is planned, decomposed or,
    /// once the choice priced a schedule, lowered again. The serve daemon's
    /// on-miss path uses this after ranking schedules.
    pub fn from_charges(charges: RunCharges, params: ScheduleParams) -> Self {
        let [nplanes, rows, cols] = plane_shape(charges.extents());
        let planes = (0..nplanes).map(|_| GlobalArray::new(rows, cols)).collect();
        Self::over_planes(charges, params, planes)
    }

    /// A session for one run of `steps` steps from `planes`, which it
    /// takes over as its current grid: the remainder is planned only if
    /// the run has one.
    pub(crate) fn for_run(
        kernel: &StencilKernel,
        config: ExecConfig,
        params: ScheduleParams,
        planes: Vec<GlobalArray>,
        steps: usize,
    ) -> Self {
        let extents = plane_extents(&planes, kernel.dims());
        let charges = RunCharges::planned(kernel, config, &extents, Some(steps));
        Self::over_planes(charges, params, planes)
    }

    /// A session running `charges`' plans under `params`, with `cur` as
    /// its current grid.
    fn over_planes(charges: RunCharges, params: ScheduleParams, cur: Vec<GlobalArray>) -> Self {
        let extents = charges.extents().to_vec();
        let (plan, ws, rem_ws) = charges.into_workspaces(&params);
        let next = cur.iter().map(|p| GlobalArray::new(p.rows(), p.cols())).collect();
        ExecSession {
            ws,
            rem_ws,
            fusion: plan.fusion,
            params,
            block: plan.block_resources(&params),
            extents,
            cur,
            next,
        }
    }

    /// Overwrite the current grid with `f(linear_index)`, the same
    /// plane-major order the CLI's grid builder uses (so a session fill
    /// and an offline `--seed` grid agree element for element).
    pub fn fill_with(&mut self, mut f: impl FnMut(u64) -> f64) {
        let mut idx = 0u64;
        for plane in &mut self.cur {
            for v in plane.as_mut_slice() {
                *v = f(idx);
                idx += 1;
            }
        }
    }

    /// Run `iterations` time steps from the current grid contents:
    /// `iterations / fusion` fused applications, then the remainder on
    /// the unfused workspace. The result becomes the current grid;
    /// counters are the merged per-application invariants.
    pub fn run(&mut self, iterations: usize) -> PerfCounters {
        let Ok(counters) =
            self.run_from(iterations, PerfCounters::new(), |_, _, _| Ok::<(), Infallible>(()));
        counters
    }

    /// [`run`](Self::run) continuing from `counters` (a resumed run's
    /// prefix). After every application, `on_apply(advance, planes,
    /// counters)` sees the steps it advanced, the new planes and the
    /// running counters; an error from it stops the run.
    pub(crate) fn run_from<E>(
        &mut self,
        iterations: usize,
        mut counters: PerfCounters,
        mut on_apply: impl FnMut(usize, &[GlobalArray], &PerfCounters) -> Result<(), E>,
    ) -> Result<PerfCounters, E> {
        let (full, rem) = (iterations / self.fusion, iterations % self.fusion);
        for _ in 0..full {
            counters.merge(&self.ws.apply_planes(&self.cur, &mut self.next));
            std::mem::swap(&mut self.cur, &mut self.next);
            on_apply(self.fusion, &self.cur, &counters)?;
        }
        if rem > 0 {
            let rw = self.rem_ws.as_mut().expect("a run with a remainder plans its workspace");
            for _ in 0..rem {
                counters.merge(&rw.apply_planes(&self.cur, &mut self.next));
                std::mem::swap(&mut self.cur, &mut self.next);
                on_apply(1, &self.cur, &counters)?;
            }
        }
        Ok(counters)
    }

    /// The current grid planes (job output after [`run`](Self::run)).
    pub fn planes(&self) -> &[GlobalArray] {
        &self.cur
    }

    /// Consume the session, returning the current grid planes.
    pub fn into_planes(self) -> Vec<GlobalArray> {
        self.cur
    }

    /// Grid extents the session was built for.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Temporal steps one fused application advances.
    pub fn fusion(&self) -> usize {
        self.fusion
    }

    /// The schedule parameters the session runs (the defaults, or the
    /// ones it was built with) — cache observability for the serve
    /// `stats` op.
    pub fn params(&self) -> ScheduleParams {
        self.params
    }

    /// Per-block resource footprint of the fused plan.
    pub fn block(&self) -> BlockResources {
        self.block
    }

    /// Total number of grid points (digest/profile sizing).
    pub fn points(&self) -> usize {
        self.extents.iter().product()
    }
}

/// The full time loop of a one-shot run with the default
/// [`ScheduleParams`]: [`run_tuned`] under them.
pub fn run(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    run_tuned(kernel, config, ScheduleParams::default(), planes, iterations)
}

/// A one-shot run of `iterations` steps from `planes` with exactly the
/// given [`ScheduleParams`]: a session over the planes, run once. It
/// returns the final planes, the counters and the fused plan's block.
pub fn run_tuned(
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    let mut session = ExecSession::for_run(kernel, config, params, planes, iterations);
    let counters = session.run(iterations);
    let block = session.block;
    (session.into_planes(), counters, block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Plan;
    use stencil_core::kernels;

    fn seed_fn(seed: u64) -> impl Fn(u64) -> f64 {
        move |idx: u64| {
            let x = idx.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15);
            ((x >> 17) % 4096) as f64 / 256.0 - 8.0
        }
    }

    /// `iters` steps written out as a plain loop, independent of the
    /// session: `iters / f` applications of a workspace of the fused
    /// plan, then `iters % f` of one of the unfused plan, both planned
    /// under `params`.
    fn plain_loop(
        kernel: &StencilKernel,
        config: ExecConfig,
        params: ScheduleParams,
        extents: &[usize],
        iters: usize,
        seed: u64,
    ) -> (Vec<f64>, PerfCounters) {
        let [nplanes, rows, cols] = plane_shape(extents);
        let f = seed_fn(seed);
        let mut cur: Vec<GlobalArray> = (0..nplanes)
            .map(|z| {
                let n = rows * cols;
                GlobalArray::from_vec(rows, cols, (0..n).map(|i| f((z * n + i) as u64)).collect())
            })
            .collect();
        let mut next = cur.clone();
        let fused = Plan::new(kernel, config);
        let unfused = Plan::new(kernel, ExecConfig { allow_fusion: false, ..config });
        let mut counters = PerfCounters::new();
        let f = fused.fusion;
        for (plan, n) in [(&fused, iters / f), (&unfused, iters % f)] {
            let mut ws = Workspace::new(plan, extents, &params);
            for _ in 0..n {
                counters.merge(&ws.apply_planes(&cur, &mut next));
                std::mem::swap(&mut cur, &mut next);
            }
        }
        (cur.iter().flat_map(|p| p.as_slice().iter().copied()).collect(), counters)
    }

    fn assert_session_is_the_plain_loop(
        sess: &mut ExecSession,
        kernel: &StencilKernel,
        config: ExecConfig,
        iters: usize,
        ctx: &str,
    ) {
        let (want_vals, want_counters) =
            plain_loop(kernel, config, sess.params(), sess.extents(), iters, 42);
        for round in 0..3 {
            sess.fill_with(seed_fn(42));
            let counters = sess.run(iters);
            let got: Vec<f64> =
                sess.planes().iter().flat_map(|p| p.as_slice().iter().copied()).collect();
            assert_eq!(got.len(), want_vals.len(), "{ctx}");
            for (i, (g, w)) in got.iter().zip(&want_vals).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{ctx} round {round} value {i}");
            }
            assert_eq!(counters.fields(), want_counters.fields(), "{ctx} round {round} counters");
        }
    }

    #[test]
    fn session_matches_a_plain_fused_and_remainder_loop_bitwise() {
        // fused (Box-2D9P -> fusion 3 by default) with a non-multiple
        // iteration count exercises the fused + remainder split, plus an
        // unfused 2-D, a 1-D and a 3-D case
        let cases: [(&str, Vec<usize>, usize); 4] = [
            ("Box-2D9P", vec![40, 48], 5),
            ("Box-2D49P", vec![40, 48], 5),
            ("Heat-1D", vec![256], 4),
            ("Heat-3D", vec![4, 16, 24], 2),
        ];
        for (name, extents, iters) in cases {
            let kernel = kernels::by_name(name).unwrap();
            let config = ExecConfig::default();
            let mut sess = ExecSession::new(&kernel, config, &extents);
            assert_session_is_the_plain_loop(&mut sess, &kernel, config, iters, name);
        }
    }

    #[test]
    fn with_params_matches_a_plain_fused_and_remainder_loop_bitwise() {
        // non-default (but schedule-neutral) tilings on a fused kernel
        // with a remainder
        let kernel = kernels::by_name("Box-2D9P").unwrap();
        let config = ExecConfig::default();
        for params in [
            ScheduleParams { tile_rows: 16, tile_cols: 16 },
            ScheduleParams { tile_rows: 32, tile_cols: 8 },
        ] {
            let mut sess = ExecSession::with_params(&kernel, config, &[40, 48], params);
            assert_eq!(sess.params(), params);
            assert_session_is_the_plain_loop(&mut sess, &kernel, config, 5, &params.describe());
        }
    }

    #[test]
    fn run_from_continues_the_counters_and_stops_on_a_hook_error() {
        let kernel = kernels::by_name("Box-2D9P").unwrap();
        let mut sess = ExecSession::new(&kernel, ExecConfig::default(), &[16, 16]);
        sess.fill_with(seed_fn(1));
        let whole = sess.run(7);
        // the same 7 steps, resumed after 4: the prefix carries over and
        // the hook sees every application's advance
        sess.fill_with(seed_fn(1));
        let prefix = sess.run(4);
        let mut advances = Vec::new();
        let Ok(resumed) = sess.run_from(3, prefix, |advance, planes, _| {
            advances.push((advance, planes.len()));
            Ok::<(), Infallible>(())
        });
        assert_eq!(resumed.fields(), whole.fields());
        assert_eq!(advances, [(3, 1)]);
        // an error from the hook stops the run after that application
        let mut calls = 0;
        let err = sess.run_from(5, PerfCounters::new(), |_, _, _| {
            calls += 1;
            Err("stop")
        });
        assert_eq!((err, calls), (Err("stop"), 1));
    }

    #[test]
    fn from_charges_matches_with_params_bitwise() {
        // fused and unfused kernels, 2-D and 3-D, tensor-core and scalar
        // configs, default and non-default tilings; the charges are
        // priced first (reused lowerings) or not at all (lowered on the
        // spot)
        let roster = ExecConfig::ablation_roster();
        let tiled = |tile_rows, tile_cols| ScheduleParams { tile_rows, tile_cols };
        let cases: [(&str, Vec<usize>, ScheduleParams); 5] = [
            ("Box-2D9P", vec![40, 48], ScheduleParams::default()),
            ("Heat-2D", vec![37, 44], tiled(16, 32)),
            ("Box-2D49P", vec![24, 40], tiled(16, 8)),
            ("Heat-3D", vec![4, 16, 24], tiled(8, 16)),
            ("Box-3D27P", vec![3, 16, 16], ScheduleParams::default()),
        ];
        for (name, extents, params) in &cases {
            let kernel = kernels::by_name(name).unwrap();
            for (tag, config) in &roster {
                for priced in [false, true] {
                    let ctx = format!("{name} {tag} {} priced={priced}", params.describe());
                    let charges = RunCharges::new(&kernel, *config, extents);
                    if priced {
                        charges.counters(params, 5);
                    }
                    let mut got = ExecSession::from_charges(charges, *params);
                    let mut want = ExecSession::with_params(&kernel, *config, extents, *params);
                    assert_eq!(got.params(), want.params(), "{ctx}");
                    assert_eq!(got.fusion(), want.fusion(), "{ctx}");
                    assert_eq!(got.block(), want.block(), "{ctx}");
                    for sess in [&mut got, &mut want] {
                        sess.fill_with(seed_fn(3));
                    }
                    assert_eq!(got.run(5).fields(), want.run(5).fields(), "{ctx}");
                    for (g, w) in got.planes().iter().zip(want.planes()) {
                        for (a, b) in g.as_slice().iter().zip(w.as_slice()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_iterations_returns_the_fill() {
        let kernel = kernels::by_name("Box-2D9P").unwrap();
        let mut sess = ExecSession::new(&kernel, ExecConfig::default(), &[16, 16]);
        sess.fill_with(seed_fn(7));
        let counters = sess.run(0);
        assert_eq!(counters.fields().iter().map(|(_, v)| v).sum::<u64>(), 0);
        let f = seed_fn(7);
        for (i, v) in sess.planes()[0].as_slice().iter().enumerate() {
            assert_eq!(v.to_bits(), f(i as u64).to_bits());
        }
    }
}
