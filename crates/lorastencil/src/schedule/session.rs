//! Reusable execution sessions for long-lived callers (the serve daemon).
//!
//! [`run`](super::run) builds a plan, lowers it, allocates workspaces and
//! grid planes, steps, and throws everything away. A request server
//! answering the same (kernel, config, extents) job thousands of times
//! should pay that setup once: an [`ExecSession`] owns the tuned fused
//! workspace, the unfused-remainder workspace, and the double-buffered
//! planes, and re-runs jobs with **zero heap allocation** after the first
//! call. Results — values and invariant counters — are bit-identical to
//! the one-shot [`run`](super::run) path by construction: both interpret
//! the same lowered schedules in the same fused/remainder split.

use super::stepper::{RunCharges, Workspace};
use super::ScheduleParams;
use crate::plan::{ExecConfig, Plan};
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// A cached, re-runnable execution context for one
/// (kernel, config, extents) triple.
///
/// Construction does all the expensive work — low-rank decomposition,
/// schedule lowering, fragment pre-building, plane and counter-slot
/// allocation. After one warm-up [`run`](ExecSession::run),
/// subsequent `fill` + `run` cycles allocate nothing and spawn no
/// threads (`tests/steady_state.rs` enforces this end-to-end).
pub struct ExecSession {
    ws: Workspace,
    /// Unfused workspace for `iterations % fusion` trailing steps; built
    /// eagerly (the whole point is no work on the request path) when the
    /// fused plan advances more than one step per application.
    rem_ws: Option<Workspace>,
    fusion: usize,
    params: ScheduleParams,
    block: BlockResources,
    extents: Vec<usize>,
    cur: Vec<GlobalArray>,
    next: Vec<GlobalArray>,
}

impl ExecSession {
    /// Build a session with the default [`ScheduleParams`], exactly like
    /// [`run`](super::run) (same `Plan::new` calls, so the lowered
    /// schedules — and with them values and counters — match the offline
    /// path bit for bit). `extents` is `[n]`, `[rows, cols]` or
    /// `[nz, ny, nx]` and must match `kernel.dims()`.
    pub fn new(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> Self {
        let plan = Plan::new(kernel, config);
        let rem = |fusion: usize| {
            (fusion > 1).then(|| Plan::new(kernel, ExecConfig { allow_fusion: false, ..config }))
        };
        Self::from_plan(kernel, plan, rem, extents)
    }

    /// The explicit-params variant of [`new`](Self::new): build with
    /// exactly the given [`ScheduleParams`] — the same plan pair
    /// [`run_tuned`](super::run_tuned) constructs, so
    /// the tuner's bit-identity gate applies verbatim to sessions. The
    /// serve daemon uses this to pin a cache entry's pool refills to the
    /// params the entry memoized at insert time.
    pub fn with_params(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        params: ScheduleParams,
    ) -> Self {
        let plan = Plan::new_with_params(kernel, config, params);
        let rem = |fusion: usize| {
            (fusion > 1).then(|| {
                Plan::new_with_params(kernel, ExecConfig { allow_fusion: false, ..config }, params)
            })
        };
        Self::from_plan(kernel, plan, rem, extents)
    }

    /// The [`with_params`](Self::with_params) session, built from the
    /// plans (and the lowerings) a schedule choice already made for its
    /// kernel, config and extents: nothing is planned, decomposed or,
    /// for a staging the choice priced, lowered again. The serve daemon's
    /// on-miss path uses this after ranking schedules.
    ///
    /// # Panics
    ///
    /// Panics if `params.fuse_override` is set (a chosen schedule never
    /// sets it).
    pub fn from_charges(charges: RunCharges, params: ScheduleParams) -> Self {
        let extents = charges.extents().to_vec();
        let (plan, ws, rem_ws) = charges.into_workspaces(params);
        Self::from_workspaces(&plan, ws, rem_ws, &extents)
    }

    fn from_plan(
        kernel: &StencilKernel,
        plan: Plan,
        rem_plan: impl FnOnce(usize) -> Option<Plan>,
        extents: &[usize],
    ) -> Self {
        assert_eq!(
            extents.len(),
            kernel.dims(),
            "extents {extents:?} do not match a {}-D kernel",
            kernel.dims()
        );
        let rem_ws = rem_plan(plan.fusion).map(|rp| Workspace::new(&rp, extents));
        let ws = Workspace::new(&plan, extents);
        Self::from_workspaces(&plan, ws, rem_ws, extents)
    }

    /// A session around the fused `plan`'s workspace (and the remainder
    /// workspace when it fuses), with fresh planes for `extents`.
    fn from_workspaces(
        plan: &Plan,
        ws: Workspace,
        rem_ws: Option<Workspace>,
        extents: &[usize],
    ) -> Self {
        let (nplanes, rows, cols) = match *extents {
            [n] => (1, 1, n),
            [rows, cols] => (1, rows, cols),
            [nz, ny, nx] => (nz, ny, nx),
            _ => unreachable!("grids are 1-, 2- or 3-dimensional"),
        };
        let cur = (0..nplanes).map(|_| GlobalArray::new(rows, cols)).collect();
        let next = (0..nplanes).map(|_| GlobalArray::new(rows, cols)).collect();
        ExecSession {
            ws,
            rem_ws,
            fusion: plan.fusion,
            params: plan.params,
            block: plan.block_resources(),
            extents: extents.to_vec(),
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
    /// the unfused workspace — the exact split of [`run`](super::run).
    /// The result becomes the current grid; counters are the merged
    /// per-application invariants.
    pub fn run(&mut self, iterations: usize) -> PerfCounters {
        let mut counters = PerfCounters::new();
        let full = iterations / self.fusion;
        let rem = iterations % self.fusion;
        for _ in 0..full {
            counters.merge(&self.ws.apply_planes(&self.cur, &mut self.next));
            std::mem::swap(&mut self.cur, &mut self.next);
        }
        if rem > 0 {
            let rw = self.rem_ws.as_mut().expect("fusion > 1 implies a remainder workspace");
            for _ in 0..rem {
                counters.merge(&rw.apply_planes(&self.cur, &mut self.next));
                std::mem::swap(&mut self.cur, &mut self.next);
            }
        }
        counters
    }

    /// The current grid planes (job output after [`run`](Self::run)).
    pub fn planes(&self) -> &[GlobalArray] {
        &self.cur
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{run, Staging};
    use stencil_core::kernels;

    fn seed_fn(seed: u64) -> impl Fn(u64) -> f64 {
        move |idx: u64| {
            let x = idx.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15);
            ((x >> 17) % 4096) as f64 / 256.0 - 8.0
        }
    }

    fn offline(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        iters: usize,
        seed: u64,
    ) -> (Vec<f64>, PerfCounters) {
        let f = seed_fn(seed);
        let (nplanes, rows, cols) = match *extents {
            [n] => (1, 1, n),
            [rows, cols] => (1, rows, cols),
            [nz, ny, nx] => (nz, ny, nx),
            _ => unreachable!(),
        };
        let mut idx = 0u64;
        let planes: Vec<GlobalArray> = (0..nplanes)
            .map(|_| {
                let vals: Vec<f64> = (0..rows * cols)
                    .map(|_| {
                        let v = f(idx);
                        idx += 1;
                        v
                    })
                    .collect();
                GlobalArray::from_vec(rows, cols, vals)
            })
            .collect();
        let (out, counters, _) = run(kernel, config, planes, iters);
        (out.iter().flat_map(|p| p.as_slice().iter().copied()).collect(), counters)
    }

    #[test]
    fn session_matches_one_shot_run_bitwise() {
        // fused (Box2D -> fusion 3 by default) with a non-multiple
        // iteration count exercises the fused + remainder split, plus a
        // 1-D and a 3-D case
        let cases: [(&str, Vec<usize>, usize); 3] = [
            ("Box-2D49P", vec![40, 48], 5),
            ("1D5P", vec![256], 4),
            ("Heat-3D", vec![4, 16, 24], 2),
        ];
        for (name, extents, iters) in cases {
            let kernel = kernels::by_name(name).unwrap();
            let config = ExecConfig::default();
            let (want_vals, want_counters) = offline(&kernel, config, &extents, iters, 42);

            let mut sess = ExecSession::new(&kernel, config, &extents);
            for round in 0..3 {
                sess.fill_with(seed_fn(42));
                let counters = sess.run(iters);
                let got: Vec<f64> =
                    sess.planes().iter().flat_map(|p| p.as_slice().iter().copied()).collect();
                assert_eq!(got.len(), want_vals.len(), "{name}");
                for (i, (g, w)) in got.iter().zip(&want_vals).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name} round {round} value {i}");
                }
                assert_eq!(
                    counters.fields(),
                    want_counters.fields(),
                    "{name} round {round} counters"
                );
            }
        }
    }

    #[test]
    fn with_params_matches_run_tuned_bitwise() {
        // a non-default (but schedule-neutral) tiling: the session must
        // reproduce `run_tuned`'s fused + remainder split exactly
        let kernel = kernels::by_name("Box-2D49P").unwrap();
        let config = ExecConfig::default();
        let params = ScheduleParams { tile_rows: 16, tile_cols: 16, ..ScheduleParams::default() };
        let (extents, iters, seed) = ([40usize, 48], 5usize, 42u64);

        let f = seed_fn(seed);
        let vals: Vec<f64> = (0..extents[0] * extents[1]).map(|i| f(i as u64)).collect();
        let planes = vec![GlobalArray::from_vec(extents[0], extents[1], vals)];
        let (want, want_counters, _) =
            crate::schedule::run_tuned(&kernel, config, params, planes, iters);

        let mut sess = ExecSession::with_params(&kernel, config, &extents, params);
        assert_eq!(sess.params(), params);
        sess.fill_with(seed_fn(seed));
        let counters = sess.run(iters);
        for (g, w) in sess.planes()[0].as_slice().iter().zip(want[0].as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(counters.fields(), want_counters.fields());
    }

    #[test]
    fn from_charges_matches_with_params_bitwise() {
        // fused and unfused kernels, 2-D and 3-D, tensor-core and scalar
        // configs, default and non-default tilings on both stagings;
        // the charges are priced for some stagings first (reused
        // lowerings) and for none on the others (lowered on the spot)
        let roster = ExecConfig::ablation_roster();
        let tiled = |tile_rows, tile_cols, staging| ScheduleParams {
            tile_rows,
            tile_cols,
            staging,
            ..ScheduleParams::default()
        };
        let cases: [(&str, Vec<usize>, ScheduleParams); 5] = [
            ("Box-2D9P", vec![40, 48], ScheduleParams::default()),
            ("Heat-2D", vec![37, 44], tiled(16, 32, Staging::Double)),
            ("Box-2D49P", vec![24, 40], tiled(16, 8, Staging::Single)),
            ("Heat-3D", vec![4, 16, 24], tiled(8, 16, Staging::Double)),
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
