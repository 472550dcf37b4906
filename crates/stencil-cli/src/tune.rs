//! Schedule choice on the modeled A100: the `tune` subcommand and the
//! serve daemon's on-miss path share [`choose`].
//!
//! Per `(kernel, config, extents, iterations)` the chooser enumerates
//! the candidate tilings (tile extents, [`candidate_space`]),
//! and ranks every one the modeled A100 can launch by
//! `CostModel::a100().estimate(counters, block).total`. The counters are
//! those a run would charge, from their closed forms
//! ([`RunCharges`]), so no candidate runs: ranking is tens of
//! microseconds of arithmetic, and the choice is a pure function of its
//! key — the same key gets the same schedule in every process and on
//! every host, so nothing stores it. Ties keep the default schedule,
//! then the candidate order. On the host the schedules cost the same: a
//! strip spans the plane whatever the tile shape, so timing them would
//! only rank host noise.
//!
//! No candidate changes the temporal fusion depth: the planner alone
//! chooses it. 1-D tilings all tie: the gather charges per 64-point sub-chunk
//! whatever the job length, on the same block, so the default wins.
//!
//! **The bit-identity gate:** a non-default winner runs once next to
//! the default before it is reported or memoized; its output planes
//! and schedule-invariant counters
//! ([`tcu_sim::PerfCounters::schedule_invariants`]) must match bit for
//! bit, or the default is kept. A schedule is allowed to be *faster*,
//! never *different* — so a memoized schedule can never change an
//! answer. A default winner needs no run.
//!
//! `tune` prints the ranked table and the winner and writes nothing;
//! `run`, `profile`, checkpoints and [`lorastencil::LoRaStencil`] always
//! run the default schedule, whose modeled figures are pinned.

use lorastencil::schedule::{self, grid_to_planes, RunCharges, ScheduleParams};
use lorastencil::{ExecConfig, ExecSession, Plan};
use stencil_core::StencilKernel;
use tcu_sim::{
    occupancy, BlockResources, CostModel, DeviceSpec, Estimate, GlobalArray, PerfCounters,
};

/// Every tiling the chooser considers, launchable or not: tile extents
/// clamped to the grid (a job larger than the grid is the same schedule
/// as one exactly covering it), the default first.
fn tilings(kernel: &StencilKernel, extents: &[usize]) -> Vec<ScheduleParams> {
    let clamp = |e: usize| e.div_ceil(8) * 8;
    let (row_cap, col_cap) = match *extents {
        [n] => (8, clamp(n.div_ceil(8))),
        [r, c] => (clamp(r), clamp(c)),
        [_, y, x] => (clamp(y), clamp(x)),
        _ => unreachable!("extents are 1-, 2- or 3-long"),
    };
    let tiles = [8usize, 16, 32, 64];
    // 1-D jobs are tile_cols-driven; tile_rows is inert
    let rows = if kernel.dims() == 1 { 8 } else { row_cap };
    let mut out = Vec::new();
    for &tile_rows in tiles.iter().filter(|&&t| t == 8 || t <= rows) {
        for &tile_cols in tiles.iter().filter(|&&t| t == 8 || t <= col_cap) {
            let p = ScheduleParams { tile_rows, tile_cols };
            debug_assert!(p.validate().is_ok());
            out.push(p);
        }
    }
    out
}

/// The candidate schedules for this problem: every tiling whose thread
/// block can launch on the modeled A100 ([`launches`]), the default
/// first.
pub fn candidate_space(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
) -> Vec<ScheduleParams> {
    let plan = Plan::new(kernel, config);
    tilings(kernel, extents).into_iter().filter(|p| launches(&plan.block_resources(p))).collect()
}

/// Whether a thread block can launch on the modeled A100: a block whose
/// staged windows overflow an SM's shared memory (or its registers) gets
/// zero occupancy, and the cost model would price the schedule at next
/// to nothing.
pub fn launches(block: &BlockResources) -> bool {
    occupancy(&DeviceSpec::a100(), block).blocks_per_sm > 0
}

/// Every tiling of the problem `charges` were planned for, with its
/// modeled run of `iterations` steps, in candidate order (the default
/// first); `None` for a tiling the modeled A100 cannot launch.
fn model_tilings(
    charges: &RunCharges,
    kernel: &StencilKernel,
    iterations: usize,
) -> Vec<(ScheduleParams, Option<Estimate>)> {
    let model = CostModel::a100();
    tilings(kernel, charges.extents())
        .into_iter()
        .map(|p| {
            let block = charges.block(&p);
            let est =
                launches(&block).then(|| model.estimate(&charges.counters(&p, iterations), &block));
            (p, est)
        })
        .collect()
}

/// The schedule a run of `iterations` steps should use: the launchable
/// candidate with the least modeled A100 time. Ties keep the default,
/// then the candidate order. Runs nothing.
pub fn choose(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    iterations: usize,
) -> ScheduleParams {
    let charges = RunCharges::new(kernel, config, extents);
    fastest(&model_tilings(&charges, kernel, iterations)).0
}

/// The launchable row with the least modeled time, and that time; the
/// first row (the default) wins ties, then the earlier row.
fn fastest(rows: &[(ScheduleParams, Option<Estimate>)]) -> (ScheduleParams, f64) {
    let mut best: Option<(ScheduleParams, f64)> = None;
    for (p, est) in rows {
        if let Some(e) = est {
            if best.is_none_or(|(_, t)| e.total < t) {
                best = Some((*p, e.total));
            }
        }
    }
    best.expect("the default schedule always launches")
}

/// Bitwise plane equality — `f64::to_bits`, so `-0.0 != 0.0` and NaN
/// payloads count.
fn planes_bit_identical(a: &[GlobalArray], b: &[GlobalArray]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The bit-identity gate: run the default schedule and `params` for
/// `iters` steps on the `seed` grid; `params` passes when its run
/// [`same_answer`] the default's.
fn passes_gate(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    seed: u64,
    iters: usize,
    params: ScheduleParams,
) -> bool {
    let planes = grid_to_planes(&crate::make_grid(extents, seed));
    let run = |p| {
        let (planes, counters, _) = schedule::run_tuned(kernel, config, p, planes.clone(), iters);
        (planes, counters)
    };
    same_answer(&run(params), &run(ScheduleParams::default()))
}

/// The gate's comparison: output planes bit for bit, and the
/// schedule-invariant counters exactly.
fn same_answer(
    got: &(Vec<GlobalArray>, PerfCounters),
    want: &(Vec<GlobalArray>, PerfCounters),
) -> bool {
    planes_bit_identical(&got.0, &want.0)
        && got.1.schedule_invariants() == want.1.schedule_invariants()
}

/// On-miss schedule choice: the serve daemon's cold-plan path.
/// [`choose`] a schedule for the job's iterations and return it for the
/// plan cache to memoize. A non-default winner passes the bit-identity
/// gate first (a short run of the default and of the winner on the
/// `seed` grid) or the default is returned, so a memoized schedule can
/// never change a job's answer. `budget <= 1`
/// returns the default without ranking; any larger budget ranks every
/// candidate (ranking runs nothing, so there is nothing to bound).
pub fn tune_on_miss(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    seed: u64,
    iters: usize,
    budget: usize,
) -> ScheduleParams {
    choose_on_miss(kernel, config, extents, seed, iters, budget).0
}

/// [`tune_on_miss`] and a session running its schedule, built from the
/// plans and lowerings the ranking made ([`ExecSession::from_charges`]),
/// so a miss plans each kernel once; when nothing was ranked
/// (`budget <= 1`) it is planned here.
pub fn session_on_miss(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    seed: u64,
    iters: usize,
    budget: usize,
) -> (ScheduleParams, ExecSession) {
    let (params, charges) = choose_on_miss(kernel, config, extents, seed, iters, budget);
    let charges = charges.unwrap_or_else(|| RunCharges::new(kernel, config, extents));
    (params, ExecSession::from_charges(charges, params))
}

/// The on-miss schedule, and the charges it was ranked on (`None` when
/// nothing was ranked: `budget <= 1`).
fn choose_on_miss(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    seed: u64,
    iters: usize,
    budget: usize,
) -> (ScheduleParams, Option<RunCharges>) {
    let default = ScheduleParams::default();
    if budget <= 1 {
        return (default, None);
    }
    let charges = RunCharges::new(kernel, config, extents);
    let win = fastest(&model_tilings(&charges, kernel, iters)).0;
    // a short gate run: bit identity is shape-driven, not
    // iteration-count-driven
    let kept = win == default || passes_gate(kernel, config, extents, seed, iters.clamp(1, 2), win);
    (if kept { win } else { default }, Some(charges))
}

/// `default / t`, or 1 when nothing is modeled (a run of no steps).
fn speedup(default: f64, t: f64) -> f64 {
    if t > 0.0 {
        default / t
    } else {
        1.0
    }
}

/// The `tune` subcommand body: model, rank, gate, report.
pub fn tune_report(
    kernel: &StencilKernel,
    config: ExecConfig,
    dims: &[usize],
    iters: usize,
    seed: u64,
) -> Result<String, String> {
    let dims = &crate::broadcast_dims(dims, kernel.dims())[..];
    if dims.len() != kernel.dims() {
        return Err(format!(
            "kernel {} is {}-D but --size has {} dims",
            kernel.name,
            kernel.dims(),
            dims.len()
        ));
    }
    let default = ScheduleParams::default();
    let mut report = format!(
        "choosing a schedule for LoRAStencil({}) on {} {:?}, {} iterations, \
         by modeled A100 time\n",
        config.tag(),
        kernel.name,
        dims,
        iters,
    );
    let rows = model_tilings(&RunCharges::new(kernel, config, dims), kernel, iters);
    let launchable = rows.iter().filter(|(_, e)| e.is_some()).count();
    report.push_str(&format!(
        "candidate space: {} tilings, {launchable} launch on the modeled A100\n\n",
        rows.len()
    ));
    report.push_str(&format!(
        "  {:<18} {:>14} {:>10}  {:<9} {:>8}\n",
        "schedule", "modeled", "occupancy", "bound by", "speedup"
    ));
    let default_s = rows[0].1.expect("the default launches").total;
    for (p, est) in &rows {
        match est {
            Some(e) => report.push_str(&format!(
                "  {:<18} {:>11.1} ns {:>10.3}  {:<9} {:>7.2}x\n",
                p.describe(),
                e.total * 1e9,
                e.occupancy,
                e.bound_by(),
                speedup(default_s, e.total),
            )),
            None => report.push_str(&format!(
                "  {:<18} cannot launch: the block's staged windows overflow an SM\n",
                p.describe()
            )),
        }
    }
    let (mut win, mut win_s) = fastest(&rows);
    if win != default && !passes_gate(kernel, config, dims, seed, iters, win) {
        report.push_str(&format!(
            "\n  {:<18} rejected by the identity gate: output or invariant counters \
             diverge from the default schedule\n",
            win.describe()
        ));
        (win, win_s) = (default, default_s);
    }
    report.push_str(&format!(
        "\nwinner: {}, modeled {:.1} ns ({:.2}x vs default {:.1} ns){}\n",
        win.describe(),
        win_s * 1e9,
        speedup(default_s, win_s),
        default_s * 1e9,
        if win == default { "" } else { ", passed the identity gate" },
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_kernel;

    #[test]
    fn candidate_space_clamps_tiles_to_the_grid() {
        let k = find_kernel("Box-2D9P").unwrap();
        let space = candidate_space(&k, ExecConfig::full(), &[16, 16]);
        assert!(space.iter().all(|p| p.tile_rows <= 16 && p.tile_cols <= 16), "{space:?}");
        assert_eq!(space[0], ScheduleParams::default(), "the default comes first");
        // a big grid opens the full tile range, up to the blocks the
        // modeled A100 can launch
        let wide = candidate_space(&k, ExecConfig::full(), &[128, 128]);
        assert!(wide.iter().any(|p| p.tile_rows == 8 && p.tile_cols == 64));
        assert!(wide.iter().any(|p| p.tile_rows == 64 && p.tile_cols == 8));
        for p in &wide {
            p.validate().unwrap();
        }
    }

    /// Every candidate the chooser may pick and every on-miss winner
    /// must launch on the modeled A100; the gate must drop the blocks
    /// that cannot (a 64×64 Box-2D49P job stages 663,552 shared bytes
    /// against the SM's 167,936).
    #[test]
    fn every_candidate_and_winner_launches() {
        let extents_of = |dims: usize| match dims {
            1 => vec![4096],
            2 => vec![128, 128],
            _ => vec![8, 64, 64],
        };
        for k in stencil_core::kernels::all_kernels() {
            for spec in ["full", "no-async", "sparse", "simd", "no-tcu"] {
                let config = crate::parse_config(spec).unwrap();
                let plan = Plan::new(&k, config);
                let space = candidate_space(&k, config, &extents_of(k.dims()));
                assert!(space.contains(&ScheduleParams::default()), "{} {spec}", k.name);
                for p in &space {
                    assert!(
                        launches(&plan.block_resources(p)),
                        "{} {spec} {}",
                        k.name,
                        p.describe()
                    );
                }
                if k.dims() == 2 {
                    let big = ScheduleParams { tile_rows: 64, tile_cols: 64 };
                    assert!(!launches(&plan.block_resources(&big)), "{} {spec}", k.name);
                    assert!(!space.contains(&big), "{} {spec}", k.name);
                }
            }
        }
        for (name, extents) in
            [("Box-2D49P", vec![64, 64]), ("Box-2D9P", vec![48, 48]), ("Heat-3D", vec![6, 24, 24])]
        {
            let k = find_kernel(name).unwrap();
            for spec in ["full", "no-async"] {
                let config = crate::parse_config(spec).unwrap();
                let win = tune_on_miss(&k, config, &extents, 3, 1, 6);
                assert!(
                    launches(&Plan::new(&k, config).block_resources(&win)),
                    "{name} {spec}: on-miss winner {}",
                    win.describe()
                );
            }
        }
    }

    /// The configs the closed-form test covers.
    const CONFIGS: [&str; 6] = ["full", "no-async", "sparse", "simd", "no-tcu", "no-bvs,no-async"];

    /// For every registry kernel, config and candidate, on 1-D arrays
    /// with a partial 64-point sub-chunk, ragged 2-D and 3-D grids, the
    /// closed-form counters equal what `run_tuned` measures on all 13
    /// fields, over a fused run with a remainder; and `choose` is the
    /// argmin of the modeled time of those measured counters (ties to the
    /// default, then the candidate order).
    #[test]
    fn closed_form_counters_match_measured_runs_and_choose_is_their_argmin() {
        let model = CostModel::a100();
        let iters = 4; // one fused application of a 3-step fusion plus one unfused
        let mut nondefault = 0;
        for k in stencil_core::kernels::all_kernels() {
            let shapes: &[&[usize]] = match k.dims() {
                1 => &[&[300], &[1000]],
                2 => &[&[37, 44], &[16, 16], &[70, 9]],
                _ => &[&[3, 11, 21], &[2, 17, 16]],
            };
            for spec in CONFIGS {
                let config = crate::parse_config(spec).unwrap();
                for &extents in shapes {
                    let case = format!("{} {spec} {extents:?}", k.name);
                    let planes = grid_to_planes(&crate::make_grid(extents, 5));
                    let measure = |p: ScheduleParams| {
                        let (_, c, block) =
                            schedule::run_tuned(&k, config, p, planes.clone(), iters);
                        (c, block)
                    };
                    let space = candidate_space(&k, config, extents);
                    let charges = RunCharges::new(&k, config, extents);
                    let mut best: Option<(ScheduleParams, f64)> = None;
                    for p in &space {
                        let (measured, block) = measure(*p);
                        let closed = charges.counters(p, iters);
                        assert_eq!(
                            closed.fields(),
                            measured.fields(),
                            "{case} {}: closed form vs measured",
                            p.describe()
                        );
                        assert_eq!(charges.block(p), block, "{case} {}", p.describe());
                        let t = model.estimate(&measured, &block).total;
                        if best.is_none_or(|(_, b)| t < b) {
                            best = Some((*p, t));
                        }
                    }
                    let win = choose(&k, config, extents, iters);
                    assert_eq!(win, best.unwrap().0, "{case}");
                    nondefault += usize::from(win != ScheduleParams::default());
                }
            }
        }
        assert!(nondefault > 0, "some key must pick a non-default schedule");
    }

    #[test]
    fn a_run_of_zero_iterations_keeps_the_default() {
        let k = find_kernel("Box-2D9P").unwrap();
        let config = crate::parse_config("no-async").unwrap();
        assert_eq!(choose(&k, config, &[16, 16], 0), ScheduleParams::default());
        let charges = RunCharges::new(&k, config, &[16, 16]);
        let p = ScheduleParams { tile_rows: 16, tile_cols: 16 };
        assert_eq!(charges.counters(&p, 0), PerfCounters::new());
    }

    /// The chooser is a pure function of its key, so two `tune`s of one
    /// key print the same report, byte for byte.
    #[test]
    fn two_tunes_of_one_key_print_identical_reports() {
        let k = find_kernel("Box-2D9P").unwrap();
        let config = crate::parse_config("no-async").unwrap();
        let tune = || tune_report(&k, config, &[16, 16], 2, 7).unwrap();
        let first = tune();
        assert!(first.contains("passed the identity gate"), "{first}");
        assert_eq!(first, tune());
    }

    #[test]
    fn tune_report_explains_every_candidate() {
        let k = find_kernel("Box-2D49P").unwrap();
        let r = tune_report(&k, ExecConfig::full(), &[128, 128], 1, 7).unwrap();
        for want in ["modeled", "occupancy", "bound by", "tensor", "cannot launch", "winner:"] {
            assert!(r.contains(want), "{want}: {r}");
        }
        // one line per tiling, launchable or not
        let rows = tilings(&k, &[128, 128]);
        for p in &rows {
            assert!(r.lines().any(|l| l.trim_start().starts_with(&p.describe())), "{r}");
        }
        // a 1-D key ranks its tilings like any other; they all tie, so
        // the default wins
        let k = find_kernel("Heat-1D").unwrap();
        let r = tune_report(&k, ExecConfig::full(), &[512], 2, 7).unwrap();
        for p in &tilings(&k, &[512]) {
            assert!(r.lines().any(|l| l.trim_start().starts_with(&p.describe())), "{r}");
        }
        assert!(r.contains("winner: 8x8,") && r.contains("(1.00x vs default"), "{r}");
    }

    #[test]
    fn tune_on_miss_returns_gated_params() {
        // Box-2D9P without cp.async picks a 16×16 tiling at 16×16
        let k = find_kernel("Box-2D9P").unwrap();
        let config = crate::parse_config("no-async").unwrap();
        // budget 1 never ranks: straight to defaults
        assert_eq!(tune_on_miss(&k, config, &[16, 16], 7, 1, 1), ScheduleParams::default());
        let p = tune_on_miss(&k, config, &[16, 16], 7, 1, 2);
        assert_eq!(p, choose(&k, config, &[16, 16], 1));
        assert_ne!(p, ScheduleParams::default(), "this key's model winner is not the default");
        // the winner reproduces the default schedule's output bitwise
        let planes = grid_to_planes(&crate::make_grid(&[16, 16], 7));
        let (want, wc, _) =
            schedule::run_tuned(&k, config, ScheduleParams::default(), planes.clone(), 1);
        let (got, gc, _) = schedule::run_tuned(&k, config, p, planes, 1);
        assert!(planes_bit_identical(&got, &want), "winner {} diverges", p.describe());
        assert_eq!(gc.schedule_invariants(), wc.schedule_invariants());
    }

    #[test]
    fn session_on_miss_runs_the_on_miss_schedule() {
        // a non-default winner, a default one, a 1-D key and budget 1;
        // the session's answer is the with_params session's
        let no_async = crate::parse_config("no-async").unwrap();
        let cases: [(&str, ExecConfig, Vec<usize>, usize); 4] = [
            ("Box-2D9P", no_async, vec![16, 16], 2),
            ("Heat-2D", ExecConfig::full(), vec![37, 44], 2),
            ("Heat-1D", ExecConfig::full(), vec![512], 2),
            ("Box-2D9P", no_async, vec![16, 16], 1),
        ];
        for (name, config, extents, budget) in cases {
            let k = find_kernel(name).unwrap();
            let want = tune_on_miss(&k, config, &extents, 7, 3, budget);
            let (params, mut got) = session_on_miss(&k, config, &extents, 7, 3, budget);
            assert_eq!((params, got.params()), (want, want), "{name} {extents:?}");
            let mut fresh = ExecSession::with_params(&k, config, &extents, want);
            for s in [&mut got, &mut fresh] {
                s.fill_with(|idx| crate::grid_value(7, idx));
            }
            assert_eq!(got.run(3).fields(), fresh.run(3).fields(), "{name} {extents:?}");
            assert!(planes_bit_identical(got.planes(), fresh.planes()), "{name} {extents:?}");
        }
    }

    #[test]
    fn the_identity_gate_rejects_a_flipped_bit_or_a_moved_invariant() {
        // a tiling passes the gate; one flipped output bit or one changed
        // invariant counter fails its comparison
        let k = find_kernel("Heat-2D").unwrap();
        let config = ExecConfig::full();
        let tiled = ScheduleParams { tile_rows: 16, tile_cols: 32 };
        assert!(passes_gate(&k, config, &[32, 32], 7, 3, tiled));
        let planes = grid_to_planes(&crate::make_grid(&[32, 32], 7));
        let (out, counters, _) = schedule::run_tuned(&k, config, tiled, planes, 3);
        let want = (out, counters);
        assert!(same_answer(&want, &want));
        let mut flipped = want.clone();
        let v = flipped.0[0].peek(5, 9);
        flipped.0[0].poke(5, 9, f64::from_bits(v.to_bits() ^ 1));
        assert!(!same_answer(&flipped, &want), "a flipped output bit must fail the gate");
        let mut moved = want.clone();
        moved.1.mma_ops += 1;
        assert!(!same_answer(&moved, &want), "a moved invariant counter must fail the gate");
    }
}
