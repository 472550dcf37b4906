//! The offline sweeps: one-shot `LoRaStencil::execute` jobs back to back
//! on one thread, as a batch user of the library runs them.

use std::time::{Duration, Instant};

use baselines::TcStencil;
use foundation::{alloc_counter, obs, par};
use lorastencil::plan::DeviceBackend;
use lorastencil::{ExecConfig, ExecSession, LoRaStencil, Plan, ScheduleParams};
use stencil_core::{ExecOutcome, Problem, StencilExecutor, StencilKernel};
use tcu_sim::{CostModel, PerfCounters};

use crate::report::Report;
use crate::stats::{self, time_us, Value};

/// One job shape of a sweep: kernel × backend × grid × time steps.
struct Arm {
    /// Suffix of the arm's `lorastencil.job_ms.<label>` metric.
    label: &'static str,
    kernel: StencilKernel,
    config: ExecConfig,
    extents: Vec<usize>,
    iters: usize,
}

impl Arm {
    fn new(
        label: &'static str,
        kernel: &str,
        config: ExecConfig,
        extents: &[usize],
        iters: usize,
    ) -> Self {
        Arm {
            label,
            kernel: stencil_cli::find_kernel(kernel).expect("registry kernel"),
            config,
            extents: extents.to_vec(),
            iters,
        }
    }

    fn points(&self) -> u64 {
        (self.extents.iter().product::<usize>() * self.iters) as u64
    }
}

fn on(backend: DeviceBackend) -> ExecConfig {
    ExecConfig { backend, ..ExecConfig::full() }
}

fn arms(workload: &str) -> Vec<Arm> {
    use DeviceBackend::*;
    match workload {
        // the paper's headline kernel; 2 f64 planes of 2 MiB each
        "sweep-box2d49p" => {
            vec![Arm::new("box2d49p_tcu", "Box-2D49P", on(TcuF64), &[512, 512], 12)]
        }
        // the same stepper under other op mixes: plane ops, mma.sp, the
        // SIMD and the scalar term paths (the last two issue no MMAs).
        // The sparse arm runs unfused: fusing Heat-2D widens its terms
        // past 2:4, and the sparse backend would issue dense MMAs only.
        "sweep-mixed" => vec![
            Arm::new("heat3d_tcu", "Heat-3D", on(TcuF64), &[32, 64, 64], 12),
            Arm::new(
                "heat2d_sparse",
                "Heat-2D",
                ExecConfig { allow_fusion: false, ..on(SparseTcu) },
                &[384, 384],
                12,
            ),
            Arm::new("box2d9p_simd", "Box-2D9P", on(SimdCore), &[512, 512], 12),
            Arm::new("heat2d_cuda", "Heat-2D", on(CudaCore), &[256, 256], 12),
        ],
        _ => unreachable!("not a sweep workload: {workload}"),
    }
}

/// Bitwise equality of two outcomes' values and counters.
fn same_outcome(got: &ExecOutcome, want: &ExecOutcome) -> bool {
    let (g, w) = (got.output.as_slice(), want.output.as_slice());
    got.counters.fields() == want.counters.fields()
        && g.len() == w.len()
        && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Check one arm's set-up output against the naive reference and its
/// counters against the closed-form model.
fn verify(arm: &Arm, problem: &Problem, out: &ExecOutcome) -> Result<(), String> {
    let want = stencil_core::reference::run(&problem.input, &arm.kernel, arm.iters);
    let err = out.output.max_abs_diff(&want);
    if err.is_nan() || err > 1e-9 {
        return Err(format!("{}: max |Δ| vs reference = {err:e}", arm.label));
    }
    let pred = stencil_verify::counter_model::predict_lora(
        &arm.kernel,
        &arm.extents,
        arm.iters,
        arm.config,
    );
    let diff = pred.compare(&out.counters);
    if !diff.is_empty() {
        return Err(format!("{}: counters differ from the closed form: {diff:?}", arm.label));
    }
    Ok(())
}

/// Per-arm job wall times, ms.
struct Window {
    ms: Vec<Vec<f64>>,
}

impl Window {
    fn rounds(&self) -> usize {
        self.ms[0].len()
    }

    fn medians(&self) -> Vec<f64> {
        self.ms.iter().map(|s| stats::median(s)).collect()
    }
}

/// Round-robin over the arms until `dur` has passed (whole rounds only),
/// checking every output bitwise against the verified one.
fn window(
    execs: &[LoRaStencil],
    problems: &[Problem],
    want: &[ExecOutcome],
    dur: Duration,
    report: &mut Report,
) -> Window {
    let mut ms = vec![Vec::new(); problems.len()];
    let start = Instant::now();
    while start.elapsed() < dur {
        for (i, (exec, problem)) in execs.iter().zip(problems).enumerate() {
            let t0 = Instant::now();
            let out = exec.execute(problem);
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            report.check(out.is_ok_and(|o| same_outcome(&o, &want[i])));
        }
    }
    Window { ms }
}

pub fn run(workload: &str, seed: u64, seconds: u64, report: &mut Report) {
    let arms = arms(workload);
    let execs: Vec<LoRaStencil> = arms.iter().map(|a| LoRaStencil::with_config(a.config)).collect();
    let problems: Vec<Problem> = arms
        .iter()
        .map(|a| Problem::new(a.kernel.clone(), stencil_cli::make_grid(&a.extents, seed), a.iters))
        .collect();

    // set-up: the first execute of every arm (a one-shot job plans,
    // lowers and allocates inside `execute`)
    let spawned0 = par::threads_spawned();
    let (setup_s, verified) = stats::repeat_setup(|| -> Vec<ExecOutcome> {
        execs
            .iter()
            .zip(&problems)
            .map(|(e, p)| e.execute(p).expect("sweep arms are valid problems"))
            .collect()
    });

    for ((arm, problem), out) in arms.iter().zip(&problems).zip(&verified) {
        let verdict = verify(arm, problem, out);
        if let Err(e) = &verdict {
            eprintln!("verification failed: {e}");
        }
        report.check(verdict.is_ok());
    }

    let points: u64 = arms.iter().map(Arm::points).sum();
    let n_arms = arms.len() as f64;
    if !report.trace {
        let w = window(&execs, &problems, &verified, Duration::from_secs(seconds), report);
        // each metric is a function of one round's time: the value uses
        // the sum of per-arm medians, the quartiles come from the rounds
        let sum_ms: f64 = w.medians().iter().sum();
        let rounds: Vec<f64> = (0..w.rounds()).map(|r| w.ms.iter().map(|s| s[r]).sum()).collect();
        let mut set = |name: &str, of_round_ms: &dyn Fn(f64) -> f64| {
            let per_round: Vec<f64> = rounds.iter().map(|&ms| of_round_ms(ms)).collect();
            report.set(name, Value { value: of_round_ms(sum_ms), ..Value::median(&per_round) });
        };
        set("mpts_per_s", &|ms| points as f64 / ms / 1e3);
        set("jobs_per_s", &|ms| n_arms * 1e3 / ms);
        set("latency_ms_p50", &|ms| ms / n_arms);
        report.set("setup_s", setup_s);
        return;
    }

    // traced run: an untraced half as the overhead baseline, then a half
    // with the obs spans on
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let plain = window(&execs, &problems, &verified, half, report);
    obs::reset();
    obs::enable();
    let allocs0 = alloc_counter::allocation_count();
    let traced = window(&execs, &problems, &verified, half, report);
    let allocs = alloc_counter::allocation_count() - allocs0;
    obs::disable();
    let phases = obs::phase_breakdown();
    let spawned = par::threads_spawned() - spawned0;

    let rounds = traced.rounds() as f64;
    let phase_ms = |name: &str| {
        phases.iter().find(|p| p.name == name).map_or(0.0, |p| p.total_ns as f64 / 1e6 / rounds)
    };
    let leaves = ["mma_batch", "rdg_gather", "pointwise", "simd_terms", "cuda_terms"];
    let apply = phase_ms("apply");
    report.scalar("lorastencil.apply_ms", apply);
    for leaf in leaves {
        report.scalar(&format!("lorastencil.{leaf}_ms"), phase_ms(leaf));
    }
    let attributed: f64 = leaves.iter().map(|l| phase_ms(l)).sum();
    report.scalar("lorastencil.unattributed_frac", 1.0 - attributed / apply);

    let plain_med = plain.medians();
    for (arm, samples) in arms.iter().zip(&plain.ms) {
        report.set(&format!("lorastencil.job_ms.{}", arm.label), Value::median(samples));
    }
    let all: Vec<f64> = plain.ms.concat();
    report.set("lorastencil.job_ms_p90", Value::quantile(&all, 0.90));
    let traced_sum: f64 = traced.medians().iter().sum();
    let plain_sum: f64 = plain_med.iter().sum();
    report.scalar("foundation.obs.trace_overhead_frac", traced_sum / plain_sum - 1.0);
    report.scalar("foundation.allocs_per_job", allocs as f64 / (rounds * n_arms));
    report.scalar("foundation.par.threads_spawned", spawned as f64);
    report.scalar("bench.samples", (plain.rounds() + traced.rounds()) as f64 * n_arms);

    // tcu-sim: exact counts of one job per arm, and what they model
    let mut total = PerfCounters::new();
    let (mut modeled_s, mut mma_ms, mut mma_count) = (0.0, 0.0, 0u64);
    let model = CostModel::a100();
    for (out, med) in verified.iter().zip(&plain_med) {
        total.merge(&out.counters);
        modeled_s += model.estimate(&out.counters, &out.block).total;
        let mmas = out.counters.mma_ops + out.counters.mma_sp_ops;
        if mmas > 0 {
            mma_ms += med;
            mma_count += mmas;
        }
    }
    crate::micro::report_counts(report, &total, modeled_s);
    if mma_count > 0 {
        report.scalar("tcu_sim.host_ns_per_mma", mma_ms * 1e6 / mma_count as f64);
    }

    // planning and session construction, timed from outside
    let (mut plan_us, mut session_us) = (0.0, 0.0);
    for arm in &arms {
        plan_us += time_us(5, || drop(Plan::new(&arm.kernel, arm.config)));
        session_us += time_us(3, || {
            drop(ExecSession::with_params(
                &arm.kernel,
                arm.config,
                &arm.extents,
                ScheduleParams::default(),
            ))
        });
    }
    report.scalar("lorastencil.plan_us", plan_us);
    report.scalar("lorastencil.session_build_us", session_us);

    if workload == "sweep-box2d49p" {
        // context: the straight-line TCStencil baseline on the same input
        let tc = TcStencil::new();
        let us = time_us(3, || drop(tc.execute(&problems[0]).expect("TCStencil runs Box-2D")));
        report.scalar("baselines.tcstencil_mpts_per_s", points as f64 / us);
    }
}
