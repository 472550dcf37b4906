//! The differential oracle: every registered executor against the scalar
//! reference implementation, on arbitrary generated problems.
//!
//! [`roster`] collects every executor the workspace registers —
//! LoRAStencil in every [`ExecConfig::ablation_roster`] configuration
//! (the shipped config, fusion off, and each cumulative stage of the
//! paper's Fig. 9 breakdown: CUDA-only RDG, +TCU, +BVS, +AsyncCopy),
//! the distributed executor on 2 and 3 simulated devices, and every
//! fp64-exact baseline. Executors that
//! report [`ExecError::Unsupported`] for a case are skipped (e.g. the
//! distributed executor on non-2-D grids); everything else must agree
//! with [`stencil_core::reference`] to [`DIFF_TOL`].
//!
//! A divergence is reported with the executor label, the max deviation
//! and a replay command; the prop harness then shrinks the case and
//! prints the minimal kernel (the `shrink` of
//! [`CaseGen`](crate::gen::CaseGen)).
//!
//! [`FaultInjector`] wraps any executor and rolls its output one row —
//! the classic off-by-one halo bug — so the suite can prove the oracle
//! actually catches, shrinks and reports divergences
//! (`tests/fuzz_differential.rs`).

use baselines::all_baselines;
use lorastencil::{ExecConfig, LoRaStencil};
use multi_gpu::DistributedLoRa;
use stencil_core::{reference, ExecError, ExecOutcome, Problem, StencilExecutor};

use crate::gen::Case;

/// Absolute agreement tolerance for fp64-exact executors. Inputs are in
/// `[-1, 1]` and generated kernels are L1-normalized, so grid values stay
/// bounded by 1 across iterations and an absolute tolerance is meaningful.
pub const DIFF_TOL: f64 = 1e-9;

/// A labeled executor. Labels disambiguate the LoRAStencil feature
/// configurations, which all share the `name()` string.
pub type LabeledExecutor = (String, Box<dyn StencilExecutor + Send + Sync>);

/// Every registered executor, labeled. The LoRAStencil configurations
/// come verbatim from [`ExecConfig::ablation_roster`] — the same list
/// the bench-suite breakdown and the counter-exactness validator
/// consume, so the three rosters cannot diverge.
pub fn roster() -> Vec<LabeledExecutor> {
    let mut v: Vec<LabeledExecutor> = Vec::new();
    for (label, cfg) in ExecConfig::ablation_roster() {
        v.push((format!("LoRAStencil({label})"), Box::new(LoRaStencil::with_config(cfg))));
    }
    for devices in [2, 3] {
        v.push((format!("LoRAStencil-dist{devices}"), Box::new(DistributedLoRa::new(devices))));
    }
    for b in all_baselines() {
        v.push((b.name().to_string(), b));
    }
    v
}

/// The command line that reruns the fuzz suite with the active seed and
/// case count. Appended to every divergence report.
pub fn replay_hint() -> String {
    let cases = match std::env::var("STENCIL_VERIFY_CASES") {
        Ok(c) => format!(" STENCIL_VERIFY_CASES={c}"),
        Err(_) => String::new(),
    };
    format!(
        "replay: STENCIL_VERIFY_SEED={:#x}{cases} cargo test --test fuzz_differential",
        crate::verify_seed()
    )
}

/// Run `case` through every executor in `exes` and compare against the
/// scalar reference. `Err` carries the full divergence report.
pub fn differential_check_against(exes: &[LabeledExecutor], case: &Case) -> Result<(), String> {
    let problem = case.problem();
    let want = reference::run(&problem.input, &problem.kernel, problem.iterations);
    for (label, exec) in exes {
        match exec.execute(&problem) {
            Err(ExecError::Unsupported(_)) => continue,
            Err(e) => {
                return Err(format!(
                    "executor `{label}` refused a valid case: {e}\n{}",
                    replay_hint()
                ))
            }
            Ok(ExecOutcome { output, counters, .. }) => {
                let diff = output.max_abs_diff(&want);
                if diff.is_nan() || diff > DIFF_TOL {
                    return Err(format!(
                        "executor `{label}` diverged from reference: max |Δ| = {diff:.3e} \
                         (tol {DIFF_TOL:.1e})\n{}",
                        replay_hint()
                    ));
                }
                // distributed executors redundantly recompute ghost
                // tiles, so ≥; exact equality for single-device
                // executors is the counter engine's job
                if counters.points_updated < problem.total_updates() {
                    return Err(format!(
                        "executor `{label}` updated {} points, problem requires {}\n{}",
                        counters.points_updated,
                        problem.total_updates(),
                        replay_hint()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// [`differential_check_against`] over the full [`roster`].
pub fn differential_check(case: &Case) -> Result<(), String> {
    differential_check_against(&roster(), case)
}

/// Wraps an executor and rolls its output one row along the leading
/// axis — the signature of an off-by-one halo bug. Exists so the test
/// suite can demonstrate that the oracle catches, shrinks and reports an
/// injected divergence.
pub struct FaultInjector<E>(pub E);

impl<E: StencilExecutor> StencilExecutor for FaultInjector<E> {
    fn name(&self) -> &'static str {
        "fault-injected"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        let mut out = self.0.execute(problem)?;
        let mut shift = vec![0isize; out.output.dims()];
        shift[0] = 1;
        out.output = out.output.rolled(&shift);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::Xoshiro256pp;
    use stencil_core::{Grid2D, Shape, StencilKernel, WeightMatrix, Weights};

    use crate::gen::CaseGen;
    use foundation::prop::Gen;

    #[test]
    fn roster_covers_every_executor_family() {
        let r = roster();
        assert!(r.len() >= 13, "roster has {} executors", r.len());
        let labels: Vec<&str> = r.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"LoRAStencil(full)"));
        assert!(labels.contains(&"LoRAStencil(no-fusion)"));
        assert!(labels.contains(&"LoRAStencil-dist2"));
        assert!(labels.contains(&"ConvStencil"));
        assert!(labels.contains(&"cuDNN"));
        // labels are unique: a report always identifies one executor
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    /// Anti-divergence guard: the oracle's LoRAStencil configurations
    /// are exactly the shared ablation roster — if someone adds a stage
    /// to [`ExecConfig::ablation_roster`] (or hand-edits this roster),
    /// this test forces the two back into lockstep.
    #[test]
    fn lora_roster_never_diverges_from_the_shared_ablation_roster() {
        let labels: Vec<String> = roster().into_iter().map(|(l, _)| l).collect();
        let shared = ExecConfig::ablation_roster();
        for (label, _) in &shared {
            assert!(
                labels.contains(&format!("LoRAStencil({label})")),
                "oracle roster is missing ablation stage `{label}`"
            );
        }
        let lora_count = labels.iter().filter(|l| l.starts_with("LoRAStencil(")).count();
        assert_eq!(lora_count, shared.len(), "oracle carries extra LoRAStencil configs");
    }

    #[test]
    fn generated_cases_pass_the_full_roster() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xD1FF);
        let exes = roster();
        for _ in 0..3 {
            let case = CaseGen.generate(&mut rng);
            differential_check_against(&exes, &case).unwrap();
        }
    }

    #[test]
    fn fault_injector_is_caught() {
        let mut w = WeightMatrix::zero(3);
        w.set(1, 1, 1.0);
        let case = crate::gen::Case {
            kernel: StencilKernel {
                name: "center".into(),
                shape: Shape::Box,
                radius: 1,
                weights: Weights::D2(w),
            },
            extents: vec![8, 8],
            iterations: 1,
            data_seed: 7,
        };
        let faulty: Vec<LabeledExecutor> =
            vec![("fault-injected".into(), Box::new(FaultInjector(LoRaStencil::new())))];
        let err = differential_check_against(&faulty, &case).unwrap_err();
        assert!(err.contains("fault-injected"), "{err}");
        assert!(err.contains("replay: STENCIL_VERIFY_SEED="), "{err}");
    }

    #[test]
    fn fault_injector_preserves_unsupported() {
        let exec = FaultInjector(DistributedLoRa::new(2));
        let p = Problem::new(
            stencil_core::kernels::box_2d9p(),
            Grid2D::from_fn(4, 4, |r, c| (r + c) as f64),
            1,
        );
        assert!(matches!(exec.execute(&p), Err(ExecError::Unsupported(_))));
    }
}
