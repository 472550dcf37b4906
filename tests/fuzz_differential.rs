//! The fuzz gate: arbitrary generated stencils through all three
//! verification engines of `stencil-verify`.
//!
//! * **Differential oracle** — every registered executor vs the scalar
//!   reference on generated problems,
//! * **metamorphic relations** — linearity, translation equivariance,
//!   step composition, rank-truncation monotonicity,
//! * **counter-exactness** — the Eq. 12/13/16 closed forms, generalized
//!   to `(h, dim, times)`, against measured counters to the digit,
//!
//! plus a fault-injection test proving the oracle catches, shrinks and
//! reports a deliberately planted off-by-one halo bug.
//!
//! Seeds are pinned (`foundation::prop::DEFAULT_SEED`), so a CI run is
//! deterministic. `STENCIL_VERIFY_SEED` repins; `STENCIL_VERIFY_CASES`
//! scales every engine's case count for long soak runs (see README).

use foundation::prop::check_with;
use stencil_verify::{
    check_counters, check_params_identity, check_relations, differential_check_against, roster,
    verify_config, CaseGen, FaultInjector,
};

/// Default per-engine case counts. Together ≥ 200 generated kernels per
/// CI run (the differential engine is the most expensive: ~13 executors
/// per case).
const DIFFERENTIAL_CASES: usize = 60;
const METAMORPHIC_CASES: usize = 60;
const COUNTER_CASES: usize = 100;
const PARAMS_GRID_CASES: usize = 60;

#[test]
fn differential_oracle_every_executor_agrees_with_reference() {
    let exes = roster();
    check_with(&verify_config(DIFFERENTIAL_CASES), "differential_oracle", &CaseGen, |case| {
        differential_check_against(&exes, &case)
    });
}

#[test]
fn metamorphic_relations_hold_on_generated_stencils() {
    check_with(&verify_config(METAMORPHIC_CASES), "metamorphic_relations", &CaseGen, |case| {
        check_relations(&case)
    });
}

#[test]
fn counter_model_is_exact_on_generated_shapes() {
    check_with(&verify_config(COUNTER_CASES), "counter_model", &CaseGen, |case| {
        check_counters(&case)
    });
}

/// Schedule-space neutrality: a randomly sampled `ScheduleParams` point
/// (a job-tile shape, the `tune` candidate space) must stay
/// bit-identical in values and invariant in modeled counters against
/// the default lowering on every generated kernel.
#[test]
fn sampled_schedule_params_are_bit_identical_to_the_default() {
    check_with(&verify_config(PARAMS_GRID_CASES), "params_grid", &CaseGen, |case| {
        check_params_identity(&case)
    });
}

/// Plant an off-by-one halo bug (output rolled one row) behind the full
/// LoRAStencil executor and prove the oracle catches it, shrinks the
/// case, and prints a replay command. This is the test of the tester.
#[test]
fn injected_off_by_one_halo_is_caught_shrunk_and_reported() {
    let faulty: Vec<stencil_verify::oracle::LabeledExecutor> =
        vec![("fault-injected".into(), Box::new(FaultInjector(lorastencil::LoRaStencil::new())))];
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check_with(&verify_config(5), "fault_injection", &CaseGen, |case| {
            differential_check_against(&faulty, &case)
        });
    }));
    let payload = result.expect_err("the planted divergence must fail the property");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(msg.contains("fault-injected"), "report names the executor:\n{msg}");
    assert!(msg.contains("shrunk input"), "report carries the shrunk case:\n{msg}");
    assert!(msg.contains("seed "), "report carries the seed:\n{msg}");
    assert!(
        msg.contains("replay: STENCIL_VERIFY_SEED="),
        "report carries a replay command:\n{msg}"
    );
    // the shrinker reaches a structurally minimal case: one iteration
    assert!(msg.contains("iterations: 1"), "case shrank to one iteration:\n{msg}");
}

/// The four engines see ≥ 200 generated kernels per default CI run, and
/// the params-grid engine alone sees ≥ 50 (the schedule-space floor).
#[test]
fn default_case_budget_meets_the_coverage_floor() {
    // the defaults are constants, so the floor is checked at compile time
    const { assert!(DIFFERENTIAL_CASES + METAMORPHIC_CASES + COUNTER_CASES >= 200) };
    const { assert!(PARAMS_GRID_CASES >= 50) };
}
