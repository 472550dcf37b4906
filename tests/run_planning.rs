//! A run plans and lowers exactly what it runs. With span tracing on,
//! every planned kernel records one `plan` span and every lowering one
//! `frag_build` span, so their counts are the planning and lowering work
//! of a run: a one-shot run plans and lowers the unfused remainder only
//! when its step count leaves one, and a session plans and lowers it up
//! front, so a warm re-run does neither.
//!
//! One test function, because the span tracer is process-wide state.

use foundation::obs;
use lorastencil::schedule::run;
use lorastencil::{ExecConfig, ExecSession};
use stencil_core::kernels;
use tcu_sim::GlobalArray;

/// The `plan` and `frag_build` spans `f` records.
fn plans_and_lowerings(f: impl FnOnce()) -> (u64, u64) {
    obs::reset();
    obs::enable();
    f();
    obs::disable();
    let counts = obs::drain().phase_counts();
    let count = |name| counts.iter().find(|(n, _)| *n == name).map_or(0, |&(_, c)| c);
    (count("plan"), count("frag_build"))
}

#[test]
fn runs_and_sessions_plan_and_lower_only_what_they_run() {
    // Heat-2D fuses 3 steps per application
    let kernel = kernels::heat_2d();
    let config = ExecConfig::full();
    let one_shot = |steps| {
        plans_and_lowerings(|| drop(run(&kernel, config, vec![GlobalArray::new(24, 24)], steps)))
    };
    assert_eq!(one_shot(6), (1, 1), "6 steps are 2 fused applications and no remainder");
    assert_eq!(one_shot(7), (2, 2), "7 steps add an unfused remainder");
    let session = plans_and_lowerings(|| drop(ExecSession::new(&kernel, config, &[24, 24])));
    assert_eq!(session, (2, 2), "a session plans and lowers its remainder up front");
}
