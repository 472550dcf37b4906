//! # stencil-verify — differential + metamorphic verification subsystem
//!
//! Three independent engines that gate the whole reproduction:
//!
//! 1. **Differential oracle** ([`oracle`]): generate arbitrary stencil
//!    problems ([`gen::CaseGen`]) — 1-D/2-D/3-D, radius 1–4, symmetric /
//!    asymmetric / low-rank / star weights, grid extents straddling tile
//!    boundaries, 1–6 fused time steps — and run *every* registered
//!    executor (LoRAStencil in all feature configurations, the distributed
//!    executor, each baseline) against the scalar
//!    [`stencil_core::reference`] implementation. The first divergence is
//!    reported with the shrunk kernel, the seed, and a replay command.
//! 2. **Metamorphic relations** ([`metamorphic`]): linearity /
//!    superposition, translation equivariance on periodic grids, scalar
//!    scaling, `k` fused steps ≡ `k` single steps (bitwise where the
//!    ping-pong steppers guarantee it), and rank-truncation error
//!    monotonicity of the RDG decomposition.
//! 3. **Counter-exactness validator** ([`counter_model`]): the paper's
//!    Eq. 12/13/16 closed forms generalized to functions of
//!    `(h, dim, times)` and asserted **to the digit** against the measured
//!    [`tcu_sim::PerfCounters`] of every generated shape.
//! 4. **Schedule-space neutrality** ([`params_grid`]): a randomly sampled
//!    `ScheduleParams` point per generated case must stay bit-identical
//!    in values and invariant in modeled counters against the default
//!    lowering — the contract the `tune` search relies on.
//! 5. **Structural conformance** ([`conformance`]): every emitted kernel
//!    listing (CUDA / HIP / WGSL) is held accountable to the schedule it
//!    renders — balanced nesting, capability headers, every IR op's text
//!    span anchored, every constant table both declared and read.
//!
//! The engines are wired into `tests/fuzz_differential.rs` at the
//! workspace root with pinned seeds; `STENCIL_VERIFY_CASES` /
//! `STENCIL_VERIFY_SEED` scale the same suite into a long soak run.

pub mod conformance;
pub mod counter_model;
pub mod gen;
pub mod metamorphic;
pub mod oracle;
pub mod params_grid;

pub use conformance::{check_emission, conformance_problems};
pub use counter_model::{check_counters, predict_convstencil_mma, predict_lora};
pub use gen::{Case, CaseGen};
pub use metamorphic::check_relations;
pub use oracle::{
    differential_check, differential_check_against, replay_hint, roster, FaultInjector, DIFF_TOL,
};
pub use params_grid::check_params_identity;

/// Per-engine case count: `STENCIL_VERIFY_CASES` if set, else `default`.
pub fn verify_cases(default: usize) -> usize {
    std::env::var("STENCIL_VERIFY_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Fuzz seed: `STENCIL_VERIFY_SEED` (decimal or `0x…` hex) if set, else
/// the pinned [`foundation::prop::DEFAULT_SEED`].
pub fn verify_seed() -> u64 {
    std::env::var("STENCIL_VERIFY_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            }
        })
        .unwrap_or(foundation::prop::DEFAULT_SEED)
}

/// Prop-harness config for one verification engine: pinned seed, env
/// overridable case count, bounded shrinking.
pub fn verify_config(default_cases: usize) -> foundation::prop::Config {
    foundation::prop::Config {
        cases: verify_cases(default_cases),
        seed: verify_seed(),
        max_shrink_rounds: 40,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_seed_parses_hex_and_decimal() {
        // no env set in the test harness by default: pinned seed
        if std::env::var("STENCIL_VERIFY_SEED").is_err() {
            assert_eq!(verify_seed(), foundation::prop::DEFAULT_SEED);
        }
        assert!(verify_cases(37).max(1) >= 1);
    }
}
