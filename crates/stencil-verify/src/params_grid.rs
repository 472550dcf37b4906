//! Schedule-space neutrality: the differential engine for
//! [`ScheduleParams`].
//!
//! The schedule IR's contract is that every valid `ScheduleParams`
//! value (a job-tile regrouping) is pure *schedule* —
//! bit-identical output values and identical `Prediction`-class
//! counters against the default lowering, on every kernel, shape and
//! feature configuration. This module samples a
//! random valid parameter point per generated case and asserts exactly
//! that, so the `tune` search space is fuzzed with the same generator
//! coverage as the executors themselves. The temporal fusion depth is
//! not a schedule parameter (the planner chooses it), so every sampled
//! point runs the default schedule's arithmetic.

use foundation::rng::Xoshiro256pp;
use lorastencil::schedule::{self, grid_to_planes, ScheduleParams};
use lorastencil::ExecConfig;
use tcu_sim::GlobalArray;

use crate::gen::Case;
use crate::oracle::replay_hint;

/// Deterministically sample one valid non-default parameter point and
/// one feature configuration from the case's data seed.
pub fn sample_params(case: &Case) -> (ScheduleParams, ExecConfig) {
    let mut rng = Xoshiro256pp::seed_from_u64(case.data_seed ^ 0x5C4E_D01E_7A6B_1234);
    let tiles = [8usize, 16, 24, 32, 48, 64];
    let params = ScheduleParams {
        tile_rows: tiles[rng.range_usize(0, tiles.len())],
        tile_cols: tiles[rng.range_usize(0, tiles.len())],
    };
    // the draws that once picked a staging discipline and an MMA batch
    // width: kept, so every case samples the same tiles and config as
    // before
    rng.range_usize(0, 2);
    rng.range_usize(0, 6);
    debug_assert!(params.validate().is_ok());
    let roster = ExecConfig::ablation_roster();
    let (_, config) = roster[rng.range_usize(0, roster.len())];
    (params, config)
}

fn first_bit_divergence(a: &[GlobalArray], b: &[GlobalArray]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("plane counts differ: {} vs {}", a.len(), b.len()));
    }
    for (z, (x, y)) in a.iter().zip(b).enumerate() {
        if x.rows() != y.rows() || x.cols() != y.cols() {
            return Some(format!("plane {z} extents differ"));
        }
        for (i, (p, q)) in x.as_slice().iter().zip(y.as_slice()).enumerate() {
            if p.to_bits() != q.to_bits() {
                let (r, c) = (i / x.cols(), i % x.cols());
                return Some(format!(
                    "plane {z} ({r}, {c}): default {p:?} ({:#018x}) vs tuned {q:?} ({:#018x})",
                    p.to_bits(),
                    q.to_bits()
                ));
            }
        }
    }
    None
}

/// Run `case` under the default schedule and under one sampled
/// parameter point; any bitwise value divergence or invariant-counter
/// drift fails the property with the replay recipe.
pub fn check_params_identity(case: &Case) -> Result<(), String> {
    let (params, config) = sample_params(case);
    let planes = grid_to_planes(&case.input());
    let (def_out, def_ctr, _) = schedule::run_tuned(
        &case.kernel,
        config,
        ScheduleParams::default(),
        planes.clone(),
        case.iterations,
    );
    let (tuned_out, tuned_ctr, _) =
        schedule::run_tuned(&case.kernel, config, params, planes, case.iterations);
    if let Some(diff) = first_bit_divergence(&def_out, &tuned_out) {
        return Err(format!(
            "ScheduleParams {} (config {}) is not value-neutral: {diff}\n{}",
            params.describe(),
            config.tag(),
            replay_hint()
        ));
    }
    if def_ctr.schedule_invariants() != tuned_ctr.schedule_invariants() {
        return Err(format!(
            "ScheduleParams {} (config {}) drifts modeled counters: \
             default {:?} vs tuned {:?}\n{}",
            params.describe(),
            config.tag(),
            def_ctr.schedule_invariants(),
            tuned_ctr.schedule_invariants(),
            replay_hint()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseGen;
    use foundation::prop::Gen;

    #[test]
    fn sampled_params_are_valid_and_deterministic() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xF00D);
        let mut nondefault = 0;
        for _ in 0..60 {
            let case = CaseGen.generate(&mut rng);
            let (p, c) = sample_params(&case);
            p.validate().unwrap();
            assert_eq!((p, c), sample_params(&case), "sampling must be pure");
            if p != ScheduleParams::default() {
                nondefault += 1;
            }
        }
        assert!(nondefault > 50, "the sampler must almost always leave the default point");
    }

    #[test]
    fn identity_holds_on_the_benchmark_kernels() {
        use stencil_core::kernels;
        for k in kernels::all_kernels() {
            let extents = match k.dims() {
                1 => vec![130],
                2 => vec![17, 24],
                _ => vec![4, 9, 16],
            };
            let case = Case { kernel: k, extents, iterations: 2, data_seed: 0xBEEF };
            check_params_identity(&case).unwrap();
        }
    }
}
