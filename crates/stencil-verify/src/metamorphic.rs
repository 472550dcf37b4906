//! Metamorphic relations: properties any correct stencil implementation
//! must satisfy, checked without consulting the reference output.
//!
//! A stencil application is a linear, translation-equivariant operator on
//! a periodic grid, so for the executor `F` and any grids `x`, `y`:
//!
//! * **superposition + scaling**: `F(a·x + b·y) = a·F(x) + b·F(y)`,
//! * **translation equivariance**: `F(roll(x, s)) = roll(F(x), s)`
//!   (periodic boundaries make every translation exact),
//! * **step composition**: running `k` iterations in one call equals
//!   folding `k` single-iteration calls — *bitwise* when temporal fusion
//!   is disabled, because the executor is then literally the same
//!   ping-pong loop,
//! * **rank-truncation monotonicity**: the SVD used by the RDG
//!   decomposition yields partial sums whose Frobenius reconstruction
//!   error never increases as terms are added (Eckart–Young).

use lorastencil::decompose::svd::svd;
use lorastencil::{ExecConfig, LoRaStencil};
use stencil_core::{GridData, Problem, StencilExecutor, WeightMatrix};

use crate::gen::Case;
use crate::oracle::replay_hint;

/// Absolute tolerance for the fp-approximate relations (linearity,
/// translation). Inputs are bounded by 1 and kernels L1-normalized.
pub const META_TOL: f64 = 1e-9;

fn run(
    exec: &LoRaStencil,
    case: &Case,
    input: GridData,
    iterations: usize,
) -> Result<GridData, String> {
    let p = Problem::new(case.kernel.clone(), input, iterations);
    exec.execute(&p)
        .map(|o| o.output)
        .map_err(|e| format!("LoRAStencil refused a valid case: {e}\n{}", replay_hint()))
}

/// Check every metamorphic relation on `case`. `Err` carries the first
/// violated relation with measured deviation and a replay command.
pub fn check_relations(case: &Case) -> Result<(), String> {
    let exec = LoRaStencil::new();
    let x = case.input();
    // an independent second grid for superposition
    let y = Case { data_seed: case.data_seed ^ 0x9E37_79B9, ..case.clone() }.input();

    // -- superposition + scalar scaling -------------------------------
    // exact binary fractions keep the combination itself round-off free
    let (a, b) = (0.375, -0.5);
    let combined = run(&exec, case, x.scaled(a).added(&y.scaled(b)), case.iterations)?;
    let fx = run(&exec, case, x.clone(), case.iterations)?;
    let fy = run(&exec, case, y, case.iterations)?;
    let expect = fx.scaled(a).added(&fy.scaled(b));
    let diff = combined.max_abs_diff(&expect);
    if diff.is_nan() || diff > META_TOL {
        return Err(format!(
            "superposition violated: |F(ax+by) - aF(x) - bF(y)| = {diff:.3e} (tol {META_TOL:.1e})\n{}",
            replay_hint()
        ));
    }

    // -- translation equivariance -------------------------------------
    let shift: Vec<isize> = match case.extents.len() {
        1 => vec![3],
        2 => vec![3, 5],
        _ => vec![1, 2, 3],
    };
    let rolled_then_run = run(&exec, case, x.rolled(&shift), case.iterations)?;
    let run_then_rolled = fx.rolled(&shift);
    let diff = rolled_then_run.max_abs_diff(&run_then_rolled);
    if diff.is_nan() || diff > META_TOL {
        return Err(format!(
            "translation equivariance violated: shift {shift:?} deviates by {diff:.3e} \
             (tol {META_TOL:.1e})\n{}",
            replay_hint()
        ));
    }

    // -- step composition (bitwise without fusion) --------------------
    let nofuse = LoRaStencil::with_config(ExecConfig { allow_fusion: false, ..ExecConfig::full() });
    let batched = {
        let p = Problem::new(case.kernel.clone(), x.clone(), case.iterations);
        nofuse.execute(&p).map_err(|e| e.to_string())?.output
    };
    let mut stepped = x.clone();
    for _ in 0..case.iterations {
        let p = Problem::new(case.kernel.clone(), stepped, 1);
        stepped = nofuse.execute(&p).map_err(|e| e.to_string())?.output;
    }
    let diff = batched.max_abs_diff(&stepped);
    if diff != 0.0 {
        return Err(format!(
            "step composition violated: {} unfused iterations differ bitwise from {} single \
             steps (max |Δ| = {diff:.3e})\n{}",
            case.iterations,
            case.iterations,
            replay_hint()
        ));
    }

    // -- rank-truncation monotonicity (2-D kernels) -------------------
    if case.extents.len() == 2 {
        check_rank_truncation(case.kernel.weights_2d())?;
    }

    Ok(())
}

/// Frobenius norm of `a - b`.
fn frob_diff(a: &WeightMatrix, b: &WeightMatrix) -> f64 {
    a.sub(b).as_slice().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// SVD partial-sum reconstruction errors are non-increasing in the term
/// count and end below the decomposition tolerance.
pub fn check_rank_truncation(w: &WeightMatrix) -> Result<(), String> {
    let d = svd(w, 1e-12);
    let mut acc = WeightMatrix::zero(w.n());
    if d.pointwise != 0.0 {
        // the point-wise tip is applied before any rank-1 term
        let h = (w.n() - 1) / 2;
        acc.set(h, h, d.pointwise);
    }
    let mut prev = frob_diff(&acc, w);
    for (i, term) in d.terms.iter().enumerate() {
        acc = acc.add(&term.to_matrix().embed_centered(w.n()));
        let err = frob_diff(&acc, w);
        if err > prev + 1e-9 {
            return Err(format!(
                "rank truncation not monotone: error grew from {prev:.3e} to {err:.3e} at \
                 term {}/{}\n{}",
                i + 1,
                d.terms.len(),
                replay_hint()
            ));
        }
        prev = err;
    }
    if prev > 1e-8 {
        return Err(format!(
            "SVD reconstruction incomplete: final Frobenius error {prev:.3e} with {} terms\n{}",
            d.terms.len(),
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
    use foundation::rng::Xoshiro256pp;

    #[test]
    fn relations_hold_on_sampled_cases() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x4E7A);
        for _ in 0..4 {
            let case = CaseGen.generate(&mut rng);
            check_relations(&case).unwrap();
        }
    }

    #[test]
    fn rank_truncation_holds_for_benchmark_kernels() {
        for k in stencil_core::kernels::all_kernels().into_iter().filter(|k| k.dims() == 2) {
            check_rank_truncation(k.weights_2d()).unwrap();
        }
    }

    #[test]
    fn rank_truncation_rejects_a_growing_error() {
        // sanity: the check actually fires — a matrix the SVD cannot
        // finish within its tolerance budget is impossible here, so
        // instead verify the exact-reconstruction clause on a full-rank
        // random matrix (it must pass: SVD keeps all terms)
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let w = WeightMatrix::from_vec(5, (0..25).map(|_| rng.range_f64(-1.0, 1.0)).collect());
        check_rank_truncation(&w).unwrap();
    }
}
