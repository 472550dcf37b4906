//! The LoRAStencil executor: one [`StencilExecutor`] for 1-, 2- and 3-D
//! kernels. It converts the grid to planes, runs the generic time loop
//! of [`crate::schedule`] (where each dimension's lowering rule lives)
//! and converts the result back.

use crate::plan::ExecConfig;
use crate::schedule::{self, grid_to_planes, planes_to_grid};
use stencil_core::{ExecError, ExecOutcome, Problem, StencilExecutor};

/// The LoRAStencil executor (§III, §IV-C): RDG, PMA and BVS on the
/// simulated tensor cores, for kernels of any dimensionality.
#[derive(Debug, Clone, Default)]
pub struct LoRaStencil {
    /// Feature toggles (ablation support).
    pub config: ExecConfig,
}

impl LoRaStencil {
    /// Full configuration (TCU + BVS + async copy + fusion).
    pub fn new() -> Self {
        LoRaStencil { config: ExecConfig::full() }
    }

    /// Custom configuration (ablation, the Fig. 9 breakdown).
    pub fn with_config(config: ExecConfig) -> Self {
        LoRaStencil { config }
    }
}

impl StencilExecutor for LoRaStencil {
    fn name(&self) -> &'static str {
        "LoRAStencil"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        let dims = problem.kernel.dims();
        if dims != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        let planes = grid_to_planes(&problem.input);
        let (planes, counters, block) =
            schedule::run(&problem.kernel, self.config, planes, problem.iterations);
        Ok(ExecOutcome { output: planes_to_grid(&planes, dims), counters, block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, max_error_vs_reference, Grid1D, Grid2D, Grid3D};

    #[test]
    fn dispatcher_handles_every_benchmark_kernel() {
        let exec = LoRaStencil::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(128, |i| (i % 9) as f64), 1),
                2 => Problem::new(k.clone(), Grid2D::from_fn(24, 24, |r, c| (r + 2 * c) as f64), 1),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z + y + x) as f64),
                    1,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-11, "{}: err = {err}", k.name);
        }
    }
}
