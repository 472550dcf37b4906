//! Brick baseline (Zhao et al., P3HPC 2018 / SC 2019): performance-
//! portable stencils on CUDA cores through fine-grained data blocks.
//!
//! Bricks maximize data reuse within small blocks, reducing prefetch and
//! cache pressure — modeled here as the shared-memory-staged scalar
//! engine of [`crate::cuda_core`] with register-blocked row reads. No
//! tensor cores, no temporal fusion.

use crate::common::{global_to_grid2, grid2_to_global, CUDA_ISSUE_OVERHEAD, TILE};
use crate::cuda_core;
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::{ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// The Brick baseline executor.
#[derive(Debug, Clone, Default)]
pub struct Brick;

impl Brick {
    /// Create the executor.
    pub fn new() -> Self {
        Brick
    }
}

fn block(h: usize) -> BlockResources {
    BlockResources {
        shared_bytes: 8 * ((TILE + 2 * h) * (TILE + 2 * h) * 8) as u32,
        threads: 256,
        regs_per_thread: 48,
    }
}

impl StencilExecutor for Brick {
    fn name(&self) -> &'static str {
        "Brick"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        let mut counters = PerfCounters::new();
        match &problem.input {
            GridData::D2(g) => {
                let w = problem.kernel.weights_2d();
                let mut cur = grid2_to_global(g);
                for _ in 0..problem.iterations {
                    let (next, c) = cuda_core::apply_2d(&cur, w, CUDA_ISSUE_OVERHEAD, 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block(problem.kernel.radius),
                })
            }
            GridData::D3(_) => {
                let ws = problem.kernel.weights_3d();
                let mut cur = grid_to_planes(&problem.input);
                for _ in 0..problem.iterations {
                    let (next, c) = cuda_core::apply_3d(&cur, ws, CUDA_ISSUE_OVERHEAD, 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: planes_to_grid(&cur, 3),
                    counters,
                    block: block(problem.kernel.radius),
                })
            }
            GridData::D1(g) => {
                let w = problem.kernel.weights_1d();
                let mut cur = GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec());
                for _ in 0..problem.iterations {
                    let (next, c) = cuda_core::apply_1d(&cur, w, CUDA_ISSUE_OVERHEAD, 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D1(Grid1D::from_vec(cur.as_slice().to_vec())),
                    counters,
                    block: block(problem.kernel.radius),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, max_error_vs_reference, Grid2D, Grid3D};

    #[test]
    fn matches_reference_on_all_kernels() {
        let exec = Brick::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(96, |i| (i % 4) as f64), 2),
                2 => Problem::new(k.clone(), Grid2D::from_fn(16, 16, |r, c| (r + c) as f64), 2),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z * y + x) as f64),
                    2,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-10, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn no_tensor_cores() {
        let p = Problem::new(kernels::box_2d9p(), Grid2D::new(16, 16), 1);
        let out = Brick::new().execute(&p).unwrap();
        assert_eq!(out.counters.mma_ops, 0);
        assert!(out.counters.cuda_flops > 0);
    }
}
