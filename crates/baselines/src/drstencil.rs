//! DRStencil baseline (You et al., HPCC 2021): data-reuse-centric
//! acceleration of low-order stencils on CUDA cores through
//! fusion-partition optimization and code generation.
//!
//! Modeled as the scalar engine of [`crate::cuda_core`] with a tighter
//! issue schedule (generated code) plus 2× temporal fusion for radius-1
//! kernels — the fusion-partition technique that trades slightly more
//! arithmetic for half the memory passes.

use crate::common::{global_to_grid2, grid2_to_global, DRSTENCIL_ISSUE_OVERHEAD, TILE};
use crate::cuda_core;
use lorastencil::fusion;
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::{
    ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor, StencilKernel,
};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// The DRStencil baseline executor.
#[derive(Debug, Clone, Default)]
pub struct DrStencil;

impl DrStencil {
    /// Create the executor.
    pub fn new() -> Self {
        DrStencil
    }
}

/// DRStencil's fusion-partition pays off where the kernel is
/// memory-bound: 1-D radius-1 kernels (tiny arithmetic per point, full
/// grid traffic per step). In 2-D/3-D the fused kernel's extra points
/// cost more issue slots than the saved memory passes, so the optimizer
/// keeps them unfused.
fn fusion_factor(kernel: &StencilKernel) -> usize {
    if kernel.dims() == 1 && kernel.radius == 1 {
        3
    } else {
        1
    }
}

fn block(h: usize) -> BlockResources {
    BlockResources {
        shared_bytes: 8 * ((TILE + 2 * h) * (TILE + 2 * h) * 8) as u32,
        threads: 256,
        regs_per_thread: 64,
    }
}

impl StencilExecutor for DrStencil {
    fn name(&self) -> &'static str {
        "DRStencil"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        let fuse = fusion_factor(&problem.kernel);
        let fused = fusion::fuse_kernel(&problem.kernel, fuse);
        let full = problem.iterations / fuse;
        let rem = problem.iterations % fuse;
        let mut counters = PerfCounters::new();

        match &problem.input {
            GridData::D2(g) => {
                let mut cur = grid2_to_global(g);
                for _ in 0..full {
                    let (next, c) = cuda_core::apply_2d(
                        &cur,
                        fused.weights_2d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        fuse,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = cuda_core::apply_2d(
                        &cur,
                        problem.kernel.weights_2d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        1,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block(fused.radius),
                })
            }
            GridData::D3(_) => {
                let mut cur = grid_to_planes(&problem.input);
                for _ in 0..full {
                    let (next, c) = cuda_core::apply_3d(
                        &cur,
                        fused.weights_3d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        fuse,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = cuda_core::apply_3d(
                        &cur,
                        problem.kernel.weights_3d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        1,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: planes_to_grid(&cur, 3),
                    counters,
                    block: block(fused.radius),
                })
            }
            GridData::D1(g) => {
                let mut cur = GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec());
                for _ in 0..full {
                    let (next, c) = cuda_core::apply_1d(
                        &cur,
                        fused.weights_1d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        fuse,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = cuda_core::apply_1d(
                        &cur,
                        problem.kernel.weights_1d(),
                        DRSTENCIL_ISSUE_OVERHEAD,
                        1,
                    );
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D1(Grid1D::from_vec(cur.as_slice().to_vec())),
                    counters,
                    block: block(fused.radius),
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
        let exec = DrStencil::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(96, |i| (i % 6) as f64 * 0.5), 3),
                2 => Problem::new(k.clone(), Grid2D::from_fn(16, 16, |r, c| (2 * r + c) as f64), 3),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z + y + x) as f64),
                    3,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-10, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn fusion_cuts_memory_passes_for_1d_kernels() {
        let g = Grid1D::from_fn(192, |i| (i % 9) as f64);
        let p = Problem::new(kernels::heat_1d(), g, 3);
        let dr = DrStencil::new().execute(&p).unwrap();
        let br = crate::brick::Brick::new().execute(&p).unwrap();
        // DRStencil runs 3 iterations in one fused pass: a third of the
        // global read traffic of Brick's three passes
        assert!(dr.counters.global_bytes_read * 2 < br.counters.global_bytes_read);
        assert_eq!(dr.counters.points_updated, br.counters.points_updated);
    }
}
