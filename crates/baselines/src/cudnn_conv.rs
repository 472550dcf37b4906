//! cuDNN-like baseline: convolution via explicit im2col materialization
//! followed by a CUDA-core GEMM.
//!
//! §V-B: "cuDNN does not employ TCU for acceleration" (FP64 convolutions
//! take the classic im2col+GEMM path) and has no stencil-specific
//! optimization. The im2col matrix — `points × kernel-window` elements —
//! is materialized in global memory, read back by the GEMM, and the GEMM
//! itself runs on CUDA cores: three full passes of window-sized traffic
//! per output plus the arithmetic.

use crate::common::{
    self, global_to_grid2, grid2_to_global, run_tiled_1d, run_tiled_2d, run_tiled_3d,
    CUDA_ISSUE_OVERHEAD, TILE,
};
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::{ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters, SimContext};

/// The cuDNN-like baseline executor.
#[derive(Debug, Clone, Default)]
pub struct CuDnnConv;

impl CuDnnConv {
    /// Create the executor.
    pub fn new() -> Self {
        CuDnnConv
    }
}

/// Charge the im2col + CUDA-core GEMM data path for `points` outputs with
/// a `window`-element kernel.
fn charge_im2col_gemm(ctx: &mut SimContext, points: u64, window: u64) {
    let matrix_bytes = points * window * 8;
    // im2col: read the input windows, write the matrix
    ctx.counters.global_bytes_read += matrix_bytes;
    ctx.counters.global_bytes_written += matrix_bytes;
    // GEMM: read the matrix back, FMA on CUDA cores
    ctx.counters.global_bytes_read += matrix_bytes;
    ctx.cuda_flops(((2 * points * window) as f64 * CUDA_ISSUE_OVERHEAD) as u64);
}

fn block() -> BlockResources {
    BlockResources { shared_bytes: 0, threads: 256, regs_per_thread: 64 }
}

impl StencilExecutor for CuDnnConv {
    fn name(&self) -> &'static str {
        "cuDNN"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        let window = problem.kernel.points() as u64;
        let mut counters = PerfCounters::new();
        match &problem.input {
            GridData::D2(g) => {
                let w = problem.kernel.weights_2d();
                let mut cur = grid2_to_global(g);
                for _ in 0..problem.iterations {
                    let (next, c) = run_tiled_2d(&cur, |t| {
                        let mut ctx = SimContext::new();
                        charge_im2col_gemm(&mut ctx, (t.h * t.w) as u64, window);
                        let mut vals = [[0.0; TILE]; TILE];
                        for (p, row) in vals.iter_mut().enumerate() {
                            for (q, v) in row.iter_mut().enumerate() {
                                *v = common::stencil_point_2d(&cur, w, t.r0 + p, t.c0 + q);
                            }
                        }
                        ctx.points((t.h * t.w) as u64);
                        (vals, ctx.counters)
                    });
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block(),
                })
            }
            GridData::D3(_) => {
                let ws = problem.kernel.weights_3d();
                let mut cur = grid_to_planes(&problem.input);
                for _ in 0..problem.iterations {
                    let (next, c) = run_tiled_3d(&cur, |z, t| {
                        let mut ctx = SimContext::new();
                        charge_im2col_gemm(&mut ctx, (t.h * t.w) as u64, window);
                        let mut vals = [[0.0; TILE]; TILE];
                        for (p, row) in vals.iter_mut().enumerate() {
                            for (q, v) in row.iter_mut().enumerate() {
                                *v = common::stencil_point_3d(&cur, ws, z, t.r0 + p, t.c0 + q);
                            }
                        }
                        ctx.points((t.h * t.w) as u64);
                        (vals, ctx.counters)
                    });
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome { output: planes_to_grid(&cur, 3), counters, block: block() })
            }
            GridData::D1(g) => {
                let w = problem.kernel.weights_1d().to_vec();
                let mut cur = GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec());
                for _ in 0..problem.iterations {
                    let (next, c) = run_tiled_1d(&cur, 64, |i0, len| {
                        let mut ctx = SimContext::new();
                        charge_im2col_gemm(&mut ctx, len as u64, window);
                        let vals =
                            (0..len).map(|k| common::stencil_point_1d(&cur, &w, i0 + k)).collect();
                        ctx.points(len as u64);
                        (vals, ctx.counters)
                    });
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D1(Grid1D::from_vec(cur.as_slice().to_vec())),
                    counters,
                    block: block(),
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
        let exec = CuDnnConv::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(96, |i| (i % 8) as f64), 2),
                2 => Problem::new(k.clone(), Grid2D::from_fn(16, 16, |r, c| (r * 2 + c) as f64), 2),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z + 2 * y + x) as f64),
                    2,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-10, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn no_tensor_cores_and_triple_window_traffic() {
        let p = Problem::new(kernels::box_2d9p(), Grid2D::new(32, 32), 1);
        let out = CuDnnConv::new().execute(&p).unwrap();
        assert_eq!(out.counters.mma_ops, 0);
        // 3 window-sized passes: im2col read + write + GEMM read
        let window_bytes = (32 * 32 * 9 * 8) as u64;
        assert_eq!(out.counters.global_bytes_read, 2 * window_bytes);
        assert_eq!(
            out.counters.global_bytes_written,
            window_bytes + 32 * 32 * 8 // + the output itself
        );
    }
}
