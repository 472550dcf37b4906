//! AMOS baseline (Zheng et al., ISCA 2022): automatic mapping of tensor
//! computations onto spatial accelerators.
//!
//! AMOS *does* use tensor cores, but maps the stencil as a generic
//! convolution-style GEMM without any stencil-specific data-layout
//! optimization: every output point's kernel window is gathered
//! independently (im2col semantics straight out of global memory), so
//! neighboring outputs share nothing and the full window traffic hits the
//! memory system per point. §V-B: "although AMOS utilizes TCU, it does
//! not optimize the mapping from stencil to TCU, squandering a
//! significant portion of computational power."

use crate::common::{
    self, global_to_grid2, grid2_to_global, run_tiled_1d, run_tiled_2d, run_tiled_3d, TILE,
};
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::{ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters, SimContext};

/// The AMOS baseline executor.
#[derive(Debug, Clone, Default)]
pub struct Amos;

impl Amos {
    /// Create the executor.
    pub fn new() -> Self {
        Amos
    }
}

/// Charge the generic im2col-on-TCU data path for `points` outputs with a
/// `window`-element kernel: the mapper materializes the gathered
/// `[points × window]` matrix in global memory (read the windows, write
/// the matrix, read it back for the GEMM), then one MMA per 4 gathered
/// elements per 8-output group.
fn charge_im2col_tcu(ctx: &mut SimContext, points: u64, window: u64) {
    let matrix_bytes = points * window * 8;
    // gather: overlapping windows mostly hit L2
    ctx.counters.l2_bytes += matrix_bytes;
    // materialize the gathered matrix, then read it back for the GEMM
    ctx.counters.global_bytes_written += matrix_bytes;
    ctx.counters.global_bytes_read += matrix_bytes;
    ctx.counters.mma_ops += (points.div_ceil(8)) * window.div_ceil(4);
}

fn block() -> BlockResources {
    // no shared-memory staging; generic mapping burns registers
    BlockResources { shared_bytes: 0, threads: 256, regs_per_thread: 96 }
}

impl StencilExecutor for Amos {
    fn name(&self) -> &'static str {
        "AMOS"
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
                        charge_im2col_tcu(&mut ctx, (t.h * t.w) as u64, window);
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
                        charge_im2col_tcu(&mut ctx, (t.h * t.w) as u64, window);
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
                        charge_im2col_tcu(&mut ctx, len as u64, window);
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
        let exec = Amos::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(96, |i| (i % 5) as f64), 2),
                2 => Problem::new(k.clone(), Grid2D::from_fn(16, 24, |r, c| (r * c % 7) as f64), 2),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z ^ y ^ x) as f64),
                    2,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-10, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn full_window_traffic_per_point() {
        let exec = Amos::new();
        let p = Problem::new(kernels::box_2d49p(), Grid2D::new(64, 64), 1);
        let out = exec.execute(&p).unwrap();
        // 49 elements × 8 bytes per point read back from the
        // materialized matrix (the gather itself hits L2)
        assert_eq!(out.counters.global_bytes_read, 64 * 64 * 49 * 8);
        assert_eq!(out.counters.l2_bytes, 64 * 64 * 49 * 8);
        assert_eq!(out.counters.shared_load_requests, 0);
    }
}
