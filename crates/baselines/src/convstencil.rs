//! ConvStencil baseline (Chen et al., PPoPP 2024) — the strongest prior
//! system the paper compares against.
//!
//! ConvStencil turns stencils into tensor-core GEMMs through the
//! *stencil2row* data layout: two auxiliary matrices are materialized in
//! shared memory whose rows contain (overlapping) kernel windows, after
//! which dense MMAs compute the outputs. Its costs follow the analysis of
//! the LoRAStencil paper:
//!
//! * **Eq. 13**: `2⌈(2h+1)²/4⌉` fragment loads per `8×(2h+2)` output
//!   chunk, and the same number of MMA instructions ("no fragment reuse");
//! * stencil2row construction reads the staged input tile and writes
//!   `2 × 8 × 4⌈(2h+1)²/4⌉` matrix elements per chunk — the data-layout
//!   amplification that §V-D's store-count comparison measures;
//! * the two matrices inflate the shared-memory footprint per block,
//!   lowering occupancy (§V-D);
//! * like the paper's protocol (§V-A), small kernels are temporally fused
//!   3× — in 3-D this is *compulsory* (poor fragment utilization
//!   otherwise), which inflates dependencies and register pressure.
//!
//! Numeric outputs are computed with exact periodic window sums (the GEMM
//! is mathematically the same sum); counters follow the data path above.

use crate::common::{
    self, global_to_grid2, grid2_to_global, run_tiled_1d, run_tiled_2d, run_tiled_3d, TILE,
};
use lorastencil::fusion;
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::{
    ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor, StencilKernel, WeightMatrix,
};
use tcu_sim::{BlockResources, CopyMode, GlobalArray, PerfCounters, SharedTile, SimContext};

/// The ConvStencil baseline executor.
#[derive(Debug, Clone, Default)]
pub struct ConvStencil;

impl ConvStencil {
    /// Create the executor.
    pub fn new() -> Self {
        ConvStencil
    }
}

/// Fragment loads (= MMA count) per `8×(2h+2)` output chunk (Eq. 13).
fn frags_per_chunk(n: usize) -> u64 {
    2 * ((n * n) as u64).div_ceil(4)
}

/// stencil2row matrix elements materialized per chunk.
fn s2r_elems(n: usize) -> u64 {
    2 * 8 * 4 * ((n * n) as u64).div_ceil(4)
}

/// Charge one chunk's worth of ConvStencil data-path work for `chunks`
/// chunks. `build_share` is the fraction of the stencil2row construction
/// this consumer pays: 1.0 in 2-D; in 3-D the transform of an input
/// plane is reused by the `2h+1` output planes that consume it, so each
/// pays `1/(2h+1)`.
fn charge_chunk(ctx: &mut SimContext, n: usize, chunks: f64, build_share: f64) {
    let frags = (frags_per_chunk(n) as f64 * chunks).ceil() as u64;
    let s2r = (s2r_elems(n) as f64 * chunks * build_share).ceil() as u64;
    // build stencil2row: read the staged tile, write the matrices
    ctx.counters.shared_load_requests += s2r.div_ceil(32);
    ctx.counters.shared_store_requests += s2r.div_ceil(32);
    // GEMM: one fragment load + one MMA per fragment (no reuse)
    ctx.counters.shared_load_requests += frags;
    ctx.counters.mma_ops += frags;
}

/// Fraction of ConvStencil-3D's halo plane re-reads that miss L2 and
/// fall through to HBM: the compulsory 3× fusion widens the working set
/// to 7 planes (56 MB at Table II scale) against the A100's 40 MB L2.
const L2_SPILL_FRACTION: f64 = 0.30;

/// Fraction of the 3-D stencil2row working set that overflows registers
/// and shared memory into local memory (= DRAM traffic): §V-B, "issues
/// such as register overflow and insufficient shared memory become more
/// severe" under the compulsory 3-D fusion.
const REGISTER_SPILL_FRACTION: f64 = 0.40;

/// Shared bytes per warp: staged input region + the two stencil2row
/// matrices.
fn shared_per_warp(h: usize, n: usize) -> u32 {
    let region = (TILE + 2 * h) * (TILE + 2 * h);
    ((region as u64 + s2r_elems(n)) * 8) as u32
}

fn block_resources_2d(h: usize, n: usize) -> BlockResources {
    BlockResources { shared_bytes: 8 * shared_per_warp(h, n), threads: 256, regs_per_thread: 64 }
}

fn block_resources_3d(h: usize, n: usize) -> BlockResources {
    // §V-B: compulsory 3× fusion in 3-D exacerbates register pressure
    // ("issues such as register overflow … become more severe")
    BlockResources { shared_bytes: 8 * shared_per_warp(h, n), threads: 256, regs_per_thread: 120 }
}

fn apply_2d(
    input: &GlobalArray,
    w: &WeightMatrix,
    fusion_steps: usize,
) -> (GlobalArray, PerfCounters) {
    let h = w.radius();
    let n = w.n();
    run_tiled_2d(input, |t| {
        let mut ctx = SimContext::new();
        let mut tile = SharedTile::new(TILE + 2 * h, TILE + 2 * h);
        input.copy_to_shared_reuse(
            &mut ctx,
            CopyMode::Async,
            t.r0 as isize - h as isize,
            t.c0 as isize - h as isize,
            TILE + 2 * h,
            TILE + 2 * h,
            &mut tile,
            0,
            0,
            t.h * t.w,
        );
        // chunks of 8×(2h+2) outputs cover this 8×8 tile
        let chunks = (TILE * TILE) as f64 / (8.0 * (2 * h + 2) as f64);
        charge_chunk(&mut ctx, n, chunks, 1.0);
        let mut vals = [[0.0; TILE]; TILE];
        for (p, row) in vals.iter_mut().enumerate() {
            for (q, v) in row.iter_mut().enumerate() {
                *v = common::stencil_point_2d(input, w, t.r0 + p, t.c0 + q);
            }
        }
        ctx.points((t.h * t.w * fusion_steps) as u64);
        (vals, ctx.counters)
    })
}

fn apply_3d(
    planes: &[GlobalArray],
    weights: &[WeightMatrix],
    fusion_steps: usize,
) -> (Vec<GlobalArray>, PerfCounters) {
    let h = (weights.len() - 1) / 2;
    let n = weights[0].n();
    run_tiled_3d(planes, |z, t| {
        let mut ctx = SimContext::new();
        // every kernel plane is staged and pushed through stencil2row
        for (dz, w) in weights.iter().enumerate() {
            if w.nonzero_points() == 0 {
                continue;
            }
            let zp = (z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize);
            let src = &planes[zp as usize];
            let side = TILE + 2 * h;
            let mut tile = SharedTile::new(side, side);
            // the fused working set (2h+1 planes) overflows the L2, so a
            // fraction of each halo plane read spills to HBM — unlike
            // LoRAStencil's unfused 3-plane working set, which fits
            let fresh = if dz == h {
                t.h * t.w
            } else {
                (L2_SPILL_FRACTION * (side * side) as f64) as usize
            };
            src.copy_to_shared_reuse(
                &mut ctx,
                CopyMode::Async,
                t.r0 as isize - h as isize,
                t.c0 as isize - h as isize,
                side,
                side,
                &mut tile,
                0,
                0,
                fresh,
            );
            let chunks = (TILE * TILE) as f64 / (8.0 * (2 * h + 2) as f64);
            // the input plane's stencil2row transform is shared by the
            // 2h+1 output planes reading it
            charge_chunk(&mut ctx, n, chunks, 1.0 / (2 * h + 1) as f64);
        }
        // register/local-memory spills: the overflowing part of the
        // stencil2row working set round-trips through DRAM once per
        // output-tile computation
        {
            let chunks = (TILE * TILE) as f64 / (8.0 * (2 * h + 2) as f64);
            let spill = (s2r_elems(n) as f64 * chunks * REGISTER_SPILL_FRACTION) as u64 * 8;
            ctx.counters.global_bytes_written += spill;
            ctx.counters.global_bytes_read += spill;
        }
        let mut vals = [[0.0; TILE]; TILE];
        for (p, row) in vals.iter_mut().enumerate() {
            for (q, v) in row.iter_mut().enumerate() {
                *v = common::stencil_point_3d(planes, weights, z, t.r0 + p, t.c0 + q);
            }
        }
        ctx.points((t.h * t.w * fusion_steps) as u64);
        (vals, ctx.counters)
    })
}

fn apply_1d(input: &GlobalArray, w: &[f64], fusion_steps: usize) -> (GlobalArray, PerfCounters) {
    let h = (w.len() - 1) / 2;
    let n = w.len();
    let chunk = 8 * (2 * h + 2);
    run_tiled_1d(input, chunk, |i0, len| {
        let mut ctx = SimContext::new();
        // staged input for the chunk
        let region = chunk + 2 * h;
        let mut tile = SharedTile::new(1, region);
        input.copy_to_shared_reuse(
            &mut ctx,
            CopyMode::Async,
            0,
            i0 as isize - h as isize,
            1,
            region,
            &mut tile,
            0,
            0,
            len,
        );
        // 1-D stencil2row: fragments hold 1-D windows; Eq. 13 with the
        // 1-D kernel length in place of (2h+1)²
        let frags = 2 * (n as u64).div_ceil(4);
        let s2r = 2 * 8 * 4 * (n as u64).div_ceil(4);
        ctx.counters.shared_load_requests += s2r.div_ceil(32) + frags;
        ctx.counters.shared_store_requests += s2r.div_ceil(32);
        ctx.counters.mma_ops += frags;
        let vals = (0..len).map(|k| common::stencil_point_1d(input, w, i0 + k)).collect();
        ctx.points((len * fusion_steps) as u64);
        (vals, ctx.counters)
    })
}

/// ConvStencil fuses radius-1 kernels 3× in every dimensionality (§V-A;
/// compulsory in 3-D per §V-B).
fn fusion_factor(kernel: &StencilKernel) -> usize {
    if kernel.radius == 1 {
        3
    } else {
        1
    }
}

impl StencilExecutor for ConvStencil {
    fn name(&self) -> &'static str {
        "ConvStencil"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        let fuse = fusion_factor(&problem.kernel);
        let fused_kernel = fusion::fuse_kernel(&problem.kernel, fuse);
        let full = problem.iterations / fuse;
        let rem = problem.iterations % fuse;
        let mut counters = PerfCounters::new();

        match &problem.input {
            GridData::D2(g) => {
                let mut cur = grid2_to_global(g);
                for _ in 0..full {
                    let (next, c) = apply_2d(&cur, fused_kernel.weights_2d(), fuse);
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = apply_2d(&cur, problem.kernel.weights_2d(), 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block_resources_2d(fused_kernel.radius, fused_kernel.side()),
                })
            }
            GridData::D3(_) => {
                let mut cur = grid_to_planes(&problem.input);
                for _ in 0..full {
                    let (next, c) = apply_3d(&cur, fused_kernel.weights_3d(), fuse);
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = apply_3d(&cur, problem.kernel.weights_3d(), 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: planes_to_grid(&cur, 3),
                    counters,
                    block: block_resources_3d(fused_kernel.radius, fused_kernel.side()),
                })
            }
            GridData::D1(g) => {
                let mut cur = GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec());
                for _ in 0..full {
                    let (next, c) = apply_1d(&cur, fused_kernel.weights_1d(), fuse);
                    counters.merge(&c);
                    cur = next;
                }
                for _ in 0..rem {
                    let (next, c) = apply_1d(&cur, problem.kernel.weights_1d(), 1);
                    counters.merge(&c);
                    cur = next;
                }
                Ok(ExecOutcome {
                    output: GridData::D1(Grid1D::from_vec(cur.as_slice().to_vec())),
                    counters,
                    block: BlockResources {
                        shared_bytes: 8
                            * ((8 * (2 * fused_kernel.radius + 2)
                                + 2 * fused_kernel.radius
                                + 64 * fused_kernel.side()) as u32)
                            * 8,
                        threads: 256,
                        regs_per_thread: 64,
                    },
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
        let exec = ConvStencil::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(128, |i| (i % 9) as f64 * 0.3), 3),
                2 => Problem::new(
                    k.clone(),
                    Grid2D::from_fn(24, 24, |r, c| ((r * 7 + c * 3) % 5) as f64),
                    3,
                ),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z + y * 2 + x) as f64 * 0.1),
                    3,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-10, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn eq13_fragment_count_for_box_2d49p() {
        // h = 3: 2⌈49/4⌉ = 26 fragment loads (= MMAs) per 8×8 chunk.
        assert_eq!(frags_per_chunk(7), 26);
        let exec = ConvStencil::new();
        let p =
            Problem::new(kernels::box_2d49p(), Grid2D::from_fn(64, 64, |r, c| (r + c) as f64), 1);
        let out = exec.execute(&p).unwrap();
        let tiles = 64 * 64 / 64;
        assert_eq!(out.counters.mma_ops, tiles * 26);
    }

    #[test]
    fn convstencil_loads_more_and_computes_less_than_lora() {
        // the paper's trade-off, §III-B/§III-C: LoRA has fewer shared
        // loads but more MMAs
        use lorastencil::LoRaStencil;
        let g = Grid2D::from_fn(64, 64, |r, c| ((r * 13 + c) % 7) as f64);
        let p = Problem::new(kernels::box_2d49p(), g, 1);
        let conv = ConvStencil::new().execute(&p).unwrap();
        let lora = LoRaStencil::new().execute(&p).unwrap();
        assert!(conv.counters.shared_load_requests > lora.counters.shared_load_requests * 3);
        assert!(conv.counters.mma_ops < lora.counters.mma_ops);
    }

    #[test]
    fn convstencil_occupies_more_shared_memory_than_lora() {
        use lorastencil::{ExecConfig, Plan, ScheduleParams};
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let conv_block = block_resources_2d(3, 7);
        let lora_block = plan.block_resources(&ScheduleParams::default());
        assert!(conv_block.shared_bytes > lora_block.shared_bytes);
    }

    #[test]
    fn fuses_small_kernels_3x() {
        assert_eq!(fusion_factor(&kernels::box_2d9p()), 3);
        assert_eq!(fusion_factor(&kernels::heat_3d()), 3);
        assert_eq!(fusion_factor(&kernels::box_2d49p()), 1);
    }
}
