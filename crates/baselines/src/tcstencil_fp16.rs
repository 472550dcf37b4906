//! TCStencil in its *native* FP16 precision, on the `m16n16k16` fragment
//! model of [`tcu_sim::fp16`].
//!
//! The paper cannot run TCStencil at FP64 (the fragment shapes differ)
//! and converts its measured FP16 throughput by ÷4 (§V-A). This executor
//! complements that protocol with the real thing: the same row-gather
//! mapping executed with binary16 operands and FP32 accumulation, so
//! both sides of the FP16 story are measurable —
//!
//! * **throughput**: FP16 counters (2-byte traffic, 8192-FLOP MMAs at
//!   the 312 TFLOPS peak) feed the same cost model;
//! * **accuracy**: outputs genuinely carry half-precision rounding, so
//!   the numerical price of FP16 stencils — the reason the paper and all
//!   HPC practice insist on FP64 — is a measured quantity (see the
//!   `fp16_study` binary).

use crate::common::{global_to_grid2, grid2_to_global, with_shared_tile};
use foundation::par::*;
use lorastencil::schedule::{grid_to_planes, planes_to_grid};
use stencil_core::tiling::{tiles_2d, Tile2D};
use stencil_core::{ExecError, ExecOutcome, GridData, Problem, StencilExecutor, WeightMatrix};
use tcu_sim::fp16::{load_frag16, Acc16, Frag16, MMA16};
use tcu_sim::{BlockResources, CopyMode, GlobalArray, PerfCounters, SharedTile, SimContext};

/// The native-FP16 TCStencil executor (2-D and 3-D kernels).
#[derive(Debug, Clone, Default)]
pub struct TcStencilFp16;

impl TcStencilFp16 {
    /// Create the executor.
    pub fn new() -> Self {
        TcStencilFp16
    }
}

/// FP16 output tile side.
const TILE16: usize = MMA16;

/// Padded FP16 input width (two 16-wide fragment columns cover radii ≤ 8).
const S16: usize = 32;

/// Rescale the byte counters charged since `before` from 8-byte FP64
/// elements to 2-byte FP16 elements.
fn fp16_bytes(ctx: &mut SimContext, before: &PerfCounters) {
    let c = &mut ctx.counters;
    c.global_bytes_read =
        before.global_bytes_read + (c.global_bytes_read - before.global_bytes_read) / 4;
    c.global_bytes_written =
        before.global_bytes_written + (c.global_bytes_written - before.global_bytes_written) / 4;
    c.l2_bytes = before.l2_bytes + (c.l2_bytes - before.l2_bytes) / 4;
    c.staged_copy_bytes =
        before.staged_copy_bytes + (c.staged_copy_bytes - before.staged_copy_bytes) / 4;
}

/// Banded `V_i` fragments for kernel row weights `w_row`: the `S16×16`
/// matrix `V[q + k][q] = w_row[k]`, split into two 16×16 fragments.
fn v_frags_for_row(w_row: &[f64]) -> [Frag16; 2] {
    let mut dense = vec![[0.0f64; TILE16]; S16];
    for q in 0..TILE16 {
        for (k, &wk) in w_row.iter().enumerate() {
            dense[q + k][q] = wk;
        }
    }
    [Frag16::from_fn(|i, j| dense[i][j]), Frag16::from_fn(|i, j| dense[MMA16 + i][j])]
}

/// Banded FP16 fragments of every non-zero kernel row, built once per
/// plan and reused by every tile.
fn build_row_frags16(w: &WeightMatrix) -> Vec<(usize, [Frag16; 2])> {
    (0..w.n())
        .filter_map(|i| {
            let row: Vec<f64> = (0..w.n()).map(|j| w.get(i, j)).collect();
            if row.iter().all(|&x| x == 0.0) {
                None
            } else {
                Some((i, v_frags_for_row(&row)))
            }
        })
        .collect()
}

/// Row-gather one plane's contribution onto a 16×16 tile accumulator.
fn row_gather16(
    ctx: &mut SimContext,
    tile: &SharedTile,
    row_frags: &[(usize, [Frag16; 2])],
    mut acc: Acc16,
) -> Acc16 {
    for (i, v) in row_frags {
        for (blk, vf) in v.iter().enumerate() {
            let a = load_frag16(ctx, tile, *i as isize, (blk * MMA16) as isize);
            acc = ctx.mma16(&a, vf, &acc);
        }
    }
    acc
}

fn block_resources(h: usize) -> BlockResources {
    // FP16 tiles: 2 bytes per element
    BlockResources {
        shared_bytes: 8 * ((TILE16 + 2 * h) * S16 * 2) as u32,
        threads: 256,
        regs_per_thread: 64,
    }
}

/// Write a 16×16 tile accumulator into its disjoint output band,
/// charging FP16-width writes (2 bytes per element — the FP64 span
/// charge ÷ 4, exactly what `store_span` + [`fp16_bytes`] charged).
///
/// # Safety
/// The caller must guarantee the tile bands behind `sink` are disjoint.
unsafe fn write_tile16(
    sink: &UnsafeSlice<'_, f64>,
    cols: usize,
    t: Tile2D,
    acc: &Acc16,
    c: &mut PerfCounters,
) {
    for p in 0..t.h {
        let mut row = [0.0f64; TILE16];
        for (q, v) in row.iter_mut().enumerate().take(t.w) {
            *v = acc.get(p, q) as f64;
        }
        let band = unsafe { sink.slice_mut((t.r0 + p) * cols + t.c0, t.w) };
        band.copy_from_slice(&row[..t.w]);
        c.global_bytes_written += (t.w * 8 / 4) as u64;
    }
}

fn run_2d(input: GlobalArray, w: &WeightMatrix, steps: usize) -> (GlobalArray, PerfCounters) {
    let h = w.radius();
    let (rows, cols) = (input.rows(), input.cols());
    let tiles = tiles_2d(rows, cols, TILE16, TILE16);
    let row_frags = build_row_frags16(w);
    let mut slots: Vec<PerfCounters> = Vec::new();
    let mut cur = input;
    let mut next = GlobalArray::new(rows, cols);
    let mut total = PerfCounters::new();
    for _ in 0..steps {
        slots.clear();
        slots.resize(tiles.len(), PerfCounters::new());
        {
            let sink = UnsafeSlice::new(next.as_mut_slice());
            let slot_sink = UnsafeSlice::new(&mut slots[..]);
            let cur = &cur;
            for_each_index(tiles.len(), |i| {
                let t = tiles[i];
                let mut ctx = SimContext::new();
                let acc = with_shared_tile(TILE16 + 2 * h, S16, |tile| {
                    let before = ctx.counters;
                    cur.copy_to_shared_reuse(
                        &mut ctx,
                        CopyMode::Staged,
                        t.r0 as isize - h as isize,
                        t.c0 as isize - h as isize,
                        TILE16 + 2 * h,
                        S16,
                        tile,
                        0,
                        0,
                        t.h * t.w,
                    );
                    fp16_bytes(&mut ctx, &before);
                    row_gather16(&mut ctx, tile, &row_frags, Acc16::zero())
                });
                ctx.points((t.h * t.w) as u64);
                // SAFETY: tile bands are disjoint; one slot per tile
                unsafe {
                    write_tile16(&sink, cols, t, &acc, &mut ctx.counters);
                    slot_sink.write(i, ctx.counters);
                }
            });
        }
        for c in &slots {
            total.merge(c);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, total)
}

fn run_3d(
    planes: Vec<GlobalArray>,
    weights: &[WeightMatrix],
    steps: usize,
) -> (Vec<GlobalArray>, PerfCounters) {
    let h = (weights.len() - 1) / 2;
    // common's helpers use 8×8 tiles; FP16 needs 16×16 — do it directly
    let nz = planes.len();
    let (ny, nx) = (planes[0].rows(), planes[0].cols());
    let tiles = tiles_2d(ny, nx, TILE16, TILE16);
    let jobs: Vec<(usize, Tile2D)> =
        (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect();
    let plane_frags: Vec<Vec<(usize, [Frag16; 2])>> =
        weights.iter().map(build_row_frags16).collect();
    let mut slots: Vec<PerfCounters> = Vec::new();
    let mut sinks: Vec<usize> = Vec::new();
    let mut cur = planes;
    let mut next: Vec<GlobalArray> = (0..nz).map(|_| GlobalArray::new(ny, nx)).collect();
    let mut total = PerfCounters::new();
    for _ in 0..steps {
        slots.clear();
        slots.resize(jobs.len(), PerfCounters::new());
        sinks.clear();
        sinks.extend(next.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
        {
            let slot_sink = UnsafeSlice::new(&mut slots[..]);
            let cur = &cur[..];
            let sinks = &sinks[..];
            for_each_index(jobs.len(), |i| {
                let (z, t) = jobs[i];
                let mut ctx = SimContext::new();
                let mut acc = Acc16::zero();
                for (dz, row_frags) in plane_frags.iter().enumerate() {
                    if row_frags.is_empty() {
                        continue;
                    }
                    let zp = (z as isize + dz as isize - h as isize).rem_euclid(nz as isize);
                    let fresh = if dz == h { t.h * t.w } else { 0 };
                    acc = with_shared_tile(TILE16 + 2 * h, S16, |tile| {
                        let before = ctx.counters;
                        cur[zp as usize].copy_to_shared_reuse(
                            &mut ctx,
                            CopyMode::Staged,
                            t.r0 as isize - h as isize,
                            t.c0 as isize - h as isize,
                            TILE16 + 2 * h,
                            S16,
                            tile,
                            0,
                            0,
                            fresh,
                        );
                        fp16_bytes(&mut ctx, &before);
                        row_gather16(&mut ctx, tile, row_frags, acc)
                    });
                }
                ctx.points((t.h * t.w) as u64);
                let base = sinks[z] as *mut f64;
                for p in 0..t.h {
                    let mut row = [0.0f64; TILE16];
                    for (q, v) in row.iter_mut().enumerate().take(t.w) {
                        *v = acc.get(p, q) as f64;
                    }
                    let off = (t.r0 + p) * nx + t.c0;
                    // SAFETY: (plane, band) pairs are disjoint across jobs
                    let band = unsafe { std::slice::from_raw_parts_mut(base.add(off), t.w) };
                    band.copy_from_slice(&row[..t.w]);
                    ctx.counters.global_bytes_written += (t.w * 8 / 4) as u64;
                }
                // SAFETY: each slot is written by exactly one job
                unsafe { slot_sink.write(i, ctx.counters) };
            });
        }
        for c in &slots {
            total.merge(c);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, total)
}

impl StencilExecutor for TcStencilFp16 {
    fn name(&self) -> &'static str {
        "TCStencil-FP16"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        if problem.kernel.radius > 8 {
            return Err(ExecError::Unsupported("radius > 8 exceeds the padded FP16 tile".into()));
        }
        match &problem.input {
            GridData::D2(g) => {
                let w = problem.kernel.weights_2d();
                let (cur, counters) = run_2d(grid2_to_global(g), w, problem.iterations);
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block_resources(problem.kernel.radius),
                })
            }
            GridData::D3(_) => {
                let ws = problem.kernel.weights_3d();
                let (cur, counters) =
                    run_3d(grid_to_planes(&problem.input), ws, problem.iterations);
                Ok(ExecOutcome {
                    output: planes_to_grid(&cur, 3),
                    counters,
                    block: block_resources(problem.kernel.radius),
                })
            }
            GridData::D1(_) => {
                Err(ExecError::Unsupported("the FP16 study covers 2-D and 3-D kernels".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, reference, Grid2D, Grid3D};

    #[test]
    fn fp16_output_is_close_but_not_exact() {
        let k = kernels::box_2d9p();
        let g = Grid2D::from_fn(32, 32, |r, c| ((r * 7 + c * 3) % 11) as f64 * 0.5);
        let p = Problem::new(k.clone(), g.clone(), 1);
        let out = TcStencilFp16::new().execute(&p).unwrap();
        let want = reference::run(&p.input, &p.kernel, 1);
        let err = out.output.max_abs_diff(&want);
        // half precision: errors at the 1e-3 scale on O(1) data…
        assert!(err < 2e-2, "too inaccurate: {err}");
        // …and measurably worse than FP64
        assert!(err > 1e-8, "suspiciously exact for FP16: {err}");
    }

    #[test]
    fn fp16_counters_use_the_fp16_pipes() {
        let k = kernels::box_2d49p();
        let g = Grid2D::from_fn(32, 32, |r, c| (r + c) as f64 * 0.1);
        let p = Problem::new(k, g, 1);
        let out = TcStencilFp16::new().execute(&p).unwrap();
        assert_eq!(out.counters.mma_ops, 0, "no FP64 MMAs");
        // 7 kernel rows × 2 fragment blocks per 16×16 tile, 4 tiles
        assert_eq!(out.counters.mma_fp16_ops, 4 * 7 * 2);
    }

    #[test]
    fn fp16_bytes_are_a_quarter_of_fp64() {
        let k = kernels::box_2d9p();
        let g = Grid2D::from_fn(32, 32, |r, c| (r * c) as f64 * 0.01);
        let p = Problem::new(k.clone(), g, 1);
        let fp16 = TcStencilFp16::new().execute(&p).unwrap();
        // compulsory traffic: 32×32 reads + writes at 2 bytes each
        assert_eq!(fp16.counters.global_bytes_written, 32 * 32 * 2);
        assert_eq!(fp16.counters.global_bytes_read, 32 * 32 * 2);
    }

    #[test]
    fn fp16_3d_runs_and_degrades_gracefully() {
        let k = kernels::box_3d27p();
        let g = Grid3D::from_fn(4, 32, 32, |z, y, x| ((z + y + x) % 9) as f64 * 0.3);
        let p = Problem::new(k.clone(), g, 1);
        let out = TcStencilFp16::new().execute(&p).unwrap();
        let want = reference::run(&p.input, &p.kernel, 1);
        let err = out.output.max_abs_diff(&want);
        assert!(err < 2e-2 && err > 1e-9, "err = {err}");
    }

    #[test]
    fn rejects_1d_and_huge_radii() {
        let p1 = Problem::new(kernels::heat_1d(), stencil_core::Grid1D::new(64), 1);
        assert!(TcStencilFp16::new().execute(&p1).is_err());
    }
}
