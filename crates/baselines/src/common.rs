//! Shared plumbing for the baseline executors: tiled parallel runners,
//! periodic window sums for functional output, and the modeling constants
//! documented in `DESIGN.md`.
//!
//! Two modeling levels coexist in this crate:
//!
//! * **TCStencil** executes its real fragment data path on the simulator
//!   (its mapping fits the same `m8n8k4` machinery).
//! * **ConvStencil, AMOS, cuDNN, Brick and DRStencil** compute their
//!   numeric output with exact periodic window sums while charging
//!   counters per their published data-path analyses (ConvStencil per
//!   Eq. 13 of the LoRAStencil paper). Their *outputs* are therefore
//!   exactly testable against the reference, and their *counters* follow
//!   the analyses the paper's comparisons are built on.

use foundation::par::*;
use std::cell::RefCell;
use stencil_core::tiling::{tiles_2d, Tile2D};
use stencil_core::{Grid2D, WeightMatrix};
use tcu_sim::{GlobalArray, PerfCounters, SharedTile};

/// Issue-overhead multiplier for scalar CUDA-core stencil loops: address
/// arithmetic, loop control, predication and memory-latency stalls issue
/// alongside each FMA, so hand-written CUDA stencils sustain ~7 % of
/// FP64 peak (consistent with published absolute GStencil/s of
/// CUDA-core stencil frameworks on A100). Charged as extra CUDA "flops"
/// by the CUDA-core baselines; the same factor is used for the
/// CUDA-core RDG ablation path in `lorastencil`.
pub const CUDA_ISSUE_OVERHEAD: f64 = 14.0;

/// Like [`CUDA_ISSUE_OVERHEAD`], for DRStencil's generated code, which the
/// fusion-partition optimizer schedules more tightly.
pub const DRSTENCIL_ISSUE_OVERHEAD: f64 = 7.0;

/// Output tile side shared by all tiled baselines.
pub const TILE: usize = 8;

/// Convert a 2-D grid to a device array.
pub fn grid2_to_global(g: &Grid2D) -> GlobalArray {
    GlobalArray::from_vec(g.rows(), g.cols(), g.as_slice().to_vec())
}

/// Convert a device array back to a 2-D grid.
pub fn global_to_grid2(g: &GlobalArray) -> Grid2D {
    Grid2D::from_vec(g.rows(), g.cols(), g.as_slice().to_vec())
}

/// Periodic read of a device array.
#[inline]
pub fn wrap_get(g: &GlobalArray, r: isize, c: isize) -> f64 {
    let r = r.rem_euclid(g.rows() as isize) as usize;
    let c = c.rem_euclid(g.cols() as isize) as usize;
    g.peek(r, c)
}

/// Exact periodic stencil value at `(r, c)` for a 2-D weight matrix.
pub fn stencil_point_2d(input: &GlobalArray, w: &WeightMatrix, r: usize, c: usize) -> f64 {
    let h = w.radius() as isize;
    let mut acc = 0.0;
    for i in 0..w.n() {
        for j in 0..w.n() {
            let wv = w.get(i, j);
            if wv != 0.0 {
                acc +=
                    wv * wrap_get(input, r as isize + i as isize - h, c as isize + j as isize - h);
            }
        }
    }
    acc
}

/// Exact periodic stencil value for a 1-D weight vector.
pub fn stencil_point_1d(input: &GlobalArray, w: &[f64], i: usize) -> f64 {
    let h = ((w.len() - 1) / 2) as isize;
    w.iter().enumerate().map(|(k, &wv)| wv * wrap_get(input, 0, i as isize + k as isize - h)).sum()
}

/// Exact periodic stencil value at `(z, y, x)` for 3-D plane weights.
pub fn stencil_point_3d(
    planes: &[GlobalArray],
    weights: &[WeightMatrix],
    z: usize,
    y: usize,
    x: usize,
) -> f64 {
    let nz = planes.len() as isize;
    let h = ((weights.len() - 1) / 2) as isize;
    let mut acc = 0.0;
    for (dz, w) in weights.iter().enumerate() {
        let zp = (z as isize + dz as isize - h).rem_euclid(nz) as usize;
        acc += stencil_point_2d_weighted(&planes[zp], w, y, x);
    }
    acc
}

fn stencil_point_2d_weighted(plane: &GlobalArray, w: &WeightMatrix, y: usize, x: usize) -> f64 {
    stencil_point_2d(plane, w, y, x)
}

thread_local! {
    /// Per-worker shared-memory tile, reused across every tile a thread
    /// computes (mirrors `lorastencil`'s per-worker scratch).
    static SHARED_TILE: RefCell<SharedTile> = RefCell::new(SharedTile::new(0, 0));
}

/// Run `f` with this thread's reusable shared tile, reset (zeroed and
/// resized) to `rows × cols`. The worker threads behind `foundation::par`
/// are persistent, so the buffer is warm after the first tile. Calls must
/// not nest.
pub fn with_shared_tile<R>(rows: usize, cols: usize, f: impl FnOnce(&mut SharedTile) -> R) -> R {
    SHARED_TILE.with(|s| {
        let mut tile = s.borrow_mut();
        tile.reset(rows, cols);
        f(&mut tile)
    })
}

/// Merge per-tile counter slots sequentially, in tile order — the totals
/// are independent of which worker computed which tile.
fn merge_slots(slots: &[PerfCounters]) -> PerfCounters {
    let mut total = PerfCounters::new();
    for c in slots {
        total.merge(c);
    }
    total
}

/// Run a per-tile computation in parallel over `tiles`, each tile writing
/// its disjoint output band directly into `out` (charged like a warp
/// `store_span`). Per-tile counters land in `slots` (cleared and reused)
/// and merge in tile order.
pub fn run_tiled_2d_into<F>(
    input: &GlobalArray,
    out: &mut GlobalArray,
    tiles: &[Tile2D],
    slots: &mut Vec<PerfCounters>,
    tile_fn: F,
) -> PerfCounters
where
    F: Fn(Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let _apply = foundation::obs::span("baseline_apply");
    let cols = input.cols();
    slots.clear();
    slots.resize(tiles.len(), PerfCounters::new());
    {
        let sink = UnsafeSlice::new(out.as_mut_slice());
        let slot_sink = UnsafeSlice::new(&mut slots[..]);
        for_each_index(tiles.len(), |i| {
            let t = tiles[i];
            let (vals, mut counters) = tile_fn(t);
            for (p, row) in vals.iter().enumerate().take(t.h) {
                // SAFETY: tile bands are disjoint
                let band = unsafe { sink.slice_mut((t.r0 + p) * cols + t.c0, t.w) };
                band.copy_from_slice(&row[..t.w]);
                counters.global_bytes_written += (t.w * 8) as u64;
            }
            // SAFETY: each slot is written by exactly one tile
            unsafe { slot_sink.write(i, counters) };
        });
    }
    merge_slots(slots)
}

/// Run a per-tile computation in parallel over the 2-D tiling of `input`
/// (allocating convenience form of [`run_tiled_2d_into`]).
pub fn run_tiled_2d<F>(input: &GlobalArray, tile_fn: F) -> (GlobalArray, PerfCounters)
where
    F: Fn(Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let (rows, cols) = (input.rows(), input.cols());
    let tiles = tiles_2d(rows, cols, TILE, TILE);
    let mut out = GlobalArray::new(rows, cols);
    let counters = run_tiled_2d_into(input, &mut out, &tiles, &mut Vec::new(), tile_fn);
    (out, counters)
}

/// Double-buffered 2-D time-stepping loop over `tile_fn`: the tiling,
/// counter slots and both grids are allocated once and reused, so the
/// steady-state loop allocates nothing. `tile_fn` receives the current
/// grid and the tile.
pub fn iterate_2d<F>(input: GlobalArray, steps: usize, tile_fn: F) -> (GlobalArray, PerfCounters)
where
    F: Fn(&GlobalArray, Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let (rows, cols) = (input.rows(), input.cols());
    let tiles = tiles_2d(rows, cols, TILE, TILE);
    let mut slots = Vec::new();
    let mut cur = input;
    let mut next = GlobalArray::new(rows, cols);
    let mut total = PerfCounters::new();
    for _ in 0..steps {
        let c = run_tiled_2d_into(&cur, &mut next, &tiles, &mut slots, |t| tile_fn(&cur, t));
        total.merge(&c);
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, total)
}

/// Run a per-(plane, tile) computation in parallel over `jobs`, writing
/// each tile band directly into its output plane. `sinks` is a reusable
/// table of raw plane base pointers (plane tiles are disjoint per job).
pub fn run_tiled_3d_into<F>(
    planes: &[GlobalArray],
    out: &mut [GlobalArray],
    jobs: &[(usize, Tile2D)],
    slots: &mut Vec<PerfCounters>,
    sinks: &mut Vec<usize>,
    tile_fn: F,
) -> PerfCounters
where
    F: Fn(usize, Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let _apply = foundation::obs::span("baseline_apply");
    let nx = planes[0].cols();
    slots.clear();
    slots.resize(jobs.len(), PerfCounters::new());
    sinks.clear();
    sinks.extend(out.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
    {
        let slot_sink = UnsafeSlice::new(&mut slots[..]);
        let sinks = &sinks[..];
        for_each_index(jobs.len(), |i| {
            let (z, t) = jobs[i];
            let (vals, mut counters) = tile_fn(z, t);
            let base = sinks[z] as *mut f64;
            for (p, row) in vals.iter().enumerate().take(t.h) {
                let off = (t.r0 + p) * nx + t.c0;
                // SAFETY: (plane, band) pairs are disjoint across jobs
                let band = unsafe { std::slice::from_raw_parts_mut(base.add(off), t.w) };
                band.copy_from_slice(&row[..t.w]);
                counters.global_bytes_written += (t.w * 8) as u64;
            }
            // SAFETY: each slot is written by exactly one job
            unsafe { slot_sink.write(i, counters) };
        });
    }
    merge_slots(slots)
}

/// Run a per-(plane, tile) computation in parallel over a 3-D volume
/// (allocating convenience form of [`run_tiled_3d_into`]).
pub fn run_tiled_3d<F>(planes: &[GlobalArray], tile_fn: F) -> (Vec<GlobalArray>, PerfCounters)
where
    F: Fn(usize, Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let nz = planes.len();
    let (ny, nx) = (planes[0].rows(), planes[0].cols());
    let tiles = tiles_2d(ny, nx, TILE, TILE);
    let jobs: Vec<(usize, Tile2D)> =
        (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect();
    let mut out: Vec<GlobalArray> = (0..nz).map(|_| GlobalArray::new(ny, nx)).collect();
    let counters =
        run_tiled_3d_into(planes, &mut out, &jobs, &mut Vec::new(), &mut Vec::new(), tile_fn);
    (out, counters)
}

/// Double-buffered 3-D time-stepping loop (see [`iterate_2d`]).
pub fn iterate_3d<F>(
    planes: Vec<GlobalArray>,
    steps: usize,
    tile_fn: F,
) -> (Vec<GlobalArray>, PerfCounters)
where
    F: Fn(&[GlobalArray], usize, Tile2D) -> ([[f64; TILE]; TILE], PerfCounters) + Sync,
{
    let nz = planes.len();
    let (ny, nx) = (planes[0].rows(), planes[0].cols());
    let tiles = tiles_2d(ny, nx, TILE, TILE);
    let jobs: Vec<(usize, Tile2D)> =
        (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect();
    let mut slots = Vec::new();
    let mut sinks = Vec::new();
    let mut cur = planes;
    let mut next: Vec<GlobalArray> = (0..nz).map(|_| GlobalArray::new(ny, nx)).collect();
    let mut total = PerfCounters::new();
    for _ in 0..steps {
        let c = run_tiled_3d_into(&cur, &mut next, &jobs, &mut slots, &mut sinks, |z, t| {
            tile_fn(&cur, z, t)
        });
        total.merge(&c);
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, total)
}

/// Run a per-tile computation over a 1-D array in `chunk`-sized output
/// spans, each span written directly into `out`.
pub fn run_tiled_1d_into<F>(
    out: &mut GlobalArray,
    tiles: &[stencil_core::tiling::Tile1D],
    slots: &mut Vec<PerfCounters>,
    tile_fn: F,
) -> PerfCounters
where
    F: Fn(usize, usize) -> (Vec<f64>, PerfCounters) + Sync,
{
    let _apply = foundation::obs::span("baseline_apply");
    slots.clear();
    slots.resize(tiles.len(), PerfCounters::new());
    {
        let sink = UnsafeSlice::new(out.as_mut_slice());
        let slot_sink = UnsafeSlice::new(&mut slots[..]);
        for_each_index(tiles.len(), |i| {
            let t = tiles[i];
            let (vals, mut counters) = tile_fn(t.i0, t.len);
            // SAFETY: 1-D spans are disjoint
            let band = unsafe { sink.slice_mut(t.i0, t.len) };
            band.copy_from_slice(&vals[..t.len]);
            counters.global_bytes_written += (t.len * 8) as u64;
            // SAFETY: each slot is written by exactly one tile
            unsafe { slot_sink.write(i, counters) };
        });
    }
    merge_slots(slots)
}

/// Run a per-tile computation over a 1-D array in `chunk`-sized output
/// spans (allocating convenience form of [`run_tiled_1d_into`]).
pub fn run_tiled_1d<F>(input: &GlobalArray, chunk: usize, tile_fn: F) -> (GlobalArray, PerfCounters)
where
    F: Fn(usize, usize) -> (Vec<f64>, PerfCounters) + Sync,
{
    let n = input.cols();
    let tiles = stencil_core::tiling::tiles_1d(n, chunk);
    let mut out = GlobalArray::new(1, n);
    let counters = run_tiled_1d_into(&mut out, &tiles, &mut Vec::new(), tile_fn);
    (out, counters)
}

/// Double-buffered 1-D time-stepping loop (see [`iterate_2d`]).
pub fn iterate_1d<F>(
    input: GlobalArray,
    chunk: usize,
    steps: usize,
    tile_fn: F,
) -> (GlobalArray, PerfCounters)
where
    F: Fn(&GlobalArray, usize, usize) -> (Vec<f64>, PerfCounters) + Sync,
{
    let n = input.cols();
    let tiles = stencil_core::tiling::tiles_1d(n, chunk);
    let mut slots = Vec::new();
    let mut cur = input;
    let mut next = GlobalArray::new(1, n);
    let mut total = PerfCounters::new();
    for _ in 0..steps {
        let c = run_tiled_1d_into(&mut next, &tiles, &mut slots, |i0, len| tile_fn(&cur, i0, len));
        total.merge(&c);
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;
    use tcu_sim::SimContext;

    #[test]
    fn stencil_point_matches_reference() {
        let k = kernels::box_2d9p();
        let g = Grid2D::from_fn(8, 8, |r, c| (r * 8 + c) as f64);
        let ga = grid2_to_global(&g);
        let want = stencil_core::reference::apply_2d(&g, k.weights_2d());
        for r in 0..8 {
            for c in 0..8 {
                let got = stencil_point_2d(&ga, k.weights_2d(), r, c);
                assert!((got - want.at(r, c)).abs() < 1e-12, "({r},{c})");
            }
        }
    }

    #[test]
    fn run_tiled_2d_writes_all_points() {
        let g = GlobalArray::new(20, 12);
        let (out, counters) = run_tiled_2d(&g, |t| {
            let mut ctx = SimContext::new();
            ctx.points((t.h * t.w) as u64);
            ([[1.0; TILE]; TILE], ctx.counters)
        });
        assert!(out.as_slice().iter().all(|&v| v == 1.0));
        assert_eq!(counters.points_updated, 240);
        assert_eq!(counters.global_bytes_written, 240 * 8);
    }

    #[test]
    fn run_tiled_1d_roundtrip() {
        let g = GlobalArray::from_vec(1, 100, (0..100).map(|i| i as f64).collect());
        let (out, _) = run_tiled_1d(&g, 64, |i0, len| {
            let vals = (0..len).map(|k| g.peek(0, i0 + k) * 2.0).collect();
            (vals, PerfCounters::new())
        });
        for i in 0..100 {
            assert_eq!(out.peek(0, i), 2.0 * i as f64);
        }
    }

    #[test]
    fn wrap_get_is_periodic() {
        let g = GlobalArray::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(wrap_get(&g, 0, -1), 4.0);
        assert_eq!(wrap_get(&g, 0, 4), 1.0);
        assert_eq!(wrap_get(&g, -1, 0), 1.0);
    }
}
