//! Simulated global memory (HBM): flat FP64 arrays with byte-level traffic
//! accounting and the Ampere `cp.async` global→shared copy path (§IV-B).

use crate::context::SimContext;
use crate::shared::SharedTile;
use crate::trace::TraceEvent;

/// How a global→shared copy is staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMode {
    /// Classic copy: data traverses global → registers → shared. Occupies
    /// intermediate registers; the cost model charges the staged bytes.
    Staged,
    /// Ampere `cp.async`: data bypasses the register file.
    Async,
}

/// A 2-D array resident in simulated global memory.
///
/// 1-D problems use `rows == 1`; 3-D problems store one `GlobalArray` per
/// plane or use row-major `(z*ny + y, x)` flattening at the caller.
#[derive(Debug, Clone)]
pub struct GlobalArray {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl GlobalArray {
    /// Allocate a zeroed `rows × cols` array.
    ///
    /// # Panics
    ///
    /// Panics with a typed message when `rows × cols` overflows `usize`
    /// or either extent exceeds `isize::MAX` (the periodic-halo wrap in
    /// [`GlobalArray::copy_to_shared`] indexes through `isize`, so a
    /// larger extent would silently wrap negative).
    pub fn new(rows: usize, cols: usize) -> Self {
        let n = Self::checked_extent(rows, cols);
        GlobalArray { rows, cols, data: vec![0.0; n] }
    }

    /// Build from an existing row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), Self::checked_extent(rows, cols));
        GlobalArray { rows, cols, data }
    }

    /// Validate extents: the product must fit `usize` and each extent
    /// must fit `isize` (torus indexing range). Returns `rows * cols`.
    fn checked_extent(rows: usize, cols: usize) -> usize {
        assert!(
            isize::try_from(rows).is_ok() && isize::try_from(cols).is_ok(),
            "global array extent {rows}x{cols} exceeds the isize indexing range"
        );
        rows.checked_mul(cols).expect("global array extent rows*cols overflows usize")
    }

    /// Array height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Host-side element read (no traffic charged).
    #[inline]
    pub fn peek(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Host-side element write (no traffic charged).
    #[inline]
    pub fn poke(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy a `h × w` window with top-left `(r0, c0)` into `dst` at
    /// `(dr0, dc0)`, charging global reads, shared stores and (for
    /// [`CopyMode::Staged`]) register staging. Out-of-range source
    /// coordinates wrap periodically (torus halo), matching the grid
    /// boundary convention of `stencil-core`.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_to_shared(
        &self,
        ctx: &mut SimContext,
        mode: CopyMode,
        r0: isize,
        c0: isize,
        h: usize,
        w: usize,
        dst: &mut SharedTile,
        dr0: usize,
        dc0: usize,
    ) {
        // rows wrap individually; columns take a contiguous fast path
        // when the whole window is horizontally in-bounds (the common,
        // interior-tile case — no per-element division)
        let cols_in_range = c0 >= 0 && c0 as usize + w <= self.cols;
        for dr in 0..h {
            let r = (r0 + dr as isize).rem_euclid(self.rows as isize) as usize;
            let base = r * self.cols;
            if cols_in_range {
                let c = c0 as usize;
                dst.write_row(dr0 + dr, dc0, &self.data[base + c..base + c + w]);
            } else {
                // periodic wrap: the window's columns are at most
                // ⌈w / cols⌉ + 1 contiguous source runs — copy runs
                // instead of doing per-element modular arithmetic (macro
                // tile windows wrap on every job, so this is hot)
                let mut dc = 0;
                while dc < w {
                    let c = (c0 + dc as isize).rem_euclid(self.cols as isize) as usize;
                    let run = (self.cols - c).min(w - dc);
                    dst.write_row(dr0 + dr, dc0 + dc, &self.data[base + c..base + c + run]);
                    dc += run;
                }
            }
        }
        ctx.counters.global_bytes_read += (h * w * 8) as u64;
        // One store request per warp-width (32 elements) of copied data.
        let elems = (h * w) as u64;
        ctx.counters.shared_store_requests += elems.div_ceil(32);
        if mode == CopyMode::Staged {
            ctx.counters.staged_copy_bytes += (h * w * 8) as u64;
        }
        ctx.record(TraceEvent::GlobalCopy {
            bytes: (h * w * 8) as u64,
            staged: mode == CopyMode::Staged,
        });
    }

    /// Like [`GlobalArray::copy_to_shared`], but only `fresh_elems` of the
    /// copied elements are charged to HBM; the rest are halo re-reads a
    /// neighboring tile already brought on-chip this iteration, charged to
    /// the L2 pool instead. Callers pass the tile's compulsory share
    /// (its own output footprint), so grid-wide HBM traffic sums to one
    /// compulsory pass — matching how the A100's 40 MB L2 serves halo
    /// overlap between adjacent thread blocks.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn copy_to_shared_reuse(
        &self,
        ctx: &mut SimContext,
        mode: CopyMode,
        r0: isize,
        c0: isize,
        h: usize,
        w: usize,
        dst: &mut SharedTile,
        dr0: usize,
        dc0: usize,
        fresh_elems: usize,
    ) {
        let fresh = fresh_elems.min(h * w);
        self.copy_to_shared(ctx, mode, r0, c0, h, w, dst, dr0, dc0);
        let halo_bytes = ((h * w - fresh) * 8) as u64;
        ctx.counters.global_bytes_read -= halo_bytes;
        ctx.counters.l2_bytes += halo_bytes;
    }

    /// Write a `h × w` window from shared memory back to global memory at
    /// `(r0, c0)`, charging global writes and shared loads.
    #[allow(clippy::too_many_arguments)]
    pub fn store_from_shared(
        &mut self,
        ctx: &mut SimContext,
        src: &SharedTile,
        sr0: usize,
        sc0: usize,
        h: usize,
        w: usize,
        r0: usize,
        c0: usize,
    ) {
        for dr in 0..h {
            for dc in 0..w {
                self.poke(r0 + dr, c0 + dc, src.peek(sr0 + dr, sc0 + dc));
            }
        }
        let elems = (h * w) as u64;
        ctx.counters.global_bytes_written += elems * 8;
        ctx.counters.shared_load_requests += elems.div_ceil(32);
    }

    /// Direct warp read of `len ≤ 32` contiguous elements (one coalesced
    /// transaction), used by CUDA-core baselines that skip shared memory.
    pub fn load_span(&self, ctx: &mut SimContext, r: usize, c0: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.load_span_into(ctx, r, c0, &mut out);
        out
    }

    /// Allocation-free [`GlobalArray::load_span`]: fills `dst` (whose
    /// length is the span length) instead of returning a fresh `Vec`.
    pub fn load_span_into(&self, ctx: &mut SimContext, r: usize, c0: usize, dst: &mut [f64]) {
        assert!(dst.len() <= 32);
        ctx.counters.global_bytes_read += (dst.len() * 8) as u64;
        let base = r * self.cols + c0;
        dst.copy_from_slice(&self.data[base..base + dst.len()]);
    }

    /// Direct warp read of `len ≤ 32` contiguous elements that a prior
    /// pass already brought on-chip: charged to the L2 pool, not HBM.
    pub fn load_span_cached(
        &self,
        ctx: &mut SimContext,
        r: usize,
        c0: usize,
        len: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.load_span_cached_into(ctx, r, c0, &mut out);
        out
    }

    /// Allocation-free [`GlobalArray::load_span_cached`].
    pub fn load_span_cached_into(
        &self,
        ctx: &mut SimContext,
        r: usize,
        c0: usize,
        dst: &mut [f64],
    ) {
        assert!(dst.len() <= 32);
        ctx.counters.l2_bytes += (dst.len() * 8) as u64;
        let base = r * self.cols + c0;
        dst.copy_from_slice(&self.data[base..base + dst.len()]);
    }

    /// Direct warp write of `len ≤ 32` contiguous elements.
    pub fn store_span(&mut self, ctx: &mut SimContext, r: usize, c0: usize, vals: &[f64]) {
        assert!(vals.len() <= 32);
        ctx.counters.global_bytes_written += (vals.len() * 8) as u64;
        for (i, &v) in vals.iter().enumerate() {
            self.poke(r, c0 + i, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_to_shared_charges_reads_and_stores() {
        let mut ctx = SimContext::new();
        let mut g = GlobalArray::new(8, 8);
        g.poke(1, 1, 3.0);
        let mut tile = SharedTile::new(8, 8);
        g.copy_to_shared(&mut ctx, CopyMode::Async, 0, 0, 8, 8, &mut tile, 0, 0);
        assert_eq!(tile.peek(1, 1), 3.0);
        assert_eq!(ctx.counters.global_bytes_read, 64 * 8);
        assert_eq!(ctx.counters.shared_store_requests, 2); // 64 elems / 32
        assert_eq!(ctx.counters.staged_copy_bytes, 0);
    }

    #[test]
    fn staged_copy_charges_staging_bytes() {
        let mut ctx = SimContext::new();
        let g = GlobalArray::new(4, 8);
        let mut tile = SharedTile::new(4, 8);
        g.copy_to_shared(&mut ctx, CopyMode::Staged, 0, 0, 4, 8, &mut tile, 0, 0);
        assert_eq!(ctx.counters.staged_copy_bytes, 32 * 8);
    }

    #[test]
    fn halo_outside_array_wraps_periodically() {
        let mut ctx = SimContext::new();
        let mut g = GlobalArray::new(4, 4);
        g.poke(3, 3, 7.0);
        g.poke(0, 0, 1.0);
        let mut tile = SharedTile::new(6, 6);
        g.copy_to_shared(&mut ctx, CopyMode::Async, -1, -1, 6, 6, &mut tile, 0, 0);
        // tile (0,0) ← global (-1,-1) wraps to (3,3)
        assert_eq!(tile.peek(0, 0), 7.0);
        assert_eq!(tile.peek(1, 1), 1.0);
        // tile (5,5) ← global (4,4) wraps to (0,0)
        assert_eq!(tile.peek(5, 5), 1.0);
        assert_eq!(ctx.counters.global_bytes_read, 36 * 8);
    }

    #[test]
    fn halo_reuse_splits_hbm_and_l2() {
        let mut ctx = SimContext::new();
        let g = GlobalArray::new(16, 16);
        let mut tile = SharedTile::new(16, 16);
        g.copy_to_shared_reuse(&mut ctx, CopyMode::Async, -3, -3, 16, 16, &mut tile, 0, 0, 64);
        assert_eq!(ctx.counters.global_bytes_read, 64 * 8);
        assert_eq!(ctx.counters.l2_bytes, (256 - 64) * 8);
    }

    #[test]
    fn cached_span_charges_l2_only() {
        let mut ctx = SimContext::new();
        let g = GlobalArray::new(2, 32);
        let v = g.load_span_cached(&mut ctx, 1, 0, 8);
        assert_eq!(v.len(), 8);
        assert_eq!(ctx.counters.global_bytes_read, 0);
        assert_eq!(ctx.counters.l2_bytes, 64);
    }

    #[test]
    fn writeback_roundtrip() {
        let mut ctx = SimContext::new();
        let mut g = GlobalArray::new(8, 8);
        let mut tile = SharedTile::new(8, 8);
        tile.poke(0, 0, 9.0);
        g.store_from_shared(&mut ctx, &tile, 0, 0, 4, 4, 2, 2);
        assert_eq!(g.peek(2, 2), 9.0);
        assert_eq!(ctx.counters.global_bytes_written, 16 * 8);
    }

    #[test]
    fn span_ops_charge_bytes() {
        let mut ctx = SimContext::new();
        let mut g = GlobalArray::new(1, 64);
        g.store_span(&mut ctx, 0, 0, &[1.0; 32]);
        let v = g.load_span(&mut ctx, 0, 16, 16);
        assert_eq!(v, vec![1.0; 16]);
        assert_eq!(ctx.counters.global_bytes_written, 256);
        assert_eq!(ctx.counters.global_bytes_read, 128);
    }
}
