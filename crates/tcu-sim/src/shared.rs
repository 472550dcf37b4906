//! Simulated shared memory: a 2-D FP64 tile with warp-level request
//! accounting, the counter Fig. 10 of the paper reads through Nsight
//! Compute ("shared memory loads, stores and total requests").
//!
//! Request model: every warp-level instruction touching shared memory is
//! one request —
//! * loading an A/B fragment (32 lanes × 1 element) → 1 load request;
//! * storing an accumulator (32 lanes × 2 registers) → 2 store requests;
//! * a warp-wide scalar access of up to 32 elements → 1 request.
//!
//! Bank conflicts are not modeled; both LoRAStencil and ConvStencil use
//! conflict-free layouts, so conflicts would add equal constant factors.

use crate::context::SimContext;
use crate::fragment::{FragA, FragAcc, FragB, MMA_K, MMA_M, MMA_N};
use crate::trace::TraceEvent;

/// A 2-D tile resident in simulated shared memory.
#[derive(Debug, Clone)]
pub struct SharedTile {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl SharedTile {
    /// Allocate a zeroed `rows × cols` tile.
    ///
    /// # Panics
    ///
    /// Panics with a typed message when `rows × cols` overflows `usize`
    /// (instead of silently wrapping into a tiny allocation).
    pub fn new(rows: usize, cols: usize) -> Self {
        let n = rows.checked_mul(cols).expect("shared tile extent rows*cols overflows usize");
        SharedTile { rows, cols, data: vec![0.0; n] }
    }

    /// Reshape for reuse as a zeroed `rows × cols` tile, keeping the
    /// backing allocation when it is already large enough (the
    /// per-worker scratch path: no allocation in steady state).
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let n = rows.checked_mul(cols).expect("shared tile extent rows*cols overflows usize");
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// Tile height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Tile width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Size of the allocation in bytes (for occupancy accounting).
    ///
    /// # Panics
    ///
    /// Panics with a typed message when the allocation exceeds the
    /// 32-bit byte range the occupancy model works in — a tile that
    /// large could never be shared memory, so a silent `as u32`
    /// truncation would only hide a caller bug.
    pub fn bytes(&self) -> u32 {
        let bytes = self.data.len() * std::mem::size_of::<f64>();
        u32::try_from(bytes).expect("shared tile exceeds the u32 byte range of the occupancy model")
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(
            r < self.rows && c < self.cols,
            "({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        r * self.cols + c
    }

    /// Direct element read *without* request accounting — used only to
    /// fill or inspect tiles from the host side of the simulation.
    #[inline]
    pub fn peek(&self, r: usize, c: usize) -> f64 {
        self.data[self.idx(r, c)]
    }

    /// Direct element write without request accounting (host side).
    #[inline]
    pub fn poke(&mut self, r: usize, c: usize, v: f64) {
        let i = self.idx(r, c);
        self.data[i] = v;
    }

    /// Direct row-segment write without request accounting (host side):
    /// the contiguous fast path of [`crate::GlobalArray::copy_to_shared`].
    #[inline]
    pub fn write_row(&mut self, r: usize, c0: usize, vals: &[f64]) {
        let i = self.idx(r, c0);
        self.data[i..i + vals.len()].copy_from_slice(vals);
    }

    /// Warp-load an 8×4 A fragment whose top-left corner is `(r0, c0)`.
    /// Out-of-bounds elements read as zero (the zero-padded borders the
    /// paper's weight matrices rely on).
    #[inline(always)]
    pub fn load_frag_a(&self, ctx: &mut SimContext, r0: isize, c0: isize) -> FragA {
        ctx.counters.shared_load_requests += 1;
        ctx.record(TraceEvent::SharedLoad);
        let mut f = FragA::zero();
        if self.window_in_bounds(r0, c0, MMA_M, MMA_K) {
            // common case: one bounds check for the whole 8×4 window,
            // rows read contiguously into lanes 4r..4r+4
            let (r0, c0) = (r0 as usize, c0 as usize);
            for dr in 0..MMA_M {
                let base = (r0 + dr) * self.cols + c0;
                f.lanes[4 * dr..4 * dr + MMA_K].copy_from_slice(&self.data[base..base + MMA_K]);
            }
        } else {
            for dr in 0..MMA_M {
                for dc in 0..MMA_K {
                    f.set(dr, dc, self.get_or_zero(r0 + dr as isize, c0 + dc as isize));
                }
            }
        }
        f
    }

    /// Warp-load a 4×8 B fragment whose top-left corner is `(r0, c0)`.
    #[inline(always)]
    pub fn load_frag_b(&self, ctx: &mut SimContext, r0: isize, c0: isize) -> FragB {
        ctx.counters.shared_load_requests += 1;
        ctx.record(TraceEvent::SharedLoad);
        let mut f = FragB::zero();
        if self.window_in_bounds(r0, c0, MMA_K, MMA_N) {
            // element (k, c) lives in lane 4c + k: each tile row scatters
            // with stride 4, but needs no per-element bounds check
            let (r0, c0) = (r0 as usize, c0 as usize);
            for dk in 0..MMA_K {
                let base = (r0 + dk) * self.cols + c0;
                for dc in 0..MMA_N {
                    f.lanes[4 * dc + dk] = self.data[base + dc];
                }
            }
        } else {
            for dk in 0..MMA_K {
                for dc in 0..MMA_N {
                    f.set(dk, dc, self.get_or_zero(r0 + dk as isize, c0 + dc as isize));
                }
            }
        }
        f
    }

    /// Whether the `h × w` window at `(r0, c0)` lies fully inside the tile.
    #[inline]
    fn window_in_bounds(&self, r0: isize, c0: isize, h: usize, w: usize) -> bool {
        r0 >= 0 && c0 >= 0 && r0 as usize + h <= self.rows && c0 as usize + w <= self.cols
    }

    /// Warp-store an 8×8 accumulator at `(r0, c0)` (2 store requests: one
    /// per accumulator register).
    pub fn store_acc(&mut self, ctx: &mut SimContext, r0: usize, c0: usize, acc: &FragAcc) {
        ctx.counters.shared_store_requests += 2;
        ctx.record(TraceEvent::SharedStore);
        for r in 0..MMA_M {
            for c in 0..MMA_N {
                self.poke(r0 + r, c0 + c, acc.get(r, c));
            }
        }
    }

    /// Warp-wide scalar load of up to 32 contiguous elements of row `r`
    /// starting at column `c0` (1 load request). Returns the values.
    pub fn load_row_span(&self, ctx: &mut SimContext, r: usize, c0: usize, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.load_row_span_into(ctx, r, c0, &mut out);
        out
    }

    /// Allocation-free [`SharedTile::load_row_span`]: fills `dst` (whose
    /// length is the span length) instead of returning a fresh `Vec`.
    pub fn load_row_span_into(&self, ctx: &mut SimContext, r: usize, c0: usize, dst: &mut [f64]) {
        assert!(dst.len() <= 32, "a warp loads at most 32 elements per request");
        ctx.counters.shared_load_requests += 1;
        if dst.is_empty() {
            return;
        }
        let base = self.idx(r, c0);
        dst.copy_from_slice(&self.data[base..base + dst.len()]);
    }

    /// Warp-wide scalar store of up to 32 contiguous elements (1 request).
    pub fn store_row_span(&mut self, ctx: &mut SimContext, r: usize, c0: usize, vals: &[f64]) {
        assert!(vals.len() <= 32);
        ctx.counters.shared_store_requests += 1;
        for (i, &v) in vals.iter().enumerate() {
            self.poke(r, c0 + i, v);
        }
    }

    #[inline]
    fn get_or_zero(&self, r: isize, c: isize) -> f64 {
        if r < 0 || c < 0 || r as usize >= self.rows || c as usize >= self.cols {
            0.0
        } else {
            self.data[r as usize * self.cols + c as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frag_loads_count_one_request_each() {
        let mut ctx = SimContext::new();
        let mut tile = SharedTile::new(16, 16);
        tile.poke(2, 3, 5.0);
        let a = tile.load_frag_a(&mut ctx, 0, 0);
        let b = tile.load_frag_b(&mut ctx, 0, 0);
        assert_eq!(ctx.counters.shared_load_requests, 2);
        assert_eq!(a.get(2, 3), 5.0);
        assert_eq!(b.get(2, 3), 5.0);
    }

    #[test]
    fn out_of_bounds_reads_zero_pad() {
        let mut ctx = SimContext::new();
        let mut tile = SharedTile::new(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                tile.poke(r, c, 1.0);
            }
        }
        let a = tile.load_frag_a(&mut ctx, -2, -2);
        // rows 0..2 / cols 0..2 of the fragment fall outside the tile.
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 2), 1.0);
    }

    #[test]
    fn acc_store_counts_two_requests() {
        let mut ctx = SimContext::new();
        let mut tile = SharedTile::new(8, 8);
        let acc = FragAcc::from_matrix(&[[2.5; 8]; 8]);
        tile.store_acc(&mut ctx, 0, 0, &acc);
        assert_eq!(ctx.counters.shared_store_requests, 2);
        assert_eq!(tile.peek(7, 7), 2.5);
    }

    #[test]
    fn row_span_roundtrip() {
        let mut ctx = SimContext::new();
        let mut tile = SharedTile::new(2, 32);
        let vals: Vec<f64> = (0..32).map(|i| i as f64).collect();
        tile.store_row_span(&mut ctx, 1, 0, &vals);
        let back = tile.load_row_span(&mut ctx, 1, 0, 32);
        assert_eq!(back, vals);
        assert_eq!(ctx.counters.shared_load_requests, 1);
        assert_eq!(ctx.counters.shared_store_requests, 1);
    }

    #[test]
    #[should_panic]
    fn row_span_longer_than_warp_panics() {
        let mut ctx = SimContext::new();
        let tile = SharedTile::new(2, 64);
        tile.load_row_span(&mut ctx, 0, 0, 33);
    }
}
