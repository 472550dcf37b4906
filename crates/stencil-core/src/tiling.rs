//! Tile decomposition helpers: splitting a grid into the per-thread-block
//! tiles the simulated kernels process, plus the halo/tile-boundary
//! arithmetic every executor shares (window origins, partial-tile
//! clamps, ghost extents). Keeping the boundary arithmetic in one place
//! matters: an off-by-one here is exactly the fault class the
//! verification suite's `FaultInjector` plants.

/// Global origin of the input window a radius-`h` stencil reads for an
/// output region starting at `o`: `o − h`. May be negative — the
/// staging copy wraps it periodically.
pub fn window_origin(o: usize, h: usize) -> isize {
    o as isize - h as isize
}

/// Partial-tile clamp: the valid length of a span of up to `full`
/// elements starting at offset `start` inside an extent of `len`
/// elements. Zero once `start` is at or past the end.
pub fn clamped_span(start: usize, full: usize, len: usize) -> usize {
    full.min(len.saturating_sub(start))
}

/// Ghost (halo) depth for a radius-`h` exchange, rounded up to the tile
/// alignment so a local tiling with ghost cells stays congruent to the
/// global tiling (the distributed executor's bit-identity depends on
/// this).
pub fn ghost_extent(h: usize, align: usize) -> usize {
    assert!(align > 0);
    h.div_ceil(align) * align
}

/// One 2-D tile: output region `[r0, r0+h) × [c0, c0+w)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile2D {
    /// First output row.
    pub r0: usize,
    /// First output column.
    pub c0: usize,
    /// Tile height (may be clipped at the grid edge).
    pub h: usize,
    /// Tile width (may be clipped at the grid edge).
    pub w: usize,
}

/// Iterate the `tile_h × tile_w` tiling of a `rows × cols` grid, clipping
/// edge tiles.
pub fn tiles_2d(rows: usize, cols: usize, tile_h: usize, tile_w: usize) -> Vec<Tile2D> {
    assert!(tile_h > 0 && tile_w > 0);
    let mut out = Vec::with_capacity(rows.div_ceil(tile_h) * cols.div_ceil(tile_w));
    let mut r0 = 0;
    while r0 < rows {
        let h = clamped_span(r0, tile_h, rows);
        let mut c0 = 0;
        while c0 < cols {
            let w = clamped_span(c0, tile_w, cols);
            out.push(Tile2D { r0, c0, h, w });
            c0 += tile_w;
        }
        r0 += tile_h;
    }
    out
}

/// Number of tiles the tiling produces, without materializing it.
pub fn tile_count_2d(rows: usize, cols: usize, tile_h: usize, tile_w: usize) -> usize {
    rows.div_ceil(tile_h) * cols.div_ceil(tile_w)
}

/// One 1-D tile: output span `[i0, i0+len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile1D {
    /// First output index.
    pub i0: usize,
    /// Tile length (clipped at the end of the array).
    pub len: usize,
}

/// Iterate the `tile_len` tiling of an `n`-element array.
pub fn tiles_1d(n: usize, tile_len: usize) -> Vec<Tile1D> {
    assert!(tile_len > 0);
    let mut out = Vec::with_capacity(n.div_ceil(tile_len));
    let mut i0 = 0;
    while i0 < n {
        out.push(Tile1D { i0, len: clamped_span(i0, tile_len, n) });
        i0 += tile_len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_tiling_covers_grid() {
        let ts = tiles_2d(16, 32, 8, 8);
        assert_eq!(ts.len(), 8);
        let area: usize = ts.iter().map(|t| t.h * t.w).sum();
        assert_eq!(area, 16 * 32);
        assert_eq!(tile_count_2d(16, 32, 8, 8), 8);
    }

    #[test]
    fn ragged_tiling_clips_edges() {
        let ts = tiles_2d(10, 10, 8, 8);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[3], Tile2D { r0: 8, c0: 8, h: 2, w: 2 });
        let area: usize = ts.iter().map(|t| t.h * t.w).sum();
        assert_eq!(area, 100);
    }

    #[test]
    fn tiles_do_not_overlap() {
        let ts = tiles_2d(24, 24, 8, 16);
        let mut covered = vec![false; 24 * 24];
        for t in &ts {
            for r in t.r0..t.r0 + t.h {
                for c in t.c0..t.c0 + t.w {
                    assert!(!covered[r * 24 + c]);
                    covered[r * 24 + c] = true;
                }
            }
        }
        assert!(covered.iter().all(|&b| b));
    }

    #[test]
    fn window_origin_steps_back_by_the_radius() {
        for h in 1..=4usize {
            assert_eq!(window_origin(0, h), -(h as isize));
            assert_eq!(window_origin(8, h), 8 - h as isize);
            assert_eq!(window_origin(h, h), 0);
        }
    }

    #[test]
    fn clamped_spans_partition_edge_straddling_extents() {
        // radius 1–4 × extents that straddle an 8-wide tile edge by ±h
        for h in 1..=4usize {
            for n in [64 - h, 64, 64 + h, 8 - h.min(7), 8 + h, 17] {
                let spans: Vec<usize> =
                    (0..n.div_ceil(8)).map(|i| clamped_span(i * 8, 8, n)).collect();
                assert_eq!(spans.iter().sum::<usize>(), n, "h={h} n={n}");
                assert!(spans.iter().all(|&s| (1..=8).contains(&s)), "h={h} n={n}");
                // at or past the end: nothing left
                assert_eq!(clamped_span(n, 8, n), 0);
                assert_eq!(clamped_span(n + h, 8, n), 0);
            }
        }
    }

    #[test]
    fn ghost_extent_is_aligned_and_covers_the_radius() {
        for h in 1..=4usize {
            let g = ghost_extent(h, 8);
            assert!(g >= h);
            assert_eq!(g % 8, 0);
            assert_eq!(g, 8, "radii 1–4 all round to one 8-row tile");
        }
        assert_eq!(ghost_extent(8, 8), 8);
        assert_eq!(ghost_extent(9, 8), 16);
        assert_eq!(ghost_extent(3, 4), 4);
    }

    #[test]
    fn one_d_tiling() {
        let ts = tiles_1d(100, 32);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[3], Tile1D { i0: 96, len: 4 });
        let total: usize = ts.iter().map(|t| t.len).sum();
        assert_eq!(total, 100);
    }
}
