//! Warp-level fragments for FP64 `mma.m8n8k4` with the exact per-thread
//! register layout of the A100 (PTX ISA §9.7.13, paper Fig. 6).
//!
//! A warp has 32 lanes. For the FP64 shape `m8n8k4`:
//!
//! * fragment **A** is 8×4 — each lane holds exactly one element, element
//!   `(r, k)` lives in lane `4r + k`;
//! * fragment **B** is 4×8 — each lane holds one element, element `(k, c)`
//!   lives in lane `4c + k`;
//! * the **accumulator** C/D is 8×8 — each lane holds two elements in
//!   registers R0/R1, element `(r, c)` lives in lane `4r + c/2`,
//!   register `c mod 2`.
//!
//! Keeping this mapping explicit is what lets the simulator *prove* the
//! Butterfly Vector Swapping property: extracting strided accumulator
//! columns into an A fragment requires zero cross-lane moves, while the
//! natural contiguous split does not (see [`FragAcc::extract_a`]).

/// Number of threads (lanes) in a warp.
pub const WARP_LANES: usize = 32;

/// Rows of fragment A / the accumulator (`m` in `m8n8k4`).
pub const MMA_M: usize = 8;
/// Columns of fragment B / the accumulator (`n` in `m8n8k4`).
pub const MMA_N: usize = 8;
/// Inner dimension (`k` in `m8n8k4`).
pub const MMA_K: usize = 4;

/// Lane that owns element `(r, k)` of fragment A.
#[inline]
pub fn a_lane(r: usize, k: usize) -> usize {
    debug_assert!(r < MMA_M && k < MMA_K);
    4 * r + k
}

/// Lane that owns element `(k, c)` of fragment B.
#[inline]
pub fn b_lane(k: usize, c: usize) -> usize {
    debug_assert!(k < MMA_K && c < MMA_N);
    4 * c + k
}

/// `(lane, register)` that owns element `(r, c)` of the accumulator.
#[inline]
pub fn acc_lane_reg(r: usize, c: usize) -> (usize, usize) {
    debug_assert!(r < MMA_M && c < MMA_N);
    (4 * r + c / 2, c % 2)
}

/// 8×4 left-operand fragment (one FP64 element per lane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragA {
    /// Per-lane register contents, indexed by lane id.
    pub lanes: [f64; WARP_LANES],
}

/// 2:4 structured-sparse left-operand fragment for `mma.sp.m8n8k4.f64`.
///
/// Each 8-element A row covers exactly one K window of four elements, so
/// the 2:4 constraint is per-row: at most two of the four K products may
/// be nonzero. The fragment stores the (up to) two surviving values per
/// row plus their 2-bit K indices — the "metadata" that on hardware lives
/// in a separate sparsity-metadata register and steers the tensor core's
/// operand muxes.
///
/// Rows with fewer than two nonzeros are padded with `+0.0` values
/// (index slot 0); [`crate::SimContext::mma_sp_into`] skips padded slots,
/// which is bit-exact because a `+0.0`-seeded accumulator can never reach
/// `-0.0` under round-to-nearest, so adding a `±0.0` product is always an
/// identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragASp {
    /// Up to two surviving values per row, in increasing-K order.
    pub vals: [[f64; 2]; MMA_M],
    /// 2-bit K index of each surviving value (the sparsity metadata).
    pub idx: [[u8; 2]; MMA_M],
}

impl FragASp {
    /// 2:4-compress a dense A fragment, validating the sparsity pattern.
    ///
    /// Returns `None` — the fragment is **not** 2:4-compressible — when
    /// any row carries three or more nonzero K elements. This is the
    /// pattern validator the schedule's sparse lowering uses to decide
    /// between a sparse MMA and the per-term dense fallback.
    ///
    /// Both zero bit patterns (`+0.0`, `-0.0`) count as prunable: either
    /// way the pruned product is a signed zero, which cannot perturb a
    /// `+0.0`-seeded accumulation.
    pub fn compress(dense: &FragA) -> Option<FragASp> {
        let mut sp = FragASp { vals: [[0.0; 2]; MMA_M], idx: [[0; 2]; MMA_M] };
        for r in 0..MMA_M {
            let mut nnz = 0usize;
            for k in 0..MMA_K {
                let v = dense.get(r, k);
                if v != 0.0 {
                    if nnz == 2 {
                        return None;
                    }
                    sp.vals[r][nnz] = v;
                    sp.idx[r][nnz] = k as u8;
                    nnz += 1;
                }
            }
        }
        Some(sp)
    }

    /// Expand back to the dense 8×4 fragment the metadata describes.
    pub fn decompress(&self) -> FragA {
        let mut dense = FragA::zero();
        for r in 0..MMA_M {
            for s in 0..2 {
                let v = self.vals[r][s];
                if v != 0.0 {
                    dense.set(r, usize::from(self.idx[r][s]), v);
                }
            }
        }
        dense
    }
}

/// 4×8 right-operand fragment (one FP64 element per lane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragB {
    /// Per-lane register contents, indexed by lane id.
    pub lanes: [f64; WARP_LANES],
}

/// 8×8 accumulator fragment (two FP64 registers per lane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragAcc {
    /// Register 0 of each lane.
    pub r0: [f64; WARP_LANES],
    /// Register 1 of each lane.
    pub r1: [f64; WARP_LANES],
}

impl FragA {
    /// All-zero fragment.
    pub fn zero() -> Self {
        FragA { lanes: [0.0; WARP_LANES] }
    }

    /// Build a fragment from a row-major 8×4 matrix.
    pub fn from_matrix(m: &[[f64; MMA_K]; MMA_M]) -> Self {
        let mut f = Self::zero();
        for r in 0..MMA_M {
            for k in 0..MMA_K {
                f.lanes[a_lane(r, k)] = m[r][k];
            }
        }
        f
    }

    /// Element `(r, k)` as the owning lane sees it.
    #[inline]
    pub fn get(&self, r: usize, k: usize) -> f64 {
        self.lanes[a_lane(r, k)]
    }

    /// Set element `(r, k)` in the owning lane.
    #[inline]
    pub fn set(&mut self, r: usize, k: usize, v: f64) {
        self.lanes[a_lane(r, k)] = v;
    }

    /// Reconstruct the row-major matrix (for checking, not a warp op).
    pub fn to_matrix(&self) -> [[f64; MMA_K]; MMA_M] {
        let mut m = [[0.0; MMA_K]; MMA_M];
        for r in 0..MMA_M {
            for k in 0..MMA_K {
                m[r][k] = self.get(r, k);
            }
        }
        m
    }
}

impl FragB {
    /// All-zero fragment.
    pub fn zero() -> Self {
        FragB { lanes: [0.0; WARP_LANES] }
    }

    /// Build a fragment from a row-major 4×8 matrix.
    pub fn from_matrix(m: &[[f64; MMA_N]; MMA_K]) -> Self {
        let mut f = Self::zero();
        for k in 0..MMA_K {
            for c in 0..MMA_N {
                f.lanes[b_lane(k, c)] = m[k][c];
            }
        }
        f
    }

    /// Element `(k, c)` as the owning lane sees it.
    #[inline]
    pub fn get(&self, k: usize, c: usize) -> f64 {
        self.lanes[b_lane(k, c)]
    }

    /// Set element `(k, c)` in the owning lane.
    #[inline]
    pub fn set(&mut self, k: usize, c: usize, v: f64) {
        self.lanes[b_lane(k, c)] = v;
    }

    /// Reconstruct the row-major matrix (for checking, not a warp op).
    pub fn to_matrix(&self) -> [[f64; MMA_N]; MMA_K] {
        let mut m = [[0.0; MMA_N]; MMA_K];
        for k in 0..MMA_K {
            for c in 0..MMA_N {
                m[k][c] = self.get(k, c);
            }
        }
        m
    }
}

impl FragAcc {
    /// All-zero accumulator.
    pub fn zero() -> Self {
        FragAcc { r0: [0.0; WARP_LANES], r1: [0.0; WARP_LANES] }
    }

    /// Build an accumulator from a row-major 8×8 matrix.
    pub fn from_matrix(m: &[[f64; MMA_N]; MMA_M]) -> Self {
        let mut f = Self::zero();
        for r in 0..MMA_M {
            for c in 0..MMA_N {
                f.set(r, c, m[r][c]);
            }
        }
        f
    }

    /// Element `(r, c)` as the owning lane/register sees it.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (lane, reg) = acc_lane_reg(r, c);
        if reg == 0 {
            self.r0[lane]
        } else {
            self.r1[lane]
        }
    }

    /// Set element `(r, c)` in the owning lane/register.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let (lane, reg) = acc_lane_reg(r, c);
        if reg == 0 {
            self.r0[lane] = v;
        } else {
            self.r1[lane] = v;
        }
    }

    /// Reconstruct the row-major matrix (for checking, not a warp op).
    pub fn to_matrix(&self) -> [[f64; MMA_N]; MMA_M] {
        let mut m = [[0.0; MMA_N]; MMA_M];
        for r in 0..MMA_M {
            for c in 0..MMA_N {
                m[r][c] = self.get(r, c);
            }
        }
        m
    }

    /// Extract accumulator columns `cols` (in order) into a left-operand A
    /// fragment, returning the fragment together with the number of
    /// warp-wide shuffle instructions the extraction costs on real
    /// hardware.
    ///
    /// Element `A(r, j) = self(r, cols[j])` must end up in lane `4r + j`.
    /// It currently lives in lane `4r + cols[j]/2`, register `cols[j] % 2`.
    /// A `__shfl_sync` moves one register variable across all lanes at
    /// once, so the cost is one shuffle per *source register* that any
    /// element must cross lanes from:
    ///
    /// * the butterfly column sets `{0,2,4,6}` and `{1,3,5,7}` place every
    ///   element in exactly the lane the A layout wants → **0 shuffles**
    ///   (the Butterfly Vector Swapping guarantee, §III-D);
    /// * the natural splits `{0,1,2,3}` / `{4,5,6,7}` need both registers
    ///   moved across lanes → 2 shuffles each.
    #[inline(always)]
    pub fn extract_a(&self, cols: [usize; MMA_K]) -> (FragA, u64) {
        // The butterfly sets map element (r, cols[j]) from lane 4r+j,
        // register `reg`, to lane 4r+j of the A fragment: the extraction
        // is exactly one per-lane register copy (and zero shuffles).
        if cols == Self::BUTTERFLY_COLS[0] {
            return (FragA { lanes: self.r0 }, 0);
        }
        if cols == Self::BUTTERFLY_COLS[1] {
            return (FragA { lanes: self.r1 }, 0);
        }
        let mut frag = FragA::zero();
        let mut reg_needs_shuffle = [false; 2];
        for r in 0..MMA_M {
            for (j, &c) in cols.iter().enumerate() {
                debug_assert!(c < MMA_N);
                let (src_lane, src_reg) = acc_lane_reg(r, c);
                let dst_lane = a_lane(r, j);
                if src_lane != dst_lane {
                    reg_needs_shuffle[src_reg] = true;
                }
                frag.lanes[dst_lane] = self.get(r, c);
            }
        }
        let shuffles = reg_needs_shuffle.iter().filter(|&&b| b).count() as u64;
        (frag, shuffles)
    }

    /// The two butterfly column sets of §III-D: even columns (register 0)
    /// and odd columns (register 1). Extracting either with
    /// [`FragAcc::extract_a`] costs zero shuffles.
    pub const BUTTERFLY_COLS: [[usize; MMA_K]; 2] = [[0, 2, 4, 6], [1, 3, 5, 7]];

    /// The natural contiguous column split (left half, right half), which
    /// is what a direct mathematical partition of the accumulator would
    /// use. Extracting these costs shuffles.
    pub const NATURAL_COLS: [[usize; MMA_K]; 2] = [[0, 1, 2, 3], [4, 5, 6, 7]];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota_acc() -> FragAcc {
        let mut m = [[0.0; MMA_N]; MMA_M];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * MMA_N + c) as f64;
            }
        }
        FragAcc::from_matrix(&m)
    }

    #[test]
    fn a_layout_roundtrip() {
        let mut m = [[0.0; MMA_K]; MMA_M];
        for (r, row) in m.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                *v = (10 * r + k) as f64;
            }
        }
        let f = FragA::from_matrix(&m);
        assert_eq!(f.to_matrix(), m);
    }

    #[test]
    fn b_layout_roundtrip() {
        let mut m = [[0.0; MMA_N]; MMA_K];
        for (k, row) in m.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (10 * k + c) as f64;
            }
        }
        let f = FragB::from_matrix(&m);
        assert_eq!(f.to_matrix(), m);
    }

    #[test]
    fn acc_layout_matches_paper_fig6() {
        // Paper Fig. 6(a): thread T0 holds C(0,0) in R0 and C(0,1) in R1.
        let acc = iota_acc();
        assert_eq!(acc.r0[0], 0.0);
        assert_eq!(acc.r1[0], 1.0);
        // T1 holds C(0,2), C(0,3); T4 holds C(1,0), C(1,1).
        assert_eq!(acc.r0[1], 2.0);
        assert_eq!(acc.r1[1], 3.0);
        assert_eq!(acc.r0[4], 8.0);
        assert_eq!(acc.r1[4], 9.0);
    }

    #[test]
    fn butterfly_extraction_is_shuffle_free() {
        let acc = iota_acc();
        for cols in FragAcc::BUTTERFLY_COLS {
            let (frag, shuffles) = acc.extract_a(cols);
            assert_eq!(shuffles, 0, "butterfly cols {cols:?} must not shuffle");
            for r in 0..MMA_M {
                for (j, &c) in cols.iter().enumerate() {
                    assert_eq!(frag.get(r, j), acc.get(r, c));
                }
            }
        }
    }

    #[test]
    fn natural_extraction_costs_shuffles() {
        let acc = iota_acc();
        for cols in FragAcc::NATURAL_COLS {
            let (frag, shuffles) = acc.extract_a(cols);
            assert_eq!(shuffles, 2, "natural cols {cols:?} need both regs moved");
            for r in 0..MMA_M {
                for (j, &c) in cols.iter().enumerate() {
                    assert_eq!(frag.get(r, j), acc.get(r, c));
                }
            }
        }
    }

    #[test]
    fn sparse_compress_roundtrips_2_4_patterns() {
        // two nonzeros per row at varying K positions, including rows
        // with one and zero survivors
        let mut m = [[0.0; MMA_K]; MMA_M];
        m[0][0] = 1.5;
        m[0][3] = -2.5;
        m[1][1] = 4.0;
        m[1][2] = 0.25;
        m[2][2] = -0.5;
        // row 3 left all-zero
        m[4][0] = 7.0;
        m[4][1] = 8.0;
        let dense = FragA::from_matrix(&m);
        let sp = FragASp::compress(&dense).expect("2:4 pattern must compress");
        assert_eq!(sp.vals[0], [1.5, -2.5]);
        assert_eq!(sp.idx[0], [0, 3]);
        assert_eq!(sp.vals[2], [-0.5, 0.0]);
        assert_eq!(sp.idx[2], [2, 0]);
        assert_eq!(sp.vals[3], [0.0, 0.0]);
        assert_eq!(sp.decompress(), dense);
    }

    #[test]
    fn sparse_compress_rejects_rows_with_three_nonzeros() {
        let mut m = [[0.0; MMA_K]; MMA_M];
        m[5][0] = 1.0;
        m[5][1] = 2.0;
        m[5][2] = 3.0;
        assert!(FragASp::compress(&FragA::from_matrix(&m)).is_none());
        // a full row is likewise rejected
        let mut full = [[0.0; MMA_K]; MMA_M];
        full[0] = [1.0, 1.0, 1.0, 1.0];
        assert!(FragASp::compress(&FragA::from_matrix(&full)).is_none());
    }

    #[test]
    fn sparse_compress_treats_negative_zero_as_prunable() {
        let mut m = [[0.0; MMA_K]; MMA_M];
        m[0][0] = -0.0;
        m[0][1] = 1.0;
        m[0][2] = -0.0;
        m[0][3] = 2.0;
        let sp = FragASp::compress(&FragA::from_matrix(&m)).expect("signed zeros prune");
        assert_eq!(sp.vals[0], [1.0, 2.0]);
        assert_eq!(sp.idx[0], [1, 3]);
    }

    #[test]
    fn every_lane_owns_exactly_one_a_and_b_element() {
        let mut seen_a = [false; WARP_LANES];
        for r in 0..MMA_M {
            for k in 0..MMA_K {
                let l = a_lane(r, k);
                assert!(!seen_a[l]);
                seen_a[l] = true;
            }
        }
        assert!(seen_a.iter().all(|&s| s));
        let mut seen_b = [false; WARP_LANES];
        for k in 0..MMA_K {
            for c in 0..MMA_N {
                let l = b_lane(k, c);
                assert!(!seen_b[l]);
                seen_b[l] = true;
            }
        }
        assert!(seen_b.iter().all(|&s| s));
    }

    #[test]
    fn every_lane_owns_two_acc_elements() {
        let mut count = [0usize; WARP_LANES];
        for r in 0..MMA_M {
            for c in 0..MMA_N {
                count[acc_lane_reg(r, c).0] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }
}
