//! The simulation context: a warp-granular execution handle that performs
//! tensor-core and data-movement operations while charging them to a
//! [`PerfCounters`] set.
//!
//! A context is cheap and tile-local: parallel executors create one per
//! tile/thread-block and [`PerfCounters::merge`] the results afterwards,
//! mirroring how per-block hardware counters aggregate.

use crate::counters::PerfCounters;
use crate::fragment::{FragA, FragASp, FragAcc, FragB, MMA_K, MMA_M, MMA_N};
use crate::trace::{Trace, TraceEvent};

/// Execution context for one simulated warp (or thread block).
#[derive(Debug, Default, Clone)]
pub struct SimContext {
    /// Counters charged by every operation issued through this context.
    pub counters: PerfCounters,
    /// Optional instruction trace (see [`crate::trace`]).
    pub(crate) trace: Option<Trace>,
}

impl SimContext {
    /// A fresh context with zeroed counters.
    pub fn new() -> Self {
        SimContext { counters: PerfCounters::new(), trace: None }
    }

    /// Issue one `mma.m8n8k4.f64`: `D = A × B + C`.
    ///
    /// This is the only way the simulator multiplies fragments, so
    /// `counters.mma_ops` is an exact instruction count.
    pub fn mma(&mut self, a: &FragA, b: &FragB, c: &FragAcc) -> FragAcc {
        let mut d = *c;
        self.mma_into(a, b, &mut d);
        d
    }

    /// In-place `mma.m8n8k4.f64`: `C = A × B + C`. The hot-loop form of
    /// [`SimContext::mma`] — the chained RDG accumulators stay in place
    /// instead of being zeroed and copied per instruction. The per-element
    /// FMA order matches real accumulator semantics (`c + a0·b0 + a1·b1 +
    /// a2·b2 + a3·b3`, each add by [`acc_add`]), so results are
    /// bit-identical to [`SimContext::mma`].
    #[inline(always)]
    pub fn mma_into(&mut self, a: &FragA, b: &FragB, c: &mut FragAcc) {
        self.counters.mma_ops += 1;
        self.record(TraceEvent::Mma);
        mma_lanes(&a.lanes, &b.lanes, c);
    }

    /// In-place structured-sparse `mma.sp.m8n8k4.f64`: `C = A × B + C`
    /// with a 2:4-compressed A operand.
    ///
    /// Per accumulator element the surviving products are added in
    /// increasing-K order — the same order the dense k-loop visits them —
    /// and the pruned products are signed zeros, so for `+0.0`-seeded
    /// accumulations the result is **bit-identical** to
    /// [`SimContext::mma_into`] on the decompressed fragment: under
    /// round-to-nearest a sum seeded at `+0.0` can never become `-0.0`,
    /// and `x + (±0.0) == x` for every such `x`.
    ///
    /// Charges one `mma_sp_ops`; metadata-register traffic is charged
    /// separately via [`SimContext::metadata_loads`] so schedules can
    /// amortize one metadata load across many column blocks.
    #[inline(always)]
    pub fn mma_sp_into(&mut self, a: &FragASp, b: &FragB, c: &mut FragAcc) {
        self.counters.mma_sp_ops += 1;
        self.record(TraceEvent::MmaSp);
        let bl = &b.lanes;
        for r in 0..MMA_M {
            for half in 0..MMA_N / 2 {
                let lane = 4 * r + half;
                (c.r0[lane], c.r1[lane]) = accumulate(c.r0[lane], c.r1[lane], 2, |s| {
                    let v = a.vals[r][s];
                    let k = usize::from(a.idx[r][s]);
                    (v != 0.0).then(|| (v * bl[8 * half + k], v * bl[8 * half + MMA_K + k]))
                });
            }
        }
    }

    /// Charge `n` sparsity-metadata register loads (one per compressed A
    /// fragment whose 2-bit indices are brought into the metadata
    /// registers; reusable across the column blocks that share the
    /// fragment).
    #[inline]
    pub fn metadata_loads(&mut self, n: u64) {
        self.counters.metadata_loads += n;
        self.record(TraceEvent::MetaLoad(n));
    }

    /// Extract accumulator columns into an A fragment, charging the
    /// shuffle instructions the chosen column set costs on real hardware
    /// (0 for the butterfly sets, 2 for the natural contiguous split —
    /// see [`FragAcc::extract_a`]).
    #[inline(always)]
    pub fn acc_to_a(&mut self, acc: &FragAcc, cols: [usize; MMA_K]) -> FragA {
        let (frag, shuffles) = acc.extract_a(cols);
        self.counters.shuffle_ops += shuffles;
        self.record(TraceEvent::AccExtract { cols, shuffles });
        frag
    }

    /// Charge `n` scalar FP64 operations executed on CUDA cores.
    #[inline]
    pub fn cuda_flops(&mut self, n: u64) {
        self.counters.cuda_flops += n;
        self.record(TraceEvent::CudaFlops(n));
    }

    /// Charge `n` explicit warp shuffle instructions (used by baselines
    /// that move data between lanes outside fragment extraction).
    pub fn shuffles(&mut self, n: u64) {
        self.counters.shuffle_ops += n;
        self.record(TraceEvent::Shuffles(n));
    }

    /// Record one stencil-point update completion.
    #[inline]
    pub fn points(&mut self, n: u64) {
        self.counters.points_updated += n;
    }
}

/// `acc + x`, where a NaN `x` is the result.
///
/// When both operands of a float add are NaN, which one's sign and
/// payload the sum carries is up to the compiled code: it differs between
/// builds and call sites. Every accumulation the simulator and the job
/// loop's strips share goes through this rule, so a NaN-bearing result
/// has the same bits on every evaluator and build. With one NaN operand
/// the add returns that NaN, as here.
#[inline(always)]
pub fn acc_add(acc: f64, x: f64) -> f64 {
    if x.is_nan() {
        x
    } else {
        acc + x
    }
}

/// The m8n8k4 FMA body of [`SimContext::mma_into`]. Lane layout (see `fragment`): A row `r` is lanes `4r..4r+4`; B
/// column `n` is lanes `4n..4n+4`; acc `(r, n)` is lane `4r + n/2`,
/// register `n%2` — register 0 holds the even columns, register 1 the
/// odd ones. Every index is a compile-time-bounded expression into the
/// 32-lane arrays, so the unrolled loop carries no bounds checks.
#[inline(always)]
fn mma_lanes(al: &[f64; crate::WARP_LANES], bl: &[f64; crate::WARP_LANES], c: &mut FragAcc) {
    for r in 0..MMA_M {
        for half in 0..MMA_N / 2 {
            let lane = 4 * r + half;
            (c.r0[lane], c.r1[lane]) = accumulate(c.r0[lane], c.r1[lane], MMA_K, |k| {
                Some((al[4 * r + k] * bl[8 * half + k], al[4 * r + k] * bl[8 * half + MMA_K + k]))
            });
        }
    }
}

/// An accumulator register pair `(e, o)` plus the product pairs `p(k)`
/// for `k` in `0..n`, increasing, by [`acc_add`]; `None` adds nothing.
/// A sum that stays a number met no NaN, so the plain adds run first and
/// the sum is redone by the rule only when it ends NaN.
#[inline(always)]
fn accumulate(e0: f64, o0: f64, n: usize, p: impl Fn(usize) -> Option<(f64, f64)>) -> (f64, f64) {
    let (mut e, mut o) = (e0, o0);
    for (pe, po) in (0..n).filter_map(&p) {
        (e, o) = (e + pe, o + po);
    }
    if e.is_nan() || o.is_nan() {
        (e, o) = (e0, o0);
        for (pe, po) in (0..n).filter_map(&p) {
            (e, o) = (acc_add(e, pe), acc_add(o, po));
        }
    }
    (e, o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_a(mut f: impl FnMut(usize, usize) -> f64) -> FragA {
        let mut m = [[0.0; MMA_K]; MMA_M];
        for (r, row) in m.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                *v = f(r, k);
            }
        }
        FragA::from_matrix(&m)
    }

    fn mat_b(mut f: impl FnMut(usize, usize) -> f64) -> FragB {
        let mut m = [[0.0; MMA_N]; MMA_K];
        for (k, row) in m.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = f(k, c);
            }
        }
        FragB::from_matrix(&m)
    }

    #[test]
    fn mma_identity_times_b_is_b_rows() {
        let mut ctx = SimContext::new();
        // A = [I4; 0] so the first 4 rows of D equal B.
        let a = mat_a(|r, k| if r == k { 1.0 } else { 0.0 });
        let b = mat_b(|k, c| (k * 10 + c) as f64);
        let d = ctx.mma(&a, &b, &FragAcc::zero());
        for k in 0..MMA_K {
            for c in 0..MMA_N {
                assert_eq!(d.get(k, c), b.get(k, c));
            }
        }
        for r in MMA_K..MMA_M {
            for c in 0..MMA_N {
                assert_eq!(d.get(r, c), 0.0);
            }
        }
        assert_eq!(ctx.counters.mma_ops, 1);
    }

    /// Where a NaN product meets a NaN accumulator, both MMAs keep the
    /// product's NaN ([`acc_add`]), whatever the compiled add would pick.
    #[test]
    fn mma_keeps_the_product_nan_over_the_accumulator_nan() {
        let acc_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        // computed at run time, as the MMA computes it (a folded constant
        // may carry another NaN)
        let product_nan = std::hint::black_box(f64::INFINITY) * 0.0;
        assert_ne!(acc_nan.to_bits(), product_nan.to_bits());
        let a = mat_a(|r, k| if (r, k) == (0, 0) { f64::INFINITY } else { 0.0 });
        let b = mat_b(|_, _| 0.0);
        let mut cmat = [[0.0; MMA_N]; MMA_M];
        cmat[0][0] = acc_nan;
        cmat[0][1] = acc_nan;
        let mut ctx = SimContext::new();
        let mut dense = FragAcc::from_matrix(&cmat);
        ctx.mma_into(&a, &b, &mut dense);
        // a 2:4 A keeps only the nonzero, whose product is the NaN
        let a_sp = mat_a(|r, k| if (r, k) == (0, 0) { f64::INFINITY } else { 0.0 });
        let mut sparse = FragAcc::from_matrix(&cmat);
        ctx.mma_sp_into(&FragASp::compress(&a_sp).expect("one nonzero is 2:4"), &b, &mut sparse);
        for acc in [dense, sparse] {
            assert_eq!(acc.get(0, 0).to_bits(), product_nan.to_bits());
            assert_eq!(acc.get(0, 1).to_bits(), product_nan.to_bits());
            assert_eq!(acc.get(1, 0).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn mma_accumulates_into_c() {
        let mut ctx = SimContext::new();
        let a = mat_a(|_, _| 1.0);
        let b = mat_b(|_, _| 1.0);
        let mut cmat = [[0.0; MMA_N]; MMA_M];
        cmat[3][5] = 7.0;
        let c = FragAcc::from_matrix(&cmat);
        let d = ctx.mma(&a, &b, &c);
        assert_eq!(d.get(3, 5), 4.0 + 7.0);
        assert_eq!(d.get(0, 0), 4.0);
    }

    #[test]
    fn mma_matches_dense_reference() {
        let mut ctx = SimContext::new();
        let a = mat_a(|r, k| (r as f64 + 1.0) * 0.5 + k as f64);
        let b = mat_b(|k, c| (k as f64 - 1.5) * (c as f64 + 0.25));
        let d = ctx.mma(&a, &b, &FragAcc::zero());
        for r in 0..MMA_M {
            for c in 0..MMA_N {
                let mut want = 0.0;
                for k in 0..MMA_K {
                    want += a.get(r, k) * b.get(k, c);
                }
                assert!((d.get(r, c) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparse_mma_is_bit_identical_to_dense_on_2_4_fragments() {
        use crate::fragment::FragASp;
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        // banded-style A: rows keep two adjacent K entries (a 2:4 pattern)
        let mut m = [[0.0; MMA_K]; MMA_M];
        for (r, row) in m.iter_mut().enumerate() {
            let k0 = r % 3;
            row[k0] = next();
            row[k0 + 1] = next();
        }
        let dense = FragA::from_matrix(&m);
        let sp = FragASp::compress(&dense).expect("two adjacent nonzeros per row is 2:4");
        let b = mat_b(|_, _| next());
        let seedm = [[0.25; MMA_N]; MMA_M];

        let mut ctx_d = SimContext::new();
        let mut acc_d = FragAcc::from_matrix(&seedm);
        ctx_d.mma_into(&dense, &b, &mut acc_d);

        let mut ctx_s = SimContext::new();
        let mut acc_s = FragAcc::from_matrix(&seedm);
        ctx_s.mma_sp_into(&sp, &b, &mut acc_s);

        for r in 0..MMA_M {
            for c in 0..MMA_N {
                assert_eq!(acc_d.get(r, c).to_bits(), acc_s.get(r, c).to_bits(), "({r},{c})");
            }
        }
        assert_eq!(ctx_s.counters.mma_sp_ops, 1);
        assert_eq!(ctx_s.counters.mma_ops, 0);
        ctx_s.metadata_loads(3);
        assert_eq!(ctx_s.counters.metadata_loads, 3);
    }

    #[test]
    fn acc_to_a_charges_shuffles_only_for_nonbutterfly() {
        let mut ctx = SimContext::new();
        let acc = FragAcc::from_matrix(&[[1.0; MMA_N]; MMA_M]);
        ctx.acc_to_a(&acc, FragAcc::BUTTERFLY_COLS[0]);
        ctx.acc_to_a(&acc, FragAcc::BUTTERFLY_COLS[1]);
        assert_eq!(ctx.counters.shuffle_ops, 0);
        ctx.acc_to_a(&acc, FragAcc::NATURAL_COLS[0]);
        assert_eq!(ctx.counters.shuffle_ops, 2);
    }
}
