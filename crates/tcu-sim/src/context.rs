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
    /// Shared-memory bytes this block has allocated (for occupancy).
    pub shared_bytes_per_block: u32,
    /// Threads per block (for occupancy).
    pub threads_per_block: u32,
    /// Registers per thread (for occupancy).
    pub regs_per_thread: u32,
    /// Optional instruction trace (see [`crate::trace`]).
    pub(crate) trace: Option<Trace>,
}

impl SimContext {
    /// A fresh context with zeroed counters and default block shape
    /// (256 threads, 64 registers — typical for the paper's kernels).
    pub fn new() -> Self {
        SimContext {
            counters: PerfCounters::new(),
            shared_bytes_per_block: 0,
            threads_per_block: 256,
            regs_per_thread: 64,
            trace: None,
        }
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
    /// a2·b2 + a3·b3`), so results are bit-identical to [`SimContext::mma`].
    #[inline(always)]
    pub fn mma_into(&mut self, a: &FragA, b: &FragB, c: &mut FragAcc) {
        self.counters.mma_ops += 1;
        self.record(TraceEvent::Mma);
        mma_lanes(&a.lanes, &b.lanes, c);
    }

    /// Issue a back-to-back chain of `mma.m8n8k4.f64` instructions that
    /// share one accumulator: `C += Σ_i A_i × B_i`. The chain keeps the
    /// accumulator lanes register-resident across all `a.len()`
    /// instructions instead of writing them back per call — the batched
    /// form the tuned schedules select via `mma_batch`.
    ///
    /// Counter and trace accounting is identical to issuing
    /// [`SimContext::mma_into`] once per pair, and the per-element FMA
    /// order is preserved exactly (element `i`'s full k-loop completes
    /// before element `i + 1` touches the lane), so results are
    /// bit-identical to the sequential form.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    #[inline(always)]
    pub fn mma_chain_into(&mut self, a: &[&FragA], b: &[&FragB], c: &mut FragAcc) {
        assert_eq!(a.len(), b.len(), "mma_chain_into needs matched A/B fragment chains");
        self.counters.mma_ops += a.len() as u64;
        for _ in 0..a.len() {
            self.record(TraceEvent::Mma);
        }
        // Monomorphize the chain length: each arm fully unrolls its
        // element loop, so the accumulator lanes stay register-resident
        // across the whole chain — the host-side speedup `mma_batch`
        // models. Chains are capped at 16 (`MAX_MMA_BATCH` upstream);
        // anything longer falls back to the dynamic loop.
        match a.len() {
            1 => chain_lanes::<1>(a, b, c),
            2 => chain_lanes::<2>(a, b, c),
            3 => chain_lanes::<3>(a, b, c),
            4 => chain_lanes::<4>(a, b, c),
            5 => chain_lanes::<5>(a, b, c),
            6 => chain_lanes::<6>(a, b, c),
            7 => chain_lanes::<7>(a, b, c),
            8 => chain_lanes::<8>(a, b, c),
            9 => chain_lanes::<9>(a, b, c),
            10 => chain_lanes::<10>(a, b, c),
            _ => {
                for r in 0..MMA_M {
                    for half in 0..MMA_N / 2 {
                        let lane = 4 * r + half;
                        let mut e = c.r0[lane];
                        let mut o = c.r1[lane];
                        for (ai, bi) in a.iter().zip(b.iter()) {
                            let (al, bl) = (&ai.lanes, &bi.lanes);
                            for k in 0..MMA_K {
                                e += al[4 * r + k] * bl[8 * half + k];
                                o += al[4 * r + k] * bl[8 * half + MMA_K + k];
                            }
                        }
                        c.r0[lane] = e;
                        c.r1[lane] = o;
                    }
                }
            }
        }
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
                let mut e = c.r0[lane];
                let mut o = c.r1[lane];
                for s in 0..2 {
                    let v = a.vals[r][s];
                    if v != 0.0 {
                        let k = usize::from(a.idx[r][s]);
                        e += v * bl[8 * half + k];
                        o += v * bl[8 * half + MMA_K + k];
                    }
                }
                c.r0[lane] = e;
                c.r1[lane] = o;
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

    /// Declare the block shape used by this context's kernel so the cost
    /// model can compute occupancy.
    pub fn set_block_shape(&mut self, shared_bytes: u32, threads: u32, regs_per_thread: u32) {
        self.shared_bytes_per_block = shared_bytes;
        self.threads_per_block = threads;
        self.regs_per_thread = regs_per_thread;
    }
}

/// The m8n8k4 FMA body shared by [`SimContext::mma_into`] and the chain
/// form. Lane layout (see `fragment`): A row `r` is lanes `4r..4r+4`; B
/// column `n` is lanes `4n..4n+4`; acc `(r, n)` is lane `4r + n/2`,
/// register `n%2` — register 0 holds the even columns, register 1 the
/// odd ones. Every index is a compile-time-bounded expression into the
/// 32-lane arrays, so the unrolled loop carries no bounds checks.
#[inline(always)]
fn mma_lanes(al: &[f64; crate::WARP_LANES], bl: &[f64; crate::WARP_LANES], c: &mut FragAcc) {
    for r in 0..MMA_M {
        for half in 0..MMA_N / 2 {
            let lane = 4 * r + half;
            let mut e = c.r0[lane];
            let mut o = c.r1[lane];
            for k in 0..MMA_K {
                e += al[4 * r + k] * bl[8 * half + k];
                o += al[4 * r + k] * bl[8 * half + MMA_K + k];
            }
            c.r0[lane] = e;
            c.r1[lane] = o;
        }
    }
}

/// Length-monomorphized chain body: `N` is a compile-time constant, so
/// the element loop unrolls and the `e`/`o` lane accumulators live in
/// registers across all `N` FMA groups. FP order per lane is identical
/// to issuing [`mma_lanes`] `N` times (each element's k-loop completes
/// before the next element touches the lane).
#[inline(always)]
fn chain_lanes<const N: usize>(a: &[&FragA], b: &[&FragB], c: &mut FragAcc) {
    let a: &[&FragA; N] = a.try_into().expect("dispatched on len");
    let b: &[&FragB; N] = b.try_into().expect("dispatched on len");
    for r in 0..MMA_M {
        for half in 0..MMA_N / 2 {
            let lane = 4 * r + half;
            let mut e = c.r0[lane];
            let mut o = c.r1[lane];
            for i in 0..N {
                let (al, bl) = (&a[i].lanes, &b[i].lanes);
                for k in 0..MMA_K {
                    e += al[4 * r + k] * bl[8 * half + k];
                    o += al[4 * r + k] * bl[8 * half + MMA_K + k];
                }
            }
            c.r0[lane] = e;
            c.r1[lane] = o;
        }
    }
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
    fn mma_chain_is_bit_identical_to_sequential_mma_into() {
        let mut seed = 0x5DEECE66Du64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for chain_len in [1usize, 2, 3, 4, 7] {
            let a_frags: Vec<FragA> = (0..chain_len).map(|_| mat_a(|_, _| next())).collect();
            let b_frags: Vec<FragB> = (0..chain_len).map(|_| mat_b(|_, _| next())).collect();

            let mut ctx_seq = SimContext::new();
            let mut acc_seq = FragAcc::from_matrix(&[[0.125; MMA_N]; MMA_M]);
            for (a, b) in a_frags.iter().zip(b_frags.iter()) {
                ctx_seq.mma_into(a, b, &mut acc_seq);
            }

            let mut ctx_chain = SimContext::new();
            let mut acc_chain = FragAcc::from_matrix(&[[0.125; MMA_N]; MMA_M]);
            let a_refs: Vec<&FragA> = a_frags.iter().collect();
            let b_refs: Vec<&FragB> = b_frags.iter().collect();
            ctx_chain.mma_chain_into(&a_refs, &b_refs, &mut acc_chain);

            for r in 0..MMA_M {
                for c in 0..MMA_N {
                    assert_eq!(
                        acc_seq.get(r, c).to_bits(),
                        acc_chain.get(r, c).to_bits(),
                        "chain_len={chain_len} ({r},{c})"
                    );
                }
            }
            assert_eq!(ctx_chain.counters.mma_ops, chain_len as u64);
            assert_eq!(ctx_chain.counters.mma_ops, ctx_seq.counters.mma_ops);
        }
    }

    #[test]
    fn mma_chain_traces_one_event_per_element() {
        let mut ctx = SimContext::new();
        ctx.enable_trace();
        let a = mat_a(|r, k| (r + k) as f64);
        let b = mat_b(|k, c| (k * c) as f64);
        ctx.mma_chain_into(&[&a, &a, &a], &[&b, &b, &b], &mut FragAcc::zero());
        let t = ctx.take_trace().unwrap();
        assert_eq!(t.count(|e| matches!(e, TraceEvent::Mma)), 3);
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
