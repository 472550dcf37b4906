//! Layer 0, tcu-sim: the primitives the executors spend their time in,
//! timed from outside on fixed fragments (workload-independent, so every
//! traced run times them in its own process), and the exact
//! simulated-device counts of a workload's jobs.

use foundation::bench::{black_box, median_sample_ns, WallClock};
use tcu_sim::{
    CopyMode, FragA, FragASp, FragAcc, FragB, GlobalArray, PerfCounters, SharedTile, SimContext,
};
use tcu_sim::{MMA_K, MMA_M, MMA_N};

use crate::report::Report;

/// Calls per timed rep, and reps per primitive (the median rep counts).
const CALLS: u32 = 20_000;
const REPS: usize = 9;

/// ns per call of `f`, median over reps.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let ns = median_sample_ns(&mut WallClock::new(), REPS, || {
        for _ in 0..CALLS {
            f();
        }
    });
    ns as f64 / f64::from(CALLS)
}

/// The exact simulated-device counts of one pass over a workload's
/// distinct jobs, and their modeled A100 throughput.
pub fn report_counts(report: &mut Report, c: &PerfCounters, modeled_s: f64) {
    report.scalar("tcu_sim.mma_ops", c.mma_ops as f64);
    report.scalar("tcu_sim.mma_sp_ops", c.mma_sp_ops as f64);
    report.scalar("tcu_sim.shuffle_ops", c.shuffle_ops as f64);
    report.scalar("tcu_sim.shared_load_requests", c.shared_load_requests as f64);
    report.scalar("tcu_sim.global_bytes", c.global_bytes() as f64);
    report.scalar("tcu_sim.points_updated", c.points_updated as f64);
    report.scalar("tcu_sim.modeled_gstencil_s", c.points_updated as f64 / modeled_s / 1e9);
}

/// Time the primitives on fixed fragments.
pub fn measure(report: &mut Report) {
    let mut ctx = SimContext::new();
    let mut am = [[0.0; MMA_K]; MMA_M];
    let mut bm = [[0.0; MMA_N]; MMA_K];
    // banded A (two adjacent nonzeros per row): dense-loadable and 2:4
    for (r, row) in am.iter_mut().enumerate() {
        row[r % 3] = 0.5 + r as f64;
        row[r % 3 + 1] = -0.25 * r as f64;
    }
    for (k, row) in bm.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = (k * MMA_N + c) as f64 / 7.0;
        }
    }
    let a = FragA::from_matrix(&am);
    let sp = FragASp::compress(&a).expect("two nonzeros per row is 2:4");
    let b = FragB::from_matrix(&bm);
    let mut acc = FragAcc::zero();

    let mma = ns_per_call(|| ctx.mma_into(black_box(&a), black_box(&b), &mut acc));
    report.scalar("tcu_sim.mma_into_ns", mma);
    let mma_sp = ns_per_call(|| ctx.mma_sp_into(black_box(&sp), black_box(&b), &mut acc));
    report.scalar("tcu_sim.mma_sp_into_ns", mma_sp);
    black_box(&acc);

    // a Box-2D49P staging window: S = 16 (8 outputs + 2·3 halo, rounded)
    let mut tile = SharedTile::new(16, 16);
    for r in 0..16 {
        for c in 0..16 {
            tile.poke(r, c, (r * 16 + c) as f64);
        }
    }
    let mut at = 0isize;
    let load = ns_per_call(|| {
        at = (at + 4) & 7;
        black_box(tile.load_frag_a(&mut ctx, at, at));
    });
    report.scalar("tcu_sim.load_frag_a_ns", load);

    let src = GlobalArray::from_vec(64, 64, (0..64 * 64).map(f64::from).collect());
    let mut origin = 0isize;
    let copy = ns_per_call(|| {
        origin = (origin + 8) & 63;
        src.copy_to_shared(&mut ctx, CopyMode::Async, origin, origin, 16, 16, &mut tile, 0, 0);
    });
    black_box(tile.peek(3, 3));
    report.scalar("tcu_sim.copy_to_shared_ns", copy);
}
