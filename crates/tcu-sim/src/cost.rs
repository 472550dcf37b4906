//! Roofline-style cost model mapping simulated counters to estimated
//! execution time and GStencil/s on the modeled A100.
//!
//! The model has five throughput pools — tensor cores, CUDA cores, shared
//! memory, HBM, and the warp-shuffle/issue pipeline — plus an occupancy
//! term. Execution time is the slowest pool (they overlap on hardware)
//! plus the *exposed* shuffle time: the paper's Fig. 9 shows shuffles are
//! dependency stalls in the middle of the MMA chain, which do not overlap
//! (removing them with BVS yielded 4.00×), so shuffle time is additive.
//!
//! Absolute times are a model; the comparisons (who wins, by what factor)
//! are driven by counter ratios, which the simulator measures exactly.

use crate::counters::PerfCounters;
use crate::device::DeviceSpec;
use crate::occupancy::{occupancy, BlockResources, Occupancy};

/// Bytes moved by one warp-level FP64 shared-memory request
/// (32 lanes × 8 bytes).
pub const BYTES_PER_SHARED_REQUEST: f64 = 256.0;

/// Tunable model parameters (defaults calibrated against the paper's
/// reported breakdown and speedups; see `EXPERIMENTS.md`).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Device the counters are mapped onto.
    pub device: DeviceSpec,
    /// Extra HBM-time fraction charged per staged (non-`cp.async`) byte:
    /// register round-trips serialize with the copy and burn issue slots
    /// (calibrated so removing them reproduces the paper's 29.7 % gain
    /// from `cp.async`, §IV-B / Fig. 9).
    pub staging_overhead: f64,
    /// Exposed cycles per shuffle instruction (issue + dependency stall
    /// of the consuming MMA).
    pub shuffle_exposed_cycles: f64,
    /// Occupancy fraction needed to fully hide memory latency; below
    /// this, effective bandwidth degrades linearly.
    pub latency_saturation_occupancy: f64,
    /// Fixed fraction of peak actually achievable by well-tuned kernels
    /// (no real kernel reaches 100% of spec sheet numbers).
    pub achievable_fraction: f64,
}

impl CostModel {
    /// Model of the paper's A100 platform.
    pub fn a100() -> Self {
        CostModel {
            device: DeviceSpec::a100(),
            staging_overhead: 0.65,
            shuffle_exposed_cycles: 66.0,
            latency_saturation_occupancy: 0.33,
            achievable_fraction: 0.70,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::a100()
    }
}

/// Per-pool time breakdown produced by [`CostModel::estimate`].
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// FP64 tensor-core compute time, s.
    pub t_tensor: f64,
    /// FP16 tensor-core compute time, s.
    pub t_tensor16: f64,
    /// CUDA-core compute time, s.
    pub t_cuda: f64,
    /// Shared-memory traffic time, s.
    pub t_shared: f64,
    /// L2 halo-reuse traffic time, s.
    pub t_l2: f64,
    /// Global-memory (HBM) traffic time, s (includes staging overhead).
    pub t_hbm: f64,
    /// Exposed shuffle time, s (additive).
    pub t_shuffle: f64,
    /// Occupancy used for latency hiding.
    pub occupancy: f64,
    /// Total estimated execution time, s.
    pub total: f64,
}

impl Estimate {
    /// GStencil/s (Eq. 18 of the paper) given the points the counter set
    /// updated.
    pub fn gstencil_per_sec(&self, points_updated: u64) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        points_updated as f64 / self.total / 1e9
    }

    /// The pool that sets [`Estimate::total`]: the slowest overlapping
    /// pool (`tensor`, `tensor16`, `cuda`, `shared`, `hbm` or `l2`), or
    /// `shuffle` when the exposed shuffle time exceeds it. Ties go to
    /// the earlier name in that list.
    pub fn bound_by(&self) -> &'static str {
        let pools = [
            ("tensor", self.t_tensor),
            ("tensor16", self.t_tensor16),
            ("cuda", self.t_cuda),
            ("shared", self.t_shared),
            ("hbm", self.t_hbm),
            ("l2", self.t_l2),
            ("shuffle", self.t_shuffle),
        ];
        pools.iter().fold(pools[0], |best, &p| if p.1 > best.1 { p } else { best }).0
    }

    /// "Compute (SM) Throughput" à la Nsight (Table III): the busiest
    /// compute pipeline's share of total time, discounted by issue
    /// utilization — below ~32 resident warps per SM the schedulers
    /// cannot keep the pipes fed, which is how low occupancy shows up in
    /// the hardware counter.
    pub fn compute_throughput(&self) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        let issue = (self.occupancy / 0.5).min(1.0);
        (self.t_tensor.max(self.t_tensor16).max(self.t_cuda) / self.total).min(1.0) * issue
    }
}

impl CostModel {
    /// Estimate execution time for a counter set produced by a kernel
    /// launched with the given per-block resources.
    pub fn estimate(&self, counters: &PerfCounters, block: &BlockResources) -> Estimate {
        let occ: Occupancy = occupancy(&self.device, block);
        let occ_frac = occ.fraction.max(1e-6);
        // Latency-hiding factor: bandwidth pools degrade below the
        // saturation occupancy.
        let hide = (occ_frac / self.latency_saturation_occupancy).min(1.0);
        let d = &self.device;
        let peak = self.achievable_fraction;

        let t_tensor = counters.tensor_flops() as f64 / (d.fp64_tensor_flops * peak);
        let t_tensor16 = counters.tensor_fp16_flops() as f64 / (d.fp16_tensor_flops * peak);
        let t_cuda = counters.cuda_flops as f64 / (d.fp64_cuda_flops * peak);
        let t_shared = counters.shared_total_requests() as f64 * BYTES_PER_SHARED_REQUEST
            / (d.shared_bandwidth() * peak * hide);
        let hbm_bytes = counters.global_bytes() as f64
            + counters.staged_copy_bytes as f64 * self.staging_overhead;
        let t_hbm = hbm_bytes / (d.hbm_bytes_per_sec * peak.min(0.85) * hide);
        let t_l2 = counters.l2_bytes as f64 / (d.l2_bytes_per_sec * peak * hide);
        let t_shuffle = counters.shuffle_ops as f64 * self.shuffle_exposed_cycles
            / (d.warp_issue_per_sec() * occ_frac.clamp(0.05, 1.0));

        let total =
            t_tensor.max(t_tensor16).max(t_cuda).max(t_shared).max(t_hbm).max(t_l2) + t_shuffle;
        Estimate {
            t_tensor,
            t_tensor16,
            t_cuda,
            t_shared,
            t_l2,
            t_hbm,
            t_shuffle,
            occupancy: occ.fraction,
            total,
        }
    }
}

/// Convenience: GStencil/s for a counter set (Eq. 18).
pub fn gstencil_per_sec(model: &CostModel, counters: &PerfCounters, block: &BlockResources) -> f64 {
    model.estimate(counters, block).gstencil_per_sec(counters.points_updated)
}

impl foundation::json::ToJson for CostModel {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("device", self.device.to_json()),
            ("staging_overhead", Json::Num(self.staging_overhead)),
            ("shuffle_exposed_cycles", Json::Num(self.shuffle_exposed_cycles)),
            ("latency_saturation_occupancy", Json::Num(self.latency_saturation_occupancy)),
            ("achievable_fraction", Json::Num(self.achievable_fraction)),
        ])
    }
}

impl foundation::json::ToJson for Estimate {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("t_tensor", Json::Num(self.t_tensor)),
            ("t_tensor16", Json::Num(self.t_tensor16)),
            ("t_cuda", Json::Num(self.t_cuda)),
            ("t_shared", Json::Num(self.t_shared)),
            ("t_l2", Json::Num(self.t_l2)),
            ("t_hbm", Json::Num(self.t_hbm)),
            ("t_shuffle", Json::Num(self.t_shuffle)),
            ("occupancy", Json::Num(self.occupancy)),
            ("total", Json::Num(self.total)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> BlockResources {
        BlockResources { shared_bytes: 4096, threads: 256, regs_per_thread: 64 }
    }

    #[test]
    fn more_mmas_take_longer() {
        let m = CostModel::a100();
        let mut a = PerfCounters::new();
        a.mma_ops = 1_000_000;
        let mut b = a;
        b.mma_ops *= 2;
        assert!(m.estimate(&b, &block()).total > m.estimate(&a, &block()).total);
    }

    #[test]
    fn shuffles_are_additive() {
        let m = CostModel::a100();
        let mut base = PerfCounters::new();
        base.mma_ops = 1_000_000;
        base.shared_load_requests = 1_000_000;
        let t0 = m.estimate(&base, &block()).total;
        let mut shuf = base;
        shuf.shuffle_ops = 2_000_000;
        let t1 = m.estimate(&shuf, &block()).total;
        assert!(t1 > t0, "shuffles must expose extra time");
    }

    #[test]
    fn staging_penalizes_hbm() {
        let m = CostModel::a100();
        let mut a = PerfCounters::new();
        a.global_bytes_read = 1 << 30;
        let t_async = m.estimate(&a, &block()).t_hbm;
        a.staged_copy_bytes = a.global_bytes_read;
        let t_staged = m.estimate(&a, &block()).t_hbm;
        assert!(t_staged > t_async * 1.2);
    }

    #[test]
    fn low_occupancy_degrades_bandwidth() {
        let m = CostModel::a100();
        let mut c = PerfCounters::new();
        c.global_bytes_read = 1 << 30;
        let good = BlockResources { shared_bytes: 4096, threads: 256, regs_per_thread: 64 };
        let bad = BlockResources { shared_bytes: 120 * 1024, threads: 256, regs_per_thread: 64 };
        assert!(m.estimate(&c, &bad).t_hbm > m.estimate(&c, &good).t_hbm);
    }

    #[test]
    fn gstencil_uses_points() {
        let m = CostModel::a100();
        let mut c = PerfCounters::new();
        c.mma_ops = 1_000_000;
        c.points_updated = 1_000_000_000;
        let e = m.estimate(&c, &block());
        let g = e.gstencil_per_sec(c.points_updated);
        assert!(g > 0.0);
        assert!((g - 1.0 / e.total).abs() / g < 1e-9);
    }

    #[test]
    fn bound_by_names_the_slowest_pool() {
        let m = CostModel::a100();
        let mut c = PerfCounters::new();
        c.mma_ops = 1_000_000;
        assert_eq!(m.estimate(&c, &block()).bound_by(), "tensor");
        c.global_bytes_read = 1 << 34;
        assert_eq!(m.estimate(&c, &block()).bound_by(), "hbm");
        c.shuffle_ops = 1 << 40;
        assert_eq!(m.estimate(&c, &block()).bound_by(), "shuffle");
        assert_eq!(m.estimate(&PerfCounters::new(), &block()).bound_by(), "tensor");
    }

    #[test]
    fn compute_throughput_bounded() {
        let m = CostModel::a100();
        let mut c = PerfCounters::new();
        c.mma_ops = 123456;
        c.shared_load_requests = 10;
        let e = m.estimate(&c, &block());
        let ct = e.compute_throughput();
        assert!(ct > 0.0 && ct <= 1.0);
    }
}
