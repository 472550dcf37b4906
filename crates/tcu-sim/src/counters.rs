//! Performance counters collected during simulated execution.
//!
//! These mirror the hardware counters the paper reads through Nsight Compute
//! (shared-memory load/store requests, Fig. 10) plus the instruction counts
//! its analytic models reason about (MMA operations, Eq. 16; shuffles,
//! Fig. 9; global traffic for the roofline / arithmetic-intensity numbers of
//! Table III).

/// FLOPs performed by one `mma.m8n8k4.f64` instruction: `2 * m * n * k`.
pub const FLOPS_PER_MMA: u64 = 2 * 8 * 8 * 4;

/// FLOPs performed by one structured-sparse `mma.sp.m8n8k4.f64`
/// instruction: the 2:4 pattern keeps two of every four K products, so
/// only `2 * m * n * k/2` multiplies and adds execute.
pub const FLOPS_PER_MMA_SP: u64 = 2 * 8 * 8 * 2;

/// Counter set accumulated by a [`crate::SimContext`].
///
/// Counters are plain integers so tile-local counter sets can be merged
/// after parallel execution (see [`PerfCounters::merge`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Number of `mma.m8n8k4.f64` instructions issued to tensor cores.
    pub mma_ops: u64,
    /// Number of structured-sparse `mma.sp.m8n8k4.f64` instructions: the
    /// A operand is stored 2:4-compressed (at most two nonzeros per row of
    /// four K elements) and the tensor core skips the pruned products.
    pub mma_sp_ops: u64,
    /// Number of `m16n16k16` FP16 MMA instructions (native-FP16 methods
    /// only; 8192 FLOPs each at the FP16 peak rate).
    pub mma_fp16_ops: u64,
    /// Sparsity-metadata register loads: one per compressed A fragment
    /// brought into the metadata registers that steer a sparse MMA.
    pub metadata_loads: u64,
    /// Scalar FP64 floating-point operations executed on CUDA cores
    /// (adds and multiplies each count as one).
    pub cuda_flops: u64,
    /// Warp-wide `__shfl_sync` instructions (cross-lane data movement).
    pub shuffle_ops: u64,
    /// Warp-level shared-memory load requests.
    pub shared_load_requests: u64,
    /// Warp-level shared-memory store requests.
    pub shared_store_requests: u64,
    /// Bytes read from global memory (HBM).
    pub global_bytes_read: u64,
    /// Bytes written to global memory (HBM).
    pub global_bytes_written: u64,
    /// Halo re-read bytes served by the L2 cache rather than HBM: data a
    /// neighboring tile already pulled on-chip this iteration (A100's
    /// 40 MB L2 easily covers the row working sets of Table II).
    pub l2_bytes: u64,
    /// Bytes of global→shared copies that were staged through registers
    /// (i.e. *not* using `cp.async`). Penalized by the cost model.
    pub staged_copy_bytes: u64,
    /// Grid points whose stencil update completed.
    pub points_updated: u64,
}

impl PerfCounters {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total FP64 FLOPs executed on tensor cores (dense + sparse MMAs).
    pub fn tensor_flops(&self) -> u64 {
        self.mma_ops * FLOPS_PER_MMA + self.mma_sp_ops * FLOPS_PER_MMA_SP
    }

    /// Total FP16 FLOPs executed on tensor cores.
    pub fn tensor_fp16_flops(&self) -> u64 {
        self.mma_fp16_ops * crate::fp16::FLOPS_PER_MMA16
    }

    /// Total FLOPs across tensor (both precisions) and CUDA cores.
    pub fn total_flops(&self) -> u64 {
        self.tensor_flops() + self.tensor_fp16_flops() + self.cuda_flops
    }

    /// Total warp-level shared-memory requests (loads + stores), the
    /// quantity Fig. 10 of the paper plots as "total requests".
    pub fn shared_total_requests(&self) -> u64 {
        self.shared_load_requests + self.shared_store_requests
    }

    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_bytes_read + self.global_bytes_written
    }

    /// Arithmetic intensity in FLOP per global byte (Table III "AI").
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.global_bytes();
        if bytes == 0 {
            return 0.0;
        }
        self.total_flops() as f64 / bytes as f64
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &PerfCounters) {
        self.mma_ops += other.mma_ops;
        self.mma_sp_ops += other.mma_sp_ops;
        self.mma_fp16_ops += other.mma_fp16_ops;
        self.metadata_loads += other.metadata_loads;
        self.cuda_flops += other.cuda_flops;
        self.shuffle_ops += other.shuffle_ops;
        self.shared_load_requests += other.shared_load_requests;
        self.shared_store_requests += other.shared_store_requests;
        self.global_bytes_read += other.global_bytes_read;
        self.global_bytes_written += other.global_bytes_written;
        self.l2_bytes += other.l2_bytes;
        self.staged_copy_bytes += other.staged_copy_bytes;
        self.points_updated += other.points_updated;
    }

    /// `(name, value)` view of every counter field, in declaration order.
    /// The single source of truth for field-by-field comparison and
    /// reporting (adding a field here keeps [`PerfCounters::diff`] exact).
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("mma_ops", self.mma_ops),
            ("mma_sp_ops", self.mma_sp_ops),
            ("mma_fp16_ops", self.mma_fp16_ops),
            ("metadata_loads", self.metadata_loads),
            ("cuda_flops", self.cuda_flops),
            ("shuffle_ops", self.shuffle_ops),
            ("shared_load_requests", self.shared_load_requests),
            ("shared_store_requests", self.shared_store_requests),
            ("global_bytes_read", self.global_bytes_read),
            ("global_bytes_written", self.global_bytes_written),
            ("l2_bytes", self.l2_bytes),
            ("staged_copy_bytes", self.staged_copy_bytes),
            ("points_updated", self.points_updated),
        ]
    }

    /// The fields no schedule choice may move: the `Prediction` class
    /// of the counter model (MMAs dense and sparse, metadata loads,
    /// shared-memory loads, shuffles, HBM bytes written, points). Tile
    /// shapes and staging regroup the same sub-tiles, so they move only
    /// the staging traffic (store requests, HBM/L2 reads, staged bytes)
    /// and, on the scalar backends, nothing at all.
    pub fn schedule_invariants(&self) -> [u64; 7] {
        [
            self.mma_ops,
            self.mma_sp_ops,
            self.metadata_loads,
            self.shared_load_requests,
            self.shuffle_ops,
            self.global_bytes_written,
            self.points_updated,
        ]
    }

    /// Exact field-by-field comparison: every `(field, self, other)`
    /// triple where the two counter sets disagree, in declaration order.
    /// Empty means the sets are identical.
    pub fn diff(&self, other: &PerfCounters) -> Vec<(&'static str, u64, u64)> {
        self.fields()
            .iter()
            .zip(other.fields())
            .filter(|((_, a), (_, b))| a != b)
            .map(|(&(name, a), (_, b))| (name, a, b))
            .collect()
    }

    /// Scale every counter by an integer factor.
    ///
    /// Used to extrapolate from one representative tile (simulated exactly)
    /// to a full problem consisting of `factor` identical tiles.
    pub fn scaled(&self, factor: u64) -> PerfCounters {
        PerfCounters {
            mma_ops: self.mma_ops * factor,
            mma_sp_ops: self.mma_sp_ops * factor,
            mma_fp16_ops: self.mma_fp16_ops * factor,
            metadata_loads: self.metadata_loads * factor,
            cuda_flops: self.cuda_flops * factor,
            shuffle_ops: self.shuffle_ops * factor,
            shared_load_requests: self.shared_load_requests * factor,
            shared_store_requests: self.shared_store_requests * factor,
            global_bytes_read: self.global_bytes_read * factor,
            global_bytes_written: self.global_bytes_written * factor,
            l2_bytes: self.l2_bytes * factor,
            staged_copy_bytes: self.staged_copy_bytes * factor,
            points_updated: self.points_updated * factor,
        }
    }
}

impl foundation::json::ToJson for PerfCounters {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("mma_ops", Json::UInt(self.mma_ops)),
            ("mma_sp_ops", Json::UInt(self.mma_sp_ops)),
            ("mma_fp16_ops", Json::UInt(self.mma_fp16_ops)),
            ("metadata_loads", Json::UInt(self.metadata_loads)),
            ("cuda_flops", Json::UInt(self.cuda_flops)),
            ("shuffle_ops", Json::UInt(self.shuffle_ops)),
            ("shared_load_requests", Json::UInt(self.shared_load_requests)),
            ("shared_store_requests", Json::UInt(self.shared_store_requests)),
            ("global_bytes_read", Json::UInt(self.global_bytes_read)),
            ("global_bytes_written", Json::UInt(self.global_bytes_written)),
            ("l2_bytes", Json::UInt(self.l2_bytes)),
            ("staged_copy_bytes", Json::UInt(self.staged_copy_bytes)),
            ("points_updated", Json::UInt(self.points_updated)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flops_per_mma_matches_m8n8k4() {
        assert_eq!(FLOPS_PER_MMA, 512);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = PerfCounters::new();
        a.mma_ops = 1;
        a.mma_sp_ops = 12;
        a.mma_fp16_ops = 11;
        a.metadata_loads = 13;
        a.cuda_flops = 2;
        a.shuffle_ops = 3;
        a.shared_load_requests = 4;
        a.shared_store_requests = 5;
        a.global_bytes_read = 6;
        a.global_bytes_written = 7;
        a.l2_bytes = 10;
        a.staged_copy_bytes = 8;
        a.points_updated = 9;
        let mut b = a;
        b.merge(&a);
        assert_eq!(b, a.scaled(2));
    }

    #[test]
    fn tensor_flops_counts_512_per_mma() {
        let mut c = PerfCounters::new();
        c.mma_ops = 3;
        assert_eq!(c.tensor_flops(), 1536);
        c.cuda_flops = 64;
        assert_eq!(c.total_flops(), 1600);
    }

    #[test]
    fn sparse_mma_counts_256_flops_each() {
        let mut c = PerfCounters::new();
        c.mma_sp_ops = 2;
        assert_eq!(c.tensor_flops(), 512);
        c.mma_ops = 1;
        assert_eq!(c.tensor_flops(), 1024);
    }

    #[test]
    fn arithmetic_intensity_zero_without_traffic() {
        let mut c = PerfCounters::new();
        c.mma_ops = 10;
        assert_eq!(c.arithmetic_intensity(), 0.0);
        c.global_bytes_read = 512;
        c.global_bytes_written = 512;
        assert!((c.arithmetic_intensity() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn diff_reports_exact_disagreements() {
        let mut a = PerfCounters::new();
        a.mma_ops = 5;
        a.shared_load_requests = 8;
        let mut b = a;
        assert!(a.diff(&b).is_empty());
        b.shared_load_requests = 9;
        b.points_updated = 64;
        assert_eq!(a.diff(&b), vec![("shared_load_requests", 8, 9), ("points_updated", 0, 64)]);
    }

    #[test]
    fn fields_covers_every_counter() {
        // a counter set with all-distinct values round-trips through
        // fields(): any field missed there would break this sum
        let c = PerfCounters {
            mma_ops: 1,
            mma_sp_ops: 2,
            mma_fp16_ops: 4,
            metadata_loads: 8,
            cuda_flops: 16,
            shuffle_ops: 32,
            shared_load_requests: 64,
            shared_store_requests: 128,
            global_bytes_read: 256,
            global_bytes_written: 512,
            l2_bytes: 1024,
            staged_copy_bytes: 2048,
            points_updated: 4096,
        };
        let sum: u64 = c.fields().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 8191);
    }

    #[test]
    fn scaled_by_zero_clears() {
        let mut c = PerfCounters::new();
        c.mma_ops = 7;
        assert_eq!(c.scaled(0), PerfCounters::new());
    }
}
