//! Device description: the public A100 parameters the paper's evaluation
//! platform exposes (§V-A), used by the roofline cost model.

/// Static description of the simulated GPU.
///
/// Defaults model the NVIDIA A100-SXM4-80GB used in the paper:
/// 108 SMs, 1.41 GHz boost clock, 19.5 TFLOPS FP64 on tensor cores,
/// 9.7 TFLOPS FP64 on CUDA cores, 1935 GB/s HBM2e bandwidth and
/// 164 KiB of usable shared memory per SM.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Boost clock in Hz.
    pub clock_hz: f64,
    /// Peak FP64 throughput of the tensor cores, FLOP/s.
    pub fp64_tensor_flops: f64,
    /// Peak FP64 throughput of the CUDA cores, FLOP/s.
    pub fp64_cuda_flops: f64,
    /// Peak FP16 throughput of the tensor cores, FLOP/s (312 TFLOPS on
    /// A100; used to model TCStencil's native precision per §V-A).
    pub fp16_tensor_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bytes_per_sec: f64,
    /// L2 cache bandwidth in bytes/s (A100: ≈5 TB/s measured).
    pub l2_bytes_per_sec: f64,
    /// Shared-memory bytes a warp-level request can deliver per SM per
    /// cycle (A100: 128 B/cycle/SM load *and* store paths).
    pub shared_bytes_per_cycle_per_sm: f64,
    /// Usable shared memory per SM in bytes (A100: up to 164 KiB
    /// configurable out of 192 KiB).
    pub shared_bytes_per_sm: u32,
    /// Maximum resident warps per SM (A100: 64).
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM (A100: 32).
    pub max_blocks_per_sm: u32,
    /// Register file size per SM in 32-bit registers (A100: 65536).
    pub registers_per_sm: u32,
}

impl DeviceSpec {
    /// The paper's evaluation platform (§V-A).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100-SXM4-80GB (simulated)",
            num_sms: 108,
            clock_hz: 1.41e9,
            fp64_tensor_flops: 19.5e12,
            fp64_cuda_flops: 9.7e12,
            fp16_tensor_flops: 312.0e12,
            hbm_bytes_per_sec: 1935.0e9,
            l2_bytes_per_sec: 5.0e12,
            shared_bytes_per_cycle_per_sm: 128.0,
            shared_bytes_per_sm: 164 * 1024,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            registers_per_sm: 65536,
        }
    }

    /// Aggregate shared-memory bandwidth across the device, bytes/s.
    pub fn shared_bandwidth(&self) -> f64 {
        self.shared_bytes_per_cycle_per_sm * self.clock_hz * self.num_sms as f64
    }

    /// Device-wide warp-instruction issue bandwidth used to cost shuffle
    /// instructions: one warp instruction per scheduler per cycle, four
    /// schedulers per SM.
    pub fn warp_issue_per_sec(&self) -> f64 {
        4.0 * self.clock_hz * self.num_sms as f64
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::a100()
    }
}

impl foundation::json::ToJson for DeviceSpec {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("num_sms", Json::UInt(self.num_sms as u64)),
            ("clock_hz", Json::Num(self.clock_hz)),
            ("fp64_tensor_flops", Json::Num(self.fp64_tensor_flops)),
            ("fp64_cuda_flops", Json::Num(self.fp64_cuda_flops)),
            ("fp16_tensor_flops", Json::Num(self.fp16_tensor_flops)),
            ("hbm_bytes_per_sec", Json::Num(self.hbm_bytes_per_sec)),
            ("l2_bytes_per_sec", Json::Num(self.l2_bytes_per_sec)),
            ("shared_bytes_per_cycle_per_sm", Json::Num(self.shared_bytes_per_cycle_per_sm)),
            ("shared_bytes_per_sm", Json::UInt(self.shared_bytes_per_sm as u64)),
            ("max_warps_per_sm", Json::UInt(self.max_warps_per_sm as u64)),
            ("max_blocks_per_sm", Json::UInt(self.max_blocks_per_sm as u64)),
            ("registers_per_sm", Json::UInt(self.registers_per_sm as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants_match_paper() {
        let d = DeviceSpec::a100();
        assert_eq!(d.num_sms, 108);
        assert_eq!(d.fp64_tensor_flops, 19.5e12);
        assert_eq!(d.hbm_bytes_per_sec, 1935.0e9);
    }

    #[test]
    fn shared_bandwidth_is_tens_of_tb() {
        let d = DeviceSpec::a100();
        let bw = d.shared_bandwidth();
        assert!(bw > 15.0e12 && bw < 25.0e12, "bw = {bw}");
    }

    #[test]
    fn fp16_is_16x_fp64_tensor() {
        // §V-A: "On the A100 TCU, FP16 computation speed is 16 times
        // faster than FP64" — the spec ratio the TCStencil conversion uses.
        let d = DeviceSpec::a100();
        assert!((d.fp16_tensor_flops / d.fp64_tensor_flops - 16.0).abs() < 1e-9);
    }
}
