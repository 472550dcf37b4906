//! SM occupancy calculation.
//!
//! The paper's memory argument (§III-B) is not only about request counts:
//! ConvStencil's stencil2row matrices "occupy more shared memory, reducing
//! the maximum number of threads that can work simultaneously and thus
//! lowering the hardware occupancy" (§V-D). This module reproduces the
//! standard CUDA occupancy rules so that shared-memory footprints feed the
//! cost model the same way.

use crate::device::DeviceSpec;

/// Resource usage of one thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResources {
    /// Shared-memory bytes allocated per block.
    pub shared_bytes: u32,
    /// Threads per block.
    pub threads: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

/// Result of an occupancy computation.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub warps_per_sm: u32,
    /// `warps_per_sm / max_warps_per_sm` ∈ (0, 1].
    pub fraction: f64,
}

/// Compute achievable occupancy for a block shape on a device.
///
/// Returns the minimum over the four standard limiters: max blocks/SM,
/// shared memory, register file and warp slots. Blocks that fit nowhere
/// (e.g. shared allocation larger than an SM) yield zero occupancy.
pub fn occupancy(device: &DeviceSpec, block: &BlockResources) -> Occupancy {
    let warps_per_block = block.threads.div_ceil(32).max(1);

    let by_blocks = device.max_blocks_per_sm;
    let by_warps = device.max_warps_per_sm / warps_per_block;
    let by_shared = device.shared_bytes_per_sm.checked_div(block.shared_bytes).unwrap_or(u32::MAX);
    let regs_per_block = block.regs_per_thread.saturating_mul(block.threads).max(1);
    let by_regs = device.registers_per_sm / regs_per_block;

    let blocks = by_blocks.min(by_warps).min(by_shared).min(by_regs);
    let warps = blocks * warps_per_block;
    Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        fraction: warps as f64 / device.max_warps_per_sm as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> DeviceSpec {
        DeviceSpec::a100()
    }

    #[test]
    fn small_block_hits_block_limit() {
        let occ = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 0, threads: 32, regs_per_thread: 32 },
        );
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.warps_per_sm, 32);
        assert!((occ.fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limits_blocks() {
        // 40 KiB/block → only 4 blocks fit in 164 KiB.
        let occ = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 40 * 1024, threads: 256, regs_per_thread: 32 },
        );
        assert_eq!(occ.blocks_per_sm, 4);
        assert_eq!(occ.warps_per_sm, 32);
    }

    #[test]
    fn register_pressure_limits_blocks() {
        // 255 regs/thread × 256 threads = 65280 regs ≈ whole file → 1 block.
        let occ = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 0, threads: 256, regs_per_thread: 255 },
        );
        assert_eq!(occ.blocks_per_sm, 1);
    }

    #[test]
    fn oversized_block_gets_zero() {
        let occ = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 200 * 1024, threads: 256, regs_per_thread: 32 },
        );
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.fraction, 0.0);
    }

    #[test]
    fn more_shared_means_no_more_occupancy() {
        let lo = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 8 * 1024, threads: 256, regs_per_thread: 64 },
        );
        let hi = occupancy(
            &a100(),
            &BlockResources { shared_bytes: 32 * 1024, threads: 256, regs_per_thread: 64 },
        );
        assert!(hi.fraction <= lo.fraction);
    }
}
