//! # tcu-sim — a functional + performance simulator of FP64 Tensor Cores
//!
//! This crate is the hardware substrate for the LoRAStencil reproduction.
//! The paper ("LoRAStencil: Low-Rank Adaptation of Stencil Computation on
//! Tensor Cores", SC 2024) runs on NVIDIA A100 Tensor Core Units through
//! the CUDA WMMA API; this crate reimplements that execution environment
//! in software so the algorithms can be reproduced and *measured* without
//! a GPU:
//!
//! * [`fragment`] — the warp-level A/B/accumulator fragments of the FP64
//!   `mma.m8n8k4` shape with the exact per-thread register layout of the
//!   real hardware (paper Fig. 6). Getting this layout right is what makes
//!   Butterfly Vector Swapping checkable rather than assumed.
//! * [`context::SimContext`] — issues MMAs, fragment extractions, scalar
//!   CUDA-core work and shuffles, charging everything to
//!   [`counters::PerfCounters`].
//! * [`shared::SharedTile`] / [`global::GlobalArray`] — the two levels of
//!   the memory hierarchy with the request/byte counters the paper reads
//!   through Nsight Compute (Fig. 10), plus `cp.async` (§IV-B).
//! * [`mod@occupancy`] — standard CUDA occupancy rules, so shared-memory
//!   footprints translate to resident-warp counts (§V-D).
//! * [`cost`] — a roofline cost model calibrated with A100 public specs
//!   that converts counters into estimated time and GStencil/s (Eq. 18).
//!
//! ## Example
//!
//! ```
//! use tcu_sim::{SimContext, SharedTile, FragAcc};
//!
//! let mut ctx = SimContext::new();
//! let mut x = SharedTile::new(16, 16);
//! x.poke(0, 0, 2.0);
//! let a = x.load_frag_a(&mut ctx, 0, 0);
//! let b = x.load_frag_b(&mut ctx, 0, 0);
//! let d = ctx.mma(&a, &b, &FragAcc::zero());
//! assert_eq!(ctx.counters.mma_ops, 1);
//! assert_eq!(d.get(0, 0), 4.0); // 2*2 from the (0,0) elements
//! ```

// Explicit index loops mirror the matrix/grid math throughout this
// crate and keep row/column roles visible; iterator forms obscure them.
#![allow(clippy::needless_range_loop)]

pub mod context;
pub mod cost;
pub mod counters;
pub mod device;
pub mod fp16;
pub mod fragment;
pub mod global;
pub mod occupancy;
pub mod shared;
pub mod trace;

pub use context::{acc_add, SimContext};
pub use cost::{gstencil_per_sec, CostModel, Estimate};
pub use counters::{PerfCounters, FLOPS_PER_MMA, FLOPS_PER_MMA_SP};
pub use device::DeviceSpec;
pub use fragment::{FragA, FragASp, FragAcc, FragB, MMA_K, MMA_M, MMA_N, WARP_LANES};
pub use global::{CopyMode, GlobalArray};
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use shared::SharedTile;
pub use trace::{Trace, TraceEvent};
