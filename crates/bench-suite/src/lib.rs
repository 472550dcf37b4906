//! # bench-suite — the LoRAStencil evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V) on
//! the simulated A100:
//!
//! * `cargo run -p bench-suite --release --bin fig8` — Fig. 8 comparison
//! * `cargo run -p bench-suite --release --bin fig9` — Fig. 9 breakdown
//! * `cargo run -p bench-suite --release --bin fig10` — Fig. 10 requests
//! * `cargo run -p bench-suite --release --bin table3` — Table III
//! * `cargo run -p bench-suite --release --bin analysis` — Eq. 12–16
//! * `cargo run -p bench-suite --release --bin ablation` — design-choice ablations
//! * `cargo run -p bench-suite --release --bin paper` — everything
//!
//! Criterion micro-benchmarks (`cargo bench`) time the real Rust hot
//! paths of the simulator and the algorithms.

pub mod ablation;
pub mod figures;
pub mod fp16_study;
pub mod report;
pub mod runner;
pub mod workloads;

pub use figures::{
    fig10, fig8, fig9, fig_backends, render_analysis, render_fig10, render_portability,
    render_table3, table3, table_portability, FigBackends, PortabilityRow,
};
pub use runner::{evaluate, MethodResult};
pub use workloads::{table_ii, Workload};
