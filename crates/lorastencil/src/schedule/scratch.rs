//! Per-worker strip scratch: the job loop's buffers, per OS thread,
//! reused across every unit of work that thread computes.
//!
//! The worker threads behind `foundation::par` are persistent, so a
//! thread-local buffer is warm after the first unit and the per-unit
//! path performs **zero heap allocation** in steady state (asserted by
//! the `steady_state` integration test). The buffers grow once to the
//! widest plane, largest `S` and longest 1-D job the worker has run:
//! they are O(plane width), never O(plane). Safe with the pool's
//! help-draining join because a unit computation never blocks or nests
//! a parallel call — the `RefCell` borrow is released before any join
//! point.

use crate::rdg::{strip_tt_len, RdgGeometry, StripWindow, STRIP_ACC_T_LEN, TILE_M};
use std::cell::RefCell;
use tcu_sim::MMA_M;

/// The buffers one job row's strips reuse: the staged window; the
/// scalar kernel's `Tᵀ` of the whole strip; the strip's term and point-wise-plane
/// accumulators (the second only under `AccFold::Merge`), each 8 rows by
/// the strip's width; the tensor-core kernel's column-block `Tᵀ` and
/// `accᵀ`; and a 1-D job's staged span. A strip whose only chain group
/// the tensor-core kernel stores straight into the output never touches
/// `acc`.
pub(crate) struct StripScratch {
    pub window: StripWindow,
    pub t: Vec<f64>,
    pub acc: Vec<f64>,
    pub vals: Vec<f64>,
    pub tt: Vec<f64>,
    pub acc_t: Vec<f64>,
    pub line: Vec<f64>,
}

impl StripScratch {
    /// Grow the buffers for strips of `n` sub-tiles on `geo` (a no-op
    /// once the worker has seen a strip this wide and an `S` this large).
    #[inline(always)]
    pub fn reserve(&mut self, geo: RdgGeometry, n: usize) {
        let (width, aw) = (StripWindow::width_for(geo, n), TILE_M * n);
        for (buf, len) in [
            (&mut self.t, MMA_M * width),
            (&mut self.acc, MMA_M * aw),
            (&mut self.vals, MMA_M * aw),
            (&mut self.tt, strip_tt_len(geo)),
        ] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<StripScratch> = RefCell::new(StripScratch {
        window: StripWindow::new(),
        t: Vec::new(),
        acc: Vec::new(),
        vals: Vec::new(),
        tt: Vec::new(),
        acc_t: vec![0.0; STRIP_ACC_T_LEN],
        line: Vec::new(),
    });
}

/// Run `f` with this thread's scratch buffers.
pub(crate) fn with_strip_scratch<R>(f: impl FnOnce(&mut StripScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
