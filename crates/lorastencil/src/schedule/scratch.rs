//! Per-worker tile scratch: two `SharedTile` slots and an `XFragments`
//! buffer for the per-sub-tile walk, and the strip evaluators' buffers,
//! per OS thread, reused across every job that thread computes.
//!
//! The worker threads behind `foundation::par` are persistent, so a
//! thread-local buffer is warm after the first job and the per-job
//! path performs **zero heap allocation** in steady state (asserted by
//! the `steady_state` integration test). Two shared-window slots back
//! the schedule IR's double-buffered staging; single-staged schedules
//! only ever touch slot 0, so the second slot stays at its initial 0×0
//! capacity and costs nothing. The strip buffers grow once to the widest
//! plane and largest `S` the worker has run: they are O(plane width),
//! never O(plane).
//! Safe with the pool's help-draining join because a job computation
//! never blocks or nests a parallel call — the `RefCell` borrow is
//! released before any join point.

use crate::rdg::{RdgGeometry, StripWindow, XFragments, STRIP_ACC_T_LEN, STRIP_TT_LEN};
use std::cell::RefCell;
use tcu_sim::{SharedTile, MMA_M};

/// The reusable per-worker buffers of the tile hot path.
pub(crate) struct TileScratch {
    /// Simulated shared-memory window slots (resized per geometry;
    /// slot 1 is the double-staging ping-pong partner).
    pub tiles: [SharedTile; 2],
    /// The tile's B fragments (refilled per sub-tile) on the per-sub-tile
    /// walk.
    pub x: XFragments,
    /// The strip evaluators' buffers.
    pub strip: StripScratch,
}

/// The buffers one job row's strips reuse: a staged window per `Stage`
/// slot; the scalar step-1 `T` rows; the strip's term and point-wise-plane
/// accumulators (the second only under `AccFold::Merge`), each 8 rows by
/// the strip's width; and the tensor-core kernel's fixed-size column-block
/// `Tᵀ` and `accᵀ`.
pub(crate) struct StripScratch {
    pub windows: [StripWindow; 2],
    pub t: Vec<f64>,
    pub acc: Vec<f64>,
    pub vals: Vec<f64>,
    pub tt: Vec<f64>,
    pub acc_t: Vec<f64>,
}

impl StripScratch {
    /// Grow the `T` rows to `width` columns and the accumulators to `aw`
    /// (a no-op once the worker has seen a strip this wide).
    #[inline(always)]
    pub fn reserve(&mut self, width: usize, aw: usize) {
        for (buf, w) in [(&mut self.t, width), (&mut self.acc, aw), (&mut self.vals, aw)] {
            if buf.len() < MMA_M * w {
                buf.resize(MMA_M * w, 0.0);
            }
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<TileScratch> = RefCell::new(TileScratch {
        tiles: [SharedTile::new(0, 0), SharedTile::new(0, 0)],
        x: XFragments::empty(RdgGeometry::for_radius(1)),
        strip: StripScratch {
            windows: [StripWindow::new(), StripWindow::new()],
            t: Vec::new(),
            acc: Vec::new(),
            vals: Vec::new(),
            tt: vec![0.0; STRIP_TT_LEN],
            acc_t: vec![0.0; STRIP_ACC_T_LEN],
        },
    });
}

/// Run `f` with this thread's scratch buffers.
pub(crate) fn with_tile_scratch<R>(f: impl FnOnce(&mut TileScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
