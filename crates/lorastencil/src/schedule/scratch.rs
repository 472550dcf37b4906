//! Per-worker tile scratch: two `SharedTile` slots, an `XFragments`
//! buffer, a `BandWindow` and the strip evaluator's buffers per OS
//! thread, reused across every job that thread computes.
//!
//! The worker threads behind `foundation::par` are persistent, so a
//! thread-local buffer is warm after the first job and the per-job
//! path performs **zero heap allocation** in steady state (asserted by
//! the `steady_state` integration test). Two shared-window slots back
//! the schedule IR's double-buffered staging; single-staged schedules
//! only ever touch slot 0, so the second slot stays at its initial 0×0
//! capacity and costs nothing. The strip buffers grow once to the widest
//! plane the worker has run: they are O(plane width), never O(plane).
//! Safe with the pool's help-draining join because a job computation
//! never blocks or nests a parallel call — the `RefCell` borrow is
//! released before any join point.

use crate::rdg::{BandWindow, RdgGeometry, StripWindow, XFragments};
use std::cell::RefCell;
use tcu_sim::{SharedTile, MMA_M};

/// The reusable per-worker buffers of the tile hot path.
pub(crate) struct TileScratch {
    /// Simulated shared-memory window slots (resized per geometry;
    /// slot 1 is the double-staging ping-pong partner).
    pub tiles: [SharedTile; 2],
    /// The tile's B fragments (refilled per sub-tile) on the tensor-core
    /// per-sub-tile walk.
    pub x: XFragments,
    /// The transposed window the scalar evaluator reads, which their
    /// `FragBuild` stages in place of `x` (grown to the largest `S` seen).
    pub band: BandWindow,
    /// The tensor-core strip evaluator's buffers.
    pub strip: StripScratch,
}

/// The buffers one job row's strips reuse: a staged window per `Stage`
/// slot, the step-1 `T` rows, and the strip's tensor-core and scalar
/// accumulators, each 8 rows by the strip's width.
pub(crate) struct StripScratch {
    pub windows: [StripWindow; 2],
    pub t: Vec<f64>,
    pub acc: Vec<f64>,
    pub vals: Vec<f64>,
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
        band: BandWindow::new(),
        strip: StripScratch {
            windows: [StripWindow::new(), StripWindow::new()],
            t: Vec::new(),
            acc: Vec::new(),
            vals: Vec::new(),
        },
    });
}

/// Run `f` with this thread's scratch buffers.
pub(crate) fn with_tile_scratch<R>(f: impl FnOnce(&mut TileScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
