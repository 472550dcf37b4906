//! Per-worker tile scratch: two `SharedTile` slots, an `XFragments`
//! buffer and a `BandWindow` per OS thread, reused across every job that
//! thread computes.
//!
//! The worker threads behind `foundation::par` are persistent, so a
//! thread-local buffer is warm after the first job and the per-job
//! path performs **zero heap allocation** in steady state (asserted by
//! the `steady_state` integration test). Two shared-window slots back
//! the schedule IR's double-buffered staging; single-staged schedules
//! only ever touch slot 0, so the second slot stays at its initial 0×0
//! capacity and costs nothing. Safe with the pool's help-draining join
//! because a job computation never blocks or nests a parallel call —
//! the `RefCell` borrow is released before any join point.

use crate::rdg::{BandWindow, RdgGeometry, XFragments};
use std::cell::RefCell;
use tcu_sim::SharedTile;

/// The reusable per-worker buffers of the tile hot path.
pub(crate) struct TileScratch {
    /// Simulated shared-memory window slots (resized per geometry;
    /// slot 1 is the double-staging ping-pong partner).
    pub tiles: [SharedTile; 2],
    /// The tile's B fragments (refilled per sub-tile).
    pub x: XFragments,
    /// The transposed window the band and scalar evaluators read, which
    /// `FragBuild` stages in place of `x` (grown to the largest `S` seen).
    pub band: BandWindow,
}

thread_local! {
    static SCRATCH: RefCell<TileScratch> = RefCell::new(TileScratch {
        tiles: [SharedTile::new(0, 0), SharedTile::new(0, 0)],
        x: XFragments::empty(RdgGeometry::for_radius(1)),
        band: BandWindow::new(),
    });
}

/// Run `f` with this thread's scratch buffers.
pub(crate) fn with_tile_scratch<R>(f: impl FnOnce(&mut TileScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
