//! The schedule space: the job-tile extents, the one lowering choice a
//! schedule may vary, in one [`ScheduleParams`] value.
//!
//! A `ScheduleParams` is pure *schedule*, never *semantics*: any valid
//! value must produce bit-identical outputs and identical
//! `Prediction`-class counters (MMAs, shared loads, shuffles, HBM bytes
//! written, points) to the default schedule. Tile extents only regroup
//! the same 8×8 sub-tiles into larger jobs. The temporal
//! fusion depth is not a schedule parameter: the planner chooses it from
//! the kernel, so no value here changes the executed arithmetic. The
//! `tune` chooser still gates every non-default winner behind a bitwise
//! output comparison against the default schedule.
//!
//! A value is chosen, never stored: the default everywhere, or the
//! `tune` chooser's pick, a pure function of the problem on the modeled
//! A100.

/// The tunable knobs of one lowered schedule: the job-tile extents.
/// `Default` is one 8×8 sub-tile per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleParams {
    /// Job-tile height in grid rows (multiple of 8; 1-D schedules ignore
    /// it). Sub-tiles stay 8×8 — this groups them into one job.
    pub tile_rows: usize,
    /// Job-tile width in grid columns (multiple of 8; 1-D jobs cover
    /// `8 · tile_cols` points).
    pub tile_cols: usize,
}

impl Default for ScheduleParams {
    fn default() -> Self {
        ScheduleParams { tile_rows: 8, tile_cols: 8 }
    }
}

impl ScheduleParams {
    /// Check the invariants the tiling relies on. The `tune` enumerator
    /// and [`Workspace::new`](super::Workspace::new) run this, so an
    /// invalid value can never reach the interpreter.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_rows == 0 || !self.tile_rows.is_multiple_of(8) {
            return Err(format!(
                "tile_rows must be a positive multiple of 8, got {}",
                self.tile_rows
            ));
        }
        if self.tile_cols == 0 || !self.tile_cols.is_multiple_of(8) {
            return Err(format!(
                "tile_cols must be a positive multiple of 8, got {}",
                self.tile_cols
            ));
        }
        Ok(())
    }

    /// Compact human-readable form for reports (`32x16`).
    pub fn describe(&self) -> String {
        format!("{}x{}", self.tile_rows, self.tile_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_one_sub_tile_per_job() {
        let p = ScheduleParams::default();
        assert_eq!((p.tile_rows, p.tile_cols), (8, 8));
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_off_grid_values() {
        let ok = ScheduleParams::default();
        assert!(ScheduleParams { tile_rows: 12, ..ok }.validate().is_err());
        assert!(ScheduleParams { tile_rows: 0, ..ok }.validate().is_err());
        assert!(ScheduleParams { tile_cols: 7, ..ok }.validate().is_err());
        assert!(ScheduleParams { tile_rows: 64, tile_cols: 16 }.validate().is_ok());
    }

    #[test]
    fn describe_names_the_tiles() {
        let p = ScheduleParams { tile_rows: 32, tile_cols: 16 };
        assert_eq!(p.describe(), "32x16");
        assert_eq!(ScheduleParams::default().describe(), "8x8");
    }
}
