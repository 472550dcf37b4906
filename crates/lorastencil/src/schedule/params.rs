//! The searchable schedule space: every lowering choice PR 5 hardcoded,
//! lifted into one [`ScheduleParams`] value.
//!
//! A `ScheduleParams` is pure *schedule*, never *semantics*: any valid
//! value must produce bit-identical outputs and identical
//! `Prediction`-class counters (MMAs, shared loads, shuffles, HBM bytes
//! written, points) to the default schedule. Tile extents only regroup
//! the same 8×8 sub-tiles into larger jobs, double staging only changes
//! which shared-memory slot a window lands in, and `mma_batch` no longer
//! shapes anything (the host runs every term on strips; the field stays
//! in the tuning-DB and checkpoint formats). The one exception is [`ScheduleParams::fuse_override`], which changes the
//! executed kernel — the `tune` chooser therefore never searches it, and
//! it still gates every non-default winner behind a bitwise output
//! comparison against the default schedule.

use foundation::json::{Json, ToJson};

/// Global→shared staging discipline for `Op::Stage`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Staging {
    /// One shared-memory window slot; every stage overwrites it (the
    /// PR 5 behavior).
    #[default]
    Single,
    /// Two ping-pong window slots: the next plane's halo loads issue
    /// into the idle slot while the MMA chain consumes the live one
    /// (software pipelining; `Op::Stage`/`Op::FragBuild` carry the slot).
    Double,
}

impl Staging {
    /// Stable text form (the tuning-DB encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Staging::Single => "single",
            Staging::Double => "double",
        }
    }

    /// Parse the text form.
    pub fn parse(s: &str) -> Option<Staging> {
        match s {
            "single" => Some(Staging::Single),
            "double" => Some(Staging::Double),
            _ => None,
        }
    }
}

/// Largest [`ScheduleParams::mma_batch`]: the tuning-DB and checkpoint
/// formats carry the field, so it is still validated.
pub(crate) const MAX_MMA_BATCH: usize = 16;

/// The tunable knobs of one lowered schedule. `Default` reproduces the
/// PR 5 fixed choices exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleParams {
    /// Job-tile height in grid rows (multiple of 8; 1-D schedules ignore
    /// it). Sub-tiles stay 8×8 — this groups them into one job.
    pub tile_rows: usize,
    /// Job-tile width in grid columns (multiple of 8; 1-D jobs cover
    /// `8 · tile_cols` points).
    pub tile_cols: usize,
    /// Staging discipline for `Op::Stage`.
    pub staging: Staging,
    /// Step-1 MMA chain batch width (1 = unbatched, ≤ 16). Read by
    /// nothing but validation, fingerprints and the tuning-DB format.
    pub mma_batch: usize,
    /// Override the temporal fusion depth chosen by the cost model
    /// (`None` keeps the planner's choice; ignored when fusion is
    /// disabled by config and for 3-D plans, which never fuse).
    pub fuse_override: Option<usize>,
}

impl Default for ScheduleParams {
    fn default() -> Self {
        ScheduleParams {
            tile_rows: 8,
            tile_cols: 8,
            staging: Staging::Single,
            mma_batch: 1,
            fuse_override: None,
        }
    }
}

impl ScheduleParams {
    /// Check the invariants lowering relies on. Every constructor of a
    /// non-default value (tuning-DB decode, the `tune` enumerator) runs
    /// this, so an invalid value can never reach the interpreter.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_rows == 0 || self.tile_rows % 8 != 0 {
            return Err(format!(
                "tile_rows must be a positive multiple of 8, got {}",
                self.tile_rows
            ));
        }
        if self.tile_cols == 0 || self.tile_cols % 8 != 0 {
            return Err(format!(
                "tile_cols must be a positive multiple of 8, got {}",
                self.tile_cols
            ));
        }
        if self.mma_batch == 0 || self.mma_batch > MAX_MMA_BATCH {
            return Err(format!(
                "mma_batch must be in 1..={}, got {}",
                MAX_MMA_BATCH, self.mma_batch
            ));
        }
        if let Some(f) = self.fuse_override {
            if f == 0 {
                return Err("fuse_override must be ≥ 1 when set".to_string());
            }
        }
        Ok(())
    }

    /// Decode from the tuning-DB JSON object form. Unknown or
    /// wrongly-typed fields are errors — a tuning entry is either fully
    /// understood or rejected.
    pub fn from_json(j: &Json) -> Result<ScheduleParams, String> {
        let field_usize = |name: &str| -> Result<usize, String> {
            match j.get(name) {
                Some(Json::UInt(u)) => Ok(*u as usize),
                Some(other) => {
                    Err(format!("params field {name:?} must be an integer, got {other:?}"))
                }
                None => Err(format!("params field {name:?} is missing")),
            }
        };
        let staging = match j.get("staging") {
            Some(Json::Str(s)) => Staging::parse(s).ok_or_else(|| {
                format!("params field \"staging\" must be \"single\" or \"double\", got {s:?}")
            })?,
            Some(other) => {
                return Err(format!("params field \"staging\" must be a string, got {other:?}"))
            }
            None => return Err("params field \"staging\" is missing".to_string()),
        };
        let fuse_override = match j.get("fuse_override") {
            Some(Json::Null) | None => None,
            Some(Json::UInt(u)) => Some(*u as usize),
            Some(other) => {
                return Err(format!(
                    "params field \"fuse_override\" must be null or an integer, got {other:?}"
                ))
            }
        };
        let p = ScheduleParams {
            tile_rows: field_usize("tile_rows")?,
            tile_cols: field_usize("tile_cols")?,
            staging,
            mma_batch: field_usize("mma_batch")?,
            fuse_override,
        };
        p.validate()?;
        Ok(p)
    }

    /// Compact human-readable form for reports (`32x16/double/b4/f3`).
    pub fn describe(&self) -> String {
        let mut s = format!(
            "{}x{}/{}/b{}",
            self.tile_rows,
            self.tile_cols,
            self.staging.as_str(),
            self.mma_batch
        );
        if let Some(f) = self.fuse_override {
            s.push_str(&format!("/f{f}"));
        }
        s
    }
}

impl ToJson for ScheduleParams {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tile_rows", Json::UInt(self.tile_rows as u64)),
            ("tile_cols", Json::UInt(self.tile_cols as u64)),
            ("staging", Json::Str(self.staging.as_str().to_string())),
            ("mma_batch", Json::UInt(self.mma_batch as u64)),
            (
                "fuse_override",
                match self.fuse_override {
                    Some(f) => Json::UInt(f as u64),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_the_pr5_fixed_choices() {
        let p = ScheduleParams::default();
        assert_eq!((p.tile_rows, p.tile_cols), (8, 8));
        assert_eq!(p.staging, Staging::Single);
        assert_eq!(p.mma_batch, 1);
        assert_eq!(p.fuse_override, None);
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_off_grid_values() {
        let ok = ScheduleParams::default();
        assert!(ScheduleParams { tile_rows: 12, ..ok }.validate().is_err());
        assert!(ScheduleParams { tile_rows: 0, ..ok }.validate().is_err());
        assert!(ScheduleParams { tile_cols: 7, ..ok }.validate().is_err());
        assert!(ScheduleParams { mma_batch: 0, ..ok }.validate().is_err());
        assert!(ScheduleParams { mma_batch: 17, ..ok }.validate().is_err());
        assert!(ScheduleParams { fuse_override: Some(0), ..ok }.validate().is_err());
        assert!(ScheduleParams {
            tile_rows: 64,
            tile_cols: 16,
            mma_batch: 16,
            fuse_override: Some(6),
            staging: Staging::Double,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn json_round_trips_and_rejects_malformed_fields() {
        let p = ScheduleParams {
            tile_rows: 32,
            tile_cols: 16,
            staging: Staging::Double,
            mma_batch: 4,
            fuse_override: Some(3),
        };
        let back = ScheduleParams::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.describe(), "32x16/double/b4/f3");

        let mut j = p.to_json();
        if let Json::Obj(pairs) = &mut j {
            pairs.retain(|(k, _)| k != "staging");
        }
        assert!(ScheduleParams::from_json(&j).unwrap_err().contains("staging"));
        let bad = Json::parse(r#"{"tile_rows":8,"tile_cols":8,"staging":"triple","mma_batch":1,"fuse_override":null}"#).unwrap();
        assert!(ScheduleParams::from_json(&bad).unwrap_err().contains("triple"));
        let bad2 = Json::parse(r#"{"tile_rows":12,"tile_cols":8,"staging":"single","mma_batch":1,"fuse_override":null}"#).unwrap();
        assert!(ScheduleParams::from_json(&bad2).unwrap_err().contains("multiple of 8"));
    }
}
