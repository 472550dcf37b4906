//! Checkpointed execution: the single-device time loop ([`ExecSession`])
//! with a crash-consistent snapshot hook between applications, plus
//! deterministic resume.
//!
//! ## Bit-identical resume
//!
//! Every fused application is a pure function of the current planes, so
//! a run is the composition `applyₖ ∘ … ∘ apply₁ (input)`. Snapshots are
//! taken only **between** applications, capturing the exact intermediate
//! planes plus the counters accumulated so far. A resumed run recomputes
//! the remaining fused/unfused split on the *remaining* step count —
//! which reproduces the suffix of the straight run's application sequence
//! exactly (snapshots land either on a fusion boundary or inside the
//! unfused remainder phase, and in both cases the suffix decomposition
//! is the same). Counters merge associatively in job order, so values
//! AND counters are bit-identical to an uninterrupted run at any
//! `FOUNDATION_THREADS` setting — the property `tests/checkpoint.rs`
//! pins.
//!
//! ## Plan fingerprint
//!
//! A snapshot embeds [`plan_fingerprint`] — a hash of the kernel (name,
//! radius, every weight's exact bits), the [`ExecConfig`] toggles, the
//! grid extents and the default [`ScheduleParams`] every checkpointed
//! run executes with. [`resume`] recomputes the fingerprint from its own
//! arguments and rejects a mismatch, so a checkpoint can never be
//! silently continued under a different plan.

use crate::plan::ExecConfig;
use crate::schedule::{grid_to_planes, plane_extents, planes_to_grid, ExecSession, ScheduleParams};
use stencil_core::checkpoint::{CheckpointStore, Plane, Snapshot, FLAG_SEEDED_INPUT};
use stencil_core::{GridData, StencilKernel};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// FNV-1a 64 over the plan identity: kernel name, radius,
/// dimensionality, every weight's exact `f64` bits, the [`ExecConfig`]
/// toggle bits, the grid extents, and the fields of the default
/// [`ScheduleParams`] the run executes with. Any change to any of these
/// yields a different fingerprint, so resume rejects mismatched plans.
pub fn plan_fingerprint(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    struct Fnv(u64);
    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
            }
        }
        fn eat_u64(&mut self, v: u64) {
            self.eat(&v.to_le_bytes());
        }
    }
    let mut h = Fnv(OFFSET);
    h.eat(kernel.name.as_bytes());
    h.eat_u64(kernel.radius as u64);
    h.eat_u64(kernel.dims() as u64);
    match &kernel.weights {
        stencil_core::Weights::D1(w) => {
            for &v in w {
                h.eat_u64(v.to_bits());
            }
        }
        stencil_core::Weights::D2(m) => {
            for &v in m.as_slice() {
                h.eat_u64(v.to_bits());
            }
        }
        stencil_core::Weights::D3(planes) => {
            for m in planes {
                for &v in m.as_slice() {
                    h.eat_u64(v.to_bits());
                }
            }
        }
    }
    h.eat_u64(config.bits());
    h.eat_u64(extents.len() as u64);
    for &e in extents {
        h.eat_u64(e as u64);
    }
    let params = ScheduleParams::default();
    h.eat_u64(params.tile_rows as u64);
    h.eat_u64(params.tile_cols as u64);
    // the staging discipline, the MMA batch width and the fusion override
    // the LSC1 format once carried, at their only values (single, 1 and
    // none): kept so existing snapshots keep their fingerprints
    h.eat_u64(0);
    h.eat_u64(1);
    h.eat_u64(0);
    h.0
}

fn snapshot_planes(planes: &[GlobalArray]) -> Vec<Plane> {
    planes
        .iter()
        .map(|p| Plane { rows: p.rows(), cols: p.cols(), data: p.as_slice().to_vec() })
        .collect()
}

fn planes_from_snapshot(snap: &Snapshot) -> Vec<GlobalArray> {
    snap.planes.iter().map(|p| GlobalArray::from_vec(p.rows, p.cols, p.data.clone())).collect()
}

/// Checkpointing policy for [`run`] / [`resume`]: where snapshots go,
/// how often (in temporal steps), and the run identity recorded in each.
pub struct CkptPolicy<'a> {
    /// The snapshot directory + retention ring.
    pub store: &'a CheckpointStore,
    /// Snapshot whenever the step counter crosses a multiple of this
    /// (must be ≥ 1; applications advance `fusion` steps at once, so a
    /// snapshot lands on the first application boundary at or past each
    /// multiple).
    pub every: u64,
    /// Input-generation seed recorded in the snapshot.
    pub seed: u64,
    /// Executor name recorded in the snapshot.
    pub method: &'a str,
}

/// Why a checkpointed run or resume failed.
#[derive(Debug)]
pub enum CkptRunError {
    /// Snapshot persistence failed.
    Io(std::io::Error),
    /// The snapshot's plan fingerprint disagrees with the resuming plan.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        stored: u64,
        /// Fingerprint of the plan the caller asked to resume under.
        computed: u64,
        /// What the snapshot said it was running (kernel, config, extents).
        snapshot_identity: String,
    },
    /// The snapshot claims more completed steps than the run's total.
    StepBeyondTotal {
        /// Steps the snapshot has completed.
        step: u64,
        /// Steps the run was asked for.
        total: u64,
    },
}

impl std::fmt::Display for CkptRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptRunError::Io(e) => write!(f, "checkpoint write failed: {e}"),
            CkptRunError::FingerprintMismatch { stored, computed, snapshot_identity } => write!(
                f,
                "plan fingerprint mismatch: snapshot was taken under {snapshot_identity} \
                 (fingerprint {stored:#018x}) but resume would run {computed:#018x} — \
                 rerun with the kernel/config/size the checkpoint records"
            ),
            CkptRunError::StepBeyondTotal { step, total } => write!(
                f,
                "snapshot has already completed {step} of {total} requested steps — \
                 nothing to resume (raise --iters to continue further)"
            ),
        }
    }
}

impl std::error::Error for CkptRunError {}

impl From<std::io::Error> for CkptRunError {
    fn from(e: std::io::Error) -> Self {
        CkptRunError::Io(e)
    }
}

/// The result of a checkpointed run: the final grid, the counters over
/// **all** completed steps (including pre-resume ones), the plan's block
/// resources, and how many snapshots this invocation wrote.
#[derive(Debug)]
pub struct CkptOutcome {
    /// Final state after `steps_total` steps.
    pub output: GridData,
    /// Counters accumulated over every step since step 0.
    pub counters: PerfCounters,
    /// Per-block resources of the executed plan.
    pub block: BlockResources,
    /// Snapshots written by this invocation.
    pub snapshots_written: usize,
}

/// The snapshot side of a checkpointed loop, single-device or
/// distributed: it counts steps and, whenever an application crosses a
/// multiple of `policy.every`, saves one LSC1 [`Snapshot`] of the run.
/// The identity fields (fingerprint, kernel, config, extents, seed,
/// method, rng) are fixed at construction; the state is asked for only
/// on a crossing, so a distributed run gathers its shards only then.
pub struct Checkpointer<'a> {
    store: &'a CheckpointStore,
    /// Holds the run identity; `step`, `counters` and `planes` are
    /// filled in per save.
    snap: Snapshot,
    written: usize,
}

impl<'a> Checkpointer<'a> {
    /// Start counting at `start_step` of a `total`-step run of `kernel`
    /// under `config` on a grid of `extents`. `rng` is recorded as is.
    pub fn new(
        policy: &CkptPolicy<'a>,
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        start_step: u64,
        total: u64,
        rng: [u64; 4],
    ) -> Self {
        assert!(policy.every >= 1, "CLI validation rejects --checkpoint-every < 1");
        let snap = Snapshot {
            flags: FLAG_SEEDED_INPUT,
            fingerprint: plan_fingerprint(kernel, config, extents),
            step: start_step,
            steps_total: total,
            every: policy.every,
            seed: policy.seed,
            rng,
            kernel: kernel.name.clone(),
            config: config.tag(),
            method: policy.method.to_string(),
            extents: extents.to_vec(),
            counters: PerfCounters::new(),
            planes: Vec::new(),
        };
        Checkpointer { store: policy.store, snap, written: 0 }
    }

    /// Count an application that advanced `advance` steps. If the step
    /// counter crossed a multiple of `every`, save a snapshot of the
    /// counters and planes `state()` returns (called only then).
    pub fn advance(
        &mut self,
        advance: u64,
        state: impl FnOnce() -> (PerfCounters, Vec<Plane>),
    ) -> std::io::Result<()> {
        let (step, every) = (self.snap.step, self.snap.every);
        self.snap.step += advance;
        if (step + advance) / every > step / every {
            (self.snap.counters, self.snap.planes) = state();
            self.store.save(&self.snap)?;
            self.snap.planes = Vec::new();
            self.written += 1;
        }
        Ok(())
    }

    /// Snapshots saved so far.
    pub fn written(&self) -> usize {
        self.written
    }
}

/// The checkpointed time loop shared by [`run`] and [`resume`]: the
/// schedule's time loop from `start_step` to `total`, with a
/// per-application [`Checkpointer`] hook. `counters` carries the
/// pre-resume accumulation (zero for a fresh run).
#[allow(clippy::too_many_arguments)]
fn run_loop(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    extents: &[usize],
    start_step: u64,
    total: u64,
    counters: PerfCounters,
    rng: [u64; 4],
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    let mut ckpt = Checkpointer::new(policy, kernel, config, extents, start_step, total, rng);
    let remaining = (total - start_step) as usize;
    let mut session =
        ExecSession::for_run(kernel, config, ScheduleParams::default(), planes, remaining);
    let counters = session.run_from(remaining, counters, |advance, planes, counters| {
        ckpt.advance(advance as u64, || (*counters, snapshot_planes(planes)))
    })?;
    Ok(CkptOutcome {
        output: planes_to_grid(session.planes(), extents.len()),
        counters,
        block: session.block(),
        snapshots_written: ckpt.written(),
    })
}

/// Run `total` steps from a fresh input, snapshotting per `policy`.
pub fn run(
    kernel: &StencilKernel,
    config: ExecConfig,
    input: &GridData,
    total: u64,
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    let planes = grid_to_planes(input);
    let extents = plane_extents(&planes, input.dims());
    run_loop(kernel, config, planes, &extents, 0, total, PerfCounters::new(), [0; 4], policy)
}

/// Check that `snap` may be resumed under `(kernel, config)`: its plan
/// fingerprint must match the one recomputed from `(kernel, config,
/// snap.extents)` — a checkpoint is never silently continued under a
/// different plan — and it must have steps left to run. Every resume
/// path, single-device or distributed, checks through this.
pub fn check_resumable(
    kernel: &StencilKernel,
    config: ExecConfig,
    snap: &Snapshot,
) -> Result<(), CkptRunError> {
    let computed = plan_fingerprint(kernel, config, &snap.extents);
    if computed != snap.fingerprint {
        return Err(CkptRunError::FingerprintMismatch {
            stored: snap.fingerprint,
            computed,
            snapshot_identity: format!(
                "kernel {:?}, config {:?}, size {:?}",
                snap.kernel, snap.config, snap.extents
            ),
        });
    }
    if snap.step >= snap.steps_total {
        return Err(CkptRunError::StepBeyondTotal { step: snap.step, total: snap.steps_total });
    }
    Ok(())
}

/// Resume from a recovered snapshot and run to `snap.steps_total`,
/// continuing to snapshot per `policy`. Rejects the snapshot as
/// [`check_resumable`] does.
pub fn resume(
    kernel: &StencilKernel,
    config: ExecConfig,
    snap: &Snapshot,
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    check_resumable(kernel, config, snap)?;
    run_loop(
        kernel,
        config,
        planes_from_snapshot(snap),
        &snap.extents,
        snap.step,
        snap.steps_total,
        snap.counters,
        snap.rng,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use stencil_core::{kernels, Grid2D};

    fn store(name: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("lorastencil-ckptmod-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, keep).unwrap()
    }

    fn grid_2d() -> GridData {
        GridData::D2(Grid2D::from_fn(24, 24, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.25))
    }

    #[test]
    fn fingerprint_separates_kernel_config_and_extents() {
        let k = kernels::box_2d9p();
        let base = plan_fingerprint(&k, ExecConfig::full(), &[64, 64]);
        let cfg = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        assert_ne!(base, plan_fingerprint(&k, cfg, &[64, 64]), "config toggles change it");
        assert_ne!(base, plan_fingerprint(&k, ExecConfig::full(), &[64, 65]), "extents change it");
        let k2 = kernels::heat_2d();
        assert_ne!(base, plan_fingerprint(&k2, ExecConfig::full(), &[64, 64]), "kernel changes it");
        // a weight perturbation alone (same name/radius) changes it
        let mut kw = k.clone();
        if let stencil_core::Weights::D2(m) = &mut kw.weights {
            let v = m.get(0, 0);
            m.set(0, 0, v + 1e-9);
        }
        assert_ne!(base, plan_fingerprint(&kw, ExecConfig::full(), &[64, 64]));
        // and it is deterministic
        assert_eq!(base, plan_fingerprint(&k, ExecConfig::full(), &[64, 64]));
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bit_for_bit() {
        let k = kernels::box_2d9p();
        let st = store("match-plain", 8);
        let policy = CkptPolicy { store: &st, every: 2, seed: 7, method: "LoRAStencil" };
        let out = run(&k, ExecConfig::full(), &grid_2d(), 9, &policy).unwrap();
        let (planes, counters, _) =
            schedule::run(&k, ExecConfig::full(), grid_to_planes(&grid_2d()), 9);
        assert_eq!(out.output, planes_to_grid(&planes, 2));
        assert_eq!(out.counters, counters, "{:?}", out.counters.diff(&counters));
        assert!(out.snapshots_written > 0);
    }

    #[test]
    fn resume_rejects_mismatched_fingerprints() {
        let k = kernels::box_2d9p();
        let st = store("fp-mismatch", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid_2d(), 7, &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.step, 6, "mid-run snapshot: one step remains");
        // wrong kernel
        let err = resume(&kernels::heat_2d(), ExecConfig::full(), &snap, &policy).unwrap_err();
        assert!(matches!(err, CkptRunError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("Box-2D9P"), "names the recorded kernel: {err}");
        // wrong config
        let cfg =
            ExecConfig { backend: crate::plan::DeviceBackend::CudaCore, ..ExecConfig::full() };
        assert!(matches!(
            resume(&k, cfg, &snap, &policy),
            Err(CkptRunError::FingerprintMismatch { .. })
        ));
        // correct plan resumes fine
        assert!(resume(&k, ExecConfig::full(), &snap, &policy).is_ok());
    }

    /// Fingerprints that snapshots already on disk carry: a change to
    /// what `plan_fingerprint` hashes must not move them, or those
    /// snapshots stop resuming.
    #[test]
    fn fingerprints_of_existing_snapshots_are_pinned() {
        let full = ExecConfig::full();
        for (k, extents, want) in [
            (kernels::heat_1d(), vec![4096], 0x0478_1e07_ac5d_0061u64),
            (kernels::box_2d9p(), vec![64, 64], 0x7880_7622_7bfe_5c64),
            (kernels::heat_3d(), vec![16, 16, 16], 0x7a8a_75a8_ff72_690f),
            (kernels::box_2d9p(), vec![24, 24], 0x8185_c674_5e04_1764),
        ] {
            assert_eq!(plan_fingerprint(&k, full, &extents), want, "{} {extents:?}", k.name);
        }
    }

    /// A checked-in LSC1 snapshot (Box-2D9P on `grid_2d()`, full config,
    /// 8 steps with `every` 3, taken after step 3) resumes to the state
    /// and counters of an uninterrupted run: one fused application and
    /// the two-step unfused remainder.
    #[test]
    fn a_stored_snapshot_resumes_to_the_uninterrupted_run() {
        let bytes = include_bytes!("../testdata/box2d9p-24x24-step3-of-8.lscp");
        let snap = stencil_core::checkpoint::decode(bytes).unwrap();
        assert_eq!((snap.step, snap.steps_total), (3, 8));
        let k = kernels::box_2d9p();
        let st = store("stored-snapshot", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        let out = resume(&k, ExecConfig::full(), &snap, &policy).unwrap();
        let (planes, counters, _) =
            schedule::run(&k, ExecConfig::full(), grid_to_planes(&grid_2d()), 8);
        assert_eq!(out.output, planes_to_grid(&planes, 2));
        assert_eq!(out.counters, counters, "{:?}", out.counters.diff(&counters));
    }

    #[test]
    fn resume_past_the_end_is_an_error() {
        let k = kernels::box_2d9p();
        let st = store("past-end", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid_2d(), 6, &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.step, 6, "final step was snapshotted");
        let err = resume(&k, ExecConfig::full(), &snap, &policy).unwrap_err();
        assert!(matches!(err, CkptRunError::StepBeyondTotal { step: 6, total: 6 }));
        assert!(err.to_string().contains("--iters"), "suggests the fix: {err}");
    }

    #[test]
    fn snapshots_land_on_application_boundaries() {
        // fusion 3 with every=2: boundaries at 3, 6, 9 → snapshots at
        // 3 (crossed 2), 6 (crossed 4 and 6) and 9 (crossed 8)
        let k = kernels::box_2d9p(); // fuses 3×
        let st = store("boundaries", 16);
        let policy = CkptPolicy { store: &st, every: 2, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid_2d(), 9, &policy).unwrap();
        let steps: Vec<u64> = st.list().unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(steps, vec![3, 6, 9]);
    }
}
