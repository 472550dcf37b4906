//! The dimension-generic execution IR (the *schedule*) and its lowering.
//!
//! The paper's §IV point is that RDG/PMA/BVS are **one** algorithm
//! instantiated per dimension. This module makes that literal: a
//! [`Plan`] of any dimensionality lowers to one [`Schedule`] — a flat
//! sequence of [`Op`]s describing what one warp does per output tile —
//! and a single interpreter ([`crate::schedule::Stepper`]) executes that
//! sequence, for every backend, with one compiled job loop per host ISA.
//! The dimensions differ only in their lowering rule
//! ([`Schedule::lower`]): 1-D is one banded MM, 2-D one decomposition,
//! and 3-D a superposition of 2-D planes (§IV-C, Algorithm 2). 2-D and
//! 3-D schedules run one 8-row strip of a job row at a time; the
//! per-sub-tile walk runs 1-D and the tensor-core fallback (see
//! `stepper`).
//!
//! Lowering is where every [`ExecConfig`] toggle is resolved:
//!
//! * `backend` becomes the [`BackendKind`] and decides whether weight
//!   fragments are prebuilt — per term 2:4-compressed where possible
//!   for the sparse backend — or the scalar backends read the raw
//!   `u`/`v` vectors (1-D always gathers on the dense tensor cores — its
//!   single banded MM *is* the algorithm, §IV-C).
//! * `use_bvs` selects the step-2 accumulator split ([`AccSplit`]): the
//!   BVS permutation is baked into the prebuilt `V` fragments (Eq. 17),
//!   which is why BVS lives in lowering and not in the interpreter — at
//!   interpretation time both splits run the same MMA chain.
//! * `use_async_copy` becomes the staged [`CopyMode`].
//! * `allow_fusion` already happened at planning (the fused
//!   `exec_kernel`); the schedule records the resulting
//!   [`Schedule::fuse_steps`] so one interpreted application advances
//!   that many temporal steps.
//!
//! Grids enter and leave the interpreter as plane lists; [`grid_to_planes`]
//! and [`planes_to_grid`] are the one conversion between the two.
//!
//! [`ExecConfig`]: crate::plan::ExecConfig

mod backend;
#[cfg(test)]
mod exec_tests;
mod params;
mod planes;
mod scratch;
mod session;
mod stepper;

pub use backend::band_fallbacks;
pub use params::{ScheduleParams, Staging};
pub(crate) use planes::plane_extents;
pub use planes::{grid_to_planes, planes_to_grid};
pub use session::ExecSession;
pub(crate) use stepper::run_with_plans;
pub use stepper::{apply_once, host_isa, run, run_tuned, Stepper, Workspace};

use crate::decompose::{Decomposition, RankOneTerm};
use crate::plan::{Plan, PlanKind, PlaneOp};
use crate::rdg::{RdgGeometry, TermFrags};
use tcu_sim::{CopyMode, FragB, MMA_K, MMA_N};

/// One step of the per-tile warp program.
///
/// `dz` indexes the input plane relative to the output plane (`dz = h`
/// is the center plane); 1-D and 2-D schedules have a single plane and
/// always address it through `dz = h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Stage the input window of plane `dz` into shared-memory slot
    /// `slot` (global → shared, `cp.async` or register-staged per
    /// [`Schedule::copy_mode`]). Single-staged schedules always use slot
    /// 0; double-staged schedules ping-pong between the two slots so the
    /// next plane's halo loads overlap the live slot's MMA chain.
    Stage {
        /// Relative input plane (`h` = center).
        dz: usize,
        /// Shared-memory window slot (0 or 1).
        slot: u8,
    },
    /// Load the staged tile's B fragments from shared-memory slot `slot`
    /// (shared → registers), charging the Eq. 12 shared-load requests.
    FragBuild {
        /// Shared-memory window slot to read (0 or 1).
        slot: u8,
    },
    /// The fused 1-D stage+gather (§IV-C): pack 8 overlapping
    /// `seg_len`-long segments as matrix rows and gather them with the
    /// single banded MM — no dimension residue, so no separate
    /// `FragBuild`/`MmaChain` ops.
    RdgGather,
    /// Run the RDG matrix chain `acc += U·X·V` for rank-1 term
    /// [`Schedule::terms`]`[term]` against the currently staged
    /// fragments. Consecutive chains reuse the same X fragments
    /// (the §III-C fragment-reuse property).
    MmaChain {
        /// Index into [`Schedule::terms`].
        term: u16,
    },
    /// Add the pointwise pyramid tip of the current decomposition
    /// (`weight` may be `0.0` for tip-less decompositions: the op still
    /// delimits the chain).
    Pointwise {
        /// Center tap weight (the 1×1 pyramid term).
        weight: f64,
    },
    /// A single-weight 3-D plane (Algorithm 2 line 5): point-wise MAC of
    /// plane `dz` on CUDA cores, no staging.
    PointwisePlane {
        /// Relative input plane.
        dz: usize,
        /// The plane's single (center) weight.
        weight: f64,
    },
    /// An all-zero 3-D plane: nothing to do (kept in the IR so listings
    /// and audits see the full `2h+1`-plane structure).
    SkipPlane {
        /// Relative input plane.
        dz: usize,
    },
}

impl Op {
    /// Stable mnemonic of this op variant — the emitter vocabulary every
    /// code-generation target must cover. Adding an `Op` variant without
    /// extending this match (and [`Op::VOCABULARY`]) fails to compile,
    /// which is the compile-time half of the codegen exhaustiveness
    /// guard; the runtime half (stencil-verify's conformance check plus
    /// the exhaustiveness test) asserts every emitter renders a
    /// non-empty, anchored arm for each reachable mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Stage { .. } => "stage",
            Op::FragBuild { .. } => "frag_build",
            Op::RdgGather => "rdg_gather",
            Op::MmaChain { .. } => "mma_chain",
            Op::Pointwise { .. } => "pointwise",
            Op::PointwisePlane { .. } => "pointwise_plane",
            Op::SkipPlane { .. } => "skip_plane",
        }
    }

    /// Every op mnemonic, in declaration order (see [`Op::mnemonic`]).
    pub const VOCABULARY: [&'static str; 7] = [
        "stage",
        "frag_build",
        "rdg_gather",
        "mma_chain",
        "pointwise",
        "pointwise_plane",
        "skip_plane",
    ];
}

/// Step-2 accumulator split selected at lowering time (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccSplit {
    /// Butterfly Vector Swapping: even/odd column sets, compensated by
    /// pre-permuted `V` fragments — zero inter-thread shuffles (Eq. 17).
    Bvs,
    /// Natural `{0..4}`/`{4..8}` split: two shuffles per accumulator.
    Shuffle,
}

/// How the accumulators fold into the tile's output values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccFold {
    /// The MMA accumulator fragment is the whole result (1-D, 2-D TCU).
    FragOnly,
    /// Scalar values + MMA fragment accumulate side by side and merge at
    /// the end (3-D TCU: pointwise planes on CUDA cores, RDG planes on
    /// tensor cores).
    Merge,
    /// Scalar values only (any dimension with `use_tcu = false`).
    Vals,
}

/// Which device the compute ops are modeled on: a lowering result that
/// the term prebuild, the span names, the scalar issue charge and code
/// generation read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Simulated FP64 tensor cores.
    TcuF64,
    /// 2:4 structured-sparse tensor cores: compressible terms issue
    /// `mma.sp`, the rest fall back to the dense chain.
    SparseTcu,
    /// Scalar CUDA-core ablation path (Fig. 9 "RDG w/o TCU").
    CudaCore,
    /// Tuned SIMD path: the scalar evaluator at the SIMD issue charge.
    SimdCore,
}

/// One rank-1 term as lowered: the term itself (the scalar strip
/// evaluator and the CUDA listing emitter read the raw `u`/`v` vectors)
/// plus the prebuilt weight fragments when a tensor-core backend is
/// selected.
#[derive(Debug, Clone)]
pub struct LoweredTerm {
    /// The rank-1 factor pair.
    pub term: RankOneTerm,
    /// Prebuilt `U`/`V` fragments (split-permuted per [`AccSplit`]);
    /// `None` on the scalar backends.
    pub frags: Option<TermFrags>,
}

/// A lowered plan: the per-tile op sequence plus everything the
/// interpreter needs that does not depend on the input tile. Built once
/// per [`Workspace`] and reused by every tile of every step.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Kernel dimensionality (1, 2 or 3).
    pub dims: usize,
    /// Radius of the executed (possibly fused) kernel.
    pub h: usize,
    /// Tile geometry (2-D staging window; 1-D stages `seg_len` instead).
    pub geo: RdgGeometry,
    /// Padded 1-D segment length (0 unless `dims == 1`).
    pub seg_len: usize,
    /// Global→shared staging mode (`use_async_copy` lowered).
    pub copy_mode: CopyMode,
    /// Job-tile height in grid rows ([`ScheduleParams::tile_rows`]; the
    /// interpreter still computes 8×8 sub-tiles inside each job).
    pub tile_h: usize,
    /// Job-tile width in grid columns ([`ScheduleParams::tile_cols`];
    /// 1-D jobs cover `8 · tile_w` points).
    pub tile_w: usize,
    /// Staging discipline (how many shared window slots the ops use).
    pub staging: params::Staging,
    /// Step-1 MMA chain batch width ([`ScheduleParams::mma_batch`]).
    pub mma_batch: usize,
    /// Temporal steps one application advances (`allow_fusion` lowered).
    pub fuse_steps: usize,
    /// Step-2 accumulator split (`use_bvs` lowered).
    pub split: AccSplit,
    /// Backend selection (`use_tcu` lowered; 1-D is always tensor-core).
    pub backend: BackendKind,
    /// Accumulator fold at the end of the op sequence.
    pub fold: AccFold,
    /// The per-tile warp program.
    pub ops: Vec<Op>,
    /// All rank-1 terms of the schedule, in op order (3-D concatenates
    /// the planes' decompositions; [`Op::MmaChain`] indexes into this).
    pub terms: Vec<LoweredTerm>,
    /// The 1-D banded `V` fragments (empty unless `dims == 1`).
    pub v1d: Vec<tcu_sim::FragB>,
    /// Whether the schedule runs on strips: 2-D/3-D, and on the tensor
    /// cores every term carries band tables (`S ≤ BAND_MAX_S`). Derived
    /// from the lowering, never chosen.
    pub(crate) on_strips: bool,
}

impl Schedule {
    /// Lower a plan to its execution schedule: the dimension's lowering
    /// rule emits the op list, then every weight fragment prebuilds here,
    /// once, under the `frag_build` span.
    pub fn lower(plan: &Plan) -> Schedule {
        let use_tcu = plan.config.use_tcu();
        let dims = plan.dims();
        // Double staging exists to overlap the next window's halo loads
        // with the live MMA chain — the 1-D gather has no Stage op and
        // the scalar backend has no tensor pipeline to overlap (and its
        // single accumulator would make the pipelined plane regrouping
        // visible in FP bits), so both resolve to Single.
        let staging =
            if dims >= 2 && use_tcu { plan.params.staging } else { params::Staging::Single };
        let mut sched = Schedule {
            dims,
            h: plan.exec_kernel.radius,
            geo: plan.geo,
            seg_len: 0,
            copy_mode: if plan.config.use_async_copy { CopyMode::Async } else { CopyMode::Staged },
            tile_h: plan.params.tile_rows,
            tile_w: plan.params.tile_cols,
            staging,
            mma_batch: plan.params.mma_batch,
            fuse_steps: plan.fusion,
            split: if plan.config.use_bvs { AccSplit::Bvs } else { AccSplit::Shuffle },
            // the 1-D gather is a single banded MM — running it anywhere
            // but the dense tensor cores would not be the §IV-C algorithm
            // (its banded V is the B operand, so 2:4 A compression does
            // not apply either)
            backend: if dims == 1 {
                BackendKind::TcuF64
            } else {
                match plan.config.backend {
                    crate::plan::DeviceBackend::TcuF64 => BackendKind::TcuF64,
                    crate::plan::DeviceBackend::SparseTcu => BackendKind::SparseTcu,
                    crate::plan::DeviceBackend::CudaCore => BackendKind::CudaCore,
                    crate::plan::DeviceBackend::SimdCore => BackendKind::SimdCore,
                }
            },
            fold: match (dims, use_tcu) {
                (1, _) | (2, true) => AccFold::FragOnly,
                (3, true) => AccFold::Merge,
                _ => AccFold::Vals,
            },
            ops: Vec::new(),
            terms: Vec::new(),
            v1d: Vec::new(),
            on_strips: false,
        };
        match &plan.kind {
            PlanKind::D1 { seg_len } => sched.lower_1d(*seg_len),
            PlanKind::D2 { decomp } => sched.lower_2d(decomp),
            PlanKind::D3 { plane_ops } if staging == params::Staging::Double => {
                sched.lower_3d_double(plane_ops)
            }
            PlanKind::D3 { plane_ops } => sched.lower_3d(plane_ops),
        }
        {
            // all weight fragments prebuild here (they depend only on the
            // plan): U/V term fragments on the TCU backend, the banded V
            // of the 1-D gather always
            let _frag_build = foundation::obs::span("frag_build");
            if use_tcu {
                let sparse = sched.backend == BackendKind::SparseTcu;
                for lt in &mut sched.terms {
                    lt.frags = Some(if sparse {
                        TermFrags::build_sparse(&lt.term, sched.geo, plan.config.use_bvs)
                    } else {
                        TermFrags::build(&lt.term, sched.geo, plan.config.use_bvs)
                    });
                }
            }
            if sched.dims == 1 {
                sched.v1d = build_v_frags(plan.exec_kernel.weights_1d(), sched.seg_len);
            }
        }
        // the scalar terms need no tables; every tensor-core term shares
        // the geometry, so all have band tables or none
        sched.on_strips = dims >= 2
            && sched.terms.iter().all(|lt| lt.frags.as_ref().is_none_or(TermFrags::has_band));
        sched
    }

    /// Drop every term's band tables, so the interpreter runs the
    /// lane-exact per-sub-tile fragment walk throughout (the strip-vs-fragment
    /// differential tests' reference; tensor-core schedules only).
    #[cfg(test)]
    pub(crate) fn drop_band_tables(&mut self) {
        for lt in &mut self.terms {
            if let Some(tf) = lt.frags.as_mut() {
                tf.drop_band();
            }
        }
        self.on_strips = false;
    }

    /// 1-D rule (§IV-C): a 1-D stencil has no dimension residue, so the
    /// whole tile program is one fused [`Op::RdgGather`] — eight
    /// overlapping `seg_len`-long input segments as the rows of `X`,
    /// gathered by the banded weight matrix `V` (Eq. 11) to update 64
    /// points at once.
    fn lower_1d(&mut self, seg_len: usize) {
        self.seg_len = seg_len;
        self.ops.push(Op::RdgGather);
    }

    /// 2-D rule: stage the (single) plane, build the X fragments, then
    /// the decomposition. 2-D has one plane per job, so double staging
    /// shows up as cross-job slot parity in the interpreter, not in the
    /// op list: slot 0 here.
    fn lower_2d(&mut self, decomp: &Decomposition) {
        self.ops.push(Op::Stage { dz: self.h, slot: 0 });
        self.ops.push(Op::FragBuild { slot: 0 });
        self.push_decomp(decomp);
    }

    /// 3-D rule (Algorithm 2): one op group per z-plane, in plane order —
    /// `SkipPlane` for zero planes, `PointwisePlane` for single-weight
    /// planes (CUDA cores, no dependency gathering), and the 2-D
    /// stage/frag/chain/tip sequence for planes needing 2-D gathering.
    /// Every plane accumulates into the same output tile.
    fn lower_3d(&mut self, plane_ops: &[PlaneOp]) {
        for (dz, op) in plane_ops.iter().enumerate() {
            match op {
                PlaneOp::Skip => self.ops.push(Op::SkipPlane { dz }),
                PlaneOp::Pointwise(w) => self.ops.push(Op::PointwisePlane { dz, weight: *w }),
                PlaneOp::Rdg(decomp) => {
                    self.ops.push(Op::Stage { dz, slot: 0 });
                    self.ops.push(Op::FragBuild { slot: 0 });
                    self.push_decomp(decomp);
                }
            }
        }
    }

    /// The 3-D rule under [`Staging::Double`]: the RDG planes are
    /// software-pipelined, staging the next plane's window into the idle
    /// slot before the current slot's fragments are consumed, so the
    /// halo loads overlap the MMA chain. Scalar planes come first, in
    /// plane order (their accumulator is separate from the MMA fragment,
    /// so regrouping keeps every FP addition order — and therefore every
    /// output bit — intact), then `Stage(p₀ → slot 0); for each RDG plane
    /// i: Stage(p_{i+1} → slot (i+1)&1) if any, FragBuild(slot i&1),
    /// chains, tip`.
    fn lower_3d_double(&mut self, plane_ops: &[PlaneOp]) {
        let mut rdg = Vec::new();
        for (dz, op) in plane_ops.iter().enumerate() {
            match op {
                PlaneOp::Skip => self.ops.push(Op::SkipPlane { dz }),
                PlaneOp::Pointwise(w) => self.ops.push(Op::PointwisePlane { dz, weight: *w }),
                PlaneOp::Rdg(decomp) => rdg.push((dz, decomp)),
            }
        }
        if let Some(&(dz0, _)) = rdg.first() {
            self.ops.push(Op::Stage { dz: dz0, slot: 0 });
        }
        for (i, &(_, decomp)) in rdg.iter().enumerate() {
            if let Some(&(dz_next, _)) = rdg.get(i + 1) {
                self.ops.push(Op::Stage { dz: dz_next, slot: ((i + 1) & 1) as u8 });
            }
            self.ops.push(Op::FragBuild { slot: (i & 1) as u8 });
            self.push_decomp(decomp);
        }
    }

    /// One decomposition against the staged fragments: an MMA chain per
    /// rank-1 term, then the pyramid tip. The `Pointwise` op is emitted
    /// even for a zero tip so every chain has a delimiter.
    fn push_decomp(&mut self, decomp: &Decomposition) {
        for term in &decomp.terms {
            let idx = self.terms.len() as u16;
            self.terms.push(LoweredTerm { term: term.clone(), frags: None });
            self.ops.push(Op::MmaChain { term: idx });
        }
        self.ops.push(Op::Pointwise { weight: decomp.pointwise });
    }
}

/// Build the banded `V` fragments for the 1-D weights: `S/4` B-fragments
/// of the `S×8` matrix `V[c][q] = w[c − q − 0]` band (`V[q + k][q] = w[k]`).
fn build_v_frags(w: &[f64], seg_len: usize) -> Vec<FragB> {
    let mut dense = vec![[0.0f64; MMA_N]; seg_len];
    for q in 0..MMA_N {
        for (k, &wk) in w.iter().enumerate() {
            let r = q + k;
            debug_assert!(r < seg_len);
            dense[r][q] = wk;
        }
    }
    (0..seg_len / MMA_K)
        .map(|blk| {
            let mut f = FragB::zero();
            for k in 0..MMA_K {
                for q in 0..MMA_N {
                    f.set(k, q, dense[blk * MMA_K + k][q]);
                }
            }
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecConfig;
    use stencil_core::kernels;

    #[test]
    fn two_d_schedule_is_stage_frags_chains_tip() {
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let s = Schedule::lower(&plan);
        assert_eq!(s.dims, 2);
        assert_eq!(s.backend, BackendKind::TcuF64);
        assert_eq!(s.fold, AccFold::FragOnly);
        assert_eq!(s.split, AccSplit::Bvs);
        let n = plan.decomp().num_terms();
        assert_eq!(s.terms.len(), n);
        assert!(s.terms.iter().all(|t| t.frags.is_some()));
        let mut want = vec![Op::Stage { dz: s.h, slot: 0 }, Op::FragBuild { slot: 0 }];
        want.extend((0..n as u16).map(|t| Op::MmaChain { term: t }));
        want.push(Op::Pointwise { weight: plan.decomp().pointwise });
        assert_eq!(s.ops, want);
    }

    #[test]
    fn toggles_become_lowering_decisions() {
        let k = kernels::box_2d9p();
        let s = Schedule::lower(&Plan::new(
            &k,
            ExecConfig {
                backend: crate::plan::DeviceBackend::CudaCore,
                use_bvs: false,
                use_async_copy: false,
                allow_fusion: true,
            },
        ));
        assert_eq!(s.backend, BackendKind::CudaCore);
        assert_eq!(s.fold, AccFold::Vals);
        assert_eq!(s.split, AccSplit::Shuffle);
        assert_eq!(s.copy_mode, CopyMode::Staged);
        assert!(s.terms.iter().all(|t| t.frags.is_none()), "no fragments off the TCU");
        assert_eq!(s.fuse_steps, 3, "fusion survives lowering");
    }

    #[test]
    fn sparse_and_simd_backends_lower_like_their_dense_siblings() {
        use crate::plan::DeviceBackend;
        let k = kernels::box_2d49p();
        let sparse = Schedule::lower(&Plan::new(
            &k,
            ExecConfig { backend: DeviceBackend::SparseTcu, ..ExecConfig::full() },
        ));
        assert_eq!(sparse.backend, BackendKind::SparseTcu);
        assert_eq!(sparse.fold, AccFold::FragOnly, "sparse folds like TcuF64");
        assert!(sparse.terms.iter().all(|t| t.frags.is_some()), "fragments prebuild");

        let simd = Schedule::lower(&Plan::new(
            &k,
            ExecConfig { backend: DeviceBackend::SimdCore, ..ExecConfig::full() },
        ));
        assert_eq!(simd.backend, BackendKind::SimdCore);
        assert_eq!(simd.fold, AccFold::Vals, "simd folds like CudaCore");
        assert!(simd.terms.iter().all(|t| t.frags.is_none()));

        // 1-D stays on the dense tensor cores for every backend
        for backend in DeviceBackend::all() {
            let s = Schedule::lower(&Plan::new(
                &kernels::heat_1d(),
                ExecConfig { backend, ..ExecConfig::full() },
            ));
            assert_eq!(s.backend, BackendKind::TcuF64, "{backend:?}");
        }
    }

    #[test]
    fn one_d_schedule_is_one_gather() {
        let plan = Plan::new(&kernels::heat_1d(), ExecConfig::full());
        let s = Schedule::lower(&plan);
        assert_eq!(s.ops, vec![Op::RdgGather]);
        assert_eq!(s.seg_len, 16);
        assert_eq!(s.v1d.len(), 16 / tcu_sim::MMA_K);
        assert!(s.terms.is_empty(), "1-D needs no decomposition (§IV-C)");
        // the 1-D single-banded-MM runs on tensor cores in every config
        let scalar =
            ExecConfig { backend: crate::plan::DeviceBackend::CudaCore, ..ExecConfig::full() };
        assert_eq!(
            Schedule::lower(&Plan::new(&kernels::heat_1d(), scalar)).backend,
            BackendKind::TcuF64
        );
    }

    #[test]
    fn double_staged_3d_schedule_pipelines_the_rdg_planes() {
        let params = ScheduleParams { staging: Staging::Double, ..ScheduleParams::default() };
        // Box-3D27P: three RDG planes, no scalar ones
        let plan = Plan::new_with_params(&kernels::box_3d27p(), ExecConfig::full(), params);
        let s = Schedule::lower(&plan);
        assert_eq!(s.staging, Staging::Double);
        let PlanKind::D3 { plane_ops } = &plan.kind else { panic!("3-D plan") };
        let decomps: Vec<&Decomposition> = plane_ops
            .iter()
            .map(|op| match op {
                PlaneOp::Rdg(d) => d,
                _ => panic!("every Box-3D27P plane gathers in 2-D"),
            })
            .collect();
        let mut want = Vec::new();
        let mut term = 0u16;
        let mut decomp = |want: &mut Vec<Op>, d: &Decomposition| {
            for _ in &d.terms {
                want.push(Op::MmaChain { term });
                term += 1;
            }
            want.push(Op::Pointwise { weight: d.pointwise });
        };
        want.extend([Op::Stage { dz: 0, slot: 0 }, Op::Stage { dz: 1, slot: 1 }]);
        want.push(Op::FragBuild { slot: 0 });
        decomp(&mut want, decomps[0]);
        want.extend([Op::Stage { dz: 2, slot: 0 }, Op::FragBuild { slot: 1 }]);
        decomp(&mut want, decomps[1]);
        want.push(Op::FragBuild { slot: 0 });
        decomp(&mut want, decomps[2]);
        assert_eq!(s.ops, want);

        // Heat-3D: the scalar planes come first, in plane order, then the
        // one RDG plane
        let plan = Plan::new_with_params(&kernels::heat_3d(), ExecConfig::full(), params);
        let s = Schedule::lower(&plan);
        assert!(matches!(s.ops[0], Op::PointwisePlane { dz: 0, .. }));
        assert!(matches!(s.ops[1], Op::PointwisePlane { dz: 2, .. }));
        assert_eq!(s.ops[2..4], [Op::Stage { dz: 1, slot: 0 }, Op::FragBuild { slot: 0 }]);
        assert!(matches!(s.ops.last(), Some(Op::Pointwise { .. })));
    }

    #[test]
    fn three_d_schedule_covers_every_plane_in_order() {
        let plan = Plan::new(&kernels::heat_3d(), ExecConfig::full());
        let s = Schedule::lower(&plan);
        assert_eq!(s.fold, AccFold::Merge);
        // heat_3d: pointwise / rdg / pointwise planes
        assert!(matches!(s.ops[0], Op::PointwisePlane { dz: 0, .. }));
        assert_eq!(s.ops[1], Op::Stage { dz: 1, slot: 0 });
        assert_eq!(s.ops[2], Op::FragBuild { slot: 0 });
        assert!(matches!(s.ops.last(), Some(Op::PointwisePlane { dz: 2, .. })));
        // every dz shows up exactly once as a plane-selecting op
        let planes: Vec<usize> = s
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::Stage { dz, .. } | Op::PointwisePlane { dz, .. } | Op::SkipPlane { dz } => {
                    Some(dz)
                }
                _ => None,
            })
            .collect();
        assert_eq!(planes, vec![0, 1, 2]);
    }
}
