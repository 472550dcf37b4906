//! Closed-form counter model: the paper's Eq. 12/13/16 generalized to
//! functions of `(h, dim, times)` and asserted to the digit against the
//! simulator's measured [`PerfCounters`].
//!
//! Per (possibly fused) application of radius-`h'` LoRAStencil on an
//! `R×C` grid, with `S = max(16, 8⌈(8+2h')/8⌉)`, `rb = S/4`, `cb = S/8`,
//! `T = ⌈R/8⌉⌈C/8⌉` tiles and `t` decomposition terms:
//!
//! * **Eq. 12** — shared fragment loads: `T · rb · cb` (one B-fragment
//!   load per 4×8 block of the shared `X` tile; for `S = 16` this is the
//!   paper's `RC/8` — 8 points gathered per load).
//! * **Eq. 16** — MMA count: `T · t · (rb·cb + rb)`
//!   (`rb·cb` step-1 multiplies plus `2·cb = rb` step-2 gathers per
//!   term; `12·t` per tile at `S = 16`).
//! * **Fig. 9** — shuffles: `0` under BVS; the natural accumulator
//!   split pays `2` shuffles per half, i.e. `T · t · 4·cb`.
//! * **Eq. 13** — ConvStencil: `2⌈(2h+1)²/4⌉` fragments (= MMAs) per
//!   `8×(2h+2)` output chunk, `64/(8(2h+2))` chunks per 8×8 tile.
//! * **CUDA-core FLOPs** — per tile, `(2·n_t·8·S + 2·n_t·64 + 64)·ISSUE`
//!   for each `n_t`-tap term on a scalar backend (`ISSUE` = 14 for
//!   `CudaCore`, 2 for `SimdCore`, the tensor cores 0), 128 for each
//!   nonzero pyramid tip on every backend, and 2 per output point for
//!   each single-weight 3-D plane; 0 for 1-D.
//!
//! Temporal fusion splits `iterations` into `⌊iters/f⌋` applications of
//! the fused kernel (radius `h·f`) plus `iters mod f` base applications;
//! both sides of the split use the same per-application forms. The
//! fusion depth is the planner's: the forms take no schedule inputs,
//! since tile extents move no counter.

use baselines::ConvStencil;
use lorastencil::rdg::{term_is_sparse, CUDA_RDG_ISSUE_OVERHEAD, SIMD_RDG_ISSUE_OVERHEAD};
use lorastencil::{fusion, Decomposition, DeviceBackend, ExecConfig, LoRaStencil, Plan, PlaneOp};
use stencil_core::{StencilExecutor, StencilKernel};
use tcu_sim::PerfCounters;

use crate::gen::Case;
use crate::oracle::replay_hint;

/// The counter fields the closed forms predict exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prediction {
    /// Dense tensor-core MMA instructions (Eq. 16 generalized; under
    /// the sparse backend only the non-compressible terms and the
    /// always-dense step-2 gathers remain here).
    pub mma_ops: u64,
    /// Structured-sparse `mma.sp` instructions: `rb·cb` per
    /// 2:4-compressible term per tile, sparse backend only.
    pub mma_sp_ops: u64,
    /// Metadata-register loads: one per `U` fragment (`rb`) per
    /// compressible term per tile, reused across column blocks.
    pub metadata_loads: u64,
    /// Warp-level shared-memory load requests from fragment loads
    /// (Eq. 12 generalized).
    pub shared_load_requests: u64,
    /// Cross-lane shuffles: 0 under BVS, `t · 4·cb` per tile otherwise.
    pub shuffle_ops: u64,
    /// CUDA-core FLOPs: the scalar backends' term chains (times their
    /// issue overhead), the pyramid tips and the single-weight 3-D planes.
    pub cuda_flops: u64,
    /// Output bytes: every application writes the full grid once.
    pub global_bytes_written: u64,
    /// `iterations × grid points`, independent of fusion.
    pub points_updated: u64,
}

impl Prediction {
    /// `(field, predicted, measured)` for every field that disagrees.
    pub fn compare(&self, m: &PerfCounters) -> Vec<(&'static str, u64, u64)> {
        [
            ("mma_ops", self.mma_ops, m.mma_ops),
            ("mma_sp_ops", self.mma_sp_ops, m.mma_sp_ops),
            ("metadata_loads", self.metadata_loads, m.metadata_loads),
            ("shared_load_requests", self.shared_load_requests, m.shared_load_requests),
            ("shuffle_ops", self.shuffle_ops, m.shuffle_ops),
            ("cuda_flops", self.cuda_flops, m.cuda_flops),
            ("global_bytes_written", self.global_bytes_written, m.global_bytes_written),
            ("points_updated", self.points_updated, m.points_updated),
        ]
        .into_iter()
        .filter(|(_, want, got)| want != got)
        .collect()
    }

    /// `self + k · app` over the per-application fields (everything but
    /// the bytes written and the points updated).
    fn add_apps(mut self, k: u64, app: &Prediction) -> Self {
        self.mma_ops += k * app.mma_ops;
        self.mma_sp_ops += k * app.mma_sp_ops;
        self.metadata_loads += k * app.metadata_loads;
        self.shared_load_requests += k * app.shared_load_requests;
        self.shuffle_ops += k * app.shuffle_ops;
        self.cuda_flops += k * app.cuda_flops;
        self
    }
}

fn tiles_2d(rows: usize, cols: usize) -> u64 {
    (rows.div_ceil(8) * cols.div_ceil(8)) as u64
}

/// Per-tile RDG instruction counts of one decomposition under the
/// plan's backend: `(mma, mma_sp, metadata)`. The sparse split is
/// decided per term by the same [`term_is_sparse`] predicate the
/// executor's fragment prebuild uses, so model and measurement can
/// never disagree on which terms compress.
fn tile_term_counts(plan: &Plan, d: &Decomposition) -> (u64, u64, u64) {
    let geo = plan.geo;
    let (rb, cb) = (geo.row_blocks() as u64, geo.col_blocks() as u64);
    match plan.config.backend {
        DeviceBackend::CudaCore | DeviceBackend::SimdCore => (0, 0, 0),
        DeviceBackend::TcuF64 => (d.num_terms() as u64 * geo.mma_per_term(), 0, 0),
        DeviceBackend::SparseTcu => {
            let (mut mma, mut sp, mut meta) = (0, 0, 0);
            for t in &d.terms {
                if term_is_sparse(t, geo) {
                    // step 1 runs as mma.sp with one metadata load per U
                    // fragment; the step-2 gathers (rb of them) stay dense
                    mma += rb;
                    sp += rb * cb;
                    meta += rb;
                } else {
                    mma += geo.mma_per_term();
                }
            }
            (mma, sp, meta)
        }
    }
}

/// Per-tile CUDA-core FLOPs of one decomposition under the plan's
/// backend: each term's scalar chain, `(2·n_t·8·S + 2·n_t·64 + 64)`
/// times the backend's issue overhead (none on the tensor cores), plus
/// 128 for a nonzero pyramid tip on every backend.
fn tile_cuda_flops(plan: &Plan, d: &Decomposition) -> u64 {
    let issue = match plan.config.backend {
        DeviceBackend::CudaCore => CUDA_RDG_ISSUE_OVERHEAD,
        DeviceBackend::SimdCore => SIMD_RDG_ISSUE_OVERHEAD,
        DeviceBackend::TcuF64 | DeviceBackend::SparseTcu => 0,
    };
    let s = plan.geo.s as u64;
    let terms: u64 = d
        .terms
        .iter()
        .map(|t| {
            let n_t = t.u.len() as u64;
            (2 * n_t * 8 * s + 2 * n_t * 64 + 64) * issue
        })
        .sum();
    terms + if d.pointwise != 0.0 { 128 } else { 0 }
}

/// Per-tile counters of one decomposition under `plan`.
fn tile_decomp(plan: &Plan, d: &Decomposition) -> Prediction {
    let geo = plan.geo;
    let (rb, cb) = (geo.row_blocks() as u64, geo.col_blocks() as u64);
    let (mma_ops, mma_sp_ops, metadata_loads) = tile_term_counts(plan, d);
    let shuffle_ops = if plan.config.use_tcu() && !plan.config.use_bvs {
        d.num_terms() as u64 * 4 * cb
    } else {
        0
    };
    Prediction {
        mma_ops,
        mma_sp_ops,
        metadata_loads,
        shared_load_requests: rb * cb,
        shuffle_ops,
        cuda_flops: tile_cuda_flops(plan, d),
        ..Prediction::default()
    }
}

/// Per-application counters of the 2-D executor under `plan`.
fn app_2d(plan: &Plan, tiles: u64) -> Prediction {
    Prediction::default().add_apps(tiles, &tile_decomp(plan, plan.decomp()))
}

/// Per-application counters of the 3-D executor under `plan` on a grid
/// of `points` points (summed over the `nz × tiles` jobs).
fn app_3d(plan: &Plan, jobs: u64, points: u64) -> Prediction {
    let mut app = Prediction::default();
    for op in plan.plane_ops() {
        match op {
            PlaneOp::Rdg(d) => app = app.add_apps(jobs, &tile_decomp(plan, d)),
            PlaneOp::Pointwise(_) => app.cuda_flops += 2 * points,
            PlaneOp::Skip => {}
        }
    }
    app
}

/// Closed-form LoRAStencil counters for `kernel` on a grid of `extents`,
/// `iterations` time steps, feature set `config`.
///
/// Valid for every backend: the dense and sparse tensor-core paths
/// split per Eq. 16 and the 2:4 term predicate; the CUDA-core and SIMD
/// backends of the 2-D/3-D executors charge no MMAs but the same
/// fragment loads, and their term chains as CUDA-core FLOPs; the 1-D
/// executor has a single (dense-TCU) MMA path and no CUDA-core work.
///
/// Plans are [`Plan::new`]'s, with the default
/// [`ScheduleParams`](lorastencil::ScheduleParams), as the executors
/// plan them. Tile extents are counter-invariant by construction, so
/// the closed forms hold for any tiling too.
pub fn predict_lora(
    kernel: &StencilKernel,
    extents: &[usize],
    iterations: usize,
    config: ExecConfig,
) -> Prediction {
    let len: usize = extents.iter().product();
    let base_cfg = ExecConfig { allow_fusion: false, ..config };
    match *extents {
        [n] => {
            let plan = Plan::new(kernel, config);
            let full = (iterations / plan.fusion) as u64;
            let rem = (iterations % plan.fusion) as u64;
            let tiles = n.div_ceil(64) as u64;
            let app = tiles * (plan.seg_len() / 4) as u64;
            let base = tiles * (Plan::new(kernel, base_cfg).seg_len() / 4) as u64;
            // the 1-D gather is a single MM: loads ≡ MMAs, no shuffles
            // (and no sparse split — 1-D lowering is always dense TCU)
            let mma = full * app + rem * base;
            Prediction {
                mma_ops: mma,
                shared_load_requests: mma,
                global_bytes_written: (full + rem) * (n * 8) as u64,
                points_updated: (iterations * n) as u64,
                ..Prediction::default()
            }
        }
        [rows, cols] => {
            let plan = Plan::new(kernel, config);
            let full = (iterations / plan.fusion) as u64;
            let rem = (iterations % plan.fusion) as u64;
            let tiles = tiles_2d(rows, cols);
            let mut pred = Prediction::default().add_apps(full, &app_2d(&plan, tiles));
            if rem > 0 {
                let base = Plan::new(kernel, base_cfg);
                pred = pred.add_apps(rem, &app_2d(&base, tiles));
            }
            Prediction {
                global_bytes_written: (full + rem) * (len * 8) as u64,
                points_updated: (iterations * len) as u64,
                ..pred
            }
        }
        [nz, ny, nx] => {
            // 3-D is never fused (dimension residue, §IV-C)
            let plan = Plan::new(kernel, config);
            let jobs = nz as u64 * tiles_2d(ny, nx);
            let apps = iterations as u64;
            Prediction {
                global_bytes_written: apps * (len * 8) as u64,
                points_updated: (iterations * len) as u64,
                ..Prediction::default().add_apps(apps, &app_3d(&plan, jobs, len as u64))
            }
        }
        _ => unreachable!("extents are 1-, 2- or 3-long"),
    }
}

/// Eq. 13 fragments (= MMAs) per output chunk for a kernel of side `n`.
fn frags_per_chunk(n: usize) -> u64 {
    2 * ((n * n) as u64).div_ceil(4)
}

/// Closed-form ConvStencil MMA count (Eq. 13 generalized across
/// dimensionality and temporal fusion).
pub fn predict_convstencil_mma(
    kernel: &StencilKernel,
    extents: &[usize],
    iterations: usize,
) -> u64 {
    let fuse = if kernel.radius == 1 { 3 } else { 1 };
    let full = (iterations / fuse) as u64;
    let rem = (iterations % fuse) as u64;
    let app = |k: &StencilKernel| -> u64 {
        let h = k.radius;
        let n = 2 * h + 1;
        let chunks = 64.0 / (8 * (2 * h + 2)) as f64;
        match *extents {
            [ng] => {
                // 1-D stencil2row: 1-D windows, chunk = 8(2h+2) outputs
                let tiles = ng.div_ceil(8 * (2 * h + 2)) as u64;
                tiles * 2 * (n as u64).div_ceil(4)
            }
            [rows, cols] => {
                tiles_2d(rows, cols) * (frags_per_chunk(n) as f64 * chunks).ceil() as u64
            }
            [nz, ny, nx] => {
                let nonzero_planes =
                    k.weights_3d().iter().filter(|w| w.nonzero_points() > 0).count() as u64;
                let jobs = nz as u64 * tiles_2d(ny, nx);
                jobs * nonzero_planes * (frags_per_chunk(n) as f64 * chunks).ceil() as u64
            }
            _ => unreachable!(),
        }
    };
    if fuse == 1 {
        full * app(kernel)
    } else {
        full * app(&fusion::fuse_kernel(kernel, fuse)) + rem * app(kernel)
    }
}

/// Validate the closed forms against measured counters for `case`, in
/// every configuration of [`ExecConfig::ablation_roster`] — the same
/// single-source-of-truth roster the bench-suite breakdown runs, so the
/// counter model can never silently cover fewer configurations than the
/// ablation measures. Every predicted field must match to the digit;
/// ConvStencil's MMA count must match Eq. 13 exactly.
pub fn check_counters(case: &Case) -> Result<(), String> {
    for (label, cfg) in ExecConfig::ablation_roster() {
        let out = LoRaStencil::with_config(cfg)
            .execute(&case.problem())
            .map_err(|e| format!("LoRAStencil({label}) refused a valid case: {e}"))?;
        let pred = predict_lora(&case.kernel, &case.extents, case.iterations, cfg);
        let mismatches = pred.compare(&out.counters);
        if !mismatches.is_empty() {
            let detail: Vec<String> = mismatches
                .iter()
                .map(|(f, want, got)| format!("{f}: predicted {want}, measured {got}"))
                .collect();
            return Err(format!(
                "counter model mismatch for LoRAStencil({label}): {}\n{}",
                detail.join("; "),
                replay_hint()
            ));
        }
    }
    let out = ConvStencil::new()
        .execute(&case.problem())
        .map_err(|e| format!("ConvStencil refused a valid case: {e}"))?;
    let want = predict_convstencil_mma(&case.kernel, &case.extents, case.iterations);
    if out.counters.mma_ops != want {
        return Err(format!(
            "Eq. 13 mismatch for ConvStencil: predicted {want} MMAs, measured {}\n{}",
            out.counters.mma_ops,
            replay_hint()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, Grid2D, Problem};

    /// Eq. 12 at the paper's operating point: S = 16 gathers 8 points
    /// per fragment load, so a 64×64 grid costs 64·64/8 = 512 loads.
    #[test]
    fn eq12_fragment_loads_are_an_eighth_of_the_points() {
        let k = kernels::box_2d49p(); // radius 3: S = 16, no fusion
        let pred = predict_lora(&k, &[64, 64], 1, ExecConfig::full());
        assert_eq!(pred.shared_load_requests, 64 * 64 / 8);
        let out = LoRaStencil::new()
            .execute(&Problem::new(k, Grid2D::from_fn(64, 64, |r, c| (r * c) as f64), 1))
            .unwrap();
        assert_eq!(out.counters.shared_load_requests, 512);
    }

    /// Eq. 16 at the paper's operating point: rank-3 Box2D49P costs
    /// 3 · (4·2 + 4) = 36 MMAs per 8×8 tile.
    #[test]
    fn eq16_mma_count_for_box49() {
        let k = kernels::box_2d49p();
        let pred = predict_lora(&k, &[64, 64], 1, ExecConfig::full());
        assert_eq!(pred.mma_ops, 64 * 36);
        let out = LoRaStencil::new()
            .execute(&Problem::new(k, Grid2D::from_fn(64, 64, |r, c| (r + c) as f64), 1))
            .unwrap();
        assert_eq!(out.counters.mma_ops, 64 * 36);
    }

    /// Eq. 13 at the paper's operating point: 2⌈49/4⌉ = 26 fragments
    /// (= MMAs) per chunk; at h = 3 one chunk covers an 8×8 tile.
    #[test]
    fn eq13_convstencil_fragments_for_box49() {
        let k = kernels::box_2d49p();
        assert_eq!(predict_convstencil_mma(&k, &[64, 64], 1), 64 * 26);
        let out = ConvStencil::new()
            .execute(&Problem::new(k, Grid2D::from_fn(64, 64, |r, c| (r + c) as f64), 1))
            .unwrap();
        assert_eq!(out.counters.mma_ops, 64 * 26);
    }

    /// Fig. 9: BVS eliminates every shuffle; the natural split pays
    /// 2 shuffles per accumulator half (4·cb per term per tile).
    #[test]
    fn bvs_is_shuffle_free_and_the_natural_split_is_not() {
        let k = kernels::box_2d49p();
        let bvs = predict_lora(&k, &[64, 64], 1, ExecConfig::full());
        assert_eq!(bvs.shuffle_ops, 0);
        let nat =
            predict_lora(&k, &[64, 64], 1, ExecConfig { use_bvs: false, ..ExecConfig::full() });
        // 64 tiles · 3 terms · 4·(16/8) shuffles
        assert_eq!(nat.shuffle_ops, 64 * 3 * 8);
    }

    /// The generalized forms survive fusion: Heat2D (radius 1) fuses 3×
    /// into a radius-3 kernel with the same S = 16 geometry.
    #[test]
    fn fusion_split_prediction_matches_measurement() {
        let k = kernels::heat_2d();
        for iters in [1, 2, 3, 4, 5, 6, 7] {
            let pred = predict_lora(&k, &[24, 40], iters, ExecConfig::full());
            let out = LoRaStencil::new()
                .execute(&Problem::new(
                    k.clone(),
                    Grid2D::from_fn(24, 40, |r, c| (r * 7 + c) as f64 * 0.01),
                    iters,
                ))
                .unwrap();
            assert!(
                pred.compare(&out.counters).is_empty(),
                "iters {iters}: {:?}",
                pred.compare(&out.counters)
            );
        }
    }

    fn sparse_cfg() -> ExecConfig {
        ExecConfig { backend: DeviceBackend::SparseTcu, allow_fusion: false, ..ExecConfig::full() }
    }

    fn measure(k: &StencilKernel, rows: usize, cols: usize, cfg: ExecConfig) -> PerfCounters {
        LoRaStencil::with_config(cfg)
            .execute(&Problem::new(
                k.clone(),
                Grid2D::from_fn(rows, cols, |r, c| (r * 5 + c) as f64 * 0.01),
                1,
            ))
            .unwrap()
            .counters
    }

    /// Sparse closed form on full tiles, to the digit: Heat2D's star
    /// decomposition has `u = e_c` (one nonzero per banded row) and
    /// `u = [w, 0, w]` (two nonzeros two apart) — both 2:4-compressible,
    /// so per tile each term charges `rb·cb` mma.sp + `rb` dense step-2
    /// MMAs + `rb` metadata loads (S = 16: rb = 4, cb = 2).
    #[test]
    fn sparse_closed_form_full_tiles_heat2d() {
        let k = kernels::heat_2d();
        let pred = predict_lora(&k, &[16, 16], 1, sparse_cfg());
        let tiles = 4;
        assert_eq!(pred.mma_sp_ops, tiles * 2 * 4 * 2);
        assert_eq!(pred.mma_ops, tiles * 2 * 4);
        assert_eq!(pred.metadata_loads, tiles * 2 * 4);
        let m = measure(&k, 16, 16, sparse_cfg());
        assert!(pred.compare(&m).is_empty(), "{:?}", pred.compare(&m));
    }

    /// Same forms on a grid with partial tiles: counters charge per
    /// sub-tile (⌈R/8⌉⌈C/8⌉), not per covered point.
    #[test]
    fn sparse_closed_form_partial_tiles_heat2d() {
        let k = kernels::heat_2d();
        let pred = predict_lora(&k, &[20, 12], 1, sparse_cfg());
        let tiles = 3 * 2;
        assert_eq!(pred.mma_sp_ops, tiles * 2 * 4 * 2);
        assert_eq!(pred.mma_ops, tiles * 2 * 4);
        assert_eq!(pred.metadata_loads, tiles * 2 * 4);
        let m = measure(&k, 20, 12, sparse_cfg());
        assert!(pred.compare(&m).is_empty(), "{:?}", pred.compare(&m));
    }

    /// Mixed split: Star2D13P's `e_c` term compresses, but its 7-tap
    /// column term has six adjacent nonzeros per banded row — the 2:4
    /// validator rejects it and that term (alone) falls back to dense.
    #[test]
    fn sparse_split_is_per_term_star13() {
        let k = kernels::star_2d13p();
        let pred = predict_lora(&k, &[16, 16], 1, sparse_cfg());
        let tiles = 4;
        // sparse term: 8 mma.sp + 4 dense; dense term: mma_per_term = 12
        assert_eq!(pred.mma_sp_ops, tiles * 8);
        assert_eq!(pred.metadata_loads, tiles * 4);
        assert_eq!(pred.mma_ops, tiles * (4 + 12));
        let m = measure(&k, 16, 16, sparse_cfg());
        assert!(pred.compare(&m).is_empty(), "{:?}", pred.compare(&m));
    }

    /// Negative case: every Box2D49P term has a dense 7-tap `u`, so the
    /// sparse backend charges exactly the dense counters (and no sparse
    /// ones at all).
    #[test]
    fn sparse_backend_on_dense_terms_equals_dense_prediction() {
        let k = kernels::box_2d49p();
        let sparse = predict_lora(&k, &[16, 16], 1, sparse_cfg());
        let dense = predict_lora(
            &k,
            &[16, 16],
            1,
            ExecConfig { allow_fusion: false, ..ExecConfig::full() },
        );
        assert_eq!(sparse.mma_sp_ops, 0);
        assert_eq!(sparse.metadata_loads, 0);
        assert_eq!(sparse, dense);
        let m = measure(&k, 16, 16, sparse_cfg());
        assert!(sparse.compare(&m).is_empty(), "{:?}", sparse.compare(&m));
    }

    /// The SIMD backend charges no tensor-core work; its loads and
    /// writes follow the same forms as the scalar path.
    #[test]
    fn simd_backend_predicts_zero_mma_and_matches_measurement() {
        let k = kernels::box_2d49p();
        let cfg = ExecConfig { backend: DeviceBackend::SimdCore, ..ExecConfig::full() };
        let pred = predict_lora(&k, &[16, 16], 1, cfg);
        assert_eq!(pred.mma_ops, 0);
        assert_eq!(pred.mma_sp_ops, 0);
        let m = measure(&k, 16, 16, cfg);
        assert!(pred.compare(&m).is_empty(), "{:?}", pred.compare(&m));
    }

    /// The scalar backends' CUDA-core FLOPs at the paper's operating
    /// point: Box2D49P's pyramid terms have 7, 5 and 3 taps, costing
    /// `Σ(2·n_t·8·16 + 2·n_t·64 + 64) = 5952` FLOPs per tile times 14
    /// issue ops on CudaCore and 2 on SimdCore (none on the tensor
    /// cores), and its tip 128 more on every backend.
    #[test]
    fn scalar_term_flops_follow_the_closed_form() {
        let k = kernels::box_2d49p();
        let tiles = 4;
        for (backend, issue) in [
            (DeviceBackend::CudaCore, CUDA_RDG_ISSUE_OVERHEAD),
            (DeviceBackend::SimdCore, SIMD_RDG_ISSUE_OVERHEAD),
            (DeviceBackend::TcuF64, 0),
        ] {
            let cfg = ExecConfig { backend, allow_fusion: false, ..ExecConfig::full() };
            let pred = predict_lora(&k, &[16, 16], 1, cfg);
            assert_eq!(pred.cuda_flops, tiles * (5952 * issue + 128), "{backend:?}");
            let m = measure(&k, 16, 16, cfg);
            assert!(pred.compare(&m).is_empty(), "{backend:?}: {:?}", pred.compare(&m));
        }
    }

    #[test]
    fn check_counters_accepts_benchmark_kernels() {
        for k in kernels::all_kernels() {
            let extents = match k.dims() {
                1 => vec![130],
                2 => vec![17, 24],
                _ => vec![4, 9, 16],
            };
            let case = crate::gen::Case { kernel: k, extents, iterations: 2, data_seed: 3 };
            check_counters(&case).unwrap();
        }
    }
}
