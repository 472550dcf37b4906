//! Multi-target kernel listing generation: emit the device code a
//! lowered [`Schedule`] corresponds to on real hardware — for any
//! dimensionality, on any supported target.
//!
//! The simulator interprets schedules directly; this module renders the
//! same op sequence as the annotated kernel a practitioner would write.
//! One target-independent driver ([`audit`]) walks the schedule exactly
//! once; everything target-specific lives behind the [`Emitter`] trait:
//!
//! * [`wmma`] — the C++ WMMA emitter, one renderer for two targets,
//!   each a `const` [`wmma::Dialect`] (spellings plus [`Caps`]):
//!   * [`Target::Cuda`] — the A100 CUDA/WMMA listing: `cp.async`
//!     staging, `wmma::load_matrix_sync` fragment loads, the per-term
//!     `mma.sync.aligned.m8n8k4.f64` chains of RDG (`mma.sp` for
//!     2:4-compressed terms on the sparse backend), and the butterfly
//!     register reinterpretation of BVS — which appears as *no code at
//!     all* on the T side, only as the swapped row mapping baked into
//!     the V constants.
//!   * [`Target::Hip`] — the rocWMMA analogue for CDNA GPUs: no
//!     `cp.async` and no f64 structured sparsity, so its caps select
//!     those mechanisms' documented fallbacks.
//! * [`wgsl`] — [`Target::Wgsl`], a WebGPU compute shader: no
//!   cooperative matrices and no f64, so the MMA chains are spelled out
//!   as scalar loops over the exact A100 fragment lane layout, with
//!   `subgroupShuffle` standing in for the tensor core's internal
//!   cross-lane reduction.
//!
//! HIP and WGSL listings open with a capability header stating which
//! LoRAStencil mechanisms are native vs emulated.
//!
//! Every target declares a [`Caps`] matrix the driver (and the chain
//! classifier [`Cx::chain_lower`]) consults, so capability gaps become
//! explicit fallbacks in the listing rather than silently wrong code.
//! [`audit`] additionally records, per IR op, the exact text span it
//! produced — the hook stencil-verify's structural conformance checks
//! and the exhaustiveness guard build on.

pub mod wgsl;
pub mod wmma;

use crate::plan::Plan;
use crate::schedule::{BackendKind, Op, Schedule};
use tcu_sim::MMA_K;

/// A code-generation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// NVIDIA CUDA with WMMA intrinsics and inline PTX (the A100 of the
    /// paper). The reference listing: byte-stable, pinned by goldens.
    Cuda,
    /// AMD HIP with rocWMMA fragments (CDNA MFMA units).
    Hip,
    /// WebGPU Shading Language compute shader (no warp-level MMA).
    Wgsl,
}

impl Target {
    /// Every supported target, in CLI order.
    pub const ALL: [Target; 3] = [Target::Cuda, Target::Hip, Target::Wgsl];

    /// The CLI spelling of this target.
    pub fn name(self) -> &'static str {
        match self {
            Target::Cuda => "cuda",
            Target::Hip => "hip",
            Target::Wgsl => "wgsl",
        }
    }

    /// Conventional source-file extension of this target's listings.
    pub fn file_ext(self) -> &'static str {
        match self {
            Target::Cuda => "cu",
            Target::Hip => "hip",
            Target::Wgsl => "wgsl",
        }
    }

    /// Parse a CLI spelling (exact, case-insensitive).
    pub fn parse(s: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name().eq_ignore_ascii_case(s.trim()))
    }
}

/// The capability matrix one emitter declares: which LoRAStencil
/// hardware mechanisms exist natively on its target. The driver and
/// [`Cx::chain_lower`] consult it so capability gaps lower to explicit,
/// documented fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Warp-level `m8n8k4` f64 MMA (WMMA / rocWMMA).
    pub wmma: bool,
    /// 2:4 structured-sparse `mma.sp` with f64 operands.
    pub sparse_mma: bool,
    /// Asynchronous global→shared copy that bypasses the register file.
    pub cp_async: bool,
    /// Cross-lane register exchange (`__shfl` / `subgroupShuffle`).
    pub subgroup_shuffle: bool,
}

/// How one term's RDG matrix chain lowers on a target, after consulting
/// its [`Caps`] — the decision every emitter's `MmaChain` arm branches
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainLower {
    /// Dense warp-level MMA chain (`wmma::mma_sync`).
    Mma,
    /// 2:4 structured-sparse step-1 chain (`mma.sp`): the term passed
    /// the sparsity validator and the target has sparse tensor cores.
    MmaSparse,
    /// No warp-level MMA on the target: the chain is spelled out as
    /// scalar arithmetic over the A100 fragment lane layout.
    MmaEmulated,
    /// Scalar ablation backends ([`BackendKind::CudaCore`] /
    /// [`BackendKind::SimdCore`]): a plain scalar tap loop by design.
    Scalar,
}

/// Everything an emitter may read while rendering: the plan and its
/// lowered schedule.
pub struct Cx<'a> {
    /// The planned kernel (banner metadata, decomposition, plane ops).
    pub plan: &'a Plan,
    /// The lowered op sequence the listing renders.
    pub sched: &'a Schedule,
}

impl Cx<'_> {
    /// The device-function name stem (kernel name, identifier-safe).
    pub fn fn_name(&self) -> String {
        self.plan.exec_kernel.name.to_lowercase().replace(['-', 'x'], "_")
    }

    /// Classify how term `ti`'s chain lowers under `caps` (see
    /// [`ChainLower`]). The sparse backend falls back **per term**: a
    /// term the 2:4 validator rejects renders the dense chain even on a
    /// sparse-capable target.
    pub fn chain_lower(&self, caps: Caps, ti: usize) -> ChainLower {
        match self.sched.backend {
            BackendKind::CudaCore | BackendKind::SimdCore => ChainLower::Scalar,
            BackendKind::TcuF64 => {
                if caps.wmma {
                    ChainLower::Mma
                } else {
                    ChainLower::MmaEmulated
                }
            }
            BackendKind::SparseTcu => {
                if !caps.wmma {
                    ChainLower::MmaEmulated
                } else if caps.sparse_mma
                    && crate::rdg::term_is_sparse(&self.sched.terms[ti].term, self.sched.geo)
                {
                    ChainLower::MmaSparse
                } else {
                    ChainLower::Mma
                }
            }
        }
    }

    /// Whether the schedule's backend runs chains on (real or emulated)
    /// tensor-core fragments, as opposed to the scalar ablation loop.
    pub fn uses_fragments(&self) -> bool {
        matches!(self.sched.backend, BackendKind::TcuF64 | BackendKind::SparseTcu)
    }
}

/// Mutable state threaded through the op walk (declarations that must
/// happen exactly once across ops).
#[derive(Debug, Default)]
pub struct EmitState {
    /// Whether the X fragment array has been declared yet (the first
    /// `FragBuild` declares it; later ones reuse it).
    pub x_declared: bool,
}

/// How a constant table shows up in a listing: the token that declares
/// it and the token that reads it. Structural conformance counts both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Substring present exactly where the table is declared.
    pub decl: String,
    /// Substring present where the table is indexed/read.
    pub usage: String,
}

/// One IR op's contribution to a listing.
#[derive(Debug, Clone)]
pub struct OpAudit {
    /// The op, as lowered.
    pub op: Op,
    /// Byte range of [`Audit::listing`] this op emitted.
    pub span: std::ops::Range<usize>,
    /// A substring that must appear inside the span — `None` only when
    /// the op legitimately renders nothing (a zero-weight pyramid tip).
    pub anchor: Option<String>,
}

/// The driver's record of one emission: the listing plus everything the
/// structural conformance checks need to hold it accountable.
#[derive(Debug, Clone)]
pub struct Audit {
    /// The rendered target.
    pub target: Target,
    /// The emitter's declared capability matrix.
    pub caps: Caps,
    /// The complete listing text.
    pub listing: String,
    /// Per-op text spans, in op order.
    pub ops: Vec<OpAudit>,
    /// Constant-table references per rank-1 term.
    pub term_tables: Vec<Vec<TableRef>>,
    /// The 1-D banded-table references (empty unless `dims == 1`).
    pub banded_tables: Vec<TableRef>,
}

/// One target's rendering rules. The driver calls the methods in
/// listing order; implementations write text, never walk the schedule
/// themselves (that is the driver's job, done once for all targets).
pub trait Emitter {
    /// The target this emitter renders.
    fn target(&self) -> Target;

    /// The target's capability matrix.
    fn caps(&self) -> Caps;

    /// Banner and (where the target needs one) the capability header.
    fn prologue(&self, cx: &Cx, out: &mut String);

    /// Constant tables for rank-1 term `ti` (form depends on
    /// [`Cx::chain_lower`]).
    fn term_tables(&self, cx: &Cx, ti: usize, out: &mut String);

    /// The 1-D banded gather table (Eq. 11).
    fn banded_table(&self, cx: &Cx, out: &mut String);

    /// Kernel signature, shared-window declarations, index setup and
    /// accumulator declarations.
    fn kernel_open(&self, cx: &Cx, out: &mut String);

    /// One IR op (`i` is its position in [`Schedule::ops`]).
    fn op(&self, cx: &Cx, i: usize, op: &Op, st: &mut EmitState, out: &mut String);

    /// Accumulator fold, stores and the closing brace.
    fn epilogue(&self, cx: &Cx, out: &mut String);

    /// The substring op `i` must have emitted (see [`OpAudit::anchor`]).
    fn op_anchor(&self, cx: &Cx, i: usize, op: &Op) -> Option<String>;

    /// Declaration/usage tokens of term `ti`'s constant tables.
    fn term_table_refs(&self, cx: &Cx, ti: usize) -> Vec<TableRef>;

    /// Declaration/usage tokens of the 1-D banded table.
    fn banded_table_refs(&self, cx: &Cx) -> Vec<TableRef>;
}

/// The emitter for a target.
fn emitter_for(target: Target) -> &'static dyn Emitter {
    match target {
        Target::Cuda => &wmma::CUDA,
        Target::Hip => &wmma::HIP,
        Target::Wgsl => &wgsl::WgslEmitter,
    }
}

/// Render a plan for a target **and** record per-op accountability: the
/// target-independent driver. Walks the lowered schedule exactly once —
/// prologue, constant tables, kernel open, one call per op (with its
/// text span captured), epilogue.
pub fn audit(plan: &Plan, target: Target) -> Audit {
    let sched = Schedule::lower(plan);
    let cx = Cx { plan, sched: &sched };
    let e = emitter_for(target);
    let mut out = String::new();
    e.prologue(&cx, &mut out);
    let mut term_tables = Vec::with_capacity(sched.terms.len());
    for ti in 0..sched.terms.len() {
        e.term_tables(&cx, ti, &mut out);
        term_tables.push(e.term_table_refs(&cx, ti));
    }
    let mut banded_tables = Vec::new();
    if sched.dims == 1 {
        e.banded_table(&cx, &mut out);
        banded_tables = e.banded_table_refs(&cx);
    }
    e.kernel_open(&cx, &mut out);
    let mut st = EmitState::default();
    let mut ops = Vec::with_capacity(sched.ops.len());
    for (i, op) in sched.ops.iter().enumerate() {
        let start = out.len();
        e.op(&cx, i, op, &mut st, &mut out);
        ops.push(OpAudit { op: *op, span: start..out.len(), anchor: e.op_anchor(&cx, i, op) });
    }
    e.epilogue(&cx, &mut out);
    Audit { target, caps: e.caps(), listing: out, ops, term_tables, banded_tables }
}

/// Render the kernel listing of a plan for a target.
pub fn emit(plan: &Plan, target: Target) -> String {
    audit(plan, target).listing
}

/// Render the CUDA/WMMA listing (the historical single-target entry
/// point, kept as the [`Target::Cuda`] shorthand).
pub fn emit_cuda(plan: &Plan) -> String {
    emit(plan, Target::Cuda)
}

/// Round-trip-exact f64 literal: the shortest decimal string that
/// parses back to exactly `x` (Rust's `{:?}` float formatting — valid
/// in C, HIP and WGSL source). Constant tables use this so a compiled
/// listing reproduces the simulator bit for bit.
pub fn lit(x: f64) -> String {
    format!("{x:?}")
}

/// The target-independent banner: what was planned, how it decomposed,
/// what one warp/workgroup computes. Identical across targets so diffs
/// between listings show only mechanism differences.
pub(crate) fn banner(cx: &Cx, out: &mut String) {
    use std::fmt::Write as _;
    let sched = cx.sched;
    let plan = cx.plan;
    let geo = sched.geo;
    let h = sched.h;
    let s = geo.s;
    writeln!(out, "// ======================================================================")
        .unwrap();
    writeln!(
        out,
        "// LoRAStencil kernel for {} ({}-D, radius {h}, {}x fused)",
        plan.exec_kernel.name, sched.dims, sched.fuse_steps
    )
    .unwrap();
    match sched.dims {
        1 => writeln!(
            out,
            "// single banded MM (§IV-C): {}-long segments, {} MMAs per 64 outputs",
            sched.seg_len,
            sched.seg_len / MMA_K
        )
        .unwrap(),
        2 => writeln!(
            out,
            "// decomposition: {:?}, {} rank-1 terms, pointwise tip {:.6e}",
            plan.decomp().strategy,
            plan.decomp().num_terms(),
            plan.decomp().pointwise
        )
        .unwrap(),
        _ => writeln!(
            out,
            "// Algorithm 2: {} z-planes, {} rank-1 terms total across RDG planes",
            plan.plane_ops().len(),
            sched.terms.len()
        )
        .unwrap(),
    }
    if sched.dims != 1 {
        writeln!(
            out,
            "// tile: {s}x{s} input window -> 8x8 outputs per warp ({} MMAs/term)",
            geo.mma_per_term()
        )
        .unwrap();
    }
    writeln!(out, "// ======================================================================")
        .unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecConfig;
    use stencil_core::kernels;

    #[test]
    fn listing_reflects_the_plan() {
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let code = emit_cuda(&plan);
        // three terms → three weight tables and three RDG sections
        for ti in 0..3 {
            assert!(code.contains(&format!("__constant__ double U{ti}")));
            assert!(code.contains(&format!("__constant__ double V{ti}")));
            assert!(code.contains(&format!("RDG term {ti}")));
        }
        assert!(!code.contains("U3["), "only 3 terms expected");
        // BVS: no shuffles in the listing
        assert!(!code.contains("__shfl_sync"));
        assert!(code.contains("cp.async"));
        assert!(code.contains("pyramid tip"));
    }

    #[test]
    fn non_bvs_listing_contains_shuffles() {
        let cfg = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        let plan = Plan::new(&kernels::box_2d49p(), cfg);
        let code = emit_cuda(&plan);
        assert!(code.contains("__shfl_sync"));
    }

    #[test]
    fn staged_listing_skips_cp_async() {
        let cfg = ExecConfig { use_async_copy: false, ..ExecConfig::full() };
        let plan = Plan::new(&kernels::box_2d9p(), cfg);
        let code = emit_cuda(&plan);
        assert!(!code.contains("cp.async"));
        assert!(code.contains("staged copy"));
    }

    #[test]
    fn star_kernel_listing_has_no_pointwise_tip() {
        let plan = Plan::new(&kernels::star_2d13p(), ExecConfig::full());
        let code = emit_cuda(&plan);
        assert!(!code.contains("pyramid tip"));
        assert!(code.contains("rank-1 terms"));
    }

    #[test]
    fn weight_tables_carry_the_butterfly_swap() {
        // with BVS the V tables differ from the natural-order tables
        let bvs = emit_cuda(&Plan::new(&kernels::box_2d49p(), ExecConfig::full()));
        let nat = emit_cuda(&Plan::new(
            &kernels::box_2d49p(),
            ExecConfig { use_bvs: false, ..ExecConfig::full() },
        ));
        let table = |s: &str| {
            s.lines()
                .skip_while(|l| !l.contains("__constant__ double V0"))
                .take(5)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_ne!(table(&bvs), table(&nat), "V constants must be row-swapped under BVS");
    }

    // ---- snapshot coverage (one kernel per dimension) ----

    #[test]
    fn listing_is_deterministic_and_nonempty_per_dimension() {
        for k in [kernels::heat_1d(), kernels::box_2d49p(), kernels::heat_3d()] {
            let plan = Plan::new(&k, ExecConfig::full());
            let a = emit_cuda(&plan);
            let b = emit_cuda(&plan);
            assert_eq!(a, b, "{}: listing must be deterministic", k.name);
            assert!(a.contains("__global__ void lorastencil_"), "{}", k.name);
            assert!(a.contains("mma_sync"), "{}: must reach the tensor cores", k.name);
        }
    }

    #[test]
    fn butterfly_swap_is_mentioned_only_with_bvs() {
        for k in [kernels::box_2d49p(), kernels::heat_3d()] {
            let on = emit_cuda(&Plan::new(&k, ExecConfig::full()));
            let off =
                emit_cuda(&Plan::new(&k, ExecConfig { use_bvs: false, ..ExecConfig::full() }));
            assert!(on.contains("butterfly"), "{}: BVS listing must explain the swap", k.name);
            assert!(!off.contains("butterfly"), "{}: non-BVS listing must not", k.name);
        }
        // 1-D has no step-2 accumulator split, so never mentions the swap
        let one = emit_cuda(&Plan::new(&kernels::heat_1d(), ExecConfig::full()));
        assert!(!one.contains("butterfly"));
    }

    #[test]
    fn one_constant_table_pair_per_rank_one_term() {
        use crate::plan::PlaneOp;
        for k in [kernels::box_2d9p(), kernels::box_2d49p(), kernels::box_3d27p()] {
            let plan = Plan::new(&k, ExecConfig::full());
            let terms = match k.dims() {
                2 => plan.decomp().num_terms(),
                _ => plan
                    .plane_ops()
                    .iter()
                    .map(|op| match op {
                        PlaneOp::Rdg(d) => d.num_terms(),
                        _ => 0,
                    })
                    .sum(),
            };
            let code = emit_cuda(&plan);
            assert_eq!(code.matches("__constant__ double U").count(), terms, "{}", k.name);
            // the 1-D banded table is named V1D, so exact-prefix count the
            // per-term tables only
            let v_tables = (0..terms)
                .filter(|ti| code.contains(&format!("__constant__ double V{ti}[")))
                .count();
            assert_eq!(v_tables, terms, "{}", k.name);
        }
    }

    #[test]
    fn three_d_listing_walks_every_plane() {
        let plan = Plan::new(&kernels::heat_3d(), ExecConfig::full());
        let code = emit_cuda(&plan);
        assert!(code.contains("plane dz=0"));
        assert!(code.contains("plane dz=1"));
        assert!(code.contains("plane dz=2"));
        assert!(code.contains("point-wise on CUDA cores"));
        assert!(code.contains("fold the tensor-core accumulator"));
    }

    #[test]
    fn one_d_listing_is_the_banded_gather() {
        let plan = Plan::new(&kernels::heat_1d(), ExecConfig::full());
        let code = emit_cuda(&plan);
        assert!(code.contains("V1D"));
        assert!(code.contains("overlapping"));
        assert!(!code.contains("RDG term"), "1-D has no per-term chains (§IV-C)");
    }

    // ---- multi-target driver ----

    #[test]
    fn every_target_renders_every_dimension() {
        for k in [kernels::heat_1d(), kernels::box_2d49p(), kernels::heat_3d()] {
            let plan = Plan::new(&k, ExecConfig::full());
            for target in Target::ALL {
                let code = emit(&plan, target);
                assert!(!code.is_empty(), "{}/{}", k.name, target.name());
                assert!(
                    code.contains("lorastencil_"),
                    "{}/{}: kernel entry point missing",
                    k.name,
                    target.name()
                );
            }
        }
    }

    #[test]
    fn audit_spans_tile_the_op_walk() {
        // spans are contiguous, in order, and each anchor lands inside its span
        for k in [kernels::heat_1d(), kernels::box_2d49p(), kernels::heat_3d()] {
            let plan = Plan::new(&k, ExecConfig::full());
            for target in Target::ALL {
                let a = audit(&plan, target);
                let mut prev_end = None;
                for op in &a.ops {
                    if let Some(end) = prev_end {
                        assert_eq!(op.span.start, end, "{}/{}", k.name, target.name());
                    }
                    prev_end = Some(op.span.end);
                    let text = &a.listing[op.span.clone()];
                    if let Some(anchor) = &op.anchor {
                        assert!(
                            text.contains(anchor.as_str()),
                            "{}/{}: anchor {anchor:?} missing from its span",
                            k.name,
                            target.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cuda_sparse_backend_renders_mma_sp_with_declared_accumulator() {
        // Star-2D13P is the mixed case: term 0's U rows are 2:4-compressible
        // (the cross arm), term 1's are not — so one plan exercises both the
        // mma.sp chain and the loud dense fallback.
        let cfg = ExecConfig { backend: crate::DeviceBackend::SparseTcu, ..ExecConfig::full() };
        let plan = Plan::new(&kernels::star_2d13p(), cfg);
        let code = emit_cuda(&plan);
        assert!(code.contains("mma_sp_sync"), "compressible terms must use mma.sp");
        assert!(code.contains("U0meta"), "sparse metadata table must be emitted");
        assert!(code.contains("dense chain fallback"), "incompressible term falls back loudly");
        // and the accumulator the chains write actually exists
        assert!(code.contains("wmma::fragment<wmma::accumulator, 8, 8, 4, double> acc;"));

        // Box-2D49P's wide pyramid factors never compress: every term must
        // take the dense fallback, with the accumulator still declared.
        let cfg = ExecConfig { backend: crate::DeviceBackend::SparseTcu, ..ExecConfig::full() };
        let code = emit_cuda(&Plan::new(&kernels::box_2d49p(), cfg));
        assert!(!code.contains("mma_sp_sync"), "no compressible term in Box-2D49P");
        assert!(code.contains("dense chain fallback"));
        assert!(code.contains("wmma::fragment<wmma::accumulator, 8, 8, 4, double> acc;"));
    }

    #[test]
    fn cuda_scalar_backends_render_scalar_chains_and_tables() {
        for backend in [crate::DeviceBackend::CudaCore, crate::DeviceBackend::SimdCore] {
            let cfg = ExecConfig { backend, ..ExecConfig::full() };
            let plan = Plan::new(&kernels::box_2d49p(), cfg);
            let code = emit_cuda(&plan);
            assert!(code.contains("__constant__ double u0["), "{backend:?}: raw u table");
            assert!(code.contains("const int shift0 ="), "{backend:?}: shift constant");
            assert!(code.contains("acc_s[e] += s;"), "{backend:?}: scalar chain");
            assert!(
                !code.contains("wmma::mma_sync"),
                "{backend:?}: scalar backends must not render wmma chains"
            );
        }
    }

    #[test]
    fn hip_listing_documents_its_fallbacks() {
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let code = emit(&plan, Target::Hip);
        assert!(code.contains("capability audit"));
        assert!(code.contains("rocwmma::mma_sync"));
        // the capability header *names* cp.async (as a FALLBACK); the actual
        // PTX instruction must never render
        assert!(!code.contains("cp.async.ca"), "HIP must not emit the PTX cp.async op");
        assert!(!code.contains("asm volatile"), "HIP path uses no inline PTX");
        let sparse = ExecConfig { backend: crate::DeviceBackend::SparseTcu, ..ExecConfig::full() };
        let code = emit(&Plan::new(&kernels::box_2d49p(), sparse), Target::Hip);
        assert!(code.contains("dense chain fallback"), "sparse plans must fall back loudly");
        assert!(!code.contains("mma_sp"), "no sparse MMA on CDNA");
    }

    #[test]
    fn wgsl_listing_emulates_wmma_and_preserves_bvs() {
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let code = emit(&plan, Target::Wgsl);
        assert!(code.contains("capability audit"));
        assert!(code.contains("enable subgroups;"));
        assert!(code.contains("butterfly BVS      : PRESERVED"));
        assert!(code.contains("subgroupShuffle"));
        assert!(!code.contains("wmma::"), "no real WMMA in WGSL");
        // without BVS the natural split's cross-register fetch shows up
        let nat = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        let code = emit(&Plan::new(&kernels::box_2d49p(), nat), Target::Wgsl);
        assert!(code.contains("select(t1, t0"));
    }

    // ---- round-trip-exact constants (satellite: table precision) ----

    #[test]
    fn lit_round_trips_every_emitted_constant() {
        use crate::rdg::{build_u_frags, build_v_frags};
        let mut checked = 0usize;
        for k in [kernels::heat_1d(), kernels::box_2d49p(), kernels::heat_3d()] {
            let plan = Plan::new(&k, ExecConfig::full());
            let sched = Schedule::lower(&plan);
            let mut vals: Vec<f64> = Vec::new();
            for lt in &sched.terms {
                for frag in build_u_frags(&lt.term, sched.geo) {
                    vals.extend_from_slice(&frag.lanes);
                }
                for frag in build_v_frags(&lt.term, sched.geo, true) {
                    vals.extend_from_slice(&frag.lanes);
                }
                vals.extend_from_slice(&lt.term.u);
                vals.extend_from_slice(&lt.term.v);
            }
            for frag in &sched.v1d_frags() {
                vals.extend_from_slice(&frag.lanes);
            }
            for x in vals {
                let parsed: f64 = lit(x).parse().expect("emitted literal must parse");
                assert_eq!(parsed.to_bits(), x.to_bits(), "literal {} not exact", lit(x));
                checked += 1;
            }
        }
        assert!(checked > 500, "expected to exercise many constants, got {checked}");
        // adversarial spot-checks: values whose 6-digit rounding is lossy
        for x in [1.0 / 3.0, 0.1, 2.0_f64.powi(-40), 1.234567890123456e-7, -0.0] {
            let parsed: f64 = lit(x).parse().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn cuda_tables_no_longer_truncate_to_six_digits() {
        // Jacobi weights are 1/number, which 6-digit formatting destroyed
        let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        let code = emit_cuda(&plan);
        let table_lines: Vec<&str> = code
            .lines()
            .skip_while(|l| !l.starts_with("__constant__ double U0"))
            .take_while(|l| !l.starts_with("__global__"))
            .filter(|l| l.starts_with("  {"))
            .collect();
        assert!(!table_lines.is_empty());
        for line in table_lines {
            for tok in line.trim_matches(|c| "{}, ".contains(c)).split(", ") {
                let tok = tok.trim_matches(|c| "{},".contains(c));
                if tok.is_empty() {
                    continue;
                }
                let v: f64 = tok.parse().expect("table entry must be a float literal");
                assert_eq!(lit(v), tok, "entry {tok} must already be shortest-exact");
            }
        }
    }

    #[test]
    fn sparse_metadata_packs_two_bit_indices_per_row() {
        use tcu_sim::{FragA, FragASp};
        let mut dense = FragA::zero();
        // row 0: k = 1, 3 → bits 0b1101 at the bottom nibble
        dense.set(0, 1, 5.0);
        dense.set(0, 3, 7.0);
        // row 7: k = 2 in slot 0, zero-padded slot 1 → 0b0010 in the top nibble
        dense.set(7, 2, 9.0);
        let sp = FragASp::compress(&dense).unwrap();
        let meta = wmma::pack_meta(&sp);
        assert_eq!(meta & 0xf, 0b1101, "row 0: idx 1 then 3");
        assert_eq!((meta >> 28) & 0xf, 0b0010, "row 7: idx 2 then pad 0");
    }

    // ---- exhaustiveness guard (satellite: no silent `_ =>` arms) ----

    /// A 3-D kernel with an all-zero z−1 plane and a pointwise-only z+1
    /// plane — the only way to reach `SkipPlane` (and a non-RDG
    /// `PointwisePlane`) in a lowered schedule.
    fn skip_plane_kernel() -> stencil_core::StencilKernel {
        use stencil_core::{Shape, StencilKernel, WeightMatrix, Weights};
        let mut planes = vec![WeightMatrix::zero(3); 3];
        // central plane: 5-point star (a real RDG plane)
        planes[1].set(1, 1, 0.5);
        for &(i, j) in &[(0, 1), (2, 1), (1, 0), (1, 2)] {
            planes[1].set(i, j, 0.1);
        }
        // z+1 plane: center tap only → PointwisePlane; z−1 stays zero → SkipPlane
        planes[2].set(1, 1, 0.1);
        StencilKernel {
            name: "Skip-3D".into(),
            shape: Shape::Star,
            radius: 1,
            weights: Weights::D3(planes),
        }
    }

    #[test]
    fn every_op_variant_renders_a_nonempty_arm_on_every_target() {
        use std::collections::BTreeSet;

        // Together these plans reach every reachable point of the
        // Op × DeviceBackend lattice:
        // * Heat-1D — RdgGather (1-D always lowers to the dense TCU
        //   backend, whatever the config says);
        // * Box-2D49P — Stage/FragBuild/MmaChain/Pointwise;
        // * Skip-3D — SkipPlane + PointwisePlane alongside the RDG ops.
        let kernels_under_test = [kernels::heat_1d(), kernels::box_2d49p(), skip_plane_kernel()];
        let mut seen_ops: BTreeSet<&'static str> = BTreeSet::new();
        for kernel in &kernels_under_test {
            for backend in crate::DeviceBackend::all() {
                let plan = Plan::new(kernel, ExecConfig { backend, ..ExecConfig::full() });
                for target in Target::ALL {
                    let a = audit(&plan, target);
                    for (i, op) in a.ops.iter().enumerate() {
                        seen_ops.insert(op.op.mnemonic());
                        let text = &a.listing[op.span.clone()];
                        match &op.anchor {
                            Some(anchor) => assert!(
                                text.contains(anchor.as_str()),
                                "{}/{backend:?}/{}: op {i} ({}) lost its anchor {anchor:?}",
                                kernel.name,
                                target.name(),
                                op.op.mnemonic()
                            ),
                            // only a zero-weight pyramid tip may render nothing
                            None => assert!(
                                matches!(op.op, Op::Pointwise { weight } if weight == 0.0)
                                    && text.is_empty(),
                                "{}/{backend:?}/{}: op {i} ({}) rendered silently",
                                kernel.name,
                                target.name(),
                                op.op.mnemonic()
                            ),
                        }
                    }
                }
            }
        }
        // the compile-time half: Op::VOCABULARY names every variant, and
        // the plans above reached all of them on all targets
        let want: BTreeSet<&'static str> = Op::VOCABULARY.into_iter().collect();
        assert_eq!(seen_ops, want, "some Op variant never rendered");
    }

    #[test]
    fn target_parse_is_case_insensitive_and_total() {
        assert_eq!(Target::parse("cuda"), Some(Target::Cuda));
        assert_eq!(Target::parse(" HIP "), Some(Target::Hip));
        assert_eq!(Target::parse("wgsl"), Some(Target::Wgsl));
        assert_eq!(Target::parse("wsgl"), None);
        for t in Target::ALL {
            assert_eq!(Target::parse(t.name()), Some(t));
            assert!(!t.file_ext().is_empty());
        }
    }
}
