//! The C++ WMMA emitter: one renderer for the CUDA listing (the A100 of
//! the paper, and the reference output of the codegen layer) and its
//! HIP/rocWMMA analogue for CDNA GPUs. Byte-stable, pinned by
//! checked-in goldens and the ci.sh emit-smoke diff.
//!
//! Renders `cp.async` staging (§IV-B), `load_matrix_sync` fragment loads
//! (Eq. 12), the per-term `mma.sync.aligned.m8n8k4.f64` chains of RDG
//! (§III-B) — `mma.sp` with packed 2:4 metadata for compressed terms on
//! the sparse backend — and the butterfly register reinterpretation of
//! BVS (§III-D), which appears as *no code at all* on the T side, only
//! as the swapped row mapping baked into the V constants. Scalar
//! ablation backends get an honest scalar tap loop over raw `u`/`v`
//! factor tables instead of fragment constants.
//!
//! Each target is a [`Dialect`]: plain data naming its spellings and its
//! [`Caps`]. The renderer never asks which target it renders. Spellings
//! come from the dialect's fields; mechanisms key on its caps:
//!
//! * **`cp_async`** — the `cp.async` staging, its wait and the 1-D
//!   gather copy, or (CDNA has no global→LDS copy that bypasses the
//!   register file) the staged copy, with a note where the plan asked
//!   for the async copy.
//! * **`sparse_mma`** — the `mma.sp` chains and their compressed tables,
//!   or (no f64 structured sparsity on CDNA) the dense chain, annotated
//!   with the fallback.
//!
//! The per-lane constant tables are the same on both targets: the
//! fragment layout being rendered is the A100 `m8n8k4` mapping, which
//! occupies lanes 0..31 of CDNA's 64-wide wave (the HIP capability
//! header says so).

use super::{banner, lit, Caps, ChainLower, Cx, EmitState, Target};
use crate::rdg::{build_u_frags, build_v_frags};
use crate::schedule::{AccFold, AccSplit, BackendKind, Op, Schedule};
use std::fmt::Write as _;
use tcu_sim::{CopyMode, FragASp, MMA_K};

/// How one C++ WMMA target spells the shared schedule, and (through its
/// [`Emitter`](super::Emitter) impl) the emitter of that target. Plain
/// data: the renderer reads `caps` for every mechanism difference and
/// the other fields for words, and never reads `target` (only the audit
/// does).
pub struct Dialect {
    /// The target this dialect renders.
    pub target: Target,
    /// Which mechanisms are native (`cp_async` and `sparse_mma` pick
    /// between a mechanism and its documented fallback).
    pub caps: Caps,
    /// The fragment API namespace.
    pub ns: &'static str,
    /// The lane-index expression.
    pub lane: &'static str,
    /// A cross-lane shuffle call up to its value argument.
    pub shfl: &'static str,
    /// The intra-warp barrier call.
    pub barrier: &'static str,
    /// What comments call the SIMT group one tile runs on.
    pub warp: &'static str,
    /// What comments call the on-chip window memory.
    pub shared: &'static str,
    /// The same, as an adjective.
    pub shared_memory: &'static str,
    /// The scalar units, in `on … cores`.
    pub scalar_cores: &'static str,
    /// The scalar accumulator's comment.
    pub scalar_acc: &'static str,
    /// The matrix units, in `… cores` and `…-core`.
    pub mma_cores: &'static str,
    /// The architecture the fallback notes name.
    pub arch: &'static str,
    /// Capability-header lines printed after the banner.
    pub header: &'static [&'static str],
}

/// The A100 of the paper: everything in the capability matrix.
pub const CUDA: Dialect = Dialect {
    target: Target::Cuda,
    caps: Caps { wmma: true, sparse_mma: true, cp_async: true, subgroup_shuffle: true },
    ns: "wmma",
    lane: "laneid()",
    shfl: "__shfl_sync(~0u, ",
    barrier: "__syncwarp()",
    warp: "warp",
    shared: "shared",
    shared_memory: "shared-memory",
    scalar_cores: "CUDA",
    scalar_acc: "scalar (CUDA-core)",
    mma_cores: "tensor",
    arch: "A100",
    header: &[],
};

/// CDNA: WMMA (rocWMMA) and shuffles, but no `cp.async` and no f64
/// structured sparsity.
pub const HIP: Dialect = Dialect {
    target: Target::Hip,
    caps: Caps { wmma: true, sparse_mma: false, cp_async: false, subgroup_shuffle: true },
    ns: "rocwmma",
    lane: "__lane_id()",
    shfl: "__shfl(",
    barrier: "__builtin_amdgcn_wave_barrier()",
    warp: "wave",
    shared: "LDS",
    shared_memory: "LDS",
    scalar_cores: "scalar",
    scalar_acc: "scalar-core",
    mma_cores: "matrix",
    arch: "CDNA",
    header: &[
        "// ------------------------------------------------------------ HIP / CDNA",
        "// capability audit — how LoRAStencil's mechanisms land on this target:",
        "//   wmma m8n8k4 f64    : NATIVE    rocWMMA fragments on the matrix cores",
        "//   2:4 sparse mma.sp  : FALLBACK  no f64 structured sparsity on CDNA;",
        "//                                  sparse-plan terms run the dense chain",
        "//   cp.async staging   : FALLBACK  no global->LDS bypass instruction;",
        "//                                  staged copy through the register file",
        "//   subgroup shuffle   : NATIVE    __shfl across the wave (wave64: the",
        "//                                  m8n8k4 layout occupies lanes 0..31)",
        "// ------------------------------------------------------------------------",
    ],
};

/// Render one term's dense weight-constant tables (the `U_k`/`V_k`
/// fragments) as `__constant__` arrays: one U/V pair per rank-1 term.
fn dense_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let use_bvs = sched.split == AccSplit::Bvs;
    let u = build_u_frags(term, sched.geo);
    let v = build_v_frags(term, sched.geo, use_bvs);
    writeln!(out, "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ)", term.side()).unwrap();
    writeln!(out, "__constant__ double U{ti}[{}][32] = {{ /* per-lane A fragments */", u.len())
        .unwrap();
    for frag in &u {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
    dense_v_table(sched, ti, &v, out);
}

/// The dense per-lane V table (shared by the dense and sparse chains —
/// only the U side compresses).
fn dense_v_table(sched: &Schedule, ti: usize, v: &[tcu_sim::FragB], out: &mut String) {
    let use_bvs = sched.split == AccSplit::Bvs;
    writeln!(
        out,
        "__constant__ double V{ti}[{}][32] = {{ /* per-lane B fragments{} */",
        v.len(),
        if use_bvs { ", butterfly-row-swapped (Eq. 17)" } else { "" }
    )
    .unwrap();
    for frag in v {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
}

/// Render one term's 2:4-compressed tables for the sparse backend: the
/// surviving U values, the packed metadata words that steer `mma.sp`'s
/// operand muxes, and the (dense) V table.
fn sparse_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let use_bvs = sched.split == AccSplit::Bvs;
    let u = build_u_frags(term, sched.geo);
    let v = build_v_frags(term, sched.geo, use_bvs);
    let sp: Vec<FragASp> = u
        .iter()
        .map(|f| FragASp::compress(f).expect("chain_lower only picks MmaSparse for 2:4 terms"))
        .collect();
    writeln!(
        out,
        "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ), U 2:4-compressed",
        term.side()
    )
    .unwrap();
    writeln!(
        out,
        "__constant__ double U{ti}sp[{}][16] = {{ /* 2 surviving values per row */",
        sp.len()
    )
    .unwrap();
    for frag in &sp {
        let row: Vec<String> =
            frag.vals.iter().flat_map(|pair| pair.iter().map(|x| lit(*x))).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
    let meta: Vec<String> = sp.iter().map(|frag| format!("{:#010x}", pack_meta(frag))).collect();
    writeln!(
        out,
        "// sparsity metadata: 2-bit k index per surviving value, 4 bits/row, row 0 at LSB"
    )
    .unwrap();
    writeln!(out, "__constant__ unsigned U{ti}meta[{}] = {{{}}};", sp.len(), meta.join(", "))
        .unwrap();
    dense_v_table(sched, ti, &v, out);
}

/// Pack one fragment's 2-bit K indices into the `mma.sp` metadata word:
/// row `r`, slot `s` lands at bits `4r + 2s`.
pub(crate) fn pack_meta(frag: &FragASp) -> u32 {
    let mut m = 0u32;
    for (r, pair) in frag.idx.iter().enumerate() {
        for (s, idx) in pair.iter().enumerate() {
            m |= u32::from(*idx) << (4 * r + 2 * s);
        }
    }
    m
}

/// Render one term's raw factor tables for the scalar-chain backends
/// (CUDA-core / tuned-SIMD ablations): the chain taps `u`/`v` directly,
/// so per-lane fragment constants would be dead weight.
fn scalar_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let shift = sched.geo.h - term.radius();
    writeln!(
        out,
        "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ) — raw factors, scalar chain",
        term.side()
    )
    .unwrap();
    let us: Vec<String> = term.u.iter().map(|x| lit(*x)).collect();
    let vs: Vec<String> = term.v.iter().map(|x| lit(*x)).collect();
    writeln!(out, "__constant__ double u{ti}[{}] = {{{}}};", term.u.len(), us.join(", ")).unwrap();
    writeln!(out, "__constant__ double v{ti}[{}] = {{{}}};", term.v.len(), vs.join(", ")).unwrap();
    writeln!(out, "const int shift{ti} = {shift};   // band offset h - h_t (Eq. 10)").unwrap();
}

/// Render the 1-D banded `V` table (Eq. 11 — the single gather matrix).
fn emit_banded_table(sched: &Schedule, out: &mut String) {
    writeln!(
        out,
        "// banded gather matrix V (Eq. 11): {}x8 as {} B fragments",
        sched.seg_len,
        sched.seg_len / MMA_K
    )
    .unwrap();
    writeln!(
        out,
        "__constant__ double V1D[{}][32] = {{ /* per-lane B fragments */",
        sched.seg_len / MMA_K
    )
    .unwrap();
    for frag in &sched.v1d_frags() {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
}

/// Emit the global→shared staging of one S×S window (2-D/3-D
/// [`Op::Stage`]); `src` names the input pointer being staged.
fn emit_stage(d: &Dialect, sched: &Schedule, src: &str, out: &mut String) {
    let s = sched.geo.s;
    let h = sched.h;
    let lane = d.lane;
    if sched.copy_mode == CopyMode::Async && d.caps.cp_async {
        writeln!(out, "  // §IV-B: cp.async global->shared copy, bypassing the register file")
            .unwrap();
        writeln!(out, "  for (int e = {lane}; e < {s}*{s}; e += 32) {{").unwrap();
        writeln!(
            out,
            "    const int rr = mod(r0 - {h} + e / {s}, rows), cc = mod(c0 - {h} + e % {s}, cols);"
        )
        .unwrap();
        writeln!(out, "    asm volatile(\"cp.async.ca.shared.global [%0], [%1], 8;\" ::").unwrap();
        writeln!(out, "      \"r\"(&tile[e / {s}][e % {s}]), \"l\"(&{src}[rr * cols + cc]));")
            .unwrap();
        writeln!(out, "  }}").unwrap();
        writeln!(out, "  asm volatile(\"cp.async.wait_all;\");").unwrap();
    } else {
        if sched.copy_mode == CopyMode::Async {
            writeln!(
                out,
                "  // §IV-B analogue: no cp.async on {} — staged copy global -> VGPR -> {}",
                d.arch, d.shared
            )
            .unwrap();
        } else {
            writeln!(out, "  // staged copy: global -> registers -> {}", d.shared).unwrap();
        }
        writeln!(out, "  for (int e = {lane}; e < {s}*{s}; e += 32)").unwrap();
        writeln!(out, "    tile[e / {s}][e % {s}] = {src}[mod(r0 - {h} + e / {s}, rows) * cols + mod(c0 - {h} + e % {s}, cols)];").unwrap();
    }
    writeln!(out, "  {};", d.barrier).unwrap();
}

/// Emit the X fragment loads ([`Op::FragBuild`], Eq. 12) from the
/// shared window.
fn emit_frag_build(d: &Dialect, sched: &Schedule, declared: &mut bool, out: &mut String) {
    let geo = sched.geo;
    let s = geo.s;
    let ns = d.ns;
    writeln!(out).unwrap();
    writeln!(
        out,
        "  // Eq. 12: load the {}x{} window once as {} B fragments, reused by every term",
        s,
        s,
        geo.row_blocks() * geo.col_blocks()
    )
    .unwrap();
    if !*declared {
        writeln!(
            out,
            "  {ns}::fragment<{ns}::matrix_b, 8, 8, 4, double, {ns}::col_major> X[{}][{}];",
            geo.row_blocks(),
            geo.col_blocks()
        )
        .unwrap();
        *declared = true;
    }
    writeln!(out, "  for (int rb = 0; rb < {}; ++rb)", geo.row_blocks()).unwrap();
    writeln!(out, "    for (int cb = 0; cb < {}; ++cb)", geo.col_blocks()).unwrap();
    writeln!(out, "      {ns}::load_matrix_sync(X[rb][cb], &tile[4 * rb][8 * cb], {s});").unwrap();
}

/// Emit one RDG matrix chain ([`Op::MmaChain`]) on the selected backend.
fn emit_chain(d: &Dialect, cx: &Cx, ti: usize, out: &mut String) {
    let sched = cx.sched;
    let geo = sched.geo;
    let (ns, lane, shfl) = (d.ns, d.lane, d.shfl);
    writeln!(out).unwrap();
    let lower = cx.chain_lower(d.caps, ti);
    if lower == ChainLower::Scalar {
        let term = &sched.terms[ti].term;
        let units = if sched.backend == BackendKind::SimdCore {
            "tuned SIMD lanes".to_string()
        } else {
            format!("{} cores", d.scalar_cores)
        };
        writeln!(
            out,
            "  // ---- RDG term {ti} on {units} (ablation: {} cores off) ----",
            d.mma_cores
        )
        .unwrap();
        writeln!(out, "  for (int e = {lane}; e < 64; e += 32) {{").unwrap();
        writeln!(out, "    const int p = e / 8, q = e % 8; double s = 0.0;").unwrap();
        writeln!(
            out,
            "    for (int i = 0; i < {}; ++i)   // T = U{ti} · X (vertical gather)",
            term.u.len()
        )
        .unwrap();
        writeln!(
            out,
            "      for (int j = 0; j < {}; ++j) // R += T · V{ti} (horizontal gather)",
            term.v.len()
        )
        .unwrap();
        writeln!(
            out,
            "        s += u{ti}[i] * v{ti}[j] * tile[p + shift{ti} + i][q + shift{ti} + j];"
        )
        .unwrap();
        writeln!(out, "    acc_s[e] += s;").unwrap();
        writeln!(out, "  }}").unwrap();
        return;
    }
    if lower == ChainLower::MmaSparse {
        writeln!(
            out,
            "  // ---- RDG term {ti} (§III-B, 2:4 sparse): acc += U{ti} · X · V{ti} ----"
        )
        .unwrap();
    } else {
        writeln!(out, "  // ---- RDG term {ti} (§III-B): acc += U{ti} · X · V{ti} ----").unwrap();
        if sched.backend == BackendKind::SparseTcu {
            if d.caps.sparse_mma {
                writeln!(
                    out,
                    "  // (2:4 validator rejects this term — a U row has >2 nonzeros in its"
                )
                .unwrap();
                writeln!(out, "  //  4-wide k window — dense chain fallback)").unwrap();
            } else {
                writeln!(
                    out,
                    "  // (no f64 2:4 sparse tensor cores on {} — dense chain fallback)",
                    d.arch
                )
                .unwrap();
            }
        }
    }
    writeln!(out, "  for (int j = 0; j < {}; ++j) {{", geo.col_blocks()).unwrap();
    writeln!(out, "    {ns}::fragment<{ns}::accumulator, 8, 8, 4, double> T;").unwrap();
    writeln!(out, "    {ns}::fill_fragment(T, 0.0);").unwrap();
    if lower == ChainLower::MmaSparse {
        writeln!(
            out,
            "    for (int k = 0; k < {}; ++k)   // step 1: sparse vertical gather",
            geo.row_blocks()
        )
        .unwrap();
        writeln!(
            out,
            "      // mma.sp.sync.aligned.m8n8k4.f64: U{ti}meta steers the 2:4 operand muxes"
        )
        .unwrap();
        writeln!(out, "      mma_sp_sync(T, fragA_sp(U{ti}sp[k]), X[k][j], U{ti}meta[k]);")
            .unwrap();
    } else {
        writeln!(
            out,
            "    for (int k = 0; k < {}; ++k)   // step 1: vertical gather",
            geo.row_blocks()
        )
        .unwrap();
        writeln!(out, "      {ns}::mma_sync(T, fragA(U{ti}[k]), X[k][j], T);").unwrap();
    }
    if sched.split == AccSplit::Bvs {
        writeln!(out, "    // step 2 + §III-D BVS: T's register 0/1 ARE the two A fragments —")
            .unwrap();
        writeln!(out, "    // zero shuffles; the butterfly row swap lives in the V{ti} constants")
            .unwrap();
        writeln!(
            out,
            "    {ns}::mma_sync(acc, reinterpretA(T.x[0]), fragB(V{ti}[2 * j + 0]), acc);"
        )
        .unwrap();
        writeln!(
            out,
            "    {ns}::mma_sync(acc, reinterpretA(T.x[1]), fragB(V{ti}[2 * j + 1]), acc);"
        )
        .unwrap();
    } else {
        writeln!(out, "    // step 2 without BVS: natural column split needs cross-lane shuffles")
            .unwrap();
        writeln!(out, "    double lo = {shfl}T.x[0], shuf_lo({lane}));").unwrap();
        writeln!(out, "    double hi = {shfl}T.x[1], shuf_hi({lane}));").unwrap();
        writeln!(
            out,
            "    {ns}::mma_sync(acc, fragA_from(lo, hi, 0), fragB(V{ti}[2 * j + 0]), acc);"
        )
        .unwrap();
        writeln!(
            out,
            "    {ns}::mma_sync(acc, fragA_from(lo, hi, 1), fragB(V{ti}[2 * j + 1]), acc);"
        )
        .unwrap();
    }
    writeln!(out, "  }}").unwrap();
}

/// Emit the pointwise pyramid tip ([`Op::Pointwise`], §III-C).
fn emit_tip(d: &Dialect, sched: &Schedule, weight: f64, out: &mut String) {
    if weight == 0.0 {
        return;
    }
    let h = sched.h;
    let lane = d.lane;
    writeln!(out).unwrap();
    writeln!(out, "  // §III-C pyramid tip: 1x1 term, no matrix multiply needed").unwrap();
    if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore) {
        writeln!(out, "  for (int e = {lane}; e < 64; e += 32)").unwrap();
        writeln!(out, "    acc_s[e] += {weight:.17e} * tile[{h} + e / 8][{h} + e % 8];").unwrap();
    } else {
        writeln!(
            out,
            "  acc.x[0] += {weight:.17e} * tile[{h} + accRow({lane})][{h} + accCol({lane}, 0)];"
        )
        .unwrap();
        writeln!(
            out,
            "  acc.x[1] += {weight:.17e} * tile[{h} + accRow({lane})][{h} + accCol({lane}, 1)];"
        )
        .unwrap();
    }
}

/// Declare the shared input window: one per warp.
fn emit_tile_decl(d: &Dialect, sched: &Schedule, out: &mut String) {
    let s = sched.geo.s;
    writeln!(out, "  __shared__ double tile[{s}][{s}];   // one input window per {}", d.warp)
        .unwrap();
}

/// Emit the fused 1-D segment pack + banded gather ([`Op::RdgGather`],
/// §IV-C).
fn emit_gather_1d(d: &Dialect, sched: &Schedule, out: &mut String) {
    let sl = sched.seg_len;
    let h = sched.h;
    let lane = d.lane;
    writeln!(out, "  // §IV-C: pack 8 overlapping {sl}-long segments as the rows of X").unwrap();
    if sched.copy_mode == CopyMode::Async && d.caps.cp_async {
        writeln!(out, "  for (int e = {lane}; e < 8 * {sl}; e += 32) {{").unwrap();
        writeln!(out, "    const int seg = e / {sl}, c = mod(i0 + 8 * seg - {h} + e % {sl}, n);")
            .unwrap();
        writeln!(out, "    asm volatile(\"cp.async.ca.shared.global [%0], [%1], 8;\" ::").unwrap();
        writeln!(out, "      \"r\"(&seg_tile[seg][e % {sl}]), \"l\"(&in[c]));").unwrap();
        writeln!(out, "  }}").unwrap();
        writeln!(out, "  asm volatile(\"cp.async.wait_all;\");").unwrap();
    } else {
        if sched.copy_mode == CopyMode::Async {
            writeln!(out, "  // (no cp.async on {} — staged copy fallback)", d.arch).unwrap();
        } else {
            writeln!(out, "  // staged copy: global -> registers -> {}", d.shared).unwrap();
        }
        writeln!(out, "  for (int e = {lane}; e < 8 * {sl}; e += 32)").unwrap();
        writeln!(
            out,
            "    seg_tile[e / {sl}][e % {sl}] = in[mod(i0 + 8 * (e / {sl}) - {h} + e % {sl}, n)];"
        )
        .unwrap();
    }
    writeln!(out, "  {};", d.barrier).unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "  // the single banded MM gathers the whole dimension: {} chained MMAs, no MCM",
        sched.seg_len / MMA_K
    )
    .unwrap();
    writeln!(out, "  for (int blk = 0; blk < {}; ++blk)", sched.seg_len / MMA_K).unwrap();
    writeln!(
        out,
        "    {}::mma_sync(acc, fragA(&seg_tile[0][4 * blk]), fragB(V1D[blk]), acc);",
        d.ns
    )
    .unwrap();
}

impl super::Emitter for Dialect {
    fn target(&self) -> Target {
        self.target
    }

    fn caps(&self) -> Caps {
        self.caps
    }

    fn prologue(&self, cx: &Cx, out: &mut String) {
        banner(cx, out);
        for line in self.header {
            writeln!(out, "{line}").unwrap();
        }
    }

    fn term_tables(&self, cx: &Cx, ti: usize, out: &mut String) {
        match cx.chain_lower(self.caps, ti) {
            ChainLower::Mma | ChainLower::MmaEmulated => dense_term_tables(cx.sched, ti, out),
            ChainLower::MmaSparse => sparse_term_tables(cx.sched, ti, out),
            ChainLower::Scalar => scalar_term_tables(cx.sched, ti, out),
        }
    }

    fn banded_table(&self, cx: &Cx, out: &mut String) {
        emit_banded_table(cx.sched, out);
    }

    fn kernel_open(&self, cx: &Cx, out: &mut String) {
        let sched = cx.sched;
        writeln!(out).unwrap();
        let fn_name = cx.fn_name();
        match sched.dims {
            1 => {
                writeln!(
                    out,
                    "__global__ void lorastencil_{fn_name}(const double* __restrict__ in,"
                )
                .unwrap();
                writeln!(
                    out,
                    "                               double* __restrict__ outp, int n) {{"
                )
                .unwrap();
                writeln!(
                    out,
                    "  __shared__ double seg_tile[8][{}];   // 8 overlapping segments per {}",
                    sched.seg_len, self.warp
                )
                .unwrap();
                writeln!(out, "  const int i0 = 64 * (blockIdx.x * blockDim.y + threadIdx.y);")
                    .unwrap();
            }
            2 => {
                writeln!(
                    out,
                    "__global__ void lorastencil_{fn_name}(const double* __restrict__ in,"
                )
                .unwrap();
                writeln!(
                    out,
                    "                               double* __restrict__ outp, int rows, int cols) {{"
                )
                .unwrap();
                emit_tile_decl(self, sched, out);
                writeln!(out, "  const int r0 = 8 * (blockIdx.y * blockDim.y + threadIdx.y);")
                    .unwrap();
                writeln!(out, "  const int c0 = 8 * blockIdx.x;").unwrap();
            }
            _ => {
                writeln!(
                    out,
                    "__global__ void lorastencil_{fn_name}(const double* const* __restrict__ planes,"
                )
                .unwrap();
                writeln!(
                    out,
                    "                               double* __restrict__ outp, int rows, int cols) {{"
                )
                .unwrap();
                writeln!(
                    out,
                    "  // one output plane per blockIdx.z; input planes wrap periodically"
                )
                .unwrap();
                emit_tile_decl(self, sched, out);
                writeln!(out, "  const int r0 = 8 * (blockIdx.y * blockDim.y + threadIdx.y);")
                    .unwrap();
                writeln!(out, "  const int c0 = 8 * blockIdx.x;").unwrap();
                writeln!(out, "  const int z = blockIdx.z;").unwrap();
            }
        }
        writeln!(out).unwrap();
        if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore)
            || sched.fold != AccFold::FragOnly
        {
            writeln!(out, "  double acc_s[64] = {{0.0}};   // {} accumulator", self.scalar_acc)
                .unwrap();
        }
        if cx.uses_fragments() {
            let ns = self.ns;
            writeln!(out, "  {ns}::fragment<{ns}::accumulator, 8, 8, 4, double> acc;").unwrap();
            writeln!(out, "  {ns}::fill_fragment(acc, 0.0);").unwrap();
        }
    }

    fn op(&self, cx: &Cx, i: usize, op: &Op, st: &mut EmitState, out: &mut String) {
        let sched = cx.sched;
        let h = sched.h;
        match *op {
            Op::Stage { dz } => {
                writeln!(out).unwrap();
                let src = if sched.dims == 3 {
                    writeln!(
                        out,
                        "  // ---- plane dz={dz}: 2-D dependency gathering (Algorithm 2 line 8) ----"
                    )
                    .unwrap();
                    writeln!(out, "  const double* in{dz} = planes[mod(z + {dz} - {h}, nz)];")
                        .unwrap();
                    format!("in{dz}")
                } else {
                    "in".to_string()
                };
                emit_stage(self, sched, &src, out);
            }
            Op::FragBuild => emit_frag_build(self, sched, &mut st.x_declared, out),
            Op::RdgGather => emit_gather_1d(self, sched, out),
            Op::MmaChain { term } => emit_chain(self, cx, term as usize, out),
            Op::Pointwise { weight } => emit_tip(self, sched, weight, out),
            Op::PointwisePlane { dz, weight } => {
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "  // ---- plane dz={dz}: single center weight, point-wise on {} cores",
                    self.scalar_cores
                )
                .unwrap();
                writeln!(
                    out,
                    "  //      (Algorithm 2 line 5; no {} staging) ----",
                    self.shared_memory
                )
                .unwrap();
                writeln!(out, "  const double* pw{i} = planes[mod(z + {dz} - {h}, nz)];").unwrap();
                writeln!(out, "  for (int e = {}; e < 64; e += 32)", self.lane).unwrap();
                writeln!(
                    out,
                    "    acc_s[e] += {weight:.17e} * pw{i}[(r0 + e / 8) * cols + c0 + e % 8];"
                )
                .unwrap();
            }
            Op::SkipPlane { dz } => {
                writeln!(out).unwrap();
                writeln!(out, "  // ---- plane dz={dz}: all-zero, skipped ----").unwrap();
            }
        }
    }

    fn epilogue(&self, cx: &Cx, out: &mut String) {
        let (ns, lane) = (self.ns, self.lane);
        let sched = cx.sched;
        writeln!(out).unwrap();
        // sparse shares the tensor-core epilogue (the accumulator layout is
        // the dense one); SIMD shares the scalar store
        match (sched.backend, sched.fold) {
            (BackendKind::TcuF64 | BackendKind::SparseTcu, AccFold::Merge) => {
                writeln!(
                    out,
                    "  // fold the {}-core accumulator into the scalar one",
                    self.mma_cores
                )
                .unwrap();
                writeln!(out, "  acc_s[accIdx({lane}, 0)] += acc.x[0];").unwrap();
                writeln!(out, "  acc_s[accIdx({lane}, 1)] += acc.x[1];").unwrap();
                writeln!(out, "  store_scalar_tile(&outp[r0 * cols + c0], acc_s, cols);").unwrap();
            }
            (BackendKind::TcuF64 | BackendKind::SparseTcu, _) => {
                let dst = if sched.dims == 1 { "&outp[i0]" } else { "&outp[r0 * cols + c0]" };
                let ld = if sched.dims == 1 { "8" } else { "cols" };
                writeln!(out, "  {ns}::store_matrix_sync({dst}, acc, {ld}, {ns}::mem_row_major);")
                    .unwrap();
            }
            (BackendKind::CudaCore | BackendKind::SimdCore, _) => {
                writeln!(out, "  store_scalar_tile(&outp[r0 * cols + c0], acc_s, cols);").unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
    }
    fn op_anchor(&self, cx: &Cx, i: usize, op: &Op) -> Option<String> {
        let sched = cx.sched;
        match *op {
            Op::Stage { .. } => Some(format!("tile[e / {}]", sched.geo.s)),
            Op::FragBuild => Some("Eq. 12".to_string()),
            Op::RdgGather => Some("fragB(V1D[blk])".to_string()),
            Op::MmaChain { term } => Some(format!("---- RDG term {term} ")),
            Op::Pointwise { weight } => (weight != 0.0).then(|| "pyramid tip".to_string()),
            Op::PointwisePlane { .. } => Some(format!("pw{i}[")),
            Op::SkipPlane { dz } => Some(format!("plane dz={dz}: all-zero")),
        }
    }

    fn term_table_refs(&self, cx: &Cx, ti: usize) -> Vec<super::TableRef> {
        let r = |decl: String, usage: String| super::TableRef { decl, usage };
        match cx.chain_lower(self.caps, ti) {
            ChainLower::Mma | ChainLower::MmaEmulated => vec![
                r(format!("__constant__ double U{ti}["), format!("fragA(U{ti}[")),
                r(format!("__constant__ double V{ti}["), format!("fragB(V{ti}[")),
            ],
            ChainLower::MmaSparse => vec![
                r(format!("__constant__ double U{ti}sp["), format!("fragA_sp(U{ti}sp[")),
                r(format!("__constant__ unsigned U{ti}meta["), format!("U{ti}meta[k]")),
                r(format!("__constant__ double V{ti}["), format!("fragB(V{ti}[")),
            ],
            ChainLower::Scalar => vec![
                r(format!("__constant__ double u{ti}["), format!("u{ti}[i]")),
                r(format!("__constant__ double v{ti}["), format!("v{ti}[j]")),
                r(format!("const int shift{ti} ="), format!("shift{ti} + ")),
            ],
        }
    }

    fn banded_table_refs(&self, _cx: &Cx) -> Vec<super::TableRef> {
        vec![super::TableRef {
            decl: "__constant__ double V1D[".to_string(),
            usage: "fragB(V1D[blk])".to_string(),
        }]
    }
}
