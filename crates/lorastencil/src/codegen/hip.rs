//! The HIP/rocWMMA emitter: the CDNA analogue of the CUDA listing.
//!
//! CDNA matrix cores run `m8n8k4` f64 MMAs through rocWMMA fragments, so
//! the RDG chains and the BVS register reinterpretation survive intact.
//! Two mechanisms do not, and render their documented fallbacks instead
//! of silently wrong code:
//!
//! * **`cp.async`** — CDNA has no global→LDS copy that bypasses the
//!   register file, so §IV-B staging lowers to a plain staged copy (and
//!   double-buffered prefetches lose their hardware overlap).
//! * **2:4 sparse `mma.sp`** — no f64 structured sparsity on CDNA, so
//!   sparse-backend plans run every term's dense chain, each annotated
//!   with the fallback.
//!
//! The per-lane constant tables are identical to CUDA's: the fragment
//! layout being rendered is the A100 `m8n8k4` mapping, occupying lanes
//! 0..31 of the 64-wide wave (the capability header says so).

use super::{banner, Caps, ChainLower, Cx, EmitState, Target};
use crate::schedule::{AccSplit, BackendKind, Op, Schedule};
use std::fmt::Write as _;
use tcu_sim::MMA_K;

/// The [`Target::Hip`] emitter.
pub struct HipEmitter;

/// What CDNA offers: WMMA and shuffles, but no `cp.async` and no f64
/// structured sparsity.
pub const CAPS: Caps =
    Caps { wmma: true, sparse_mma: false, cp_async: false, subgroup_shuffle: true };

/// The per-listing capability header (which LoRAStencil mechanisms are
/// native on this target, which fall back, and how).
fn capability_header(out: &mut String) {
    writeln!(out, "// ------------------------------------------------------------ HIP / CDNA")
        .unwrap();
    writeln!(out, "// capability audit — how LoRAStencil's mechanisms land on this target:")
        .unwrap();
    writeln!(out, "//   wmma m8n8k4 f64    : NATIVE    rocWMMA fragments on the matrix cores")
        .unwrap();
    writeln!(out, "//   2:4 sparse mma.sp  : FALLBACK  no f64 structured sparsity on CDNA;")
        .unwrap();
    writeln!(out, "//                                  sparse-plan terms run the dense chain")
        .unwrap();
    writeln!(out, "//   cp.async staging   : FALLBACK  no global->LDS bypass instruction;")
        .unwrap();
    writeln!(out, "//                                  staged copy through the register file")
        .unwrap();
    writeln!(out, "//   subgroup shuffle   : NATIVE    __shfl across the wave (wave64: the")
        .unwrap();
    writeln!(out, "//                                  m8n8k4 layout occupies lanes 0..31)")
        .unwrap();
    writeln!(out, "// ------------------------------------------------------------------------")
        .unwrap();
}

/// Emit the global→LDS staging of one S×S window ([`Op::Stage`]): the
/// staged-copy fallback, annotated when the plan asked for `cp.async`.
fn emit_stage(sched: &Schedule, src: &str, slot: u8, out: &mut String) {
    let s = sched.geo.s;
    let h = sched.h;
    let tile = super::tile_name(sched, slot);
    if sched.copy_mode == tcu_sim::CopyMode::Async {
        writeln!(
            out,
            "  // §IV-B analogue: no cp.async on CDNA — staged copy global -> VGPR -> LDS"
        )
        .unwrap();
        if sched.staging == crate::schedule::Staging::Double {
            writeln!(out, "  // (the prefetch overlap now relies on the compiler hoisting these")
                .unwrap();
            writeln!(out, "  //  loads across the live slot's MMA chain)").unwrap();
        }
    } else {
        writeln!(out, "  // staged copy: global -> registers -> LDS").unwrap();
    }
    writeln!(out, "  for (int e = __lane_id(); e < {s}*{s}; e += 32)").unwrap();
    writeln!(out, "    {tile}[e / {s}][e % {s}] = {src}[mod(r0 - {h} + e / {s}, rows) * cols + mod(c0 - {h} + e % {s}, cols)];").unwrap();
    writeln!(out, "  __builtin_amdgcn_wave_barrier();").unwrap();
}

/// Emit the X fragment loads ([`Op::FragBuild`], Eq. 12) from LDS
/// window `slot`.
fn emit_frag_build(sched: &Schedule, slot: u8, declared: &mut bool, out: &mut String) {
    let geo = sched.geo;
    let s = geo.s;
    let tile = super::tile_name(sched, slot);
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
            "  rocwmma::fragment<rocwmma::matrix_b, 8, 8, 4, double, rocwmma::col_major> X[{}][{}];",
            geo.row_blocks(),
            geo.col_blocks()
        )
        .unwrap();
        *declared = true;
    }
    if sched.staging == crate::schedule::Staging::Double
        && sched.copy_mode == tcu_sim::CopyMode::Async
    {
        writeln!(out, "  __builtin_amdgcn_s_waitcnt(0); // vmcnt(0): slot {slot} loads landed")
            .unwrap();
    }
    writeln!(out, "  for (int rb = 0; rb < {}; ++rb)", geo.row_blocks()).unwrap();
    writeln!(out, "    for (int cb = 0; cb < {}; ++cb)", geo.col_blocks()).unwrap();
    writeln!(out, "      rocwmma::load_matrix_sync(X[rb][cb], &{tile}[4 * rb][8 * cb], {s});")
        .unwrap();
}

/// Emit one RDG matrix chain ([`Op::MmaChain`]) on the selected backend.
fn emit_chain(cx: &Cx, ti: usize, out: &mut String) {
    let sched = cx.sched;
    let geo = sched.geo;
    writeln!(out).unwrap();
    if cx.chain_lower(CAPS, ti) == ChainLower::Scalar {
        let term = &sched.terms[ti].term;
        if sched.backend == BackendKind::SimdCore {
            writeln!(
                out,
                "  // ---- RDG term {ti} on tuned SIMD lanes (ablation: matrix cores off) ----"
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "  // ---- RDG term {ti} on scalar cores (ablation: matrix cores off) ----"
            )
            .unwrap();
        }
        writeln!(out, "  for (int e = __lane_id(); e < 64; e += 32) {{").unwrap();
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
    writeln!(out, "  // ---- RDG term {ti} (§III-B): acc += U{ti} · X · V{ti} ----").unwrap();
    if sched.backend == BackendKind::SparseTcu {
        writeln!(out, "  // (no f64 2:4 sparse tensor cores on CDNA — dense chain fallback)")
            .unwrap();
    }
    writeln!(out, "  for (int j = 0; j < {}; ++j) {{", geo.col_blocks()).unwrap();
    writeln!(out, "    rocwmma::fragment<rocwmma::accumulator, 8, 8, 4, double> T;").unwrap();
    writeln!(out, "    rocwmma::fill_fragment(T, 0.0);").unwrap();
    writeln!(
        out,
        "    for (int k = 0; k < {}; ++k)   // step 1: vertical gather",
        geo.row_blocks()
    )
    .unwrap();
    writeln!(out, "      rocwmma::mma_sync(T, fragA(U{ti}[k]), X[k][j], T);").unwrap();
    if sched.split == AccSplit::Bvs {
        writeln!(out, "    // step 2 + §III-D BVS: T's register 0/1 ARE the two A fragments —")
            .unwrap();
        writeln!(out, "    // zero shuffles; the butterfly row swap lives in the V{ti} constants")
            .unwrap();
        writeln!(
            out,
            "    rocwmma::mma_sync(acc, reinterpretA(T.x[0]), fragB(V{ti}[2 * j + 0]), acc);"
        )
        .unwrap();
        writeln!(
            out,
            "    rocwmma::mma_sync(acc, reinterpretA(T.x[1]), fragB(V{ti}[2 * j + 1]), acc);"
        )
        .unwrap();
    } else {
        writeln!(out, "    // step 2 without BVS: natural column split needs cross-lane shuffles")
            .unwrap();
        writeln!(out, "    double lo = __shfl(T.x[0], shuf_lo(__lane_id()));").unwrap();
        writeln!(out, "    double hi = __shfl(T.x[1], shuf_hi(__lane_id()));").unwrap();
        writeln!(
            out,
            "    rocwmma::mma_sync(acc, fragA_from(lo, hi, 0), fragB(V{ti}[2 * j + 0]), acc);"
        )
        .unwrap();
        writeln!(
            out,
            "    rocwmma::mma_sync(acc, fragA_from(lo, hi, 1), fragB(V{ti}[2 * j + 1]), acc);"
        )
        .unwrap();
    }
    writeln!(out, "  }}").unwrap();
}

/// Emit the pointwise pyramid tip ([`Op::Pointwise`], §III-C).
fn emit_tip(sched: &Schedule, weight: f64, out: &mut String) {
    if weight == 0.0 {
        return;
    }
    let h = sched.h;
    writeln!(out).unwrap();
    writeln!(out, "  // §III-C pyramid tip: 1x1 term, no matrix multiply needed").unwrap();
    if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore) {
        writeln!(out, "  for (int e = __lane_id(); e < 64; e += 32)").unwrap();
        writeln!(out, "    acc_s[e] += {weight:.17e} * tile[{h} + e / 8][{h} + e % 8];").unwrap();
    } else {
        writeln!(
            out,
            "  acc.x[0] += {weight:.17e} * tile[{h} + accRow(__lane_id())][{h} + accCol(__lane_id(), 0)];"
        )
        .unwrap();
        writeln!(
            out,
            "  acc.x[1] += {weight:.17e} * tile[{h} + accRow(__lane_id())][{h} + accCol(__lane_id(), 1)];"
        )
        .unwrap();
    }
}

/// Emit the fused 1-D segment pack + banded gather ([`Op::RdgGather`],
/// §IV-C) — always the staged copy (no `cp.async` on this target).
fn emit_gather_1d(sched: &Schedule, out: &mut String) {
    let sl = sched.seg_len;
    let h = sched.h;
    writeln!(out, "  // §IV-C: pack 8 overlapping {sl}-long segments as the rows of X").unwrap();
    if sched.copy_mode == tcu_sim::CopyMode::Async {
        writeln!(out, "  // (no cp.async on CDNA — staged copy fallback)").unwrap();
    } else {
        writeln!(out, "  // staged copy: global -> registers -> LDS").unwrap();
    }
    writeln!(out, "  for (int e = __lane_id(); e < 8 * {sl}; e += 32)").unwrap();
    writeln!(
        out,
        "    seg_tile[e / {sl}][e % {sl}] = in[mod(i0 + 8 * (e / {sl}) - {h} + e % {sl}, n)];"
    )
    .unwrap();
    writeln!(out, "  __builtin_amdgcn_wave_barrier();").unwrap();
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
        "    rocwmma::mma_sync(acc, fragA(&seg_tile[0][4 * blk]), fragB(V1D[blk]), acc);"
    )
    .unwrap();
}

impl super::Emitter for HipEmitter {
    fn target(&self) -> Target {
        Target::Hip
    }

    fn caps(&self) -> Caps {
        CAPS
    }

    fn prologue(&self, cx: &Cx, out: &mut String) {
        banner(cx, out);
        capability_header(out);
    }

    fn term_tables(&self, cx: &Cx, ti: usize, out: &mut String) {
        match cx.chain_lower(CAPS, ti) {
            ChainLower::Scalar => super::cuda::scalar_term_tables(cx.sched, ti, out),
            _ => super::cuda::dense_term_tables(cx.sched, ti, out),
        }
    }

    fn banded_table(&self, cx: &Cx, out: &mut String) {
        super::cuda::emit_banded_table(cx.sched, out);
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
                    "  __shared__ double seg_tile[8][{}];   // 8 overlapping segments per wave",
                    sched.seg_len
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
                emit_tile_decl(sched, out);
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
                emit_tile_decl(sched, out);
                writeln!(out, "  const int r0 = 8 * (blockIdx.y * blockDim.y + threadIdx.y);")
                    .unwrap();
                writeln!(out, "  const int c0 = 8 * blockIdx.x;").unwrap();
                writeln!(out, "  const int z = blockIdx.z;").unwrap();
            }
        }
        writeln!(out).unwrap();
        if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore)
            || sched.fold != crate::schedule::AccFold::FragOnly
        {
            writeln!(out, "  double acc_s[64] = {{0.0}};   // scalar-core accumulator").unwrap();
        }
        if cx.uses_fragments() {
            writeln!(out, "  rocwmma::fragment<rocwmma::accumulator, 8, 8, 4, double> acc;")
                .unwrap();
            writeln!(out, "  rocwmma::fill_fragment(acc, 0.0);").unwrap();
        }
    }

    fn op(&self, cx: &Cx, i: usize, op: &Op, st: &mut EmitState, out: &mut String) {
        let sched = cx.sched;
        let h = sched.h;
        match *op {
            Op::Stage { dz, slot } => {
                writeln!(out).unwrap();
                let src = if sched.dims == 3 {
                    if sched.staging == crate::schedule::Staging::Double {
                        writeln!(
                            out,
                            "  // ---- prefetch plane dz={dz} into slot {slot} (software-pipelined;"
                        )
                        .unwrap();
                        writeln!(out, "  //      Algorithm 2 line 8) ----").unwrap();
                    } else {
                        writeln!(
                            out,
                            "  // ---- plane dz={dz}: 2-D dependency gathering (Algorithm 2 line 8) ----"
                        )
                        .unwrap();
                    }
                    writeln!(out, "  const double* in{dz} = planes[mod(z + {dz} - {h}, nz)];")
                        .unwrap();
                    format!("in{dz}")
                } else {
                    "in".to_string()
                };
                emit_stage(sched, &src, slot, out);
            }
            Op::FragBuild { slot } => emit_frag_build(sched, slot, &mut st.x_declared, out),
            Op::RdgGather => emit_gather_1d(sched, out),
            Op::MmaChain { term } => emit_chain(cx, term as usize, out),
            Op::Pointwise { weight } => emit_tip(sched, weight, out),
            Op::PointwisePlane { dz, weight } => {
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "  // ---- plane dz={dz}: single center weight, point-wise on scalar cores"
                )
                .unwrap();
                writeln!(out, "  //      (Algorithm 2 line 5; no LDS staging) ----").unwrap();
                writeln!(out, "  const double* pw{i} = planes[mod(z + {dz} - {h}, nz)];").unwrap();
                writeln!(out, "  for (int e = __lane_id(); e < 64; e += 32)").unwrap();
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
        let sched = cx.sched;
        writeln!(out).unwrap();
        match (sched.backend, sched.fold) {
            (BackendKind::TcuF64 | BackendKind::SparseTcu, crate::schedule::AccFold::Merge) => {
                writeln!(out, "  // fold the matrix-core accumulator into the scalar one").unwrap();
                writeln!(out, "  acc_s[accIdx(__lane_id(), 0)] += acc.x[0];").unwrap();
                writeln!(out, "  acc_s[accIdx(__lane_id(), 1)] += acc.x[1];").unwrap();
                writeln!(out, "  store_scalar_tile(&outp[r0 * cols + c0], acc_s, cols);").unwrap();
            }
            (BackendKind::TcuF64 | BackendKind::SparseTcu, _) => {
                let dst = if sched.dims == 1 {
                    "&outp[i0]".to_string()
                } else {
                    "&outp[r0 * cols + c0]".to_string()
                };
                let ld = if sched.dims == 1 { "8".to_string() } else { "cols".to_string() };
                writeln!(
                    out,
                    "  rocwmma::store_matrix_sync({dst}, acc, {ld}, rocwmma::mem_row_major);"
                )
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
            Op::Stage { slot, .. } => {
                Some(format!("{}[e / {}]", super::tile_name(sched, slot), sched.geo.s))
            }
            Op::FragBuild { .. } => Some("Eq. 12".to_string()),
            Op::RdgGather => Some("fragB(V1D[blk])".to_string()),
            Op::MmaChain { term } => Some(format!("---- RDG term {term} ")),
            Op::Pointwise { weight } => (weight != 0.0).then(|| "pyramid tip".to_string()),
            Op::PointwisePlane { .. } => Some(format!("pw{i}[")),
            Op::SkipPlane { dz } => Some(format!("plane dz={dz}: all-zero")),
        }
    }

    fn term_table_refs(&self, cx: &Cx, ti: usize) -> Vec<super::TableRef> {
        let r = |decl: String, usage: String| super::TableRef { decl, usage };
        match cx.chain_lower(CAPS, ti) {
            ChainLower::Scalar => vec![
                r(format!("__constant__ double u{ti}["), format!("u{ti}[i]")),
                r(format!("__constant__ double v{ti}["), format!("v{ti}[j]")),
                r(format!("const int shift{ti} ="), format!("shift{ti} + ")),
            ],
            _ => vec![
                r(format!("__constant__ double U{ti}["), format!("fragA(U{ti}[")),
                r(format!("__constant__ double V{ti}["), format!("fragB(V{ti}[")),
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

/// Declare the LDS input window(s).
fn emit_tile_decl(sched: &Schedule, out: &mut String) {
    let s = sched.geo.s;
    if sched.staging == crate::schedule::Staging::Double {
        writeln!(
            out,
            "  __shared__ double tile[2][{s}][{s}];   // double-buffered window slots per wave"
        )
        .unwrap();
    } else {
        writeln!(out, "  __shared__ double tile[{s}][{s}];   // one input window per wave")
            .unwrap();
    }
}
