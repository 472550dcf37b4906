//! The WGSL emitter: LoRAStencil as a WebGPU compute shader.
//!
//! WGSL has no warp-level cooperative matrices, no f64 storage, and no
//! `cp.async`; what it does have is `subgroupShuffle`. The mapping:
//!
//! * **MMA chains** are *emulated exactly*: each lane computes the two
//!   accumulator elements the A100 `m8n8k4` layout assigns it (element
//!   `(r, c)` lives in lane `4r + c/2`, register `c % 2`), reading the
//!   same per-lane constant tables the CUDA listing loads into
//!   fragments. The tensor core's internal k-reduction — invisible in
//!   WMMA code — is spelled out as one `subgroupShuffle` per A element.
//! * **BVS (§III-D) survives**: with the butterfly split, the step-2 A
//!   fragment element `(p, k)` *is* lane `4p + k`'s step-1 register, so
//!   the emulation needs zero data-movement shuffles — exactly the
//!   property BVS buys on hardware — and the row swap stays baked into
//!   the V constants (Eq. 17). Without BVS the natural split must fetch
//!   across registers *and* lanes, and the listing shows that traffic.
//! * **Staging** lowers to plain workgroup-memory loops + barriers;
//!   **f64** narrows to f32 (the capability header says so); **2:4
//!   sparsity** has no pipeline to land on and runs the dense emulation.
//!
//! Every listing opens with a capability header declaring which
//! mechanisms are native, emulated, or preserved, so a reader can audit
//! the port at a glance.

use super::{banner, lit, Caps, ChainLower, Cx, EmitState, Target};
use crate::schedule::{AccSplit, BackendKind, Op, Schedule};
use std::fmt::Write as _;
use tcu_sim::MMA_K;

/// The [`Target::Wgsl`] emitter.
pub struct WgslEmitter;

/// What WebGPU offers: subgroup shuffles and nothing else from the
/// matrix: no cooperative matrices, no sparsity, no async copies.
pub const CAPS: Caps =
    Caps { wmma: false, sparse_mma: false, cp_async: false, subgroup_shuffle: true };

/// Whether this schedule's listing performs cross-lane exchanges (only
/// the emulated-WMMA chains do; scalar chains and the 1-D banded gather
/// are pure per-lane arithmetic).
fn needs_subgroups(cx: &Cx) -> bool {
    cx.uses_fragments() && cx.sched.ops.iter().any(|op| matches!(op, Op::MmaChain { .. }))
}

/// The per-listing capability header: which LoRAStencil mechanisms are
/// native vs emulated on this target, and where BVS's guarantee went.
fn capability_header(cx: &Cx, out: &mut String) {
    writeln!(out, "// --------------------------------------------------------- WGSL / WebGPU")
        .unwrap();
    writeln!(out, "// capability audit — how LoRAStencil's mechanisms land on this target:")
        .unwrap();
    writeln!(out, "//   wmma m8n8k4 f64    : EMULATED  no cooperative matrices; chains are")
        .unwrap();
    writeln!(out, "//                                  scalar loops over the exact A100").unwrap();
    writeln!(out, "//                                  fragment lane layout (f64 -> f32)").unwrap();
    writeln!(out, "//   2:4 sparse mma.sp  : EMULATED  no sparse pipeline; sparse-plan terms")
        .unwrap();
    writeln!(out, "//                                  run the dense emulation").unwrap();
    writeln!(out, "//   cp.async staging   : EMULATED  plain workgroup staging + barrier").unwrap();
    if needs_subgroups(cx) {
        writeln!(out, "//   subgroup shuffle   : NATIVE    subgroupShuffle carries the tensor")
            .unwrap();
        writeln!(out, "//                                  core's internal k-reduction (step 2)")
            .unwrap();
        if cx.sched.split == AccSplit::Bvs {
            writeln!(out, "//   butterfly BVS      : PRESERVED zero data-movement shuffles in")
                .unwrap();
            writeln!(
                out,
                "//                                  step 2's A side; the row swap lives"
            )
            .unwrap();
            writeln!(out, "//                                  in the V constants (Eq. 17)")
                .unwrap();
        }
    } else {
        writeln!(out, "//   subgroup shuffle   : UNUSED    no cross-lane exchange in this listing")
            .unwrap();
    }
    writeln!(out, "// ------------------------------------------------------------------------")
        .unwrap();
    if needs_subgroups(cx) {
        writeln!(out, "enable subgroups;").unwrap();
    }
}

/// Per-lane fragment tables for the emulated chains — the *same* 32
/// values per fragment the CUDA listing holds in `__constant__` arrays,
/// reusable verbatim because the emulation indexes the identical lane
/// layout.
fn frag_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let use_bvs = sched.split == AccSplit::Bvs;
    let u = crate::rdg::build_u_frags(term, sched.geo);
    let v = crate::rdg::build_v_frags(term, sched.geo, use_bvs);
    writeln!(out, "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ)", term.side()).unwrap();
    writeln!(out, "// U{ti}[k][lane]: A-fragment element (r, kk) of block k lives at lane 4r + kk")
        .unwrap();
    writeln!(out, "var<private> U{ti} = array(").unwrap();
    for frag in &u {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  array({}),", row.join(", ")).unwrap();
    }
    writeln!(out, ");").unwrap();
    writeln!(
        out,
        "// V{ti}[f][lane]: B-fragment element (k, c) lives at lane 4c + k{}",
        if use_bvs { ", butterfly-row-swapped (Eq. 17)" } else { "" }
    )
    .unwrap();
    writeln!(out, "var<private> V{ti} = array(").unwrap();
    for frag in &v {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  array({}),", row.join(", ")).unwrap();
    }
    writeln!(out, ");").unwrap();
}

/// Raw factor tables for the scalar-chain ablation backends.
fn scalar_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let shift = sched.geo.h - term.radius();
    writeln!(
        out,
        "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ) — raw factors (f64 -> f32)",
        term.side()
    )
    .unwrap();
    let us: Vec<String> = term.u.iter().map(|x| lit(*x)).collect();
    let vs: Vec<String> = term.v.iter().map(|x| lit(*x)).collect();
    writeln!(out, "var<private> u{ti} = array({});", us.join(", ")).unwrap();
    writeln!(out, "var<private> v{ti} = array({});", vs.join(", ")).unwrap();
    writeln!(out, "const shift{ti} : u32 = {shift}u;   // band offset h - h_t (Eq. 10)").unwrap();
}

/// Emit the global→workgroup staging of one S×S window ([`Op::Stage`]).
fn emit_stage(sched: &Schedule, dz: Option<usize>, out: &mut String) {
    let s = sched.geo.s;
    let h = sched.h;
    if sched.copy_mode == tcu_sim::CopyMode::Async {
        writeln!(out, "  // §IV-B analogue: cp.async EMULATED — plain workgroup staging + barrier")
            .unwrap();
    } else {
        writeln!(out, "  // staged copy: global -> registers -> workgroup tile").unwrap();
    }
    writeln!(out, "  for (var e = lane; e < {}u; e += 32u) {{", s * s).unwrap();
    writeln!(out, "    let rr = pmod(r0 - {h} + i32(e / {s}u), rows);").unwrap();
    writeln!(out, "    let cc = pmod(c0 - {h} + i32(e % {s}u), cols);").unwrap();
    let base = match dz {
        Some(dz) => format!("base{dz} + "),
        None => String::new(),
    };
    writeln!(out, "    tile[e / {s}u][e % {s}u] = field_in[{base}u32(rr * cols + cc)];").unwrap();
    writeln!(out, "  }}").unwrap();
    writeln!(out, "  workgroupBarrier();").unwrap();
}

/// Emit one emulated RDG matrix chain (both accumulator splits).
fn emit_frag_chain(cx: &Cx, ti: usize, out: &mut String) {
    let sched = cx.sched;
    let geo = sched.geo;
    writeln!(
        out,
        "  // ---- RDG term {ti} (§III-B): acc += U{ti} · X · V{ti} — EMULATED wmma ----"
    )
    .unwrap();
    if sched.backend == BackendKind::SparseTcu {
        writeln!(out, "  // (sparse backend: no 2:4 pipeline on this target; dense emulation)")
            .unwrap();
    }
    writeln!(out, "  for (var j = 0u; j < {}u; j++) {{", geo.col_blocks()).unwrap();
    writeln!(out, "    // step 1: vertical gather T = U{ti} · X; each lane computes its two")
        .unwrap();
    writeln!(out, "    // accumulator-layout elements of T").unwrap();
    writeln!(out, "    var t0 = 0.0;").unwrap();
    writeln!(out, "    var t1 = 0.0;").unwrap();
    writeln!(out, "    for (var k = 0u; k < {}u; k++) {{", geo.row_blocks()).unwrap();
    writeln!(out, "      for (var kk = 0u; kk < 4u; kk++) {{").unwrap();
    writeln!(out, "        let uv = U{ti}[k][4u * acc_row(lane) + kk];").unwrap();
    writeln!(out, "        t0 += uv * tile[4u * k + kk][8u * j + acc_col(lane, 0u)];").unwrap();
    writeln!(out, "        t1 += uv * tile[4u * k + kk][8u * j + acc_col(lane, 1u)];").unwrap();
    writeln!(out, "      }}").unwrap();
    writeln!(out, "    }}").unwrap();
    if sched.split == AccSplit::Bvs {
        writeln!(out, "    // step 2 + §III-D BVS: this lane's t0/t1 ARE its two A-fragment")
            .unwrap();
        writeln!(out, "    // elements — zero data-movement shuffles; the butterfly row swap")
            .unwrap();
        writeln!(out, "    // lives in the V{ti} constants. The subgroupShuffle below is the")
            .unwrap();
        writeln!(out, "    // tensor core's own k-reduction, spelled out: A element (p, k)")
            .unwrap();
        writeln!(out, "    // lives in lane 4p + k.").unwrap();
        writeln!(out, "    for (var k = 0u; k < 4u; k++) {{").unwrap();
        writeln!(out, "      let a0 = subgroupShuffle(t0, 4u * acc_row(lane) + k);").unwrap();
        writeln!(out, "      let a1 = subgroupShuffle(t1, 4u * acc_row(lane) + k);").unwrap();
    } else {
        writeln!(out, "    // step 2 without BVS: the natural split's A elements live across")
            .unwrap();
        writeln!(out, "    // both T registers of other lanes — per-element cross-lane fetches,")
            .unwrap();
        writeln!(out, "    // the traffic BVS exists to remove (§III-D)").unwrap();
        writeln!(out, "    for (var k = 0u; k < 4u; k++) {{").unwrap();
        writeln!(out, "      let reg_k = select(t1, t0, (k % 2u) == 0u);   // T register k % 2")
            .unwrap();
        writeln!(out, "      let a0 = subgroupShuffle(reg_k, 4u * acc_row(lane) + k / 2u);")
            .unwrap();
        writeln!(out, "      let a1 = subgroupShuffle(reg_k, 4u * acc_row(lane) + 2u + k / 2u);")
            .unwrap();
    }
    writeln!(out, "      acc0 += a0 * V{ti}[2u * j + 0u][4u * acc_col(lane, 0u) + k]").unwrap();
    writeln!(out, "            + a1 * V{ti}[2u * j + 1u][4u * acc_col(lane, 0u) + k];").unwrap();
    writeln!(out, "      acc1 += a0 * V{ti}[2u * j + 0u][4u * acc_col(lane, 1u) + k]").unwrap();
    writeln!(out, "            + a1 * V{ti}[2u * j + 1u][4u * acc_col(lane, 1u) + k];").unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "  }}").unwrap();
}

/// Emit one scalar-backend RDG chain (the ablation tap loop; each lane
/// owns output elements `lane` and `lane + 32`).
fn emit_scalar_chain(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    if sched.backend == BackendKind::SimdCore {
        writeln!(
            out,
            "  // ---- RDG term {ti} on tuned SIMD lanes (ablation: no matrix pipeline) ----"
        )
        .unwrap();
    } else {
        writeln!(out, "  // ---- RDG term {ti} on scalar ALUs (ablation: no matrix pipeline) ----")
            .unwrap();
    }
    writeln!(
        out,
        "  for (var i = 0u; i < {}u; i++) {{   // T = U{ti} · X (vertical gather)",
        term.u.len()
    )
    .unwrap();
    writeln!(
        out,
        "    for (var j = 0u; j < {}u; j++) {{ // R += T · V{ti} (horizontal gather)",
        term.v.len()
    )
    .unwrap();
    writeln!(out, "      let w = u{ti}[i] * v{ti}[j];").unwrap();
    writeln!(out, "      sa0 += w * tile[lane / 8u + shift{ti} + i][lane % 8u + shift{ti} + j];")
        .unwrap();
    writeln!(
        out,
        "      sa1 += w * tile[(lane + 32u) / 8u + shift{ti} + i][(lane + 32u) % 8u + shift{ti} + j];"
    )
    .unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "  }}").unwrap();
}

/// Emit the fused 1-D segment pack + emulated banded gather (§IV-C).
fn emit_gather_1d(sched: &Schedule, out: &mut String) {
    let sl = sched.seg_len;
    let h = sched.h;
    writeln!(out, "  // §IV-C: pack 8 overlapping {sl}-long segments as the rows of X").unwrap();
    if sched.copy_mode == tcu_sim::CopyMode::Async {
        writeln!(out, "  // (cp.async EMULATED: plain workgroup staging + barrier)").unwrap();
    } else {
        writeln!(out, "  // staged copy: global -> registers -> workgroup tile").unwrap();
    }
    writeln!(out, "  for (var e = lane; e < {}u; e += 32u) {{", 8 * sl).unwrap();
    writeln!(out, "    let seg = e / {sl}u;").unwrap();
    writeln!(out, "    let c = pmod(i0 + 8 * i32(seg) - {h} + i32(e % {sl}u), n);").unwrap();
    writeln!(out, "    seg_tile[seg][e % {sl}u] = field_in[u32(c)];").unwrap();
    writeln!(out, "  }}").unwrap();
    writeln!(out, "  workgroupBarrier();").unwrap();
    writeln!(out).unwrap();
    writeln!(
        out,
        "  // the single banded MM gathers the whole dimension: {} chained MMAs,",
        sched.seg_len / MMA_K
    )
    .unwrap();
    writeln!(out, "  // EMULATED as per-lane dot products over the fragment layout").unwrap();
    writeln!(out, "  // (A element (r, k) is seg_tile[r][4*blk + k]; V element (k, c)").unwrap();
    writeln!(out, "  //  lives at lane 4c + k)").unwrap();
    writeln!(out, "  for (var blk = 0u; blk < {}u; blk++) {{", sched.seg_len / MMA_K).unwrap();
    writeln!(out, "    for (var kk = 0u; kk < 4u; kk++) {{").unwrap();
    writeln!(
        out,
        "      acc0 += seg_tile[acc_row(lane)][4u * blk + kk] * V1D[blk][4u * acc_col(lane, 0u) + kk];"
    )
    .unwrap();
    writeln!(
        out,
        "      acc1 += seg_tile[acc_row(lane)][4u * blk + kk] * V1D[blk][4u * acc_col(lane, 1u) + kk];"
    )
    .unwrap();
    writeln!(out, "    }}").unwrap();
    writeln!(out, "  }}").unwrap();
}

/// Emit the pointwise pyramid tip (§III-C).
fn emit_tip(cx: &Cx, weight: f64, out: &mut String) {
    if weight == 0.0 {
        return;
    }
    let h = cx.sched.h;
    writeln!(out).unwrap();
    writeln!(out, "  // §III-C pyramid tip: 1x1 term, no matrix multiply needed").unwrap();
    if cx.uses_fragments() {
        writeln!(
            out,
            "  acc0 += {weight:.17e} * tile[{h}u + acc_row(lane)][{h}u + acc_col(lane, 0u)];"
        )
        .unwrap();
        writeln!(
            out,
            "  acc1 += {weight:.17e} * tile[{h}u + acc_row(lane)][{h}u + acc_col(lane, 1u)];"
        )
        .unwrap();
    } else {
        writeln!(out, "  sa0 += {weight:.17e} * tile[{h}u + lane / 8u][{h}u + lane % 8u];")
            .unwrap();
        writeln!(
            out,
            "  sa1 += {weight:.17e} * tile[{h}u + (lane + 32u) / 8u][{h}u + (lane + 32u) % 8u];"
        )
        .unwrap();
    }
}

/// The scalar output stores (each lane owns elements `lane`, `lane+32`).
fn scalar_stores(dims: usize, out: &mut String) {
    let ob = if dims == 3 { "ob + " } else { "" };
    writeln!(
        out,
        "  field_out[{ob}u32((r0 + i32(lane / 8u)) * cols + c0 + i32(lane % 8u))] = sa0;"
    )
    .unwrap();
    writeln!(
        out,
        "  field_out[{ob}u32((r0 + i32((lane + 32u) / 8u)) * cols + c0 + i32((lane + 32u) % 8u))] = sa1;"
    )
    .unwrap();
}

impl super::Emitter for WgslEmitter {
    fn target(&self) -> Target {
        Target::Wgsl
    }

    fn caps(&self) -> Caps {
        CAPS
    }

    fn prologue(&self, cx: &Cx, out: &mut String) {
        banner(cx, out);
        capability_header(cx, out);
    }

    fn term_tables(&self, cx: &Cx, ti: usize, out: &mut String) {
        match cx.chain_lower(CAPS, ti) {
            ChainLower::Scalar => scalar_term_tables(cx.sched, ti, out),
            _ => frag_term_tables(cx.sched, ti, out),
        }
    }

    fn banded_table(&self, cx: &Cx, out: &mut String) {
        let sched = cx.sched;
        writeln!(
            out,
            "// banded gather matrix V (Eq. 11): {}x8 as {} B fragments",
            sched.seg_len,
            sched.seg_len / MMA_K
        )
        .unwrap();
        writeln!(out, "// V1D[blk][lane]: B-fragment element (k, c) lives at lane 4c + k").unwrap();
        writeln!(out, "var<private> V1D = array(").unwrap();
        for frag in &sched.v1d_frags() {
            let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
            writeln!(out, "  array({}),", row.join(", ")).unwrap();
        }
        writeln!(out, ");").unwrap();
    }

    fn kernel_open(&self, cx: &Cx, out: &mut String) {
        let sched = cx.sched;
        let s = sched.geo.s;
        writeln!(out).unwrap();
        writeln!(out, "struct Params {{").unwrap();
        match sched.dims {
            1 => writeln!(out, "  n : u32,").unwrap(),
            2 => {
                writeln!(out, "  rows : u32,").unwrap();
                writeln!(out, "  cols : u32,").unwrap();
            }
            _ => {
                writeln!(out, "  rows : u32,").unwrap();
                writeln!(out, "  cols : u32,").unwrap();
                writeln!(out, "  nz : u32,").unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
        writeln!(out, "@group(0) @binding(0) var<storage, read> field_in : array<f32>;").unwrap();
        writeln!(out, "@group(0) @binding(1) var<storage, read_write> field_out : array<f32>;")
            .unwrap();
        writeln!(out, "@group(0) @binding(2) var<uniform> P : Params;").unwrap();
        writeln!(out).unwrap();
        if sched.dims == 1 {
            writeln!(
                out,
                "var<workgroup> seg_tile : array<array<f32, {}>, 8>;   // 8 overlapping segments",
                sched.seg_len
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "var<workgroup> tile : array<array<f32, {s}>, {s}>;   // one window per workgroup"
            )
            .unwrap();
        }
        if cx.uses_fragments() && sched.fold == crate::schedule::AccFold::Merge {
            writeln!(
                out,
                "var<workgroup> out_tile : array<array<f32, 8>, 8>;   // accIdx fold staging"
            )
            .unwrap();
        }
        writeln!(out).unwrap();
        if cx.uses_fragments() {
            writeln!(out, "// A100 m8n8k4 accumulator layout: element (r, c) lives in lane")
                .unwrap();
            writeln!(out, "// 4r + c/2, register c%2 — every emulated fragment access goes")
                .unwrap();
            writeln!(out, "// through these two helpers").unwrap();
            writeln!(out, "fn acc_row(lane : u32) -> u32 {{ return lane / 4u; }}").unwrap();
            writeln!(
                out,
                "fn acc_col(lane : u32, reg : u32) -> u32 {{ return 2u * (lane % 4u) + reg; }}"
            )
            .unwrap();
        }
        writeln!(out, "fn pmod(i : i32, n : i32) -> i32 {{ return ((i % n) + n) % n; }}").unwrap();
        writeln!(out).unwrap();
        writeln!(out, "@compute @workgroup_size(32)").unwrap();
        let fn_name = cx.fn_name();
        writeln!(out, "fn lorastencil_{fn_name}(@builtin(workgroup_id) wg : vec3<u32>,").unwrap();
        writeln!(
            out,
            "{}@builtin(local_invocation_index) lane : u32) {{",
            " ".repeat(16 + fn_name.len())
        )
        .unwrap();
        match sched.dims {
            1 => {
                writeln!(out, "  let n = i32(P.n);").unwrap();
                writeln!(out, "  let i0 = 64 * i32(wg.x);").unwrap();
            }
            2 => {
                writeln!(out, "  let rows = i32(P.rows);").unwrap();
                writeln!(out, "  let cols = i32(P.cols);").unwrap();
                writeln!(out, "  let r0 = 8 * i32(wg.y);").unwrap();
                writeln!(out, "  let c0 = 8 * i32(wg.x);").unwrap();
            }
            _ => {
                writeln!(out, "  let rows = i32(P.rows);").unwrap();
                writeln!(out, "  let cols = i32(P.cols);").unwrap();
                writeln!(out, "  let nz = i32(P.nz);").unwrap();
                writeln!(out, "  let plane = P.rows * P.cols;").unwrap();
                writeln!(out, "  let r0 = 8 * i32(wg.y);").unwrap();
                writeln!(out, "  let c0 = 8 * i32(wg.x);").unwrap();
                writeln!(out, "  let z = i32(wg.z);   // one output plane per workgroup z")
                    .unwrap();
            }
        }
        writeln!(out).unwrap();
        if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore)
            || sched.fold != crate::schedule::AccFold::FragOnly
        {
            writeln!(out, "  // scalar accumulator: this lane owns elements e = lane, lane + 32")
                .unwrap();
            writeln!(out, "  var sa0 = 0.0;").unwrap();
            writeln!(out, "  var sa1 = 0.0;").unwrap();
        }
        if cx.uses_fragments() {
            writeln!(
                out,
                "  // emulated wmma accumulator: registers acc.x[0]/acc.x[1] of this lane"
            )
            .unwrap();
            writeln!(out, "  var acc0 = 0.0;").unwrap();
            writeln!(out, "  var acc1 = 0.0;").unwrap();
        }
    }

    fn op(&self, cx: &Cx, i: usize, op: &Op, st: &mut EmitState, out: &mut String) {
        let sched = cx.sched;
        let h = sched.h;
        match *op {
            Op::Stage { dz } => {
                writeln!(out).unwrap();
                let dz3 = if sched.dims == 3 {
                    writeln!(
                        out,
                        "  // ---- plane dz={dz}: 2-D dependency gathering (Algorithm 2 line 8) ----"
                    )
                    .unwrap();
                    writeln!(out, "  let base{dz} = u32(pmod(z + {dz} - {h}, nz)) * plane;")
                        .unwrap();
                    Some(dz)
                } else {
                    None
                };
                emit_stage(sched, dz3, out);
            }
            Op::FragBuild => {
                st.x_declared = true;
                writeln!(out).unwrap();
                writeln!(out, "  // Eq. 12 fragment loads: EMULATED — no cooperative matrices in")
                    .unwrap();
                writeln!(out, "  // WGSL; the chains below read tile directly through the A100")
                    .unwrap();
                writeln!(out, "  // fragment layout").unwrap();
            }
            Op::RdgGather => emit_gather_1d(sched, out),
            Op::MmaChain { term } => {
                writeln!(out).unwrap();
                if cx.chain_lower(CAPS, term as usize) == ChainLower::Scalar {
                    emit_scalar_chain(sched, term as usize, out);
                } else {
                    emit_frag_chain(cx, term as usize, out);
                }
            }
            Op::Pointwise { weight } => emit_tip(cx, weight, out),
            Op::PointwisePlane { dz, weight } => {
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "  // ---- plane dz={dz}: single center weight, point-wise on scalar ALUs"
                )
                .unwrap();
                writeln!(out, "  //      (Algorithm 2 line 5; no workgroup staging) ----").unwrap();
                writeln!(out, "  let pw{i} = u32(pmod(z + {dz} - {h}, nz)) * plane;").unwrap();
                writeln!(
                    out,
                    "  sa0 += {weight:.17e} * field_in[pw{i} + u32((r0 + i32(lane / 8u)) * cols + c0 + i32(lane % 8u))];"
                )
                .unwrap();
                writeln!(
                    out,
                    "  sa1 += {weight:.17e} * field_in[pw{i} + u32((r0 + i32((lane + 32u) / 8u)) * cols + c0 + i32((lane + 32u) % 8u))];"
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
        if sched.dims == 3 {
            writeln!(out, "  let ob = u32(z) * plane;   // this workgroup's output plane").unwrap();
        }
        match (cx.uses_fragments(), sched.fold) {
            (true, crate::schedule::AccFold::Merge) => {
                writeln!(out, "  // fold the emulated wmma accumulator into the scalar one via")
                    .unwrap();
                writeln!(out, "  // the shared out tile (the accIdx remap, made explicit)")
                    .unwrap();
                writeln!(out, "  out_tile[acc_row(lane)][acc_col(lane, 0u)] = acc0;").unwrap();
                writeln!(out, "  out_tile[acc_row(lane)][acc_col(lane, 1u)] = acc1;").unwrap();
                writeln!(out, "  workgroupBarrier();").unwrap();
                writeln!(out, "  sa0 += out_tile[lane / 8u][lane % 8u];").unwrap();
                writeln!(out, "  sa1 += out_tile[(lane + 32u) / 8u][(lane + 32u) % 8u];").unwrap();
                scalar_stores(sched.dims, out);
            }
            (true, _) => {
                writeln!(out, "  // store_matrix_sync analogue: each lane writes its two").unwrap();
                writeln!(out, "  // accumulator-layout elements").unwrap();
                if sched.dims == 1 {
                    writeln!(
                        out,
                        "  field_out[u32(i0) + 8u * acc_row(lane) + acc_col(lane, 0u)] = acc0;"
                    )
                    .unwrap();
                    writeln!(
                        out,
                        "  field_out[u32(i0) + 8u * acc_row(lane) + acc_col(lane, 1u)] = acc1;"
                    )
                    .unwrap();
                } else {
                    writeln!(
                        out,
                        "  field_out[u32((r0 + i32(acc_row(lane))) * cols + c0 + i32(acc_col(lane, 0u)))] = acc0;"
                    )
                    .unwrap();
                    writeln!(
                        out,
                        "  field_out[u32((r0 + i32(acc_row(lane))) * cols + c0 + i32(acc_col(lane, 1u)))] = acc1;"
                    )
                    .unwrap();
                }
            }
            (false, _) => {
                writeln!(out, "  // scalar stores: two output elements per lane").unwrap();
                scalar_stores(sched.dims, out);
            }
        }
        writeln!(out, "}}").unwrap();
    }

    fn op_anchor(&self, cx: &Cx, i: usize, op: &Op) -> Option<String> {
        let sched = cx.sched;
        match *op {
            Op::Stage { .. } => Some(format!("tile[e / {}u]", sched.geo.s)),
            Op::FragBuild => Some("Eq. 12".to_string()),
            Op::RdgGather => Some("V1D[blk]".to_string()),
            Op::MmaChain { term } => Some(format!("---- RDG term {term} ")),
            Op::Pointwise { weight } => (weight != 0.0).then(|| "pyramid tip".to_string()),
            Op::PointwisePlane { .. } => Some(format!("pw{i} ")),
            Op::SkipPlane { dz } => Some(format!("plane dz={dz}: all-zero")),
        }
    }

    fn term_table_refs(&self, cx: &Cx, ti: usize) -> Vec<super::TableRef> {
        let r = |decl: String, usage: String| super::TableRef { decl, usage };
        match cx.chain_lower(CAPS, ti) {
            ChainLower::Scalar => vec![
                r(format!("var<private> u{ti} = array("), format!("u{ti}[i]")),
                r(format!("var<private> v{ti} = array("), format!("v{ti}[j]")),
                r(format!("const shift{ti} : u32"), format!("shift{ti} + ")),
            ],
            _ => vec![
                r(format!("var<private> U{ti} = array("), format!("U{ti}[k][")),
                r(format!("var<private> V{ti} = array("), format!("V{ti}[2u * j")),
            ],
        }
    }

    fn banded_table_refs(&self, _cx: &Cx) -> Vec<super::TableRef> {
        vec![super::TableRef {
            decl: "var<private> V1D = array(".to_string(),
            usage: "V1D[blk][".to_string(),
        }]
    }
}
