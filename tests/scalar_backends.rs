//! Bitwise goldens for the scalar backends: every output bit and every
//! counter of `CudaCore` and `SimdCore`, pinned for every 2-D/3-D
//! registry and extended kernel × fusion on/off × three schedule shapes
//! × 1 and 5 iterations × plain inputs and inputs with NaN/±inf cells,
//! plus Heat-2D and Box-2D9P fused deep enough for 48- and 80-wide
//! windows.
//!
//! Each row holds the crc32 of the output planes' bits (every NaN
//! canonicalized) and the 13 `PerfCounters` fields. Regenerate after an intentional change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test scalar_backends
//! git diff tests/goldens/scalar_backends.tsv
//! ```

use foundation::crc::crc32;
use lorastencil::fusion::fuse_kernel;
use lorastencil::schedule::run_tuned;
use lorastencil::{decompose, DeviceBackend, ExecConfig, Plan, ScheduleParams, Workspace};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::{kernels, kernels_ext, StencilKernel};
use tcu_sim::{GlobalArray, PerfCounters};

const BACKENDS: [DeviceBackend; 2] = [DeviceBackend::CudaCore, DeviceBackend::SimdCore];

/// The toggle sets: full, and full without temporal fusion.
const CONFIGS: [(&str, bool); 2] = [("full", true), ("no-fusion", false)];

const SHAPES: [(&str, ScheduleParams); 3] = [
    ("default", ScheduleParams { tile_rows: 8, tile_cols: 8 }),
    ("64x64", ScheduleParams { tile_rows: 64, tile_cols: 64 }),
    ("16x16", ScheduleParams { tile_rows: 16, tile_cols: 16 }),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/scalar_backends.tsv")
}

fn wavy(rows: usize, cols: usize, salt: usize) -> GlobalArray {
    GlobalArray::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((salt * 7919 + i) as f64 * 0.13).sin() * 3.0 + (i % 11) as f64 * 0.1)
            .collect(),
    )
}

/// The input planes for `kernel`; `non_finite` plants NaN, +inf and
/// -inf cells in the first plane.
fn input(kernel: &StencilKernel, non_finite: bool) -> Vec<GlobalArray> {
    let mut planes = match kernel.dims() {
        2 => vec![wavy(27, 44, 1)],
        _ => (0..5).map(|z| wavy(12, 19, z + 2)).collect(),
    };
    if non_finite {
        let p = &mut planes[0];
        let (rows, cols) = (p.rows(), p.cols());
        p.poke(1, 2, f64::NAN);
        p.poke(rows / 2, cols / 2, f64::INFINITY);
        p.poke(rows - 2, cols - 3, f64::NEG_INFINITY);
    }
    planes
}

fn row(
    out: &mut String,
    case: &str,
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    iters: usize,
    non_finite: bool,
) {
    let (planes, counters, _) = run_tuned(kernel, config, params, input(kernel, non_finite), iters);
    write_row(out, case, non_finite, &planes, &counters);
}

/// One application of the 2-D `kernel` fused `fuse` steps deep under the
/// default schedule: the plan the planner makes at that fusion depth.
fn fused_once(
    kernel: &StencilKernel,
    fuse: usize,
    config: ExecConfig,
    non_finite: bool,
) -> (Vec<GlobalArray>, PerfCounters) {
    let exec = fuse_kernel(kernel, fuse);
    let decomp = decompose(exec.weights_2d(), 1e-12);
    let plan = Plan::custom_2d(exec, fuse, decomp, config);
    let planes = input(kernel, non_finite);
    let (rows, cols) = (planes[0].rows(), planes[0].cols());
    let mut out = vec![GlobalArray::new(rows, cols)];
    let counters = Workspace::new(&plan, &[rows, cols], &ScheduleParams::default())
        .apply_planes(&planes, &mut out);
    (out, counters)
}

/// Append the row of `case`: the crc32 of `planes` and the `counters`.
fn write_row(
    out: &mut String,
    case: &str,
    non_finite: bool,
    planes: &[GlobalArray],
    counters: &PerfCounters,
) {
    // a NaN's sign and payload depend on which operand the compiled code
    // propagates, which differs between optimization levels; every other
    // bit is pinned exactly
    let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
    let bytes: Vec<u8> = planes
        .iter()
        .flat_map(|p| p.as_slice().iter().flat_map(|&v| canonical(v).to_le_bytes()))
        .collect();
    write!(
        out,
        "{case}\t{}\t{:08x}",
        if non_finite { "non-finite" } else { "plain" },
        crc32(&bytes)
    )
    .unwrap();
    for (_, v) in counters.fields() {
        write!(out, "\t{v}").unwrap();
    }
    out.push('\n');
}

fn current_table() -> String {
    let mut out = String::from("# kernel\tbackend\tconfig\tshape\titers\tinput\tcrc32");
    for (name, _) in PerfCounters::new().fields() {
        write!(out, "\t{name}").unwrap();
    }
    out.push('\n');
    let roster = kernels::all_kernels()
        .into_iter()
        .chain(kernels_ext::all_extended())
        .filter(|k| k.dims() >= 2);
    for kernel in roster {
        for backend in BACKENDS {
            for (cname, allow_fusion) in CONFIGS {
                let config = ExecConfig { backend, allow_fusion, ..ExecConfig::full() };
                for (sname, params) in SHAPES {
                    for iters in [1, 5] {
                        for non_finite in [false, true] {
                            let case =
                                format!("{}\t{backend:?}\t{cname}\t{sname}\t{iters}", kernel.name);
                            row(&mut out, &case, &kernel, config, params, iters, non_finite);
                        }
                    }
                }
            }
        }
    }
    // fusion depths past the registry's: radius 20 and 36 give S = 48 and
    // S = 80, one fused application each
    for kernel in [kernels::heat_2d(), kernels::box_2d9p()] {
        for backend in BACKENDS {
            for (fuse, sname) in [(20, "S48"), (36, "S80")] {
                let config = ExecConfig { backend, ..ExecConfig::full() };
                for non_finite in [false, true] {
                    let case = format!("{}\t{backend:?}\tfull\t{sname}\t{fuse}", kernel.name);
                    let (planes, counters) = fused_once(&kernel, fuse, config, non_finite);
                    write_row(&mut out, &case, non_finite, &planes, &counters);
                }
            }
        }
    }
    out
}

#[test]
fn scalar_backends_match_pinned_goldens() {
    let got = current_table();
    let path = golden_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_SNAPSHOTS=1)", path.display()));
    let drifted: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("want {w}\n got {g}"))
        .collect();
    assert!(
        drifted.is_empty() && want.lines().count() == got.lines().count(),
        "scalar backends drifted from tests/goldens/scalar_backends.tsv in {} row(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
