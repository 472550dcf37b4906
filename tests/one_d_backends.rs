//! Bitwise goldens for the 1-D gather and for a tensor-core schedule
//! whose window is wider than 32: every output bit and every counter.
//!
//! * Heat-1D and 1D5P on all four backends × {full, no-fusion, no-BVS}
//!   × the default and a 24-column job tiling × lengths 37, 64, 157 and
//!   4,097 (sub-64 and partial 64-point sub-chunks, partial jobs) × 1
//!   and 5 iterations × plain inputs and inputs with NaN/±inf cells.
//! * Heat-2D fused 13 steps deep (radius 13, `S = 40`) on `TcuF64` and
//!   `SparseTcu` × {full, no-BVS} × plain, non-finite and huge inputs.
//!
//! Each row holds the crc32 of the output planes' bits (every NaN
//! canonicalized) and the 13 `PerfCounters` fields. Regenerate after an
//! intentional change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test one_d_backends
//! git diff tests/goldens/one_d_backends.tsv
//! ```

use foundation::crc::crc32;
use lorastencil::fusion::fuse_kernel;
use lorastencil::schedule::run_tuned;
use lorastencil::{decompose, DeviceBackend, ExecConfig, Plan, ScheduleParams, Workspace};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::{kernels, StencilKernel};
use tcu_sim::{GlobalArray, PerfCounters};

/// The toggle sets: full, full without temporal fusion, full without BVS.
const CONFIGS: [(&str, bool, bool); 3] =
    [("full", true, true), ("no-fusion", false, true), ("no-bvs", true, false)];

/// The 1-D job tilings: 64-point jobs (the default) and 192-point ones.
const TILE_COLS: [usize; 2] = [8, 24];

/// The 1-D lengths.
const LENGTHS: [usize; 4] = [37, 64, 157, 4097];

/// The planted-cell inputs besides `plain`.
#[derive(Clone, Copy)]
enum Cells {
    Plain,
    /// NaN, +inf and -inf cells.
    NonFinite,
    /// Cells from 1e300 to `f64::MAX`, both signs.
    Huge,
}

impl Cells {
    fn name(self) -> &'static str {
        match self {
            Cells::Plain => "plain",
            Cells::NonFinite => "non-finite",
            Cells::Huge => "huge",
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/one_d_backends.tsv")
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

/// `p` with `cells` planted.
fn plant(mut p: GlobalArray, cells: Cells) -> GlobalArray {
    let (rows, cols) = (p.rows(), p.cols());
    match cells {
        Cells::Plain => {}
        Cells::NonFinite => {
            p.poke(0, 2, f64::NAN);
            p.poke(rows / 2, cols / 2, f64::INFINITY);
            p.poke(rows - 1, cols - 3, f64::NEG_INFINITY);
        }
        Cells::Huge => {
            p.poke(0, 3, 1e300);
            p.poke(rows / 2, 5, -1e300);
            p.poke(rows / 3, cols - 6, 1e307);
            p.poke(rows - 1, cols / 2, -3e307);
            p.poke(rows - 1, 1, f64::MAX);
            p.poke(rows / 3, cols - 1, -f64::MAX);
        }
    }
    p
}

#[allow(clippy::too_many_arguments)]
fn row(
    out: &mut String,
    case: &str,
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    iters: usize,
    input: GlobalArray,
    cells: Cells,
) {
    let (planes, counters, _) = run_tuned(kernel, config, params, vec![input], iters);
    write_row(out, case, cells, &planes, &counters);
}

/// One application of the 2-D `kernel` fused `fuse` steps deep under the
/// default schedule: the plan the planner makes at that fusion depth.
fn fused_once(
    kernel: &StencilKernel,
    fuse: usize,
    config: ExecConfig,
    input: GlobalArray,
) -> (Vec<GlobalArray>, PerfCounters) {
    let exec = fuse_kernel(kernel, fuse);
    let decomp = decompose(exec.weights_2d(), 1e-12);
    let plan = Plan::custom_2d(exec, fuse, decomp, config);
    let (rows, cols) = (input.rows(), input.cols());
    let mut out = vec![GlobalArray::new(rows, cols)];
    let counters = Workspace::new(&plan, &[rows, cols], &ScheduleParams::default())
        .apply_planes(&[input], &mut out);
    (out, counters)
}

/// Append the row of `case`: the crc32 of `planes` and the `counters`.
fn write_row(
    out: &mut String,
    case: &str,
    cells: Cells,
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
    write!(out, "{case}\t{}\t{:08x}", cells.name(), crc32(&bytes)).unwrap();
    for (_, v) in counters.fields() {
        write!(out, "\t{v}").unwrap();
    }
    out.push('\n');
}

fn current_table() -> String {
    let mut out = String::from("# kernel\tbackend\tconfig\tshape\tsize\titers\tinput\tcrc32");
    for (name, _) in PerfCounters::new().fields() {
        write!(out, "\t{name}").unwrap();
    }
    out.push('\n');
    for kernel in [kernels::heat_1d(), kernels::p5_1d()] {
        for backend in DeviceBackend::all() {
            for (cname, allow_fusion, use_bvs) in CONFIGS {
                let config = ExecConfig { backend, allow_fusion, use_bvs, ..ExecConfig::full() };
                for tile_cols in TILE_COLS {
                    let params = ScheduleParams { tile_cols, ..ScheduleParams::default() };
                    for n in LENGTHS {
                        for iters in [1, 5] {
                            for cells in [Cells::Plain, Cells::NonFinite] {
                                let case = format!(
                                    "{}\t{backend:?}\t{cname}\tcols{tile_cols}\t{n}\t{iters}",
                                    kernel.name
                                );
                                let input = plant(wavy(1, n, n), cells);
                                row(&mut out, &case, &kernel, config, params, iters, input, cells);
                            }
                        }
                    }
                }
            }
        }
    }
    // 13 fused Heat-2D steps: radius 13, a 40-wide window
    let kernel = kernels::heat_2d();
    for backend in [DeviceBackend::TcuF64, DeviceBackend::SparseTcu] {
        for (cname, _, use_bvs) in [CONFIGS[0], CONFIGS[2]] {
            let config = ExecConfig { backend, use_bvs, ..ExecConfig::full() };
            for cells in [Cells::Plain, Cells::NonFinite, Cells::Huge] {
                let case = format!("{}\t{backend:?}\t{cname}\tfuse13\t61x70\t13", kernel.name);
                let (planes, counters) =
                    fused_once(&kernel, 13, config, plant(wavy(61, 70, 1), cells));
                write_row(&mut out, &case, cells, &planes, &counters);
            }
        }
    }
    out
}

#[test]
fn one_d_and_wide_window_backends_match_pinned_goldens() {
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
        "1-D and wide-window runs drifted from tests/goldens/one_d_backends.tsv in {} row(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
