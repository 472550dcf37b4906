//! Bitwise goldens for the tensor-core backends: every output bit and
//! every counter of `TcuF64` and `SparseTcu`, pinned for every 2-D/3-D
//! registry and extended kernel × {full, no-fusion, no-BVS} × three
//! schedule shapes × 1 and 5 iterations × plain inputs, inputs with
//! NaN/±inf cells and inputs with cells from 1e300 to `f64::MAX` (large
//! enough for a term's `T` to overflow). The grids are not multiples of
//! 8 in either direction, so partial sub-tiles and wrapped windows are
//! covered too.
//!
//! Each row holds the crc32 of the output planes' bits (every NaN
//! canonicalized) and the 13 `PerfCounters` fields. Regenerate after an
//! intentional change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test tensor_core_backends
//! git diff tests/goldens/tensor_core_backends.tsv
//! ```

use foundation::crc::crc32;
use lorastencil::schedule::run_tuned;
use lorastencil::{DeviceBackend, ExecConfig, ScheduleParams};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::{kernels, kernels_ext, StencilKernel};
use tcu_sim::{GlobalArray, PerfCounters};

const BACKENDS: [DeviceBackend; 2] = [DeviceBackend::TcuF64, DeviceBackend::SparseTcu];

/// The toggle sets: full, full without temporal fusion, full without BVS.
const CONFIGS: [(&str, bool, bool); 3] =
    [("full", true, true), ("no-fusion", false, true), ("no-bvs", true, false)];

const SHAPES: [(&str, ScheduleParams); 3] = [
    ("default", ScheduleParams { tile_rows: 8, tile_cols: 8 }),
    ("64x64", ScheduleParams { tile_rows: 64, tile_cols: 64 }),
    ("16x16", ScheduleParams { tile_rows: 16, tile_cols: 16 }),
];

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
    const ALL: [Cells; 3] = [Cells::Plain, Cells::NonFinite, Cells::Huge];

    fn name(self) -> &'static str {
        match self {
            Cells::Plain => "plain",
            Cells::NonFinite => "non-finite",
            Cells::Huge => "huge",
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/tensor_core_backends.tsv")
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

/// The input planes for `kernel`, with `cells` planted in the first plane.
fn input(kernel: &StencilKernel, cells: Cells) -> Vec<GlobalArray> {
    let mut planes = match kernel.dims() {
        2 => vec![wavy(27, 44, 1)],
        _ => (0..5).map(|z| wavy(12, 19, z + 2)).collect(),
    };
    let p = &mut planes[0];
    let (rows, cols) = (p.rows(), p.cols());
    match cells {
        Cells::Plain => {}
        Cells::NonFinite => {
            p.poke(1, 2, f64::NAN);
            p.poke(rows / 2, cols / 2, f64::INFINITY);
            p.poke(rows - 2, cols - 3, f64::NEG_INFINITY);
        }
        Cells::Huge => {
            p.poke(2, 3, 1e300);
            p.poke(rows / 2, 5, -1e300);
            p.poke(4, cols - 6, 1e307);
            p.poke(rows - 3, cols / 2, -3e307);
            p.poke(rows - 1, 1, f64::MAX);
            p.poke(rows / 3, cols - 1, -f64::MAX);
        }
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
    cells: Cells,
) {
    let (planes, counters, _) = run_tuned(kernel, config, params, input(kernel, cells), iters);
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
            for (cname, allow_fusion, use_bvs) in CONFIGS {
                let config = ExecConfig { backend, allow_fusion, use_bvs, ..ExecConfig::full() };
                for (sname, params) in SHAPES {
                    for iters in [1, 5] {
                        for cells in Cells::ALL {
                            let case =
                                format!("{}\t{backend:?}\t{cname}\t{sname}\t{iters}", kernel.name);
                            row(&mut out, &case, &kernel, config, params, iters, cells);
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn tensor_core_backends_match_pinned_goldens() {
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
        "tensor-core backends drifted from tests/goldens/tensor_core_backends.tsv in {} row(s):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
