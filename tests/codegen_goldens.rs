//! Listing goldens: `emit --target cuda` pinned for **every** registry
//! kernel × feature config × device backend (`emit_cuda.tsv`), and every
//! target × kernel × config × backend (`emit_targets.tsv`).
//!
//! The snapshots in `tests/snapshots/` pin a handful of full listings;
//! these tables pin the whole matrix cheaply as `(crc32, length)` pairs,
//! so any byte of drift in any listing turns a test red. The second
//! table also reaches the branches the first cannot: the staged-copy
//! path and the HIP and WGSL emitters.
//!
//! Regenerate after an intentional emitter change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test codegen_goldens
//! git diff tests/goldens/
//! ```

use foundation::crc::crc32;
use lorastencil::codegen::{self, Target};
use lorastencil::{DeviceBackend, ExecConfig, Plan};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::kernels;

/// A toggle set and the name its rows carry.
type NamedConfig = (&'static str, fn() -> ExecConfig);

const CONFIGS: [NamedConfig; 3] = [
    ("full", ExecConfig::full),
    ("no-bvs", || ExecConfig { use_bvs: false, ..ExecConfig::full() }),
    ("no-fusion", || ExecConfig { allow_fusion: false, ..ExecConfig::full() }),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/emit_cuda.tsv")
}

fn current_table() -> String {
    let mut out = String::from("# kernel\tconfig\tbackend\tcrc32\tbytes\n");
    for kernel in kernels::all_kernels() {
        for (cname, cfg) in CONFIGS {
            for backend in DeviceBackend::all() {
                let config = ExecConfig { backend, ..cfg() };
                let text = stencil_cli::emit_text(&kernel, config, Target::Cuda).unwrap();
                writeln!(
                    out,
                    "{}\t{cname}\t{backend:?}\t{:08x}\t{}",
                    kernel.name,
                    crc32(text.as_bytes()),
                    text.len()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn cuda_listings_match_pinned_goldens() {
    let got = current_table();
    let path = golden_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_SNAPSHOTS=1)", path.display()));
    if want != got {
        let drifted: Vec<&str> =
            want.lines().zip(got.lines()).filter(|(w, g)| w != g).map(|(w, _)| w).collect();
        panic!(
            "CUDA listings drifted from tests/goldens/emit_cuda.tsv in {} row(s):\n{}\n\
             intentional? regenerate with UPDATE_SNAPSHOTS=1 and review",
            drifted.len(),
            drifted.join("\n")
        );
    }
}

fn targets_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/emit_targets.tsv")
}

fn current_targets_table() -> String {
    // the three configs above plus the staged-copy path
    let no_async: (&str, fn() -> ExecConfig) =
        ("no-async-copy", || ExecConfig { use_async_copy: false, ..ExecConfig::full() });
    let mut out = String::from("# target\tkernel\tconfig\tbackend\tcrc32\tbytes\n");
    for target in Target::ALL {
        for kernel in kernels::all_kernels() {
            for (cname, cfg) in CONFIGS.into_iter().chain([no_async]) {
                for backend in DeviceBackend::all() {
                    let plan = Plan::new(&kernel, ExecConfig { backend, ..cfg() });
                    let text = codegen::emit(&plan, target);
                    writeln!(
                        out,
                        "{}\t{}\t{cname}\t{backend:?}\t{:08x}\t{}",
                        target.name(),
                        kernel.name,
                        crc32(text.as_bytes()),
                        text.len()
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn every_target_listing_matches_pinned_goldens() {
    let got = current_targets_table();
    let path = targets_golden_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_SNAPSHOTS=1)", path.display()));
    if want != got {
        let drifted: Vec<&str> =
            want.lines().zip(got.lines()).filter(|(w, g)| w != g).map(|(w, _)| w).collect();
        panic!(
            "listings drifted from tests/goldens/emit_targets.tsv in {} row(s):\n{}\n\
             intentional? regenerate with UPDATE_SNAPSHOTS=1 and review",
            drifted.len(),
            drifted.join("\n")
        );
    }
}
