//! The schedule chooser's winners, pinned: `tune::choose` for every
//! registry and extended kernel × {full, no-async, sparse, simd, no-tcu}
//! × three shapes per dimensionality × 1 and 4 iterations.
//!
//! The chooser's own tests check that its pick is the argmin of the
//! modeled time over the current candidate space; they cannot see the
//! pick change when the candidate space or the model does. This table
//! can: each row is one key and the tiling it chose.
//!
//! Regenerate after an intentional change to the chooser or the model:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test choose_winners
//! git diff tests/goldens/choose_winners.tsv
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_cli::tune::choose;

const CONFIGS: [&str; 5] = ["full", "no-async", "sparse", "simd", "no-tcu"];

const ITERATIONS: [usize; 2] = [1, 4];

/// Three shapes per dimensionality: a small ragged grid, a square that
/// closes the tile range at 16, and a large one that opens it to 64.
fn shapes(dims: usize) -> [&'static [usize]; 3] {
    match dims {
        1 => [&[300], &[1000], &[4096]],
        2 => [&[37, 44], &[16, 16], &[128, 128]],
        _ => [&[3, 11, 21], &[2, 16, 16], &[8, 64, 64]],
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/choose_winners.tsv")
}

fn current_table() -> String {
    let mut out = String::from("# kernel\tconfig\textents\titers\twinner\n");
    for kernel in stencil_cli::all_kernels() {
        for spec in CONFIGS {
            let config = stencil_cli::parse_config(spec).unwrap();
            for extents in shapes(kernel.dims()) {
                let dims = extents.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
                for iters in ITERATIONS {
                    let win = choose(&kernel, config, extents, iters);
                    writeln!(out, "{}\t{spec}\t{dims}\t{iters}\t{}", kernel.name, win.describe())
                        .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn choose_winners_match_pinned_table() {
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
        let drifted: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("want {w}\n got {g}"))
            .collect();
        panic!(
            "choose winners drifted from tests/goldens/choose_winners.tsv in {} row(s):\n{}\n\
             intentional? regenerate with UPDATE_SNAPSHOTS=1 and review",
            drifted.len(),
            drifted.join("\n")
        );
    }
}
