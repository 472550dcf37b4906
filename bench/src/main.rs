//! `lorastencil-bench` — the repository benchmark (see README.md).
//!
//! ```text
//! lorastencil-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--ledger <file>]
//! lorastencil-bench run   [--seed <n>] [--seconds <s>] [--ledger <file>]
//! lorastencil-bench trace [--seed <n>] [--seconds <s>] [--ledger <file>]
//! lorastencil-bench compare --parent <rev> --change <rev> [--claim <workload>/<metric>] [--ledger <file>]
//! ```
//!
//! One workload per process: `run` and `trace` start a child per
//! workload, so peak RSS and worker-pool state never leak between them.

mod catalog;
mod ledger;
mod micro;
mod report;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;

use catalog::Catalog;
use report::Report;

// Counts allocations for `foundation.allocs_per_job`; one relaxed atomic
// per allocation on top of the system allocator, installed in untraced
// runs too so both kinds of run execute the same binary.
#[global_allocator]
static ALLOC: foundation::alloc_counter::CountingAllocator =
    foundation::alloc_counter::CountingAllocator;

const USAGE: &str = "usage:
  lorastencil-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--ledger <file>]
  lorastencil-bench run   [--seed <n>] [--seconds <s>] [--ledger <file>]
  lorastencil-bench trace [--seed <n>] [--seconds <s>] [--ledger <file>]
  lorastencil-bench compare --parent <rev> --change <rev> [--claim <workload>/<metric>] [--ledger <file>]";

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    ledger: PathBuf,
    parent: Option<String>,
    change: Option<String>,
    claim: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        ledger: ledger::default_path(),
        parent: None,
        change: None,
        claim: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = num(value()?)?,
            "--seconds" => o.seconds = Some(num(value()?)?.max(1)),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--ledger" => o.ledger = PathBuf::from(value()?),
            "--parent" => o.parent = Some(value()?),
            "--change" => o.change = Some(value()?),
            "--claim" => o.claim = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// One workload in this process; prints the metrics and ends with the
/// result line. Exit status 1 when any checked operation failed.
fn run_one(catalog: &Catalog, o: &Opts, workload: &str) -> i32 {
    if !catalog.workloads.iter().any(|w| w == workload) {
        eprintln!("unknown workload {workload:?} (declared: {})", catalog.workloads.join(", "));
        return 2;
    }
    let seconds = o.seconds.unwrap_or(catalog.run_seconds);
    let mut report = Report::new(catalog, o.trace);
    if workload.starts_with("sweep-") {
        sweep::run(workload, o.seed, seconds, &mut report);
    } else {
        serve::run(workload, o.seed, seconds, &mut report);
    }
    if o.trace {
        micro::measure(&mut report);
    } else {
        report.scalar("peak_rss_mb", peak_rss_mb());
    }
    let rows = report.rows();
    for (m, v) in &rows {
        println!("{workload:<15} {:<40} {:>16.6} {:<10} n={}", m.name, v.value, m.unit, v.n);
    }
    let run = ledger::RunInfo { workload, seed: o.seed, seconds, trace: o.trace };
    if let Err(e) = ledger::append(&o.ledger, &ledger::Provenance::collect(), &run, &rows) {
        eprintln!("ledger {}: {e}", o.ledger.display());
    }
    println!("{}", report.result_line());
    if report.failed > 0 {
        eprintln!(
            "{workload}: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        1
    } else {
        0
    }
}

/// Every workload, each in a child process with the same settings.
fn run_all(catalog: &Catalog, o: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return 2;
        }
    };
    let seconds = o.seconds.unwrap_or(catalog.run_seconds).to_string();
    let mut code = 0;
    for w in &catalog.workloads {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &o.seed.to_string(), "--seconds", &seconds])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--ledger")
            .arg(&o.ledger)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{w}: {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    // One worker lane: on a 2-core host the 2-lane job times spread 33%
    // run to run, the 1-lane ones 2% (README.md). No tuning DB, so the
    // default schedules are measured and serve misses run the tuner.
    std::env::set_var("FOUNDATION_THREADS", "1");
    std::env::remove_var("LORASTENCIL_TUNING_DB");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare")) => (c, &args[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            return;
        }
        Some(_) => ("", &args[..]),
    };
    let mut o = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let catalog = Catalog::load();
    let code = match command {
        "run" | "trace" => {
            o.trace = command == "trace";
            run_all(&catalog, &o)
        }
        "compare" => {
            let (Some(parent), Some(change)) = (&o.parent, &o.change) else {
                eprintln!("compare needs --parent <rev> and --change <rev>\n{USAGE}");
                std::process::exit(2);
            };
            let claim = o.claim.as_deref().map(|c| c.split_once('/').unwrap_or((c, "")));
            match ledger::compare(&catalog, &o.ledger, parent, change, claim) {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("{e}");
                    2
                }
            }
        }
        _ => match o.workload.clone() {
            Some(w) => run_one(&catalog, &o, &w),
            None => {
                eprintln!("--workload is required\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}
