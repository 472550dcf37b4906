//! The append-only performance ledger (`bench/ledger.jsonl`): one JSON
//! line per (run, metric) with the provenance needed to compare it, and
//! the `compare` rule that decides whether a change improved or
//! regressed anything.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use foundation::json::Json;

use crate::catalog::{Catalog, MetricDef};
use crate::stats::{self, Value};

/// Where runs append by default: next to this package's manifest.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("ledger.jsonl")
}

/// Who measured: code revision, machine and settings.
pub struct Provenance {
    pub rev: String,
    pub dirty: bool,
    pub cpu: String,
    pub nproc: usize,
    pub kernel: String,
    pub threads: String,
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .current_dir(root)
        .env("GIT_OPTIONAL_LOCKS", "0")
        .args(args)
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Provenance {
    pub fn collect() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let root = root.canonicalize().unwrap_or(root);
        // only a repository rooted exactly here names this code's revision
        let rev = git(&root, &["rev-parse", "--show-toplevel", "HEAD"])
            .and_then(|s| {
                let (top, rev) = s.split_once('\n')?;
                (Path::new(top) == root).then(|| rev.to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let dirty = rev != "unknown"
            && git(
                &root,
                &[
                    "status",
                    "--porcelain",
                    "--untracked-files=no",
                    "--",
                    ".",
                    ":!bench/ledger.jsonl",
                ],
            )
            .is_some_and(|s| !s.is_empty());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Provenance {
            rev,
            dirty,
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel,
            threads: std::env::var("FOUNDATION_THREADS").unwrap_or_default(),
        }
    }
}

/// What one run was.
pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Append one row per metric of a finished run.
pub fn append(
    path: &Path,
    prov: &Provenance,
    run: &RunInfo,
    rows: &[(&MetricDef, Value)],
) -> std::io::Result<()> {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut text = String::new();
    for (m, v) in rows {
        let row = Json::obj([
            ("ts", Json::UInt(ts)),
            ("rev", Json::Str(prov.rev.clone())),
            ("dirty", Json::Bool(prov.dirty)),
            ("cpu", Json::Str(prov.cpu.clone())),
            ("nproc", Json::UInt(prov.nproc as u64)),
            ("kernel", Json::Str(prov.kernel.clone())),
            ("foundation_threads", Json::Str(prov.threads.clone())),
            ("workload", Json::Str(run.workload.to_string())),
            ("seed", Json::UInt(run.seed)),
            ("seconds", Json::UInt(run.seconds)),
            ("trace", Json::Bool(run.trace)),
            ("metric", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.clone())),
            ("value", Json::Num(v.value)),
            ("n", Json::UInt(v.n as u64)),
            ("p25", Json::Num(v.p25)),
            ("median", Json::Num(v.p50)),
            ("p75", Json::Num(v.p75)),
        ]);
        text.push_str(&row.dump());
        text.push('\n');
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()
}

/// The verdict on one (workload, metric) pair other than the claim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// No worse than the parent by more than the bound.
    Within,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own spread exceeds the bound, so the runs cannot
    /// tell; unless every change run beat every parent run.
    Unresolved,
    /// Spread too wide to bound, but every change run beat every parent
    /// run.
    Better,
}

/// `(b - a)` signed so that positive is worse.
fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        a - b
    } else {
        b - a
    }
}

/// Quartile spread of `runs`: `(median, p75 - p25)`.
fn center_and_iqr(runs: &[f64]) -> (f64, f64) {
    let s = stats::sorted(runs);
    (stats::percentile(&s, 0.5), stats::percentile(&s, 0.75) - stats::percentile(&s, 0.25))
}

/// Judge a non-claimed metric: the change's median may be worse than the
/// parent's by at most `bound` (a share of the parent's median).
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (pm, piqr) = center_and_iqr(parent);
    let (cm, _) = center_and_iqr(change);
    if piqr > bound * pm.abs() {
        let all_better =
            change.iter().all(|&c| parent.iter().all(|&p| worse_by(p, c, higher_is_better) < 0.0));
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by(pm, cm, higher_is_better) > bound * pm.abs() {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

/// The gain rule: at least ten pairs, the change wins at least nine
/// tenths of them (ties win nothing), and the medians differ, in the
/// better direction, by more than the parent's interquartile range.
/// Returns `(holds, wins, pairs)`; pair `i` is the `i`-th parent run
/// against the `i`-th change run.
pub fn claim_holds(parent: &[f64], change: &[f64], higher_is_better: bool) -> (bool, usize, usize) {
    let pairs = parent.len().min(change.len());
    let wins =
        parent.iter().zip(change).filter(|(&p, &c)| worse_by(p, c, higher_is_better) < 0.0).count();
    let (pm, piqr) = center_and_iqr(&parent[..pairs]);
    let (cm, _) = center_and_iqr(&change[..pairs]);
    let gain = -worse_by(pm, cm, higher_is_better);
    (pairs >= 10 && wins * 10 >= pairs * 9 && gain > piqr, wins, pairs)
}

/// Per-layer metrics that are exact: simulated-device counts and the
/// cost model's reading of them. Any difference between two revisions
/// is a change in what the simulator computes, never noise.
const EXACT: [&str; 7] = [
    "tcu_sim.mma_ops",
    "tcu_sim.mma_sp_ops",
    "tcu_sim.shuffle_ops",
    "tcu_sim.shared_load_requests",
    "tcu_sim.global_bytes",
    "tcu_sim.points_updated",
    "tcu_sim.modeled_gstencil_s",
];

/// One ledger row as `compare` needs it.
struct Row {
    rev: String,
    trace: bool,
    workload: String,
    metric: String,
    value: f64,
}

fn read_rows(path: &Path) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let s = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
        let Some(value) = doc.get("value").and_then(Json::as_f64) else { continue };
        rows.push(Row {
            rev: s("rev"),
            trace: doc.get("trace") == Some(&Json::Bool(true)),
            workload: s("workload"),
            metric: s("metric"),
            value,
        });
    }
    Ok(rows)
}

/// `compare --parent <rev> --change <rev> [--claim <workload>/<metric>]`
/// over the untraced ledger rows: one line per workload, every
/// end-to-end metric judged, and the claim (if any) tested by the gain
/// rule. Revisions match by prefix. Exit status 0 when the claim holds
/// and nothing regressed.
pub fn compare(
    catalog: &Catalog,
    ledger: &Path,
    parent: &str,
    change: &str,
    claim: Option<(&str, &str)>,
) -> Result<bool, String> {
    if let Some((w, m)) = claim {
        if !catalog.workloads.iter().any(|x| x == w)
            || !catalog.end_to_end.iter().any(|x| x.name == m)
        {
            return Err(format!("--claim {w}/{m} names no workload and end-to-end metric"));
        }
    }
    let rows = read_rows(ledger)?;
    let runs = |trace: bool, rev: &str, w: &str, m: &str| -> Vec<f64> {
        rows.iter()
            .filter(|r| r.trace == trace && r.rev.starts_with(rev) && r.workload == w)
            .filter(|r| r.metric == m)
            .map(|r| r.value)
            .collect()
    };
    let series = |rev: &str, w: &str, m: &str| runs(false, rev, w, m);
    let mut clean = true;
    for w in &catalog.workloads {
        let mut line = format!("{w:<16}");
        for m in &catalog.end_to_end {
            let (p, c) = (series(parent, w, &m.name), series(change, w, &m.name));
            if p.is_empty() || c.is_empty() {
                line.push_str(&format!("  {}=no-data", m.name));
                clean = false;
                continue;
            }
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            let delta = (cm / pm - 1.0) * 100.0;
            if claim == Some((w.as_str(), m.name.as_str())) {
                let (holds, wins, pairs) = claim_holds(&p, &c, m.higher_is_better);
                line.push_str(&format!(
                    "  {}=claim-{}({delta:+.1}%, {wins}/{pairs} wins)",
                    m.name,
                    if holds { "holds" } else { "not-met" }
                ));
                clean &= holds;
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = judge(&p, &c, m.higher_is_better, bound);
            clean &= !matches!(v, Verdict::Regressed);
            let tag = match v {
                Verdict::Within => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
                Verdict::Better => "better",
            };
            line.push_str(&format!("  {}={tag}({delta:+.1}%, n={}/{})", m.name, p.len(), c.len()));
        }
        // exact counts from traced runs: every run of both revisions
        // must read the same value
        let drift: Vec<&str> = EXACT
            .into_iter()
            .filter(|m| {
                let mut all = runs(true, parent, w, m);
                all.extend(runs(true, change, w, m));
                all.iter().any(|v| v.to_bits() != all[0].to_bits())
            })
            .collect();
        if drift.is_empty() {
            line.push_str("  exact=same");
        } else {
            line.push_str(&format!("  exact=DRIFT({})", drift.join(",")));
            clean = false;
        }
        println!("{line}");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_to_the_medians() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower on a lower-is-better metric with a 10% bound: within
        assert_eq!(judge(&parent, &[105.0; 5], false, 0.10), Verdict::Within);
        assert_eq!(judge(&parent, &[115.0; 5], false, 0.10), Verdict::Regressed);
        // the same numbers on a higher-is-better metric are gains
        assert_eq!(judge(&parent, &[115.0; 5], true, 0.10), Verdict::Within);
        assert_eq!(judge(&parent, &[85.0; 5], true, 0.10), Verdict::Regressed);
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved() {
        let noisy = [70.0, 100.0, 130.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[100.0; 5], false, 0.10), Verdict::Unresolved);
        // unless every change run beats every parent run
        assert_eq!(judge(&noisy, &[60.0; 5], false, 0.10), Verdict::Better);
    }

    #[test]
    fn a_claim_needs_ten_pairs_nine_wins_and_a_gap_wider_than_the_iqr() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert_eq!(claim_holds(&parent, &faster, false), (true, 10, 10));
        // nine pairs are not enough, however clear
        assert!(!claim_holds(&parent[..9], &faster[..9], false).0);
        // eight wins of ten fail the nine-tenths rule
        let mut mixed = faster.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert_eq!(claim_holds(&parent, &mixed, false), (false, 8, 10));
        // ten narrow wins inside the parent's own spread fail too
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 4.0).collect();
        let nudged: Vec<f64> = wide.iter().map(|p| p - 1.0).collect();
        assert_eq!(claim_holds(&wide, &nudged, false), (false, 10, 10));
        // direction matters: a throughput claim wants larger values
        assert!(claim_holds(&parent, &parent.iter().map(|p| p + 10.0).collect::<Vec<_>>(), true).0);
    }

    #[test]
    fn compare_reads_ledger_rows_and_flags_exact_drift() {
        let catalog = Catalog::load();
        let path =
            std::env::temp_dir().join(format!("ledger-compare-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let prov = |rev: &str| Provenance {
            rev: rev.into(),
            dirty: false,
            cpu: "test cpu".into(),
            nproc: 2,
            kernel: "test".into(),
            threads: "1".into(),
        };
        let exact: Vec<&MetricDef> =
            catalog.per_layer.iter().filter(|m| EXACT.contains(&m.name.as_str())).collect();
        // ten alternating pairs; the change is 20% faster on one metric
        for i in 0..10u64 {
            for (rev, gain) in [("aaa1", 1.0), ("bbb2", 1.2)] {
                for w in &catalog.workloads {
                    let run = RunInfo { workload: w, seed: i, seconds: 1, trace: false };
                    let base = 100.0 + (i % 3) as f64;
                    let rows: Vec<(&MetricDef, Value)> = catalog
                        .end_to_end
                        .iter()
                        .map(|m| {
                            (
                                m,
                                Value::scalar(if m.name == "mpts_per_s" {
                                    base * gain
                                } else {
                                    base
                                }),
                            )
                        })
                        .collect();
                    append(&path, &prov(rev), &run, &rows).unwrap();
                    let counts: Vec<(&MetricDef, Value)> =
                        exact.iter().map(|&m| (m, Value::scalar(42.0))).collect();
                    append(&path, &prov(rev), &RunInfo { trace: true, ..run }, &counts).unwrap();
                }
            }
        }
        let claim = Some(("sweep-box2d49p", "mpts_per_s"));
        assert_eq!(compare(&catalog, &path, "aaa", "bbb", claim), Ok(true));
        // claiming a metric that did not move fails the gain rule
        assert_eq!(
            compare(&catalog, &path, "aaa", "bbb", Some(("serve-hit", "setup_s"))),
            Ok(false)
        );
        assert!(compare(&catalog, &path, "aaa", "bbb", Some(("nope", "mpts_per_s"))).is_err());

        // one traced run of the change counting one more MMA is a drift
        let run = RunInfo { workload: "serve-hit", seed: 0, seconds: 1, trace: true };
        append(&path, &prov("bbb2"), &run, &[(exact[0], Value::scalar(43.0))]).unwrap();
        assert_eq!(compare(&catalog, &path, "aaa", "bbb", claim), Ok(false));
        let _ = std::fs::remove_file(&path);
    }
}
