//! The serve path: an in-process `ServerCore` driven through
//! `handle_line`, the entry point the daemon's socket loop calls, by at
//! most two load-generator threads. Sockets are left out so the numbers
//! isolate the service stack: parse, plan cache, fill, execute, digest,
//! response rendering and metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use foundation::bench::black_box;
use foundation::crc::Crc32;
use foundation::rng::SplitMix64;
use foundation::{alloc_counter, par};
use lorastencil::{ExecConfig, ExecSession, Plan, ScheduleParams};
use stencil_cli::serve::{proto, Action, ConnState, ServeConfig, ServerCore};
use stencil_core::StencilKernel;
use tcu_sim::{CostModel, PerfCounters};

use crate::micro::report_counts;
use crate::report::Report;
use crate::stats::{self, time_us, Reservoir, Value};

/// serve-hit phase B's offered load, requests/s. A fixed absolute rate,
/// never derived at run time: about 40% of the phase-A closed-loop
/// capacity measured once on the reference host (see README.md).
pub const OPEN_LOOP_RATE: f64 = 45_000.0;

/// Load-generator threads; the reference host has two cores.
const CLIENTS: usize = 2;

/// Throughput is sampled per slice; the run reports the median slice.
const SLICE: Duration = Duration::from_millis(250);

/// An open-loop sender sleeps until this long before a request is due,
/// then spins, so the due time is met without a scheduler wake-up.
const SPIN: Duration = Duration::from_micros(100);

/// One distinct request of a workload, with the answer an offline
/// `ExecSession` run of the same frame gave before the window.
struct Job {
    frame: String,
    kernel: StencilKernel,
    extents: Vec<usize>,
    iters: usize,
    /// `crc32:xxxxxxxx` the response must carry (`None` for
    /// `"values":"none"` frames, which carry no digest).
    digest: Option<String>,
    /// Points updated by one request (grid points × time steps).
    points: u64,
    counters: PerfCounters,
    modeled_s: f64,
}

impl Job {
    fn new(tenant: &str, kernel: &str, extents: &[usize], iters: usize, seed: u64) -> Self {
        Self::build(tenant, kernel, extents, iters, seed, true)
    }

    fn build(
        tenant: &str,
        kernel: &str,
        extents: &[usize],
        iters: usize,
        seed: u64,
        digest: bool,
    ) -> Self {
        let size: Vec<String> = extents.iter().map(usize::to_string).collect();
        let values = if digest { "" } else { r#","values":"none""# };
        let frame = format!(
            r#"{{"tenant":"{tenant}","kernel":"{kernel}","size":[{}],"iters":{iters},"seed":{seed}{values}}}"#,
            size.join(",")
        );
        let kernel = stencil_cli::find_kernel(kernel).expect("registry kernel");
        let config = ExecConfig::full();
        let mut session =
            ExecSession::with_params(&kernel, config, extents, ScheduleParams::default());
        session.fill_with(|idx| stencil_cli::grid_value(seed, idx));
        let counters = session.run(iters);
        // the daemon's digest: CRC-32 of the output bits, plane-major
        let mut crc = Crc32::new();
        for plane in session.planes() {
            for &v in plane.as_slice() {
                crc.update(&v.to_bits().to_le_bytes());
            }
        }
        let modeled_s = CostModel::a100().estimate(&counters, &session.block()).total;
        Job {
            frame,
            kernel,
            extents: extents.to_vec(),
            iters,
            digest: digest.then(|| format!("crc32:{:08x}", crc.finish())),
            points: (session.points() * iters) as u64,
            counters,
            modeled_s,
        }
    }

    /// Whether `resp` is a success carrying the offline digest.
    fn answered(&self, resp: &str) -> bool {
        const KEY: &str = "\"digest\":\"";
        resp.contains("\"ok\":true")
            && self.digest.as_deref().is_none_or(|want| {
                resp.find(KEY).is_some_and(|i| resp[i + KEY.len()..].starts_with(want))
            })
    }
}

/// serve-hit: four tenants, each with one tiny warm frame.
fn hit_jobs(seed: u64) -> Vec<Job> {
    vec![
        Job::build("t0", "Box-2D49P", &[8, 8], 1, seed, false),
        Job::new("t1", "Heat-2D", &[16, 16], 2, seed),
        Job::new("t2", "Heat-1D", &[256], 2, seed),
        Job::new("t3", "Heat-3D", &[4, 8, 8], 1, seed),
    ]
}

const CHURN_KERNELS: [&str; 6] =
    ["Heat-2D", "Box-2D9P", "Box-2D49P", "Star-2D13P", "Gaussian-2D-r2", "Laplace-2D-o4"];
const CHURN_SIZES: [usize; 8] = [32, 48, 64, 80, 96, 112, 128, 160];
/// Plan-cache entries in serve-churn: a third of the 48 keys.
const CHURN_CAPACITY: usize = 16;

/// serve-churn: 48 keys in popularity-rank order. The rank → key map is
/// a fixed shuffle (not seeded by the run), so every run spreads heat
/// over the same mix of cheap and expensive shapes.
fn churn_jobs(seed: u64) -> Vec<Job> {
    let mut keys: Vec<(&str, usize)> =
        CHURN_KERNELS.iter().flat_map(|&k| CHURN_SIZES.map(|n| (k, n))).collect();
    let mut rng = SplitMix64::new(0xC0FFEE);
    for i in (1..keys.len()).rev() {
        keys.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    keys.iter()
        .enumerate()
        .map(|(rank, &(k, n))| Job::new(&format!("c{}", rank % 4), k, &[n, n], 2, seed))
        .collect()
}

/// Build a server and warm `jobs`: the cold first request of each, then
/// both clients requesting each shape at once, which grows every
/// entry's session pool to the client count.
fn setup(cfg: ServeConfig, jobs: &[Job], report: &mut Report) -> Arc<ServerCore> {
    let core = ServerCore::new(cfg);
    let mut conn = ConnState::new();
    for job in jobs {
        core.handle_line(&mut conn, &job.frame);
        report.check(job.answered(&conn.resp));
    }
    let barrier = Barrier::new(CLIENTS);
    let failed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut conn = ConnState::new();
                for job in jobs {
                    barrier.wait();
                    core.handle_line(&mut conn, &job.frame);
                    if !job.answered(&conn.resp) {
                        failed.fetch_add(1, Relaxed);
                    }
                }
            });
        }
    });
    report.attempted += (CLIENTS * jobs.len()) as u64;
    report.failed += failed.load(Relaxed);
    core
}

/// Requests each load-generator thread keeps a uniform sample of: with
/// two threads, a p99 still has over 600 samples beyond it.
const SAMPLE_CAP: usize = 1 << 15;

/// One measured request.
#[derive(Clone, Copy)]
struct Sample {
    /// `handle_line` wall time, ns.
    ns: u64,
    /// Whether the response reported a plan-cache hit.
    hit: bool,
    /// Response profile `[plan, fill, exec, digest]`, ns (traced only).
    profile: [u64; 4],
}

/// A closed-loop window: sampled requests and per-slice rates.
struct Closed {
    samples: Vec<Sample>,
    jobs_per_s: Vec<f64>,
    mpts_per_s: Vec<f64>,
}

/// The value of `"key":<digits>` in a response, allocation-free.
fn field(resp: &str, key: &str) -> u64 {
    let Some(i) = resp.find(key) else { return 0 };
    let digits = resp[i + key.len()..].bytes().take_while(u8::is_ascii_digit);
    digits.fold(0u64, |n, d| n * 10 + u64::from(d - b'0'))
}

/// `CLIENTS` threads, each sending its next request when the previous
/// answer lands, for `dur`. Request `i` (counted across clients) is
/// `jobs[order[i % order.len()]]`.
fn closed_loop(
    core: &ServerCore,
    jobs: &[Job],
    order: &[u16],
    dur: Duration,
    profile: bool,
    report: &mut Report,
) -> Closed {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let points = AtomicU64::new(0);
    let (mut jobs_per_s, mut mpts_per_s) = (Vec::new(), Vec::new());
    let per_client: Vec<(Reservoir<Sample>, u64)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = ConnState::new();
                    let (mut out, mut failed) = (Reservoir::new(SAMPLE_CAP, 1), 0);
                    while !stop.load(Relaxed) {
                        let i = next.fetch_add(1, Relaxed);
                        let job = &jobs[usize::from(order[i % order.len()])];
                        let t0 = Instant::now();
                        let action = core.handle_line(&mut conn, &job.frame);
                        let ns = t0.elapsed().as_nanos() as u64;
                        if action != Action::Respond || !job.answered(&conn.resp) {
                            failed += 1;
                        }
                        let r = &conn.resp;
                        let phases = if profile {
                            ["\"plan_ns\":", "\"fill_ns\":", "\"exec_ns\":", "\"digest_ns\":"]
                                .map(|k| field(r, k))
                        } else {
                            [0; 4]
                        };
                        let hit = r.contains("\"cache\":\"hit\"");
                        out.push(Sample { ns, hit, profile: phases });
                        done.fetch_add(1, Relaxed);
                        points.fetch_add(job.points, Relaxed);
                    }
                    (out, failed)
                })
            })
            .collect();
        let start = Instant::now();
        let (mut t_last, mut d_last, mut p_last) = (start, 0, 0);
        while start.elapsed() < dur {
            std::thread::sleep(SLICE.min(dur.saturating_sub(start.elapsed())));
            let (now, d, p) = (Instant::now(), done.load(Relaxed), points.load(Relaxed));
            let dt = (now - t_last).as_secs_f64();
            jobs_per_s.push((d - d_last) as f64 / dt);
            mpts_per_s.push((p - p_last) as f64 / dt / 1e6);
            (t_last, d_last, p_last) = (now, d, p);
        }
        stop.store(true, Relaxed);
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
    });
    Closed { samples: gather(per_client, report), jobs_per_s, mpts_per_s }
}

/// Merge the load-generator threads' samples, counting every request
/// they sent and every one that failed.
fn gather<T>(per_thread: Vec<(Reservoir<T>, u64)>, report: &mut Report) -> Vec<T> {
    let mut samples = Vec::new();
    for (sample, failed) in per_thread {
        report.attempted += sample.seen();
        report.failed += failed;
        samples.extend(sample.into_items());
    }
    samples
}

/// An open-loop window: request `i` is due `i / rate` after the start
/// whether or not earlier ones finished; latency counts from the due
/// time, so a stall is charged to every request queued behind it.
/// Returns sampled `(due → response ms, sender lateness µs)` pairs.
fn open_loop(
    core: &ServerCore,
    jobs: &[Job],
    dur: Duration,
    report: &mut Report,
) -> Vec<(f64, f64)> {
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let dur_ns = dur.as_nanos() as u64;
    let per_sender: Vec<(Reservoir<(f64, f64)>, u64)> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = ConnState::new();
                    let (mut out, mut failed) = (Reservoir::new(SAMPLE_CAP, 1), 0);
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        let offset = stats::due_ns(i, OPEN_LOOP_RATE);
                        if offset >= dur_ns {
                            break;
                        }
                        let due = start + Duration::from_nanos(offset);
                        let sent = loop {
                            let now = Instant::now();
                            if now >= due {
                                break now;
                            }
                            if due - now > SPIN {
                                std::thread::sleep(due - now - SPIN);
                            } else {
                                std::hint::spin_loop();
                            }
                        };
                        let job = &jobs[i as usize % jobs.len()];
                        let action = core.handle_line(&mut conn, &job.frame);
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        out.push((latency_ms, (sent - due).as_secs_f64() * 1e6));
                        if action != Action::Respond || !job.answered(&conn.resp) {
                            failed += 1;
                        }
                    }
                    (out, failed)
                })
            })
            .collect();
        senders.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    gather(per_sender, report)
}

fn latency_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.ns as f64 / 1e6).collect()
}

pub fn run(workload: &str, seed: u64, seconds: u64, report: &mut Report) {
    let (cfg, jobs, order, warm) = match workload {
        "serve-hit" => {
            let jobs = hit_jobs(seed);
            let order: Vec<u16> = (0..jobs.len() as u16).collect();
            let warm = jobs.len();
            (ServeConfig::default(), jobs, order, warm)
        }
        "serve-churn" => {
            let jobs = churn_jobs(seed);
            let order = stats::zipf_sequence(seed, jobs.len(), 1 << 16);
            let cfg = ServeConfig { cache_capacity: CHURN_CAPACITY, ..ServeConfig::default() };
            (cfg, jobs, order, CHURN_CAPACITY)
        }
        _ => unreachable!("not a serve workload: {workload}"),
    };
    let hit = workload == "serve-hit";
    let spawned0 = par::threads_spawned();
    let (setup_s, core) = stats::repeat_setup(|| setup(cfg, &jobs[..warm], report));
    let secs = Duration::from_secs(seconds);

    if !report.trace {
        // serve-hit: phase A (closed) sets throughput, phase B (open)
        // sets latency; serve-churn is one closed-loop window
        let window = if hit { secs / 2 } else { secs };
        let closed = closed_loop(&core, &jobs, &order, window, false, report);
        report.set("jobs_per_s", Value::median(&closed.jobs_per_s));
        report.set("mpts_per_s", Value::median(&closed.mpts_per_s));
        let latency: Vec<f64> = if hit {
            open_loop(&core, &jobs, secs / 2, report).iter().map(|s| s.0).collect()
        } else {
            latency_ms(&closed.samples)
        };
        report.set("latency_ms_p50", Value::median(&latency));
        report.set("setup_s", setup_s);
        return;
    }

    // traced run: untraced closed loop as the overhead baseline, then the
    // same loop reading every response's profile (serve-hit adds an
    // open-loop third for its tail latency and the generator's lateness)
    let part = if hit { secs / 3 } else { secs / 2 };
    let plain = closed_loop(&core, &jobs, &order, part, false, report);
    let cache = &core.cache;
    let counts = || [&cache.hits, &cache.misses, &cache.coalesced].map(|c| c.load(Relaxed));
    let before = counts();
    let traced = closed_loop(&core, &jobs, &order, part, true, report);
    let after = counts();
    let s = &traced.samples;
    let tail = if hit {
        let open = open_loop(&core, &jobs, part, report);
        let late: Vec<f64> = open.iter().map(|s| s.1).collect();
        report.set("bench.gen_late_us_p99", Value::quantile(&late, 0.99));
        open.iter().map(|s| s.0).collect()
    } else {
        latency_ms(s)
    };
    report.set("stencil_cli.serve.latency_ms_p99", Value::quantile(&tail, 0.99));
    let spawned = par::threads_spawned() - spawned0;

    let us: Vec<f64> = s.iter().map(|s| s.ns as f64 / 1e3).collect();
    let handle_p50 = stats::median(&us);
    report.set("stencil_cli.serve.handle_line_us_p50", Value::median(&us));
    report.set("stencil_cli.serve.handle_line_us_p99", Value::quantile(&us, 0.99));
    let mut phase_sum = 0.0;
    for (i, name) in ["plan", "fill", "exec", "digest"].iter().enumerate() {
        let phase: Vec<f64> = s.iter().map(|s| s.profile[i] as f64 / 1e3).collect();
        phase_sum += stats::median(&phase);
        report.set(&format!("stencil_cli.serve.{name}_us_p50"), Value::median(&phase));
    }
    report.scalar("stencil_cli.serve.other_us_p50", handle_p50 - phase_sum);
    let (hits, misses) = (after[0] - before[0], after[1] - before[1]);
    report.scalar("stencil_cli.serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    report.scalar("stencil_cli.serve.cache_misses", misses as f64);
    report.scalar("stencil_cli.serve.coalesced", (after[2] - before[2]) as f64);
    let split = |want: bool| -> Vec<f64> {
        s.iter().filter(|s| s.hit == want).map(|s| s.ns as f64 / 1e6).collect()
    };
    report.set("stencil_cli.serve.hit_ms_p50", Value::median(&split(true)));
    report.set("stencil_cli.serve.miss_ms_p50", Value::median(&split(false)));
    report.scalar(
        "foundation.obs.trace_overhead_frac",
        stats::median(&plain.jobs_per_s) / stats::median(&traced.jobs_per_s) - 1.0,
    );
    report.scalar("foundation.par.threads_spawned", spawned as f64);
    report.scalar("bench.samples", s.len() as f64);

    // allocations per request over a fixed single-client pass
    let passes = if hit { 4000 } else { 300 };
    let mut conn = ConnState::new();
    for job in &jobs[..warm] {
        // a fresh connection's buffers grow on its first requests
        core.handle_line(&mut conn, &job.frame);
        report.check(job.answered(&conn.resp));
    }
    let allocs0 = alloc_counter::allocation_count();
    for i in 0..passes {
        let job = &jobs[usize::from(order[i % order.len()])];
        core.handle_line(&mut conn, &job.frame);
        report.check(job.answered(&conn.resp));
    }
    let allocs = alloc_counter::allocation_count() - allocs0;
    report.scalar("foundation.allocs_per_job", allocs as f64 / passes as f64);

    // outside timing of the public calls each request path makes
    let parse_ns: f64 = jobs
        .iter()
        .map(|j| {
            time_us(5, || (0..1000).for_each(|_| drop(black_box(proto::parse_frame(&j.frame)))))
        })
        .sum::<f64>()
        / jobs.len() as f64;
    report.scalar("stencil_cli.serve.parse_frame_ns", parse_ns);
    let config = ExecConfig::full();
    let tune_ms: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let budget = cfg.tune_budget;
            time_us(1, || {
                black_box(stencil_cli::tune::tune_on_miss(
                    &j.kernel, config, &j.extents, seed, j.iters, budget,
                ));
            }) / 1e3
        })
        .collect();
    report.set("stencil_cli.tune.on_miss_ms", Value::median(&tune_ms));
    let (mut plan_us, mut session_us) = (0.0, 0.0);
    for j in &jobs {
        plan_us += time_us(3, || drop(Plan::new(&j.kernel, config)));
        session_us += time_us(3, || {
            drop(ExecSession::with_params(&j.kernel, config, &j.extents, ScheduleParams::default()))
        });
    }
    report.scalar("lorastencil.plan_us", plan_us);
    report.scalar("lorastencil.session_build_us", session_us);

    let mut total = PerfCounters::new();
    for j in &jobs {
        total.merge(&j.counters);
    }
    report_counts(report, &total, jobs.iter().map(|j| j.modeled_s).sum());
}
