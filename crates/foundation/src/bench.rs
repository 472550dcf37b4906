//! Wall-clock micro-benchmark harness replacing `criterion` for the
//! `bench-suite` bench targets (`harness = false` binaries).
//!
//! Protocol per benchmark: a short calibration run estimates the cost of
//! one iteration, then the measurement phase runs enough iterations to
//! fill the measurement window, in several batches; the reported figure
//! is the **minimum** per-iteration time across batches (least noise),
//! with the mean alongside. Per-iteration times are fractional
//! nanoseconds, so a body faster than 1 ns still reads as its time; a
//! benchmark whose batches all end within the clock's resolution reports
//! that, never a time of 0 ns.
//!
//! CLI (all optional, criterion-compatible enough for `cargo bench`):
//!
//! * a bare string argument filters benchmarks by substring;
//! * `--quick` shrinks the windows ~10× for smoke runs;
//! * `--json <file>` writes the machine-readable report at `finish()`;
//! * `--baseline <file>` prints a per-benchmark delta against a previous
//!   `--json` report (benchmarks absent from the baseline report as
//!   `new`, zero-time baseline entries as `n/a` — no division by zero);
//! * `--profile` enables [`crate::obs`] span tracing around each
//!   benchmark and embeds the per-phase host breakdown in the report
//!   next to Mpoints/s (span overhead is inside the measured loop, so
//!   profile numbers are for attribution, not for records);
//! * `--bench` / `--test` (passed by cargo) are accepted and ignored
//!   (under `--test` each benchmark runs exactly one iteration).
//!
//! Benchmarks that process grid data call [`Bencher::points`] with the
//! points touched per iteration; the harness then reports throughput
//! (Mpoints/s) alongside wall time.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Benchmark name (group-qualified).
    pub name: String,
    /// Best (minimum) per-iteration time across batches, in nanoseconds.
    /// `None` when nothing was timed: a `--test` run, or every batch
    /// ended within the clock's resolution (its elapsed time read zero).
    pub best_ns: Option<f64>,
    /// Mean per-iteration time across all measured iterations, in
    /// nanoseconds.
    pub mean_ns: f64,
    /// Total iterations measured.
    pub iters: u64,
    /// Grid points processed per iteration (0 = not reported).
    pub points: u64,
    /// Host phase breakdown (`--profile` runs only; else empty).
    pub phases: Vec<crate::obs::PhaseStat>,
}

impl Summary {
    /// Throughput at the best per-iteration time, in Mpoints/s
    /// (`None` when the benchmark did not report points).
    pub fn mpoints_per_sec(&self) -> Option<f64> {
        let best_ns = self.best_ns.filter(|_| self.points > 0)?;
        Some(self.points as f64 / best_ns * 1e3)
    }
}

/// Benchmark registry and driver; the `c: &mut Bench` handle the bench
/// targets pass around (criterion's `Criterion` role).
pub struct Bench {
    filter: Option<String>,
    calibration: Duration,
    window: Duration,
    test_mode: bool,
    profile: bool,
    results: Vec<Summary>,
    json_out: Option<String>,
    baseline: Option<String>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            filter: None,
            calibration: Duration::from_millis(20),
            window: Duration::from_millis(120),
            test_mode: false,
            profile: false,
            results: Vec::new(),
            json_out: None,
            baseline: None,
        }
    }
}

impl Bench {
    /// Build from `std::env::args`, accepting the flags cargo passes.
    pub fn from_args() -> Self {
        let mut b = Bench::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" => {}
                "--test" => b.test_mode = true,
                "--quick" => {
                    b.calibration = Duration::from_millis(2);
                    b.window = Duration::from_millis(12);
                }
                "--json" => b.json_out = args.next(),
                "--baseline" => b.baseline = args.next(),
                "--profile" => b.profile = true,
                s if s.starts_with("--") => {} // ignore unknown flags (e.g. --save-baseline)
                s => b.filter = Some(s.to_string()),
            }
        }
        b
    }

    /// Register and run one benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            calibration: self.calibration,
            window: self.window,
            test_mode: self.test_mode,
            summary: None,
            points: 0,
        };
        if self.profile {
            crate::obs::reset();
            crate::obs::enable();
        }
        f(&mut bencher);
        let phases = if self.profile {
            crate::obs::disable();
            crate::obs::drain(); // clear the rings; breakdown reads histograms
            crate::obs::phase_breakdown()
        } else {
            Vec::new()
        };
        let points = bencher.points;
        let summary = bencher.summary.expect("benchmark body must call Bencher::iter");
        let s = Summary { name: name.to_string(), points, phases, ..summary };
        let throughput =
            s.mpoints_per_sec().map(|m| format!("  {m:>9.2} Mpoints/s")).unwrap_or_default();
        println!(
            "{:<40} {:>14} /iter (mean {:>14}, {} iters){throughput}",
            s.name,
            s.best_ns.map_or("unresolved".to_string(), fmt_ns),
            fmt_ns(s.mean_ns),
            s.iters
        );
        self.results.push(s);
    }

    /// Like criterion's `bench_with_input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl Fn(&mut Bencher, &I),
    ) {
        self.bench_function(&id.0, |b| f(b, input));
    }

    /// A named sub-group; names are prefixed `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group { bench: self, prefix: name.to_string() }
    }

    /// All results so far.
    pub fn results(&self) -> &[Summary] {
        &self.results
    }

    /// Results as a JSON array (for machine-readable bench reports).
    pub fn to_json(&self) -> crate::json::Json {
        self.to_json_with_baseline(None)
    }

    /// Like [`Bench::to_json`], but when a `--baseline` report is
    /// supplied each entry also records the baseline's best time and the
    /// speedup against it — so one report file carries before and after.
    pub fn to_json_with_baseline(&self, base: Option<&crate::json::Json>) -> crate::json::Json {
        use crate::json::Json;
        Json::Arr(
            self.results
                .iter()
                .map(|s| {
                    let mut pairs = vec![
                        ("name", Json::Str(s.name.clone())),
                        ("best_ns", s.best_ns.map_or(Json::Null, Json::Num)),
                        ("mean_ns", Json::Num(s.mean_ns)),
                        ("iters", Json::UInt(s.iters)),
                    ];
                    if s.points > 0 {
                        pairs.push(("points", Json::UInt(s.points)));
                        if let Some(m) = s.mpoints_per_sec() {
                            pairs.push(("mpoints_per_sec", Json::Num(m)));
                        }
                    }
                    if !s.phases.is_empty() {
                        pairs.push((
                            "phases",
                            Json::Arr(s.phases.iter().map(|p| p.to_json()).collect()),
                        ));
                    }
                    if base.is_some() {
                        match base.and_then(|b| baseline_best_ns(b, &s.name)) {
                            // a zero (or negative) baseline time is not a
                            // usable denominator, and an unresolved time
                            // no numerator — mark the entry instead of
                            // reporting an absurd speedup
                            Some(base_ns) if base_ns > 0.0 && s.best_ns.is_some() => {
                                let now_ns = s.best_ns.unwrap_or(0.0);
                                pairs.push(("baseline_best_ns", Json::Num(base_ns)));
                                pairs.push((
                                    "speedup_vs_baseline",
                                    Json::Num(base_ns / now_ns.max(1e-9)),
                                ));
                            }
                            Some(_) => pairs.push(("baseline", Json::Str("n/a".into()))),
                            None => pairs.push(("baseline", Json::Str("new".into()))),
                        }
                    }
                    Json::obj(pairs)
                })
                .collect(),
        )
    }

    /// Print the closing summary (and the `--baseline` comparison), and
    /// write the `--json` report if requested. Call at the end of `main`.
    pub fn finish(&self) {
        println!("\n{} benchmarks measured", self.results.len());
        let base = self.baseline.as_ref().and_then(|path| {
            match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| crate::json::Json::parse(&text))
            {
                Ok(base) => {
                    self.print_baseline_delta(path, &base);
                    Some(base)
                }
                Err(e) => {
                    println!("(baseline {path} unreadable: {e})");
                    None
                }
            }
        });
        if let Some(path) = &self.json_out {
            let report = self.to_json_with_baseline(base.as_ref());
            if let Err(e) = std::fs::write(path, report.dump() + "\n") {
                eprintln!("failed to write {path}: {e}");
            } else {
                println!("report written to {path}");
            }
        }
    }

    /// Per-benchmark delta vs a previous `--json` report: negative %
    /// means this run is faster. Benchmarks the baseline lacks are
    /// `new`; zero-time baseline entries are `n/a` (no delta exists).
    fn print_baseline_delta(&self, path: &str, base: &crate::json::Json) {
        println!("\ndelta vs baseline {path} (negative = faster):");
        for s in &self.results {
            match (baseline_best_ns(base, &s.name), s.best_ns) {
                (Some(base_ns), Some(now_ns)) if base_ns > 0.0 => {
                    let pct = (now_ns / base_ns - 1.0) * 100.0;
                    println!(
                        "{:<40} {:>+8.1}%  ({} -> {}, {:.2}x)",
                        s.name,
                        pct,
                        fmt_ns(base_ns),
                        fmt_ns(now_ns),
                        base_ns / now_ns.max(1e-9),
                    );
                }
                (Some(_), None) => println!("{:<40} (time below clock resolution: n/a)", s.name),
                (Some(_), _) => println!("{:<40} (baseline time is zero: n/a)", s.name),
                (None, _) => println!("{:<40} (new: not in baseline)", s.name),
            }
        }
    }
}

/// Look up one benchmark's `best_ns` in a previous `--json` report.
fn baseline_best_ns(base: &crate::json::Json, name: &str) -> Option<f64> {
    use crate::json::Json;
    base.as_arr()?
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|e| e.get("best_ns").and_then(Json::as_f64))
}

/// A benchmark group handle (see [`Bench::benchmark_group`]).
pub struct Group<'a> {
    bench: &'a mut Bench,
    prefix: String,
}

impl Group<'_> {
    /// Register and run one benchmark inside the group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{name}", self.prefix);
        self.bench.bench_function(&full, f);
    }

    /// Like criterion's grouped `bench_with_input`.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl Fn(&mut Bencher, &I),
    ) {
        let full = format!("{}/{}", self.prefix, id.0);
        self.bench.bench_function(&full, |b| f(b, input));
    }

    /// End the group (no-op; for criterion source compatibility).
    pub fn finish(self) {}
}

/// A two-part benchmark id, `function/parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Compose `function/parameter`.
    pub fn new(function: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }
}

/// Per-benchmark measurement driver passed to the benchmark body.
pub struct Bencher {
    calibration: Duration,
    window: Duration,
    test_mode: bool,
    summary: Option<Summary>,
    points: u64,
}

impl Bencher {
    /// Declare how many grid points one iteration of the benchmark body
    /// processes; the harness then reports Mpoints/s.
    pub fn points(&mut self, points_per_iter: u64) -> &mut Self {
        self.points = points_per_iter;
        self
    }

    /// Measure `f`, retaining its result via [`black_box`] so the work
    /// is not optimized away.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        if self.test_mode {
            black_box(f());
            self.summary = Some(Summary {
                name: String::new(),
                best_ns: None,
                mean_ns: 0.0,
                iters: 1,
                points: 0,
                phases: Vec::new(),
            });
            return;
        }
        // calibration: estimate per-iteration cost
        let mut calib_iters: u64 = 0;
        let start = Instant::now();
        while start.elapsed() < self.calibration {
            black_box(f());
            calib_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / calib_iters.max(1) as f64;

        // measurement: ~8 batches filling the window
        const BATCHES: u64 = 8;
        let batch_iters = ((self.window.as_secs_f64() / BATCHES as f64 / per_iter.max(1e-9))
            as u64)
            .clamp(1, 1 << 24);
        let mut best_ns: Option<f64> = None;
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..batch_iters {
                black_box(f());
            }
            let dt = t0.elapsed();
            // a batch the clock did not see advance measured nothing
            if !dt.is_zero() {
                let per = dt.as_nanos() as f64 / batch_iters as f64;
                best_ns = Some(best_ns.map_or(per, |b| b.min(per)));
            }
            total += dt;
            iters += batch_iters;
        }
        self.summary = Some(Summary {
            name: String::new(),
            best_ns,
            mean_ns: total.as_nanos() as f64 / iters.max(1) as f64,
            iters,
            points: 0,
            phases: Vec::new(),
        });
    }
}

/// Injectable monotonic time source for [`median_sample_ns`], so tests
/// can feed a deterministic noisy clock instead of waiting on walls.
pub trait Clock {
    /// A monotonic timestamp in nanoseconds (origin arbitrary).
    fn now_ns(&mut self) -> u64;
}

/// The real monotonic clock ([`Instant`]-backed).
pub struct WallClock(Instant);

impl WallClock {
    /// A clock anchored at construction time.
    pub fn new() -> Self {
        WallClock(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Repeat-and-take-median measurement: run `f` `reps` times (at least
/// once), time each rep with `clock`, and return the **median** per-rep
/// nanoseconds. Unlike the min/mean pair [`Bencher::iter`] reports, the
/// median is robust to the one-sided noise a busy machine injects
/// (scheduler preemption inflates some reps but never deflates any), so
/// it is the figure the schedule autotuner ranks candidates by. For an
/// even rep count the lower median is taken — the result is always an
/// actually observed sample, never an interpolated one.
pub fn median_sample_ns<R>(clock: &mut impl Clock, reps: usize, mut f: impl FnMut() -> R) -> u64 {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = clock.now_ns();
        black_box(f());
        samples.push(clock.now_ns().saturating_sub(t0));
    }
    samples.sort_unstable();
    samples[(reps - 1) / 2]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1.0 {
        format!("{ns:.3} ns")
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Bench {
        Bench {
            calibration: Duration::from_micros(200),
            window: Duration::from_millis(2),
            ..Bench::default()
        }
    }

    #[test]
    fn measures_and_records() {
        let mut c = quick();
        c.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(c.results().len(), 1);
        let s = &c.results()[0];
        assert_eq!(s.name, "sum");
        assert!(s.iters >= 8);
        assert!(s.best_ns.unwrap() <= s.mean_ns || s.iters <= 8);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = quick();
        c.filter = Some("mma".to_string());
        c.bench_function("spec_parse", |b| b.iter(|| 1 + 1));
        c.bench_function("mma_f64", |b| b.iter(|| 2 + 2));
        assert_eq!(c.results().len(), 1);
        assert_eq!(c.results()[0].name, "mma_f64");
    }

    #[test]
    fn groups_prefix_names() {
        let mut c = quick();
        let mut g = c.benchmark_group("apply");
        g.bench_function("reference", |b| b.iter(|| 3 * 3));
        g.bench_with_input(BenchmarkId::new("baseline", "TCStencil"), &5u64, |b, &x| {
            b.iter(|| x * x)
        });
        g.finish();
        let names: Vec<&str> = c.results().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["apply/reference", "apply/baseline/TCStencil"]);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = quick();
        c.test_mode = true;
        let mut count = 0u64;
        c.bench_function("probe", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn json_report_shape() {
        let mut c = quick();
        c.bench_function("x", |b| b.iter(|| 1u64));
        let dump = c.to_json().dump();
        assert!(dump.starts_with(r#"[{"name":"x""#), "{dump}");
    }

    #[test]
    fn points_report_throughput() {
        let mut c = quick();
        c.bench_function("grid", |b| {
            b.points(4096);
            b.iter(|| (0..64u64).map(black_box).sum::<u64>())
        });
        let s = &c.results()[0];
        assert_eq!(s.points, 4096);
        let m = s.mpoints_per_sec().expect("throughput reported");
        assert!(m > 0.0);
        let dump = c.to_json().dump();
        assert!(dump.contains(r#""points":4096"#), "{dump}");
        assert!(dump.contains("mpoints_per_sec"), "{dump}");
    }

    #[test]
    fn sub_nanosecond_bodies_are_not_reported_as_zero() {
        use crate::json::Json;
        let mut c = quick();
        // folds to a constant: far under 1 ns per iteration
        c.bench_function("folded", |b| b.iter(|| (0..64u64).sum::<u64>()));
        let best = c.results()[0].best_ns.expect("a batch outlasts the clock's resolution");
        assert!(best > 0.0);
        // a time the clock never resolved is reported as such: no 0 ns,
        // no speedup against a baseline
        c.results[0].best_ns = None;
        let base = Json::Arr(vec![Json::obj(vec![
            ("name", Json::Str("folded".into())),
            ("best_ns", Json::Num(10.0)),
        ])]);
        c.print_baseline_delta("mem", &base);
        let report = c.to_json_with_baseline(Some(&base));
        let entry = &report.as_arr().unwrap()[0];
        assert!(matches!(entry.get("best_ns"), Some(Json::Null)));
        assert_eq!(entry.get("baseline").and_then(Json::as_str), Some("n/a"));
    }

    /// A clock that replays a scripted sequence of timestamps; each
    /// `now_ns` call pops the next value.
    struct ScriptedClock {
        times: Vec<u64>,
        i: usize,
    }

    impl Clock for ScriptedClock {
        fn now_ns(&mut self) -> u64 {
            let t = self.times[self.i];
            self.i += 1;
            t
        }
    }

    #[test]
    fn median_shrugs_off_one_sided_noise() {
        // 5 reps; each rep reads the clock twice. Rep deltas are
        // 100, 100, 5000 (a preempted rep), 100, 100 — the min, the
        // median and 3 of 5 samples agree, but the mean (1080) does not.
        let mut clock = ScriptedClock {
            times: vec![0, 100, 200, 300, 400, 5400, 5500, 5600, 5700, 5800],
            i: 0,
        };
        let mut runs = 0u32;
        let med = median_sample_ns(&mut clock, 5, || runs += 1);
        assert_eq!(runs, 5);
        assert_eq!(med, 100);
    }

    #[test]
    fn even_rep_count_takes_the_lower_median() {
        // deltas 10, 20, 30, 40 → lower median is 20 (an observed
        // sample), not the interpolated 25
        let mut clock = ScriptedClock { times: vec![0, 10, 10, 30, 30, 60, 60, 100], i: 0 };
        assert_eq!(median_sample_ns(&mut clock, 4, || ()), 20);
    }

    #[test]
    fn zero_reps_still_runs_once() {
        let mut clock = ScriptedClock { times: vec![7, 19], i: 0 };
        let mut runs = 0u32;
        assert_eq!(median_sample_ns(&mut clock, 0, || runs += 1), 12);
        assert_eq!(runs, 1);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let mut c = WallClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        let med = median_sample_ns(&mut WallClock::new(), 3, || black_box((0..64u64).sum::<u64>()));
        // a real measurement of real work on a real clock
        let _ = med; // value is machine-dependent; only shape is asserted
    }

    #[test]
    fn baseline_delta_reads_previous_report() {
        use crate::json::Json;
        let mut c = quick();
        c.bench_function("grid", |b| b.iter(|| (0..64u64).map(black_box).sum::<u64>()));
        // round-trip the report through the parser the --baseline path uses
        let report = Json::parse(&c.to_json().dump()).unwrap();
        let entries = report.as_arr().unwrap();
        let best = entries[0].get("best_ns").and_then(Json::as_f64).unwrap();
        assert!(best > 0.0);
        assert_eq!(entries[0].get("name").and_then(Json::as_str), Some("grid"));
        // the delta printer must not panic on a matching baseline
        c.print_baseline_delta("mem", &report);
    }

    #[test]
    fn baseline_missing_and_zero_entries_are_new_and_na() {
        use crate::json::Json;
        let mut c = quick();
        c.bench_function("zeroed", |b| b.iter(|| 1u64));
        c.bench_function("brand_new", |b| b.iter(|| 2u64));
        // in-memory baseline: "zeroed" has a degenerate zero best time,
        // "brand_new" is absent entirely
        let base = Json::Arr(vec![Json::obj(vec![
            ("name", Json::Str("zeroed".into())),
            ("best_ns", Json::Num(0.0)),
        ])]);
        // neither entry may divide by the baseline time
        c.print_baseline_delta("mem", &base);
        let report = c.to_json_with_baseline(Some(&base));
        let entries = report.as_arr().unwrap();
        assert_eq!(entries[0].get("baseline").and_then(Json::as_str), Some("n/a"));
        assert!(entries[0].get("speedup_vs_baseline").is_none());
        assert_eq!(entries[1].get("baseline").and_then(Json::as_str), Some("new"));
        assert!(entries[1].get("baseline_best_ns").is_none());
    }
}
