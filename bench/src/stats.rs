//! Order statistics, timing helpers and the seeded input generators the
//! workloads share.

use std::time::{Duration, Instant};

use foundation::rng::{SplitMix64, Xoshiro256pp};

/// Median wall time of `reps` calls of `f`, µs.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Set-ups per run: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET` of set-up time has been measured, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Repeat a workload's set-up and return its median wall time, s, with
/// the product of the last repetition (earlier ones are dropped).
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (Value, T) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let product = setup();
        secs.push(t0.elapsed().as_secs_f64());
        let enough = secs.len() >= MIN_SETUPS && start.elapsed() >= SETUP_BUDGET;
        if enough || secs.len() == MAX_SETUPS {
            return (Value::median(&secs), product);
        }
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `ceil(q * n)` samples at or below it. Always an
/// observed value, never an interpolation; 0 for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// A metric value as one run measured it: the reported value plus the
/// sample count and quartiles behind it (a single number has `n = 1` and
/// quartiles equal to the value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Value {
    /// One number with no distribution behind it.
    pub fn scalar(value: f64) -> Self {
        Value { value, n: 1, p25: value, p50: value, p75: value }
    }

    /// The `q`-th percentile of `samples`, with their quartiles.
    pub fn quantile(samples: &[f64], q: f64) -> Self {
        let s = sorted(samples);
        Value {
            value: percentile(&s, q),
            n: s.len(),
            p25: percentile(&s, 0.25),
            p50: percentile(&s, 0.5),
            p75: percentile(&s, 0.75),
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median(samples: &[f64]) -> Self {
        Self::quantile(samples, 0.5)
    }
}

/// A uniform random sample of at most `cap` observations (Vitter's
/// algorithm R). Memory stays fixed however many requests a window
/// serves, so the benchmark's own buffers do not move `peak_rss_mb`.
pub struct Reservoir<T> {
    items: Vec<T>,
    cap: usize,
    seen: u64,
    rng: SplitMix64,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { items: Vec::with_capacity(cap), cap, seen: 0, rng: SplitMix64::new(seed) }
    }

    pub fn push(&mut self, x: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(x);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.items.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// Observations offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// `len` key ranks in `0..keys` drawn from a Zipf(1.0) law (rank `k` has
/// weight `1 / (k + 1)`), a pure function of `seed`.
pub fn zipf_sequence(seed: u64, keys: usize, len: usize) -> Vec<u16> {
    assert!(keys >= 1 && keys <= usize::from(u16::MAX), "zipf needs 1..=65535 keys");
    let mut cdf = Vec::with_capacity(keys);
    let mut total = 0.0;
    for k in 0..keys {
        total += 1.0 / (k + 1) as f64;
        cdf.push(total);
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let u = rng.next_f64() * total;
            cdf.partition_point(|&c| c <= u).min(keys - 1) as u16
        })
        .collect()
}

/// When open-loop arrival `i` is due, in ns after the loop starts, at a
/// fixed rate of `rate_per_s` arrivals per second.
pub fn due_ns(i: u64, rate_per_s: f64) -> u64 {
    (i as f64 * 1e9 / rate_per_s) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.25), 30.0);
        assert_eq!(percentile(&s, 0.99), 100.0);
        assert_eq!(percentile(&s, 0.01), 10.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // an even count takes the lower middle sample, not the mean
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        let v = Value::median(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((v.value, v.n, v.p25, v.p50, v.p75), (3.0, 5, 2.0, 3.0, 4.0));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut small = Reservoir::new(8, 1);
        (0..5).for_each(|x| small.push(x));
        assert_eq!((small.seen(), small.into_items()), (5, vec![0, 1, 2, 3, 4]));
        let mut r = Reservoir::new(1000, 7);
        (0..100_000u32).for_each(|x| r.push(f64::from(x)));
        assert_eq!(r.seen(), 100_000);
        let s = r.into_items();
        assert_eq!(s.len(), 1000);
        // a uniform sample of 0..100 000 has its median near 50 000
        assert!((40_000.0..60_000.0).contains(&median(&s)), "median {}", median(&s));
    }

    #[test]
    fn zipf_sequence_is_a_function_of_the_seed() {
        let a = zipf_sequence(7, 48, 4096);
        assert_eq!(a, zipf_sequence(7, 48, 4096));
        assert_ne!(a, zipf_sequence(8, 48, 4096));
        assert!(a.iter().all(|&k| k < 48));
        // Zipf(1.0) over 48 ranks: rank 0 carries 1/H(48) ≈ 22.5% of draws
        let top = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        assert!((0.19..0.26).contains(&top), "rank-0 share {top}");
        let last = a.iter().filter(|&&k| k == 47).count();
        assert!(last < a.iter().filter(|&&k| k == 1).count());
    }

    #[test]
    fn open_loop_due_times_are_evenly_spaced() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 5000.0), 500_000_000);
        // the schedule never depends on completions: arrival 10 000 at
        // 8 000/s is due 1.25 s in, however slow the server was
        assert_eq!(due_ns(10_000, 8000.0), 1_250_000_000);
    }
}
