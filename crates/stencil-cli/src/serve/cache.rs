//! The concurrent plan cache: the daemon's whole reason to exist.
//!
//! Planning a job — tuning-DB lookup, low-rank decomposition, schedule
//! lowering, fragment pre-building, plane allocation — costs orders of
//! magnitude more than executing a small grid. The cache keys on
//! (normalized kernel name, extents, `ExecConfig` bits) and holds, per
//! entry, a small pool of ready [`ExecSession`]s so concurrent clients
//! of the same job shape each check out a warm session without
//! re-planning. `BENCH_pr8.json`'s hit/cold throughput ratio is this
//! module's acceptance test.
//!
//! Keying subtlety: [`ScheduleParams`] is **not** part of the key even
//! though it shapes the lowered schedule — params are an *output* of
//! planning (tuning-DB hit or defaults), fully determined by the key
//! triple, so caching them per entry is exactly the memoization the
//! tuning DB wants. Schedule-neutrality (PR 7) guarantees values and
//! counters cannot depend on which params a DB revision picked.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use lorastencil::{ExecConfig, ExecSession, ScheduleParams};
use stencil_core::StencilKernel;

/// Sessions retained per entry: enough for a healthy worker pool's
/// concurrency, small enough that an entry stays a few grids big.
const POOL_MAX: usize = 16;

/// How long a single-flight waiter parks before it gives up on the
/// leader and plans redundantly (see [`PlanCache::lead_or_wait`]).
/// Generous against a slow legitimate plan (an on-miss tune of a big
/// grid), tiny against an actual wedge.
const TAKEOVER: std::time::Duration = std::time::Duration::from_millis(250);

/// One cached (kernel, extents, config) shape.
pub struct CacheEntry {
    /// Normalized kernel name (the hash-collision tiebreaker).
    norm_kernel: String,
    extents: [usize; 3],
    ndims: usize,
    config_bits: u64,
    /// The resolved kernel, kept so pool refills skip the registry scan.
    pub kernel: StencilKernel,
    /// Params planning resolved to (tuning DB or defaults) — surfaced in
    /// `stats` so operators can see which shapes run tuned.
    pub params: ScheduleParams,
    config: ExecConfig,
    /// Warm sessions ready to check out.
    pool: Mutex<Vec<ExecSession>>,
    /// Logical LRU stamp (global request counter at last use).
    last_used: AtomicU64,
    /// Jobs served from this entry.
    pub hits: AtomicU64,
}

impl CacheEntry {
    /// Grid extents (only `ndims` leading entries meaningful).
    pub fn extents(&self) -> &[usize] {
        &self.extents[..self.ndims]
    }

    /// Sessions currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.lock().unwrap().len()
    }
}

/// Normalized-name equality without allocating: case-insensitive,
/// `-`/`_` stripped — the same tolerance [`crate::find_kernel`] gives
/// the offline CLI.
fn norm_eq(raw: &str, canonical_norm: &str) -> bool {
    let mut it = canonical_norm.bytes();
    for b in raw.bytes() {
        if b == b'-' || b == b'_' {
            continue;
        }
        if it.next() != Some(b.to_ascii_lowercase()) {
            return false;
        }
    }
    it.next().is_none()
}

fn norm_name(raw: &str) -> String {
    raw.bytes()
        .filter(|b| *b != b'-' && *b != b'_')
        .map(|b| b.to_ascii_lowercase() as char)
        .collect()
}

/// FNV-1a over the normalized key fields. Allocation-free.
fn key_hash(kernel_raw: &str, extents: &[usize; 3], ndims: usize, config_bits: u64) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(PRIME);
    for b in kernel_raw.bytes() {
        if b != b'-' && b != b'_' {
            eat(b.to_ascii_lowercase());
        }
    }
    eat(0xff);
    eat(ndims as u8);
    for &e in &extents[..ndims] {
        for byte in (e as u64).to_le_bytes() {
            eat(byte);
        }
    }
    for byte in config_bits.to_le_bytes() {
        eat(byte);
    }
    h
}

/// What a lookup produced.
pub enum Checkout {
    /// Warm entry; the session is ready to fill and run.
    Hit(Arc<CacheEntry>, ExecSession),
    /// No entry for this shape. The payload is the key hash: pass it to
    /// [`PlanCache::lead_or_wait`] to elect a single planner, then plan
    /// and [`PlanCache::insert`] (leader) or retry the checkout (waiter).
    Miss(u64),
}

/// Held by the one thread planning a missed shape. Dropping it — after
/// [`PlanCache::insert`], on an error return, or during a panic unwind —
/// wakes every thread parked in [`PlanCache::lead_or_wait`].
pub struct PlanPermit<'a> {
    cache: Option<&'a PlanCache>,
    h: u64,
}

impl Drop for PlanPermit<'_> {
    fn drop(&mut self) {
        if let Some(cache) = self.cache {
            let mut inflight = cache.inflight.lock().unwrap();
            if let Some(i) = inflight.iter().position(|&x| x == self.h) {
                inflight.swap_remove(i);
            }
            cache.inflight_cv.notify_all();
        }
    }
}

/// The cache proper: hash buckets of entries (same-hash entries verify
/// full fields, so collisions degrade to a scan, never to wrong plans)
/// under one `RwLock` — reads (the hit path) share the lock.
pub struct PlanCache {
    map: RwLock<HashMap<u64, Vec<Arc<CacheEntry>>>>,
    capacity: usize,
    /// Monotonic request stamp driving LRU eviction.
    clock: AtomicU64,
    /// Key hashes whose plan construction is in flight (single-flight
    /// election state for the miss path).
    inflight: Mutex<Vec<u64>>,
    inflight_cv: Condvar,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub evictions: AtomicU64,
    /// Misses that waited for a concurrent planner instead of planning
    /// the same shape twice (the thundering herd the single-flight gate
    /// absorbed).
    pub coalesced: AtomicU64,
    /// Waiters that outlived the 250 ms `TAKEOVER` wait and planned
    /// redundantly (the deadlock backstop firing — should stay 0 in
    /// healthy operation).
    pub takeovers: AtomicU64,
}

impl PlanCache {
    /// `capacity` is the entry budget; 0 disables caching entirely
    /// (every job re-plans — the load generator's "cold" arm).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: RwLock::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            inflight: Mutex::new(Vec::new()),
            inflight_cv: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            takeovers: AtomicU64::new(0),
        }
    }

    /// Single-flight election for a missed key: returns `Some(permit)`
    /// when this caller is the shape's designated planner, or blocks
    /// until the current planner finishes and returns `None` — the
    /// caller then retries [`PlanCache::checkout`] and (normally) hits
    /// the entry the leader just published. If the leader failed and
    /// published nothing, the retry misses and the next election seats
    /// a new leader, so errors never strand waiters.
    ///
    /// With `capacity == 0` there is no shared entry for waiters to
    /// reuse, so every caller leads (a no-op permit): the cold arm of
    /// the load generator must measure *concurrent* re-planning, not a
    /// serialized queue behind one planner.
    ///
    /// **Deadlock backstop.** A waiter parked here must never sit
    /// *above the leader on the same stack*. The worker pool's join loop
    /// help-drains any queued lane, so if whole jobs ran inside pool
    /// lanes, a leader whose planning runs nested parallel work could
    /// pick up a sibling job that then waits on this very election — a
    /// wait no notify can ever end. No path does that today: every job
    /// runs on its connection's thread, and pool lanes only execute
    /// pieces of one job. The backstop guards against such a path being
    /// added: a waiter that outlives `TAKEOVER` (250 ms) stops waiting and
    /// plans redundantly (a no-op permit). Redundant planning is wasted
    /// work, never a wrong answer: the tuner's bit-identity gate keeps
    /// every winner value- and invariant-counter-neutral.
    pub fn lead_or_wait(&self, h: u64) -> Option<PlanPermit<'_>> {
        if self.capacity == 0 {
            return Some(PlanPermit { cache: None, h });
        }
        let mut inflight = self.inflight.lock().unwrap();
        if !inflight.contains(&h) {
            inflight.push(h);
            return Some(PlanPermit { cache: Some(self), h });
        }
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        while inflight.contains(&h) {
            let (guard, res) = self.inflight_cv.wait_timeout(inflight, TAKEOVER).unwrap();
            inflight = guard;
            if res.timed_out() && inflight.contains(&h) {
                self.takeovers.fetch_add(1, Ordering::Relaxed);
                return Some(PlanPermit { cache: None, h });
            }
        }
        None
    }

    /// Hit-path lookup: allocation-free when it returns
    /// [`Checkout::Hit`] with a pooled session.
    pub fn checkout(
        &self,
        kernel_raw: &str,
        extents: &[usize; 3],
        ndims: usize,
        config: ExecConfig,
    ) -> Checkout {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let h = key_hash(kernel_raw, extents, ndims, config.bits());
        let map = self.map.read().unwrap();
        let Some(bucket) = map.get(&h) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Checkout::Miss(h);
        };
        for entry in bucket {
            if entry.ndims == ndims
                && entry.extents == *extents
                && entry.config_bits == config.bits()
                && norm_eq(kernel_raw, &entry.norm_kernel)
            {
                entry.last_used.store(stamp, Ordering::Relaxed);
                entry.hits.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                let pooled = entry.pool.lock().unwrap().pop();
                let session = pooled.unwrap_or_else(|| {
                    // pool drained by concurrent checkouts: build another
                    // session for this shape, pinned to the params the
                    // entry memoized (a DB or on-miss-tune winner must
                    // not be re-resolved per refill)
                    ExecSession::with_params(
                        &entry.kernel,
                        entry.config,
                        entry.extents(),
                        entry.params,
                    )
                });
                return Checkout::Hit(Arc::clone(entry), session);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Checkout::Miss(h)
    }

    /// Register a freshly planned shape. Returns the entry to check the
    /// session back into. With `capacity == 0` no entry is stored: the
    /// returned entry is free-floating and the session dies with it.
    pub fn insert(
        &self,
        kernel: StencilKernel,
        extents: [usize; 3],
        ndims: usize,
        config: ExecConfig,
        params: ScheduleParams,
    ) -> Arc<CacheEntry> {
        let entry = Arc::new(CacheEntry {
            norm_kernel: norm_name(&kernel.name),
            extents,
            ndims,
            config_bits: config.bits(),
            kernel,
            params,
            config,
            pool: Mutex::new(Vec::with_capacity(POOL_MAX)),
            last_used: AtomicU64::new(self.clock.load(Ordering::Relaxed)),
            hits: AtomicU64::new(0),
        });
        if self.capacity == 0 {
            return entry;
        }
        let h = key_hash(&entry.kernel.name, &extents, ndims, entry.config_bits);
        let mut map = self.map.write().unwrap();
        let bucket = map.entry(h).or_default();
        // a racing miss may have inserted the same shape; keep the first
        if !bucket
            .iter()
            .any(|e| e.ndims == ndims && e.extents == extents && e.config_bits == entry.config_bits)
        {
            bucket.push(Arc::clone(&entry));
        }
        // LRU eviction by stamp scan (entry counts are small — the
        // capacity bounds memory, not lookup cost)
        let mut total: usize = map.values().map(Vec::len).sum();
        while total > self.capacity {
            let mut victim: Option<(u64, usize, u64)> = None;
            for (&bh, bucket) in map.iter() {
                for (i, e) in bucket.iter().enumerate() {
                    let used = e.last_used.load(Ordering::Relaxed);
                    if victim.map_or(true, |(_, _, best)| used < best) {
                        victim = Some((bh, i, used));
                    }
                }
            }
            let Some((bh, i, _)) = victim else { break };
            let bucket = map.get_mut(&bh).unwrap();
            bucket.swap_remove(i);
            if bucket.is_empty() {
                map.remove(&bh);
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            total -= 1;
        }
        entry
    }

    /// Park a session for reuse. Beyond `POOL_MAX` (16) parked sessions
    /// the session is dropped — bounded memory beats a marginally warmer
    /// pool.
    pub fn checkin(&self, entry: &CacheEntry, session: ExecSession) {
        let mut pool = entry.pool.lock().unwrap();
        if pool.len() < POOL_MAX {
            pool.push(session);
        }
    }

    /// Cached entries, for `stats`.
    pub fn len(&self) -> usize {
        self.map.read().unwrap().values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every entry, most-recently-used first (for `stats`).
    pub fn entries(&self) -> Vec<Arc<CacheEntry>> {
        let map = self.map.read().unwrap();
        let mut v: Vec<Arc<CacheEntry>> = map.values().flatten().cloned().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.last_used.load(Ordering::Relaxed)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel2d() -> StencilKernel {
        stencil_core::kernels::by_name("Box-2D9P").unwrap()
    }

    fn entry_for(cache: &PlanCache, extents: [usize; 3]) -> Arc<CacheEntry> {
        let config = ExecConfig::default();
        let k = kernel2d();
        cache.insert(k, extents, 2, config, ScheduleParams::default())
    }

    #[test]
    fn checkout_hits_after_insert_and_pools_sessions() {
        let cache = PlanCache::new(8);
        let config = ExecConfig::default();
        let extents = [16, 16, 0];
        assert!(matches!(cache.checkout("Box-2D9P", &extents, 2, config), Checkout::Miss(_)));
        let entry = entry_for(&cache, extents);
        let session = ExecSession::new(&entry.kernel, config, entry.extents());
        cache.checkin(&entry, session);
        // hit via exact, case-sloppy, and separator-sloppy names
        for name in ["Box-2D9P", "box-2d9p", "BOX2D9P", "box_2d9p"] {
            match cache.checkout(name, &extents, 2, config) {
                Checkout::Hit(e, s) => cache.checkin(&e, s),
                Checkout::Miss(_) => panic!("{name} should hit"),
            }
        }
        assert_eq!(cache.hits.load(Ordering::Relaxed), 4);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        // different shape or config -> miss
        assert!(matches!(cache.checkout("Box-2D9P", &[32, 16, 0], 2, config), Checkout::Miss(_)));
        let other = ExecConfig { use_bvs: false, ..config };
        assert!(matches!(cache.checkout("Box-2D9P", &extents, 2, other), Checkout::Miss(_)));
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cache = PlanCache::new(2);
        let a = entry_for(&cache, [8, 8, 0]);
        let _b = entry_for(&cache, [16, 8, 0]);
        // touch `a` so the second insert's victim is `b`... the stamp of
        // an entry is its last checkout
        match cache.checkout(&a.kernel.name.clone(), &[8, 8, 0], 2, ExecConfig::default()) {
            Checkout::Hit(e, s) => cache.checkin(&e, s),
            Checkout::Miss(_) => panic!("a should hit"),
        }
        let _c = entry_for(&cache, [24, 8, 0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions.load(Ordering::Relaxed), 1);
        // `a` survived, `b` was evicted
        assert!(matches!(
            cache.checkout("Box-2D9P", &[8, 8, 0], 2, ExecConfig::default()),
            Checkout::Hit(..)
        ));
        assert!(matches!(
            cache.checkout("Box-2D9P", &[16, 8, 0], 2, ExecConfig::default()),
            Checkout::Miss(_)
        ));
    }

    #[test]
    fn single_flight_elects_one_planner_and_coalesces_the_rest() {
        let cache = Arc::new(PlanCache::new(8));
        let h = key_hash("Box-2D9P", &[8, 8, 0], 2, ExecConfig::default().bits());
        let led = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let cache = Arc::clone(&cache);
                let led = Arc::clone(&led);
                s.spawn(move || {
                    if let Some(_permit) = cache.lead_or_wait(h) {
                        led.fetch_add(1, Ordering::Relaxed);
                        // hold the permit until the whole herd has piled
                        // up behind it — the election stays deterministic
                        // (the first mutex acquirer leads; every later one
                        // sees the in-flight key and coalesces)
                        while cache.coalesced.load(Ordering::Relaxed) < 5 {
                            std::thread::yield_now();
                        }
                    }
                    // waiters (None) retry in the real path; here they just
                    // prove they were released rather than stranded
                });
            }
        });
        assert_eq!(led.load(Ordering::Relaxed), 1, "exactly one planner per key");
        assert_eq!(cache.coalesced.load(Ordering::Relaxed), 5);
        // an unrelated key is never blocked by this key's election
        assert!(cache.lead_or_wait(h ^ 1).is_some());
        // zero-capacity caches never coalesce: every caller leads
        let cold = PlanCache::new(0);
        assert!(cold.lead_or_wait(h).is_some());
        assert!(cold.lead_or_wait(h).is_some());
        assert_eq!(cold.coalesced.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = PlanCache::new(0);
        let _e = entry_for(&cache, [8, 8, 0]);
        assert!(cache.is_empty());
        assert!(matches!(
            cache.checkout("Box-2D9P", &[8, 8, 0], 2, ExecConfig::default()),
            Checkout::Miss(_)
        ));
    }
}
