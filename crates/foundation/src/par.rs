//! Data-parallel helpers replacing `rayon`, built on a **persistent
//! worker pool** instead of per-call `std::thread::scope` fork/join.
//!
//! The pool is lazily initialized on first use and grows (never shrinks)
//! to one thread below the largest lane count any parallel call has
//! requested; workers park on a condvar between batches. In steady state
//! a parallel call therefore spawns **zero threads** and performs **zero
//! heap allocations** — a batch is a stack-allocated descriptor whose
//! lanes are pushed onto a pre-grown `VecDeque` (see
//! [`threads_spawned`] and the `steady_state` integration test).
//!
//! Semantics are unchanged from the scoped implementation:
//!
//! * results come back in **input order**, so
//!   `par_iter().map(f).collect()` is a drop-in replacement for the
//!   sequential pipeline — same values, same order — which keeps the
//!   executors bit-deterministic at any thread count;
//! * a worker panic is re-raised on the calling thread with its original
//!   payload (a panicked `map` leaks its partially-filled result buffer,
//!   which only matters under `catch_unwind` in tests);
//! * nested parallel calls are legal: a thread waiting for its batch
//!   *helps*, draining lanes of any pending batch instead of blocking,
//!   so the fixed-size pool cannot deadlock on nesting.
//!
//! The thread count is `std::thread::available_parallelism()` unless the
//! `FOUNDATION_THREADS` environment variable overrides it. The variable
//! is re-read on every parallel call, so tests can pin (and vary) the
//! lane count at runtime; because results are order-preserving and the
//! executors merge counters in tile order, outputs are bit-identical
//! whatever the value.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Upper bound on pool size, guarding against absurd
/// `FOUNDATION_THREADS` values.
const MAX_THREADS: usize = 512;

/// Number of worker lanes a parallel call will use at most: the
/// `FOUNDATION_THREADS` environment variable if set (re-read per call),
/// otherwise `std::thread::available_parallelism()` (1 if unknown).
pub fn num_threads() -> usize {
    if let Some(n) = threads_override() {
        if n >= 1 {
            return n.min(MAX_THREADS);
        }
    }
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(MAX_THREADS)
}

/// Read `FOUNDATION_THREADS` without allocating: `std::env::var` returns
/// an owned `String`, which would make every parallel call heap-allocate
/// and break the steady-state zero-allocation guarantee the
/// `steady_state` integration test asserts. On unix, libc's `getenv`
/// (already linked by `std`) hands back a borrowed pointer instead.
#[cfg(unix)]
fn threads_override() -> Option<usize> {
    extern "C" {
        fn getenv(name: *const std::os::raw::c_char) -> *const std::os::raw::c_char;
    }
    // SAFETY: the name is a NUL-terminated literal; the returned pointer
    // (when non-null) is a NUL-terminated string valid until the
    // environment is next mutated, and we copy out of it immediately.
    // Concurrent `set_var` during a read is a pre-existing process-wide
    // hazard `std::env::var` shares; tests serialize env mutations.
    unsafe {
        let p = getenv(c"FOUNDATION_THREADS".as_ptr());
        if p.is_null() {
            return None;
        }
        std::ffi::CStr::from_ptr(p).to_str().ok()?.trim().parse::<usize>().ok()
    }
}

#[cfg(not(unix))]
fn threads_override() -> Option<usize> {
    std::env::var("FOUNDATION_THREADS").ok()?.trim().parse::<usize>().ok()
}

/// Total worker threads the pool has ever spawned. Flat across steady
/// state: the `steady_state` test asserts no spawns after warm-up.
pub fn threads_spawned() -> u64 {
    SPAWNED.load(Ordering::Relaxed)
}

static SPAWNED: AtomicU64 = AtomicU64::new(0);

// --------------------------------------------------------------- pool

/// A type-erased parallel batch, stack-allocated in [`run_lanes`]. The
/// owner never returns (or unwinds) before `pending` reaches zero, so
/// the raw pointers stay valid for every lane execution.
struct Batch {
    /// The lane body, lifetime-erased (`run_lanes` outlives all lanes).
    func: *const (dyn Fn(usize) + Sync),
    /// Lanes not yet finished (owner's lane 0 included).
    pending: AtomicUsize,
    /// First panic payload raised by any lane.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

struct PoolState {
    /// Pending `(batch, lane)` pairs; the batch pointer is valid until
    /// its owner observes `pending == 0`.
    queue: VecDeque<(*const Batch, usize)>,
    /// Worker threads spawned so far.
    workers: usize,
}

unsafe impl Send for PoolState {}

struct Pool {
    state: Mutex<PoolState>,
    /// Woken on new work and on batch completion; workers and batch
    /// owners share it (owners help-drain, so both react to both).
    cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { queue: VecDeque::new(), workers: 0 }),
        cv: Condvar::new(),
    })
}

impl Pool {
    /// Run one lane, recording a panic instead of unwinding, and signal
    /// the batch owner when the last lane completes.
    fn exec_lane(&self, batch: &Batch, lane: usize) {
        let func = unsafe { &*batch.func };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(lane))) {
            let mut slot = batch.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        if batch.pending.fetch_sub(1, Ordering::Release) == 1 {
            // Lock-then-notify: an owner checking `pending` does so under
            // the state lock, so this cannot race into a lost wakeup.
            drop(self.state.lock().unwrap());
            self.cv.notify_all();
        }
    }

    fn worker_loop(&'static self) {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some((bp, lane)) = st.queue.pop_front() {
                drop(st);
                self.exec_lane(unsafe { &*bp }, lane);
                st = self.state.lock().unwrap();
            } else {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// Execute `f(0..lanes)` across the caller (lane 0) and the pool,
    /// returning after every lane has finished. Re-raises the first
    /// lane panic on the caller.
    fn run(&'static self, lanes: usize, f: &(dyn Fn(usize) + Sync)) {
        let batch = Batch {
            // erase the borrow's lifetime; `run` joins all lanes before
            // returning, so the pointer outlives every dereference
            func: unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    f as *const _,
                )
            },
            pending: AtomicUsize::new(lanes),
            panic: Mutex::new(None),
        };
        {
            let mut st = self.state.lock().unwrap();
            while st.workers + 1 < lanes && st.workers < MAX_THREADS {
                st.workers += 1;
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                let pool: &'static Pool = self;
                thread::Builder::new()
                    .name("foundation-par".into())
                    .spawn(move || pool.worker_loop())
                    .expect("failed to spawn pool worker");
            }
            for lane in 1..lanes {
                st.queue.push_back((&batch as *const Batch, lane));
            }
        }
        self.cv.notify_all();

        self.exec_lane(&batch, 0);

        // Join: help-drain any pending lane (ours or a nested batch's)
        // rather than blocking, then park until the last lane signals.
        let mut st = self.state.lock().unwrap();
        while batch.pending.load(Ordering::Acquire) != 0 {
            if let Some((bp, lane)) = st.queue.pop_front() {
                drop(st);
                self.exec_lane(unsafe { &*bp }, lane);
                st = self.state.lock().unwrap();
            } else {
                st = self.cv.wait(st).unwrap();
            }
        }
        drop(st);
        let payload = batch.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Run `f(lane)` for every `lane in 0..lanes` in parallel on the
/// persistent pool (lane 0 on the caller). The low-level primitive
/// beneath every other helper: no allocation, no thread spawn in steady
/// state.
pub fn run_lanes(lanes: usize, f: impl Fn(usize) + Sync) {
    match lanes {
        0 => {}
        1 => f(0),
        _ => pool().run(lanes, &f),
    }
}

/// Run `f(i)` for every `i in 0..n` in parallel, splitting `0..n` into
/// at most [`num_threads`] contiguous chunks. Allocation-free; callers
/// write results through an [`UnsafeSlice`] (or other disjoint-index
/// sink) instead of collecting.
pub fn for_each_index(n: usize, f: impl Fn(usize) + Sync) {
    let lanes = num_threads().min(n);
    if lanes <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let chunk = n.div_ceil(lanes);
    run_lanes(lanes, |lane| {
        let lo = lane * chunk;
        let hi = (lo + chunk).min(n);
        for i in lo..hi {
            f(i);
        }
    });
}

// ------------------------------------------------- disjoint-index sink

/// A shared, unsynchronized view of a mutable slice for parallel writers
/// that guarantee **disjoint** index access (e.g. stencil tiles writing
/// non-overlapping output cells). The executors' indexed-write path:
/// instead of collecting per-tile results into an intermediate `Vec`,
/// each tile writes its band directly.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wrap a mutable slice for disjoint parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice { ptr: slice.as_mut_ptr(), len: slice.len(), _marker: PhantomData }
    }

    /// Slice length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable sub-slice `[start, start + len)`.
    ///
    /// # Safety
    /// No two concurrent calls (nor a concurrent [`UnsafeSlice::write`])
    /// may touch overlapping ranges.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= self.len));
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Overwrite element `i` (without dropping the previous value — use
    /// only for `Copy`/`MaybeUninit` elements).
    ///
    /// # Safety
    /// No two concurrent calls may target the same index, and `i` must
    /// be in bounds.
    pub unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        self.ptr.add(i).write(v);
    }
}

// ------------------------------------------------------ rayon-like API

/// `par_iter` entry point for slices (and, by deref, `Vec`s).
pub trait ParallelSlice<T: Sync> {
    /// A parallel view of the slice; chain `.map(f).collect()`.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Mutable chunk-parallel entry point for slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into chunks of `size` and process them in parallel with
    /// `.for_each(f)`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut { slice: self, size }
    }
}

/// Borrowed parallel iterator over a slice (see [`ParallelSlice`]).
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every element through `f` on the worker pool.
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Run `f` for every element on the worker pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a T) + Sync,
    {
        let items = self.items;
        for_each_index(items.len(), |i| f(&items[i]));
    }
}

/// A mapped parallel iterator; terminate with [`ParMap::collect`].
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, U, F> ParMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    /// Evaluate the map in parallel and collect the results **in input
    /// order**.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        map_in_order(self.items, &self.f).into_iter().collect()
    }
}

/// Parallel mutable chunks of a slice (see [`ParallelSliceMut`]).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Run `f` over every chunk on the worker pool. `f` receives the
    /// chunk index and the chunk. Chunks are dealt round-robin onto the
    /// lanes (as the scoped implementation did).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        let len = self.slice.len();
        if len == 0 {
            return;
        }
        let size = self.size;
        let nchunks = len.div_ceil(size);
        let lanes = num_threads().min(nchunks);
        let sink = UnsafeSlice::new(self.slice);
        run_lanes(lanes, |lane| {
            let mut i = lane;
            while i < nchunks {
                let start = i * size;
                let clen = size.min(len - start);
                // chunks are disjoint by construction
                f(i, unsafe { sink.slice_mut(start, clen) });
                i += lanes;
            }
        });
    }
}

/// Core ordered map: each lane writes its contiguous chunk of results
/// straight into the (uninitialized) output buffer — no per-lane `Vec`s,
/// no stitching. If a lane panics, the buffer is leaked (not dropped) to
/// avoid reading uninitialized slots; the panic then propagates.
fn map_in_order<'a, T, U>(items: &'a [T], f: &(impl Fn(&'a T) -> U + Sync)) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    let n = items.len();
    let lanes = num_threads().min(n);
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit needs no initialization.
    unsafe { out.set_len(n) };
    let chunk = n.div_ceil(lanes);
    {
        let sink = UnsafeSlice::new(&mut out);
        run_lanes(lanes, |lane| {
            let lo = lane * chunk;
            let hi = (lo + chunk).min(n);
            for (i, item) in (lo..hi).zip(&items[lo..hi]) {
                // SAFETY: lanes cover disjoint index ranges.
                unsafe { sink.write(i, MaybeUninit::new(f(item))) };
            }
        });
        // run_lanes joins every lane before returning (even on panic),
        // so past this point all n slots are initialized.
    }
    let mut out = ManuallyDrop::new(out);
    // SAFETY: all elements initialized; MaybeUninit<U> is layout-
    // compatible with U.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr() as *mut U, n, out.capacity()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate `FOUNDATION_THREADS` (the harness
    /// runs tests on parallel threads sharing the process environment).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let got: Vec<u64> = items.par_iter().map(|&x| x * x).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_handles_tiny_inputs() {
        for n in 0..5usize {
            let items: Vec<usize> = (0..n).collect();
            let got: Vec<usize> = items.par_iter().map(|&x| x + 1).collect();
            assert_eq!(got, (1..=n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn collect_into_any_from_iterator() {
        let items = [1u32, 2, 3, 4];
        let got: std::collections::BTreeSet<u32> = items.par_iter().map(|&x| x % 2).collect();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn chunks_mut_touches_every_element_once() {
        let mut data = vec![0u32; 103];
        data.par_chunks_mut(8).for_each(|i, c| {
            for v in c.iter_mut() {
                *v += 1 + i as u32;
            }
        });
        for (n, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (n / 8) as u32, "element {n}");
        }
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let res = std::panic::catch_unwind(|| {
            let _: Vec<usize> = items
                .par_iter()
                .map(|&x| {
                    assert!(x != 63, "boom");
                    x
                })
                .collect();
        });
        assert!(res.is_err());
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // outer × inner parallelism must not deadlock the fixed pool
        let outer: Vec<usize> = (0..8).collect();
        let got: Vec<u64> = outer
            .par_iter()
            .map(|&o| {
                let inner: Vec<u64> = (0..50).map(|i| (o * 50 + i) as u64).collect();
                let sq: Vec<u64> = inner.par_iter().map(|&x| x * x).collect();
                sq.iter().sum()
            })
            .collect();
        let want: Vec<u64> =
            (0..8u64).map(|o| (0..50).map(|i| (o * 50 + i) * (o * 50 + i)).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn for_each_index_covers_range_once() {
        let n = 517;
        let mut hits = vec![0u8; n];
        let sink = UnsafeSlice::new(&mut hits);
        for_each_index(n, |i| unsafe { sink.write(i, 1) });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn run_lanes_runs_each_lane_exactly_once() {
        let lanes = 5;
        let mut seen = vec![0u8; lanes];
        let sink = UnsafeSlice::new(&mut seen);
        run_lanes(lanes, |l| unsafe { sink.write(l, 1) });
        assert_eq!(seen, vec![1; lanes]);
    }

    #[test]
    fn thread_env_override_is_respected_and_results_identical() {
        let _env = ENV_LOCK.lock().unwrap();
        let items: Vec<u64> = (0..301).collect();
        let mut outputs = Vec::new();
        for t in ["1", "2", "7"] {
            std::env::set_var("FOUNDATION_THREADS", t);
            assert_eq!(num_threads(), t.parse::<usize>().unwrap());
            let got: Vec<u64> = items.par_iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
            outputs.push(got);
        }
        std::env::remove_var("FOUNDATION_THREADS");
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn steady_state_spawns_no_threads() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("FOUNDATION_THREADS", "3");
        let items: Vec<u64> = (0..256).collect();
        let _: Vec<u64> = items.par_iter().map(|&x| x + 1).collect(); // warm up
        let spawned = threads_spawned();
        for _ in 0..20 {
            let _: Vec<u64> = items.par_iter().map(|&x| x + 1).collect();
        }
        std::env::remove_var("FOUNDATION_THREADS");
        assert_eq!(threads_spawned(), spawned, "steady state must not spawn threads");
    }
}
