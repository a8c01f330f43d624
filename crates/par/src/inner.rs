//! Persistent worker pool for deterministic *intra*-replica parallelism.
//!
//! [`par_map_indexed`](crate::par_map_indexed) spawns scoped threads per
//! call, which is fine for replica-level fan-out (one spawn per ensemble)
//! but far too slow for the ODE inner loop, where a single 848-class RHS
//! evaluation takes on the order of a microsecond and is evaluated tens
//! of thousands of times per sweep. [`InnerPool`] keeps its workers alive
//! across dispatches: publishing a job is one mutex acquisition plus an
//! atomic epoch bump, workers claim tasks through an atomic cursor, and
//! between dispatches they spin briefly before parking on a condvar so a
//! hot solver loop never pays a futex round-trip per step.
//!
//! # Determinism contract
//!
//! The pool itself never combines results — it only runs `f(task)` for
//! each task index exactly once, on *some* thread. Callers obtain
//! determinism by (a) deriving task boundaries from the problem size
//! alone (see [`chunk_count`]/[`chunk_bounds`]: boundaries never depend
//! on the thread count) and (b) writing each task's result into its own
//! slot ([`InnerPool::map_into`]) and folding the slots in task order on
//! the calling thread. Every floating-point association is therefore
//! fixed by the chunk plan, not by scheduling, and a pool of 1, 2, 4 or
//! 8 threads produces bit-identical results — the same contract the
//! replica-level executor has carried since PR 2.
//!
//! # Safety
//!
//! This module contains the crate's only `unsafe` code, in three audited
//! places:
//!
//! 1. **Lifetime erasure of the job closure.** A persistent pool cannot
//!    receive a borrowed closure through safe channels (that would
//!    require `'static`), so [`InnerPool::run`] erases `&F` to a raw
//!    pointer plus a monomorphized call thunk. Soundness: the closure
//!    outlives the dispatch because `run` blocks until the job's
//!    `remaining` counter reaches zero, every dereference happens only
//!    after a successful cursor claim `t < n_tasks`, and exactly
//!    `n_tasks` claims ever succeed (the cursor is monotonic, and each
//!    dispatch gets a fresh `JobState` behind an `Arc`, so a worker that
//!    wakes up late holds an *exhausted* job and can never claim — let
//!    alone dereference — anything).
//! 2. **`Send`/`Sync` for the erased job.** `run` requires
//!    `F: Fn(usize) + Sync`, so sharing `&F` across workers is exactly
//!    what the bound promises.
//! 3. **Disjoint slot writes** in [`InnerPool::map_into`] and the
//!    one-shot moves in [`InnerPool::scatter`]: each index is claimed
//!    exactly once, so each slot is written (or each item read) exactly
//!    once, and the caller's `Acquire` on the completion counter orders
//!    those writes before `run` returns.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Spin iterations before a waiting thread starts yielding; small enough
/// that an oversubscribed single-core host degrades to yields quickly,
/// large enough that a hot multi-core solver loop never parks between
/// consecutive RHS evaluations.
const SPIN_BUDGET: u32 = 2_048;
/// Yield iterations after the spin budget before a worker parks on the
/// condvar.
const YIELD_BUDGET: u32 = 64;

/// Number of fixed-size chunks covering `0..n`. The count depends only
/// on `n` and `chunk` — never on the thread count — which is what pins
/// the reduction tree across pool sizes.
pub const fn chunk_count(n: usize, chunk: usize) -> usize {
    assert!(chunk > 0);
    n.div_ceil(chunk)
}

/// Half-open bounds `[start, end)` of fixed-size chunk `idx` of `0..n`.
pub const fn chunk_bounds(n: usize, chunk: usize, idx: usize) -> (usize, usize) {
    let start = idx * chunk;
    let end = start + chunk;
    (start, if end < n { end } else { n })
}

/// One dispatched job: an erased closure plus claim/completion counters.
/// Fresh per dispatch (behind an `Arc`), so late-waking workers from a
/// previous epoch hold an exhausted job rather than racing the new one.
struct JobState {
    /// Erased `&F`; only dereferenced through `call` after a successful
    /// cursor claim, and `run` keeps `F` alive until all claims complete.
    data: *const (),
    call: unsafe fn(*const (), usize),
    n_tasks: usize,
    cursor: AtomicUsize,
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` is only produced from `&F` with `F: Fn(usize) + Sync`
// (enforced by `InnerPool::run`), so sharing it across worker threads is
// precisely the access pattern `Sync` licenses.
unsafe impl Send for JobState {}
unsafe impl Sync for JobState {}

impl JobState {
    /// Claims and executes tasks until the cursor is exhausted. Called by
    /// workers and by the dispatching thread itself; safe to call on an
    /// already-exhausted job (claims nothing).
    fn execute(&self) {
        loop {
            let t = self.cursor.fetch_add(1, Ordering::Relaxed);
            if t >= self.n_tasks {
                break;
            }
            // SAFETY: the claim succeeded, so the dispatching `run` has
            // not returned yet and the closure behind `data` is alive.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (self.call)(self.data, t) }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            // Release pairs with the dispatcher's Acquire so task writes
            // (e.g. `map_into` slots) are visible when `run` returns.
            self.remaining.fetch_sub(1, Ordering::Release);
        }
    }
}

/// The epoch-stamped job slot workers copy from under the mutex.
struct Slot {
    epoch: u64,
    job: Option<Arc<JobState>>,
}

struct Shared {
    /// Mirror of `Slot::epoch` for cheap lock-free change detection while
    /// spinning; the authoritative copy (and the job) live in `slot`.
    epoch: AtomicU64,
    slot: Mutex<Slot>,
    cv: Condvar,
    shutdown: AtomicBool,
}

/// A persistent worker pool for splitting *one* solve across cores. See
/// the module docs for the determinism contract and safety argument.
/// No production path builds one: only the benchmark probes and
/// perfreport's `intra_scaling.rhs_848` rows reach it.
///
/// A pool of `threads <= 1` spawns no workers and runs every dispatch
/// inline on the calling thread, so serial and parallel callers share
/// one code path. The dispatching thread always participates in the
/// claim loop, so a pool of `t` threads applies `t` threads of compute
/// (`t - 1` workers plus the caller).
///
/// Dispatches are not intended to overlap; if two threads `run` on the
/// same pool concurrently the results are still correct (each caller
/// drains its own job to completion), merely slower.
pub struct InnerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for InnerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InnerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl InnerPool {
    /// Creates a pool applying up to `threads` threads per dispatch
    /// (clamped to `1..=256`). `threads <= 1` spawns nothing.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, 256);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("rumor-inner".into())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn inner-pool worker")
            })
            .collect();
        InnerPool {
            shared,
            workers,
            threads,
        }
    }

    /// The thread count this pool applies per dispatch (including the
    /// dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(t)` exactly once for every `t in 0..n_tasks`, on this
    /// thread and the pool's workers, returning once all tasks have
    /// completed. Task scheduling is dynamic; callers must not let
    /// execution order affect results (write per-task slots, fold on the
    /// caller — see the module docs).
    ///
    /// # Panics
    ///
    /// Re-raises the first task panic on the calling thread, after all
    /// tasks have finished.
    pub fn run<F>(&self, n_tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n_tasks == 0 {
            return;
        }
        if self.workers.is_empty() || n_tasks == 1 {
            // Inline path: identical task boundaries, zero dispatch cost.
            for t in 0..n_tasks {
                f(t);
            }
            return;
        }
        /// Monomorphized call thunk recovering `&F` from the erased
        /// pointer.
        unsafe fn call_thunk<F: Fn(usize)>(data: *const (), t: usize) {
            // SAFETY: `data` was erased from `&F` in `run` below and is
            // alive for every successful claim (see module docs).
            unsafe { (*(data as *const F))(t) }
        }
        let job = Arc::new(JobState {
            data: (&raw const f).cast::<()>(),
            call: call_thunk::<F>,
            n_tasks,
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n_tasks),
            panic: Mutex::new(None),
        });
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            slot.epoch += 1;
            slot.job = Some(Arc::clone(&job));
            self.shared.epoch.store(slot.epoch, Ordering::Release);
            self.shared.cv.notify_all();
        }
        job.execute();
        // All tasks are claimed (our own execute drained the cursor), but
        // workers may still be finishing theirs; `f` must stay alive and
        // we must observe their writes before returning.
        let mut spins: u32 = 0;
        while job.remaining.load(Ordering::Acquire) != 0 {
            spins = spins.wrapping_add(1);
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Fills `out[t] = f(t)` for every index, one task per slot, and
    /// returns once all slots are written. Bit-for-bit equal to the
    /// serial loop for pure `f` at every pool size.
    pub fn map_into<T, F>(&self, out: &mut [T], f: F)
    where
        T: Copy + Send,
        F: Fn(usize) -> T + Sync,
    {
        struct OutPtr<T>(*mut T);
        // SAFETY: each task writes only its own slot (claims are unique),
        // so concurrent access through the shared pointer is disjoint.
        unsafe impl<T: Send> Sync for OutPtr<T> {}
        impl<T> OutPtr<T> {
            // Accessor so closures capture the `Sync` wrapper, not the
            // raw-pointer field (edition-2021 disjoint capture).
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let n = out.len();
        let ptr = OutPtr(out.as_mut_ptr());
        self.run(n, |t| {
            let value = f(t);
            // SAFETY: `t < n` and each `t` is claimed exactly once.
            unsafe { ptr.get().add(t).write(value) };
        });
    }

    /// Moves each item into `f` exactly once (`f(t, items[t])`), letting
    /// tasks own mutable state (e.g. disjoint `&mut` sub-slices built by
    /// the caller) without any shared mutation.
    pub fn scatter<T, F>(&self, items: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(usize, T) + Sync,
    {
        struct ItemsPtr<T>(*const T);
        // SAFETY: each item is read (moved out) exactly once by its
        // unique claimant.
        unsafe impl<T: Send> Sync for ItemsPtr<T> {}
        impl<T> ItemsPtr<T> {
            fn get(&self) -> *const T {
                self.0
            }
        }
        let mut items = items;
        let n = items.len();
        let base = ItemsPtr(items.as_ptr());
        // The tasks take ownership of the elements; keep only the raw
        // buffer for `items` to free. Every element is moved out because
        // `run` executes all `n` tasks even when some panic (a panicking
        // task consumed its item; unwinding drops it).
        // SAFETY: shrinking only; elements beyond len 0 are moved out by
        // the tasks below before anyone could observe them again.
        unsafe { items.set_len(0) };
        self.run(n, |t| {
            // SAFETY: unique claim of `t`; the element is still
            // initialized because only this task reads it.
            let item = unsafe { std::ptr::read(base.get().add(t)) };
            f(t, item);
        });
    }
}

impl Drop for InnerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        // Wait for a new epoch: spin, yield, then park.
        let mut spins: u32 = 0;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if shared.epoch.load(Ordering::Acquire) != last_epoch {
                break;
            }
            spins = spins.wrapping_add(1);
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else if spins < SPIN_BUDGET + YIELD_BUDGET {
                std::thread::yield_now();
            } else {
                let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
                while !shared.shutdown.load(Ordering::Acquire) && slot.epoch == last_epoch {
                    slot = shared.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
                break;
            }
        }
        let job = {
            let slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            last_epoch = slot.epoch;
            slot.job.clone()
        };
        if let Some(job) = job {
            job.execute();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_plan_depends_only_on_problem_size() {
        assert_eq!(chunk_count(0, 256), 0);
        assert_eq!(chunk_count(1, 256), 1);
        assert_eq!(chunk_count(256, 256), 1);
        assert_eq!(chunk_count(257, 256), 2);
        assert_eq!(chunk_count(848, 256), 4);
        assert_eq!(chunk_bounds(848, 256, 0), (0, 256));
        assert_eq!(chunk_bounds(848, 256, 3), (768, 848));
    }

    #[test]
    fn map_into_matches_serial_at_every_pool_size() {
        let expect: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = InnerPool::new(threads);
            let mut out = vec![0.0f64; 37];
            pool.map_into(&mut out, |i| (i as f64).sin());
            assert!(
                expect
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        // The hot-loop shape: thousands of small dispatches on one pool.
        let pool = InnerPool::new(4);
        let mut out = vec![0u64; 8];
        let mut total = 0u64;
        for round in 0..5_000u64 {
            pool.map_into(&mut out, |i| round.wrapping_mul(31) + i as u64);
            total = total.wrapping_add(out.iter().sum::<u64>());
        }
        let mut expect = 0u64;
        for round in 0..5_000u64 {
            for i in 0..8u64 {
                expect = expect.wrapping_add(round.wrapping_mul(31) + i);
            }
        }
        assert_eq!(total, expect);
    }

    #[test]
    fn scatter_moves_every_item_exactly_once() {
        let pool = InnerPool::new(4);
        let counter = AtomicU32::new(0);
        let items: Vec<Box<u32>> = (0..64).map(Box::new).collect();
        pool.scatter(items, |t, item| {
            assert_eq!(t as u32, *item);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scatter_hands_out_disjoint_mut_slices() {
        let pool = InnerPool::new(4);
        let mut data = vec![0u32; 1000];
        let chunks: Vec<&mut [u32]> = data.chunks_mut(64).collect();
        pool.scatter(chunks, |t, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (t * 64 + k) as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u32);
        }
    }

    #[test]
    fn task_panic_propagates_after_all_tasks_finish() {
        let pool = InnerPool::new(4);
        let done = AtomicU32::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, |t| {
                if t == 5 {
                    panic!("injected task fault");
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(caught.is_err());
        assert_eq!(done.load(Ordering::Relaxed), 15);
        // The pool survives a panicked dispatch.
        let mut out = vec![0u64; 4];
        pool.map_into(&mut out, |i| i as u64);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = InnerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0u64; 16];
        pool.map_into(&mut out, |i| i as u64 * 3);
        assert_eq!(out[15], 45);
    }
}
