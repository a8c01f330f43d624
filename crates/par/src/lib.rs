//! Std-only parallel execution layer.
//!
//! Two executors, one determinism contract:
//!
//! - **Replica-level**: a chunked scoped-thread executor over
//!   [`std::thread::scope`] exposing [`par_map_indexed`] with
//!   **ordered, deterministic result collection** — results come
//!   back in input order regardless of which worker computed what or in
//!   which order workers finished. One spawn per call, which is cheap at
//!   ensemble granularity.
//! - **Intra-replica**: a persistent worker pool ([`InnerPool`]) for
//!   splitting a *single* ODE solve (the RHS and costate kernels)
//!   across cores without paying thread-spawn per ODE step. Task
//!   boundaries are derived from the problem size alone and partial
//!   results are folded in task order on the caller, so every
//!   floating-point association is fixed by the chunk plan — a pool of
//!   1..N threads is bit-identical to serial.
//!
//! A run with `threads = 1` executes inline on the calling thread (no
//! spawn) in both executors, so serial and parallel callers share one
//! code path. The scoped-thread executor uses no `unsafe`; the only
//! `unsafe` in the crate is the audited lifetime-erasure inside
//! [`inner`] (see that module's safety notes).
//!
//! # Determinism contract
//!
//! `par_map_indexed(n, t, f)` returns exactly
//! `(0..n).map(f).collect::<Vec<_>>()` for every thread count `t`,
//! provided `f` is a pure function of its index. Work is handed out as
//! contiguous index chunks through an atomic cursor (dynamic load
//! balancing), each worker tags results with their index, and the main
//! thread reassembles the output by index — so scheduling order can
//! never leak into the result. Worker panics propagate to the caller.
//! [`InnerPool`] carries the same contract at sub-solve granularity (see
//! [`inner`]).
//!
//! # Thread-count resolution
//!
//! [`resolve_threads`] resolves the replica-level worker count from, in
//! order:
//!
//! 1. an explicit count passed by the caller (e.g. a `--threads` CLI
//!    flag),
//! 2. the process-wide override installed with [`set_thread_override`],
//! 3. the `RUMOR_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! [`resolve_inner_threads`] resolves the *intra*-replica count:
//! explicit argument, then [`set_inner_thread_override`], then
//! `RUMOR_INNER_THREADS`, then 1. Intra-solve parallelism is opt-in:
//! ensembles fan out replicas and never construct inner pools, and a
//! single solve (an FBSM sweep) runs its kernels serially unless one of
//! the first three asks for a pool. On the two-core hosts measured so
//! far the pooled kernels ran slower than serial at 10k and 71k nodes,
//! and a 10k-node optimize took 1.2–2.4× longer at two inner threads
//! than at one. Because pooled kernels are bit-identical to serial, the
//! count affects wall-clock only, never results.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod inner;

pub use inner::{chunk_bounds, chunk_count, InnerPool};

/// Process-wide thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or clears, with `None`) a process-wide worker-count
/// override, consulted by [`resolve_threads`] after an explicit argument
/// but before the `RUMOR_THREADS` environment variable. The CLI wires
/// its `--threads` flag through this.
///
/// A count of `Some(0)` is treated as `Some(1)`.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The currently installed override, if any.
pub fn thread_override() -> Option<usize> {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        t => Some(t),
    }
}

/// Resolves the worker count: explicit argument, then the
/// [`set_thread_override`] override, then `RUMOR_THREADS`, then
/// [`std::thread::available_parallelism`] (1 if unavailable). Always at
/// least 1; malformed or zero environment values are ignored.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .map(|t| t.max(1))
        .or_else(thread_override)
        .or_else(|| env_count("RUMOR_THREADS"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// A positive thread count read from the environment variable `var`;
/// `None` when it is unset, malformed or zero.
fn env_count(var: &str) -> Option<usize> {
    parse_count(std::env::var(var).ok().as_deref())
}

fn parse_count(raw: Option<&str>) -> Option<usize> {
    raw?.trim().parse::<usize>().ok().filter(|&t| t >= 1)
}

/// Process-wide intra-replica thread-count override; 0 means "unset".
static INNER_THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs (or clears, with `None`) a process-wide override for the
/// *intra*-replica thread count, consulted by [`resolve_inner_threads`]
/// after an explicit argument but before the `RUMOR_INNER_THREADS`
/// environment variable. The CLI wires its `--inner-threads` flag
/// through this.
///
/// A count of `Some(0)` is treated as `Some(1)`.
pub fn set_inner_thread_override(threads: Option<usize>) {
    INNER_THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The currently installed intra-replica override, if any.
pub fn inner_thread_override() -> Option<usize> {
    match INNER_THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        t => Some(t),
    }
}

/// Resolves the intra-replica thread count for a *single* solve:
/// explicit argument, then the [`set_inner_thread_override`] override,
/// then `RUMOR_INNER_THREADS`, then 1. A single solve therefore runs
/// serially unless one of those asks for a pool; ensembles keep the
/// thread budget at replica level by never constructing inner pools.
/// Always at least 1; malformed or zero environment values are ignored.
pub fn resolve_inner_threads(explicit: Option<usize>) -> usize {
    inner_threads_from(
        explicit,
        inner_thread_override(),
        env_count("RUMOR_INNER_THREADS"),
    )
}

/// The [`resolve_inner_threads`] precedence over already-read inputs.
fn inner_threads_from(explicit: Option<usize>, over: Option<usize>, env: Option<usize>) -> usize {
    explicit.map(|t| t.max(1)).or(over).or(env).unwrap_or(1)
}

/// Maps `f` over `0..n` with up to `threads` workers, returning results
/// in index order. See the crate docs for the determinism contract.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread.
pub fn par_map_indexed<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Contiguous chunks through an atomic cursor: small enough to
    // balance uneven item costs, large enough to amortize the fetch.
    let chunk = (n / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            local.push((i, f(i)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => tagged.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Reassemble in index order: each index was claimed exactly once.
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<usize> = par_map_indexed(0, 8, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(1, 8, |i| i * 2), vec![0]);
    }

    #[test]
    fn results_are_ordered_for_every_thread_count() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8, 16, 97, 200] {
            assert_eq!(
                par_map_indexed(97, threads, |i| i * i),
                expect,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        let serial: Vec<f64> = items.iter().map(|x| x.sin()).collect();
        for threads in [1, 2, 4, 8] {
            let par = par_map_indexed(items.len(), threads, |i| items[i].sin());
            // Bit-identical, not merely approximately equal.
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Later indices are much cheaper: early-finishing workers steal.
        let out = par_map_indexed(40, 4, |i| {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (slot, (i, _)) in out.iter().enumerate() {
            assert_eq!(slot, *i);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(16, 4, |i| {
                if i == 7 {
                    panic!("injected worker fault");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn resolve_threads_precedence() {
        // Explicit always wins and is clamped to >= 1.
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        // Override beats the environment/default path.
        set_thread_override(Some(5));
        assert_eq!(thread_override(), Some(5));
        assert_eq!(resolve_threads(None), 5);
        assert_eq!(resolve_threads(Some(2)), 2);
        set_thread_override(Some(0));
        assert_eq!(thread_override(), Some(1));
        set_thread_override(None);
        assert_eq!(thread_override(), None);
        // Without an override, the result is >= 1 whatever the
        // environment says.
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn resolve_inner_threads_precedence() {
        // Explicit always wins and is clamped to >= 1.
        assert_eq!(resolve_inner_threads(Some(3)), 3);
        assert_eq!(resolve_inner_threads(Some(0)), 1);
        // The inner override beats the environment/outer-chain fallback.
        set_inner_thread_override(Some(6));
        assert_eq!(inner_thread_override(), Some(6));
        assert_eq!(resolve_inner_threads(None), 6);
        assert_eq!(resolve_inner_threads(Some(2)), 2);
        set_inner_thread_override(Some(0));
        assert_eq!(inner_thread_override(), Some(1));
        set_inner_thread_override(None);
        assert_eq!(inner_thread_override(), None);
        // Without an override the chain bottoms out at >= 1 whatever the
        // environment says.
        assert!(resolve_inner_threads(None) >= 1);
    }

    #[test]
    fn inner_threads_default_to_serial() {
        // Nothing given, no override, RUMOR_INNER_THREADS unset: one
        // thread, whatever the outer budget or this process's
        // environment (CI runs a RUMOR_INNER_THREADS=4 leg).
        assert_eq!(inner_threads_from(None, None, None), 1);
        // The same precedence as resolve_inner_threads.
        assert_eq!(inner_threads_from(None, None, Some(4)), 4);
        assert_eq!(inner_threads_from(None, Some(6), Some(4)), 6);
        assert_eq!(inner_threads_from(Some(3), Some(6), Some(4)), 3);
        assert_eq!(inner_threads_from(Some(0), Some(6), Some(4)), 1);
    }

    #[test]
    fn env_counts_ignore_malformed_and_zero_values() {
        assert_eq!(parse_count(None), None);
        assert_eq!(parse_count(Some(" 4 ")), Some(4));
        assert_eq!(parse_count(Some("0")), None);
        assert_eq!(parse_count(Some("-2")), None);
        assert_eq!(parse_count(Some("four")), None);
    }

    #[test]
    fn borrowed_captures_work_across_threads() {
        let base: Vec<u64> = (0..32).collect();
        let sum_serial: u64 = base.iter().map(|v| v + 1).sum();
        let out = par_map_indexed(base.len(), 4, |i| base[i] + 1);
        assert_eq!(out.iter().sum::<u64>(), sum_serial);
    }
}
