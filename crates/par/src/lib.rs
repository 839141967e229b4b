//! A zero-dependency parallel execution substrate with a **deterministic
//! ordered reduction** guarantee.
//!
//! The workspace builds fully offline, so instead of `rayon` this crate
//! carries a small scoped pool on [`std::thread::scope`]. Work items are
//! claimed from a shared atomic cursor in fixed-size chunks (idle workers
//! steal the next chunk the moment they finish one), each result is tagged
//! with its input index, and the reduction reassembles results **in input
//! order**. Consequently, for any pure `f`:
//!
//! > `par_map(items, f)` is **bitwise identical** to
//! > `items.iter().map(f).collect()` at *every* thread count,
//!
//! which is what lets `mfhls-sim`'s seeded Monte-Carlo trials and
//! `mfhls-svc`'s per-window request pool keep their byte-for-byte
//! reproducibility guarantees while saturating the machine.
//!
//! # Sizing
//!
//! The pool size is resolved per call, first match wins:
//!
//! 1. a [`with_threads`] override on the calling thread,
//! 2. the process-wide [`set_default_threads`] override (CLI `--threads`),
//! 3. the `MFHLS_THREADS` environment variable (read once per process),
//! 4. [`std::thread::available_parallelism`].
//!
//! # Nesting
//!
//! Calls made *from inside* a pool worker run sequentially on that worker
//! (no thread explosion, no deadlock); the determinism guarantee is
//! unaffected because sequential execution is the reference semantics.
//!
//! # Panics
//!
//! A panic in `f` is propagated to the caller with its original payload
//! after all workers have drained, exactly like the sequential loop would
//! (modulo items after the panicking one possibly having run).
//!
//! # Example
//!
//! ```
//! let squares = mfhls_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Identical output at any thread count:
//! let one = mfhls_par::with_threads(1, || mfhls_par::par_map(&[1, 2, 3], |&x| x + 1));
//! let four = mfhls_par::with_threads(4, || mfhls_par::par_map(&[1, 2, 3], |&x| x + 1));
//! assert_eq!(one, four);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set while the current thread is a pool worker: nested calls run
    /// sequentially instead of spawning a second scope.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Per-thread override installed by [`with_threads`] (0 = unset).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Process-wide default installed by [`set_default_threads`] (0 = unset).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `MFHLS_THREADS`, parsed once per process (`None` when absent/invalid).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("MFHLS_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of worker threads a parallel call made *right now* would use.
///
/// Resolution order: [`with_threads`] override, [`set_default_threads`],
/// `MFHLS_THREADS`, [`std::thread::available_parallelism`] (falling back to
/// 1). Inside a pool worker this returns 1 (nested calls are sequential).
pub fn max_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    let tl = THREAD_OVERRIDE.with(Cell::get);
    if tl > 0 {
        return tl;
    }
    let global = DEFAULT_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Installs a process-wide default thread count (`None` clears it). The
/// CLI's `--threads N` flag funnels here; [`with_threads`] still wins for
/// the calling thread.
pub fn set_default_threads(n: Option<usize>) {
    DEFAULT_THREADS.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Runs `f` with the calling thread's pool size pinned to `n` (clamped to
/// at least 1). Restores the previous override on exit, including on
/// unwind. This is the race-free way for tests to compare thread counts.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(Cell::get);
    let _restore = Restore(prev);
    THREAD_OVERRIDE.with(|c| c.set(n.max(1)));
    f()
}

/// Maps `f` over `items` in parallel; the output vector is in input order
/// and bitwise identical to the sequential map at any thread count.
///
/// # Panics
///
/// Propagates the first observed panic from `f` (original payload).
pub fn par_map<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R + Sync,
{
    run_indexed(items.len(), |i| f(&items[i]))
}

/// Like [`par_map`] but hands `f` the item's index as well — the natural
/// shape for seeded trials (`f(seed_index, _)`).
///
/// # Panics
///
/// Propagates the first observed panic from `f` (original payload).
pub fn par_map_indexed<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), |i| f(i, &items[i]))
}

/// Splits `items` into contiguous chunks of at most `chunk_size` and maps
/// `f(chunk_start_index, chunk)` over them in parallel. Results come back
/// in chunk order. Useful when per-item work is too small to amortise the
/// claim overhead.
///
/// # Panics
///
/// Panics if `chunk_size == 0`; propagates panics from `f`.
pub fn par_chunks<T: Sync, R: Send, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "par_chunks requires a non-zero chunk size");
    let n_chunks = items.len().div_ceil(chunk_size);
    run_indexed(n_chunks, |c| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(items.len());
        f(start, &items[start..end])
    })
}

/// The shared engine: evaluates `work(0..n)` on the resolved pool and
/// returns the results in index order.
fn run_indexed<R: Send>(n: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = max_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(work).collect();
    }
    // Chunked self-scheduling: small enough chunks that a slow item cannot
    // strand the tail on one worker, large enough to keep the atomic cold.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    let mut panic_payload = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    IN_POOL.with(|c| c.set(true));
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= n {
                            break;
                        }
                        for i in lo..(lo + chunk).min(n) {
                            out.push((i, work(i)));
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => panic_payload = Some(payload),
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    // Ordered reduction: place every tagged result back at its index.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("pool produced every index exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabc).collect();
        for threads in [1, 2, 3, 4, 8, 33] {
            let par = with_threads(threads, || par_map(&items, |&x| x.wrapping_mul(x) ^ 0xabc));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn ordered_reduction_under_skewed_workloads() {
        // Early items take much longer than late ones; order must hold.
        let items: Vec<usize> = (0..64).collect();
        let out = with_threads(8, || {
            par_map(&items, |&i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 10
            })
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = with_threads(4, || par_map_indexed(&items, |i, s| format!("{i}{s}")));
        assert_eq!(out, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        let items: Vec<u32> = (0..103).collect();
        let sums = with_threads(4, || {
            par_chunks(&items, 10, |start, chunk| {
                (start, chunk.iter().sum::<u32>())
            })
        });
        assert_eq!(sums.len(), 11);
        assert_eq!(sums[0].0, 0);
        assert_eq!(sums[10].0, 100);
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, (0..103).sum::<u32>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn panic_propagates_with_payload() {
        let items: Vec<usize> = (0..32).collect();
        let err = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&i| {
                    if i == 13 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
        })
        .expect_err("must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 13"), "payload lost: {msg}");
    }

    #[test]
    fn nested_calls_run_sequentially_and_correctly() {
        let outer: Vec<usize> = (0..8).collect();
        let out = with_threads(4, || {
            par_map(&outer, |&i| {
                // Inside a worker: must not deadlock or explode, and must
                // still produce ordered results.
                let inner: Vec<usize> = (0..5).collect();
                let inner_out = par_map(&inner, |&j| i * 100 + j);
                assert_eq!(max_threads(), 1, "nested calls are sequential");
                inner_out.iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..5).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = THREAD_OVERRIDE.with(Cell::get);
        let _ = std::panic::catch_unwind(|| {
            with_threads(3, || panic!("unwind"));
        });
        assert_eq!(THREAD_OVERRIDE.with(Cell::get), before);
    }

    #[test]
    fn default_threads_override_applies_and_clears() {
        // The thread-local override must win over the global one.
        set_default_threads(Some(2));
        assert_eq!(with_threads(5, max_threads), 5);
        set_default_threads(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn every_worker_contributes_under_load() {
        // Smoke test that work really fans out: with 4 threads and slow
        // items, at least 2 distinct threads must participate.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let items: Vec<usize> = (0..16).collect();
        with_threads(4, || {
            par_map(&items, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                seen.lock()
                    .expect("poisoned")
                    .insert(std::thread::current().id());
            })
        });
        assert!(seen.lock().expect("poisoned").len() >= 2);
    }

    #[test]
    fn side_effect_count_is_exact() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = with_threads(4, || {
            par_map(&items, |&i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(out.len(), 257);
        assert_eq!(calls.load(Ordering::Relaxed), 257);
    }
}
