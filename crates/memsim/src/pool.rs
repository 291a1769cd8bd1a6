//! A tiny work-stealing index pool — the workspace's one.
//!
//! [`run_until`] fans the indexes `0..count` across worker threads that
//! steal from a shared atomic cursor and merges the per-index results
//! back **in index order**, so the returned vector is independent of the
//! thread count and of which worker ran which index. Each worker carries
//! one piece of reusable state (`S`), created once per worker — the sweep
//! engine recycles a whole [`crate::Machine`] there, the `wo-trace` shard
//! engine needs none. A `stop` check, consulted before each index is
//! claimed, ends the run early; [`run_with_worker`] is the same pool with
//! a stop that never fires.
//!
//! Its callers: [`crate::sweep::sweep`] (every simulated-machine grid),
//! the streaming trace checker's per-location shard pass, the `wo-serve`
//! batch path's prepare and resolve phases, and the `wo-fuzz` campaign's
//! seed range (whose wall-clock budget is the stop check).
//!
//! # Examples
//!
//! ```
//! use memsim::pool::{run_until, run_with_worker};
//!
//! let squares = run_with_worker(5, 2, || (), |(), i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//!
//! // The fourth stop check fires: the range is cut to a prefix.
//! let checks = std::sync::atomic::AtomicUsize::new(0);
//! let prefix = run_until(
//!     usize::MAX,
//!     1,
//!     || (),
//!     |(), i| i,
//!     || checks.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 3,
//! );
//! assert_eq!(prefix, vec![0, 1, 2]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work` for every index in `0..count` and returns the results in
/// index order: [`run_until`] with a stop that never fires (and the same
/// panics).
pub fn run_with_worker<S, T, I, F>(count: usize, threads: usize, init: I, work: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    run_until(count, threads, init, work, || false)
}

/// Runs `work` for the indexes `0..count` until `stop` returns `true`,
/// and returns the results of the claimed prefix `0..k` in index order.
///
/// `threads == 0` uses the machine's available parallelism; `threads == 1`
/// runs serially on the calling thread. In both cases `init` is called
/// once per worker to build its reusable state. Workers steal indexes
/// from a shared cursor, so load imbalance between cheap and expensive
/// indexes self-corrects. Each worker consults `stop` before it claims an
/// index, and a claimed index always runs, so the results cover exactly
/// the indexes claimed before the workers stopped. No slot is allocated
/// per index up front: `count` may be far larger than what runs.
///
/// # Panics
///
/// Panics if `work` panics on any index (the panic is propagated after
/// the other workers drain).
pub fn run_until<S, T, I, F, P>(count: usize, threads: usize, init: I, work: F, stop: P) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
    P: Fn() -> bool + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        let mut state = init();
        return (0..count)
            .map_while(|i| (!stop()).then(|| work(&mut state, i)))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut mine = Vec::new();
                    while !stop() {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        mine.push((i, work(&mut state, i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pool worker thread panicked"))
            .collect()
    });
    let mut results: Vec<Option<T>> =
        (0..parts.iter().map(Vec::len).sum()).map(|_| None).collect();
    for (i, result) in parts.into_iter().flatten() {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("the claimed indexes form a prefix"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_thread_count() {
        let serial = run_with_worker(17, 1, || (), |(), i| i * 3);
        for threads in [0, 2, 5, 32] {
            assert_eq!(run_with_worker(17, threads, || (), |(), i| i * 3), serial);
        }
    }

    #[test]
    fn worker_state_is_reused_across_stolen_indexes() {
        // Serial: one worker sees every index, so its counter reaches 10.
        let counts = run_with_worker(
            10,
            1,
            || 0u32,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(counts.last(), Some(&10));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = run_with_worker(0, 4, || (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_stop_after_k_claims_returns_the_claimed_prefix_in_order() {
        for threads in [1, 3] {
            // Stop once 7 indexes are claimed: each claim bumps `claims`
            // in `work`, and the stop check reads it before the next one.
            let claims = AtomicUsize::new(0);
            let out = run_until(
                usize::MAX,
                threads,
                || (),
                |(), i| {
                    claims.fetch_add(1, Ordering::SeqCst);
                    i
                },
                || claims.load(Ordering::SeqCst) >= 7,
            );
            // Each other worker may have passed its check before the
            // seventh claim landed.
            assert!((7..7 + threads).contains(&out.len()), "{threads} threads: {out:?}");
            assert_eq!(out, (0..out.len()).collect::<Vec<_>>(), "{threads} threads");
        }
    }
}
