//! The workspace's one worker pool: a minimal deterministic fan-out
//! (shared atomic claim index, per-slot `OnceLock` results).
//!
//! The campaign executor runs its cells on it (panic capture, caching and
//! progress live in the closure it passes), and so does the policy
//! trainer's fork-parallel candidate evaluation: run `f(0..count)` on up
//! to `threads` workers and get the
//! results back **in index order**, so the output is bit-identical
//! regardless of worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f(i)` for every `i < count` on up to `threads` worker threads and
/// returns the results in index order.
///
/// Work is claimed from a shared atomic counter (the same load-balancing
/// scheme as the campaign executor), so slow items never serialize behind
/// fast ones; results land in per-index slots, so the output order — and
/// therefore anything derived from it — is independent of thread count.
/// `threads` is clamped to `[1, count]`.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped (a worker
/// that panics abandons its claimed item; the scope join re-raises).
pub fn map_parallel<T, F>(threads: usize, count: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, count);
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..count).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                if slots[i].set(value).is_err() {
                    unreachable!("each index is claimed exactly once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("scope join guarantees every slot is filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = map_parallel(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let serial = map_parallel(1, 37, |i| format!("item-{i}"));
        let parallel = map_parallel(8, 37, |i| format!("item-{i}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_items_and_oversubscription_are_fine() {
        assert!(map_parallel(8, 0, |i| i).is_empty());
        assert_eq!(map_parallel(64, 2, |i| i), vec![0, 1]);
    }
}
