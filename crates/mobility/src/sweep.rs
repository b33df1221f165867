//! Order-preserving parallel executor for scenario sweeps.
//!
//! Each sweep point (one `(scenario, protocol)` pair) is an independent,
//! single-threaded, deterministic simulation — embarrassingly parallel work.
//! [`map_parallel`] fans the points out over scoped `std::thread` workers
//! pulling indices from a shared atomic counter (work stealing without
//! queues), writing each result into its input's slot. Because every point
//! is a pure function of its input, the output vector is **byte-identical**
//! to [`map_serial`] on the same inputs, whatever the thread interleaving.
//! A sweep asked for `workers` threads spawns at most that many, and each
//! point runs on exactly one of them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of workers the machine supports (≥ 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Serial reference implementation: `items.iter().map(f)`.
pub fn map_serial<I, O, F>(items: &[I], f: F) -> Vec<O>
where
    F: Fn(&I) -> O,
{
    items.iter().map(f).collect()
}

/// Apply `f` to every item on `workers` scoped threads, returning results in
/// input order. Equivalent to [`map_serial`] output-wise; panics in `f`
/// propagate. `workers <= 1` (or a single item) degrades to the serial path.
pub fn map_parallel<I, O, F>(items: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    map_parallel_budgeted(items, workers, None, f)
        .results
        .into_iter()
        .map(|slot| slot.expect("an unbudgeted map completes every item"))
        .collect()
}

/// Outcome of a budgeted sweep: one slot per input, `None` where the
/// wall-clock budget ran out before the point could *start* (points already
/// running when the budget expires are finished, never killed — a partial
/// simulation result would be meaningless). `skipped` lists the `None`
/// indices, so callers can report what was dropped instead of silently
/// truncating.
#[derive(Debug)]
pub struct BudgetedMap<O> {
    /// Per-input result slots, in input order.
    pub results: Vec<Option<O>>,
    /// Indices of inputs that were never started.
    pub skipped: Vec<usize>,
}

impl<O> BudgetedMap<O> {
    /// True when every input completed.
    pub fn is_complete(&self) -> bool {
        self.skipped.is_empty()
    }
}

/// [`map_parallel`] under a wall-clock budget: once `budget` has elapsed
/// (measured from the call), workers stop claiming new items; items not yet
/// started are reported as skipped. `budget: None` disables the deadline and
/// behaves exactly like [`map_parallel`]. Which points complete under a
/// tight budget depends on real time and is therefore *not* deterministic —
/// but every completed point's value is byte-identical to what an unbudgeted
/// run would produce, because each point is a pure function of its input.
pub fn map_parallel_budgeted<I, O, F>(
    items: &[I],
    workers: usize,
    budget: Option<Duration>,
    f: F,
) -> BudgetedMap<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let deadline = budget.map(|b| Instant::now() + b);
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    if workers <= 1 || items.len() <= 1 {
        let results = items
            .iter()
            .map(|item| (!expired()).then(|| f(item)))
            .collect();
        return collect_budgeted(results);
    }
    let spawned = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..spawned {
            scope.spawn(|| loop {
                if expired() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                slots.lock().expect("sweep worker poisoned the slots")[i] = Some(out);
            });
        }
    });
    collect_budgeted(
        slots
            .into_inner()
            .expect("sweep workers poisoned the slots"),
    )
}

fn collect_budgeted<O>(results: Vec<Option<O>>) -> BudgetedMap<O> {
    let skipped = results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_none())
        .map(|(i, _)| i)
        .collect();
    BudgetedMap { results, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let f = |x: &u64| x * x + 1;
        let serial = map_serial(&items, f);
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(
                map_parallel(&items, workers, f),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert!(map_parallel(&none, 4, |x| *x).is_empty());
        assert_eq!(map_parallel(&[7u32], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(map_parallel(&items, 100, |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn available_workers_is_positive() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn no_budget_completes_everything_identically() {
        let items: Vec<u64> = (0..57).collect();
        let f = |x: &u64| x * 3 + 1;
        for workers in [1, 4] {
            let budgeted = map_parallel_budgeted(&items, workers, None, f);
            assert!(budgeted.is_complete());
            assert!(budgeted.skipped.is_empty());
            let unwrapped: Vec<u64> = budgeted.results.into_iter().map(Option::unwrap).collect();
            assert_eq!(unwrapped, map_serial(&items, f));
        }
    }

    #[test]
    fn exhausted_budget_skips_and_reports_all_points() {
        let items: Vec<u64> = (0..20).collect();
        for workers in [1, 4] {
            let budgeted = map_parallel_budgeted(&items, workers, Some(Duration::ZERO), |x| x + 1);
            assert!(!budgeted.is_complete());
            assert_eq!(budgeted.skipped.len(), 20, "workers={workers}");
            assert!(budgeted.results.iter().all(Option::is_none));
        }
    }

    #[test]
    fn generous_budget_behaves_like_unbudgeted() {
        let items: Vec<u64> = (0..31).collect();
        let budgeted = map_parallel_budgeted(&items, 4, Some(Duration::from_secs(3600)), |x| x * x);
        assert!(budgeted.is_complete());
        let unwrapped: Vec<u64> = budgeted.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(unwrapped, map_serial(&items, |x| x * x));
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        let _ = map_parallel(&items, 4, |x| {
            assert!(*x < 4, "boom");
            *x
        });
    }
}
