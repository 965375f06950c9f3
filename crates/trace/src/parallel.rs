//! The workspace's one order-preserving fan-out over scoped threads.
//!
//! Fleet generation, per-app translation, failure-case solving, the
//! online session's refresh and probes, and the genetic search's fit
//! evaluations all map a pure function over independent items. They share
//! this module, which lives at the bottom of the crate graph so every
//! layer can reach it.
//!
//! A [`Workers`] set spawns `threads − 1` helper threads once and is then
//! fed any number of batches. The calling thread always works a share of
//! each batch itself, so a set of `threads` workers is never more than
//! `threads` live threads. Workers claim items one at a time, under the
//! same lock that holds the batch, so a claim always belongs to the batch
//! in flight; every result lands at its item's index, so a batch returns
//! its results in item order whatever the scheduling. Callers that need
//! bit-identical results across thread counts (fleet generation, the
//! failure sweeps, the chaos replay, the genetic search) rely on exactly
//! this property: a pure per-item function mapped in any interleaving is
//! the serial map.
//!
//! [`parallel_map`] and [`parallel_map_init`] are one batch on a fresh
//! set; a caller that fans out many small batches (the genetic search,
//! once per generation and once per drain mutation) opens one set with
//! [`with_workers`] and pays the thread spawns once.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Maps `f` over `items` on up to `threads` workers, the calling thread
/// included, preserving input order. Serial (no thread spawned) when
/// `threads <= 1` or there are fewer than two items.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_init(threads, items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker mutable state: `init` runs once per
/// worker, the calling thread counting as one (and once on the serial
/// path), and `f` receives that worker's state alongside each item.
///
/// The state exists for *scratch reuse only* — pooled buffers, key
/// vectors — and must not influence results: which worker maps which
/// item depends on scheduling, while the output stays identical to a
/// serial map for any thread count.
pub fn parallel_map_init<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    with_workers(threads.min(items.len()), init, f, |workers| {
        workers.map(items.iter().collect())
    })
}

/// Runs `body` with a [`Workers`] set of `threads` workers: `threads − 1`
/// scoped helper threads, spawned here once, plus the calling thread.
/// Every worker maps its claimed items with `job` on its own state, made
/// by `init` once per worker (the caller counting as one). The helpers
/// stop and are joined when `body` returns or unwinds.
///
/// `threads <= 1` spawns nothing: every batch then runs on the caller.
pub fn with_workers<J, S, R, I, F, B, O>(threads: usize, init: I, job: F, body: B) -> O
where
    J: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, J) -> R + Sync,
    B: FnOnce(&mut Workers<'_, J, S, R>) -> O,
{
    let shared = Shared::new();
    let (shared, init, job) = (&shared, &init, &job);
    let helpers = threads.max(1) - 1;
    std::thread::scope(|scope| {
        // Declared before the spawns, so it also stops the helpers when
        // `body` unwinds and the scope joins them on the way out.
        let _stop = StopOnDrop(shared);
        for _ in 0..helpers {
            scope.spawn(move || shared.help(init(), job));
        }
        body(&mut Workers {
            shared,
            job,
            state: init(),
            helpers,
        })
    })
}

/// A scoped worker set fed batch after batch; see [`with_workers`].
pub struct Workers<'w, J, S, R> {
    shared: &'w Shared<J, R>,
    job: &'w (dyn Fn(&mut S, J) -> R + Sync),
    /// The calling thread's own worker state.
    state: S,
    helpers: usize,
}

impl<J: Send, S, R: Send> Workers<'_, J, S, R> {
    /// Maps the set's job over `items`, the calling thread working a share
    /// alongside the helpers, and returns the results in item order. A
    /// batch of fewer than two items, or a set without helpers, runs on
    /// the calling thread alone and wakes no one.
    ///
    /// # Panics
    ///
    /// Re-raises on the calling thread when a helper panicked.
    pub fn map(&mut self, items: Vec<J>) -> Vec<R> {
        if self.helpers == 0 || items.len() < 2 {
            return items
                .into_iter()
                .map(|item| (self.job)(&mut self.state, item))
                .collect();
        }
        self.shared.lock().load(items);
        self.shared.work.notify_all();
        let mut batch = self.shared.lock();
        loop {
            if let Some((index, item)) = batch.claim() {
                drop(batch);
                let result = (self.job)(&mut self.state, item);
                batch = self.shared.lock();
                batch.store(index, result);
            } else if batch.outstanding == 0 {
                return batch.take_results();
            } else {
                assert!(!batch.panicked, "a parallel worker panicked");
                batch = self
                    .shared
                    .done
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The state a worker set shares: the batch in flight behind one lock,
/// the helpers' wake-up signal and the caller's batch-finished signal.
struct Shared<J, R> {
    batch: Mutex<Batch<J, R>>,
    /// Signalled when a batch is loaded or the set stops.
    work: Condvar,
    /// Signalled when a helper stores a batch's last result or panics.
    done: Condvar,
}

impl<J, R> Shared<J, R> {
    fn new() -> Self {
        Shared {
            batch: Mutex::new(Batch {
                items: Vec::new().into_iter(),
                next: 0,
                results: Vec::new(),
                outstanding: 0,
                stop: false,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// The batch lock. The only panics raised while it is held are this
    /// module's own, after which the state is still consistent, so a
    /// poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, Batch<J, R>> {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread's loop: claim and map items of the batch in flight,
    /// sleep while there is none, return once the set stops.
    fn help<S>(&self, mut state: S, job: &(dyn Fn(&mut S, J) -> R + Sync)) {
        let _alarm = PanicAlarm(self);
        let mut batch = self.lock();
        while !batch.stop {
            if let Some((index, item)) = batch.claim() {
                drop(batch);
                let result = job(&mut state, item);
                batch = self.lock();
                batch.store(index, result);
                if batch.is_finished() {
                    self.done.notify_one();
                }
            } else {
                batch = self
                    .work
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// One batch: its unclaimed items, with the index of the next one, and
/// the result slot of every item.
struct Batch<J, R> {
    items: std::vec::IntoIter<J>,
    next: usize,
    results: Vec<Option<R>>,
    /// Items claimed whose results are not stored yet.
    outstanding: usize,
    stop: bool,
    panicked: bool,
}

impl<J, R> Batch<J, R> {
    fn load(&mut self, items: Vec<J>) {
        self.results.clear();
        self.results.resize_with(items.len(), || None);
        self.items = items.into_iter();
        self.next = 0;
    }

    fn claim(&mut self) -> Option<(usize, J)> {
        let item = self.items.next()?;
        let index = self.next;
        self.next += 1;
        self.outstanding += 1;
        Some((index, item))
    }

    fn store(&mut self, index: usize, result: R) {
        if let Some(slot) = self.results.get_mut(index) {
            *slot = Some(result);
        }
        self.outstanding -= 1;
    }

    fn is_finished(&self) -> bool {
        self.items.len() == 0 && self.outstanding == 0
    }

    fn take_results(&mut self) -> Vec<R> {
        self.results
            .drain(..)
            // lint:allow(panic-expect): a batch is taken only once every
            // claimed item stored its result and none is left to claim, so
            // every slot is filled.
            .map(|slot| slot.expect("every item of a finished batch has a result"))
            .collect()
    }
}

/// Stops the helpers when the worker set's scope ends, normally or not.
struct StopOnDrop<'a, J, R>(&'a Shared<J, R>);

impl<J, R> Drop for StopOnDrop<'_, J, R> {
    fn drop(&mut self) {
        self.0.lock().stop = true;
        self.0.work.notify_all();
    }
}

/// Tells the calling thread when a helper unwinds, so it stops waiting
/// for a result that will never come.
struct PanicAlarm<'a, J, R>(&'a Shared<J, R>);

impl<J, R> Drop for PanicAlarm<'_, J, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().panicked = true;
            self.0.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_init_matches_serial_and_reuses_state() {
        let items: Vec<usize> = (0..23).collect();
        // Count how many items each worker state saw; results must not
        // depend on that state.
        let mapped = parallel_map_init(
            4,
            &items,
            || 0usize,
            |seen, &i| {
                *seen += 1;
                i * 3
            },
        );
        assert_eq!(mapped, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        let serial = parallel_map_init(1, &items, || 0usize, |_, &i| i * 3);
        assert_eq!(mapped, serial);
    }

    #[test]
    fn parallel_map_is_order_preserving() {
        let items: Vec<usize> = (0..17).collect();
        let doubled = parallel_map(4, &items, |&i| i * 2);
        assert_eq!(doubled, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        // Serial fallback paths.
        assert_eq!(parallel_map(1, &items, |&i| i + 1).len(), 17);
        assert_eq!(parallel_map(8, &[1], |&i: &i32| i), vec![1]);
        assert!(parallel_map::<i32, i32, _>(4, &[], |&i| i).is_empty());
    }

    #[test]
    fn many_tiny_batches_on_one_set_run_each_item_once_in_order() {
        // Every item of every batch is a distinct global id; a helper that
        // claimed from a finished batch, or a slot filled twice, would
        // show up as a count other than one or a result out of place.
        const BATCHES: usize = 400;
        let runs: Vec<AtomicUsize> = (0..BATCHES * 5).map(|_| AtomicUsize::new(0)).collect();
        let runs = &runs;
        with_workers(
            4,
            || (),
            |(), id: usize| {
                runs[id].fetch_add(1, Ordering::Relaxed);
                id * 7
            },
            |workers| {
                let mut next = 0;
                for b in 0..BATCHES {
                    // Sizes 0..=4 cycle through the inline and the
                    // dispatched paths.
                    let ids: Vec<usize> = (next..next + b % 5).collect();
                    next += b % 5;
                    let expected: Vec<usize> = ids.iter().map(|id| id * 7).collect();
                    assert_eq!(workers.map(ids), expected, "batch {b}");
                }
            },
        );
        let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
        let used = (0..BATCHES).map(|b| b % 5).sum::<usize>();
        assert!(counts[..used].iter().all(|&c| c == 1), "{counts:?}");
        assert!(counts[used..].iter().all(|&c| c == 0));
    }

    #[test]
    fn init_runs_once_per_worker_with_the_caller_counting_as_one() {
        for threads in [1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let mapped = with_workers(
                threads,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i: usize| i + 1,
                |workers| {
                    let mut all = Vec::new();
                    for _ in 0..20 {
                        all.extend(workers.map((0..9).collect()));
                    }
                    all
                },
            );
            assert_eq!(mapped.len(), 180);
            assert_eq!(inits.load(Ordering::Relaxed), threads, "threads {threads}");
        }
        // A one-batch map inits one state per worker it starts.
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10).collect();
        parallel_map_init(
            3,
            &items,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, &i| i,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn one_thread_or_fewer_than_two_items_spawn_no_thread() {
        let caller = std::thread::current().id();
        let on_caller = |_: &usize| std::thread::current().id() == caller;
        let items: Vec<usize> = (0..8).collect();
        assert!(parallel_map(1, &items, on_caller).into_iter().all(|c| c));
        assert!(parallel_map(0, &items, on_caller).into_iter().all(|c| c));
        assert!(parallel_map(4, &items[..1], on_caller)
            .into_iter()
            .all(|c| c));
        // A one-thread set maps every batch on the caller too.
        let all_on_caller = with_workers(
            1,
            || (),
            |(), _: usize| std::thread::current().id() == caller,
            |workers| workers.map((0..8).collect()),
        );
        assert!(all_on_caller.into_iter().all(|c| c));
    }

    #[test]
    fn more_threads_than_items_works() {
        let items: Vec<usize> = (0..3).collect();
        assert_eq!(parallel_map(16, &items, |&i| i * 10), vec![0, 10, 20]);
        let mapped = with_workers(
            8,
            || (),
            |(), i: usize| i + 100,
            |workers| workers.map(vec![1, 2]),
        );
        assert_eq!(mapped, vec![101, 102]);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_instead_of_hanging_it() {
        let caller = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(|| {
            with_workers(
                2,
                || (),
                |(), i: usize| {
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::Relaxed);
                        panic!("helper fails on item {i}");
                    }
                    // Hold the caller until the helper has claimed an
                    // item, so the helper's panic is the one that counts.
                    while !helper_ran.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    i
                },
                |workers| workers.map((0..8).collect()),
            )
        });
        assert!(outcome.is_err());
        assert!(helper_ran.load(Ordering::Relaxed));
    }
}
