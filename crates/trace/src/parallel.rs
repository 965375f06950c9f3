//! The workspace's one order-preserving fan-out over scoped threads.
//!
//! Fleet generation, per-app translation, candidate scoring, failure-case
//! solving and the online session's refresh all map a pure function over
//! independent items. They share these two helpers, which live here, at
//! the bottom of the crate graph, so every layer can reach them.

/// Maps `f` over `items` on up to `threads` scoped workers, preserving
/// input order. Serial (no threads spawned) when `threads <= 1` or there
/// are fewer than two items. Items are split into contiguous chunks and
/// joined in spawn order, so the output is identical to a serial map —
/// callers that need bit-identical results across thread counts (fleet
/// generation, the failure sweeps, the chaos replay) rely on exactly this
/// property.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_init(threads, items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker mutable state: `init` runs once per
/// worker (and once on the serial path) and `f` receives that worker's
/// state alongside each item.
///
/// The state exists for *scratch reuse only* — pooled buffers, key
/// vectors — and must not influence results; chunking and join order are
/// those of [`parallel_map`], so the output stays identical to a serial
/// map for any thread count.
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
    let workers = threads.min(items.len());
    let chunk_size = items.len().div_ceil(workers);
    let init = &init;
    let f = &f;
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut state = init();
                    chunk
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for handle in handles {
            // lint:allow(panic-expect): a worker panic is already fatal;
            // re-raising it on the coordinating thread is intentional.
            results.extend(handle.join().expect("parallel_map worker panicked"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
