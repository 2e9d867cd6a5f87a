//! Worker-thread sizing and the one scoped fan-out shared by every
//! parallel loop in the stack: the store's derived-section rebuild, the
//! landmark slab's column copies and snapshot encode/decode.

/// Resolve a requested worker-thread count (`0` = all available
/// parallelism) against the amount of work, clamping to at least one
/// thread and at most one thread per work item. At most one work item
/// means one thread, without asking the system how many cores it has.
pub fn resolve_worker_threads(requested: usize, work_items: usize) -> usize {
    if work_items <= 1 {
        return 1;
    }
    let available = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    available.clamp(1, work_items)
}

/// Run `work(index, part)` on every part — disjoint mutable windows of
/// one buffer — each on a scoped thread of its own (inline when there is
/// only one part), and collect the results in part order.
pub(crate) fn map_parts<'a, T: Send + 'a, R: Send>(
    parts: impl ExactSizeIterator<Item = &'a mut [T]>,
    work: impl Fn(usize, &'a mut [T]) -> R + Sync,
) -> Vec<R> {
    if parts.len() <= 1 {
        return parts
            .enumerate()
            .map(|(index, part)| work(index, part))
            .collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = parts
            .enumerate()
            .map(|(index, part)| scope.spawn(move || work(index, part)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_follow_the_work() {
        for requested in [0, 1, 4] {
            assert_eq!(resolve_worker_threads(requested, 0), 1);
            assert_eq!(resolve_worker_threads(requested, 1), 1);
        }
        assert_eq!(resolve_worker_threads(4, 2), 2, "one thread per item");
        assert_eq!(resolve_worker_threads(3, 100), 3, "as requested");
        let all = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(resolve_worker_threads(0, 1 << 20), all.min(1 << 20));
    }

    #[test]
    fn map_parts_keeps_part_order() {
        let mut data: Vec<u32> = (0..10).collect();
        for size in [10, 4, 3, 1] {
            let sums = map_parts(data.chunks_mut(size), |index, part| {
                part.iter_mut().for_each(|x| *x += 1);
                (index, part.iter().sum::<u32>())
            });
            assert_eq!(sums.len(), 10usize.div_ceil(size));
            assert!(sums.iter().enumerate().all(|(i, &(index, _))| i == index));
            assert_eq!(sums.iter().map(|&(_, s)| s).sum::<u32>(), data.iter().sum());
        }
        assert_eq!(data, (4..14).collect::<Vec<u32>>());
    }
}
