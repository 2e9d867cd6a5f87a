//! Worker-thread sizing shared by every parallel loop in the stack: the
//! store's derived-section rebuild and snapshot encode/decode.

/// Resolve a requested worker-thread count (`0` = all available
/// parallelism) against the amount of work, clamping to at least one
/// thread and at most one thread per work item.
pub fn resolve_worker_threads(requested: usize, work_items: usize) -> usize {
    let available = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    available.clamp(1, work_items.max(1))
}
