//! Steady-state allocation of `QueryService::serve_batch`: once warmed, a
//! call on a default-built service reuses a pooled worker state (search
//! scratch, staging buffers, dedup map, statistics) and allocates only the
//! vector of answers it returns.
//!
//! The binary installs a counting global allocator that counts per
//! thread, so tests running in parallel do not see each other's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::{Rng, SeedableRng};

use vicinity::core::config::Alpha;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::sampling::random_pairs;
use vicinity::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAIRS_PER_CALL: usize = 64;

/// Calls of 64 pairs, alternating two shapes: one source and targets one
/// or two hops away, and uniform random pairs whose last eight repeat
/// earlier pairs of the call in the other orientation.
fn calls(graph: &CsrGraph, count: usize, seed: u64) -> Vec<Vec<(NodeId, NodeId)>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let mut pairs = Vec::with_capacity(PAIRS_PER_CALL);
            if i % 2 == 0 {
                let source = rng.gen_range(0..graph.node_count()) as NodeId;
                while pairs.len() < PAIRS_PER_CALL {
                    let mut target = source;
                    for _ in 0..rng.gen_range(1..=2) {
                        let neighbours = graph.neighbors(target);
                        if !neighbours.is_empty() {
                            target = neighbours[rng.gen_range(0..neighbours.len())];
                        }
                    }
                    pairs.push((source, target));
                }
            } else {
                pairs = random_pairs(graph, PAIRS_PER_CALL - 8, &mut rng);
                let repeats: Vec<_> = pairs[..8].iter().map(|&(s, t)| (t, s)).collect();
                pairs.extend(repeats);
            }
            pairs
        })
        .collect()
}

fn service(cache_capacity: usize) -> QueryService {
    let graph = SocialGraphConfig::small_test().generate(41);
    let oracle = OracleBuilder::new(Alpha::new(4.0).unwrap())
        .seed(41)
        .build(&graph);
    QueryService::builder(oracle, graph)
        .cache_capacity(cache_capacity)
        .build()
        .expect("oracle and graph agree")
}

/// Serve every call, asserting each allocates at most once (its answer
/// vector).
fn assert_one_allocation_per_call(service: &QueryService, calls: &[Vec<(NodeId, NodeId)>]) {
    for (i, pairs) in calls.iter().enumerate() {
        let before = allocations();
        let answers = service.serve_batch(pairs);
        let made = allocations() - before;
        assert_eq!(answers.len(), pairs.len());
        assert!(
            made <= 1,
            "call {i}: a warmed serve_batch made {made} allocations"
        );
    }
}

#[test]
fn warmed_cacheless_serve_batch_allocates_only_its_answers() {
    let service = service(0);
    let calls = calls(service.graph(), 200, 1);
    for pairs in &calls {
        service.serve_batch(pairs);
    }
    assert_one_allocation_per_call(&service, &calls);
    let stats = service.stats();
    assert!(stats.fallback_searches > 0, "the misses' search must run");
    assert_eq!(stats.queries, 2 * 200 * PAIRS_PER_CALL as u64);
}

#[test]
fn warmed_cached_serve_batch_allocates_only_its_answers() {
    // The cache holds every pair served, so inserts never grow or evict a
    // shard; the measured calls mix cache hits (half of each call repeats
    // a warm-up call) with pairs the index and the fallback resolve.
    let service = service(1 << 16);
    let warm = calls(service.graph(), 200, 2);
    for pairs in &warm {
        service.serve_batch(pairs);
    }
    let measured: Vec<Vec<(NodeId, NodeId)>> = calls(service.graph(), 100, 3)
        .into_iter()
        .zip(&warm)
        .map(|(fresh, old)| {
            let mut pairs = fresh[..PAIRS_PER_CALL / 2].to_vec();
            pairs.extend_from_slice(&old[PAIRS_PER_CALL / 2..]);
            pairs
        })
        .collect();
    service.reset_stats();
    assert_one_allocation_per_call(&service, &measured);
    let stats = service.stats();
    assert!(stats.cache_hits > 0);
    assert!(stats.index_work.lookups > 0);
    assert!(stats.fallback_searches > 0);
}
