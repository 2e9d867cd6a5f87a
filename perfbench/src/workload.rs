//! The four traffic mixes and the seeded streams that generate them.
//!
//! A workload seed picks the query pairs and the update stream only; the
//! graph and the index are the same for every seed. Warm-up calls draw
//! from their own stream of the same seed, so they never replay the
//! measured pairs.

use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{Adjacency, NodeId};

use crate::rng::SplitMix64;

/// Pairs in one `serve_batch` call: one user request.
pub const PAIRS_PER_CALL: usize = 64;

/// Capacity of the result cache on the workload that turns it on.
const ZIPF_CACHE_CAPACITY: usize = 65_536;

/// Seed of the Zipf popularity order. The order is part of the workload,
/// fixed like the graph: with a per-seed order, which nodes are popular
/// (hubs the index answers at once, or fringe nodes that go to the BFS)
/// moved `zipf-a4`'s throughput between seeds by more than the bound.
const ZIPF_ORDER_SEED: u64 = 0x2F1F_0DE5;

/// Stream ids, so warm-up, measured pairs and updates never share draws.
const STREAM_ORDER: u64 = 1;
const STREAM_MEASURED: u64 = 2;
const STREAM_WARMUP: u64 = 3;
const STREAM_UPDATES: u64 = 4;
const STREAM_CHECKS: u64 = 5;

/// One traffic mix. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One source, 64 targets one or two random-walk steps away; frozen
    /// service, no cache. Exercises the batched index pipeline.
    Fof,
    /// 64 uniform random pairs; frozen service, no cache. Most pairs miss
    /// the index and go to the seeded bidirectional BFS.
    Uniform,
    /// `Fof` reads with one edge update before every call; updatable
    /// service, no cache.
    Churn,
    /// Both endpoints Zipf(1) over a fixed shuffled node order; frozen service
    /// with the result cache on.
    Zipf,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists `Fof` and `Zipf`; see the
    /// README for why the other two are left out of it.
    pub const ALL: [Workload; 4] = [
        Workload::Fof,
        Workload::Uniform,
        Workload::Churn,
        Workload::Zipf,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fof => "fof-a4",
            Workload::Uniform => "uniform-a4",
            Workload::Churn => "churn-a4",
            Workload::Zipf => "zipf-a4",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Result-cache capacity of the served service (0 = no cache).
    pub fn cache_capacity(self) -> usize {
        match self {
            Workload::Zipf => ZIPF_CACHE_CAPACITY,
            _ => 0,
        }
    }

    /// Whether reads and edge updates interleave in the measured phase.
    pub fn interleaves_updates(self) -> bool {
        self == Workload::Churn
    }

    /// Warm-up calls before the measured phase.
    pub fn warmup_calls(self) -> usize {
        match self {
            Workload::Fof | Workload::Churn => 2_000,
            Workload::Uniform | Workload::Zipf => 200,
        }
    }

    /// The count window: the first calls of the measured phase, whose work
    /// counts are reported by a traced run. The count is fixed, so the
    /// counts repeat exactly for a seed however long the run lasts; every
    /// run makes at least this many calls.
    pub fn count_window(self) -> usize {
        match self {
            Workload::Fof => 20_000,
            Workload::Uniform | Workload::Zipf => 1_500,
            Workload::Churn => 2_000,
        }
    }
}

/// Zipf(1) over a shuffled order of the nodes.
struct ZipfNodes {
    /// `order[k]` is the node of popularity rank `k`.
    order: Vec<NodeId>,
    /// Cumulative weights `Σ_{j ≤ k} 1/(j+1)`, normalised to end at 1.
    cdf: Vec<f64>,
}

impl ZipfNodes {
    fn new(n: usize, rng: &mut SplitMix64) -> Self {
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank + 1) as f64;
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        ZipfNodes { order, cdf }
    }

    fn draw(&self, rng: &mut SplitMix64) -> NodeId {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.order.len() - 1);
        self.order[rank]
    }
}

/// Generates the query pairs of successive calls.
pub struct PairSource {
    workload: Workload,
    rng: SplitMix64,
    zipf: Option<ZipfNodes>,
}

impl PairSource {
    /// The measured call stream of `seed`.
    pub fn measured(workload: Workload, graph: &CsrGraph, seed: u64) -> Self {
        Self::new(workload, graph, seed, STREAM_MEASURED)
    }

    /// The warm-up call stream of `seed` (disjoint draws from the measured
    /// stream).
    pub fn warmup(workload: Workload, graph: &CsrGraph, seed: u64) -> Self {
        Self::new(workload, graph, seed, STREAM_WARMUP)
    }

    fn new(workload: Workload, graph: &CsrGraph, seed: u64, stream: u64) -> Self {
        let zipf = (workload == Workload::Zipf).then(|| {
            ZipfNodes::new(
                graph.node_count(),
                &mut SplitMix64::new(ZIPF_ORDER_SEED, STREAM_ORDER),
            )
        });
        PairSource {
            workload,
            rng: SplitMix64::new(seed, stream),
            zipf,
        }
    }

    /// Replace `out` with the next call's pairs. Walks follow the base
    /// graph: under churn the live graph differs from it by at most one
    /// edge, and every endpoint is a valid node either way.
    pub fn next_call(&mut self, graph: &CsrGraph, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        let n = graph.node_count();
        let rng = &mut self.rng;
        match self.workload {
            Workload::Fof | Workload::Churn => {
                let source = rng.below(n) as NodeId;
                for _ in 0..PAIRS_PER_CALL {
                    let steps = 1 + rng.below(2);
                    let mut at = source;
                    for _ in 0..steps {
                        let next = graph.neighbors(at);
                        if next.is_empty() {
                            break;
                        }
                        at = next[rng.below(next.len())];
                    }
                    out.push((source, at));
                }
            }
            Workload::Uniform => {
                for _ in 0..PAIRS_PER_CALL {
                    out.push((rng.below(n) as NodeId, rng.below(n) as NodeId));
                }
            }
            Workload::Zipf => {
                let zipf = self
                    .zipf
                    .as_ref()
                    .expect("zipf workload has a popularity order");
                for _ in 0..PAIRS_PER_CALL {
                    out.push((zipf.draw(rng), zipf.draw(rng)));
                }
            }
        }
    }
}

/// One edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Insert the undirected edge.
    Insert(NodeId, NodeId),
    /// Remove the undirected edge.
    Remove(NodeId, NodeId),
}

/// The update stream: a repeating cycle of four updates — remove a real
/// edge, re-insert it, insert a novel friend-of-friend edge, remove it.
/// The graph is back to the base graph after every cycle, so the stream
/// never drifts and no update can fail on a correct oracle; the overlay
/// still accumulates patches until compaction folds them.
pub struct UpdateStream {
    rng: SplitMix64,
    step: usize,
    edge: (NodeId, NodeId),
}

impl UpdateStream {
    /// The update stream of `seed`.
    pub fn new(seed: u64) -> Self {
        UpdateStream {
            rng: SplitMix64::new(seed, STREAM_UPDATES),
            step: 0,
            edge: (0, 0),
        }
    }

    /// The next update, drawn against the live graph `graph`.
    pub fn next_update<G: Adjacency>(&mut self, graph: &G) -> Update {
        let step = self.step % 4;
        self.step += 1;
        let n = graph.node_count();
        let rng = &mut self.rng;
        match step {
            0 => {
                self.edge = loop {
                    let u = rng.below(n) as NodeId;
                    let adj = graph.neighbors(u);
                    if !adj.is_empty() {
                        break (u, adj[rng.below(adj.len())]);
                    }
                };
                Update::Remove(self.edge.0, self.edge.1)
            }
            1 => Update::Insert(self.edge.0, self.edge.1),
            2 => {
                self.edge = loop {
                    let u = rng.below(n) as NodeId;
                    let adj = graph.neighbors(u);
                    if adj.is_empty() {
                        continue;
                    }
                    let w = adj[rng.below(adj.len())];
                    let far = graph.neighbors(w);
                    let x = far[rng.below(far.len())];
                    if x != u && graph.neighbors(u).binary_search(&x).is_err() {
                        break (u, x);
                    }
                };
                Update::Insert(self.edge.0, self.edge.1)
            }
            _ => Update::Remove(self.edge.0, self.edge.1),
        }
    }
}

/// Seeded choice of the served answers that are checked against BFS: one
/// pair of every `every`-th call on average.
pub struct CheckPicker {
    rng: SplitMix64,
    every: usize,
}

impl CheckPicker {
    /// Check one pair in about one of `every` calls.
    pub fn new(seed: u64, every: usize) -> Self {
        CheckPicker {
            rng: SplitMix64::new(seed, STREAM_CHECKS),
            every: every.max(1),
        }
    }

    /// For the next call: the index of the pair to check, if any.
    pub fn pick(&mut self) -> Option<usize> {
        let chosen = self.rng.below(self.every) == 0;
        let slot = self.rng.below(PAIRS_PER_CALL);
        chosen.then_some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::social::SocialGraphConfig;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_streams() {
        let graph = SocialGraphConfig::small_test().generate(3);
        for workload in Workload::ALL {
            let mut a = PairSource::measured(workload, &graph, 9);
            let mut b = PairSource::measured(workload, &graph, 9);
            let mut warm = PairSource::warmup(workload, &graph, 9);
            let (mut x, mut y, mut z) = (Vec::new(), Vec::new(), Vec::new());
            a.next_call(&graph, &mut x);
            b.next_call(&graph, &mut y);
            warm.next_call(&graph, &mut z);
            assert_eq!(x, y, "{}", workload.name());
            assert_ne!(x, z, "{}", workload.name());
            assert_eq!(x.len(), PAIRS_PER_CALL);
        }
    }

    #[test]
    fn update_cycle_returns_to_the_base_graph() {
        let graph = SocialGraphConfig::small_test().generate(4);
        let mut stream = UpdateStream::new(5);
        let cycle: Vec<Update> = (0..4).map(|_| stream.next_update(&graph)).collect();
        let (Update::Remove(a, b), Update::Insert(c, d)) = (cycle[0], cycle[1]) else {
            panic!("cycle starts remove, insert: {cycle:?}");
        };
        assert_eq!((a, b), (c, d));
        assert!(graph.has_edge(a, b));
        let (Update::Insert(e, f), Update::Remove(g, h)) = (cycle[2], cycle[3]) else {
            panic!("cycle ends insert, remove: {cycle:?}");
        };
        assert_eq!((e, f), (g, h));
        assert!(e != f && !graph.has_edge(e, f));
    }
}
