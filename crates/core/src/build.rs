//! Offline phase: constructing a [`VicinityOracle`] from a graph.
//!
//! Construction follows §2.2 of the paper:
//!
//! 1. Sample the landmark set `L` (degree-proportional by default).
//! 2. One multi-source BFS from `L` gives every node its ball radius
//!    `d(u, L)` and nearest landmark `ℓ(u)`: the smallest-id landmark at
//!    that distance, so it depends only on the graph and the landmark set
//!    (the dynamic oracle reads the same label off a node's slab column
//!    as its least `(distance, id)` entry).
//! 3. The landmarks, in rank order, are cut into batches of 64; one
//!    bit-parallel multi-source BFS per batch (one `u64` lane per
//!    landmark) materialises the batch's distances to every node in a
//!    node-major buffer, whose 64-entry column slices are then copied
//!    into the slab ([`LandmarkDistances`]). A search that reaches
//!    [`HOP_HORIZON`] hops refuses the graph, before any vicinity is
//!    built.
//! 4. For every node, a bounded BFS up to that radius materialises the
//!    vicinity `Γ(u)` (members, distances, predecessors). Each
//!    worker appends its node range into a private [`VicinityChunk`]
//!    arena; the chunks are spliced into the flat [`VicinityStore`] by
//!    plain pool concatenation, with the derived shell and hash sections
//!    built once on the assembled store (no per-node re-hashing).
//!
//! Step 3 is split over worker threads by batch (one batch per worker per
//! round, then the copy by node range), step 4 by node range; both use
//! `std::thread::scope`, and neither result depends on the thread count.

use vicinity_graph::algo::bfs::{multi_source_bfs, BoundedBfsScratch, MultiSourceBfs};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::{NodeId, INFINITY, INVALID_NODE};

use crate::config::{Alpha, OracleConfig};
use crate::index::{LandmarkDistances, VicinityOracle, HOP_HORIZON, UNREACHABLE_U16};
use crate::landmarks::LandmarkSet;
use crate::vicinity::{VicinityChunk, VicinityStore};
use crate::OracleError;

/// Builder for [`VicinityOracle`].
///
/// ```
/// use vicinity_core::{OracleBuilder, config::Alpha};
/// use vicinity_graph::generators::classic;
///
/// let graph = classic::grid(20, 20);
/// let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(7).build(&graph);
/// assert_eq!(oracle.node_count(), 400);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OracleBuilder {
    config: OracleConfig,
    /// When set, landmark sampling is skipped and exactly these nodes form
    /// `L`. Used to rebuild an oracle over a mutated graph with the same
    /// landmark set a dynamic oracle holds fixed, so the rebuild is
    /// answer-comparable to incremental maintenance.
    pinned_landmarks: Option<Vec<NodeId>>,
}

impl OracleBuilder {
    /// Start a builder with the given α and default settings otherwise.
    pub fn new(alpha: Alpha) -> Self {
        OracleBuilder {
            config: OracleConfig {
                alpha,
                ..Default::default()
            },
            pinned_landmarks: None,
        }
    }

    /// Start a builder from a full configuration.
    pub fn from_config(config: OracleConfig) -> Self {
        OracleBuilder {
            config,
            pinned_landmarks: None,
        }
    }

    /// Pin the landmark set to exactly `nodes` (deduplicated, out-of-range
    /// ids dropped), bypassing sampling. The α / sampling configuration is
    /// kept for the record but does not influence selection.
    pub fn landmarks(mut self, nodes: Vec<NodeId>) -> Self {
        self.pinned_landmarks = Some(nodes);
        self
    }

    /// Set the RNG seed used for landmark sampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the landmark sampling strategy.
    pub fn sampling(mut self, sampling: crate::config::SamplingStrategy) -> Self {
        self.config.sampling = sampling;
        self
    }

    /// Enable or disable storage of shortest-path predecessors.
    pub fn store_paths(mut self, store: bool) -> Self {
        self.config.store_paths = store;
        self
    }

    /// Set the number of construction threads (`0` = all available).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// The configuration this builder will use.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Build the oracle. Panics if the configuration is invalid or a
    /// landmark distance reaches [`HOP_HORIZON`] hops (use
    /// [`OracleBuilder::try_build`] for a fallible version).
    pub fn build(&self, graph: &CsrGraph) -> VicinityOracle {
        self.try_build(graph).expect("oracle construction failed")
    }

    /// Build the oracle, reporting errors instead of panicking: an invalid
    /// configuration, or [`OracleError::InvalidGraph`] when a landmark
    /// distance reaches [`HOP_HORIZON`] hops, past what the 16-bit rows
    /// hold.
    pub fn try_build(&self, graph: &CsrGraph) -> crate::Result<VicinityOracle> {
        self.config.validate()?;
        let config = self.config.clone();

        // Step 1: landmark selection (or the caller's pinned set).
        let landmarks = match &self.pinned_landmarks {
            Some(nodes) => LandmarkSet::from_nodes(nodes.clone(), graph.node_count()),
            None => LandmarkSet::select(graph, &config),
        };

        // Step 2: ball radii and nearest landmarks via one multi-source BFS.
        let nearest = multi_source_bfs(graph, landmarks.nodes());

        // Step 3: landmark distances, 64 landmarks per search, in
        // parallel over batches.
        let landmark_distances =
            build_landmark_distances(graph, &config, &landmarks).ok_or_else(|| {
                OracleError::InvalidGraph(format!(
                    "a landmark distance reaches {HOP_HORIZON} hops, \
                     past what the 16-bit landmark rows hold"
                ))
            })?;

        // Step 4: vicinities, in parallel over node ranges.
        let store = build_store(graph, &config, &nearest);

        Ok(VicinityOracle {
            config,
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            landmarks,
            store,
            landmark_distances,
        })
    }
}

/// Build every node's vicinity into the flat store, splitting the node
/// range across worker threads. Each worker fills a private chunk arena
/// (one dense BFS scratch per worker keeps every per-node traversal free
/// of hashing and allocation); the chunks are spliced in node order, so
/// the result is independent of the thread count.
fn build_store(graph: &CsrGraph, config: &OracleConfig, nearest: &MultiSourceBfs) -> VicinityStore {
    let n = graph.node_count();
    if n == 0 {
        return VicinityStore::empty(0);
    }
    let threads = config.effective_threads().clamp(1, n);
    let chunk_size = n.div_ceil(threads);

    let fill_chunk = |start: usize, end: usize| -> VicinityChunk {
        let mut scratch = BoundedBfsScratch::with_node_capacity(n);
        let mut chunk = VicinityChunk::new(start as NodeId, config.store_paths);
        for u in start..end {
            let radius = nearest.distances[u];
            let landmark = nearest.nearest_source[u];
            chunk.push_node(
                graph,
                (radius != INFINITY).then_some(radius),
                (landmark != INVALID_NODE).then_some(landmark),
                &mut scratch,
            );
        }
        chunk
    };

    if threads == 1 {
        return VicinityStore::from_chunks([fill_chunk(0, n)]);
    }

    let mut chunks: Vec<VicinityChunk> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk_index in 0..threads {
            let start = chunk_index * chunk_size;
            let end = ((chunk_index + 1) * chunk_size).min(n);
            if start >= end {
                continue;
            }
            handles.push(scope.spawn(move || fill_chunk(start, end)));
        }
        for handle in handles {
            chunks.push(
                handle
                    .join()
                    .expect("vicinity construction thread panicked"),
            );
        }
    });
    VicinityStore::from_chunks(chunks)
}

/// Landmarks per bit-parallel search: one lane per bit of a `u64`.
pub(crate) const LANES: usize = 64;

/// Build every landmark's distances into the node-major slab with one
/// bit-parallel multi-source BFS per batch of [`LANES`] landmarks (MS-BFS,
/// Then et al., "The More the Merrier", VLDB 2014). The batches are cut
/// in rank order and run in rounds, one batch per worker; each worker
/// fills a private node-major buffer, and the round's buffers are then
/// copied into their columns, split over the same workers by node range.
/// `None` when a search reaches [`HOP_HORIZON`] hops.
fn build_landmark_distances(
    graph: &CsrGraph,
    config: &OracleConfig,
    landmarks: &LandmarkSet,
) -> Option<LandmarkDistances> {
    let n = graph.node_count();
    let mut distances = LandmarkDistances::zeroed(landmarks.len(), n);
    let batches: Vec<&[NodeId]> = landmarks.nodes().chunks(LANES).collect();
    if batches.is_empty() {
        return Some(distances);
    }
    let threads = config.effective_threads().max(1);
    let mut searches: Vec<LaneSearch> = (0..threads.min(batches.len()))
        .map(|_| LaneSearch::new(n))
        .collect();
    let per_round = searches.len();
    for (round, round_batches) in batches.chunks(per_round).enumerate() {
        let searches = &mut searches[..round_batches.len()];
        let within_horizon = if let [search] = searches {
            search.run(graph, round_batches[0])
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = searches
                    .iter_mut()
                    .zip(round_batches)
                    .map(|(search, &batch)| scope.spawn(move || search.run(graph, batch)))
                    .collect();
                handles
                    .into_iter()
                    .all(|handle| handle.join().expect("landmark search panicked"))
            })
        };
        if !within_horizon {
            return None;
        }
        let blocks: Vec<&[u16]> = searches.iter().map(|s| s.columns.as_slice()).collect();
        distances.fill_column_blocks(round * per_round * LANES, &blocks, threads);
    }
    Some(distances)
}

/// The lanes set in `mask`, lowest first.
#[inline]
pub(crate) fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        lane
    })
}

/// One worker's bit-parallel BFS from a batch of up to [`LANES`]
/// landmarks. Bit `i` of a node's masks is lane `i`, the batch's `i`-th
/// landmark; one pass over a frontier node's arcs advances every lane
/// that reached it at the current level.
struct LaneSearch {
    /// Per node, the lanes that have reached it.
    seen: Vec<u64>,
    /// Per frontier node, the lanes that reached it at the current level
    /// (all zero between searches).
    visit: Vec<u64>,
    /// Per node, the lanes that reach it at the next level (all zero
    /// between searches).
    next: Vec<u64>,
    frontier: Vec<NodeId>,
    next_frontier: Vec<NodeId>,
    /// Node-major compact distances, one entry per lane for each node.
    columns: Vec<u16>,
}

impl LaneSearch {
    fn new(n: usize) -> Self {
        LaneSearch {
            seen: vec![0; n],
            visit: vec![0; n],
            next: vec![0; n],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            columns: Vec::with_capacity(n * LANES),
        }
    }

    /// Search from `batch` (distinct landmarks), leaving every node's
    /// distances to them in `columns`: the level where a lane reaches it,
    /// `UNREACHABLE_U16` where none does. Returns `false`, leaving the
    /// search to be dropped, as soon as a lane reaches a node at
    /// [`HOP_HORIZON`] hops.
    fn run(&mut self, graph: &CsrGraph, batch: &[NodeId]) -> bool {
        let LaneSearch {
            seen,
            visit,
            next,
            frontier,
            next_frontier,
            columns,
        } = self;
        let k = batch.len();
        debug_assert!((1..=LANES).contains(&k));
        seen.fill(0);
        columns.clear();
        columns.resize(graph.node_count() * k, UNREACHABLE_U16);
        frontier.clear();
        for (lane, &l) in batch.iter().enumerate() {
            let l = l as usize;
            seen[l] |= 1 << lane;
            visit[l] |= 1 << lane;
            columns[l * k + lane] = 0;
            frontier.push(l as NodeId);
        }
        let mut level: u16 = 0;
        while !frontier.is_empty() {
            level += 1;
            for &v in frontier.iter() {
                let reach = visit[v as usize];
                for &w in graph.neighbors(v) {
                    let w = w as usize;
                    let fresh = reach & !seen[w];
                    if fresh == 0 {
                        continue;
                    }
                    if next[w] == 0 {
                        next_frontier.push(w as NodeId);
                    }
                    next[w] |= fresh;
                    seen[w] |= fresh;
                    let column = &mut columns[w * k..(w + 1) * k];
                    for lane in lanes(fresh) {
                        column[lane] = level;
                    }
                }
            }
            if level == HOP_HORIZON && !next_frontier.is_empty() {
                return false;
            }
            for &v in frontier.iter() {
                visit[v as usize] = 0;
            }
            std::mem::swap(visit, next);
            std::mem::swap(frontier, next_frontier);
            next_frontier.clear();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingStrategy;
    use vicinity_graph::algo::bfs::bfs_distances;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::{classic, social::SocialGraphConfig};

    #[test]
    fn build_on_small_social_graph() {
        let g = SocialGraphConfig::small_test().generate(71);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(1).build(&g);
        assert_eq!(oracle.node_count(), g.node_count());
        assert_eq!(oracle.edge_count(), g.edge_count());
        assert!(
            !oracle.landmarks().is_empty(),
            "a social graph must yield landmarks"
        );
        assert!(oracle.stores_paths());
        // Every landmark has a row, and only landmarks do: one column
        // entry per landmark, each landmark at distance 0 from itself.
        for u in g.nodes() {
            assert_eq!(oracle.landmark_row(u).is_some(), oracle.is_landmark(u));
        }
        for &l in oracle.landmarks().nodes() {
            assert_eq!(oracle.landmark_row(l).unwrap().distance_to(l), Some(0));
        }
        assert_eq!(oracle.landmark_distances.width(), oracle.landmarks().len());
        // Vicinities exist for every node and are owned correctly.
        for u in g.nodes() {
            let v = oracle.vicinity(u).unwrap();
            assert_eq!(v.owner(), u);
            if oracle.is_landmark(u) {
                assert!(v.is_empty(), "landmark vicinity must be empty");
            } else {
                assert!(v.contains(u), "a non-landmark's vicinity contains itself");
            }
        }
    }

    #[test]
    fn vicinity_sizes_track_alpha() {
        let g = SocialGraphConfig::small_test().generate(72);
        let small = OracleBuilder::new(Alpha::new(1.0).unwrap())
            .seed(2)
            .build(&g);
        let large = OracleBuilder::new(Alpha::new(8.0).unwrap())
            .seed(2)
            .build(&g);
        assert!(
            large.average_vicinity_size() > small.average_vicinity_size(),
            "bigger alpha must give bigger vicinities ({} vs {})",
            large.average_vicinity_size(),
            small.average_vicinity_size()
        );
        assert!(large.average_vicinity_radius() >= small.average_vicinity_radius());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = SocialGraphConfig::small_test().generate(73);
        let a = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(5)
            .threads(1)
            .build(&g);
        let b = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(5)
            .threads(4)
            .build(&g);
        // Thread count must not affect the resulting index (only the config
        // record differs).
        assert_eq!(a.landmarks, b.landmarks);
        assert_eq!(a.store, b.store);
        assert_eq!(a.landmark_distances, b.landmark_distances);
        let c = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(6)
            .threads(1)
            .build(&g);
        assert_ne!(a.landmarks, c.landmarks);
    }

    #[test]
    fn builder_setters_are_applied() {
        let builder = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(9)
            .sampling(SamplingStrategy::TopDegree)
            .store_paths(false)
            .threads(2);
        let c = builder.config();
        assert_eq!(c.seed, 9);
        assert_eq!(c.sampling, SamplingStrategy::TopDegree);
        assert!(!c.store_paths);
        assert_eq!(c.threads, 2);

        let g = classic::grid(10, 10);
        let oracle = builder.build(&g);
        assert!(!oracle.stores_paths());
    }

    #[test]
    fn empty_graph_builds_empty_oracle() {
        let g = GraphBuilder::new().build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&g);
        assert_eq!(oracle.node_count(), 0);
        assert_eq!(oracle.total_vicinity_entries(), 0);
        assert!(oracle.landmarks().is_empty());
    }

    #[test]
    fn edgeless_graph_builds() {
        let g = GraphBuilder::with_node_count(10).build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&g);
        assert_eq!(oracle.node_count(), 10);
        // No landmarks can be sampled (all degrees are 0), so every node's
        // vicinity degenerates to its own component = itself.
        for u in 0..10u32 {
            assert!(oracle.vicinity(u).unwrap().contains(u));
        }
    }

    #[test]
    fn average_statistics_are_consistent() {
        let g = SocialGraphConfig::small_test().generate(74);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(3).build(&g);
        let n = oracle.node_count() as f64;
        let total = oracle.total_vicinity_entries() as f64;
        assert!((oracle.average_vicinity_size() - total / n).abs() < 1e-9);
        assert!(crate::stats::average_boundary_size(&oracle, &g) <= oracle.average_vicinity_size());
        assert!(oracle.average_vicinity_radius() >= 1.0);
    }

    /// Every slab entry equals the encoded distance of an independent
    /// single-source BFS from its landmark.
    fn assert_rows_match_bfs(graph: &CsrGraph, oracle: &VicinityOracle) {
        let slab = oracle.landmark_distances();
        for (rank, &l) in oracle.landmarks().nodes().iter().enumerate() {
            for (v, d) in bfs_distances(graph, l).into_iter().enumerate() {
                let want = crate::index::encode_distance(d);
                assert_eq!(
                    Some(slab.raw(rank, v as NodeId)),
                    want,
                    "landmark {l}, node {v}"
                );
            }
        }
    }

    #[test]
    fn landmark_rows_match_bfs_across_lane_batches() {
        // 1 lane, one short of a full batch, exactly one, one over, and
        // two full batches plus a partial one; on 1–3 workers, so rounds
        // hold one batch, several, or end short.
        let g = SocialGraphConfig::small_test().with_nodes(600).generate(75);
        for count in [1, 63, 64, 65, 130] {
            let n = g.node_count();
            let nodes: Vec<NodeId> = (0..count).map(|i| (i * n / count) as NodeId).collect();
            for threads in [1, 2, 3] {
                let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
                    .landmarks(nodes.clone())
                    .threads(threads)
                    .build(&g);
                assert_eq!(oracle.landmarks().len(), count);
                assert_rows_match_bfs(&g, &oracle);
            }
        }
    }

    /// A 5×5 grid (nodes 0–24), a path 25–34 and isolated nodes 35–39.
    fn grid_path_and_isolated_nodes() -> CsrGraph {
        let mut b = GraphBuilder::with_node_count(40);
        for r in 0..5u32 {
            for c in 0..5u32 {
                if c < 4 {
                    b.add_edge(r * 5 + c, r * 5 + c + 1);
                }
                if r < 4 {
                    b.add_edge(r * 5 + c, (r + 1) * 5 + c);
                }
            }
        }
        for v in 25..34 {
            b.add_edge(v, v + 1);
        }
        b.build_undirected()
    }

    #[test]
    fn landmark_rows_match_bfs_with_unreachable_lanes() {
        // Landmarks in both components and on an isolated node.
        let g = grid_path_and_isolated_nodes();
        for threads in [1, 2, 3] {
            let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .landmarks(vec![0, 12, 30, 37])
                .threads(threads)
                .build(&g);
            assert_rows_match_bfs(&g, &oracle);
            let isolated = oracle.landmark_row(37).unwrap();
            assert_eq!(isolated.distance_to(37), Some(0));
            assert_eq!(isolated.distance_to(0), None);
        }
    }

    /// Every node's store header `(radius, nearest)` is the least
    /// `(distance, landmark id)` entry of its slab column, the rule the
    /// dynamic oracle relabels by; a node whose column holds no finite
    /// entry has no nearest landmark.
    fn assert_headers_are_least_column_entries(oracle: &VicinityOracle) {
        let landmarks = oracle.landmarks().nodes();
        for u in 0..oracle.node_count() as NodeId {
            let least = oracle
                .landmark_distances()
                .column(u)
                .iter()
                .zip(landmarks)
                .filter_map(|(&raw, &l)| Some((crate::index::decode_distance(raw)?, l)))
                .min();
            let header = oracle.vicinity(u).unwrap();
            match least {
                Some((d, l)) => {
                    assert_eq!(
                        (header.radius(), header.nearest_landmark()),
                        (d, Some(l)),
                        "node {u}"
                    )
                }
                None => assert_eq!(header.nearest_landmark(), None, "node {u}"),
            }
        }
    }

    #[test]
    fn store_headers_are_the_least_column_entries() {
        // Grid corners as landmarks, listed out of id order: the centre is
        // 4 hops from all four and every grid node but the corners ties
        // two or more. The path 25–34 and the isolated nodes but 37 reach
        // no landmark.
        let g = grid_path_and_isolated_nodes();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .landmarks(vec![24, 20, 4, 0, 37])
            .build(&g);
        let header = |u: NodeId| {
            let v = oracle.vicinity(u).unwrap();
            (v.radius(), v.nearest_landmark())
        };
        assert_eq!(header(12), (4, Some(0)));
        assert_eq!(header(14), (2, Some(4)));
        assert_eq!(header(22), (2, Some(20)));
        assert_eq!(header(30).1, None);
        assert_headers_are_least_column_entries(&oracle);
        // Sampled landmarks on a social graph.
        let g = SocialGraphConfig::small_test().generate(76);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(4).build(&g);
        assert_headers_are_least_column_entries(&oracle);
    }

    #[test]
    fn try_build_refuses_landmark_distances_at_the_horizon() {
        // A 66,000-node path with landmarks 2, n − 3 and one every 200
        // hops, in several lane batches: landmark 2 is 65,994 hops from
        // the far end, so the build is refused on any thread count.
        let n: NodeId = 66_000;
        let mut landmarks = vec![2, n - 3];
        landmarks.extend((200..n - 200).step_by(200));
        let g = classic::path(n as usize);
        for threads in [1, 2] {
            let err = OracleBuilder::new(Alpha::PAPER_DEFAULT)
                .landmarks(landmarks.clone())
                .store_paths(false)
                .threads(threads)
                .try_build(&g)
                .unwrap_err();
            assert!(matches!(err, OracleError::InvalidGraph(_)), "{err}");
            assert!(err.to_string().contains("65534 hops"), "{err}");
        }
        // The boundary: a lane holds 65,533 hops and refuses one more.
        for (nodes, within) in [(HOP_HORIZON, true), (HOP_HORIZON + 1, false)] {
            let path = classic::path(nodes as usize);
            let mut search = LaneSearch::new(path.node_count());
            assert_eq!(search.run(&path, &[0]), within, "{nodes} nodes");
            if within {
                assert_eq!(search.columns.last(), Some(&(HOP_HORIZON - 1)));
            }
        }
    }

    #[test]
    fn try_build_rejects_invalid_config() {
        let g = classic::path(5);
        // Construct the config directly (as a deserializer would) and check
        // that validate() accepts it at build time.
        let config = OracleConfig {
            alpha: Alpha::PAPER_DEFAULT,
            ..Default::default()
        };
        assert!(OracleBuilder::from_config(config).try_build(&g).is_ok());
    }
}
