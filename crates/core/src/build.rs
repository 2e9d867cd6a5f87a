//! Offline phase: constructing a [`VicinityOracle`] from a graph.
//!
//! Construction follows §2.2 of the paper:
//!
//! 1. Sample the landmark set `L` (degree-proportional by default).
//! 2. One multi-source BFS from `L` gives every node its nearest landmark
//!    and ball radius `d(u, ℓ(u))`.
//! 3. For every node, a bounded BFS up to that radius materialises the
//!    vicinity `Γ(u)` (members, distances, predecessors, boundary). Each
//!    worker appends its node range into a private [`VicinityChunk`]
//!    arena; the chunks are spliced into the flat [`VicinityStore`] by
//!    plain pool concatenation, with the derived shell and hash sections
//!    built once on the assembled store (no per-node re-hashing).
//! 4. For every landmark, a full BFS materialises its distances to every
//!    node, transposed in tiles into the node-major slab
//!    ([`LandmarkDistances`]).
//!
//! Steps 3 and 4 are embarrassingly parallel across nodes / landmarks and
//! are distributed over worker threads with `std::thread::scope`.

use vicinity_graph::algo::bfs::{bfs_distances, BoundedBfsScratch};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::NodeId;

use crate::ball::BallRadii;
use crate::config::{Alpha, OracleConfig};
use crate::index::{encode_row_le, LandmarkDistances, VicinityOracle};
use crate::landmarks::LandmarkSet;
use crate::vicinity::{VicinityChunk, VicinityStore};

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

    /// Build the oracle. Panics only if the configuration is invalid
    /// (use [`OracleBuilder::try_build`] for a fallible version).
    pub fn build(&self, graph: &CsrGraph) -> VicinityOracle {
        self.try_build(graph).expect("oracle construction failed")
    }

    /// Build the oracle, reporting configuration errors instead of panicking.
    pub fn try_build(&self, graph: &CsrGraph) -> crate::Result<VicinityOracle> {
        self.config.validate()?;
        let config = self.config.clone();

        // Step 1: landmark selection (or the caller's pinned set).
        let landmarks = match &self.pinned_landmarks {
            Some(nodes) => LandmarkSet::from_nodes(nodes.clone(), graph.node_count()),
            None => LandmarkSet::select(graph, &config),
        };

        // Step 2: ball radii via one multi-source BFS.
        let radii = BallRadii::compute(graph, &landmarks);

        // Step 3: vicinities, in parallel over node ranges.
        let store = build_store(graph, &config, &radii);

        // Step 4: landmark distances, in parallel over landmarks.
        let landmark_distances = build_landmark_distances(graph, &config, &landmarks);

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
fn build_store(graph: &CsrGraph, config: &OracleConfig, radii: &BallRadii) -> VicinityStore {
    let n = graph.node_count();
    if n == 0 {
        return VicinityStore::empty(0);
    }
    let threads = config.effective_threads().clamp(1, n);
    let chunk_size = n.div_ceil(threads);

    let fill_chunk = |start: usize, end: usize| -> VicinityChunk {
        let mut scratch = BoundedBfsScratch::with_node_capacity(n);
        let mut chunk = VicinityChunk::new(start as NodeId, config.store_paths);
        for u in start as NodeId..end as NodeId {
            chunk.push_node(
                graph,
                radii.radius_of(u),
                radii.nearest_landmark(u),
                &mut scratch,
            );
        }
        chunk
    };

    if threads == 1 {
        return VicinityStore::from_chunks(vec![fill_chunk(0, n)]);
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

/// Landmark rows computed per round of [`build_landmark_distances`]: each
/// round holds this many encoded rows (`2n` bytes each) before they are
/// transposed into the slab, which bounds the build's extra memory.
const ROWS_PER_ROUND: usize = 256;

/// Build every landmark's distances into the node-major slab. Rounds of
/// [`ROWS_PER_ROUND`] landmarks each run one BFS per landmark, split over
/// the worker threads, then transpose the round's rows into the columns,
/// split over the same threads by node range.
fn build_landmark_distances(
    graph: &CsrGraph,
    config: &OracleConfig,
    landmarks: &LandmarkSet,
) -> LandmarkDistances {
    let landmark_nodes = landmarks.nodes();
    let n = graph.node_count();
    let mut distances = LandmarkDistances::zeroed(landmark_nodes.len(), n);
    let threads = config.effective_threads().max(1);
    let build_row = |&l: &NodeId| encode_row_le(&bfs_distances(graph, l));
    for (round, round_nodes) in landmark_nodes.chunks(ROWS_PER_ROUND).enumerate() {
        let workers = threads.min(round_nodes.len());
        let rows: Vec<Vec<[u8; 2]>> = if workers == 1 {
            round_nodes.iter().map(build_row).collect()
        } else {
            let per_worker = round_nodes.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = round_nodes
                    .chunks(per_worker)
                    .map(|chunk| {
                        scope.spawn(move || chunk.iter().map(build_row).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("landmark row thread panicked"))
                    .collect()
            })
        };
        let rows: Vec<&[[u8; 2]]> = rows.iter().map(Vec::as_slice).collect();
        distances.fill_rows_le(round * ROWS_PER_ROUND, &rows, threads);
    }
    distances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingStrategy;
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
        assert!(oracle.average_boundary_size() <= oracle.average_vicinity_size());
        assert!(oracle.average_vicinity_radius() >= 1.0);
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
