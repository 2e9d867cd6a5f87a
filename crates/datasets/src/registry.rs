//! The four stand-in datasets (Table 2 of the paper), scaled to laptop size.
//!
//! Each stand-in preserves the *relative* ordering of the real datasets in
//! node count and density (DBLP smallest and sparsest, Orkut densest,
//! LiveJournal largest), because those relations are what the paper's
//! evaluation narrative relies on ("the relative performance of our
//! technique improves with the size (and density) of the network").
//! Absolute sizes are scaled down by roughly 100× so the full experiment
//! suite runs in minutes.
//!
//! Generated graphs are cached on disk (binary format) keyed by name, scale
//! and generator seed, so repeated experiment runs skip regeneration.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vicinity_graph::csr::CsrGraph;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_graph::io::binary;

/// The four datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StandIn {
    /// DBLP co-authorship network (0.71 M nodes, 2.51 M undirected links).
    Dblp,
    /// Flickr follower network (1.72 M nodes, 15.56 M undirected links).
    Flickr,
    /// Orkut friendship network (3.07 M nodes, 117.19 M undirected links).
    Orkut,
    /// LiveJournal friendship network (4.85 M nodes, 42.85 M undirected links).
    LiveJournal,
}

impl StandIn {
    /// All four datasets, in the order of Table 2.
    pub fn all() -> [StandIn; 4] {
        [
            StandIn::Dblp,
            StandIn::Flickr,
            StandIn::Orkut,
            StandIn::LiveJournal,
        ]
    }

    /// Dataset name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            StandIn::Dblp => "DBLP",
            StandIn::Flickr => "Flickr",
            StandIn::Orkut => "Orkut",
            StandIn::LiveJournal => "LiveJournal",
        }
    }

    /// Node count of the real dataset, in millions (Table 2).
    pub fn paper_nodes_millions(&self) -> f64 {
        match self {
            StandIn::Dblp => 0.71,
            StandIn::Flickr => 1.72,
            StandIn::Orkut => 3.07,
            StandIn::LiveJournal => 4.85,
        }
    }

    /// Directed link count of the real dataset, in millions (Table 2).
    pub fn paper_directed_links_millions(&self) -> f64 {
        match self {
            StandIn::Dblp => 2.51,
            StandIn::Flickr => 22.61,
            StandIn::Orkut => 223.53,
            StandIn::LiveJournal => 68.99,
        }
    }

    /// Undirected link count of the real dataset, in millions (Table 2).
    pub fn paper_undirected_links_millions(&self) -> f64 {
        match self {
            StandIn::Dblp => 2.51,
            StandIn::Flickr => 15.56,
            StandIn::Orkut => 117.19,
            StandIn::LiveJournal => 42.85,
        }
    }

    /// Query-time results reported in Table 3 of the paper for this dataset
    /// (average look-ups, our-technique ms, BFS ms, bidirectional-BFS ms,
    /// speed-up vs bidirectional BFS). Used by `EXPERIMENTS.md` comparisons.
    pub fn paper_table3(&self) -> PaperTable3Row {
        match self {
            StandIn::Dblp => PaperTable3Row {
                avg_lookups: 1847.12,
                worst_lookups: 2124.0,
                our_ms: 0.094,
                bfs_ms: 327.2,
                bidirectional_ms: 18.614,
                speedup: 198.0,
            },
            StandIn::Flickr => PaperTable3Row {
                avg_lookups: 4898.78,
                worst_lookups: 5067.0,
                our_ms: 0.228,
                bfs_ms: 2090.2,
                bidirectional_ms: 83.956,
                speedup: 368.0,
            },
            StandIn::Orkut => PaperTable3Row {
                avg_lookups: 6877.52,
                worst_lookups: 6937.0,
                our_ms: 0.294,
                bfs_ms: 28678.5,
                bidirectional_ms: 760.987,
                speedup: 2588.0,
            },
            StandIn::LiveJournal => PaperTable3Row {
                avg_lookups: 8185.71,
                worst_lookups: 8360.0,
                our_ms: 0.363,
                bfs_ms: 6887.2,
                bidirectional_ms: 156.443,
                speedup: 431.0,
            },
        }
    }

    /// Deterministic generator seed for this stand-in.
    pub fn seed(&self) -> u64 {
        match self {
            StandIn::Dblp => 0xD81F,
            StandIn::Flickr => 0xF11C,
            StandIn::Orkut => 0x0127,
            StandIn::LiveJournal => 0x11FE,
        }
    }

    /// Generator configuration at a given scale.
    ///
    /// Node counts keep the Table 2 ratios (≈ 0.71 : 1.72 : 3.07 : 4.85);
    /// average degrees are compressed towards the paper's values but capped
    /// so the densest stand-in (Orkut) stays tractable; the power-law
    /// exponent and triangle closure are tuned so that the structural
    /// properties the oracle relies on (heavy tail, small diameter, high
    /// clustering) hold at the reduced scale.
    pub fn config(&self, scale: Scale) -> SocialGraphConfig {
        let factor = scale.node_factor();
        let (base_nodes, avg_degree, gamma) = match self {
            StandIn::Dblp => (7_000.0, 6.0, 2.9),
            StandIn::Flickr => (17_000.0, 10.0, 2.7),
            StandIn::Orkut => (30_000.0, 24.0, 2.5),
            StandIn::LiveJournal => (48_000.0, 12.0, 2.6),
        };
        SocialGraphConfig {
            nodes: (base_nodes * factor).round() as usize,
            average_degree: avg_degree,
            gamma,
            closure_rounds: 1,
            closure_fraction: 0.12,
            largest_component_only: true,
        }
    }
}

/// Table 3 of the paper, one row per dataset (times in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTable3Row {
    /// Average hash-table look-ups per query.
    pub avg_lookups: f64,
    /// Worst-case hash-table look-ups per query.
    pub worst_lookups: f64,
    /// Average query time of the paper's technique (ms).
    pub our_ms: f64,
    /// Average BFS query time (ms).
    pub bfs_ms: f64,
    /// Average bidirectional-BFS query time (ms).
    pub bidirectional_ms: f64,
    /// Speed-up of the technique over bidirectional BFS.
    pub speedup: f64,
}

/// Scale factor applied to the stand-in node counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~10 % of the default sizes; for unit/integration tests.
    Tiny,
    /// ~33 % of the default sizes; for quick experiment smoke runs.
    Small,
    /// The default experiment scale (LiveJournal stand-in ≈ 48 k nodes).
    Default,
    /// 3× the default scale; closer to the paper's regime but needs a few
    /// GB of memory and several minutes of preprocessing.
    Large,
}

impl Scale {
    fn node_factor(&self) -> f64 {
        match self {
            Scale::Tiny => 0.1,
            Scale::Small => 0.33,
            Scale::Default => 1.0,
            Scale::Large => 3.0,
        }
    }

    /// Resolve the scale from the `VICINITY_SCALE` environment variable
    /// (parsed by [`Scale::from_name`]).
    pub fn from_env() -> Scale {
        Scale::from_name(&std::env::var("VICINITY_SCALE").unwrap_or_default())
    }

    /// Parse a scale name (`tiny`, `small`, `default`, `large`, any case),
    /// defaulting to `Default` for anything else.
    pub fn from_name(name: &str) -> Scale {
        match name.trim().to_lowercase().as_str() {
            "tiny" => Scale::Tiny,
            "small" => Scale::Small,
            "large" => Scale::Large,
            _ => Scale::Default,
        }
    }

    /// Short name used in cache file names.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Large => "large",
        }
    }
}

/// A named dataset: the graph plus its provenance.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name ("DBLP", "LiveJournal", or the file stem for loaded
    /// edge lists).
    pub name: String,
    /// The (undirected, largest-component) graph.
    pub graph: CsrGraph,
    /// Which stand-in this is, when synthetic.
    pub stand_in: Option<StandIn>,
    /// True when the graph was loaded from a real edge list rather than
    /// generated.
    pub from_real_data: bool,
}

/// Guards concurrent generation of the same cached stand-in from multiple
/// threads in one process (e.g. tests running in parallel).
static CACHE_LOCK: Mutex<()> = Mutex::new(());

impl Dataset {
    /// Obtain a stand-in dataset at the given scale: loaded from the real
    /// edge list if `VICINITY_DATA_DIR` provides one, from the on-disk cache
    /// (see [`cache_dir`]) if previously generated, and generated (then
    /// cached) otherwise. Reads both variables once, then defers to
    /// [`Dataset::stand_in_with`].
    pub fn stand_in(which: StandIn, scale: Scale) -> Dataset {
        let data_dir = crate::loader::data_dir();
        Dataset::stand_in_with(which, scale, data_dir.as_deref(), &cache_dir())
    }

    /// [`Dataset::stand_in`] with explicit directories: real edge lists are
    /// looked up in `data_dir` (when given) and generated graphs are cached
    /// in `cache_dir`. A failed cache write is reported on stderr; the
    /// generated dataset is still returned.
    pub fn stand_in_with(
        which: StandIn,
        scale: Scale,
        data_dir: Option<&Path>,
        cache_dir: &Path,
    ) -> Dataset {
        // Real data takes priority when available.
        if let Some(real) = data_dir.and_then(|dir| crate::loader::try_load_real(dir, which)) {
            return real;
        }
        let _guard = CACHE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let cache_path = cache_path(cache_dir, which, scale);
        if let Ok(graph) = binary::load(&cache_path) {
            return Dataset {
                name: which.name().to_string(),
                graph,
                stand_in: Some(which),
                from_real_data: false,
            };
        }
        let graph = which.config(scale).generate(which.seed());
        let saved = std::fs::create_dir_all(cache_dir)
            .map_err(vicinity_graph::GraphError::from)
            .and_then(|()| binary::save(&graph, &cache_path));
        if let Err(err) = saved {
            eprintln!(
                "warning: could not cache the {} stand-in at {}: {err}",
                which.name(),
                cache_path.display()
            );
        }
        Dataset {
            name: which.name().to_string(),
            graph,
            stand_in: Some(which),
            from_real_data: false,
        }
    }

    /// Generate a stand-in without touching the cache (used by tests).
    pub fn generate_uncached(which: StandIn, scale: Scale) -> Dataset {
        Dataset {
            name: which.name().to_string(),
            graph: which.config(scale).generate(which.seed()),
            stand_in: Some(which),
            from_real_data: false,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Directory used for cached generated graphs: `VICINITY_CACHE_DIR` or
/// `<temp>/vicinity-cache`.
pub fn cache_dir() -> PathBuf {
    std::env::var_os("VICINITY_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("vicinity-cache"))
}

fn cache_path(cache_dir: &Path, which: StandIn, scale: Scale) -> PathBuf {
    cache_dir.join(format!(
        "standin-{}-{}-seed{}.vgr",
        which.name().to_lowercase(),
        scale.name(),
        which.seed()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::algo::components::connected_components;
    use vicinity_graph::algo::degree::degree_stats;

    #[test]
    fn paper_numbers_match_table2() {
        assert_eq!(StandIn::all().len(), 4);
        assert_eq!(StandIn::LiveJournal.name(), "LiveJournal");
        // Table 3 speed-ups as printed in the paper.
        assert_eq!(StandIn::Orkut.paper_table3().speedup, 2588.0);
        assert_eq!(StandIn::LiveJournal.paper_table3().speedup, 431.0);
    }

    #[test]
    fn node_counts_preserve_table2_ordering() {
        let sizes: Vec<usize> = StandIn::all()
            .iter()
            .map(|s| s.config(Scale::Default).nodes)
            .collect();
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "sizes must increase: {sizes:?}"
        );
        // Orkut must be the densest stand-in, as in the paper.
        let densities: Vec<f64> = StandIn::all()
            .iter()
            .map(|s| s.config(Scale::Default).average_degree)
            .collect();
        let orkut_density = StandIn::Orkut.config(Scale::Default).average_degree;
        assert!(densities.iter().all(|&d| d <= orkut_density));
    }

    #[test]
    fn scales_resolve_and_order() {
        assert!(Scale::Tiny.node_factor() < Scale::Small.node_factor());
        assert!(Scale::Small.node_factor() < Scale::Default.node_factor());
        assert!(Scale::Default.node_factor() < Scale::Large.node_factor());
        assert_eq!(Scale::Default.name(), "default");
        assert_eq!(Scale::from_name(" Tiny"), Scale::Tiny);
        assert_eq!(Scale::from_name("bogus"), Scale::Default);
    }

    #[test]
    fn tiny_standins_generate_and_look_social() {
        for which in StandIn::all() {
            let d = Dataset::generate_uncached(which, Scale::Tiny);
            assert_eq!(d.name, which.name());
            assert!(!d.from_real_data);
            assert!(
                d.node_count() > 300,
                "{} too small: {}",
                d.name,
                d.node_count()
            );
            assert!(connected_components(&d.graph).is_connected());
            let stats = degree_stats(&d.graph).unwrap();
            assert!(
                stats.max as f64 > 3.0 * stats.mean,
                "{} should have hubs (max {}, mean {})",
                d.name,
                stats.max,
                stats.mean
            );
        }
    }

    #[test]
    fn cache_round_trip() {
        let dir = std::env::temp_dir().join(format!("vicinity-cache-test-{}", std::process::id()));
        let a = Dataset::stand_in_with(StandIn::Dblp, Scale::Tiny, None, &dir);
        assert!(cache_path(&dir, StandIn::Dblp, Scale::Tiny).exists());
        let b = Dataset::stand_in_with(StandIn::Dblp, Scale::Tiny, None, &dir);
        assert_eq!(a.graph, b.graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_cache_still_returns_the_dataset() {
        // A regular file where the cache directory should be: the write
        // fails (and is reported), the generated graph is still returned.
        let blocker =
            std::env::temp_dir().join(format!("vicinity-cache-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let d = Dataset::stand_in_with(StandIn::Dblp, Scale::Tiny, None, &blocker);
        assert_eq!(
            d.graph,
            Dataset::generate_uncached(StandIn::Dblp, Scale::Tiny).graph
        );
        assert!(!cache_path(&blocker, StandIn::Dblp, Scale::Tiny).exists());
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate_uncached(StandIn::Flickr, Scale::Tiny);
        let b = Dataset::generate_uncached(StandIn::Flickr, Scale::Tiny);
        assert_eq!(a.graph, b.graph);
    }
}
