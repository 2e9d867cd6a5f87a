//! Input preparation (the graph) and the timed set-up: index build,
//! in-memory snapshot round trip, service assembly.

use std::sync::Arc;
use std::time::Instant;

use vicinity_core::{serialize, Alpha, OracleBuilder, VicinityOracle};
use vicinity_graph::csr::CsrGraph;
use vicinity_graph::generators::social::SocialGraphConfig;
use vicinity_server::{OracleWriter, QueryService};

use crate::workload::Workload;

/// Nodes of the social stand-in every workload runs on.
pub const GRAPH_NODES: usize = 50_000;
/// Seed of the graph generator; fixed, so every workload seed sees one graph.
pub const GRAPH_SEED: u64 = 0x50C1_A150;
/// Seed of landmark sampling; fixed, so every run serves one index.
pub const ORACLE_SEED: u64 = 0x1A4D_3A2C;
/// How many times a run sets up; it reports the median and serves the last.
pub const SETUP_REPEATS: usize = 3;

/// The benchmark graph: the social stand-in at `nodes` nodes. Generating
/// it is input preparation and is not part of `setup_s`.
pub fn graph(nodes: usize) -> Arc<CsrGraph> {
    Arc::new(
        SocialGraphConfig::default()
            .with_nodes(nodes)
            .generate(GRAPH_SEED),
    )
}

/// Times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `OracleBuilder::build`.
    pub build_s: f64,
    /// `serialize::encode`.
    pub encode_s: f64,
    /// `serialize::decode`.
    pub decode_s: f64,
    /// Build, round trip and service assembly together.
    pub total_s: f64,
    /// Size of the encoded snapshot in bytes.
    pub snapshot_bytes: usize,
}

/// A service ready to serve, with the handles the run loop and the replay use.
pub struct Served {
    /// The service under load, built with `.threads(1)`.
    pub service: QueryService,
    /// The update handle, on the workload that interleaves updates.
    pub writer: Option<OracleWriter>,
    /// The decoded oracle the service serves.
    pub oracle: Arc<VicinityOracle>,
}

/// Build the index, take it through a snapshot round trip and assemble the
/// service over the decoded copy, the way a restart from a snapshot would.
pub fn set_up(graph: &Arc<CsrGraph>, workload: Workload) -> (Served, SetupTimes) {
    let start = Instant::now();
    let built = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(ORACLE_SEED)
        .store_paths(false)
        .build(graph);
    let build_s = start.elapsed().as_secs_f64();

    let phase = Instant::now();
    let bytes = serialize::encode(&built);
    let encode_s = phase.elapsed().as_secs_f64();
    drop(built);

    let phase = Instant::now();
    let decoded = serialize::decode(&bytes).expect("a freshly encoded snapshot decodes");
    let decode_s = phase.elapsed().as_secs_f64();
    let snapshot_bytes = bytes.len();
    drop(bytes);

    let oracle = Arc::new(decoded);
    let builder = QueryService::builder_from_arcs(Arc::clone(&oracle), Arc::clone(graph))
        .threads(1)
        .cache_capacity(workload.cache_capacity());
    let (service, writer) = if workload.interleaves_updates() {
        let (service, writer) = builder
            .build_updatable()
            .expect("index and graph have the same nodes");
        (service, Some(writer))
    } else {
        let service = builder
            .build()
            .expect("index and graph have the same nodes");
        (service, None)
    };
    let times = SetupTimes {
        build_s,
        encode_s,
        decode_s,
        total_s: start.elapsed().as_secs_f64(),
        snapshot_bytes,
    };
    (
        Served {
            service,
            writer,
            oracle,
        },
        times,
    )
}

/// An update handle over `oracle` for the read workloads' write phase, which
/// runs in slices between their calls, on a service of its own.
pub fn write_phase_writer(oracle: &Arc<VicinityOracle>, graph: &Arc<CsrGraph>) -> OracleWriter {
    QueryService::builder_from_arcs(Arc::clone(oracle), Arc::clone(graph))
        .threads(1)
        .build_updatable()
        .expect("index and graph have the same nodes")
        .1
}
