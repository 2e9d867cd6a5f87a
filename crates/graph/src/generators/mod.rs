//! Random-graph generators.
//!
//! The paper evaluates on four crawled social networks (DBLP, Flickr,
//! Orkut, LiveJournal). Those crawls are not redistributable, so the
//! reproduction generates synthetic stand-ins whose *structural* properties
//! (heavy-tailed degrees, small diameter, high clustering) match what the
//! vicinity-intersection argument actually relies on. Several generator
//! families are provided so experiments can also probe how the oracle
//! behaves on *non*-social topologies (uniform random graphs, lattices,
//! small-world rings).
//!
//! All generators are deterministic given an RNG, and all return clean
//! undirected [`CsrGraph`](crate::csr::CsrGraph)s (no self loops, no parallel edges).

pub mod barabasi_albert;
pub mod chung_lu;
pub mod classic;
pub mod erdos_renyi;
pub mod rmat;
pub mod social;
pub mod watts_strogatz;
