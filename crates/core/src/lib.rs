//! # vicinity-core
//!
//! The vicinity-intersection shortest-path oracle — the contribution of
//! *Shortest Paths in Less Than a Millisecond* (Agarwal, Caesar, Godfrey,
//! Zhao; WOSN/SIGCOMM 2012).
//!
//! ## The idea
//!
//! Answering point-to-point shortest path queries on a social network with
//! per-query search (BFS, bidirectional BFS, A*) is too slow (hundreds of
//! milliseconds), while precomputing all pairs is far too large (n² entries).
//! The paper's observation is that social networks admit a middle point:
//!
//! 1. **Offline**, sample a landmark set `L` with per-node probability
//!    proportional to degree, and give every node `u` a **vicinity**
//!    `Γ(u)` — all nodes closer to `u` than its nearest landmark, plus
//!    their neighbours. Expected vicinity size is `α·√n` for the sampling
//!    parameter `α` (the paper uses `α = 4`). Store exact distances and
//!    shortest-path predecessors for every vicinity member, plus full
//!    distance tables for the landmarks themselves.
//! 2. **Online**, for a query `(s, t)`: answer directly from a stored table
//!    when `s` or `t` is a landmark or one lies in the other's vicinity;
//!    otherwise intersect `Γ(s)` with `Γ(t)`. The paper scans the
//!    *boundary* of `Γ(s)` with hash probes into `Γ(t)`; this crate stores
//!    no boundary — distance queries intersect per-distance shells in
//!    order of increasing sum, and path queries scan the outermost shell,
//!    which contains the boundary. Whenever the vicinities intersect, the
//!    minimum of `d(s,w) + d(w,t)` over the intersection is the exact
//!    shortest distance (Theorem 1 + Lemma 1 of the paper, re-proved in
//!    the documentation of [`query`]).
//!
//! Empirically (reproduced by the experiments in `vicinity-bench`), for
//! `α = 4` the vicinities of >99.9 % of random pairs intersect, so nearly
//! every query is answered exactly with a few thousand hash probes — orders
//! of magnitude faster than per-query graph search.
//!
//! ## Quick start
//!
//! ```
//! use vicinity_core::{OracleBuilder, config::Alpha};
//! use vicinity_graph::generators::social::SocialGraphConfig;
//!
//! let graph = SocialGraphConfig::small_test().generate(1);
//! let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
//!     .seed(42)
//!     .build(&graph);
//!
//! let answer = oracle.distance(0, 100);
//! if let Some(d) = answer.exact_distance() {
//!     println!("shortest path has {d} hops");
//! }
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: the one sanctioned exception is the software
// prefetch intrinsic in `prefetch.rs` (an architectural no-op hint), which
// carries its own `allow` and safety argument. Everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod ablation;
pub mod build;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod fallback;
pub mod index;
pub mod landmarks;
pub mod memory;
pub mod parallel;
pub mod prefetch;
pub mod query;
pub mod serialize;
pub mod stats;
pub mod vicinity;

pub use build::OracleBuilder;
pub use config::{Alpha, OracleConfig, SamplingStrategy};
pub use dynamic::{DynamicOracle, DynamicSnapshot, OverlayGraph, UpdateError};
pub use error::{OracleError, Result};
pub use index::VicinityOracle;
pub use query::{DistanceAnswer, PathAnswer, QueryIndex, QueryStats};
pub use vicinity::{VicinityRef, VicinityStore};
