//! Serving benchmark for the vicinity oracle: four traffic mixes against
//! `vicinity-server` on one 50k-node social graph at α = 4, driven by one
//! closed-loop thread, with a traced run that replays every call layer by
//! layer. `perfbench/README.md` describes the workloads and the metrics.

pub mod machine;
pub mod replay;
pub mod rng;
pub mod run;
pub mod setup;
pub mod trace;
pub mod workload;
