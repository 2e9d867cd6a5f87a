//! Traversal and statistics algorithms over CSR graphs.
//!
//! These are the building blocks the vicinity oracle, the baselines and the
//! experiment harness share: breadth-first search, connected components,
//! degree statistics, clustering coefficients, diameter estimation and node
//! sampling utilities.

pub mod bfs;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod diameter;
pub mod sampling;
