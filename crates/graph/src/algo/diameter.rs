//! Exact and estimated diameters.
//!
//! Social networks have small diameters — that is why vicinities of radius
//! ~3.5 hops (Figure 2, right) cover enough of the graph for nearly all
//! pairs to intersect. The experiment harness reports (estimated) diameters
//! of the stand-in datasets so the reader can verify they are in the same
//! regime as the paper's graphs.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::algo::bfs;
use crate::csr::CsrGraph;
use crate::{Distance, NodeId, INFINITY};

/// Exact diameter (longest shortest path) of a graph, computed with a BFS
/// from every node. O(n·(n+m)) — only use on small graphs / tests.
/// Returns `None` for an empty graph; disconnected pairs are ignored.
pub fn exact_diameter(graph: &CsrGraph) -> Option<Distance> {
    if graph.node_count() == 0 {
        return None;
    }
    let mut best = 0;
    for u in graph.nodes() {
        let d = bfs::bfs_distances(graph, u);
        for &x in &d {
            if x != INFINITY && x > best {
                best = x;
            }
        }
    }
    Some(best)
}

/// Estimate of the diameter via the double-sweep heuristic repeated
/// `sweeps` times from random start nodes: BFS to the farthest node, then
/// BFS again from there; the second eccentricity is a lower bound on the
/// diameter that is exact on trees and very tight on social graphs.
pub fn double_sweep_diameter<R: Rng>(
    graph: &CsrGraph,
    sweeps: usize,
    rng: &mut R,
) -> Option<Distance> {
    let n = graph.node_count();
    if n == 0 {
        return None;
    }
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut best = 0;
    for _ in 0..sweeps.max(1) {
        let &start = nodes.choose(rng).expect("non-empty");
        let d1 = bfs::bfs_distances(graph, start);
        let far = farthest_reachable(&d1);
        let d2 = bfs::bfs_distances(graph, far);
        let ecc = d2
            .iter()
            .copied()
            .filter(|&x| x != INFINITY)
            .max()
            .unwrap_or(0);
        best = best.max(ecc);
    }
    Some(best)
}

fn farthest_reachable(distances: &[Distance]) -> NodeId {
    let mut best_node = 0;
    let mut best_dist = 0;
    for (i, &d) in distances.iter().enumerate() {
        if d != INFINITY && d >= best_dist {
            best_dist = d;
            best_node = i as NodeId;
        }
    }
    best_node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::classic;
    use rand::SeedableRng;

    #[test]
    fn exact_diameter_of_path() {
        let g = classic::path(6);
        assert_eq!(exact_diameter(&g), Some(5));
    }

    #[test]
    fn exact_diameter_of_complete_graph() {
        let g = classic::complete(5);
        assert_eq!(exact_diameter(&g), Some(1));
    }

    #[test]
    fn exact_diameter_empty_graph() {
        let g = GraphBuilder::new().build_undirected();
        assert_eq!(exact_diameter(&g), None);
    }

    #[test]
    fn exact_diameter_ignores_disconnection() {
        let mut b = GraphBuilder::with_node_count(5);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        let g = b.build_undirected();
        assert_eq!(exact_diameter(&g), Some(2));
    }

    #[test]
    fn double_sweep_is_exact_on_trees_and_bounded_by_diameter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = classic::path(20); // a tree
        let ds = double_sweep_diameter(&g, 3, &mut rng).unwrap();
        assert_eq!(ds, 19);

        let grid = classic::grid(5, 5);
        let exact = exact_diameter(&grid).unwrap();
        let est = double_sweep_diameter(&grid, 5, &mut rng).unwrap();
        assert!(est <= exact);
        assert!(est >= exact / 2); // double sweep is at least half the diameter
    }

    #[test]
    fn double_sweep_empty_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let g = GraphBuilder::new().build_undirected();
        assert_eq!(double_sweep_diameter(&g, 2, &mut rng), None);
    }
}
