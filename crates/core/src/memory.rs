//! Memory accounting.
//!
//! §3.2 of the paper: "our technique requires √n/4 factor less memory when
//! compared to storing all-pair shortest paths" (≥550× for LiveJournal).
//! This module measures the oracle's actual storage — vicinity entries,
//! derived shell and membership sections, landmark rows — and compares it
//! with the cost of an all-pairs table over the same graph, reproducing
//! that claim.

use crate::index::VicinityOracle;

/// Breakdown of an oracle's memory use, in both entry counts (the unit the
/// paper reports) and bytes (what the process actually allocates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryReport {
    /// Number of nodes in the indexed graph.
    pub nodes: usize,
    /// Total vicinity entries, `Σ_u |Γ(u)|`.
    pub vicinity_entries: u64,
    /// Average entries per node (the paper's "roughly 4√n per node").
    pub entries_per_node: f64,
    /// Expected entries per node predicted by the model `α·√n`.
    pub predicted_entries_per_node: f64,
    /// Exact bytes used by the flat vicinity store (header rows, CSR
    /// offsets, member/distance/predecessor pools, derived shell
    /// and hash-slot arenas).
    pub vicinity_bytes: u64,
    /// Modeled bytes the retired one-`NodeVicinity`-per-node layout would
    /// need for the same index (five private `Vec`s, a per-node struct
    /// header and a per-node hash map). See
    /// [`crate::vicinity::VicinityStore::per_node_layout_bytes`].
    pub per_node_layout_bytes: u64,
    /// Number of landmark rows stored.
    pub landmark_rows: usize,
    /// Bytes used by the landmark rows.
    pub landmark_bytes: u64,
    /// Total bytes (vicinities + landmark rows + landmark set).
    pub total_bytes: u64,
    /// Entries an all-pairs table over the same nodes would need
    /// (ordered pairs, as in the paper's "4.5 trillion entries" example).
    pub apsp_entries: u128,
    /// Ratio `apsp_entries / vicinity_entries` — the paper's headline
    /// "≥550× less memory" number.
    pub entry_savings_factor: f64,
    /// The paper's model for the same ratio, `√n / α`.
    pub predicted_savings_factor: f64,
}

impl MemoryReport {
    /// Measure `oracle`.
    pub fn measure(oracle: &VicinityOracle) -> Self {
        let nodes = oracle.node_count();
        let alpha = oracle.config().alpha.value();
        let vicinity_entries = oracle.total_vicinity_entries();
        let vicinity_bytes = oracle.store.memory_bytes() as u64;
        let per_node_layout_bytes = oracle.store.per_node_layout_bytes();
        let landmark_bytes = oracle.landmark_distances.memory_bytes() as u64;
        let total_bytes =
            vicinity_bytes + landmark_bytes + oracle.landmarks().memory_bytes() as u64;
        let apsp_entries = (nodes as u128) * (nodes.saturating_sub(1) as u128);
        let entries_per_node = if nodes == 0 {
            0.0
        } else {
            vicinity_entries as f64 / nodes as f64
        };
        let sqrt_n = (nodes as f64).sqrt();
        MemoryReport {
            nodes,
            vicinity_entries,
            entries_per_node,
            predicted_entries_per_node: alpha * sqrt_n,
            vicinity_bytes,
            per_node_layout_bytes,
            landmark_rows: oracle.landmarks().len(),
            landmark_bytes,
            total_bytes,
            apsp_entries,
            entry_savings_factor: if vicinity_entries == 0 {
                0.0
            } else {
                apsp_entries as f64 / vicinity_entries as f64
            },
            predicted_savings_factor: if alpha == 0.0 { 0.0 } else { sqrt_n / alpha },
        }
    }

    /// Render a human-readable report (used by the memory experiment binary).
    pub fn to_table(&self) -> String {
        format!(
            "nodes                      {:>16}\n\
             vicinity entries           {:>16}\n\
             entries per node           {:>16.1}\n\
             predicted (alpha*sqrt(n))  {:>16.1}\n\
             vicinity bytes (flat)      {:>16}\n\
             per-node layout (model)    {:>16}\n\
             landmark rows              {:>16}\n\
             landmark bytes             {:>16}\n\
             total bytes                {:>16}\n\
             APSP entries               {:>16}\n\
             entry savings factor       {:>16.1}\n\
             predicted savings factor   {:>16.1}",
            self.nodes,
            self.vicinity_entries,
            self.entries_per_node,
            self.predicted_entries_per_node,
            self.vicinity_bytes,
            self.per_node_layout_bytes,
            self.landmark_rows,
            self.landmark_bytes,
            self.total_bytes,
            self.apsp_entries,
            self.entry_savings_factor,
            self.predicted_savings_factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::OracleBuilder;
    use crate::config::Alpha;
    use vicinity_graph::builder::GraphBuilder;
    use vicinity_graph::generators::social::SocialGraphConfig;

    #[test]
    fn report_on_social_graph() {
        let g = SocialGraphConfig::small_test().generate(111);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).seed(1).build(&g);
        let r = MemoryReport::measure(&oracle);
        assert_eq!(r.nodes, g.node_count());
        assert!(r.vicinity_entries > 0);
        assert!(r.vicinity_bytes > 0);
        assert!(r.landmark_rows > 0);
        assert!(r.landmark_bytes > 0);
        assert!(r.total_bytes >= r.vicinity_bytes + r.landmark_bytes);
        // On small graphs hop quantisation keeps vicinities well below the
        // alpha*sqrt(n) model, so only the upper bound is meaningful here;
        // the model itself is validated on the larger stand-ins by the
        // experiment harness.
        assert!(r.entries_per_node > 0.0);
        assert!(r.entries_per_node < r.predicted_entries_per_node * 4.0);
        // Savings relative to APSP are substantial (and at least the model
        // value, since smaller vicinities mean *more* savings).
        assert!(r.entry_savings_factor > 1.0);
        assert!(r.entry_savings_factor >= r.predicted_savings_factor / 5.0);
        // The flat arena layout must not cost more than the retired
        // one-object-per-node layout it replaced.
        assert!(
            r.vicinity_bytes <= r.per_node_layout_bytes,
            "flat {} vs per-node {}",
            r.vicinity_bytes,
            r.per_node_layout_bytes
        );
        let table = r.to_table();
        assert!(table.contains("APSP entries"));
        assert!(table.contains("savings"));
        assert!(table.contains("per-node layout"));
    }

    #[test]
    fn larger_alpha_means_less_savings() {
        let g = SocialGraphConfig::small_test().generate(112);
        let small = OracleBuilder::new(Alpha::new(1.0).unwrap())
            .seed(2)
            .build(&g);
        let large = OracleBuilder::new(Alpha::new(8.0).unwrap())
            .seed(2)
            .build(&g);
        let rs = MemoryReport::measure(&small);
        let rl = MemoryReport::measure(&large);
        assert!(rs.vicinity_entries < rl.vicinity_entries);
        assert!(rs.entry_savings_factor > rl.entry_savings_factor);
    }

    #[test]
    fn report_on_empty_oracle() {
        let g = GraphBuilder::new().build_undirected();
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT).build(&g);
        let r = MemoryReport::measure(&oracle);
        assert_eq!(r.nodes, 0);
        assert_eq!(r.vicinity_entries, 0);
        assert_eq!(r.apsp_entries, 0);
        assert_eq!(r.entry_savings_factor, 0.0);
        assert_eq!(r.entries_per_node, 0.0);
    }
}
