//! Loading the *real* datasets when available.
//!
//! The paper's datasets are public but large (the Orkut crawl alone is
//! several GB as an edge list) and not redistributable inside this
//! repository. If you download them — DBLP from \[18\], LiveJournal from
//! SNAP \[14\], Flickr/Orkut from the Mislove et al. measurement study \[9\] —
//! place the edge lists in a directory and point `VICINITY_DATA_DIR` at it:
//!
//! ```text
//! $VICINITY_DATA_DIR/
//!   dblp.txt
//!   flickr.txt
//!   orkut.txt
//!   livejournal.txt
//! ```
//!
//! Every experiment binary then runs on the real data instead of the
//! synthetic stand-ins, with no code changes.

use std::path::{Path, PathBuf};

use vicinity_graph::algo::components::largest_connected_component;
use vicinity_graph::io::edge_list;

use crate::registry::{Dataset, StandIn};

/// File name expected for each dataset inside `VICINITY_DATA_DIR`.
pub fn expected_file_name(which: StandIn) -> &'static str {
    match which {
        StandIn::Dblp => "dblp.txt",
        StandIn::Flickr => "flickr.txt",
        StandIn::Orkut => "orkut.txt",
        StandIn::LiveJournal => "livejournal.txt",
    }
}

/// The directory configured via `VICINITY_DATA_DIR`, if set.
pub fn data_dir() -> Option<PathBuf> {
    std::env::var_os("VICINITY_DATA_DIR").map(PathBuf::from)
}

/// Try to load the real edge list for `which` from `dir` (the directory
/// `VICINITY_DATA_DIR` names, see [`data_dir`]). Returns `None` when the
/// file is missing or fails to parse (a parse failure is reported on
/// stderr so a typo in the data directory does not silently fall back to
/// synthetic data).
pub fn try_load_real(dir: &Path, which: StandIn) -> Option<Dataset> {
    let path = dir.join(expected_file_name(which));
    if !path.exists() {
        return None;
    }
    match load_edge_list_file(&path, which.name()) {
        Ok(dataset) => Some(dataset),
        Err(err) => {
            eprintln!(
                "warning: failed to load {}: {err}; using synthetic stand-in",
                path.display()
            );
            None
        }
    }
}

/// Load any edge-list file as a dataset (largest connected component,
/// undirected). The dataset name is the file stem unless `name` is given.
pub fn load_edge_list_file(path: &Path, name: &str) -> Result<Dataset, vicinity_graph::GraphError> {
    let parsed = edge_list::load_undirected(path)?;
    let lcc = largest_connected_component(&parsed.graph);
    Ok(Dataset {
        name: name.to_string(),
        graph: lcc.graph,
        stand_in: None,
        from_real_data: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vicinity_graph::generators::classic;
    use vicinity_graph::io::edge_list::save_edge_list;

    #[test]
    fn expected_file_names_are_distinct() {
        let names: std::collections::HashSet<_> = StandIn::all()
            .iter()
            .map(|&s| expected_file_name(s))
            .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn load_edge_list_file_extracts_largest_component() {
        let dir = std::env::temp_dir().join(format!("vicinity-loader-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.txt");
        // A 10-cycle plus a separate edge: the loader keeps only the cycle.
        let mut content = String::from("# toy graph\n");
        for i in 0..10u32 {
            content.push_str(&format!("{} {}\n", i, (i + 1) % 10));
        }
        content.push_str("100 101\n");
        std::fs::write(&path, content).unwrap();
        let d = load_edge_list_file(&path, "toy").unwrap();
        assert_eq!(d.name, "toy");
        assert!(d.from_real_data);
        assert_eq!(d.graph.node_count(), 10);
        assert_eq!(d.graph.edge_count(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_load_real_uses_data_dir() {
        let dir =
            std::env::temp_dir().join(format!("vicinity-datadir-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // No file: no real data.
        assert!(try_load_real(&dir, StandIn::Dblp).is_none());
        // With a file: loaded as real data.
        let g = classic::grid(5, 5);
        save_edge_list(&g, dir.join("dblp.txt")).unwrap();
        let d = try_load_real(&dir, StandIn::Dblp).expect("file exists now");
        assert!(d.from_real_data);
        assert_eq!(d.graph.node_count(), 25);
        // A malformed file falls back to None (with a warning).
        std::fs::write(dir.join("flickr.txt"), "not an edge list\n").unwrap();
        assert!(try_load_real(&dir, StandIn::Flickr).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(load_edge_list_file(Path::new("/no/such/file.txt"), "x").is_err());
    }
}
