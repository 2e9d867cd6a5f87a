//! SNAP-style plain-text edge lists.
//!
//! Each non-comment line contains two node ids separated by whitespace.
//! Lines starting with `#` or `%` are comments. Node ids do not need to be
//! dense — they are relabelled to `0..n` during parsing, and the mapping is
//! returned so results can be reported in the original id space.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::{GraphError, NodeId, Result};

/// A parsed edge list: the graph plus the mapping from new dense ids back to
/// the original ids found in the file.
#[derive(Debug, Clone)]
pub struct ParsedEdgeList {
    /// The graph with dense node ids.
    pub graph: CsrGraph,
    /// `original_ids[new_id]` is the id that appeared in the input.
    pub original_ids: Vec<u64>,
}

/// Parse an undirected graph from a reader containing an edge list.
pub fn parse_undirected<R: Read>(reader: R) -> Result<ParsedEdgeList> {
    let reader = BufReader::new(reader);
    let mut id_map: HashMap<u64, NodeId> = HashMap::new();
    let mut original_ids: Vec<u64> = Vec::new();
    let mut builder = GraphBuilder::new();

    let intern = |raw: u64, original_ids: &mut Vec<u64>, id_map: &mut HashMap<u64, NodeId>| {
        *id_map.entry(raw).or_insert_with(|| {
            let id = original_ids.len() as NodeId;
            original_ids.push(raw);
            id
        })
    };

    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(GraphError::from)?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(GraphError::Parse {
                line: lineno + 1,
                message: format!("expected two node ids, got '{trimmed}'"),
            });
        };
        let a: u64 = a.parse().map_err(|_| GraphError::Parse {
            line: lineno + 1,
            message: format!("invalid node id '{a}'"),
        })?;
        let b: u64 = b.parse().map_err(|_| GraphError::Parse {
            line: lineno + 1,
            message: format!("invalid node id '{b}'"),
        })?;
        let u = intern(a, &mut original_ids, &mut id_map);
        let v = intern(b, &mut original_ids, &mut id_map);
        builder.add_edge(u, v);
    }

    Ok(ParsedEdgeList {
        graph: builder.build_undirected(),
        original_ids,
    })
}

/// Load an undirected edge list from a file path.
pub fn load_undirected<P: AsRef<Path>>(path: P) -> Result<ParsedEdgeList> {
    let file = std::fs::File::open(path)?;
    parse_undirected(file)
}

/// Write a graph as an edge list (one `u v` pair per line, each undirected
/// edge once) preceded by a comment header.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<()> {
    writeln!(writer, "# vicinity-graph edge list")?;
    writeln!(
        writer,
        "# nodes: {} edges: {}",
        graph.node_count(),
        graph.edge_count()
    )?;
    for (u, v) in graph.edges() {
        writeln!(writer, "{u}\t{v}")?;
    }
    Ok(())
}

/// Save a graph as an edge-list file.
pub fn save_edge_list<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, std::io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn parse_simple_edge_list() {
        let input = "# comment\n1 2\n2 3\n\n% another comment\n3 1\n";
        let parsed = parse_undirected(input.as_bytes()).unwrap();
        assert_eq!(parsed.graph.node_count(), 3);
        assert_eq!(parsed.graph.edge_count(), 3);
        assert_eq!(parsed.original_ids, vec![1, 2, 3]);
    }

    #[test]
    fn parse_relabels_sparse_ids() {
        let input = "1000000 42\n42 7\n";
        let parsed = parse_undirected(input.as_bytes()).unwrap();
        assert_eq!(parsed.graph.node_count(), 3);
        assert_eq!(parsed.original_ids, vec![1_000_000, 42, 7]);
    }

    #[test]
    fn parse_handles_tabs_and_extra_columns() {
        let input = "0\t1\textra ignored\n1\t2\n";
        let parsed = parse_undirected(input.as_bytes()).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
    }

    #[test]
    fn parse_rejects_single_column() {
        let input = "0 1\n5\n";
        let err = parse_undirected(input.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_non_numeric_ids() {
        let input = "a b\n";
        assert!(matches!(
            parse_undirected(input.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn parse_empty_input() {
        let parsed = parse_undirected("".as_bytes()).unwrap();
        assert_eq!(parsed.graph.node_count(), 0);
        let parsed = parse_undirected("# only comments\n".as_bytes()).unwrap();
        assert_eq!(parsed.graph.node_count(), 0);
    }

    #[test]
    fn write_then_parse_round_trip() {
        let g = classic::grid(4, 4);
        let mut buffer = Vec::new();
        write_edge_list(&g, &mut buffer).unwrap();
        let parsed = parse_undirected(buffer.as_slice()).unwrap();
        assert_eq!(parsed.graph.node_count(), g.node_count());
        assert_eq!(parsed.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn file_round_trip() {
        let g = classic::cycle(10);
        let dir = std::env::temp_dir().join("vicinity_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cycle10.txt");
        save_edge_list(&g, &path).unwrap();
        let parsed = load_undirected(&path).unwrap();
        assert_eq!(parsed.graph.edge_count(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_undirected("/nonexistent/path/to/graph.txt").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
