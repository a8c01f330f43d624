//! Plain edge-list reading and writing.
//!
//! The format is one edge per line: two unsigned decimal node ids (ASCII
//! digits only, no sign) separated by ASCII whitespace (space, tab, CR,
//! VT, FF) and/or commas. Blank lines, and lines whose first byte after
//! any separators is `#`, are ignored; a line ends at `\n`, so CRLF files
//! load too. This matches the distribution format of the real Digg2009
//! friendship file, so a downloaded copy can be loaded directly:
//!
//! ```text
//! # follower followee
//! 0 1
//! 0 2
//! 17 3
//! ```
//!
//! There is one parser and one CSR builder, in [`crate::streaming`]:
//! [`read_edge_list`] runs them over an in-memory copy of its input, and
//! [`crate::streaming::load_edge_list_path`] over a file scanned twice.

use crate::{streaming, Result};
use rumor_net::graph::{EdgeKind, Graph};
use std::io::{Read, Write};

/// Parses an edge list from a reader.
///
/// Node ids may be arbitrary `u64` values; they are compacted to dense
/// ids `0..n` in first-appearance order. The whole input is read into
/// memory once, then [`crate::streaming`]'s two passes run over those
/// bytes, so a pipe loads as well as a file. Pass `&mut reader` if you
/// need the reader afterwards.
///
/// # Errors
///
/// * [`DatasetError::ParseError`](crate::DatasetError::ParseError) for
///   malformed lines (with 1-based line numbers).
/// * [`DatasetError::Io`](crate::DatasetError::Io) for read failures.
/// * [`DatasetError::InvalidConfig`](crate::DatasetError::InvalidConfig)
///   past `u32::MAX` distinct nodes.
/// * [`DatasetError::Net`](crate::DatasetError::Net) if graph
///   construction fails.
pub fn read_edge_list<R: Read>(mut reader: R, kind: EdgeKind) -> Result<Graph> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(streaming::ingest(kind, || Ok(&bytes[..]))?.0)
}

/// Writes a graph as an edge list (one `u v` line per stored input edge;
/// undirected edges are written once in the `u <= v` orientation).
///
/// # Errors
///
/// Returns [`DatasetError::Io`](crate::DatasetError::Io) on write failures.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    writeln!(writer, "# nodes: {}", graph.node_count())?;
    match graph.kind() {
        EdgeKind::Directed => {
            for (u, v) in graph.iter_arcs() {
                writeln!(writer, "{u} {v}")?;
            }
        }
        EdgeKind::Undirected => {
            for (u, v) in graph.iter_arcs() {
                if u <= v {
                    writeln!(writer, "{u} {v}")?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetError;

    #[test]
    fn parses_basic_file() {
        let data = "# comment\n0 1\n1 2\n\n2 0\n";
        let g = read_edge_list(data.as_bytes(), EdgeKind::Undirected).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn compacts_sparse_ids() {
        let data = "100 900\n900 7\n";
        let g = read_edge_list(data.as_bytes(), EdgeKind::Directed).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn accepts_commas_and_mixed_whitespace() {
        let data = "0,1\n1\t2\n 2  3 \n";
        let g = read_edge_list(data.as_bytes(), EdgeKind::Undirected).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn malformed_lines_reported_with_line_numbers() {
        let data = "0 1\nnot numbers\n";
        let err = read_edge_list(data.as_bytes(), EdgeKind::Undirected).unwrap_err();
        match err {
            DatasetError::ParseError { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let data = "0\n";
        assert!(matches!(
            read_edge_list(data.as_bytes(), EdgeKind::Undirected),
            Err(DatasetError::ParseError { line: 1, .. })
        ));
        let data = "0 1 2\n";
        assert!(matches!(
            read_edge_list(data.as_bytes(), EdgeKind::Undirected),
            Err(DatasetError::ParseError { line: 1, .. })
        ));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes(), EdgeKind::Undirected).unwrap();
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn roundtrip_undirected() {
        let data = "0 1\n1 2\n2 3\n";
        let g = read_edge_list(data.as_bytes(), EdgeKind::Undirected).unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(out.as_slice(), EdgeKind::Undirected).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for u in 0..g.node_count() {
            assert_eq!(g.neighbors(u), g2.neighbors(u));
        }
    }

    #[test]
    fn roundtrip_directed() {
        let data = "0 1\n2 1\n";
        let g = read_edge_list(data.as_bytes(), EdgeKind::Directed).unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(out.as_slice(), EdgeKind::Directed).unwrap();
        assert_eq!(g2.edge_count(), 2);
        assert!(g2.has_edge(0, 1));
        assert!(!g2.has_edge(1, 0));
    }
}
