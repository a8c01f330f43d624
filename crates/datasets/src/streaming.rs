//! Edge-list ingest: one line grammar and one O(input size) CSR build.
//!
//! Both entry points run the same parser (`parse_line`, the grammar of
//! [`crate::edgelist`]) and the same [`StreamingCsrBuilder`]:
//! [`load_edge_list_path`] scans a file twice, and
//! [`crate::edgelist::read_edge_list`] reads any reader into memory once
//! and scans those bytes twice. The build runs in three steps:
//!
//! 1. **Pass 1 (degree histogram):** one sequential scan parses edges
//!    from a reused byte buffer (no per-line `String`), interns raw node
//!    ids to dense ids in first-appearance order, and counts per-node
//!    degrees.
//! 2. **Exact allocation:** offsets (`n + 1`) and targets (`Σ degrees`)
//!    are sized from the histogram — no growth, no reallocation.
//! 3. **Pass 2 (placement):** a second sequential scan drops each arc
//!    into its final CSR slot via a cursor array.
//!
//! Total work is two sequential scans plus one exact-sized allocation —
//! O(input size), independent of edge multiplicity or id sparsity. The
//! result is the [`Graph::from_edges`] layout of the parsed edges with
//! ids compacted in first-appearance order, adjacency sorted; the tests
//! hold both entry points to `Graph::from_edges` on the edges they
//! rendered.
//!
//! For edge sources that are not files (e.g. deterministic synthetic
//! generators), [`StreamingCsrBuilder`] exposes the same two-phase
//! protocol directly: replay the edge stream once into
//! [`StreamingCsrBuilder::count`], call
//! [`StreamingCsrBuilder::start_placement`], replay it again into
//! [`StreamingCsrBuilder::place`], and [`StreamingCsrBuilder::finish`].

use crate::{DatasetError, Result};
use rumor_net::graph::{EdgeKind, Graph};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Interns arbitrary `u64` node ids to dense `0..n` ids in
/// first-appearance order. Small ids (the overwhelmingly common case:
/// edge lists numbered from 0 or 1) go through a direct-mapped table;
/// larger ids fall back to a hash map.
struct IdInterner {
    /// Direct map for raw ids below [`IdInterner::DIRECT_LIMIT`];
    /// `u32::MAX` marks "unseen". Grows to the largest small id seen
    /// (amortized, per distinct node — never per edge).
    direct: Vec<u32>,
    /// Fallback for sparse ids at or above the direct limit.
    sparse: HashMap<u64, u32>,
    /// How many sparse slots are currently reserved ahead of use; the
    /// map is re-reserved in geometric slabs (seeded from the node
    /// count at first fallback) instead of rehashing per doubling.
    sparse_reserved: usize,
    next: u32,
}

impl IdInterner {
    /// Raw ids below this use the O(1) direct table (64 MiB worst case).
    const DIRECT_LIMIT: u64 = 1 << 24;

    fn new() -> Self {
        IdInterner {
            direct: Vec::new(),
            sparse: HashMap::new(),
            sparse_reserved: 0,
            next: 0,
        }
    }

    fn len(&self) -> usize {
        self.next as usize
    }

    /// Dense id for `raw`, assigning the next free id on first sight.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] past `u32::MAX` nodes
    /// (the CSR stores targets as `u32`).
    fn intern(&mut self, raw: u64) -> Result<u32> {
        let slot = if raw < Self::DIRECT_LIMIT {
            let idx = raw as usize;
            if idx >= self.direct.len() {
                self.direct.resize(idx + 1, u32::MAX);
            }
            if self.direct[idx] != u32::MAX {
                return Ok(self.direct[idx]);
            }
            None
        } else {
            if let Some(&id) = self.sparse.get(&raw) {
                return Ok(id);
            }
            Some(raw)
        };
        if self.next == u32::MAX {
            return Err(DatasetError::InvalidConfig(
                "edge list exceeds u32::MAX distinct nodes".into(),
            ));
        }
        let id = self.next;
        self.next += 1;
        match slot {
            None => self.direct[raw as usize] = id,
            Some(raw) => {
                if self.sparse.len() == self.sparse_reserved {
                    // The degree-histogram pass has already told us how
                    // many nodes exist so far: seed the fallback's
                    // capacity from that count (sparse tails are
                    // typically a fixed fraction of the id space) and
                    // grow it in geometric slabs, so a multi-million-id
                    // tail rehashes O(log n) times instead of at every
                    // HashMap doubling.
                    let slab = self.sparse_reserved.max(self.len() / 8).max(1024);
                    self.sparse.reserve(slab);
                    self.sparse_reserved += slab;
                }
                self.sparse.insert(raw, id);
            }
        }
        Ok(id)
    }

    /// Dense id for a `raw` id that pass 1 must already have seen.
    fn lookup(&self, raw: u64) -> Option<u32> {
        if raw < Self::DIRECT_LIMIT {
            self.direct
                .get(raw as usize)
                .copied()
                .filter(|&id| id != u32::MAX)
        } else {
            self.sparse.get(&raw).copied()
        }
    }
}

/// Throughput accounting for one streaming ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Bytes scanned per pass (the file size for path-based ingest).
    pub bytes: u64,
    /// Input edges parsed (each undirected edge counted once).
    pub edges: u64,
    /// Distinct nodes after id compaction.
    pub nodes: u64,
}

/// Two-phase streaming CSR builder: feed every edge once to [`count`],
/// then [`start_placement`], feed the same edges in the same order to
/// [`place`], and [`finish`].
///
/// [`count`]: StreamingCsrBuilder::count
/// [`start_placement`]: StreamingCsrBuilder::start_placement
/// [`place`]: StreamingCsrBuilder::place
/// [`finish`]: StreamingCsrBuilder::finish
///
/// # Example
///
/// ```
/// use rumor_datasets::streaming::StreamingCsrBuilder;
/// use rumor_net::graph::EdgeKind;
///
/// # fn main() -> Result<(), rumor_datasets::DatasetError> {
/// let edges = [(0u64, 1u64), (1, 2), (2, 0)];
/// let mut b = StreamingCsrBuilder::new(EdgeKind::Undirected);
/// for &(u, v) in &edges {
///     b.count(u, v)?;
/// }
/// b.start_placement();
/// for &(u, v) in &edges {
///     b.place(u, v)?;
/// }
/// let (graph, stats) = b.finish()?;
/// assert_eq!(graph.node_count(), 3);
/// assert_eq!(stats.edges, 3);
/// # Ok(())
/// # }
/// ```
pub struct StreamingCsrBuilder {
    kind: EdgeKind,
    interner: IdInterner,
    /// Per-node arc counts (pass 1), then placement cursors (pass 2).
    counts: Vec<u32>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    edges_pass1: u64,
    edges_pass2: u64,
    placing: bool,
}

impl StreamingCsrBuilder {
    /// A fresh builder in the counting phase.
    pub fn new(kind: EdgeKind) -> Self {
        StreamingCsrBuilder {
            kind,
            interner: IdInterner::new(),
            counts: Vec::new(),
            offsets: Vec::new(),
            targets: Vec::new(),
            edges_pass1: 0,
            edges_pass2: 0,
            placing: false,
        }
    }

    /// Pass-1 observation of one edge: interns both endpoints and bumps
    /// the degree histogram. No per-edge allocation (the per-*node*
    /// tables grow amortized on first sight of each node).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when called after
    /// [`StreamingCsrBuilder::start_placement`] or past `u32::MAX` nodes.
    pub fn count(&mut self, u_raw: u64, v_raw: u64) -> Result<()> {
        if self.placing {
            return Err(DatasetError::InvalidConfig(
                "count() called after start_placement()".into(),
            ));
        }
        let u = self.interner.intern(u_raw)? as usize;
        let v = self.interner.intern(v_raw)? as usize;
        let needed = self.interner.len();
        if needed > self.counts.len() {
            self.counts.resize(needed, 0);
        }
        self.counts[u] += 1;
        if self.kind == EdgeKind::Undirected {
            self.counts[v] += 1;
        }
        self.edges_pass1 += 1;
        Ok(())
    }

    /// Seals the histogram: allocates offsets and targets exactly once,
    /// exactly sized, and turns `counts` into placement cursors.
    pub fn start_placement(&mut self) {
        if self.placing {
            return;
        }
        self.placing = true;
        let n = self.interner.len();
        self.counts.resize(n, 0);
        self.offsets = Vec::with_capacity(n + 1);
        self.offsets.push(0);
        let mut total = 0usize;
        for (node, &c) in self.counts.iter().enumerate() {
            total += c as usize;
            self.offsets.push(total);
            // Reuse counts as the pass-2 cursor array (start offsets).
            let _ = node;
        }
        self.targets = vec![0u32; total];
        // counts[i] becomes the write cursor for node i.
        for (i, c) in self.counts.iter_mut().enumerate() {
            *c = self.offsets[i] as u32;
        }
    }

    /// Pass-2 placement of one edge into its final CSR slot(s). The edge
    /// stream must be replayed in the same order as pass 1.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if placement was not
    /// started, an id was never counted, or more edges are placed than
    /// were counted (a non-deterministic replay).
    pub fn place(&mut self, u_raw: u64, v_raw: u64) -> Result<()> {
        if !self.placing {
            return Err(DatasetError::InvalidConfig(
                "place() called before start_placement()".into(),
            ));
        }
        if self.edges_pass2 == self.edges_pass1 {
            return Err(DatasetError::InvalidConfig(
                "more edges placed than counted (replay is not deterministic)".into(),
            ));
        }
        let missing = |raw: u64| {
            DatasetError::InvalidConfig(format!(
                "node id {raw} appeared in pass 2 but not in pass 1"
            ))
        };
        let u = self.interner.lookup(u_raw).ok_or_else(|| missing(u_raw))? as usize;
        let v = self.interner.lookup(v_raw).ok_or_else(|| missing(v_raw))?;
        self.targets[self.counts[u] as usize] = v;
        self.counts[u] += 1;
        if self.kind == EdgeKind::Undirected {
            let vu = v as usize;
            self.targets[self.counts[vu] as usize] = u as u32;
            self.counts[vu] += 1;
        }
        self.edges_pass2 += 1;
        Ok(())
    }

    /// Finalizes the CSR into a [`Graph`] (adjacency sorted, identical
    /// to the [`Graph::from_edges`] layout) plus ingest statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if the two passes saw
    /// different edge counts, and propagates CSR validation failures.
    pub fn finish(mut self) -> Result<(Graph, IngestStats)> {
        self.start_placement(); // no-op unless the edge stream was empty
        if self.edges_pass2 != self.edges_pass1 {
            return Err(DatasetError::InvalidConfig(format!(
                "pass 1 counted {} edges but pass 2 placed {}",
                self.edges_pass1, self.edges_pass2
            )));
        }
        let stats = IngestStats {
            bytes: 0,
            edges: self.edges_pass1,
            nodes: self.interner.len() as u64,
        };
        let graph = Graph::from_csr_parts(
            self.offsets,
            self.targets,
            self.kind,
            self.edges_pass1 as usize,
        )?;
        Ok((graph, stats))
    }
}

/// Parses one edge-list line, its `\n` stripped (shared by both passes
/// of both entry points): `Ok(None)` for comments/blank lines,
/// `Ok(Some((u, v)))` for an edge.
///
/// The grammar of [`crate::edgelist`]: two unsigned decimal ids
/// separated by ASCII whitespace (space, tab, CR, VT, FF) and/or commas,
/// and `#` as the first byte after any separators for a comment.
fn parse_line(line: &[u8], lineno: usize) -> Result<Option<(u64, u64)>> {
    let mut i = 0;
    let n = line.len();
    while i < n && is_sep(line[i]) {
        i += 1;
    }
    if i == n || line[i] == b'#' {
        return Ok(None);
    }
    let parse_id = |i: &mut usize| -> Result<u64> {
        let start = *i;
        let mut value: u64 = 0;
        while *i < n && !is_sep(line[*i]) {
            let d = line[*i];
            if !d.is_ascii_digit() {
                return Err(DatasetError::ParseError {
                    line: lineno,
                    message: format!(
                        "invalid node id {:?}",
                        String::from_utf8_lossy(trim_token(&line[start..]))
                    ),
                });
            }
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add((d - b'0') as u64))
                .ok_or_else(|| DatasetError::ParseError {
                    line: lineno,
                    message: "node id overflows u64".into(),
                })?;
            *i += 1;
        }
        if *i == start {
            return Err(DatasetError::ParseError {
                line: lineno,
                message: "expected two node ids".into(),
            });
        }
        Ok(value)
    };
    let u = parse_id(&mut i)?;
    while i < n && is_sep(line[i]) {
        i += 1;
    }
    if i == n {
        return Err(DatasetError::ParseError {
            line: lineno,
            message: "expected two node ids".into(),
        });
    }
    let v = parse_id(&mut i)?;
    while i < n && is_sep(line[i]) {
        i += 1;
    }
    if i != n {
        return Err(DatasetError::ParseError {
            line: lineno,
            message: "expected exactly two node ids".into(),
        });
    }
    Ok(Some((u, v)))
}

/// The separators of the edge-list grammar: ASCII whitespace (space,
/// tab, CR, VT, FF) and commas.
fn is_sep(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b',' | b'\r' | 0x0b | 0x0c)
}

/// The leading non-separator run of `token`, for error messages.
fn trim_token(token: &[u8]) -> &[u8] {
    let end = token.iter().position(|&b| is_sep(b)).unwrap_or(token.len());
    &token[..end]
}

/// One sequential scan of `reader`, feeding parsed edges to `sink`.
/// Lines are read into a reused buffer — no per-line `String`.
fn scan<R: BufRead>(mut reader: R, mut sink: impl FnMut(u64, u64) -> Result<()>) -> Result<u64> {
    let mut buf = Vec::with_capacity(256);
    let mut bytes = 0u64;
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = reader.read_until(b'\n', &mut buf)?;
        if read == 0 {
            return Ok(bytes);
        }
        bytes += read as u64;
        lineno += 1;
        let line = if buf.last() == Some(&b'\n') {
            &buf[..buf.len() - 1]
        } else {
            &buf[..]
        };
        if let Some((u, v)) = parse_line(line, lineno)? {
            sink(u, v)?;
        }
    }
}

/// Streaming edge-list load from a path: two sequential scans of the
/// file, exact-sized CSR allocation, no per-edge or per-line heap
/// growth. The same parser and builder as
/// [`crate::edgelist::read_edge_list`], so the same bytes give the same
/// [`Graph`].
///
/// # Errors
///
/// * [`DatasetError::Io`] for open/read failures.
/// * [`DatasetError::ParseError`] for malformed lines (with 1-based line
///   numbers).
/// * [`DatasetError::InvalidConfig`] past `u32::MAX` distinct nodes.
/// * [`DatasetError::Net`] if CSR validation fails.
pub fn load_edge_list_path<P: AsRef<Path>>(
    path: P,
    kind: EdgeKind,
) -> Result<(Graph, IngestStats)> {
    let path = path.as_ref();
    ingest(kind, || {
        Ok(BufReader::with_capacity(
            1 << 20,
            std::fs::File::open(path)?,
        ))
    })
}

/// The two-pass build over the byte stream `open` returns, called once
/// per pass: pass 1 counts, pass 2 places. `bytes` in the returned stats
/// is one pass's length.
pub(crate) fn ingest<R: BufRead>(
    kind: EdgeKind,
    mut open: impl FnMut() -> Result<R>,
) -> Result<(Graph, IngestStats)> {
    let mut builder = StreamingCsrBuilder::new(kind);
    let bytes = scan(open()?, |u, v| builder.count(u, v))?;
    builder.start_placement();
    scan(open()?, |u, v| builder.place(u, v))?;
    let (graph, mut stats) = builder.finish()?;
    stats.bytes = bytes;
    Ok((graph, stats))
}

#[cfg(test)]
#[path = "../tests/support/from_edges_oracle.rs"]
mod from_edges_oracle;

#[cfg(test)]
mod tests {
    use super::from_edges_oracle::expected;
    use super::*;
    use crate::edgelist::read_edge_list;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn write_temp(contents: impl AsRef<[u8]>) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "rumor_streaming_test_{}_{}.txt",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, contents).unwrap();
        path
    }

    /// Loads `data` through both entry points, demands the oracle's graph
    /// from each, and returns the path load's stats.
    fn assert_both_load(data: &[u8], edges: &[(u64, u64)], kind: EdgeKind) -> IngestStats {
        let (want, shown) = (expected(edges, kind), String::from_utf8_lossy(data));
        let path = write_temp(data);
        let (g, stats) = load_edge_list_path(&path, kind).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(g, want, "path load of {shown:?}");
        assert_eq!(read_edge_list(data, kind).unwrap(), want, "{shown:?}");
        stats
    }

    #[test]
    fn streaming_matches_in_memory_on_basic_file() {
        let data = "# comment\n0 1\n1 2\n\n2 0\n";
        for kind in [EdgeKind::Undirected, EdgeKind::Directed] {
            let stats = assert_both_load(data.as_bytes(), &[(0, 1), (1, 2), (2, 0)], kind);
            assert_eq!(stats.edges, 3);
            assert_eq!(stats.nodes, 3);
            assert_eq!(stats.bytes, data.len() as u64);
        }
    }

    #[test]
    fn streaming_compacts_sparse_and_large_ids() {
        // 40_000_000 is above the interner's direct-map limit.
        let data = b"100 900\n900 7\n40000000 100\n";
        let edges = [(100, 900), (900, 7), (40_000_000, 100)];
        let stats = assert_both_load(data, &edges, EdgeKind::Directed);
        assert_eq!(stats.nodes, 4);
    }

    #[test]
    fn streaming_accepts_commas_and_mixed_whitespace() {
        // ASCII whitespace or commas between ids, `#` after any
        // separators for a comment, any bytes in a comment.
        let kind = EdgeKind::Undirected;
        assert_both_load(b"0,1\n1\t2\n 2  3 \n", &[(0, 1), (1, 2), (2, 3)], kind);
        for one_edge in [
            &b",# comment\n0 1\n"[..],
            b"# caf\xe9\n0 1\n",
            b"0\r1\n",
            b"0\x0b1\x0c\n",
        ] {
            assert_both_load(one_edge, &[(0, 1)], kind);
        }
    }

    #[test]
    fn streaming_reports_malformed_lines() {
        for (data, bad_line) in [
            ("0 1\nnot numbers\n", 2),
            ("0\n", 1),
            ("0 1 2\n", 1),
            ("0 -1\n", 1),
            ("0 1\n+1 2\n", 2),
            ("0 1\n1\u{a0}2\n", 2),
            ("0 1\n1\u{2003}2\n", 2),
            ("18446744073709551616 1\n", 1),
        ] {
            let path = write_temp(data);
            let err = load_edge_list_path(&path, EdgeKind::Undirected).unwrap_err();
            let _ = std::fs::remove_file(path);
            match &err {
                DatasetError::ParseError { line, .. } => assert_eq!(*line, bad_line, "{data:?}"),
                other => panic!("unexpected error {other:?} for {data:?}"),
            }
            let from_reader = read_edge_list(data.as_bytes(), EdgeKind::Undirected).unwrap_err();
            assert_eq!(err.to_string(), from_reader.to_string(), "{data:?}");
        }
    }

    #[test]
    fn empty_file_gives_empty_graph() {
        let path = write_temp("");
        let (g, stats) = load_edge_list_path(&path, EdgeKind::Undirected).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(stats.edges, 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn builder_protocol_misuse_is_rejected() {
        let mut b = StreamingCsrBuilder::new(EdgeKind::Directed);
        assert!(b.place(0, 1).is_err(), "place before start_placement");
        b.count(0, 1).unwrap();
        b.start_placement();
        assert!(b.count(1, 2).is_err(), "count after start_placement");
        b.place(0, 1).unwrap();
        assert!(b.place(0, 1).is_err(), "more placed than counted");

        let mut b = StreamingCsrBuilder::new(EdgeKind::Directed);
        b.count(0, 1).unwrap();
        b.start_placement();
        assert!(b.place(5, 1).is_err(), "unseen id in pass 2");

        let mut b = StreamingCsrBuilder::new(EdgeKind::Directed);
        b.count(0, 1).unwrap();
        b.count(1, 2).unwrap();
        b.start_placement();
        b.place(0, 1).unwrap();
        assert!(b.finish().is_err(), "fewer placed than counted");
    }

    #[test]
    fn self_loops_and_duplicates_match_in_memory() {
        let data = b"0 0\n0 1\n0 1\n1 0\n";
        for kind in [EdgeKind::Undirected, EdgeKind::Directed] {
            assert_both_load(data, &[(0, 0), (0, 1), (0, 1), (1, 0)], kind);
        }
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let data = "0 1\r\n1 2\r\n";
        let path = write_temp(data);
        let (g, _) = load_edge_list_path(&path, EdgeKind::Undirected).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let _ = std::fs::remove_file(path);
    }
}
