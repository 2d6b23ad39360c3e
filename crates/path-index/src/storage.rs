//! Binary serialization of a [`PathIndex`] — the "disk" of the paper's
//! Section 6.1.
//!
//! The paper assumes "that the graph cannot fit in memory and … can
//! only be stored on disk" (HyperGraphDB). We reproduce the storage
//! boundary with a compact little-endian binary format; Table 1's
//! *Space* column is the byte length produced here, and the cold-cache
//! configuration of Figure 6 deserializes before each query run.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic  b"SAMAIDX1"
//! vocab  u32 count, then per label: u8 kind, u32 len, utf-8 bytes
//! nodes  u32 count, then per node: u32 label id
//! edges  u32 count, then per edge: u32 from, u32 to, u32 label id
//! paths  u32 count, then per path: u32 k, k×u32 node ids, (k-1)×u32 edge ids
//! stats  u64 triples, hv, he, path_count, depth_truncated, dropped,
//!        build_time (ns)
//! ```
//!
//! The inverted label/sink maps are rebuilt on load (cheaper to rebuild
//! than to store, and keeping them out of the format makes every stored
//! byte independently verifiable).

use crate::index::{IndexedPath, PathIndex};
use crate::path::Path;
use crate::stats::IndexStats;
use bytes::{Buf, BufMut};
use rdf_model::{DataGraph, EdgeId, Graph, LabelId, NodeId, TermKind};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"SAMAIDX1";

/// Errors raised while decoding a serialized index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A kind byte, label id, node id or edge id was out of range.
    Corrupt(&'static str),
    /// A section's element count or byte offset exceeds the format's
    /// `u32` range — the index is too large for this format.
    TooLarge(&'static str),
    /// An I/O error while opening or reading an index file.
    Io(String),
    /// A `SAMAIDX2` file written before the shape table: it cannot be
    /// served in place — decode it once ([`crate::decode_v2`]) and
    /// serve the image of the result.
    LegacyLayout,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::BadMagic => write!(f, "not a Sama index (bad magic)"),
            StorageError::Truncated => write!(f, "serialized index is truncated"),
            StorageError::BadUtf8 => write!(f, "invalid UTF-8 in label table"),
            StorageError::Corrupt(what) => write!(f, "corrupt index: {what}"),
            StorageError::TooLarge(what) => {
                write!(f, "index too large for format: {what} exceeds u32 range")
            }
            StorageError::Io(err) => write!(f, "index i/o error: {err}"),
            StorageError::LegacyLayout => {
                write!(f, "index was written in a superseded SAMAIDX2 layout")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Serialize `index` and record the byte length in its stats.
///
/// # Errors
/// [`StorageError::TooLarge`] if any section exceeds the format's
/// `u32` count range.
pub fn serialize_index(index: &mut PathIndex) -> Result<Vec<u8>, StorageError> {
    let bytes = encode(index)?;
    index.set_serialized_bytes(bytes.len());
    Ok(bytes)
}

/// Convert a length to the on-disk `u32` count representation, refusing
/// (rather than silently truncating) anything past 4G-1 elements.
pub(crate) fn try_u32(n: usize, what: &'static str) -> Result<u32, StorageError> {
    u32::try_from(n).map_err(|_| StorageError::TooLarge(what))
}

fn put_count(buf: &mut Vec<u8>, n: usize, what: &'static str) -> Result<(), StorageError> {
    buf.put_u32_le(try_u32(n, what)?);
    Ok(())
}

/// Serialize without mutating stats (for size probes).
///
/// # Errors
/// [`StorageError::TooLarge`] if any section exceeds the format's
/// `u32` count range.
pub fn encode(index: &PathIndex) -> Result<Vec<u8>, StorageError> {
    let graph = index.graph().as_graph();
    let vocab = graph.vocab();
    // Size the buffer from every section, not just the edges: for deep
    // indexes the paths section (k + k-1 ids per path) dominates the
    // edge table by an order of magnitude.
    let vocab_bytes: usize = vocab.iter().map(|(_, _, lex)| 5 + lex.len()).sum();
    let path_bytes: usize = index
        .paths()
        .map(|(_, ip)| 4 + (2 * ip.path.nodes.len() - 1) * 4)
        .sum();
    let estimate = MAGIC.len()
        + 4
        + vocab_bytes
        + 4
        + graph.node_count() * 4
        + 4
        + graph.edge_count() * 12
        + 4
        + path_bytes
        + 7 * 8;
    let mut buf = Vec::with_capacity(estimate);
    buf.put_slice(MAGIC);

    // Vocabulary.
    put_count(&mut buf, vocab.len(), "vocabulary entries")?;
    for (_, kind, lexical) in vocab.iter() {
        buf.put_u8(kind_to_byte(kind));
        put_count(&mut buf, lexical.len(), "label bytes")?;
        buf.put_slice(lexical.as_bytes());
    }

    // Nodes.
    put_count(&mut buf, graph.node_count(), "nodes")?;
    for n in graph.nodes() {
        buf.put_u32_le(graph.node_label(n).0);
    }

    // Edges.
    put_count(&mut buf, graph.edge_count(), "edges")?;
    for (_, e) in graph.edges() {
        buf.put_u32_le(e.from.0);
        buf.put_u32_le(e.to.0);
        buf.put_u32_le(e.label.0);
    }

    // Paths.
    put_count(&mut buf, index.path_count(), "paths")?;
    for (_, ip) in index.paths() {
        put_count(&mut buf, ip.path.nodes.len(), "path nodes")?;
        for n in ip.path.nodes.iter() {
            buf.put_u32_le(n.0);
        }
        for e in ip.path.edges.iter() {
            buf.put_u32_le(e.0);
        }
    }

    // Stats.
    let stats = index.stats();
    buf.put_u64_le(stats.triples as u64);
    buf.put_u64_le(stats.hyper_vertices as u64);
    buf.put_u64_le(stats.hyper_edges as u64);
    buf.put_u64_le(stats.path_count as u64);
    buf.put_u64_le(stats.depth_truncated);
    buf.put_u64_le(stats.dropped);
    buf.put_u64_le(stats.build_time.as_nanos() as u64);

    debug_assert!(
        buf.capacity() >= buf.len(),
        "estimate must cover the payload"
    );
    Ok(buf)
}

/// Decode a serialized index.
pub fn decode(mut buf: &[u8]) -> Result<PathIndex, StorageError> {
    sama_obs::fault::point("index.load");
    if buf.remaining() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    buf.advance(MAGIC.len());

    // Vocabulary → rebuilt graph.
    let mut graph = Graph::new();
    let vocab_len = read_u32(&mut buf)? as usize;
    for expected in 0..vocab_len {
        let kind = byte_to_kind(read_u8(&mut buf)?)?;
        let len = read_u32(&mut buf)? as usize;
        if buf.remaining() < len {
            return Err(StorageError::Truncated);
        }
        let lexical = std::str::from_utf8(&buf[..len]).map_err(|_| StorageError::BadUtf8)?;
        let id = graph.vocab_mut().intern_parts(kind, lexical);
        if id.index() != expected {
            // Duplicate label entries would desynchronize every id.
            return Err(StorageError::Corrupt("duplicate vocabulary entry"));
        }
        buf.advance(len);
    }

    // Nodes.
    let node_count = read_u32(&mut buf)? as usize;
    for _ in 0..node_count {
        let label = read_u32(&mut buf)?;
        if label as usize >= vocab_len {
            return Err(StorageError::Corrupt("node label out of range"));
        }
        graph
            .add_node_with_label(LabelId(label))
            .map_err(|_| StorageError::Corrupt("node capacity"))?;
    }

    // Edges.
    let edge_count = read_u32(&mut buf)? as usize;
    for _ in 0..edge_count {
        let from = read_u32(&mut buf)?;
        let to = read_u32(&mut buf)?;
        let label = read_u32(&mut buf)?;
        if label as usize >= vocab_len {
            return Err(StorageError::Corrupt("edge label out of range"));
        }
        graph
            .add_edge_with_label(NodeId(from), NodeId(to), LabelId(label))
            .map_err(|_| StorageError::Corrupt("edge endpoint out of range"))?;
    }

    // Paths. Counts come from untrusted bytes: cap every preallocation
    // by what the remaining buffer could possibly hold (a path takes at
    // least 8 bytes, an id 4), so a corrupt count fails with
    // `Truncated` instead of attempting a huge allocation.
    let path_count = read_u32(&mut buf)? as usize;
    let mut paths = Vec::with_capacity(path_count.min(buf.remaining() / 8));
    for _ in 0..path_count {
        let k = read_u32(&mut buf)? as usize;
        if k == 0 {
            return Err(StorageError::Corrupt("empty path"));
        }
        if buf.remaining() / 4 < 2 * k - 1 {
            return Err(StorageError::Truncated); // k nodes + k-1 edges
        }
        let mut nodes = Vec::with_capacity(k);
        for _ in 0..k {
            let n = read_u32(&mut buf)?;
            if n as usize >= node_count {
                return Err(StorageError::Corrupt("path node out of range"));
            }
            nodes.push(NodeId(n));
        }
        let mut edges = Vec::with_capacity(k - 1);
        for _ in 0..k - 1 {
            let e = read_u32(&mut buf)?;
            if e as usize >= edge_count {
                return Err(StorageError::Corrupt("path edge out of range"));
            }
            edges.push(EdgeId(e));
        }
        let path = Path::new(nodes, edges);
        let labels = path.labels(&graph);
        paths.push(IndexedPath::new(path, labels));
    }

    // Stats.
    let triples = read_u64(&mut buf)? as usize;
    let hyper_vertices = read_u64(&mut buf)? as usize;
    let hyper_edges = read_u64(&mut buf)? as usize;
    let stats_path_count = read_u64(&mut buf)? as usize;
    let depth_truncated = read_u64(&mut buf)?;
    let dropped = read_u64(&mut buf)?;
    let build_time = Duration::from_nanos(read_u64(&mut buf)?);
    if stats_path_count != path_count {
        return Err(StorageError::Corrupt("stats path count mismatch"));
    }

    let data = DataGraph::try_from_graph(graph)
        .map_err(|_| StorageError::Corrupt("variable label in data graph"))?;
    let mut index = PathIndex::from_parts(
        data,
        paths,
        IndexStats {
            triples,
            hyper_vertices,
            hyper_edges,
            path_count,
            build_time,
            serialized_bytes: None,
            depth_truncated,
            dropped,
        },
    );
    index.set_serialized_bytes(total_len_hint(&index));
    Ok(index)
}

/// After decoding we know the byte size equals what `encode` produces;
/// recompute it lazily only when asked. (Cheap enough for stats use.)
fn total_len_hint(index: &PathIndex) -> usize {
    encode(index).map(|b| b.len()).unwrap_or(0)
}

fn kind_to_byte(kind: TermKind) -> u8 {
    match kind {
        TermKind::Iri => 0,
        TermKind::Literal => 1,
        TermKind::Blank => 2,
        TermKind::Variable => 3,
    }
}

fn byte_to_kind(byte: u8) -> Result<TermKind, StorageError> {
    match byte {
        0 => Ok(TermKind::Iri),
        1 => Ok(TermKind::Literal),
        2 => Ok(TermKind::Blank),
        3 => Ok(TermKind::Variable),
        _ => Err(StorageError::Corrupt("unknown term kind")),
    }
}

fn read_u8(buf: &mut &[u8]) -> Result<u8, StorageError> {
    if buf.remaining() < 1 {
        return Err(StorageError::Truncated);
    }
    Ok(buf.get_u8())
}

fn read_u32(buf: &mut &[u8]) -> Result<u32, StorageError> {
    if buf.remaining() < 4 {
        return Err(StorageError::Truncated);
    }
    Ok(buf.get_u32_le())
}

fn read_u64(buf: &mut &[u8]) -> Result<u64, StorageError> {
    if buf.remaining() < 8 {
        return Err(StorageError::Truncated);
    }
    Ok(buf.get_u64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> PathIndex {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A0056").unwrap();
        b.triple_str("A0056", "aTo", "B1432").unwrap();
        b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
        b.triple_str("PD", "gender", "\"Male\"").unwrap();
        PathIndex::build(b.build())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let mut idx = sample_index();
        let bytes = serialize_index(&mut idx).unwrap();
        assert_eq!(idx.stats().serialized_bytes, Some(bytes.len()));

        let loaded = decode(&bytes).unwrap();
        assert_eq!(loaded.path_count(), idx.path_count());
        assert_eq!(loaded.graph().node_count(), idx.graph().node_count());
        assert_eq!(loaded.graph().edge_count(), idx.graph().edge_count());
        assert_eq!(
            loaded.graph().as_graph().to_sorted_lines(),
            idx.graph().as_graph().to_sorted_lines()
        );
        for (id, ip) in idx.paths() {
            assert_eq!(&loaded.path(id).path, &ip.path);
            assert_eq!(&loaded.path(id).labels, &ip.labels);
        }
        assert_eq!(loaded.stats().triples, idx.stats().triples);
        assert_eq!(loaded.stats().hyper_edges, idx.stats().hyper_edges);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(decode(b"NOTANIDX"), Err(StorageError::BadMagic)));
        assert!(matches!(decode(b"shor"), Err(StorageError::BadMagic)));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let mut idx = sample_index();
        let bytes = serialize_index(&mut idx).unwrap();
        // Chopping the buffer at any point must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let result = decode(&bytes[..cut]);
            assert!(result.is_err(), "cut at {cut} decoded successfully");
        }
    }

    #[test]
    fn corrupt_label_id_rejected() {
        let mut idx = sample_index();
        let mut bytes = serialize_index(&mut idx).unwrap();
        // The first node-label u32 sits right after the vocab block;
        // corrupt every u32-aligned position and require no panics.
        for pos in (8..bytes.len().saturating_sub(4)).step_by(4) {
            let original = [bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]];
            bytes[pos..pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = decode(&bytes); // may be Ok or Err; must not panic
            bytes[pos..pos + 4].copy_from_slice(&original);
        }
    }

    #[test]
    fn count_overflow_is_typed_not_truncated() {
        let mut buf = Vec::new();
        assert!(put_count(&mut buf, u32::MAX as usize, "ok").is_ok());
        let err = put_count(&mut buf, u32::MAX as usize + 1, "paths").unwrap_err();
        assert_eq!(err, StorageError::TooLarge("paths"));
        assert_eq!(
            err.to_string(),
            "index too large for format: paths exceeds u32 range"
        );
    }

    #[test]
    fn capacity_estimate_covers_paths_section() {
        // A deep chain: the paths section dominates the edge table, so
        // an edge-only estimate would force reallocation mid-encode.
        let mut b = DataGraph::builder();
        for i in 0..64 {
            b.triple_str(&format!("n{i}"), "p", &format!("n{}", i + 1))
                .unwrap();
        }
        let idx = PathIndex::build(b.build());
        let bytes = encode(&idx).unwrap();
        assert!(!bytes.is_empty());
    }

    #[test]
    fn decode_recomputes_serialized_size() {
        let mut idx = sample_index();
        let bytes = serialize_index(&mut idx).unwrap();
        let loaded = decode(&bytes).unwrap();
        assert_eq!(loaded.stats().serialized_bytes, Some(bytes.len()));
    }
}
