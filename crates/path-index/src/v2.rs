//! `SAMAIDX2` — the on-disk index format, and the only one: the
//! paper's Section 6.1 disk boundary and Table 1's *Space* column.
//!
//! The whole index — graph, path store, inverted label/sink maps — is
//! laid out as aligned little-endian arrays that are readable **in
//! place** from a single read-only mapping:
//!
//! ```text
//! header   magic b"SAMAIDX2", u32 version (6), u32 section count,
//!          u64 file length                                  (24 bytes)
//! table    21 × { u64 offset, u64 length }                 (336 bytes)
//! sections each 8-byte aligned, in table order:
//!   0 counts        u64 × 5  (vocab, nodes, edges, paths,
//!                             path-edge pool)
//!   1 vocab-kinds   u8  × vocab            term kind per label
//!   2 vocab-offs    u32 × vocab+1          offsets into vocab-blob
//!   3 vocab-blob    utf-8 bytes            concatenated lexical forms
//!   4 node-labels   u32 × nodes            label id per node
//!   5 edge-from     u32 × edges ┐
//!   6 edge-to       u32 × edges ├ edge table, struct-of-arrays
//!   7 edge-label    u32 × edges ┘
//!   8 path-offs     u32 × paths+1          edge-pool offsets (CSR)
//!   9 path-sinks    u32 × paths            sink node id per path
//!  10 path-edges    u32 × pool             edge ids, all paths
//!  11 path-shapes   u32 × paths            shape id per path
//!  12 shape-offs    u32 × shapes+1         shape-pool offsets (CSR)
//!  13 shape-labels  u32 × shape pool       edge labels, one copy per
//!                                          distinct sequence
//!  14 label-offs    u32 × vocab+1          label-posts offsets (CSR)
//!  15 label-posts   u32 × n                postings (path ids,
//!                                          ascending)
//!  16 sink-offs     u32 × vocab+1          sink-posts offsets (CSR)
//!  17 sink-posts    u32 × n                postings (path ids,
//!                                          ascending)
//!  18 stats         u64 × 7                Table 1 numbers
//!  19 ic-counts     u64 × vocab+1          label occurrence counts
//!                                          (total first) for the
//!                                          IC-weighted cost model
//!  20 constants     u32 × cap              constant → label id,
//!                                          open addressing
//! ```
//!
//! The image stores each path as its edges and its sink, and nothing that
//! follows from them. Path `i`'s edges are
//! `path-edges[path-offs[i]..path-offs[i + 1]]`; node `j` of it is the
//! tail of edge `j`, `edge-from[path-edges[…][j]]`, for every node but
//! the last, and the last is `path-sinks[i]` ([`PathNodes`]). A path
//! with no edges — a node whose out-edges all loop back onto it, a walk
//! cut at one node, an isolated node — is its sink alone, with no
//! special case. The conformity function `χ` intersects node *sets*;
//! the combination search gathers and sorts the node lists of the paths
//! it combines itself, once per query (`sama_core::search`), so no
//! per-path node list or sorted copy is stored. A path's node labels
//! are a gather too, node `j`'s label being `node-labels[…]` of its
//! node ([`LabelsRef`]), and its sink label `node-labels[path-sinks[i]]`,
//! so no per-path label copy is stored either.
//!
//! *Path-content order* is ascending by `(nodes, edges)` of each path — what the cluster fill breaks λ ties by. Path ids are
//! numbered in it: path `i` is the `i`-th by content. Every postings run
//! lists its ids strictly ascending, so a candidate list read from this
//! file is already in content order for the fill
//! (`IndexLike::paths_ending_in`).
//!
//! A path's edge labels are its *shape*: the sequence is interned at
//! build time and stored once in the shape pool (`shape-offsets` and
//! `shape-labels`), and each path carries only the shape's id
//! (`path-shapes`). LUBM-like data has tens
//! of distinct sequences under hundreds of thousands of paths, so this
//! is both the smaller encoding and what lets the cluster fill score a
//! shape once instead of a path at a time (`IndexLike::path_shape`).
//!
//! Formats this crate used to write — `SAMAIDX1`, the compressed
//! `SAMAIDXZ`, and every `SAMAIDX2` image of versions 2 to 5 (DESIGN.md
//! §14 lists their layouts) — are recognised from their header and
//! refused with [`StorageError::LegacyLayout`]: an index is a pure
//! function of its RDF source, so the remedy is `sama index`, not a
//! reader kept alive per retired layout.
//!
//! Every lookup is stored in the form it is read in, so lookups on
//! load need **no rebuild and no allocation**. The label and sink maps
//! are CSR like the path store: label `l`'s postings are
//! `posts[offs[l]..offs[l + 1]]`. The `constant-table` section maps
//! a query constant to its label: power-of-two open addressing with
//! linear probing over label ids, at most half full, empty slot
//! `u32::MAX`. A constant's home slot is the high bits of the Fx hash
//! (`rdf_model::hash::FxHasher`) of its lexical bytes, so that hash is
//! part of the format. Labels are inserted in id order, variables left
//! out, and an entry whose `(kind, lexical)` pair is already present is
//! skipped — the first duplicate wins, as in `Vocabulary::push_raw`.
//!
//! Opening ([`MappedIndex::open`]) maps the file (via the vendored
//! `memmap2` shim; [`MappedIndex::from_bytes`] is the pure in-memory
//! fallback), parses the 360-byte header, and runs one allocation-free
//! validation pass — a fold per check over its array, which vectorises
//! — so every later accessor can index without panicking on corrupt
//! data. The data graph itself
//! (vocabulary interning + adjacency) is materialized **lazily** on
//! first access — the open path allocates nothing proportional to the
//! path store, which is what makes cold opens of million-triple
//! indexes take milliseconds (the ledger's `path_index.open_mmap_ms`).
//!
//! The format is little-endian and is read in place only on
//! little-endian hosts (all supported targets); parsing returns a typed
//! error on big-endian rather than misreading.

use crate::extract::ExtractionConfig;
use crate::ic::{IcCounts, IcTable};
use crate::index::PathIndex;
use crate::index_like::IndexLike;
use crate::path::{LabelsRef, PathId, PathNodes};
use crate::stats::IndexStats;
use crate::storage::{try_u32, StorageError};
use crate::synonyms::SynonymProvider;
use rdf_model::hash::FxHasher;
use rdf_model::{DataGraph, EdgeId, Graph, LabelId, NodeId, TermKind, Vocabulary};
use std::borrow::Cow;
use std::hash::Hasher;
use std::sync::OnceLock;
use std::time::Duration;

/// The format magic.
pub const MAGIC2: &[u8; 8] = b"SAMAIDX2";
const VERSION: u32 = 6;
const SECTION_COUNT: usize = 21;
/// Magics of the two retired formats, and the versions every earlier
/// `SAMAIDX2` layout was written as: [`Layout::parse`] refuses all of
/// them.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"SAMAIDX1", b"SAMAIDXZ"];
const RETIRED_VERSIONS: [u32; 4] = [2, 3, 4, 5];
const HEADER_LEN: usize = 24;
const TABLE_LEN: usize = SECTION_COUNT * 16;
/// The counts section: five `u64`s.
const COUNTS_LEN: usize = 40;
/// Empty constant-table slot marker (never a valid label id: ids are < len).
const EMPTY: u32 = u32::MAX;

const S_COUNTS: usize = 0;
const S_VOCAB_KINDS: usize = 1;
const S_VOCAB_OFFS: usize = 2;
const S_VOCAB_BLOB: usize = 3;
const S_NODE_LABELS: usize = 4;
const S_EDGE_FROM: usize = 5;
const S_EDGE_TO: usize = 6;
const S_EDGE_LABEL: usize = 7;
const S_PATH_OFFS: usize = 8;
const S_PATH_SINKS: usize = 9;
const S_PATH_EDGES: usize = 10;
const S_PATH_SHAPES: usize = 11;
const S_SHAPE_OFFS: usize = 12;
const S_SHAPE_LABELS: usize = 13;
const S_LABEL_OFFS: usize = 14;
const S_LABEL_POSTS: usize = 15;
const S_SINK_OFFS: usize = 16;
const S_SINK_POSTS: usize = 17;
const S_STATS: usize = 18;
const S_IC_COUNTS: usize = 19;
const S_CONSTANTS: usize = 20;

/// Human-readable section names, table order (for `sama index --stats`).
pub const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "counts",
    "vocab-kinds",
    "vocab-offsets",
    "vocab-blob",
    "node-labels",
    "edge-from",
    "edge-to",
    "edge-label",
    "path-offsets",
    "path-sinks",
    "path-edge-pool",
    "path-shapes",
    "shape-offsets",
    "shape-labels",
    "label-offsets",
    "label-postings",
    "sink-offsets",
    "sink-postings",
    "stats",
    "ic-counts",
    "constant-table",
];

// ---------------------------------------------------------------------------
// Casting helpers. Soundness: NodeId/EdgeId/LabelId are
// `#[repr(transparent)]` over `u32` (guaranteed in `rdf-model`), as is
// PathId (in `path.rs`), and every byte range handed to these starts
// 4-aligned because section offsets are multiples of 8 within an
// 8-aligned buffer. Each cast has a `const` assertion of the layout it
// relies on beside it, so a change to a type's layout fails the build.

/// `T` has the size and alignment of `u32`.
const fn is_u32_layout<T>() -> bool {
    std::mem::size_of::<T>() == 4 && std::mem::align_of::<T>() == 4
}

const _: () = assert!(is_u32_layout::<u32>());
#[inline]
fn cast_u32s(bytes: &[u8]) -> &[u32] {
    debug_assert_eq!(bytes.as_ptr() as usize % 4, 0);
    debug_assert_eq!(bytes.len() % 4, 0);
    // SAFETY: alignment/length checked above; u32 has no invalid bit
    // patterns; the source is an immutable borrow for the same lifetime.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 4) }
}

const _: () = assert!(std::mem::size_of::<u64>() == 8 && std::mem::align_of::<u64>() <= 8);
#[inline]
fn cast_u64s(bytes: &[u8]) -> &[u64] {
    debug_assert_eq!(bytes.as_ptr() as usize % 8, 0);
    debug_assert_eq!(bytes.len() % 8, 0);
    // SAFETY: as above, with 8-byte alignment (section offsets are
    // multiples of 8).
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast(), bytes.len() / 8) }
}

const _: () = assert!(is_u32_layout::<NodeId>());
#[inline]
fn as_node_ids(ids: &[u32]) -> &[NodeId] {
    // SAFETY: NodeId is repr(transparent) over u32 (layout asserted
    // above), so the slice's length, alignment and every bit pattern
    // carry over.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

const _: () = assert!(is_u32_layout::<EdgeId>());
#[inline]
fn as_edge_ids(ids: &[u32]) -> &[EdgeId] {
    // SAFETY: EdgeId is repr(transparent) over u32 (layout asserted
    // above).
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

const _: () = assert!(is_u32_layout::<LabelId>());
#[inline]
fn as_label_ids(ids: &[u32]) -> &[LabelId] {
    // SAFETY: LabelId is repr(transparent) over u32 (layout asserted
    // above).
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

const _: () = assert!(is_u32_layout::<PathId>());
#[inline]
fn as_path_ids(ids: &[u32]) -> &[PathId] {
    // SAFETY: PathId is repr(transparent) over u32 (layout asserted
    // above).
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

/// The number of slots of the constant table over `vocab_len` labels:
/// at most half full (variables counted too), a power of two, and at
/// least two — a home slot is the top log2(slots) bits of a 64-bit
/// hash, and a shift by 64 overflows.
#[inline]
fn constant_slots(vocab_len: usize) -> usize {
    (vocab_len * 2).next_power_of_two().max(2)
}

/// The home slot of a lexical form in a constant table of `cap ≥ 2`
/// slots, a power of two — part of the on-disk format; never change
/// without bumping the version.
#[inline]
fn constant_slot(lexical: &[u8], cap: usize) -> usize {
    debug_assert!(cap.is_power_of_two() && cap >= 2);
    let mut hasher = FxHasher::default();
    hasher.write(lexical);
    // Fx multiplies last, so the high bits are the mixed ones.
    (hasher.finish() >> (64 - cap.trailing_zeros())) as usize
}

// ---------------------------------------------------------------------------
// Encoding.

/// Where each section of an image goes. Every size follows from the
/// builder's pools, so the image is written once, in place, into a
/// zeroed buffer of its exact length — which leaves the padding between
/// sections zero.
struct Plan {
    sec: [(usize, usize); SECTION_COUNT],
    len: usize,
}

impl Plan {
    fn of(index: &PathIndex) -> Result<Plan, StorageError> {
        let graph = index.graph().as_graph();
        let vocab = graph.vocab();
        let pools = index.pools();
        try_u32(vocab.len(), "vocabulary entries")?;
        try_u32(graph.node_count(), "nodes")?;
        try_u32(graph.edge_count(), "edges")?;
        let paths = index.path_count();
        try_u32(paths, "paths")?;
        let edge_pool = pools.edges.len();
        try_u32(edge_pool, "path edge pool")?;
        let blob_len: usize = vocab.iter().map(|(_, _, lex)| lex.len()).sum();
        try_u32(blob_len, "vocabulary blob")?;
        let (label, sink) = (index.label_postings(), index.sink_postings());
        for postings in [label, sink] {
            try_u32(postings.ids.len(), "postings pool")?;
        }

        let mut sizes = [0usize; SECTION_COUNT];
        sizes[S_COUNTS] = COUNTS_LEN;
        sizes[S_VOCAB_KINDS] = vocab.len();
        sizes[S_VOCAB_OFFS] = (vocab.len() + 1) * 4;
        sizes[S_VOCAB_BLOB] = blob_len;
        sizes[S_NODE_LABELS] = graph.node_count() * 4;
        for s in [S_EDGE_FROM, S_EDGE_TO, S_EDGE_LABEL] {
            sizes[s] = graph.edge_count() * 4;
        }
        sizes[S_PATH_OFFS] = (paths + 1) * 4;
        sizes[S_PATH_SINKS] = paths * 4;
        sizes[S_PATH_EDGES] = edge_pool * 4;
        sizes[S_PATH_SHAPES] = paths * 4;
        sizes[S_SHAPE_OFFS] = pools.shape_offs.len() * 4;
        sizes[S_SHAPE_LABELS] = pools.shape_labels.len() * 4;
        sizes[S_LABEL_OFFS] = (vocab.len() + 1) * 4;
        sizes[S_LABEL_POSTS] = label.ids.len() * 4;
        sizes[S_SINK_OFFS] = (vocab.len() + 1) * 4;
        sizes[S_SINK_POSTS] = sink.ids.len() * 4;
        sizes[S_STATS] = 56;
        sizes[S_IC_COUNTS] = (vocab.len() + 1) * 8;
        sizes[S_CONSTANTS] = constant_slots(vocab.len()) * 4;

        let mut sec = [(0, 0); SECTION_COUNT];
        let mut at = HEADER_LEN + TABLE_LEN;
        for (slot, size) in sec.iter_mut().zip(sizes) {
            at = at.next_multiple_of(8);
            *slot = (at, size);
            at += size;
        }
        Ok(Plan { sec, len: at })
    }
}

/// Writes the sections of a [`Plan`], in table order, into the
/// buffer it was planned for.
struct SectionWriter<'a> {
    out: &'a mut [u8],
    sec: &'a [(usize, usize); SECTION_COUNT],
    next: usize,
}

impl SectionWriter<'_> {
    /// The next section's bytes.
    fn section(&mut self) -> &mut [u8] {
        let (off, len) = self.sec[self.next];
        self.next += 1;
        &mut self.out[off..off + len]
    }

    /// Fill the next section with `values`, exactly.
    fn words<const N: usize>(&mut self, values: impl IntoIterator<Item = [u8; N]>) {
        let out = self.section();
        let mut written = 0;
        for (dst, v) in out.chunks_exact_mut(N).zip(values) {
            dst.copy_from_slice(&v);
            written += N;
        }
        assert_eq!(written, out.len(), "section filled exactly");
    }

    fn u32s(&mut self, values: impl IntoIterator<Item = u32>) {
        self.words(values.into_iter().map(u32::to_le_bytes));
    }

    fn u64s(&mut self, values: impl IntoIterator<Item = u64>) {
        self.words(values.into_iter().map(u64::to_le_bytes));
    }

    /// CSR offsets, each already checked against the `u32` range by
    /// the pool total it ends at.
    fn offsets(&mut self, offs: &[usize]) {
        self.u32s(offs.iter().map(|&o| o as u32));
    }

    /// The constant table over `vocab`, in the section's planned
    /// number of slots. Labels are inserted in id order, compared by
    /// `(kind, lexical)` with the labels already in the table, and an
    /// entry already present is skipped, so the first duplicate wins
    /// as in `Vocabulary::push_raw`, and a vocabulary full of equal
    /// strings cannot grow a probe chain. Variables are left out: no
    /// constant names one.
    fn constants(&mut self, vocab: &Vocabulary) {
        let out = self.section();
        out.fill(0xFF);
        let cap = out.len() / 4;
        let word = |slot: usize| slot * 4..slot * 4 + 4;
        for (id, kind, lexical) in vocab.iter() {
            if kind == TermKind::Variable {
                continue;
            }
            let mut slot = constant_slot(lexical.as_bytes(), cap);
            loop {
                let seen = u32::from_le_bytes(out[word(slot)].try_into().expect("4 bytes"));
                if seen == EMPTY {
                    out[word(slot)].copy_from_slice(&id.0.to_le_bytes());
                    break;
                }
                let seen = LabelId(seen);
                if vocab.kind(seen) == kind && vocab.lexical(seen) == lexical {
                    break;
                }
                slot = (slot + 1) & (cap - 1);
            }
        }
    }
}

/// Write `index`'s image into `out`, zeroed and `plan.len` bytes long —
/// a `Vec<u8>` for [`encode_v2`], the aligned words
/// [`MappedIndex::build_with_config`] serves.
fn write_image(index: &PathIndex, plan: &Plan, out: &mut [u8]) {
    assert_eq!(out.len(), plan.len, "a buffer of the planned length");

    out[..8].copy_from_slice(MAGIC2);
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out[16..24].copy_from_slice(&(plan.len as u64).to_le_bytes());
    for (i, &(off, len)) in plan.sec.iter().enumerate() {
        let at = HEADER_LEN + i * 16;
        out[at..at + 8].copy_from_slice(&(off as u64).to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(len as u64).to_le_bytes());
    }

    let graph = index.graph().as_graph();
    let vocab = graph.vocab();
    let pools = index.pools();
    let (label, sink) = (index.label_postings(), index.sink_postings());
    let mut w = SectionWriter {
        out,
        sec: &plan.sec,
        next: 0,
    };
    // 0: counts.
    w.u64s(
        [
            vocab.len(),
            graph.node_count(),
            graph.edge_count(),
            index.path_count(),
            pools.edges.len(),
        ]
        .map(|n| n as u64),
    );
    // 1-3: vocabulary.
    let kinds = w.section();
    for (dst, (_, kind, _)) in kinds.iter_mut().zip(vocab.iter()) {
        *dst = match kind {
            TermKind::Iri => 0,
            TermKind::Literal => 1,
            TermKind::Blank => 2,
            TermKind::Variable => 3,
        };
    }
    let mut end = 0u32;
    w.u32s(std::iter::once(0).chain(vocab.iter().map(|(_, _, lex)| {
        end += lex.len() as u32;
        end
    })));
    let blob = w.section();
    let mut at = 0;
    for (_, _, lex) in vocab.iter() {
        blob[at..at + lex.len()].copy_from_slice(lex.as_bytes());
        at += lex.len();
    }
    // 4: node labels.
    w.u32s(graph.nodes().map(|n| graph.node_label(n).0));
    // 5-7: edge table.
    w.u32s(graph.edges().map(|(_, e)| e.from.0));
    w.u32s(graph.edges().map(|(_, e)| e.to.0));
    w.u32s(graph.edges().map(|(_, e)| e.label.0));
    // 8-10: the path store.
    w.offsets(&pools.offs);
    w.u32s(pools.sinks.iter().map(|n| n.0));
    w.u32s(pools.edges.iter().map(|e| e.0));
    // 11-13: the shape table. The pool is no longer than the edge pool
    // it replaces, so its offsets fit the edge-pool check.
    w.u32s(pools.shapes.iter().copied());
    w.offsets(&pools.shape_offs);
    w.u32s(pools.shape_labels.iter().map(|l| l.0));
    // 14-17: the inverted maps, CSR.
    w.offsets(&label.offs);
    w.u32s(label.ids.iter().map(|id| id.0));
    w.offsets(&sink.offs);
    w.u32s(sink.ids.iter().map(|id| id.0));
    // 18: stats.
    let stats = index.stats();
    w.u64s([
        stats.triples as u64,
        stats.hyper_vertices as u64,
        stats.hyper_edges as u64,
        stats.path_count as u64,
        stats.depth_truncated,
        stats.dropped,
        stats.build_time.as_nanos() as u64,
    ]);
    // 19: ic counts.
    w.section().copy_from_slice(&index.ic_counts().to_bytes());
    // 20: the constant table.
    w.constants(vocab);
    assert_eq!(w.next, SECTION_COUNT, "every section written");
}

/// Serialize `index` in the `SAMAIDX2` zero-copy format.
///
/// # Errors
/// [`StorageError::TooLarge`] if any section exceeds the format's
/// `u32` count range.
pub fn encode_v2(index: &PathIndex) -> Result<Vec<u8>, StorageError> {
    let plan = Plan::of(index)?;
    let mut image = vec![0; plan.len];
    write_image(index, &plan, &mut image);
    Ok(image)
}

/// Serialize in the v2 format and record the byte length in the stats.
///
/// # Errors
/// See [`encode_v2`].
pub fn serialize_index_v2(index: &mut PathIndex) -> Result<Vec<u8>, StorageError> {
    let bytes = encode_v2(index)?;
    index.set_serialized_bytes(bytes.len());
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Parsing.

/// Section geometry: byte `(offset, length)` per section plus the
/// decoded counts — everything needed to slice a validated buffer
/// without re-parsing.
#[derive(Debug, Clone, Copy)]
struct Layout {
    sec: [(usize, usize); SECTION_COUNT],
    vocab_len: usize,
    node_count: usize,
    edge_count: usize,
    path_count: usize,
    edge_pool: usize,
    shape_count: usize,
    stats: [u64; 7],
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

impl Layout {
    /// Structural parse: header, section table, and size consistency.
    /// Cheap (no section scans); [`IndexView::validate`] does the deep
    /// pass.
    fn parse(bytes: &[u8]) -> Result<Layout, StorageError> {
        if cfg!(target_endian = "big") {
            return Err(StorageError::Corrupt(
                "SAMAIDX2 is little-endian and cannot be mapped on this host",
            ));
        }
        if !(bytes.as_ptr() as usize).is_multiple_of(8) {
            return Err(StorageError::Corrupt("index buffer is not 8-byte aligned"));
        }
        // The header alone tells a retired format from a foreign or a
        // cut-off file, before anything past it is looked at.
        let Some(magic) = bytes.first_chunk::<8>() else {
            return Err(StorageError::BadMagic);
        };
        if RETIRED_MAGICS.contains(&magic) {
            return Err(StorageError::LegacyLayout);
        }
        if magic != MAGIC2 {
            return Err(StorageError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(StorageError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if RETIRED_VERSIONS.contains(&version) {
            return Err(StorageError::LegacyLayout);
        }
        if version != VERSION {
            return Err(StorageError::Corrupt("unsupported SAMAIDX2 version"));
        }
        let sections = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        if sections != SECTION_COUNT {
            return Err(StorageError::Corrupt("unexpected section count"));
        }
        if bytes.len() < HEADER_LEN + TABLE_LEN {
            return Err(StorageError::Truncated);
        }
        if read_u64_at(bytes, 16) != bytes.len() as u64 {
            return Err(StorageError::Truncated);
        }

        let mut sec = [(0usize, 0usize); SECTION_COUNT];
        let mut prev_end = HEADER_LEN + TABLE_LEN;
        for (i, slot) in sec.iter_mut().enumerate() {
            let at = HEADER_LEN + i * 16;
            let off = usize::try_from(read_u64_at(bytes, at))
                .map_err(|_| StorageError::Corrupt("section offset overflow"))?;
            let len = usize::try_from(read_u64_at(bytes, at + 8))
                .map_err(|_| StorageError::Corrupt("section length overflow"))?;
            if off % 8 != 0 {
                return Err(StorageError::Corrupt("section offset misaligned"));
            }
            if off < prev_end {
                return Err(StorageError::Corrupt("sections overlap or out of order"));
            }
            let end = off
                .checked_add(len)
                .ok_or(StorageError::Corrupt("section extent overflow"))?;
            if end > bytes.len() {
                return Err(StorageError::Truncated);
            }
            prev_end = end;
            *slot = (off, len);
        }

        if sec[S_COUNTS].1 != COUNTS_LEN {
            return Err(StorageError::Corrupt("counts section size"));
        }
        let c = cast_u64s(&bytes[sec[S_COUNTS].0..sec[S_COUNTS].0 + COUNTS_LEN]);
        let as_usize = |v: u64, what: &'static str| -> Result<usize, StorageError> {
            if v > u32::MAX as u64 {
                return Err(StorageError::Corrupt(what));
            }
            Ok(v as usize)
        };
        let vocab_len = as_usize(c[0], "vocabulary count")?;
        let node_count = as_usize(c[1], "node count")?;
        let edge_count = as_usize(c[2], "edge count")?;
        let path_count = as_usize(c[3], "path count")?;
        let edge_pool = as_usize(c[4], "path edge pool size")?;

        let expect = |s: usize, want: usize, what: &'static str| -> Result<(), StorageError> {
            if sec[s].1 != want {
                return Err(StorageError::Corrupt(what));
            }
            Ok(())
        };
        expect(S_VOCAB_KINDS, vocab_len, "vocab kinds section size")?;
        expect(S_VOCAB_OFFS, (vocab_len + 1) * 4, "vocab offsets size")?;
        expect(S_NODE_LABELS, node_count * 4, "node labels section size")?;
        expect(S_EDGE_FROM, edge_count * 4, "edge-from section size")?;
        expect(S_EDGE_TO, edge_count * 4, "edge-to section size")?;
        expect(S_EDGE_LABEL, edge_count * 4, "edge-label section size")?;
        expect(S_PATH_OFFS, (path_count + 1) * 4, "path offsets size")?;
        expect(S_PATH_SINKS, path_count * 4, "path sinks section size")?;
        expect(S_PATH_EDGES, edge_pool * 4, "path edge pool size")?;
        expect(S_LABEL_OFFS, (vocab_len + 1) * 4, "label offsets size")?;
        expect(S_SINK_OFFS, (vocab_len + 1) * 4, "sink offsets size")?;
        for s in [S_LABEL_POSTS, S_SINK_POSTS] {
            if sec[s].1 % 4 != 0 {
                return Err(StorageError::Corrupt("postings section size"));
            }
        }
        expect(S_STATS, 56, "stats section size")?;
        expect(S_PATH_SHAPES, path_count * 4, "path shapes section size")?;
        let offs = sec[S_SHAPE_OFFS].1;
        if offs < 4 || offs % 4 != 0 || sec[S_SHAPE_LABELS].1 % 4 != 0 {
            return Err(StorageError::Corrupt("shape pool section size"));
        }
        let shape_count = offs / 4 - 1;
        expect(S_IC_COUNTS, (vocab_len + 1) * 8, "ic counts section size")?;
        expect(
            S_CONSTANTS,
            constant_slots(vocab_len) * 4,
            "constant table size",
        )?;
        let st = cast_u64s(&bytes[sec[S_STATS].0..sec[S_STATS].0 + 56]);
        let stats: [u64; 7] = st.try_into().expect("7 stats");
        if stats[3] != path_count as u64 {
            return Err(StorageError::Corrupt("stats path count mismatch"));
        }

        Ok(Layout {
            sec,
            vocab_len,
            node_count,
            edge_count,
            path_count,
            edge_pool,
            shape_count,
            stats,
        })
    }

    #[inline]
    fn bytes_of<'a>(&self, bytes: &'a [u8], s: usize) -> &'a [u8] {
        let (off, len) = self.sec[s];
        &bytes[off..off + len]
    }

    #[inline]
    fn u32s<'a>(&self, bytes: &'a [u8], s: usize) -> &'a [u32] {
        cast_u32s(self.bytes_of(bytes, s))
    }

    /// The three vocabulary sections of a parsed buffer.
    #[inline]
    fn vocab<'a>(&self, bytes: &'a [u8]) -> VocabView<'a> {
        VocabView {
            kinds: self.bytes_of(bytes, S_VOCAB_KINDS),
            offs: self.u32s(bytes, S_VOCAB_OFFS),
            blob: self.bytes_of(bytes, S_VOCAB_BLOB),
            constants: self.u32s(bytes, S_CONSTANTS),
        }
    }

    /// Slice a parsed buffer into a full borrowed view.
    fn view<'a>(&self, bytes: &'a [u8]) -> IndexView<'a> {
        IndexView {
            layout: *self,
            vocab: self.vocab(bytes),
            node_labels: as_label_ids(self.u32s(bytes, S_NODE_LABELS)),
            edge_from: as_node_ids(self.u32s(bytes, S_EDGE_FROM)),
            edge_to: as_node_ids(self.u32s(bytes, S_EDGE_TO)),
            edge_label: as_label_ids(self.u32s(bytes, S_EDGE_LABEL)),
            path_offs: self.u32s(bytes, S_PATH_OFFS),
            path_sinks: as_node_ids(self.u32s(bytes, S_PATH_SINKS)),
            path_edges: as_edge_ids(self.u32s(bytes, S_PATH_EDGES)),
            path_shapes: self.u32s(bytes, S_PATH_SHAPES),
            shape_offs: self.u32s(bytes, S_SHAPE_OFFS),
            shape_labels: as_label_ids(self.u32s(bytes, S_SHAPE_LABELS)),
            label_offs: self.u32s(bytes, S_LABEL_OFFS),
            label_posts: as_path_ids(self.u32s(bytes, S_LABEL_POSTS)),
            sink_offs: self.u32s(bytes, S_SINK_OFFS),
            sink_posts: as_path_ids(self.u32s(bytes, S_SINK_POSTS)),
            ic_counts: cast_u64s(self.bytes_of(bytes, S_IC_COUNTS)),
        }
    }
}

/// The vocabulary as stored: term kind per label, CSR offsets, the
/// concatenated lexical forms, and the constant table. Its accessors
/// rely on what [`IndexView::validate`] established at open — `offs`
/// has one entry more than `kinds`, starts at 0, never decreases and
/// ends at `blob.len()`; every entry is valid UTF-8; every kind byte is
/// ≤ 3; the constant table has `constant_slots` slots, at least one
/// of them empty, and every other holds a label id — so on
/// an opened index they cannot read out of range or loop for ever, and
/// panic only on a label id ≥ the vocabulary length (like
/// `Vocabulary::lexical`).
#[derive(Debug, Clone, Copy)]
struct VocabView<'a> {
    kinds: &'a [u8],
    offs: &'a [u32],
    blob: &'a [u8],
    constants: &'a [u32],
}

impl<'a> VocabView<'a> {
    #[inline]
    fn lexical_bytes(&self, id: u32) -> &'a [u8] {
        let i = id as usize;
        &self.blob[self.offs[i] as usize..self.offs[i + 1] as usize]
    }

    #[inline]
    fn lexical(&self, label: LabelId) -> &'a str {
        std::str::from_utf8(self.lexical_bytes(label.0)).expect("validated utf-8")
    }

    #[inline]
    fn kind(&self, label: LabelId) -> TermKind {
        match self.kinds[label.index()] {
            0 => TermKind::Iri,
            1 => TermKind::Literal,
            2 => TermKind::Blank,
            _ => TermKind::Variable,
        }
    }

    /// `Vocabulary::get_constant` over the stored constant table: of
    /// the entries spelled `lexical`, the IRI, else the literal, else
    /// the blank — kind bytes 0, 1, 2, so the smallest byte below the
    /// variables' 3.
    fn get_constant(&self, lexical: &str) -> Option<LabelId> {
        let table = self.constants;
        let mut slot = constant_slot(lexical.as_bytes(), table.len());
        let mut best: Option<(u8, u32)> = None;
        // Open checked that the table has an empty slot: it ends the scan.
        loop {
            let id = table[slot];
            if id == EMPTY {
                break;
            }
            let kind = self.kinds[id as usize];
            if kind < best.map_or(3, |(k, _)| k) && self.lexical_bytes(id) == lexical.as_bytes() {
                best = Some((kind, id));
            }
            slot = (slot + 1) & (table.len() - 1);
        }
        best.map(|(_, id)| LabelId(id))
    }
}

/// Every value is below `bound` — a fold with no early exit, so it
/// vectorises where `all`/`any` would not.
#[inline]
fn all_below(values: impl Iterator<Item = u32>, bound: usize) -> bool {
    // Every u32 is below a bound past the u32 range.
    let Ok(bound) = u32::try_from(bound) else {
        return true;
    };
    values.fold(true, |ok, v| ok & (v < bound))
}

/// The adjacent pairs `(values[i], values[i + 1])`.
#[inline]
fn pairs<T: Copy>(values: &[T]) -> impl Iterator<Item = (T, T)> + '_ {
    let next = values.get(1..).unwrap_or_default();
    values.iter().copied().zip(next.iter().copied())
}

/// The blocks of [`IndexView::validate`]'s fixed check order, in that
/// order, each run whole by one of its two halves: of two faults, the
/// one in the earlier block is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Block {
    /// Vocabulary, constant table, graph arrays, path offsets and sinks.
    Tables,
    /// The path-edge pool (the helper's).
    PathEdges,
    /// The shape pool and each path's shape.
    Shapes,
    /// Both inverted maps (the helper's).
    Postings,
    /// The IC counts and their checksum.
    IcCounts,
}

/// A borrowed, zero-copy view over a `SAMAIDX2` buffer: every accessor
/// returns slices pointing straight into the underlying bytes.
///
/// Obtain one with [`IndexView::parse`] (which validates) or from
/// [`MappedIndex::view`] (already validated at open).
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a> {
    layout: Layout,
    vocab: VocabView<'a>,
    node_labels: &'a [LabelId],
    pub(crate) edge_from: &'a [NodeId],
    edge_to: &'a [NodeId],
    edge_label: &'a [LabelId],
    pub(crate) path_offs: &'a [u32],
    pub(crate) path_sinks: &'a [NodeId],
    pub(crate) path_edges: &'a [EdgeId],
    pub(crate) path_shapes: &'a [u32],
    pub(crate) shape_offs: &'a [u32],
    pub(crate) shape_labels: &'a [LabelId],
    pub(crate) label_offs: &'a [u32],
    pub(crate) label_posts: &'a [PathId],
    pub(crate) sink_offs: &'a [u32],
    pub(crate) sink_posts: &'a [PathId],
    ic_counts: &'a [u64],
}

impl<'a> IndexView<'a> {
    /// Parse and fully validate a buffer. The buffer must be 8-byte
    /// aligned (file mappings and [`AlignedBytes`] both are).
    ///
    /// The validation reads every byte of the buffer and is bound by
    /// memory bandwidth, so half of its checks run on a scoped helper
    /// thread, joined before this returns; the `Result` is the one the
    /// checks give in their fixed order on one thread.
    ///
    /// # Errors
    /// Typed [`StorageError`]s for any structural or range violation —
    /// never panics, never allocates proportionally to the input.
    pub fn parse(bytes: &'a [u8]) -> Result<IndexView<'a>, StorageError> {
        let view = Layout::parse(bytes)?.view(bytes);
        view.validate()?;
        Ok(view)
    }

    /// The deep validation pass: establishing every invariant the
    /// accessors rely on, so that no lookup on a successfully opened
    /// index can panic or read out of range. It allocates nothing
    /// proportional to the image.
    ///
    /// The checks have a fixed order, and the first that fails names
    /// the error. They run as two halves that share no invariant, at
    /// once: the calling thread checks the vocabulary, the constant
    /// table, the graph arrays, the path offsets and sinks, the shapes
    /// (which rely on the path offsets) and the IC counts; one scoped
    /// helper thread checks the path-edge pool and both inverted maps,
    /// which rely on the section sizes alone. The pass is bound by
    /// memory bandwidth, and two cores read the image in
    /// about two thirds of the time one does. The helper is joined
    /// before the pass returns. When the OS refuses the thread, the
    /// calling thread runs both halves.
    ///
    /// Each check is a fold over its whole section with no early exit
    /// ([`all_below`], [`pairs`]), which the compiler vectorises. Three
    /// of them test an equivalent, cheaper property:
    ///
    /// * every vocabulary entry is UTF-8 ⇔ the whole blob is and no
    ///   entry offset lands on a continuation byte (the offsets are
    ///   already known to be monotone and to span the blob);
    /// * no data label is a variable ⇔ trivially, when no vocabulary
    ///   entry is one, so the per-label kind gather runs only otherwise;
    /// * each posting run strictly ascends ⇔ every descent between
    ///   neighbours lies where a run begins; then its last id bounds it.
    ///
    /// One block interleaves checks with different messages (a path's
    /// shape id against its length). A fold there only says that
    /// something is wrong; the block is then rescanned in order to name
    /// the first fault, so an image with several always reports the one
    /// that comes first.
    fn validate(&self) -> Result<(), StorageError> {
        self.validate_with(true)
    }

    /// [`IndexView::validate`], with its second half on a helper thread
    /// if `helper_thread` holds and the OS grants one, else on this
    /// thread.
    fn validate_with(&self, helper_thread: bool) -> Result<(), StorageError> {
        std::thread::scope(|scope| {
            let helper = helper_thread.then(|| {
                std::thread::Builder::new()
                    .name("sama-validate".into())
                    .spawn_scoped(scope, || self.validate_pools())
            });
            let tables = self.validate_tables();
            let pools = match helper {
                Some(Ok(helper)) => helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                // Refused by the OS, or not asked for: this thread
                // checks the pools too.
                Some(Err(_)) | None => self.validate_pools(),
            };
            // Each half stops at its own first fault; the one in the
            // earlier block comes first in the fixed order.
            match (tables, pools) {
                (Err(a), Err(b)) => Err(if a.0 < b.0 { a.1 } else { b.1 }),
                (Err((_, fault)), Ok(())) | (Ok(()), Err((_, fault))) => Err(fault),
                (Ok(()), Ok(())) => Ok(()),
            }
        })
    }

    /// The calling thread's half of [`IndexView::validate`].
    fn validate_tables(&self) -> Result<(), (Block, StorageError)> {
        let has_variable = self.vocab.kinds.contains(&3);
        self.check_vocabulary()
            .and_then(|()| self.check_graph(has_variable))
            .and_then(|()| self.check_paths())
            .map_err(|fault| (Block::Tables, fault))?;
        self.check_shapes(has_variable)
            .map_err(|fault| (Block::Shapes, fault))?;
        self.check_ic_counts()
            .map_err(|fault| (Block::IcCounts, fault))
    }

    /// The helper's half of [`IndexView::validate`].
    fn validate_pools(&self) -> Result<(), (Block, StorageError)> {
        self.check_path_edges()
            .map_err(|fault| (Block::PathEdges, fault))?;
        self.check_postings()
            .map_err(|fault| (Block::Postings, fault))
    }

    /// Vocabulary: monotone offsets, utf-8 entries, known kinds; and the
    /// constant table: every used slot a label id, and an empty slot to
    /// end every probe.
    fn check_vocabulary(&self) -> Result<(), StorageError> {
        let corrupt = StorageError::Corrupt;
        let vocab = &self.vocab;
        if vocab.offs[0] != 0 || *vocab.offs.last().expect("len >= 1") as usize != vocab.blob.len()
        {
            return Err(corrupt("vocab offsets do not span blob"));
        }
        if pairs(vocab.offs).fold(false, |bad, (a, b)| bad | (a > b)) {
            return Err(corrupt("vocab offsets not monotone"));
        }
        let entries_utf8 = std::str::from_utf8(vocab.blob).is_ok_and(|blob| {
            vocab
                .offs
                .iter()
                .fold(true, |ok, &o| ok & blob.is_char_boundary(o as usize))
        });
        if !entries_utf8 {
            return Err(StorageError::BadUtf8);
        }
        if vocab.kinds.iter().fold(false, |bad, &k| bad | (k > 3)) {
            return Err(corrupt("unknown term kind"));
        }

        let (ids_ok, has_empty) = vocab
            .constants
            .iter()
            .fold((true, false), |(ok, empty), &id| {
                let free = id == EMPTY;
                (
                    ok & (free | ((id as usize) < self.layout.vocab_len)),
                    empty | free,
                )
            });
        if !ids_ok {
            return Err(corrupt("constant table slot out of range"));
        }
        if !has_empty {
            return Err(corrupt("constant table has no empty slot"));
        }
        Ok(())
    }

    /// Every label in range, and none a variable (which only a
    /// vocabulary with a variable entry can hold).
    fn labels_ok(&self, labels: &[LabelId], has_variable: bool) -> bool {
        all_below(labels.iter().map(|label| label.0), self.layout.vocab_len)
            && !(has_variable
                && labels
                    .iter()
                    .any(|&label| self.vocab.kinds[label.index()] == 3))
    }

    /// Every node id in range.
    fn nodes_ok(&self, nodes: &[NodeId]) -> bool {
        all_below(nodes.iter().map(|n| n.0), self.layout.node_count)
    }

    /// Graph arrays: ids in range, no variable labels in data.
    fn check_graph(&self, has_variable: bool) -> Result<(), StorageError> {
        // Every path's node labels are read through this section
        // (`IndexView::labels`), so this check guards them all.
        if !self.labels_ok(self.node_labels, has_variable) {
            return Err(StorageError::Corrupt("node label out of range"));
        }
        if !self.labels_ok(self.edge_label, has_variable) {
            return Err(StorageError::Corrupt("edge label out of range"));
        }
        if !(self.nodes_ok(self.edge_from) && self.nodes_ok(self.edge_to)) {
            return Err(StorageError::Corrupt("edge endpoint out of range"));
        }
        Ok(())
    }

    /// Path CSR: offsets spanning the edge pool and never decreasing
    /// (a path with no edges has an empty run), and every sink a node
    /// in range. A path's other nodes are read through `edge-from`,
    /// which [`IndexView::check_graph`] holds in range.
    fn check_paths(&self) -> Result<(), StorageError> {
        if self.path_offs[0] != 0
            || *self.path_offs.last().expect("len >= 1") as usize != self.layout.edge_pool
        {
            return Err(StorageError::Corrupt("path offsets do not span edge pool"));
        }
        if pairs(self.path_offs).fold(false, |bad, (a, b)| bad | (a > b)) {
            return Err(StorageError::Corrupt("path offsets not monotone"));
        }
        if !self.nodes_ok(self.path_sinks) {
            return Err(StorageError::Corrupt("path sink out of range"));
        }
        Ok(())
    }

    /// The path-edge pool: every edge in range.
    fn check_path_edges(&self) -> Result<(), StorageError> {
        if !all_below(self.path_edges.iter().map(|e| e.0), self.layout.edge_count) {
            return Err(StorageError::Corrupt("path edge out of range"));
        }
        Ok(())
    }

    /// Shapes: CSR offsets spanning the pool (a single-node path has
    /// the empty shape), labels in range, and every path naming a shape
    /// exactly as long as its edge sequence. Run after
    /// [`IndexView::check_paths`].
    fn check_shapes(&self, has_variable: bool) -> Result<(), StorageError> {
        let corrupt = StorageError::Corrupt;
        if self.shape_offs[0] != 0
            || *self.shape_offs.last().expect("len >= 1") as usize != self.shape_labels.len()
        {
            return Err(corrupt("shape offsets do not span pool"));
        }
        if pairs(self.shape_offs).fold(false, |bad, (a, b)| bad | (a > b)) {
            return Err(corrupt("shape offsets not monotone"));
        }
        if !self.labels_ok(self.shape_labels, has_variable) {
            return Err(corrupt("shape label out of range"));
        }
        let shapes_ok = all_below(self.path_shapes.iter().copied(), self.layout.shape_count)
            && pairs(self.path_offs)
                .zip(self.path_shapes)
                .fold(true, |ok, ((a, b), &shape)| {
                    let shape = shape as usize;
                    ok & (self.shape_offs[shape + 1] - self.shape_offs[shape] == b - a)
                });
        if !shapes_ok {
            self.first_shape_fault()?;
        }
        Ok(())
    }

    /// Inverted maps: CSR offsets spanning their postings, each run
    /// strictly ascending (content order, each path once: what the fill
    /// and [`MappedIndex::union_of`] rely on), path ids in range.
    fn check_postings(&self) -> Result<(), StorageError> {
        let corrupt = StorageError::Corrupt;
        let path_count = self.layout.path_count;
        for (offs, posts, span, monotone) in [
            (
                self.label_offs,
                self.label_posts,
                "label offsets do not span postings",
                "label offsets not monotone",
            ),
            (
                self.sink_offs,
                self.sink_posts,
                "sink offsets do not span postings",
                "sink offsets not monotone",
            ),
        ] {
            if offs[0] != 0 || *offs.last().expect("len >= 1") as usize != posts.len() {
                return Err(corrupt(span));
            }
            if pairs(offs).fold(false, |bad, (a, b)| bad | (a > b)) {
                return Err(corrupt(monotone));
            }
            // Runs ascend strictly ⇔ every descent lies where a run begins;
            // then a run's last id is its largest (counts fit `u32`).
            let descents = pairs(posts).fold(0u32, |n, (a, b)| n + u32::from(a.0 >= b.0));
            let (at_run_starts, lasts_in_range) = pairs(offs)
                .filter(|(start, end)| start < end)
                .fold((0u32, true), |(n, ok), (start, end)| {
                    let (start, last) = (start as usize, posts[end as usize - 1]);
                    let descent = start > 0 && posts[start - 1].0 >= posts[start].0;
                    (n + u32::from(descent), ok & (last.index() < path_count))
                });
            if descents != at_run_starts {
                return Err(corrupt("posting run not strictly ascending"));
            }
            if !lasts_in_range {
                return Err(corrupt("posting out of range"));
            }
        }
        Ok(())
    }

    /// IC counts: the stored total must equal the summed counts — a
    /// flipped bit anywhere in the section trips this. A prefix of the
    /// counts overflows a u64 exactly when their whole sum does, and
    /// fewer than 2^32 of them cannot overflow a u128.
    fn check_ic_counts(&self) -> Result<(), StorageError> {
        let sum: u128 = self.ic_counts[1..].iter().map(|&c| u128::from(c)).sum();
        let sum = u64::try_from(sum).map_err(|_| StorageError::Corrupt("ic counts overflow"))?;
        if sum != self.ic_counts[0] {
            return Err(StorageError::Corrupt("ic counts checksum mismatch"));
        }
        Ok(())
    }

    /// Name the first path, in path-id order, whose shape id is out of
    /// range or whose shape is not one label per edge long — run once
    /// [`IndexView::check_shapes`]' fold has found that one is.
    fn first_shape_fault(&self) -> Result<(), StorageError> {
        for (edges, &shape) in self.path_offs.windows(2).zip(self.path_shapes) {
            let shape = shape as usize;
            if shape >= self.layout.shape_count {
                return Err(StorageError::Corrupt("path shape out of range"));
            }
            if self.shape_offs[shape + 1] - self.shape_offs[shape] != edges[1] - edges[0] {
                return Err(StorageError::Corrupt("shape length does not match path"));
            }
        }
        Ok(())
    }

    /// Number of indexed paths.
    #[inline]
    pub fn path_count(&self) -> usize {
        self.layout.path_count
    }

    /// Node ids of path `id`, read through its edges and its sink
    /// (panics if out of range, like [`PathIndex::path`]).
    #[inline]
    pub fn path_nodes(&self, id: PathId) -> PathNodes<'a> {
        PathNodes {
            edges: self.path_edges(id),
            edge_from: self.edge_from,
            sink: self.path_sinks[id.index()],
        }
    }

    /// Edge ids of path `id`.
    #[inline]
    pub fn path_edges(&self, id: PathId) -> &'a [EdgeId] {
        let (a, b) = (
            self.path_offs[id.index()] as usize,
            self.path_offs[id.index() + 1] as usize,
        );
        &self.path_edges[a..b]
    }

    /// Label sequences of path `id`: its nodes read through the
    /// node-label section, and its shape's run of the shape pool.
    #[inline]
    pub fn labels(&self, id: PathId) -> LabelsRef<'a> {
        let shape = self.path_shapes[id.index()] as usize;
        LabelsRef {
            nodes: self.path_nodes(id),
            node_table: self.node_labels,
            edge_labels: &self.shape_labels
                [self.shape_offs[shape] as usize..self.shape_offs[shape + 1] as usize],
        }
    }

    /// `label`'s run of a stored inverted map; empty past the
    /// vocabulary.
    fn run(offs: &[u32], posts: &'a [PathId], label: LabelId) -> &'a [PathId] {
        match offs.get(label.index()..label.index() + 2) {
            Some(&[a, b]) => &posts[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Paths containing `label` (stored inverted map; no rebuild).
    pub fn paths_with_label(&self, label: LabelId) -> &'a [PathId] {
        Self::run(self.label_offs, self.label_posts, label)
    }

    /// Paths whose sink carries `label` (stored inverted map).
    pub fn paths_with_sink(&self, label: LabelId) -> &'a [PathId] {
        Self::run(self.sink_offs, self.sink_posts, label)
    }

    /// Label occurrence counts for the IC-weighted cost model, from
    /// the stored `ic-counts` section.
    pub fn ic_counts(&self) -> IcCounts {
        IcCounts {
            counts: self.ic_counts[1..].to_vec(),
            total: self.ic_counts[0],
        }
    }

    /// The stats block stored in the file.
    pub fn stats(&self) -> IndexStats {
        let s = self.layout.stats;
        IndexStats {
            triples: s[0] as usize,
            hyper_vertices: s[1] as usize,
            hyper_edges: s[2] as usize,
            path_count: s[3] as usize,
            build_time: Duration::from_nanos(s[6]),
            serialized_bytes: None,
            depth_truncated: s[4],
            dropped: s[5],
        }
    }

    /// Per-section byte sizes in table order, paired with
    /// [`SECTION_NAMES`] (for `sama index --stats`).
    pub fn section_sizes(&self) -> [usize; SECTION_COUNT] {
        let mut out = [0; SECTION_COUNT];
        for (i, (_, len)) in self.layout.sec.iter().enumerate() {
            out[i] = *len;
        }
        out
    }

    /// Rebuild the owned [`DataGraph`] (vocabulary, nodes, edges,
    /// adjacency) from the mapped sections. Infallible on a validated
    /// view.
    fn materialize_graph(&self) -> DataGraph {
        let mut graph = Graph::new();
        let vocab = graph.vocab_mut();
        for id in (0..self.layout.vocab_len as u32).map(LabelId) {
            vocab.push_raw(self.vocab.kind(id), self.vocab.lexical(id));
        }
        for &label in self.node_labels {
            graph
                .add_node_with_label(label)
                .expect("validated node label");
        }
        for i in 0..self.layout.edge_count {
            graph
                .add_edge_with_label(self.edge_from[i], self.edge_to[i], self.edge_label[i])
                .expect("validated edge");
        }
        DataGraph::try_from_graph(graph).expect("validated: no variable labels in data sections")
    }
}

// ---------------------------------------------------------------------------
// Owning handles.

/// An 8-byte-aligned owned byte buffer — the pure-`Vec` fallback
/// backing for environments where file mapping is unavailable or
/// undesired, and the buffer [`MappedIndex::build_with_config`] writes
/// its image into.
#[derive(Debug, Clone)]
pub struct AlignedBytes {
    /// Never resized. A `Vec`, not a `Box`: [`MappedIndex`] keeps
    /// slices into this allocation while the handle that owns it moves,
    /// and moving a `Box` asserts unique access to what it points to.
    words: Vec<u64>,
    len: usize,
}

// `as_slice`/`as_mut_slice` read `len` bytes out of `words`: a `u64` is
// eight bytes, so `len <= words.len() * 8` keeps them in bounds, and a
// byte needs no alignment.
const _: () = assert!(std::mem::size_of::<u64>() == 8 && std::mem::align_of::<u8>() == 1);

impl AlignedBytes {
    /// Copy `bytes` into a fresh 8-aligned buffer.
    pub fn copy_from(bytes: &[u8]) -> Self {
        // One pass, no zero fill first: whole words, then the tail
        // padded with zeros.
        let mut words = Vec::with_capacity(bytes.len().div_ceil(8));
        let chunks = bytes.chunks_exact(8);
        let tail = chunks.remainder();
        words.extend(chunks.map(|word| u64::from_ne_bytes(word.try_into().expect("8 bytes"))));
        if !tail.is_empty() {
            let mut last = [0; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_ne_bytes(last));
        }
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }

    /// A zeroed buffer of `len` bytes.
    pub(crate) fn zeroed(len: usize) -> Self {
        AlignedBytes {
            words: vec![0; len.div_ceil(8)],
            len,
        }
    }

    /// The buffer contents, to write into.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: u64 -> u8 reinterpretation of an exclusively borrowed
        // buffer; `len <= words.len() * 8`.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<u8>(), self.len) }
    }

    /// The buffer contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: u64 -> u8 reinterpretation; `len <= words.len() * 8`.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

#[derive(Debug)]
enum Backing {
    Mapped(memmap2::Mmap),
    Owned(AlignedBytes),
}

impl Backing {
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Mapped(m) => m,
            Backing::Owned(b) => b.as_slice(),
        }
    }
}

/// An index served directly from a `SAMAIDX2` buffer — the one index
/// a query reads. [`PathIndex`] is what the builder holds; its
/// [`encode_v2`] image is what this serves, from a file mapping or an
/// owned copy.
///
/// Opening performs an `mmap` plus one validation scan that allocates
/// nothing proportional to the image, run as two halves on the calling
/// thread and one scoped helper joined before the open returns (see
/// [`IndexView::parse`]). The hot lookup structures (path store, stored
/// inverted maps) are then read in place for the lifetime of the
/// handle, shared by every worker thread that borrows it. The
/// label-level reads (constant → label id, label id → lexical form and
/// kind, edge → its three labels) are served from the mapped vocabulary
/// and edge sections too, so answering, explaining and listing paths
/// build no [`DataGraph`].
#[derive(Debug)]
pub struct MappedIndex {
    /// Every section of `backing`, sliced once at open: slicing them
    /// per read cost more than the reads (5.2 ns against 1.5 ns for one
    /// `labels` call). The slices point into `backing`'s bytes; the
    /// `'static` never leaves this module ([`MappedIndex::view`] and the
    /// accessors hand them out under the borrow of `self`).
    view: IndexView<'static>,
    /// Owns the bytes `view` points into. Never mutated or replaced.
    backing: Backing,
    stats: IndexStats,
    data: OnceLock<DataGraph>,
    /// Optional MinHash/LSH candidate tier, built in memory and
    /// attached with [`MappedIndex::attach_lsh`] (see [`crate::lsh`]).
    lsh: Option<crate::lsh::LshSidecar>,
    /// IC weight table, derived lazily from the `ic-counts` section on
    /// first use.
    ic: OnceLock<IcTable>,
}

impl MappedIndex {
    /// Map an index file read-only and validate it; when the file
    /// cannot be mapped it is read into an aligned buffer instead.
    ///
    /// The file must not be modified while the handle is alive (the
    /// standard mmap contract; index files are immutable artifacts).
    ///
    /// # Errors
    /// [`StorageError::Io`] on filesystem errors, [`StorageError`]
    /// variants on malformed content ([`StorageError::LegacyLayout`] for
    /// a file in a retired format).
    pub fn open(path: &std::path::Path) -> Result<MappedIndex, StorageError> {
        let _span = sama_obs::span!(sama_obs::metrics::INDEX_OPEN_NS);
        sama_obs::fault::point("index.load");
        let io = |e: std::io::Error| StorageError::Io(e.to_string());
        let mut file = std::fs::File::open(path).map_err(io)?;
        // SAFETY: the caller upholds the no-concurrent-modification
        // contract documented above.
        let backing = match unsafe { memmap2::Mmap::map(&file) } {
            Ok(map) => Backing::Mapped(map),
            // A filesystem that cannot map: read the same bytes once
            // ([`MappedIndex::is_mapped`] tells the two apart).
            Err(_) => {
                let mut bytes = Vec::new();
                std::io::Read::read_to_end(&mut file, &mut bytes).map_err(io)?;
                Backing::Owned(AlignedBytes::copy_from(&bytes))
            }
        };
        Self::from_backing(backing)
    }

    /// Build from in-memory bytes (copied once into an aligned buffer)
    /// — the fallback path that works anywhere, with identical
    /// semantics to [`MappedIndex::open`].
    ///
    /// # Errors
    /// As [`MappedIndex::open`], minus I/O.
    pub fn from_bytes(bytes: &[u8]) -> Result<MappedIndex, StorageError> {
        let _span = sama_obs::span!(sama_obs::metrics::INDEX_OPEN_NS);
        sama_obs::fault::point("index.load");
        Self::from_backing(Backing::Owned(AlignedBytes::copy_from(bytes)))
    }

    /// Index `data` with default extraction limits and serve the image
    /// from memory (see [`MappedIndex::build_with_config`]).
    ///
    /// # Errors
    /// As [`MappedIndex::build_with_config`].
    pub fn build(data: DataGraph) -> Result<MappedIndex, StorageError> {
        Self::build_with_config(data, &ExtractionConfig::default())
    }

    /// Index `data` and serve the image from memory: build the paths
    /// ([`PathIndex::build_with_config`]) and write their image straight
    /// into the aligned buffer it is served from — the bytes
    /// [`encode_v2`] gives and `sama index` writes, read the way a
    /// mapped file is.
    ///
    /// # Errors
    /// [`StorageError::TooLarge`] when the index outgrows the format's
    /// `u32` counts.
    pub fn build_with_config(
        data: DataGraph,
        config: &ExtractionConfig,
    ) -> Result<MappedIndex, StorageError> {
        let index = PathIndex::build_with_config(data, config);
        let plan = Plan::of(&index)?;
        let mut image = AlignedBytes::zeroed(plan.len);
        write_image(&index, &plan, image.as_mut_slice());
        drop(index);
        let _span = sama_obs::span!(sama_obs::metrics::INDEX_OPEN_NS);
        sama_obs::fault::point("index.load");
        Self::from_backing(Backing::Owned(image))
    }

    /// Validate `backing` and serve it. The callers time the whole
    /// open, from their fault point on, under `index.open_ns`.
    fn from_backing(backing: Backing) -> Result<MappedIndex, StorageError> {
        let view = IndexView::parse(backing.bytes())?;
        let mut stats = view.stats();
        stats.serialized_bytes = Some(backing.bytes().len());
        sama_obs::metrics::INDEX_OPENS_TOTAL.add(1);
        // SAFETY: only the lifetime changes. The slices point into the
        // bytes `backing` owns — a file mapping, or the heap allocation
        // of an `AlignedBytes` — whose address does not change when
        // `backing` (or the `MappedIndex` holding it) moves, which are
        // read-only, and which live until `backing` drops. `backing` is
        // a private field stored beside the view, never mutated or
        // replaced, so it drops no earlier than the view does; and no
        // `'static` slice escapes, because every accessor returns them
        // under the borrow of `&self`.
        let view = unsafe { std::mem::transmute::<IndexView<'_>, IndexView<'static>>(view) };
        Ok(MappedIndex {
            view,
            backing,
            stats,
            data: OnceLock::new(),
            lsh: None,
            ic: OnceLock::new(),
        })
    }

    /// Attach an LSH sidecar to serve as the approximate candidate
    /// tier for this index.
    ///
    /// # Errors
    /// [`StorageError::Corrupt`] when the sidecar's path count does not
    /// match this index (it was built for a different snapshot).
    pub fn attach_lsh(&mut self, sidecar: crate::lsh::LshSidecar) -> Result<(), StorageError> {
        if sidecar.path_count() != self.view.path_count() {
            return Err(StorageError::Corrupt("LSH sidecar path count mismatch"));
        }
        self.lsh = Some(sidecar);
        Ok(())
    }

    /// The attached LSH sidecar, if any.
    #[inline]
    pub fn lsh(&self) -> Option<&crate::lsh::LshSidecar> {
        self.lsh.as_ref()
    }

    /// The borrowed zero-copy view (no re-validation).
    #[inline]
    pub fn view(&self) -> IndexView<'_> {
        self.view
    }

    /// Build statistics as stored in the file (plus the byte length).
    #[inline]
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// `true` if this handle is backed by a real file mapping (as
    /// opposed to the owned in-memory fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }

    /// The paths `postings` lists for any of `labels`, ids ascending
    /// and deduplicated — the admission rule behind
    /// [`IndexLike::paths_ending_in`] and [`IndexLike::paths_containing`].
    /// One non-empty posting list is strictly ascending as stored (open
    /// checked), so it is lent straight out of the image; only a union
    /// of several is merged into an owned list.
    fn union_of(
        &self,
        labels: &[LabelId],
        postings: fn(&IndexView<'static>, LabelId) -> &'static [PathId],
    ) -> Cow<'_, [PathId]> {
        let mut runs = labels
            .iter()
            .map(|&label| postings(&self.view, label))
            .filter(|run| !run.is_empty());
        match (runs.next(), runs.next()) {
            (None, _) => Cow::Borrowed(&[]),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(first), Some(second)) => {
                let mut out = [first, second].concat();
                runs.for_each(|run| out.extend_from_slice(run));
                out.sort_unstable();
                out.dedup();
                Cow::Owned(out)
            }
        }
    }

    /// The labels `lexical` and each of its synonyms resolve to.
    fn resolve(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<LabelId> {
        let widened = synonyms.synonyms(lexical);
        std::iter::once(lexical)
            .chain(widened.iter().map(String::as_str))
            .filter_map(|lexical| self.constant_label(lexical))
            .collect()
    }

    /// [`IndexLike::paths_ending_in`] of the labels `lexical` and its
    /// synonyms resolve to. Kept for the frozen ledger's anchor scan;
    /// delete with ROADMAP 1a.
    pub fn sink_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.paths_ending_in(&self.resolve(lexical, synonyms))
            .into_owned()
    }

    /// [`IndexLike::paths_containing`] of the labels `lexical` and its
    /// synonyms resolve to. Kept for the frozen ledger's anchor scan;
    /// delete with ROADMAP 1a.
    pub fn label_matching(&self, lexical: &str, synonyms: &dyn SynonymProvider) -> Vec<PathId> {
        self.paths_containing(&self.resolve(lexical, synonyms))
            .into_owned()
    }

    /// The indexed data graph, rebuilt from the image on first call.
    /// Nothing in the library reads it; kept for the frozen ledger,
    /// which reads its vocabulary; delete with ROADMAP 1a.
    pub fn data(&self) -> &DataGraph {
        self.data.get_or_init(|| {
            let _span = sama_obs::span!(sama_obs::metrics::INDEX_MATERIALIZE_NS);
            self.view.materialize_graph()
        })
    }
}

impl IndexLike for MappedIndex {
    /// A probe of the stored constant table.
    #[inline]
    fn constant_label(&self, lexical: &str) -> Option<LabelId> {
        self.view.vocab.get_constant(lexical)
    }

    #[inline]
    fn label_lexical(&self, label: LabelId) -> &str {
        self.view.vocab.lexical(label)
    }

    #[inline]
    fn label_kind(&self, label: LabelId) -> TermKind {
        self.view.vocab.kind(label)
    }

    /// Relies on what open validated: edge endpoints are node ids in
    /// range, and node and edge labels are label ids in range — so this
    /// panics only on an edge id ≥ the edge count.
    #[inline]
    fn edge_labels(&self, edge: EdgeId) -> (LabelId, LabelId, LabelId) {
        let e = edge.index();
        let view = &self.view;
        (
            view.node_labels[view.edge_from[e].index()],
            view.edge_label[e],
            view.node_labels[view.edge_to[e].index()],
        )
    }

    fn total_paths(&self) -> usize {
        self.view.path_count()
    }

    #[inline]
    fn path_nodes(&self, id: PathId) -> PathNodes<'_> {
        self.view.path_nodes(id)
    }

    #[inline]
    fn path_edges(&self, id: PathId) -> &[EdgeId] {
        self.view.path_edges(id)
    }

    #[inline]
    fn labels(&self, id: PathId) -> LabelsRef<'_> {
        self.view.labels(id)
    }

    #[inline]
    fn path_shape(&self, id: PathId) -> u32 {
        self.view.path_shapes[id.index()]
    }

    fn shape_count(&self) -> usize {
        self.view.layout.shape_count
    }

    /// The shape's run of the stored shape pool (offsets validated at
    /// open).
    fn shape_edge_labels(&self, shape: u32) -> &[LabelId] {
        let view = &self.view;
        let shape = shape as usize;
        &view.shape_labels[view.shape_offs[shape] as usize..view.shape_offs[shape + 1] as usize]
    }

    fn paths_ending_in(&self, labels: &[LabelId]) -> Cow<'_, [PathId]> {
        let _span = sama_obs::span!(sama_obs::metrics::INDEX_LOCATE_NS);
        sama_obs::metrics::INDEX_SINK_LOOKUPS_TOTAL.add(1);
        self.union_of(labels, IndexView::paths_with_sink)
    }

    fn paths_containing(&self, labels: &[LabelId]) -> Cow<'_, [PathId]> {
        let _span = sama_obs::span!(sama_obs::metrics::INDEX_LOCATE_NS);
        sama_obs::metrics::INDEX_LABEL_LOOKUPS_TOTAL.add(1);
        self.union_of(labels, IndexView::paths_with_label)
    }

    fn lsh_params(&self) -> Option<crate::lsh::LshParams> {
        self.lsh.as_ref().map(|sidecar| sidecar.params())
    }

    fn lsh_probe(&self, signature: &[u32]) -> Vec<crate::lsh::LshCandidate> {
        self.lsh
            .as_ref()
            .map(|sidecar| sidecar.probe(signature))
            .unwrap_or_default()
    }

    fn ic_table(&self) -> Option<IcTable> {
        Some(
            self.ic
                .get_or_init(|| IcTable::from_counts(&self.view.ic_counts()))
                .clone(),
        )
    }
}

/// Decode a `SAMAIDX2` buffer into a fully owned [`PathIndex`], for
/// consumers that need an owned, mutable index (e.g. `sama update`).
/// Prefer [`MappedIndex`] for serving.
///
/// # Errors
/// Typed [`StorageError`]s on malformed input.
pub fn decode_v2(buf: &[u8]) -> Result<PathIndex, StorageError> {
    sama_obs::fault::point("index.load");
    let owned = AlignedBytes::copy_from(buf);
    let view = IndexView::parse(owned.as_slice())?;
    let mut stats = view.stats();
    stats.serialized_bytes = Some(buf.len());
    Ok(PathIndex::from_view(&view, view.materialize_graph(), stats))
}

/// [`decode_v2`] under the name it had while several formats were read:
/// the frozen performance ledger (`ledger/`) calls it by this name.
pub fn decode_any(buf: &[u8]) -> Result<PathIndex, StorageError> {
    decode_v2(buf)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_like::IndexLike;
    use crate::synonyms::NoSynonyms;
    use rdf_model::Term;

    fn sample_index() -> PathIndex {
        let mut b = DataGraph::builder();
        b.triple_str("CB", "sponsor", "A0056").unwrap();
        b.triple_str("A0056", "aTo", "B1432").unwrap();
        b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
        b.triple_str("PD", "sponsor", "B1432").unwrap();
        b.triple_str("PD", "gender", "\"Male\"").unwrap();
        PathIndex::build(b.build())
    }

    fn bigger_index() -> PathIndex {
        let mut b = DataGraph::builder();
        for i in 0..40 {
            b.triple_str(&format!("s{i}"), "p", &format!("m{}", i % 7))
                .unwrap();
            b.triple_str(&format!("m{}", i % 7), "q", &format!("\"leaf {}\"", i % 3))
                .unwrap();
        }
        PathIndex::build(b.build())
    }

    #[test]
    fn roundtrip_through_decode_v2() {
        for idx in [sample_index(), bigger_index()] {
            let bytes = encode_v2(&idx).unwrap();
            let loaded = decode_v2(&bytes).unwrap();
            assert_eq!(loaded.path_count(), idx.path_count());
            assert_eq!(
                loaded.graph().as_graph().to_sorted_lines(),
                idx.graph().as_graph().to_sorted_lines()
            );
            for (id, ip) in idx.paths() {
                assert_eq!(loaded.path(id), ip);
                assert_eq!(loaded.path_shape(id), idx.path_shape(id));
            }
            assert_eq!(encode_v2(&loaded).unwrap(), bytes);
            assert_eq!(loaded.stats().triples, idx.stats().triples);
            assert_eq!(loaded.stats().serialized_bytes, Some(bytes.len()));
        }
    }

    /// The shape table's contract, on any index: ids are dense, two
    /// paths share one exactly when they share an edge-label sequence,
    /// and `shape_edge_labels` is that sequence.
    fn assert_shapes_partition_by_edge_labels(index: &impl IndexLike) {
        let mut sequence_of = vec![None; index.shape_count()];
        for id in index.all_path_ids() {
            let sequence = index.labels(id).edge_labels;
            let shape = index.path_shape(id);
            assert_eq!(index.shape_edge_labels(shape), sequence, "{id}");
            let known = sequence_of[shape as usize].get_or_insert(sequence);
            assert_eq!(*known, sequence, "{id}: one shape, two sequences");
        }
        let mut distinct: Vec<_> = sequence_of.iter().map(|s| s.expect("dense ids")).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            index.shape_count(),
            "one sequence, two shapes"
        );
    }

    #[test]
    fn mapped_view_agrees_with_owned_index() {
        // Fresh from `build`, and again after `insert_triples` rebuilt
        // the path set: a new branch with a new predicate (a new shape),
        // and a chain extension that retires `m0`'s old paths.
        let mut updated = bigger_index();
        let extra = [
            rdf_model::Triple::parse("s0", "r", "m1"),
            rdf_model::Triple::parse("\"leaf 0\"", "t", "deeper"),
        ];
        updated
            .insert_triples(&extra, &crate::extract::ExtractionConfig::default())
            .unwrap();
        assert!(updated.shape_count() > bigger_index().shape_count());
        for idx in [bigger_index(), updated] {
            assert_mapped_agrees_with_owned(&idx);
        }
    }

    fn assert_mapped_agrees_with_owned(idx: &PathIndex) {
        let bytes = encode_v2(idx).unwrap();
        let mapped = MappedIndex::from_bytes(&bytes).unwrap();
        assert!(!mapped.is_mapped());
        assert_eq!(mapped.total_paths(), idx.path_count());
        assert_eq!(IndexLike::shape_count(&mapped), idx.shape_count());
        for (id, ip) in idx.paths() {
            assert_eq!(mapped.path_nodes(id), ip.nodes);
            assert_eq!(mapped.path_edges(id), ip.edges);
            assert_eq!(mapped.labels(id), ip.labels);
            assert_eq!(IndexLike::path_shape(&mapped, id), idx.path_shape(id));
        }
        assert_shapes_partition_by_edge_labels(&mapped);
        let ids = mapped.all_path_ids();
        assert!(ids.iter().map(|id| id.0).eq(0..idx.path_count() as u32));
        // Path ids are numbered in content order.
        let content = |id: &PathId| (mapped.path_nodes(*id), mapped.path_edges(*id));
        assert!(ids.windows(2).all(|w| content(&w[0]) < content(&w[1])));
        // Stored inverted maps agree with the built ones.
        for probe in ["p", "q", "m1", "leaf 2", "absent"] {
            let label = idx.graph().vocab().get_constant(probe);
            let built = |list: fn(&PathIndex, LabelId) -> &[PathId]| {
                label.map_or_else(Vec::new, |label| list(idx, label).to_vec())
            };
            assert_eq!(
                mapped.sink_matching(probe, &NoSynonyms),
                built(PathIndex::paths_with_sink),
                "sink {probe}"
            );
            assert_eq!(
                mapped.label_matching(probe, &NoSynonyms),
                built(PathIndex::paths_with_label),
                "label {probe}"
            );
        }
        // The lazily materialized graph is the original.
        assert_eq!(
            mapped.data().as_graph().to_sorted_lines(),
            idx.graph().as_graph().to_sorted_lines()
        );
        assert_eq!(mapped.stats().triples, idx.stats().triples);
    }

    /// `bytes` with the stats section's build-time word zeroed: the one
    /// word two builds of the same graph may disagree on.
    fn without_build_time(bytes: &[u8]) -> Vec<u8> {
        let at = HEADER_LEN + S_STATS * 16;
        let stats = read_u64_at(bytes, at) as usize;
        let mut out = bytes.to_vec();
        out[stats + 48..stats + 56].fill(0);
        out
    }

    #[test]
    fn build_serves_the_encoded_image() {
        for idx in [sample_index(), bigger_index()] {
            let mapped = MappedIndex::build(idx.graph().clone()).unwrap();
            assert_eq!(mapped.backing.bytes().len(), encode_v2(&idx).unwrap().len());
            assert_eq!(
                without_build_time(mapped.backing.bytes()),
                without_build_time(&encode_v2(&idx).unwrap())
            );
        }
    }

    #[test]
    fn synonyms_widen_matching() {
        let mapped = MappedIndex::from_bytes(&encode_v2(&sample_index()).unwrap()).unwrap();
        assert!(mapped.sink_matching("Nope", &NoSynonyms).is_empty());
        let mut t = crate::synonyms::Thesaurus::new();
        t.group(["Healthcare", "Health Care"]);
        assert!(mapped.sink_matching("Healthcare", &NoSynonyms).is_empty());
        assert_eq!(mapped.sink_matching("Healthcare", &t).len(), 2);
    }

    /// Every label-level accessor against the materialized graph it
    /// stands in for, and `constant_label` against
    /// `Vocabulary::get_constant` for every entry, near-misses of every
    /// entry, and strings that are not there.
    fn assert_label_surface_matches_graph(mapped: &MappedIndex) {
        let graph = mapped.data().as_graph();
        let vocab = graph.vocab();
        for (label, kind, lexical) in vocab.iter() {
            assert_eq!(mapped.label_lexical(label), lexical);
            assert_eq!(mapped.label_kind(label), kind);
            let mut probes = vec![
                lexical.to_string(),
                format!("{lexical}x"),
                format!(" {lexical}"),
            ];
            probes.extend(
                lexical
                    .char_indices()
                    .map(|(i, _)| lexical[..i].to_string()),
            );
            for probe in probes {
                assert_eq!(
                    mapped.constant_label(&probe),
                    vocab.get_constant(&probe),
                    "{probe:?}"
                );
            }
        }
        for probe in ["", "absent", "\u{0}", "ü"] {
            assert_eq!(mapped.constant_label(probe), vocab.get_constant(probe));
        }
        for (id, edge) in graph.edges() {
            assert_eq!(
                mapped.edge_labels(id),
                (
                    graph.node_label(edge.from),
                    edge.label,
                    graph.node_label(edge.to)
                )
            );
        }
    }

    #[test]
    fn label_surface_matches_the_materialized_graph() {
        for idx in [sample_index(), bigger_index()] {
            let mapped = MappedIndex::from_bytes(&encode_v2(&idx).unwrap()).unwrap();
            // Resolving constants and reading labels builds no graph.
            assert!(
                mapped.constant_label("p").is_some() || mapped.constant_label("sponsor").is_some()
            );
            assert!(mapped.data.get().is_none());
            assert_label_surface_matches_graph(&mapped);
        }
    }

    #[test]
    fn constant_lookup_keeps_kind_order_and_first_duplicate() {
        // A vocabulary no builder produces, laid down entry by entry as
        // a file could: one lexical form under all three constant kinds
        // (listed blank, literal, IRI — against the lookup order), a
        // repeated `(kind, lexical)` pair, a literal-only and a
        // blank-only form, and a variable sharing a constant's spelling.
        let mut graph = Graph::new();
        let vocab = graph.vocab_mut();
        let blank_x = vocab.push_raw(TermKind::Blank, "x");
        let lit_x = vocab.push_raw(TermKind::Literal, "x");
        let iri_x = vocab.push_raw(TermKind::Iri, "x");
        let iri_x_again = vocab.push_raw(TermKind::Iri, "x");
        let lit_only = vocab.push_raw(TermKind::Literal, "only");
        let lit_only_again = vocab.push_raw(TermKind::Literal, "only");
        let blank_only = vocab.push_raw(TermKind::Blank, "b");
        vocab.push_raw(TermKind::Variable, "b");
        vocab.push_raw(TermKind::Variable, "v");
        let p = vocab.push_raw(TermKind::Iri, "p");
        let nodes: Vec<NodeId> = [
            blank_x,
            lit_x,
            iri_x,
            iri_x_again,
            lit_only,
            lit_only_again,
            blank_only,
        ]
        .into_iter()
        .map(|label| graph.add_node_with_label(label).unwrap())
        .collect();
        for pair in nodes.windows(2) {
            graph.add_edge_with_label(pair[0], pair[1], p).unwrap();
        }
        let idx = PathIndex::build(DataGraph::try_from_graph(graph).unwrap());
        let mapped = MappedIndex::from_bytes(&encode_v2(&idx).unwrap()).unwrap();

        assert_eq!(mapped.constant_label("x"), Some(iri_x));
        assert_eq!(mapped.constant_label("only"), Some(lit_only));
        assert_eq!(mapped.constant_label("b"), Some(blank_only));
        assert_eq!(mapped.constant_label("v"), None);
        // The shadowed entries still read back by id.
        assert_eq!(mapped.label_lexical(iri_x_again), "x");
        assert_eq!(mapped.label_kind(lit_only_again), TermKind::Literal);
        assert_label_surface_matches_graph(&mapped);
    }

    /// Lexical forms that collide across kinds and lengths: the empty
    /// string, one- and two-byte ASCII, and multi-byte UTF-8 of the
    /// same byte lengths.
    fn arb_lexical() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        proptest::collection::vec(
            prop_oneof![Just('a'), Just('b'), Just('\u{e9}'), Just('\u{65e5}')],
            0..4,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    proptest::proptest! {
        #[test]
        fn stored_table_agrees_with_the_vocabulary(
            entries in proptest::collection::vec((0u8..4, arb_lexical()), 0..40),
            misses in proptest::collection::vec(arb_lexical(), 0..8),
        ) {
            // Entries laid down as a file could hold them: every kind,
            // variables included, and repeated `(kind, lexical)` pairs.
            let mut graph = Graph::new();
            for (kind, lexical) in &entries {
                let kind = match kind {
                    0 => TermKind::Iri,
                    1 => TermKind::Literal,
                    2 => TermKind::Blank,
                    _ => TermKind::Variable,
                };
                graph.vocab_mut().push_raw(kind, lexical);
            }
            let vocab = graph.vocab().clone();
            let idx = PathIndex::build(DataGraph::try_from_graph(graph).unwrap());
            let bytes = encode_v2(&idx).unwrap();
            let probes: Vec<&str> = entries
                .iter()
                .map(|(_, lexical)| lexical.as_str())
                .chain(misses.iter().map(String::as_str))
                .collect();
            let mapped = MappedIndex::from_bytes(&bytes).unwrap();
            for probe in probes {
                proptest::prop_assert_eq!(mapped.constant_label(probe), vocab.get_constant(probe), "{:?}", probe);
            }
        }
    }

    #[test]
    fn open_maps_a_real_file() {
        let idx = sample_index();
        let bytes = encode_v2(&idx).unwrap();
        let path = std::env::temp_dir().join(format!("samaidx2-open-{}.idx", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedIndex::open(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.total_paths(), idx.path_count());
        assert_eq!(mapped.sink_matching("Health Care", &NoSynonyms).len(), 2);
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = MappedIndex::open(std::path::Path::new("/nonexistent/sama.idx")).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let idx = sample_index();
        let bytes = encode_v2(&idx).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_v2(&bytes[..cut]).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn stored_tables_match_probe_set() {
        let idx = bigger_index();
        let bytes = encode_v2(&idx).unwrap();
        let owned = AlignedBytes::copy_from(&bytes);
        let view = IndexView::parse(owned.as_slice()).unwrap();
        let vocab = idx.graph().vocab();
        for (label, _, _) in vocab.iter() {
            assert_eq!(
                view.paths_with_label(label),
                idx.paths_with_label(label),
                "label {label}"
            );
            assert_eq!(
                view.paths_with_sink(label),
                idx.paths_with_sink(label),
                "sink {label}"
            );
        }
        // An id past the vocabulary misses cleanly.
        assert!(view.paths_with_label(LabelId(9999)).is_empty());
    }

    #[test]
    fn section_sizes_are_reported() {
        let idx = sample_index();
        let bytes = encode_v2(&idx).unwrap();
        let owned = AlignedBytes::copy_from(&bytes);
        let view = IndexView::parse(owned.as_slice()).unwrap();
        let sizes = view.section_sizes();
        assert_eq!(sizes[S_COUNTS], 40);
        assert_eq!(sizes[S_STATS], 56);
        let total: usize = sizes.iter().sum();
        assert!(total <= bytes.len());
        assert!(total + HEADER_LEN + TABLE_LEN + 8 * SECTION_COUNT >= bytes.len());
    }

    #[test]
    fn single_node_paths_roundtrip() {
        // Isolated node: a path with one node and zero edges.
        let mut b = DataGraph::builder();
        b.triple_str("a", "p", "b").unwrap();
        b.node(&Term::iri("lonely")).unwrap();
        let idx = PathIndex::build(b.build());
        let bytes = encode_v2(&idx).unwrap();
        let mapped = MappedIndex::from_bytes(&bytes).unwrap();
        for (id, ip) in idx.paths() {
            assert_eq!(mapped.path_nodes(id), ip.nodes);
            assert_eq!(mapped.path_edges(id), ip.edges);
        }
    }

    #[test]
    fn empty_index_roundtrips() {
        let idx = PathIndex::build(DataGraph::builder().build());
        let bytes = encode_v2(&idx).unwrap();
        let mapped = MappedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(mapped.total_paths(), 0);
        assert!(mapped.all_path_ids().is_empty());
        let back = decode_v2(&bytes).unwrap();
        assert_eq!(back.path_count(), 0);
    }

    #[test]
    fn ic_counts_section_matches_fresh_tally() {
        let idx = bigger_index();
        let bytes = encode_v2(&idx).unwrap();
        let owned = AlignedBytes::copy_from(&bytes);
        let view = IndexView::parse(owned.as_slice()).unwrap();
        assert_eq!(view.ic_counts(), idx.ic_counts());
    }

    #[test]
    fn mapped_ic_table_matches_owned_index() {
        let idx = bigger_index();
        let bytes = encode_v2(&idx).unwrap();
        let mapped = MappedIndex::from_bytes(&bytes).unwrap();
        let from_mapped = IndexLike::ic_table(&mapped).unwrap();
        let from_owned = IcTable::from_counts(&idx.ic_counts());
        assert_eq!(from_mapped.len(), from_owned.len());
        for i in 0..from_owned.len() as u32 {
            assert_eq!(
                from_mapped.weight(LabelId(i)).to_bits(),
                from_owned.weight(LabelId(i)).to_bits(),
                "label {i}"
            );
        }
    }

    #[test]
    fn vocabulary_term_kinds_survive() {
        let mut b = DataGraph::builder();
        b.triple_str("iri", "p", "\"literal\"").unwrap();
        let idx = PathIndex::build(b.build());
        let bytes = encode_v2(&idx).unwrap();
        let loaded = decode_v2(&bytes).unwrap();
        let v = loaded.graph().vocab();
        assert!(v.get(&Term::iri("iri")).is_some());
        assert!(v.get(&Term::literal("literal")).is_some());
        assert_eq!(v.get(&Term::literal("iri")), None);
    }
}
