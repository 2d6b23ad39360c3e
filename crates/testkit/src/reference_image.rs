//! A reference `SAMAIDX2` builder that shares no code with the
//! library's: the per-path assembly and append-only encoder that
//! `path_index` used before its builder held the image's section pools.
//!
//! One struct per path with its own label vectors,
//! `FxHashMap` postings, a [`HyperGraphView`] for Table 1's counts, the
//! shape table interned through a map of borrowed sequences, a
//! constant table that finds each `(kind, lexical)` pair's first label
//! through a map and hashes lexical forms with its own copy of the Fx
//! hash, and a writer that appends each section to a growing `Vec<u8>`
//! — none of it reaches `path_index`'s pools, postings arrays, hash or
//! section writer.
//! `image_round_trip_identity` holds `encode_v2(&PathIndex::build(g))`
//! to [`reference_image`] byte for byte, modulo the build-time word
//! ([`without_build_time`]).

use crate::hypergraph::HyperGraphView;
use path_index::{extract_paths, ExtractionConfig, Path};
use rdf_model::{DataGraph, FxHashMap, LabelId, TermKind};

const MAGIC: &[u8; 8] = b"SAMAIDX2";
const VERSION: u32 = 6;
const SECTIONS: usize = 21;
const HEADER: usize = 24;
/// Table entry of the `stats` section, and the offset of its build-time
/// word (the seventh `u64`) inside it.
const STATS_SECTION: usize = 18;
const BUILD_TIME_AT: usize = 48;
const EMPTY: u32 = u32::MAX;

/// One indexed path as the old builder held it.
struct RefPath {
    path: Path,
    node_labels: Vec<LabelId>,
    edge_labels: Vec<LabelId>,
}

/// The image `encode_v2(&PathIndex::build(graph.clone()))` must equal,
/// with a zero build-time word.
///
/// # Panics
/// On a graph past the format's `u32` ranges (test inputs never are).
pub fn reference_image(graph: &DataGraph) -> Vec<u8> {
    let g = graph.as_graph();
    let extraction = extract_paths(g, &ExtractionConfig::default());
    let hyper = HyperGraphView::build(g, &extraction.paths);
    let mut paths: Vec<RefPath> = extraction
        .paths
        .iter()
        .map(|path| {
            let labels = path.labels(g);
            RefPath {
                path: path.clone(),
                node_labels: labels.node_labels.to_vec(),
                edge_labels: labels.edge_labels.to_vec(),
            }
        })
        .collect();
    // Path ids in content order: ascending by (nodes, edges), one full
    // sort.
    paths.sort_by(|a, b| (&a.path.nodes, &a.path.edges).cmp(&(&b.path.nodes, &b.path.edges)));

    // Postings, filled walking ids up.
    let mut by_label: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();
    let mut by_sink: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();
    for (id, p) in (0u32..).zip(&paths) {
        let mut seen: Vec<LabelId> = p.node_labels.clone();
        seen.extend(&p.edge_labels);
        seen.sort_unstable();
        seen.dedup();
        for label in seen {
            by_label.entry(label).or_default().push(id);
        }
        let sink = *p.node_labels.last().expect("paths are non-empty");
        by_sink.entry(sink).or_default().push(id);
    }

    // Shapes, numbered by first occurrence in path-id order.
    let mut shape_of: FxHashMap<&[LabelId], u32> = FxHashMap::default();
    let mut shapes: Vec<&[LabelId]> = Vec::new();
    let path_shapes: Vec<u32> = paths
        .iter()
        .map(|p| {
            *shape_of.entry(&p.edge_labels).or_insert_with(|| {
                shapes.push(&p.edge_labels);
                shapes.len() as u32 - 1
            })
        })
        .collect();

    // Label occurrence counts, every position once.
    let vocab = g.vocab();
    let mut ic = vec![0u64; vocab.len()];
    for p in &paths {
        for label in p.node_labels.iter().chain(&p.edge_labels) {
            ic[label.index()] += 1;
        }
    }

    let edge_pool: usize = paths.iter().map(|p| p.path.edges.len()).sum();
    let mut w = Writer::new();
    w.u64s(&[
        vocab.len() as u64,
        g.node_count() as u64,
        g.edge_count() as u64,
        paths.len() as u64,
        edge_pool as u64,
    ]);
    w.section(|buf| {
        for (_, kind, _) in vocab.iter() {
            buf.push(match kind {
                TermKind::Iri => 0,
                TermKind::Literal => 1,
                TermKind::Blank => 2,
                TermKind::Variable => 3,
            });
        }
    });
    w.offsets(vocab.iter().map(|(_, _, lex)| lex.len()));
    w.section(|buf| {
        for (_, _, lex) in vocab.iter() {
            buf.extend_from_slice(lex.as_bytes());
        }
    });
    w.u32s(g.nodes().map(|n| g.node_label(n).0));
    w.u32s(g.edges().map(|(_, e)| e.from.0));
    w.u32s(g.edges().map(|(_, e)| e.to.0));
    w.u32s(g.edges().map(|(_, e)| e.label.0));
    // Each path as its edges and its sink: its other nodes are the
    // tails of its edges.
    w.offsets(paths.iter().map(|p| p.path.edges.len()));
    w.u32s(paths.iter().map(|p| p.path.sink().0));
    w.u32s(paths.iter().flat_map(|p| p.path.edges.iter().map(|e| e.0)));
    w.u32s(path_shapes);
    w.offsets(shapes.iter().map(|s| s.len()));
    w.u32s(shapes.iter().flat_map(|s| s.iter().map(|l| l.0)));
    for map in [&by_label, &by_sink] {
        w.offsets(runs(map, vocab.len()).map(<[u32]>::len));
        w.u32s(runs(map, vocab.len()).flatten().copied());
    }
    w.u64s(&[
        g.edge_count() as u64,
        hyper.vertex_count as u64,
        hyper.edge_count() as u64,
        paths.len() as u64,
        extraction.depth_truncated,
        extraction.dropped,
        0,
    ]);
    let mut counts = vec![ic.iter().sum::<u64>()];
    counts.extend(ic);
    w.u64s(&counts);
    w.u32s(constant_table(graph));
    w.finish()
}

/// `image` with the build-time word of its `stats` section zeroed —
/// the one word two builds of one graph may disagree on.
///
/// # Panics
/// If `image` is too short to hold its section table or the word.
pub fn without_build_time(image: &[u8]) -> Vec<u8> {
    let entry = HEADER + STATS_SECTION * 16;
    let stats = u64::from_le_bytes(image[entry..entry + 8].try_into().expect("8 bytes")) as usize;
    let mut out = image.to_vec();
    out[stats + BUILD_TIME_AT..stats + BUILD_TIME_AT + 8].fill(0);
    out
}

/// Every label's run of `map`, in label order, empty where it has none.
fn runs(map: &FxHashMap<LabelId, Vec<u32>>, labels: usize) -> impl Iterator<Item = &[u32]> + '_ {
    (0..labels as u32).map(move |l| map.get(&LabelId(l)).map_or(&[][..], Vec::as_slice))
}

/// The constant table: the first label of every constant `(kind,
/// lexical)` pair, in id order, placed by linear probing from the high
/// bits of the Fx hash of its lexical bytes in a power-of-two table of
/// at least twice the vocabulary's length.
fn constant_table(graph: &DataGraph) -> Vec<u32> {
    let vocab = graph.vocab();
    let cap = (vocab.len() * 2).next_power_of_two().max(2);
    let mut first: FxHashMap<(TermKind, &str), LabelId> = FxHashMap::default();
    let mut table = vec![EMPTY; cap];
    for (label, kind, lexical) in vocab.iter() {
        if kind == TermKind::Variable || *first.entry((kind, lexical)).or_insert(label) != label {
            continue;
        }
        let mut slot = (fx(lexical.as_bytes()) >> (64 - cap.trailing_zeros())) as usize;
        while table[slot] != EMPTY {
            slot = (slot + 1) % cap;
        }
        table[slot] = label.0;
    }
    table
}

/// rustc's Fx hash of `bytes`, as `Hasher::write` feeds it: whole
/// little-endian 8-byte words, then one 4-byte word if that many
/// remain, then single bytes.
fn fx(bytes: &[u8]) -> u64 {
    let mut hash = 0u64;
    let mut add = |word: u64| {
        hash = (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    };
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        add(u64::from(u32::from_le_bytes(
            rest[..4].try_into().expect("4 bytes"),
        )));
        rest = &rest[4..];
    }
    for &byte in rest {
        add(u64::from(byte));
    }
    hash
}

/// Appends 8-aligned sections after a header and table patched last.
struct Writer {
    buf: Vec<u8>,
    table: Vec<(u64, u64)>,
}

impl Writer {
    fn new() -> Self {
        Writer {
            buf: vec![0; HEADER + SECTIONS * 16],
            table: Vec::new(),
        }
    }

    fn section(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
        let start = self.buf.len();
        write(&mut self.buf);
        self.table
            .push((start as u64, (self.buf.len() - start) as u64));
    }

    fn u32s(&mut self, values: impl IntoIterator<Item = u32>) {
        self.section(|buf| {
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        });
    }

    fn u64s(&mut self, values: &[u64]) {
        self.section(|buf| {
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        });
    }

    /// CSR offsets: a leading 0, then the running total of `lens`.
    fn offsets(&mut self, lens: impl IntoIterator<Item = usize>) {
        let mut total = 0u32;
        let offs: Vec<u32> = std::iter::once(0)
            .chain(lens.into_iter().map(|len| {
                total += len as u32;
                total
            }))
            .collect();
        self.u32s(offs);
    }

    fn finish(mut self) -> Vec<u8> {
        assert_eq!(self.table.len(), SECTIONS, "every section written");
        let len = self.buf.len() as u64;
        self.buf[..8].copy_from_slice(MAGIC);
        self.buf[8..12].copy_from_slice(&VERSION.to_le_bytes());
        self.buf[12..16].copy_from_slice(&(SECTIONS as u32).to_le_bytes());
        self.buf[16..24].copy_from_slice(&len.to_le_bytes());
        for (i, (off, size)) in self.table.iter().enumerate() {
            let at = HEADER + i * 16;
            self.buf[at..at + 8].copy_from_slice(&off.to_le_bytes());
            self.buf[at + 8..at + 16].copy_from_slice(&size.to_le_bytes());
        }
        self.buf
    }
}
