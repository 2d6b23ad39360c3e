//! A reference `SAMAIDX2` builder that shares no code with the
//! library's: the per-path assembly and append-only encoder that
//! `path_index` used before its builder held the image's section pools.
//!
//! One struct per path with its own label and sorted-node vectors,
//! `FxHashMap` postings, a [`HyperGraphView`] for Table 1's counts, the
//! shape table interned through a map of borrowed sequences, and a
//! writer that appends each section to a growing `Vec<u8>` — none of
//! it reaches `path_index`'s pools, postings arrays or section writer.
//! `image_round_trip_identity` holds `encode_v2(&PathIndex::build(g))`
//! to [`reference_image`] byte for byte, modulo the build-time word
//! ([`without_build_time`]).

use crate::hypergraph::HyperGraphView;
use path_index::{extract_paths, ExtractionConfig, Path};
use rdf_model::{DataGraph, FxHashMap, LabelId, NodeId, TermKind};

const MAGIC: &[u8; 8] = b"SAMAIDX2";
const VERSION: u32 = 2;
const SECTIONS: usize = 24;
const HEADER: usize = 24;
/// Table entry of the `stats` section, and the offset of its build-time
/// word (the seventh `u64`) inside it.
const STATS_SECTION: usize = 21;
const BUILD_TIME_AT: usize = 48;
const EMPTY: u32 = u32::MAX;

/// One indexed path as the old builder held it.
struct RefPath {
    path: Path,
    node_labels: Vec<LabelId>,
    edge_labels: Vec<LabelId>,
    sorted_nodes: Vec<NodeId>,
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
    let paths: Vec<RefPath> = extraction
        .paths
        .iter()
        .map(|path| {
            let labels = path.labels(g);
            let mut sorted_nodes = path.nodes.to_vec();
            sorted_nodes.sort_unstable();
            sorted_nodes.dedup();
            RefPath {
                path: path.clone(),
                node_labels: labels.node_labels.to_vec(),
                edge_labels: labels.edge_labels.to_vec(),
                sorted_nodes,
            }
        })
        .collect();

    // Content order: ascending by (nodes, edges), one full sort.
    let mut order: Vec<u32> = (0..paths.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&paths[a as usize].path, &paths[b as usize].path);
        (&a.nodes, &a.edges).cmp(&(&b.nodes, &b.edges))
    });

    // Postings, filled in content order.
    let mut by_label: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();
    let mut by_sink: FxHashMap<LabelId, Vec<u32>> = FxHashMap::default();
    for &id in &order {
        let p = &paths[id as usize];
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

    let node_pool: usize = paths.iter().map(|p| p.path.nodes.len()).sum();
    let sorted_pool: usize = paths.iter().map(|p| p.sorted_nodes.len()).sum();
    let (label_table, label_posts) = stored_table(&by_label);
    let (sink_table, sink_posts) = stored_table(&by_sink);

    let mut w = Writer::new();
    w.u64s(&[
        vocab.len() as u64,
        g.node_count() as u64,
        g.edge_count() as u64,
        paths.len() as u64,
        node_pool as u64,
        sorted_pool as u64,
        (label_table.len() / 3) as u64,
        (sink_table.len() / 3) as u64,
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
    w.offsets(paths.iter().map(|p| p.path.nodes.len()));
    w.u32s(paths.iter().flat_map(|p| p.path.nodes.iter().map(|n| n.0)));
    w.u32s(paths.iter().flat_map(|p| p.path.edges.iter().map(|e| e.0)));
    w.u32s(paths.iter().flat_map(|p| p.node_labels.iter().map(|l| l.0)));
    w.u32s(path_shapes);
    w.offsets(shapes.iter().map(|s| s.len()));
    w.u32s(shapes.iter().flat_map(|s| s.iter().map(|l| l.0)));
    w.offsets(paths.iter().map(|p| p.sorted_nodes.len()));
    w.u32s(
        paths
            .iter()
            .flat_map(|p| p.sorted_nodes.iter().map(|n| n.0)),
    );
    w.u32s(label_table);
    w.u32s(label_posts);
    w.u32s(sink_table);
    w.u32s(sink_posts);
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
    w.u32s(order);
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

/// A power-of-two open-addressing table (Fibonacci hash on the high
/// bits, linear probing, slots `{label, start, len}`) and its postings
/// pool, labels inserted in ascending order.
fn stored_table(map: &FxHashMap<LabelId, Vec<u32>>) -> (Vec<u32>, Vec<u32>) {
    let cap = (map.len() * 2).next_power_of_two().max(4);
    let mut table = vec![EMPTY; cap * 3];
    let mut posts = Vec::new();
    let mut labels: Vec<LabelId> = map.keys().copied().collect();
    labels.sort_unstable();
    for label in labels {
        let run = &map[&label];
        let start = posts.len() as u32;
        posts.extend_from_slice(run);
        let hash = u64::from(label.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut slot = (hash >> (64 - cap.trailing_zeros())) as usize;
        while table[slot * 3] != EMPTY {
            slot = (slot + 1) & (cap - 1);
        }
        table[slot * 3..slot * 3 + 3].copy_from_slice(&[label.0, start, run.len() as u32]);
    }
    (table, posts)
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
