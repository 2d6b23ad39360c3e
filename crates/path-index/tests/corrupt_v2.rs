//! Corruption sweep over the `SAMAIDX2` zero-copy format: truncations
//! at and around every section boundary, plus bit flips in the header,
//! section table, and at every section's first and last byte. Every
//! mutation must produce a typed [`StorageError`] or a *valid* decode
//! (a flip can be semantically harmless, e.g. inside the vocabulary
//! blob) — never a panic, never an out-of-range slice, and never an
//! attempt to allocate from a corrupted length field.
//!
//! The deterministic sweeps cover the structured positions exhaustively;
//! the proptest leg fuzzes arbitrary offsets on top.
//!
//! A mutated file that still opens is then read through the label-level
//! accessors the query path uses instead of the materialized graph. They
//! index the mapped sections with no checks of their own, so each leans
//! on an invariant the open established:
//!
//! * `label_lexical` — vocab offsets start at 0, never decrease, end at
//!   the blob's length, and every entry is valid UTF-8;
//! * `label_kind` — every kind byte is one of the four known kinds;
//! * `edge_labels` — both endpoints of every edge are node ids in range,
//!   and every node label and edge label is a label id in range;
//! * `constant_label` — the constant table has the number of slots the
//!   vocabulary length implies, one of them empty, and every other holds
//!   a label id. The table is stored, keyed by the hash of each form the
//!   blob held when it was written, and open does not check it against
//!   the blob: a survivor whose vocabulary offsets, blob or table was
//!   altered may miss a constant, so there it is only held to returning,
//!   with any label it names a constant spelled as asked. Everywhere
//!   else it answers as the owned decode does — a flipped kind byte
//!   included, since the table holds every constant and the probe keeps
//!   the first entry of the smallest kind along the chain;
//! * `path_nodes`, `path_edges` — the path offsets start at 0, never
//!   decrease and end at the edge pool's length, every path edge is an
//!   edge id in range, and every path sink a node id in range; a path's
//!   other nodes are the tails of its edges, read through `edge-from`;
//! * `labels`, `path_shape` — every path's shape id is below the shape
//!   count, the shape offsets start at 0, never decrease and end at the
//!   pool's length, and a path's shape has one label per edge; its node
//!   labels are read through the node-label section, so every path node
//!   (a sink or an edge's tail) is a node id in range and every node
//!   label a label id in range;
//! * `all_path_ids` — the ids below the path count, each of which names
//!   a path (the probe reads each listed path).
//!
//! The candidate lists lean on one more: every posting is a path id in
//! range and every run lists its ids strictly ascending — content order,
//! each path once.
//!
//! The formats this crate no longer reads are refused by name, from the
//! header alone, by every reader.

use path_index::{
    decode_any, decode_v2, encode_v2, AlignedBytes, IndexLike, IndexView, MappedIndex, PathIndex,
    StorageError, MAGIC2,
};
use proptest::prelude::*;
use rdf_model::{DataGraph, TermKind};

fn sample_bytes() -> Vec<u8> {
    let mut b = DataGraph::builder();
    for i in 0..30 {
        b.triple_str(
            &format!("s{i}"),
            &format!("p{}", i % 4),
            &format!("m{}", i % 9),
        )
        .unwrap();
        b.triple_str(&format!("m{}", i % 9), "q", &format!("\"leaf {}\"", i % 5))
            .unwrap();
    }
    // One shorter path, so shapes come in two lengths.
    b.triple_str("lone", "p0", "\"leaf 0\"").unwrap();
    // A lexical form with a two-byte character.
    b.triple_str("lone", "p1", "\"Zürich\"").unwrap();
    encode_v2(&PathIndex::build(b.build())).unwrap()
}

const HEADER_LEN: usize = 24;
const SECTIONS: usize = 21;
const VOCAB_KINDS: usize = 1;
const VOCAB_OFFSETS: usize = 2;
const VOCAB_BLOB: usize = 3;
const NODE_LABELS: usize = 4;
const PATH_OFFSETS: usize = 8;
const PATH_SINKS: usize = 9;
const PATH_EDGES: usize = 10;
const PATH_SHAPES: usize = 11;
const SHAPE_OFFSETS: usize = 12;
const SHAPE_LABELS: usize = 13;
const LABEL_OFFSETS: usize = 14;
const LABEL_POSTINGS: usize = 15;
const SINK_OFFSETS: usize = 16;
const SINK_POSTINGS: usize = 17;
const IC_COUNTS: usize = 19;
const CONSTANT_TABLE: usize = 20;

/// Byte `(offset, length)` of section `index`, from the table.
fn section(bytes: &[u8], index: usize) -> (usize, usize) {
    let at = HEADER_LEN + index * 16;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    (word(at), word(at + 8))
}

/// Byte positions worth attacking: the header, every section-table
/// entry, and the first/last byte of every section.
fn interesting_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offs: Vec<usize> = (0..HEADER_LEN + SECTIONS * 16).collect();
    for i in 0..SECTIONS {
        let (off, len) = section(bytes, i);
        if off < bytes.len() {
            offs.push(off);
        }
        if len > 0 && off + len <= bytes.len() {
            offs.push(off + len - 1);
        }
    }
    offs.sort_unstable();
    offs.dedup();
    offs
}

/// Whether `bytes` holds the vocabulary offsets, the blob and the
/// constant table where `original` has them and as it has them: their
/// section-table entries and their bytes are untouched.
fn constants_as_written(bytes: &[u8], original: &[u8]) -> bool {
    [VOCAB_OFFSETS, VOCAB_BLOB, CONSTANT_TABLE]
        .iter()
        .all(|&s| {
            let entry = HEADER_LEN + s * 16..HEADER_LEN + s * 16 + 16;
            let (off, len) = section(original, s);
            bytes[entry.clone()] == original[entry]
                && bytes.get(off..off + len) == original.get(off..off + len)
        })
}

/// Both decode paths must agree on rejecting (or both accept — some
/// flips are harmless); neither may panic. A survivor of a mutation of
/// `original` must then answer every label-level read exactly as its
/// owned decode does — the constant lookup too, unless the mutation
/// altered what the stored table was keyed by (see the module doc).
fn probe(bytes: &[u8], original: &[u8]) {
    let owned = decode_v2(bytes);
    let mapped = MappedIndex::from_bytes(bytes);
    assert_eq!(
        owned.is_ok(),
        mapped.is_ok(),
        "owned decode and mapped open disagree on validity"
    );
    let (Ok(owned), Ok(mapped)) = (owned, mapped) else {
        return;
    };
    let graph = owned.graph().as_graph();
    let exact = constants_as_written(bytes, original);
    for (label, kind, lexical) in graph.vocab().iter() {
        assert_eq!(mapped.label_lexical(label), lexical);
        assert_eq!(mapped.label_kind(label), kind);
        for probe in [lexical, "no such constant"] {
            let found = mapped.constant_label(probe);
            if exact {
                assert_eq!(found, graph.vocab().get_constant(probe), "{probe:?}");
            } else if let Some(found) = found {
                assert_eq!(mapped.label_lexical(found), probe);
                assert_ne!(mapped.label_kind(found), TermKind::Variable, "{probe:?}");
            }
        }
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
    for id in mapped.all_path_ids() {
        assert!((mapped.path_shape(id) as usize) < mapped.shape_count());
        let labels = mapped.labels(id);
        assert_eq!(labels.edge_labels.len() + 1, labels.len());
        let nodes = mapped.path_nodes(id);
        assert_eq!(nodes.len(), mapped.path_edges(id).len() + 1);
        assert!(labels
            .node_labels()
            .eq(nodes.iter().map(|node| graph.node_label(node))));
        for &label in labels.edge_labels {
            let _ = mapped.label_lexical(label);
        }
    }
}

#[test]
fn truncation_at_every_section_boundary_is_typed() {
    let bytes = sample_bytes();
    let mut cuts = interesting_offsets(&bytes);
    cuts.push(0);
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = decode_v2(&bytes[..cut]).expect_err("truncated input decoded");
        // Any typed variant is fine; formatting must not panic either.
        let _ = err.to_string();
        assert!(MappedIndex::from_bytes(&bytes[..cut]).is_err());
    }
}

/// What each of the four readers makes of `bytes`.
fn readers(bytes: &[u8]) -> [Result<(), StorageError>; 4] {
    [
        MappedIndex::from_bytes(bytes).map(drop),
        IndexView::parse(AlignedBytes::copy_from(bytes).as_slice()).map(drop),
        decode_v2(bytes).map(drop),
        decode_any(bytes).map(drop),
    ]
}

#[test]
fn retired_formats_are_refused_from_the_header_alone() {
    // What identifies each retired format: the eight magic bytes of
    // `SAMAIDX1` and the compressed `SAMAIDXZ`; for a `SAMAIDX2`, the
    // 24-byte header of version 2, which every earlier layout was
    // written as — announcing 20 sections from before the shape table
    // (without `ic-counts`) or 21 (with); 23 from before path-content
    // order (its postings are in path-id order, which the cluster fill
    // would take for content order); 24 from before the stored constant
    // table (postings behind hash tables); 25 with a sorted copy of
    // every path's nodes. The header of version 3, announcing 23
    // sections: an image with a copy of every path's node labels. And
    // the header of version 4, announcing 22: path ids in extraction
    // order, beside a `path-order` section listing them by content. And
    // the header of version 5, announcing 21, as this version does: a
    // node list per path where this version stores the path's sink.
    let old_header = |version: u32, sections: u32| {
        let mut header = MAGIC2.to_vec();
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&sections.to_le_bytes());
        header.extend_from_slice(&4096u64.to_le_bytes());
        header
    };
    let retired = [
        b"SAMAIDX1".to_vec(),
        b"SAMAIDXZ".to_vec(),
        old_header(2, 20),
        old_header(2, 21),
        old_header(2, 23),
        old_header(2, 24),
        old_header(2, 25),
        old_header(3, 23),
        old_header(4, 22),
        old_header(5, 21),
    ];
    for identifying in &retired {
        // Refused as soon as the identifying bytes are all there,
        // whatever follows them — nothing past the header is parsed.
        let mut file = identifying.clone();
        file.extend_from_slice(&[0xAB; 40]);
        for len in identifying.len()..=file.len() {
            for outcome in readers(&file[..len]) {
                assert_eq!(outcome, Err(StorageError::LegacyLayout), "{len} bytes");
            }
        }
        // Cut shorter it is not yet known to be ours: typed, no panic.
        for cut in 0..identifying.len() {
            let expected = if cut < MAGIC2.len() {
                StorageError::BadMagic
            } else {
                StorageError::Truncated
            };
            for outcome in readers(&file[..cut]) {
                assert_eq!(outcome, Err(expected.clone()), "cut at {cut}");
            }
        }
    }
    // The refusal tells the operator what to do about it.
    assert!(StorageError::LegacyLayout
        .to_string()
        .contains("sama index"));
}

#[test]
fn bit_flips_at_section_boundaries_never_panic() {
    let bytes = sample_bytes();
    for at in interesting_offsets(&bytes) {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[at] ^= 1 << bit;
            probe(&mutated, &bytes);
        }
    }
}

#[test]
fn every_header_and_table_byte_zeroed_never_panics() {
    let bytes = sample_bytes();
    for at in 0..(HEADER_LEN + SECTIONS * 16) {
        let mut mutated = bytes.clone();
        mutated[at] = 0;
        probe(&mutated, &bytes);
    }
}

#[test]
fn ic_count_flips_are_rejected_by_the_checksum() {
    // The ic-counts section (the last) stores the total alongside the
    // per-label counts, so any single bit flip inside a count word must
    // be caught at open — never silently skew the cost model.
    let bytes = sample_bytes();
    let (off, len) = section(&bytes, IC_COUNTS);
    assert!(len >= 16, "ic section holds a total plus counts");
    for target in [off, off + 8, off + len - 8] {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[target] ^= 1 << bit;
            assert!(decode_v2(&mutated).is_err(), "flip at {target} accepted");
            assert!(MappedIndex::from_bytes(&mutated).is_err());
        }
    }
}

#[test]
fn every_shape_table_violation_is_typed() {
    let bytes = sample_bytes();
    let word = |bytes: &[u8], s: usize, i: usize| {
        let at = section(bytes, s).0 + 4 * i;
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    };
    let paths = section(&bytes, PATH_SHAPES).1 / 4;
    let shapes = section(&bytes, SHAPE_OFFSETS).1 / 4 - 1;
    let pool = section(&bytes, SHAPE_LABELS).1 / 4;
    assert!(shapes >= 2 && pool >= 2, "several shapes to confuse");
    let shape_len =
        |shape: usize| word(&bytes, SHAPE_OFFSETS, shape + 1) - word(&bytes, SHAPE_OFFSETS, shape);
    // A path and a shape of another length than its own (the fixture
    // has two-edge chains and one one-edge path).
    let (path, wrong_shape) = (0..paths)
        .flat_map(|p| (0..shapes).map(move |s| (p, s)))
        .find(|&(p, s)| shape_len(s) != shape_len(word(&bytes, PATH_SHAPES, p) as usize))
        .expect("shapes of two lengths");
    assert_eq!(
        shape_len(word(&bytes, PATH_SHAPES, path) as usize),
        word(&bytes, PATH_OFFSETS, path + 1) - word(&bytes, PATH_OFFSETS, path),
        "as encoded, a shape holds one label per edge of its paths"
    );
    // The vocabulary length leads the counts section (a u64, low word first).
    let vocab_len = word(&bytes, 0, 0);

    let cases: [(&str, usize, usize, u32, &str); 8] = [
        (
            "shape id = shape count",
            PATH_SHAPES,
            0,
            shapes as u32,
            "path shape out of range",
        ),
        (
            "shape id = u32::MAX",
            PATH_SHAPES,
            paths - 1,
            u32::MAX,
            "path shape out of range",
        ),
        (
            "shape of another length",
            PATH_SHAPES,
            path,
            wrong_shape as u32,
            "shape length does not match path",
        ),
        (
            "first offset not 0",
            SHAPE_OFFSETS,
            0,
            1,
            "shape offsets do not span pool",
        ),
        (
            "last offset past the pool",
            SHAPE_OFFSETS,
            shapes,
            pool as u32 + 1,
            "shape offsets do not span pool",
        ),
        (
            "offsets decrease",
            SHAPE_OFFSETS,
            1,
            u32::MAX,
            "shape offsets not monotone",
        ),
        (
            "label = vocabulary length",
            SHAPE_LABELS,
            0,
            vocab_len,
            "shape label out of range",
        ),
        (
            "label = u32::MAX",
            SHAPE_LABELS,
            pool - 1,
            u32::MAX,
            "shape label out of range",
        ),
    ];
    for (what, s, i, value, message) in cases {
        let mut mutated = bytes.clone();
        let at = section(&bytes, s).0 + 4 * i;
        mutated[at..at + 4].copy_from_slice(&value.to_le_bytes());
        assert_eq!(
            decode_v2(&mutated).map(drop),
            Err(StorageError::Corrupt(message)),
            "{what}"
        );
        assert_eq!(
            MappedIndex::from_bytes(&mutated).map(drop),
            Err(StorageError::Corrupt(message)),
            "{what}"
        );
    }
}

// Targeted images for the checks the validation pass tests through an
// equivalent property (DESIGN §14 "Open path"): one image that the
// equivalence must reject and, where one exists, one it must let
// through.

/// Word `i` of section `s`.
fn word_of(bytes: &[u8], s: usize, i: usize) -> u32 {
    let at = section(bytes, s).0 + 4 * i;
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// `bytes` with word `i` of section `s` set to `value`, per entry.
fn set_words(bytes: &[u8], words: &[(usize, usize, u32)]) -> Vec<u8> {
    let mut mutated = bytes.to_vec();
    for &(s, i, value) in words {
        let at = section(bytes, s).0 + 4 * i;
        mutated[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }
    mutated
}

/// Every reader gives `expected` on `bytes`, a mutation of `original`;
/// a survivor also passes [`probe`].
fn assert_readers(bytes: &[u8], original: &[u8], expected: Result<(), StorageError>, what: &str) {
    for outcome in readers(bytes) {
        assert_eq!(outcome, expected, "{what}");
    }
    probe(bytes, original);
}

#[test]
fn a_vocabulary_offset_inside_a_character_is_bad_utf8() {
    let bytes = sample_bytes();
    let (off, len) = section(&bytes, VOCAB_BLOB);
    let blob = &bytes[off..off + len];
    let entry = blob
        .windows("Zürich".len())
        .position(|w| w == "Zürich".as_bytes())
        .expect("the multibyte entry");
    let entries = section(&bytes, VOCAB_OFFSETS).1 / 4;
    let i = (0..entries)
        .find(|&i| word_of(&bytes, VOCAB_OFFSETS, i) as usize == entry)
        .expect("an entry starts there");
    // Move the entry's start onto the second byte of `ü`: the offsets
    // stay monotone and the blob stays valid UTF-8, but two entries no
    // longer are.
    let mutated = set_words(&bytes, &[(VOCAB_OFFSETS, i, entry as u32 + 2)]);
    assert!(std::str::from_utf8(&mutated[off..off + len]).is_ok());
    assert_readers(
        &mutated,
        &bytes,
        Err(StorageError::BadUtf8),
        "offset inside ü",
    );
    // On the character boundary just before it, both entries are UTF-8.
    let mutated = set_words(&bytes, &[(VOCAB_OFFSETS, i, entry as u32 + 1)]);
    assert_readers(&mutated, &bytes, Ok(()), "offset before ü");
}

#[test]
fn a_variable_label_is_refused_only_where_data_uses_it() {
    let mut b = DataGraph::builder();
    b.triple_str("a", "p", "b").unwrap();
    b.triple_str("b", "q", "\"c\"").unwrap();
    let mut graph = b.build().as_graph().clone();
    let variable = graph.vocab_mut().push_raw(TermKind::Variable, "v");
    let data = DataGraph::try_from_graph(graph).unwrap();
    let bytes = encode_v2(&PathIndex::build(data)).unwrap();
    assert_readers(&bytes, &bytes, Ok(()), "a variable no data label uses");

    // A node that names it.
    let mutated = set_words(&bytes, &[(NODE_LABELS, 0, variable.0)]);
    let fault = Err(StorageError::Corrupt("node label out of range"));
    assert_readers(
        &mutated,
        &bytes,
        fault.clone(),
        "a node labelled by the variable",
    );
    // A constant a node names, turned into a variable.
    let mut mutated = bytes.clone();
    mutated[section(&bytes, VOCAB_KINDS).0 + word_of(&bytes, NODE_LABELS, 0) as usize] = 3;
    assert_readers(&mutated, &bytes, fault, "a node's label turned variable");
}

#[test]
fn every_path_store_violation_is_typed() {
    let bytes = sample_bytes();
    let paths = section(&bytes, PATH_SINKS).1 / 4;
    let edges = (section(&bytes, PATH_EDGES).1 / 4) as u32;
    // The node count is the second u64 of the counts section.
    let nodes = word_of(&bytes, 0, 2);
    assert_eq!(word_of(&bytes, PATH_OFFSETS, paths), edges);
    // An offset whose predecessor is past 0, so lowering it to 0
    // descends.
    let inner = (2..paths)
        .find(|&i| word_of(&bytes, PATH_OFFSETS, i - 1) > 0)
        .expect("a path past the first");
    for (what, fault, message) in [
        (
            "sink = node count",
            (PATH_SINKS, 0, nodes),
            "path sink out of range",
        ),
        (
            "sink = u32::MAX",
            (PATH_SINKS, paths - 1, u32::MAX),
            "path sink out of range",
        ),
        (
            "offsets overrun the edge pool",
            (PATH_OFFSETS, paths, edges + 1),
            "path offsets do not span edge pool",
        ),
        (
            "offsets stop short of the edge pool",
            (PATH_OFFSETS, paths, edges - 1),
            "path offsets do not span edge pool",
        ),
        (
            "first offset not 0",
            (PATH_OFFSETS, 0, 1),
            "path offsets do not span edge pool",
        ),
        (
            "offsets decrease",
            (PATH_OFFSETS, inner, 0),
            "path offsets not monotone",
        ),
        (
            "edge = u32::MAX",
            (PATH_EDGES, 0, u32::MAX),
            "path edge out of range",
        ),
    ] {
        assert_readers(
            &set_words(&bytes, &[fault]),
            &bytes,
            Err(StorageError::Corrupt(message)),
            what,
        );
    }
}

#[test]
fn a_path_with_no_edges_opens_and_reads_as_its_sink() {
    // A self-loop alone: no node is a source, the loop's node is the
    // hub, and its only out-edge leads back onto the walk.
    let mut b = DataGraph::builder();
    b.triple_str("loop", "q", "loop").unwrap();
    let bytes = encode_v2(&PathIndex::build(b.build())).unwrap();
    assert_readers(&bytes, &bytes, Ok(()), "a self-loop");
    let mapped = MappedIndex::from_bytes(&bytes).unwrap();
    let edgeless: Vec<_> = mapped
        .all_path_ids()
        .into_iter()
        .filter(|&id| mapped.path_edges(id).is_empty())
        .collect();
    let [id] = edgeless[..] else {
        panic!("one path with no edges: {edgeless:?}");
    };
    let nodes = mapped.path_nodes(id);
    assert_eq!((nodes.len(), nodes.get(0)), (1, nodes.last()));
    assert_eq!(mapped.label_lexical(mapped.labels(id).sink_label()), "loop");
}

#[test]
fn interleaved_shape_faults_report_the_first_path() {
    let bytes = sample_bytes();
    let paths = section(&bytes, PATH_SHAPES).1 / 4;
    let shapes = section(&bytes, SHAPE_OFFSETS).1 / 4 - 1;
    let shape_len =
        |s: usize| word_of(&bytes, SHAPE_OFFSETS, s + 1) - word_of(&bytes, SHAPE_OFFSETS, s);
    let wrong_shape = |p: usize| {
        let own = shape_len(word_of(&bytes, PATH_SHAPES, p) as usize);
        (0..shapes)
            .find(|&s| shape_len(s) != own)
            .expect("another length") as u32
    };
    let (first, last) = (0, paths - 1);
    for (faults, message) in [
        (
            [
                (PATH_SHAPES, first, u32::MAX),
                (PATH_SHAPES, last, wrong_shape(last)),
            ],
            "path shape out of range",
        ),
        (
            [
                (PATH_SHAPES, first, wrong_shape(first)),
                (PATH_SHAPES, last, u32::MAX),
            ],
            "shape length does not match path",
        ),
    ] {
        assert_readers(
            &set_words(&bytes, &faults),
            &bytes,
            Err(StorageError::Corrupt(message)),
            message,
        );
    }
}

#[test]
fn every_postings_offset_violation_is_typed() {
    let bytes = sample_bytes();
    for (offsets, postings, span, monotone) in [
        (
            LABEL_OFFSETS,
            LABEL_POSTINGS,
            "label offsets do not span postings",
            "label offsets not monotone",
        ),
        (
            SINK_OFFSETS,
            SINK_POSTINGS,
            "sink offsets do not span postings",
            "sink offsets not monotone",
        ),
    ] {
        let last = section(&bytes, offsets).1 / 4 - 1;
        let posts = (section(&bytes, postings).1 / 4) as u32;
        assert_eq!(
            word_of(&bytes, offsets, last),
            posts,
            "the runs tile the postings"
        );
        // An offset whose predecessor is past 0, so lowering it to 0
        // descends.
        let inner = (2..last)
            .find(|&i| word_of(&bytes, offsets, i - 1) > 0)
            .expect("a run before the last label");
        for (fault, message) in [
            ((offsets, 0, 1), span),
            ((offsets, last, posts - 1), span),
            ((offsets, last, posts + 1), span),
            ((offsets, inner, 0), monotone),
            ((offsets, inner, u32::MAX), monotone),
        ] {
            assert_readers(
                &set_words(&bytes, &[fault]),
                &bytes,
                Err(StorageError::Corrupt(message)),
                &format!("{message}: {fault:?}"),
            );
        }
    }
}

#[test]
fn a_posting_run_out_of_order_is_typed() {
    let bytes = sample_bytes();
    for (offsets, postings) in [
        (LABEL_OFFSETS, LABEL_POSTINGS),
        (SINK_OFFSETS, SINK_POSTINGS),
    ] {
        let labels = section(&bytes, offsets).1 / 4 - 1;
        let run = |l: usize| {
            word_of(&bytes, offsets, l) as usize..word_of(&bytes, offsets, l + 1) as usize
        };
        let post = |i: usize| word_of(&bytes, postings, i);
        // Runs ascend each on its own: a path listed under several
        // labels puts a descent between two label runs, in an image
        // that opens.
        if postings == LABEL_POSTINGS {
            let posts = section(&bytes, postings).1 / 4;
            assert!((1..posts).any(|i| post(i - 1) > post(i)));
        }
        let pair = (0..labels)
            .map(run)
            .find(|r| r.len() >= 2)
            .expect("a label on two paths");
        let (first, last) = (pair.start, pair.end - 1);
        let (a, b) = (post(first), post(first + 1));
        // Past every path, yet still the largest of its run.
        let paths = (section(&bytes, PATH_SHAPES).1 / 4) as u32;
        for (faults, message) in [
            (
                vec![(postings, first, b), (postings, first + 1, a)],
                "posting run not strictly ascending",
            ),
            (
                vec![(postings, first + 1, a)],
                "posting run not strictly ascending",
            ),
            (vec![(postings, last, paths)], "posting out of range"),
        ] {
            assert_readers(
                &set_words(&bytes, &faults),
                &bytes,
                Err(StorageError::Corrupt(message)),
                &format!("section {postings}: {faults:?}"),
            );
        }
    }
}

#[test]
fn every_constant_table_violation_is_typed() {
    let bytes = sample_bytes();
    let slots = section(&bytes, CONSTANT_TABLE).1 / 4;
    assert!(slots.is_power_of_two());
    let vocab_len = word_of(&bytes, 0, 0);
    let empty: Vec<usize> = (0..slots)
        .filter(|&s| word_of(&bytes, CONSTANT_TABLE, s) == u32::MAX)
        .collect();
    let used = (0..slots)
        .find(|s| !empty.contains(s))
        .expect("a used slot");

    // No empty slot: open refuses it, so no probe can run for ever.
    let full: Vec<_> = empty.iter().map(|&s| (CONSTANT_TABLE, s, 0)).collect();
    assert_readers(
        &set_words(&bytes, &full),
        &bytes,
        Err(StorageError::Corrupt("constant table has no empty slot")),
        "no empty slot",
    );
    // A slot naming no label.
    for fault in [
        (CONSTANT_TABLE, used, vocab_len),
        (CONSTANT_TABLE, empty[0], u32::MAX - 1),
    ] {
        assert_readers(
            &set_words(&bytes, &[fault]),
            &bytes,
            Err(StorageError::Corrupt("constant table slot out of range")),
            &format!("{fault:?}"),
        );
    }
    // A slot naming another label opens: open does not check the table
    // against the blob, so the constant the slot held is missed.
    let other = (word_of(&bytes, CONSTANT_TABLE, used) + 1) % vocab_len;
    assert_readers(
        &set_words(&bytes, &[(CONSTANT_TABLE, used, other)]),
        &bytes,
        Ok(()),
        "a slot naming another label",
    );
    // A length other than the one the vocabulary length implies, told
    // by the section table (the section's bytes stay where they are):
    // none, one slot, half the slots, one slot short, a part slot.
    let entry = HEADER_LEN + CONSTANT_TABLE * 16 + 8;
    for len in [0, 4, 2 * slots, 4 * slots - 4, 4 * slots - 2] {
        let mut mutated = bytes.clone();
        mutated[entry..entry + 8].copy_from_slice(&(len as u64).to_le_bytes());
        for outcome in readers(&mutated) {
            assert_eq!(
                outcome,
                Err(StorageError::Corrupt("constant table size")),
                "{len} bytes"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-byte corruption anywhere in the file.
    #[test]
    fn random_byte_corruption_never_panics(at in 0usize..4096, value in 0u8..=255) {
        let bytes = sample_bytes();
        let mut mutated = bytes.clone();
        let at = at % mutated.len();
        mutated[at] = value;
        probe(&mutated, &bytes);
    }

    /// Arbitrary truncation points.
    #[test]
    fn random_truncation_is_typed(cut in 0usize..4096) {
        let bytes = sample_bytes();
        let cut = cut % bytes.len();
        prop_assert!(decode_v2(&bytes[..cut]).is_err());
    }
}
