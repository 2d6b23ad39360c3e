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
//! * `constant_label` — the three above (its table is built from them);
//! * `labels`, `path_shape` — every path's shape id is below the shape
//!   count, the shape offsets start at 0, never decrease and end at the
//!   pool's length, and a path's shape has one label per edge;
//! * `all_path_ids` — every entry of the path-order section is a path
//!   id in range (the probe reads each listed path).
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
const SECTIONS: usize = 24;
const VOCAB_KINDS: usize = 1;
const VOCAB_OFFSETS: usize = 2;
const VOCAB_BLOB: usize = 3;
const NODE_LABELS: usize = 4;
const PATH_OFFSETS: usize = 8;
const PATH_SHAPES: usize = 12;
const SHAPE_OFFSETS: usize = 13;
const SHAPE_LABELS: usize = 14;
const SORTED_OFFSETS: usize = 15;
const SORTED_NODES: usize = 16;
const LABEL_TABLE: usize = 17;
const LABEL_POSTINGS: usize = 18;
const IC_COUNTS: usize = 22;
const PATH_ORDER: usize = 23;

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

/// Both decode paths must agree on rejecting (or both accept — some
/// flips are harmless); neither may panic. A survivor must then answer
/// every label-level read exactly as its owned decode does.
fn probe(bytes: &[u8]) {
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
    for (label, kind, lexical) in graph.vocab().iter() {
        assert_eq!(mapped.label_lexical(label), lexical);
        assert_eq!(mapped.label_kind(label), kind);
        assert_eq!(
            mapped.constant_label(lexical),
            graph.vocab().get_constant(lexical),
            "{lexical:?}"
        );
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
        assert_eq!(labels.edge_labels.len() + 1, labels.node_labels.len());
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
    // `SAMAIDX1` and the compressed `SAMAIDXZ`; for a `SAMAIDX2` from
    // before the shape table, the 24-byte header announcing 20 sections
    // (without `ic-counts`) or 21 (with); from before path-content
    // order, 23 (its postings are in path-id order, which the cluster
    // fill would take for content order).
    let old_header = |sections: u32| {
        let mut header = MAGIC2.to_vec();
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&sections.to_le_bytes());
        header.extend_from_slice(&4096u64.to_le_bytes());
        header
    };
    let retired = [
        b"SAMAIDX1".to_vec(),
        b"SAMAIDXZ".to_vec(),
        old_header(20),
        old_header(21),
        old_header(23),
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
            probe(&mutated);
        }
    }
}

#[test]
fn every_header_and_table_byte_zeroed_never_panics() {
    let bytes = sample_bytes();
    for at in 0..(HEADER_LEN + SECTIONS * 16) {
        let mut mutated = bytes.clone();
        mutated[at] = 0;
        probe(&mutated);
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
        shape_len(word(&bytes, PATH_SHAPES, path) as usize) + 1,
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

#[test]
fn a_path_order_entry_out_of_range_is_typed() {
    let bytes = sample_bytes();
    let (off, len) = section(&bytes, PATH_ORDER);
    let paths = section(&bytes, PATH_SHAPES).1 / 4;
    assert_eq!(len, 4 * paths, "one entry per path");
    // The order is a permutation of the path ids, stored as written.
    let mut order: Vec<u32> = bytes[off..off + len]
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        .collect();
    let mapped = MappedIndex::from_bytes(&bytes).unwrap();
    let listed: Vec<u32> = mapped.all_path_ids().iter().map(|p| p.0).collect();
    assert_eq!(listed, order);
    order.sort_unstable();
    assert!(order.iter().copied().eq(0..paths as u32));

    for (entry, value) in [(0, paths as u32), (paths - 1, u32::MAX)] {
        let mut mutated = bytes.clone();
        let at = off + 4 * entry;
        mutated[at..at + 4].copy_from_slice(&value.to_le_bytes());
        for outcome in readers(&mutated) {
            assert_eq!(
                outcome,
                Err(StorageError::Corrupt("path order entry out of range")),
                "entry {entry} = {value}"
            );
        }
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

/// Every reader gives `expected`; a survivor also passes [`probe`].
fn assert_readers(bytes: &[u8], expected: Result<(), StorageError>, what: &str) {
    for outcome in readers(bytes) {
        assert_eq!(outcome, expected, "{what}");
    }
    probe(bytes);
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
    assert_readers(&mutated, Err(StorageError::BadUtf8), "offset inside ü");
    // On the character boundary just before it, both entries are UTF-8.
    let mutated = set_words(&bytes, &[(VOCAB_OFFSETS, i, entry as u32 + 1)]);
    assert_readers(&mutated, Ok(()), "offset before ü");
}

#[test]
fn sorted_sets_must_ascend_inside_but_not_across_boundaries() {
    let bytes = sample_bytes();
    let paths = section(&bytes, PATH_SHAPES).1 / 4;
    let set = |p: usize| {
        word_of(&bytes, SORTED_OFFSETS, p) as usize..word_of(&bytes, SORTED_OFFSETS, p + 1) as usize
    };
    let node = |i: usize| word_of(&bytes, SORTED_NODES, i);

    // A swap inside one set.
    let p = (0..paths)
        .find(|&p| set(p).len() >= 2)
        .expect("a set of two");
    let a = set(p).start;
    let mutated = set_words(
        &bytes,
        &[
            (SORTED_NODES, a, node(a + 1)),
            (SORTED_NODES, a + 1, node(a)),
        ],
    );
    let fault = Err(StorageError::Corrupt(
        "sorted node set not strictly ascending",
    ));
    assert_readers(&mutated, fault.clone(), "descent inside a set");
    // A repeat inside one set.
    let mutated = set_words(&bytes, &[(SORTED_NODES, a + 1, node(a))]);
    assert_readers(&mutated, fault, "repeat inside a set");

    // A set that starts at node 0 right after one that ends above it:
    // a descent across the boundary only, which is no fault.
    let p = (1..paths)
        .find(|&p| node(set(p).start - 1) > 0 && node(set(p).start) > 0)
        .expect("a boundary to descend across");
    let mutated = set_words(&bytes, &[(SORTED_NODES, set(p).start, 0)]);
    assert_readers(&mutated, Ok(()), "descent across a boundary");
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
    assert_readers(&bytes, Ok(()), "a variable no data label uses");

    // A node that names it.
    let mutated = set_words(&bytes, &[(NODE_LABELS, 0, variable.0)]);
    let fault = Err(StorageError::Corrupt("node label out of range"));
    assert_readers(&mutated, fault.clone(), "a node labelled by the variable");
    // A constant a node names, turned into a variable.
    let mut mutated = bytes.clone();
    mutated[section(&bytes, VOCAB_KINDS).0 + word_of(&bytes, NODE_LABELS, 0) as usize] = 3;
    assert_readers(&mutated, fault, "a node's label turned variable");
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
            Err(StorageError::Corrupt(message)),
            message,
        );
    }
}

#[test]
fn interleaved_table_faults_report_the_first_slot() {
    let bytes = sample_bytes();
    let slots = section(&bytes, LABEL_TABLE).1 / 12;
    let used: Vec<usize> = (0..slots)
        .filter(|&s| word_of(&bytes, LABEL_TABLE, 3 * s) != u32::MAX)
        .collect();
    let (early, late) = (used[0], used[used.len() - 1]);
    assert!(early < late, "two used slots");
    let vocab_len = word_of(&bytes, 0, 0);
    let postings = (section(&bytes, LABEL_POSTINGS).1 / 4) as u32;
    // A run past the postings keeps its key; a bad key keeps its run.
    let bad_run = |slot: usize| (LABEL_TABLE, 3 * slot + 2, postings + 1);
    let bad_key = |slot: usize| (LABEL_TABLE, 3 * slot, vocab_len);
    for (faults, message) in [
        ([bad_run(early), bad_key(late)], "postings run out of range"),
        ([bad_key(early), bad_run(late)], "table key out of range"),
    ] {
        assert_readers(
            &set_words(&bytes, &faults),
            Err(StorageError::Corrupt(message)),
            message,
        );
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
        probe(&mutated);
    }

    /// Arbitrary truncation points.
    #[test]
    fn random_truncation_is_typed(cut in 0usize..4096) {
        let bytes = sample_bytes();
        let cut = cut % bytes.len();
        prop_assert!(decode_v2(&bytes[..cut]).is_err());
    }
}
