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
//! * `constant_label` — the three above (its table is built from them).

use path_index::{decode_v2, encode_v2, IndexLike, MappedIndex, PathIndex};
use proptest::prelude::*;
use rdf_model::DataGraph;

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
    encode_v2(&PathIndex::build(b.build())).unwrap()
}

/// Byte positions worth attacking: the header, every section-table
/// entry, and the first/last byte of every section.
fn interesting_offsets(bytes: &[u8]) -> Vec<usize> {
    const HEADER_LEN: usize = 24;
    const SECTIONS: usize = 21;
    let mut offs: Vec<usize> = (0..HEADER_LEN + SECTIONS * 16).collect();
    for i in 0..SECTIONS {
        let at = HEADER_LEN + i * 16;
        let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
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
    for at in 0..(24 + 21 * 16) {
        let mut mutated = bytes.clone();
        mutated[at] = 0;
        probe(&mutated);
    }
}

#[test]
fn ic_count_flips_are_rejected_by_the_checksum() {
    // The ic-counts section (index 20) stores the total alongside the
    // per-label counts, so any single bit flip inside a count word must
    // be caught at open — never silently skew the cost model.
    let bytes = sample_bytes();
    let at = 24 + 20 * 16;
    let off = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
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
