//! Corruption sweep over the `SAMALSH1` signature sidecar: truncation
//! at *every* byte position (the sidecar is small enough to afford
//! exhaustive cuts), plus bit flips in the header, section table, and
//! across every section. Every mutation must produce a typed
//! [`path_index::StorageError`] or a *valid* sidecar whose probes stay
//! in bounds — never a panic. This mirrors `corrupt_v2.rs` for the
//! index file itself: the sidecar is parsed with the same deep
//! validation so a later `probe()` can trust every slot and posting.
//! A sidecar that parses is attached to the index it was built for,
//! [`MappedIndex::attach_lsh`], and probed the way the cluster fill
//! probes it, through [`IndexLike::lsh_probe`].

use path_index::{
    build_lsh_bytes, encode_v2, IndexLike, LshParams, LshSidecar, MappedIndex, PathIndex,
};
use proptest::prelude::*;
use rdf_model::DataGraph;
use std::sync::OnceLock;

/// A fresh handle on the sample index (a sidecar attaches by value).
fn sample_index() -> MappedIndex {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    let image = IMAGE.get_or_init(|| encode_v2(&PathIndex::build(sample_data())).unwrap());
    MappedIndex::from_bytes(image).unwrap()
}

fn sample_data() -> DataGraph {
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
    b.build()
}

fn sample_bytes() -> Vec<u8> {
    build_lsh_bytes(&sample_index(), LshParams::default()).unwrap()
}

/// A parse that accepts corrupted bytes must still attach or be refused
/// typed, and an attached sidecar must serve probes — with a signature
/// of its own shape — without panicking or returning out-of-range paths.
fn probe(bytes: &[u8]) {
    let Ok(sidecar) = LshSidecar::from_bytes(bytes) else {
        return;
    };
    let mut index = sample_index();
    if index.attach_lsh(sidecar).is_err() {
        return;
    }
    let params = index.lsh_params().expect("attached");
    let signature: Vec<u32> = (0..params.signature_len() as u32).collect();
    for candidate in index.lsh_probe(&signature) {
        assert!(
            candidate.path.index() < index.total_paths(),
            "probe returned out-of-range path {:?}",
            candidate.path
        );
    }
}

#[test]
fn truncation_at_every_byte_is_typed() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        let err = LshSidecar::from_bytes(&bytes[..cut]).expect_err("truncated sidecar parsed");
        // Formatting the typed error must not panic either.
        let _ = err.to_string();
    }
}

/// Byte positions worth attacking exhaustively: the header, every
/// section-table entry, and the first/last byte of every section.
fn interesting_offsets(bytes: &[u8]) -> Vec<usize> {
    const HEADER_LEN: usize = 24;
    const SECTIONS: usize = 5;
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

#[test]
fn bit_flips_at_boundaries_never_panic() {
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
fn strided_bit_flips_never_panic() {
    // A coprime stride walks every section interior without the cost
    // of the full bytes × bits product (the proptest legs cover the
    // rest probabilistically).
    let bytes = sample_bytes();
    for at in (0..bytes.len()).step_by(17) {
        let mut mutated = bytes.clone();
        mutated[at] ^= 1 << (at % 8);
        probe(&mutated);
    }
}

#[test]
fn header_and_table_bytes_zeroed_never_panic() {
    const HEADER_AND_TABLE: usize = 24 + 5 * 16;
    let bytes = sample_bytes();
    for at in 0..HEADER_AND_TABLE.min(bytes.len()) {
        let mut mutated = bytes.clone();
        mutated[at] = 0;
        probe(&mutated);
    }
}

#[test]
fn wrong_magic_is_bad_magic() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    assert!(matches!(
        LshSidecar::from_bytes(&bytes),
        Err(path_index::StorageError::BadMagic)
    ));
}

#[test]
fn attach_rejects_foreign_sidecar() {
    // A sidecar built for a different snapshot (different path count)
    // must be rejected at attach, not trusted at probe time.
    let mut small = DataGraph::builder();
    small.triple_str("a", "p", "b").unwrap();
    let mut small_index = MappedIndex::build(small.build()).unwrap();
    let foreign = LshSidecar::from_bytes(&sample_bytes()).unwrap();
    assert!(small_index.attach_lsh(foreign).is_err());
    assert!(small_index.lsh_params().is_none());
    // Its own sidecar attaches.
    let mut index = sample_index();
    index
        .attach_lsh(LshSidecar::from_bytes(&sample_bytes()).unwrap())
        .unwrap();
    assert_eq!(index.lsh_params(), Some(LshParams::default()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary single-byte corruption anywhere in the sidecar.
    #[test]
    fn random_byte_corruption_never_panics(at in 0usize..1 << 16, value in 0u8..=255) {
        let bytes = sample_bytes();
        let mut mutated = bytes.clone();
        let at = at % mutated.len();
        mutated[at] = value;
        probe(&mutated);
    }

    /// Multi-byte scribbles: overwrite a random window.
    #[test]
    fn random_window_corruption_never_panics(
        at in 0usize..1 << 16,
        window in proptest::collection::vec(0u8..=255, 1..32),
    ) {
        let bytes = sample_bytes();
        let mut mutated = bytes.clone();
        let at = at % mutated.len();
        let end = (at + window.len()).min(mutated.len());
        mutated[at..end].copy_from_slice(&window[..end - at]);
        probe(&mutated);
    }

    /// Arbitrary truncation points are typed errors.
    #[test]
    fn random_truncation_is_typed(cut in 0usize..1 << 16) {
        let bytes = sample_bytes();
        let cut = cut % bytes.len();
        prop_assert!(LshSidecar::from_bytes(&bytes[..cut]).is_err());
    }
}
