//! The harness sweep: one `#[test]` per catalog invariant, so a
//! violation is reported under the invariant's name and the rest of
//! the catalog still runs.
//!
//! Each test sweeps `SAMA_TESTKIT_CASES` seeded cases (default 24;
//! CI's deep leg sets 500) across every generator family. On failure
//! the case is shrunk to a minimal repro, written to
//! `target/testkit-failures/`, and the panic message carries the
//! `testkit replay` command line.

use sama_testkit::assert_invariant;

// --- Differential: two implementations must agree ---

#[test]
fn batch_identity() {
    assert_invariant("batch_identity");
}

#[test]
fn exact_answers_embed() {
    assert_invariant("exact_answers_embed");
}

#[test]
fn ged_oracle_agreement() {
    assert_invariant("ged_oracle_agreement");
}

#[test]
fn image_round_trip_identity() {
    assert_invariant("image_round_trip_identity");
}

#[test]
fn lsh_converges_to_exact() {
    assert_invariant("lsh_converges_to_exact");
}

#[test]
fn synonyms_converge_to_exact() {
    assert_invariant("synonyms_converge_to_exact");
}

// --- Metamorphic: transformed inputs relate predictably ---

#[test]
fn triple_order_invariance() {
    assert_invariant("triple_order_invariance");
}

#[test]
fn label_renaming_invariance() {
    assert_invariant("label_renaming_invariance");
}

#[test]
fn query_relabel_monotone() {
    assert_invariant("query_relabel_monotone");
}

#[test]
fn generalization_monotone() {
    assert_invariant("generalization_monotone");
}

#[test]
fn topk_prefix_stability() {
    assert_invariant("topk_prefix_stability");
}

#[test]
fn cluster_cap_is_prefix_of_uncapped() {
    assert_invariant("cluster_cap_is_prefix_of_uncapped");
}

#[test]
fn deadline_unlimited_identity() {
    assert_invariant("deadline_unlimited_identity");
}

#[test]
fn ic_weights_preserve_theorem1() {
    assert_invariant("ic_weights_preserve_theorem1");
}

/// The acceptance bar: the catalog carries at least 8 distinct
/// invariants spanning both kinds (each swept by its own test above).
#[test]
fn catalog_is_broad_enough() {
    use sama_testkit::{Kind, CATALOG};
    assert!(CATALOG.len() >= 8, "catalog shrank to {}", CATALOG.len());
    assert!(CATALOG.iter().any(|i| i.kind == Kind::Differential));
    assert!(CATALOG.iter().any(|i| i.kind == Kind::Metamorphic));
}
