//! Tier-1 (`cargo test -q`) only builds the root package, so the
//! testkit's invariant catalog — the cross-checks that pin the engine's
//! fast paths to the paper's semantics — would never run there. This
//! drives every catalog invariant over one fixed-seed case per
//! generator family; `cargo test -p sama-testkit` sweeps deeper.

use sama_testkit::gen::FAMILIES;
use sama_testkit::run_all;

#[test]
fn every_invariant_holds_on_a_small_fixed_seed_sweep() {
    let report = run_all(FAMILIES.len(), 0x5a3a_7e57);
    assert_eq!(report.checks, FAMILIES.len() * sama_testkit::CATALOG.len());
    let failures: Vec<String> = report.failures.iter().map(|f| f.report()).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
