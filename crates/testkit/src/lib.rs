//! `sama-testkit` — the differential & metamorphic correctness harness
//! for the Sama pipeline.
//!
//! The engine has fast paths (the memoised cluster fill, the batch
//! worker pool, deadline checkpoints) that are each a way for
//! approximate answers to silently drift from the paper's
//! `score = Λ + Ψ` semantics. This crate cross-checks them
//! mechanically:
//!
//! * [`gen`] — seeded adversarial graph/query generators (degenerate
//!   chains, hub-only graphs, label collisions, unicode IRIs,
//!   disconnected queries) beyond what `crates/datasets` produces.
//! * [`invariants`] — the catalog of differential checks (config
//!   bit-identity, VF2/GED oracle agreement) and metamorphic checks
//!   (permutation/renaming invariance, Theorem-1 monotonicity, top-k
//!   prefix stability, deadline identity).
//! * [`mod@shrink`] — ddmin-style minimization of failing cases.
//! * [`case`] + [`runner`] — replayable JSON case files, the sweep
//!   driver, and `testkit replay`.
//! * [`golden`] — shape pinning for EXPLAIN JSONL and the Prometheus
//!   export.
//! * [`reference_image`] — an index image builder that shares no code
//!   with the library's, to hold `encode_v2` to byte for byte, and the
//!   [`hypergraph`] view of Table 1's hyperedges it counts from.
//!
//! Budget: `SAMA_TESTKIT_CASES` (default 24) cases per invariant; the
//! CI deep leg runs 500. See DESIGN.md §13 for the workflow.

pub mod case;
pub mod gen;
pub mod golden;
pub mod hypergraph;
pub mod invariants;
pub mod json;
pub mod reference_image;
pub mod runner;
pub mod shrink;

pub use case::Case;
pub use invariants::{find, Invariant, Kind, CATALOG};
pub use runner::{assert_invariant, case_budget, replay, run_all, run_invariant};
pub use shrink::shrink;
