//! # bench
//!
//! Criterion benchmarks regenerating the paper's tables and figures.
//! Shared fixtures live here; the individual benches are under
//! `benches/`.
//!
//! | Bench target        | Paper artefact |
//! |---------------------|----------------|
//! | `table1_indexing`   | Table 1 (index build time per corpus) |
//! | `fig6_query_time`   | Figure 6 (per-query response time, 4 systems) |
//! | `fig7_scalability`  | Figure 7 (I / query-node / variable sweeps) |
//! | `micro_measure`     | the measure itself: align, χ/ψ, cluster, search |
//! | `ablations`         | design-choice ablations (DESIGN.md §6) |

#![warn(missing_docs)]

use datasets::lubm::{generate, LubmConfig};
use datasets::{lubm_workload, LubmDataset, NamedQuery};
use sama_core::SamaEngine;

/// A ready-to-query fixture shared by the benches.
pub struct BenchFixture {
    /// The generated dataset.
    pub dataset: LubmDataset,
    /// Engine over it.
    pub engine: SamaEngine,
    /// The 12-query workload.
    pub workload: Vec<NamedQuery>,
}

/// Build the standard bench fixture (~`triples` triples, fixed seed).
pub fn fixture(triples: usize) -> BenchFixture {
    let dataset = generate(&LubmConfig::sized_for(triples, 42));
    let engine = SamaEngine::new(dataset.graph.clone());
    let workload = lubm_workload(&dataset);
    BenchFixture {
        dataset,
        engine,
        workload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use path_index::IndexLike;

    #[test]
    fn fixture_is_usable() {
        let fx = fixture(800);
        assert_eq!(fx.workload.len(), 12);
        assert!(fx.engine.index().total_paths() > 0);
    }
}
