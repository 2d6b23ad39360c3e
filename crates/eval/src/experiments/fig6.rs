//! Figure 6: average response time of the 12 LUBM queries on the four
//! systems, cold- and warm-cache.
//!
//! "We ran the queries ten times and we measured the average response
//! time … the total time of each query is the time for computing the
//! top-10 answers, including any preprocessing, execution and
//! traversal."
//!
//! Cold cache for Sama opens the index image before every run — copied
//! and validated, as `sama query` opens its file (the paper's
//! disk-resident HGDB start); warm reuses the resident engine.
//! The baselines hold no persistent index, so their cold and warm runs
//! coincide — we report their (identical) measurement once, as the
//! paper's bars do.

use super::setup::LubmFixture;
use graph_match::Matcher;
use path_index::{encode_v2, MappedIndex, PathIndex};
use sama_core::SamaEngine;
use std::fmt;
use std::time::Instant;

/// Per-query timings in milliseconds.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Query name ("Q1" … "Q12").
    pub query: String,
    /// Sama, cold cache (per-run index open included).
    pub sama_cold_ms: f64,
    /// Sama, warm cache.
    pub sama_warm_ms: f64,
    /// SAPPER (Δ=1).
    pub sapper_ms: f64,
    /// BOUNDED (2 hops).
    pub bounded_ms: f64,
    /// DOGMA.
    pub dogma_ms: f64,
}

/// The regenerated Figure 6 (both panels).
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One row per workload query.
    pub rows: Vec<Fig6Row>,
    /// Number of timed repetitions (the paper uses 10).
    pub runs: usize,
    /// `k` of the top-k computation (the paper uses 10).
    pub k: usize,
}

/// Average over up to `runs` repetitions, adaptively: a first timed run
/// longer than [`SLOW_RUN_BUDGET`] is reported as-is (the deterministic
/// slow matchers gain nothing from repetition, and the full grid must
/// stay tractable).
const SLOW_RUN_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);

fn avg_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let first = Instant::now();
    f();
    let first = first.elapsed();
    if first >= SLOW_RUN_BUDGET || runs <= 1 {
        return first.as_secs_f64() * 1e3;
    }
    let start = Instant::now();
    for _ in 1..runs {
        f();
    }
    (first + start.elapsed()).as_secs_f64() * 1e3 / runs as f64
}

/// Run Figure 6 on a corpus of roughly `triples` triples.
pub fn run(triples: usize, runs: usize, k: usize) -> Fig6 {
    let fx = LubmFixture::new(triples, 42);
    let bytes = encode_v2(&PathIndex::build(fx.data().clone())).expect("index fits format");

    let rows = fx
        .workload
        .iter()
        .map(|nq| {
            let q = &nq.query;
            let sama_cold_ms = avg_ms(runs, || {
                let opened = MappedIndex::from_bytes(&bytes).expect("index bytes are valid");
                let engine = SamaEngine::from_index(opened);
                let _ = engine.answer(q, k);
            });
            let sama_warm_ms = avg_ms(runs, || {
                let _ = fx.engine.answer(q, k);
            });
            let sapper_ms = avg_ms(runs, || {
                let _ = fx.sapper.find_matches(fx.data(), q, k);
            });
            let bounded_ms = avg_ms(runs, || {
                let _ = fx.bounded.find_matches(fx.data(), q, k);
            });
            let dogma_ms = avg_ms(runs, || {
                let _ = fx.dogma.find_matches(fx.data(), q, k);
            });
            Fig6Row {
                query: nq.name.to_string(),
                sama_cold_ms,
                sama_warm_ms,
                sapper_ms,
                bounded_ms,
                dogma_ms,
            }
        })
        .collect();
    Fig6 { rows, runs, k }
}

impl Fig6 {
    /// Geometric-mean speedup of warm Sama over a column selector —
    /// the "who wins by what factor" summary.
    pub fn geomean_speedup(&self, column: impl Fn(&Fig6Row) -> f64) -> f64 {
        let logs: f64 = self
            .rows
            .iter()
            .map(|r| (column(r) / r.sama_warm_ms.max(1e-9)).ln())
            .sum();
        (logs / self.rows.len() as f64).exp()
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — avg response time over {} runs, top-{} (ms)\n\
             {:<5} {:>11} {:>11} {:>10} {:>10} {:>10}",
            self.runs, self.k, "query", "sama(cold)", "sama(warm)", "sapper", "bounded", "dogma"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<5} {:>11.3} {:>11.3} {:>10.3} {:>10.3} {:>10.3}",
                r.query, r.sama_cold_ms, r.sama_warm_ms, r.sapper_ms, r.bounded_ms, r.dogma_ms
            )?;
        }
        writeln!(
            f,
            "geomean speedup of sama(warm): {:.1}x vs sapper, {:.1}x vs bounded, {:.1}x vs dogma",
            self.geomean_speedup(|r| r.sapper_ms),
            self.geomean_speedup(|r| r.bounded_ms),
            self.geomean_speedup(|r| r.dogma_ms),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_twelve_rows_with_positive_times() {
        // Five figures of one run each, compared by each query's fastest
        // run per side: a sample the scheduler delayed can only be slow.
        let figs: Vec<Fig6> = (0..5).map(|_| run(800, 1, 5)).collect();
        for fig in &figs {
            assert_eq!(fig.rows.len(), 12);
        }
        for q in 0..12 {
            let fastest = |ms: fn(&Fig6Row) -> f64| {
                figs.iter()
                    .map(|fig| ms(&fig.rows[q]))
                    .fold(f64::INFINITY, f64::min)
            };
            let (cold, warm) = (fastest(|r| r.sama_cold_ms), fastest(|r| r.sama_warm_ms));
            assert!(warm >= 0.0);
            assert!(cold >= warm * 0.1); // sanity
        }
    }

    #[test]
    fn display_contains_all_queries() {
        let fig = run(600, 1, 3);
        let text = fig.to_string();
        assert!(text.contains("Q1"));
        assert!(text.contains("Q12"));
        assert!(text.contains("geomean"));
    }
}
