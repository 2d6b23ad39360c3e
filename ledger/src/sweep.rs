//! The closed-loop sweep: a fixed list of operation *types* (the 12
//! LUBM queries, or the same queries as `sama query` processes), run
//! one after another in seeded shuffled order, sweep after sweep, until
//! the phase's time is up — and the statistics read off it.
//!
//! The latency distribution of such a mix is a handful of narrow
//! peaks, one per type. A pooled percentile merely picks a peak, and
//! when the rank falls between two peaks (p50 of 12 equally weighted
//! types) it reads the edge of one — the noisiest place there is. So
//! each type gets one latency (its fastest execution over the sweeps,
//! see [`Summary`]), and `p50`/`p95` are nearest-rank percentiles
//! *across types*: "the median query" and "the slowest query in twenty".

use crate::gen::shuffled_sweep;
use crate::interrupted;
use crate::stats::{equal_windows, Summary};
use datasets::Rng;
use std::time::{Duration, Instant};

/// Windows every timed phase is split into, so that every metric
/// carries the spread it was read from.
pub const WINDOWS: usize = 7;

/// How one operation went.
#[derive(Debug, Clone, Copy)]
pub struct OpDone {
    /// Time inside the system under test (verification excluded).
    pub busy: Duration,
    /// Passed the correctness gate.
    pub ok: bool,
    /// The answer was flagged `truncated`.
    pub truncated: bool,
}

/// Everything a sweep phase observed.
#[derive(Debug, Default)]
pub struct SweepLog {
    types: usize,
    /// Per sweep, `(type, busy seconds)` in execution order.
    sweeps: Vec<Vec<(usize, f64)>>,
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed the gate.
    pub failed: u64,
    /// Operations whose answer was truncated.
    pub truncated: u64,
}

/// Run whole sweeps over `types` operation types until `budget` is
/// spent (and at least `min_sweeps` are done). `op(type)` executes one
/// operation; an `Err` from it aborts the run (harness trouble, or the
/// driver was interrupted) — a *failed operation* is `ok: false`.
pub fn run_sweeps(
    types: usize,
    rng: &mut Rng,
    budget: Duration,
    min_sweeps: usize,
    mut op: impl FnMut(usize) -> Result<OpDone, String>,
) -> Result<SweepLog, String> {
    let mut log = SweepLog {
        types,
        ..SweepLog::default()
    };
    let start = Instant::now();
    while log.sweeps.len() < min_sweeps || start.elapsed() < budget {
        let mut sweep = Vec::with_capacity(types);
        for ty in shuffled_sweep(rng, types) {
            interrupted()?;
            let done = op(ty)?;
            log.attempted += 1;
            log.failed += u64::from(!done.ok);
            log.truncated += u64::from(done.truncated);
            sweep.push((ty, done.busy.as_secs_f64()));
        }
        log.sweeps.push(sweep);
    }
    Ok(log)
}

impl SweepLog {
    /// Windows the sweeps split into.
    pub fn windows(&self) -> usize {
        equal_windows(&self.sweeps, WINDOWS).len()
    }

    /// Operations per second of busy time: the spread is that of the
    /// per-window rates, the value is the rate of a sweep in which
    /// every type takes its [`SweepLog::type_latency_ms`].
    pub fn ops_per_s(&self) -> Summary {
        let rates: Vec<f64> = equal_windows(&self.sweeps, WINDOWS)
            .iter()
            .map(|window| {
                let ops: usize = window.iter().map(Vec::len).sum();
                let busy: f64 = window.iter().flatten().map(|&(_, s)| s).sum();
                ops as f64 / busy
            })
            .collect();
        let sweep_ms: f64 = (0..self.types)
            .map(|ty| self.type_latency_ms(ty).value)
            .sum();
        Summary {
            value: self.types as f64 * 1e3 / sweep_ms,
            ..Summary::high(&rates)
        }
    }

    /// The latency of one type: its fastest execution (see [`Summary`]
    /// for why not the median).
    pub fn type_latency_ms(&self, ty: usize) -> Summary {
        Summary::fast(&self.type_ms(ty))
    }

    /// Busy seconds of each sweep (all its operations).
    pub fn sweep_seconds(&self) -> Vec<f64> {
        self.sweeps
            .iter()
            .map(|sweep| sweep.iter().map(|&(_, s)| s).sum())
            .collect()
    }

    /// Latency samples of one type, milliseconds.
    pub fn type_ms(&self, ty: usize) -> Vec<f64> {
        self.sweeps
            .iter()
            .flatten()
            .filter(|&&(t, _)| t == ty)
            .map(|&(_, s)| s * 1e3)
            .collect()
    }

    /// Nearest-rank percentile `q` across the types `select` admits,
    /// each type standing for its latency. The summary is that of the
    /// selected type's own samples.
    pub fn percentile_over_types(&self, q: f64, select: impl Fn(usize) -> bool) -> Summary {
        let mut latencies: Vec<Summary> = (0..self.types)
            .filter(|&ty| select(ty))
            .map(|ty| self.type_latency_ms(ty))
            .collect();
        latencies.sort_by(|a, b| a.value.total_cmp(&b.value));
        let rank = (q * latencies.len() as f64).ceil() as usize;
        latencies
            .get(rank.clamp(1, latencies.len().max(1)) - 1)
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Type `t` always takes `t + 1` milliseconds.
    fn fake(types: usize, sweeps: usize) -> SweepLog {
        let mut rng = Rng::new(1);
        let mut left = sweeps * types;
        run_sweeps(types, &mut rng, Duration::ZERO, sweeps, |ty| {
            left -= 1;
            Ok(OpDone {
                busy: Duration::from_millis(ty as u64 + 1),
                ok: ty != 0,
                truncated: ty == 1,
            })
        })
        .inspect(|_| assert_eq!(left, 0))
        .unwrap()
    }

    #[test]
    fn runs_whole_sweeps_and_counts_the_gate() {
        let log = fake(12, 9);
        assert_eq!(log.sweep_seconds().len(), 9);
        assert_eq!(log.windows(), 7);
        assert_eq!((log.attempted, log.failed, log.truncated), (108, 9, 9));
        // Every sweep is the same work: 78 ms for 12 ops.
        let rate = log.ops_per_s();
        assert!((rate.value - 12.0 / 0.078).abs() < 1e-6);
        assert!((rate.max - 12.0 / 0.078).abs() < 1e-6);
        assert_eq!(rate.n, 7);
        assert!(log
            .sweep_seconds()
            .iter()
            .all(|&s| (s - 0.078).abs() < 1e-9));
    }

    #[test]
    fn percentiles_are_taken_across_types() {
        let log = fake(12, 7);
        // Lower-middle of 12 types = the 6th fastest (6 ms); p95 = the
        // slowest (12 ms).
        assert_eq!(log.percentile_over_types(0.5, |_| true).value, 6.0);
        assert_eq!(log.percentile_over_types(0.95, |_| true).value, 12.0);
        assert_eq!(log.percentile_over_types(0.5, |ty| ty >= 6).value, 9.0);
        assert_eq!(
            log.percentile_over_types(0.5, |_| false),
            Summary::default()
        );
        assert_eq!(log.percentile_over_types(0.5, |_| true).n, 7);
        assert_eq!(log.type_ms(3), vec![4.0; 7]);
    }

    #[test]
    fn an_error_aborts_the_phase() {
        let mut rng = Rng::new(1);
        let r = run_sweeps(3, &mut rng, Duration::ZERO, 1, |_| Err("stop".into()));
        assert_eq!(r.unwrap_err(), "stop");
    }
}
