//! Slow-query log: a bounded in-process ring of the most recent
//! queries that exceeded a latency threshold, each captured with its
//! phase breakdown, truncation reason, and full EXPLAIN trace.
//!
//! Aggregate histograms say *that* the p99 degraded; the slow-query
//! log says *which queries* did it and *where their time went*. The
//! engine checks the [active threshold](SlowLog::threshold) once per
//! query (a single relaxed atomic load when disabled) and, on breach,
//! records one [`SlowQueryRecord`] — including the EXPLAIN trace it
//! builds on demand even when tracing is otherwise off.
//!
//! The threshold is set with [`SlowLog::set_threshold`] (the CLI's
//! `--slowlog <ms>`; `0` captures every query — the smoke-test mode);
//! the ring holds the most recent [`DEFAULT_CAPACITY`] records and
//! counts what it evicted. Dump it as JSONL via [`SlowLog::to_jsonl`]
//! (`sama query/batch/serve --slowlog-out`).
//!
//! This module stores only plain data and pre-rendered JSON, keeping
//! `sama-obs` free of engine types (and of dependencies).

use crate::export::escape;
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Ring capacity of the [global] slow-query log.
pub const DEFAULT_CAPACITY: usize = 128;

/// Sentinel for "no threshold set": the log is disabled.
const DISABLED: u64 = u64::MAX;

/// One captured slow query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQueryRecord {
    /// The engine's per-query id (correlates with the EXPLAIN trace
    /// and any CLI output).
    pub query_id: u64,
    /// Caller-supplied correlation label (query file name), if any.
    pub label: Option<String>,
    /// End-to-end latency of the query.
    pub total_ns: u64,
    /// The threshold that was active when the query was captured.
    pub threshold_ns: u64,
    /// Why the query was truncated (`deadline_exceeded`, …), if it was.
    pub truncation: Option<String>,
    /// The full EXPLAIN trace as one pre-rendered JSON object —
    /// phases, clusters, cache hit ratios, LSH stats.
    pub trace_json: Option<String>,
}

impl SlowQueryRecord {
    /// Render as one JSONL line. `trace_json` is embedded verbatim (it
    /// is already a JSON object).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128 + self.trace_json.as_deref().map_or(0, str::len));
        let _ = write!(out, "{{\"query_id\":{}", self.query_id);
        if let Some(label) = &self.label {
            let _ = write!(out, ",\"label\":\"{}\"", escape(label));
        }
        let _ = write!(
            out,
            ",\"total_ns\":{},\"threshold_ns\":{},\"truncation\":{}",
            self.total_ns,
            self.threshold_ns,
            self.truncation
                .as_deref()
                .map(|t| format!("\"{}\"", escape(t)))
                .unwrap_or_else(|| "null".into()),
        );
        match self.trace_json.as_deref() {
            Some(trace) => {
                let _ = write!(out, ",\"trace\":{trace}");
            }
            None => out.push_str(",\"trace\":null"),
        }
        out.push('}');
        out
    }
}

/// A bounded ring of [`SlowQueryRecord`]s behind an atomic threshold.
#[derive(Debug)]
pub struct SlowLog {
    threshold_ns: AtomicU64,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryRecord>>,
    evicted: AtomicU64,
}

impl SlowLog {
    /// A disabled log holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        SlowLog {
            threshold_ns: AtomicU64::new(DISABLED),
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }
    }

    /// The active capture threshold, or `None` while disabled. This is
    /// the per-query fast path: one relaxed load.
    #[inline]
    pub fn threshold(&self) -> Option<Duration> {
        match self.threshold_ns.load(Ordering::Relaxed) {
            DISABLED => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Set (`Some`, captures every query at or above it — including
    /// `Duration::ZERO`, which captures everything) or clear (`None`)
    /// the capture threshold.
    pub fn set_threshold(&self, threshold: Option<Duration>) {
        let ns = match threshold {
            Some(t) => u64::try_from(t.as_nanos())
                .unwrap_or(DISABLED - 1)
                .min(DISABLED - 1),
            None => DISABLED,
        };
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Append `record`, evicting the oldest entry when full.
    pub fn record(&self, record: SlowQueryRecord) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() == self.capacity {
            entries.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        entries.push_back(record);
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when nothing has been captured (or everything was
    /// cleared).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the capacity bound since process start.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<SlowQueryRecord> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Render every retained record as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.records() {
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Drop every retained record (the eviction count is kept).
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// The process-wide slow-query log, disabled until
/// [`SlowLog::set_threshold`].
pub fn global() -> &'static SlowLog {
    static GLOBAL: OnceLock<SlowLog> = OnceLock::new();
    GLOBAL.get_or_init(|| SlowLog::new(DEFAULT_CAPACITY))
}

/// Record into the [global] log and count the capture in the
/// global `query.slow_total` metric — what the engine calls.
pub fn capture(record: SlowQueryRecord) {
    crate::metrics::QUERY_SLOW_TOTAL.add(1);
    global().record(record);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_and_zero_means_everything() {
        let log = SlowLog::new(4);
        assert_eq!(log.threshold(), None);
        log.set_threshold(Some(Duration::from_millis(250)));
        assert_eq!(log.threshold(), Some(Duration::from_millis(250)));
        log.set_threshold(Some(Duration::ZERO));
        assert_eq!(log.threshold(), Some(Duration::ZERO), "0 is a threshold");
        log.set_threshold(None);
        assert_eq!(log.threshold(), None);
    }

    fn record(id: u64) -> SlowQueryRecord {
        SlowQueryRecord {
            query_id: id,
            label: None,
            total_ns: 1_000 * id,
            threshold_ns: 0,
            truncation: None,
            trace_json: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let log = SlowLog::new(2);
        for id in 1..=5 {
            log.record(record(id));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.evicted(), 3);
        let ids: Vec<u64> = log.records().iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![4, 5]);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 3, "eviction count survives clear");
    }

    #[test]
    fn jsonl_embeds_the_trace_verbatim() {
        let rec = SlowQueryRecord {
            query_id: 7,
            label: Some("q7.rq".into()),
            total_ns: 123_456,
            threshold_ns: 1_000,
            truncation: Some("deadline_exceeded".into()),
            trace_json: Some("{\"expansions\":3}".into()),
        };
        let line = rec.to_json_line();
        assert!(line.starts_with("{\"query_id\":7,\"label\":\"q7.rq\""));
        assert!(line.contains("\"total_ns\":123456"));
        assert!(line.contains("\"truncation\":\"deadline_exceeded\""));
        assert!(line.contains("\"trace\":{\"expansions\":3}"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));

        let bare = record(1).to_json_line();
        assert!(bare.contains("\"truncation\":null"));
        assert!(bare.contains("\"trace\":null"));

        let log = SlowLog::new(4);
        log.record(rec);
        log.record(record(1));
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn labels_are_escaped() {
        let rec = SlowQueryRecord {
            label: Some("a\"b\n".into()),
            ..record(1)
        };
        assert!(rec.to_json_line().contains("\"label\":\"a\\\"b\\n\""));
    }
}
