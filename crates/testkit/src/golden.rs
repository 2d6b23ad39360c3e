//! Golden-snapshot layer: pin the *shape* of the engine's observable
//! exports so a refactor cannot silently rename or drop a field that
//! dashboards and log pipelines depend on.
//!
//! Three snapshots, all committed under `crates/testkit/golden/` and
//! compared exactly — a new entry is as much a contract change as a
//! removed one:
//!
//! * `explain_shape.txt` — the flattened key paths of one EXPLAIN JSONL
//!   line (payloads erased, arrays collapsed; see [`crate::json::shape`]).
//! * `prometheus_names.txt` — the series names the exposition carries
//!   after a query run. The exporter walks the static metric table, so
//!   the set cannot vary with what else the process recorded.
//! * `metrics.txt` — the metric reference: one `name kind help` line
//!   per table entry, in table order.
//!
//! Regenerate intentionally with `SAMA_UPDATE_GOLDEN=1 cargo test -p
//! sama-testkit golden` and review the diff like any API change.

use crate::json;
use rdf_model::{DataGraph, QueryGraph};
use sama_core::{EngineConfig, SamaEngine, TraceConfig};
use std::path::PathBuf;

/// Directory holding the committed golden files.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// The fixed fixture both snapshots are taken from — the paper's
/// Figure 1 shape: small, multi-path, with one inexact edge so the
/// trace exercises its non-trivial fields.
pub fn fixture() -> (DataGraph, QueryGraph) {
    let mut d = DataGraph::builder();
    for (s, p, o) in [
        ("CB", "sponsor", "A0056"),
        ("A0056", "amendmentTo", "B1432"),
        ("B1432", "subject", "\"Health Care\""),
        ("CB", "sponsor", "A0772"),
        ("A0772", "amendmentTo", "B0315"),
        ("B0315", "subject", "\"Labor\""),
    ] {
        d.triple_str(s, p, o).expect("fixture data");
    }
    let mut q = QueryGraph::builder();
    for (s, p, o) in [
        ("?x", "sponsor", "?a"),
        ("?a", "amendmentTo", "?b"),
        ("?b", "subject", "\"Health Care\""),
    ] {
        q.triple_str(s, p, o).expect("fixture query");
    }
    (d.build(), q.build())
}

/// One EXPLAIN JSONL line from the fixture (trace forced on).
pub fn fixture_explain_line() -> String {
    let (data, query) = fixture();
    let engine = SamaEngine::with_config(
        data,
        EngineConfig {
            trace: TraceConfig::enabled(),
            ..EngineConfig::default()
        },
    );
    let result = engine.answer(&query, 3);
    result.trace.as_ref().expect("trace enabled").to_json_line()
}

/// The flattened key-path shape of the fixture's EXPLAIN line.
pub fn explain_shape() -> Vec<String> {
    let line = fixture_explain_line();
    let value = json::parse(&line).expect("EXPLAIN line is valid JSON");
    json::shape(&value)
}

/// Metric names exported after answering the fixture query.
pub fn prometheus_names() -> Vec<String> {
    let (data, query) = fixture();
    let engine = SamaEngine::new(data);
    let _ = engine.answer(&query, 3);
    let text = sama_obs::export::prometheus();
    let mut names: Vec<String> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split([' ', '{']).next())
        .map(str::to_string)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// The metric reference rendered from the table: `name kind help`,
/// tab-separated, one line per declared metric.
pub fn metric_reference() -> Vec<String> {
    sama_obs::metrics::TABLE
        .iter()
        .map(|m| format!("{}\t{}\t{}", m.name(), m.kind(), m.help()))
        .collect()
}

/// Compare `lines` to `golden/<file>` exactly, or rewrite the file
/// when `SAMA_UPDATE_GOLDEN=1`. `Err` carries a reviewable diff
/// message.
pub fn check_golden(file: &str, lines: &[String]) -> Result<(), String> {
    let path = golden_dir().join(file);
    if std::env::var_os("SAMA_UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        let mut body = lines.join("\n");
        body.push('\n');
        std::fs::create_dir_all(golden_dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, body).map_err(|e| e.to_string())?;
        return Ok(());
    }
    let golden_text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read golden file {}: {e}\n\
             (generate it with SAMA_UPDATE_GOLDEN=1 cargo test -p sama-testkit golden)",
            path.display()
        )
    })?;
    let golden: Vec<&str> = golden_text.lines().collect();
    let current: Vec<&str> = lines.iter().map(String::as_str).collect();
    if current != golden {
        let missing: Vec<&&str> = golden.iter().filter(|g| !current.contains(g)).collect();
        let added: Vec<&&str> = current.iter().filter(|c| !golden.contains(c)).collect();
        return Err(format!(
            "{file} drifted from its golden shape\n  missing: {missing:?}\n  \
             added: {added:?}\n  \
             if intentional: SAMA_UPDATE_GOLDEN=1 cargo test -p sama-testkit golden"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_explain_line_is_stable_json() {
        let a = fixture_explain_line();
        let b = fixture_explain_line();
        assert!(json::parse(&a).is_ok(), "not JSON: {a}");
        assert_eq!(
            json::shape(&json::parse(&a).unwrap()),
            json::shape(&json::parse(&b).unwrap())
        );
    }

    #[test]
    fn prometheus_names_are_clean_identifiers() {
        let names = prometheus_names();
        assert!(!names.is_empty());
        for name in &names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad prometheus name {name:?}"
            );
        }
    }
}
