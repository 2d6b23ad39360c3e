//! The metric registry (every name the ledger can print, with unit,
//! direction and regression bound) and the stamped record one run
//! produces: a table for people, a JSON file for `ledger compare`, and
//! the one-line result the benchmark driver reads.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as BENCHMARK.json spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the ledger knows.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed everywhere.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the old median by which it may worsen before `ledger
    /// compare` calls it a regression; `None` = reported, never gated.
    pub bound: Option<f64>,
    /// `true` for the end-to-end metrics every workload reports.
    pub end_to_end: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        end_to_end: true,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        end_to_end: false,
    }
}

use Better::{Higher, Lower};

/// Every metric, end-to-end first. BENCHMARK.json lists exactly these
/// (a unit test holds the two together); README.md says what each one
/// means per workload and which end-to-end metric a layer should move.
pub const METRICS: &[MetricDef] = &[
    // The timing bounds are the widest the driver allows: on the
    // shared 2-vCPU reference box the run-to-run spread of these (IQR ÷
    // median over ten seeds) is 4–11%, and a bound should be about
    // three times the spread it has to see past.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_ms_p50", "ms", Lower, 0.25),
    e2e("op_ms_p95", "ms", Lower, 0.25),
    e2e("rss_mb", "MB", Lower, 0.05),
    // Workload-specific results a user would also see. They cannot be
    // end-to-end metrics of the driver contract (every workload must
    // report every one of those, and none may be 0), so they ride with
    // the layers; `ledger compare` still gates the bounded ones.
    layer("failed_share", "ratio", Lower, Some(0.0)),
    layer("truncated_share", "ratio", Lower, Some(0.0)),
    layer("batch_queries_per_s", "1/s", Higher, Some(0.10)),
    layer("serve_ms_p99", "ms", Lower, Some(0.10)),
    layer("serve_max_rate_ok", "1/s", Higher, Some(0.0)),
    layer("cold_query_ms_p50", "ms", Lower, Some(0.10)),
    layer("cold_query_mmap_ms_p50", "ms", Lower, Some(0.10)),
    layer("index_build_s", "s", Lower, Some(0.10)),
    layer("index_bytes_per_triple", "B", Lower, Some(0.0)),
    layer("rdf_model.parse_ntriples_ms", "ms", Lower, None),
    layer("rdf_model.parse_sparql_us", "us", Lower, None),
    layer("path_index.extract_ms", "ms", Lower, None),
    layer("path_index.build_ms", "ms", Lower, None),
    layer("path_index.encode_v2_ms", "ms", Lower, None),
    layer("path_index.update_ms", "ms", Lower, None),
    layer("path_index.decode_owned_ms", "ms", Lower, None),
    layer("path_index.open_mmap_ms", "ms", Lower, None),
    layer("path_index.lsh_build_s", "s", Lower, None),
    layer("path_index.lsh_bytes_per_path", "B", Lower, None),
    layer("path_index.sink_lookup_ms", "ms", Lower, None),
    layer("core.qpath.decompose_us", "us", Lower, None),
    layer("core.cluster.build_ms", "ms", Lower, None),
    layer("core.cluster.align_ms", "ms", Lower, None),
    layer("core.cluster.candidates_per_query", "count", Lower, None),
    layer("core.cluster.ns_per_candidate", "ns", Lower, None),
    layer("core.cluster.kept_ratio", "ratio", Higher, None),
    layer("core.search.topk_ms", "ms", Lower, None),
    layer("core.search.expansions_per_answer", "count", Lower, None),
    layer("core.search.chi_lookups", "count", Lower, None),
    layer("core.search.chi_hit_rate", "ratio", Higher, None),
    layer("core.jsonout.render_us", "us", Lower, None),
    layer("core.jsonout.bytes_per_answer", "B", Lower, None),
    layer("core.batch.speedup_x", "x", Higher, None),
    layer("core.batch.p95_over_p50", "x", Lower, None),
    layer("serve.overhead_us_p50", "us", Lower, None),
    layer("serve.fresh_conn_ms_p50", "ms", Lower, None),
    layer("serve.generator_lag_ms_p99", "ms", Lower, None),
    layer("serve.shed_total", "count", Lower, None),
    layer("serve.requests_total", "count", Higher, None),
    layer("cli.spawn_floor_ms", "ms", Lower, None),
    layer("cli.open_share", "ratio", Lower, None),
    layer("obs.metrics_overhead_pct", "%", Lower, None),
    layer("bench.trace_overhead_pct", "%", Lower, None),
    layer("bench.layer_coverage_pct", "%", Higher, None),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Time one layer took per operation in the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRow {
    /// Self time (duration minus children), microseconds per operation.
    pub self_us_per_op: f64,
    /// Duration including children, microseconds per operation.
    pub total_us_per_op: f64,
    /// Spans per operation.
    pub calls_per_op: f64,
    /// Self time as a share of the traced request time.
    pub share_pct: f64,
}

/// Which part of a workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the untraced end-to-end phases only.
    EndToEnd,
    /// `--trace 1`: the traced run and the per-layer phases only.
    Layers,
    /// Both, end-to-end first (what people run, and what is checked in).
    Full,
}

impl Mode {
    /// Whether the end-to-end phases run.
    pub fn end_to_end(self) -> bool {
        self != Mode::Layers
    }

    /// Whether the traced and per-layer phases run.
    pub fn layers(self) -> bool {
        self != Mode::EndToEnd
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// `--scale` (target triples).
    pub scale: usize,
    /// `--seconds`.
    pub seconds: f64,
    /// Windows each timed phase was split into.
    pub windows: usize,
    /// Operations attempted (correctness gate).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Answers flagged `truncated`.
    pub truncated: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Summary>,
    /// Per-layer self time from the traced run.
    pub layers: BTreeMap<&'static str, LayerRow>,
    /// First failure messages and caveats worth reading.
    pub notes: Vec<String>,
}

impl Record {
    /// An empty record.
    pub fn new(workload: &'static str, seed: u64, scale: usize, seconds: f64) -> Record {
        Record {
            workload,
            seed,
            scale,
            seconds,
            windows: 0,
            attempted: 0,
            failed: 0,
            truncated: 0,
            values: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Set a metric. Panics on a name the registry does not know: a
    /// metric nobody declared cannot be compared or documented.
    pub fn set(&mut self, name: &str, summary: Summary) {
        let def = metric(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(def.name, summary);
    }

    /// Set a metric that is one exact value.
    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// Count operations into the correctness gate, keeping the first
    /// few failure messages.
    pub fn count(
        &mut self,
        attempted: u64,
        failed: u64,
        truncated: u64,
        first_error: Option<&str>,
    ) {
        self.attempted += attempted;
        self.failed += failed;
        self.truncated += truncated;
        if let (Some(e), true) = (first_error, self.notes.len() < 8) {
            self.notes.push(format!("FAILED: {e}"));
        }
    }

    /// Fill `failed_share` / `truncated_share` from the counts.
    pub fn close_counts(&mut self) {
        let attempted = self.attempted.max(1) as f64;
        self.set_exact("failed_share", self.failed as f64 / attempted);
        self.set_exact("truncated_share", self.truncated as f64 / attempted);
    }

    /// `true` when every operation passed the gate.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output the benchmark driver reads:
    /// every end-to-end metric with `--trace 0`, every per-layer metric
    /// (0 for layers this workload never enters) with `--trace 1`.
    pub fn contract_line(&self, end_to_end: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for def in METRICS.iter().filter(|m| m.end_to_end == end_to_end) {
            let value = self.values.get(def.name).map_or(0.0, |s| s.value);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if first { "" } else { ", " },
                def.name,
                json_number(value),
                def.unit
            );
            first = false;
        }
        out.push_str("}}");
        out
    }

    /// The stamped JSON document written to `BENCH_<workload>.json`.
    pub fn to_json(&self, stamp: &Stamp) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"seconds\": {},", json_number(self.seconds));
        let _ = writeln!(out, "  \"windows\": {},", self.windows);
        let _ = writeln!(out, "  \"git_sha\": \"{}\",", stamp.git_sha);
        let _ = writeln!(out, "  \"rustc\": \"{}\",", stamp.rustc);
        let _ = writeln!(out, "  \"hardware_threads\": {},", stamp.hardware_threads);
        let _ = writeln!(out, "  \"correct\": {},", self.correct());
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"truncated\": {},", self.truncated);
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", sama_core::json_escape(n)))
            .collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let _ = writeln!(out, "  \"{key}\": {{");
            let rows: Vec<String> = METRICS
                .iter()
                .filter(|m| m.end_to_end == end_to_end)
                .filter_map(|def| self.values.get(def.name).map(|s| metric_json(def, s)))
                .collect();
            let _ = writeln!(out, "{}", rows.join(",\n"));
            let _ = writeln!(out, "  }},");
        }
        let _ = writeln!(out, "  \"layers\": {{");
        let rows: Vec<String> = self
            .layers
            .iter()
            .map(|(name, row)| {
                format!(
                    "    \"{name}\": {{\"self_us_per_op\": {}, \"total_us_per_op\": {}, \
                     \"calls_per_op\": {}, \"share_pct\": {}}}",
                    json_number(row.self_us_per_op),
                    json_number(row.total_us_per_op),
                    json_number(row.calls_per_op),
                    json_number(row.share_pct)
                )
            })
            .collect();
        let _ = writeln!(out, "{}", rows.join(",\n"));
        out.push_str("  }\n}\n");
        out
    }

    /// The table printed for people: every metric by name with its unit.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, scale {}, {} s, {} windows) ==\n",
            self.workload, self.seed, self.scale, self.seconds, self.windows
        );
        let _ = writeln!(
            out,
            "attempted {}  failed {}  truncated {}  correct {}",
            self.attempted,
            self.failed,
            self.truncated,
            self.correct()
        );
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:<6} {:>5} {:>12} {:>12} {:>12} {:>12}",
            "metric", "value", "unit", "n", "median", "min", "max", "iqr"
        );
        for def in METRICS {
            if let Some(s) = self.values.get(def.name) {
                let _ = writeln!(
                    out,
                    "{:<36} {:>14.4} {:<6} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
                    def.name, s.value, def.unit, s.n, s.median, s.min, s.max, s.iqr
                );
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                out,
                "{:<36} {:>14} {:>14} {:>10} {:>8}",
                "layer (traced run)", "self us/op", "total us/op", "calls/op", "share %"
            );
            for (name, row) in &self.layers {
                let _ = writeln!(
                    out,
                    "{:<36} {:>14.2} {:>14.2} {:>10.2} {:>8.2}",
                    name, row.self_us_per_op, row.total_us_per_op, row.calls_per_op, row.share_pct
                );
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

fn metric_json(def: &MetricDef, s: &Summary) -> String {
    format!(
        "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \
         \"median\": {}, \"min\": {}, \"max\": {}, \"iqr\": {}, \"n\": {}}}",
        def.name,
        json_number(s.value),
        def.unit,
        def.better.as_str(),
        def.bound.map_or("null".to_string(), json_number),
        json_number(s.median),
        json_number(s.min),
        json_number(s.max),
        json_number(s.iqr),
        s.n
    )
}

/// A finite JSON number with all its digits (JSON has no NaN/inf, and
/// an empty `f64` sum is `-0.0`, which would print as `-0`).
fn json_number(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Where and on what a record was taken; runs are only comparable at
/// equal `hardware_threads`, scale and seed.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `std::thread::available_parallelism`.
    pub hardware_threads: usize,
}

impl Stamp {
    /// Read the stamp from the environment.
    pub fn take() -> Stamp {
        let run = |program: &str, args: &[&str]| {
            std::process::Command::new(program)
                .args(args)
                .current_dir(crate::proc::repo_root())
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Stamp {
            git_sha: run("git", &["rev-parse", "HEAD"]),
            rustc: run("rustc", &["--version"]),
            hardware_threads: hardware_threads(),
        }
    }
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sama_testkit::json::{parse, Json};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            if let Some(b) = m.bound {
                assert!((0.0..=0.25).contains(&b));
            }
        }
        assert!(METRICS.iter().filter(|m| !m.end_to_end).count() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = crate::proc::repo_root().join("BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            let ours: Vec<&MetricDef> = METRICS
                .iter()
                .filter(|m| m.end_to_end == end_to_end)
                .collect();
            assert_eq!(listed.len(), ours.len(), "{key}");
            for (entry, def) in listed.iter().zip(ours) {
                let field = |k| entry.get(k).and_then(Json::as_str).unwrap();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
                if end_to_end {
                    assert_eq!(entry.get("bound").and_then(Json::as_num), def.bound);
                }
            }
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn contract_line_carries_every_metric_of_its_kind() {
        let mut r = Record::new("lubm_mix", 42, 2000, 1.0);
        r.set_exact("ops_per_s", 12.5);
        r.count(10, 0, 2, None);
        r.close_counts();
        let e2e = parse(&r.contract_line(true)).unwrap();
        assert_eq!(e2e.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(e2e.get("attempted").and_then(Json::as_num), Some(10.0));
        let metrics = e2e.get("metrics").unwrap();
        for def in METRICS.iter().filter(|m| m.end_to_end) {
            assert!(metrics.get(def.name).is_some(), "{}", def.name);
        }
        assert!(metrics.get("failed_share").is_none());
        let ops = metrics.get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_num), Some(12.5));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));

        let layers = parse(&r.contract_line(false)).unwrap();
        let metrics = layers.get("metrics").unwrap();
        for def in METRICS.iter().filter(|m| !m.end_to_end) {
            assert!(metrics.get(def.name).is_some(), "{}", def.name);
        }
        let share = metrics.get("truncated_share").unwrap();
        assert_eq!(share.get("value").and_then(Json::as_num), Some(0.2));

        r.count(1, 1, 0, Some("boom"));
        assert!(!r.correct());
        assert!(r.contract_line(true).starts_with("{\"correct\": false"));
        // The full document parses too.
        let stamp = Stamp {
            git_sha: "abc".into(),
            rustc: "rustc 1".into(),
            hardware_threads: 2,
        };
        let doc = parse(&r.to_json(&stamp)).unwrap();
        assert_eq!(
            doc.get("hardware_threads").and_then(Json::as_num),
            Some(2.0)
        );
        assert!(doc.get("end_to_end").unwrap().get("ops_per_s").is_some());
    }
}
