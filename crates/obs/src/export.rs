//! Exposition formats for the metric table: Prometheus text format
//! and a JSON document — both hand-rendered (this crate has no
//! dependencies) by walking [`TABLE`] in order.

use crate::metrics::{bucket_upper_bound, HistogramSnapshot, Metric, BUCKET_COUNT, TABLE};
use crate::window::WindowedSnapshot;
use std::fmt::Write;

/// The `sama_build_info` labels: the crate version, and the on-disk
/// format — `SAMAIDX2` is the only one any subcommand opens.
const BUILD_INFO: [(&str, &str); 2] = [
    ("index.format", "SAMAIDX2"),
    ("version", env!("CARGO_PKG_VERSION")),
];

/// Map a dotted metric name (`search.expand_ns`) onto its Prometheus
/// name (`sama_search_expand_ns`): dots become `_` and the `sama_`
/// namespace is prepended. Table names are `[a-z0-9_.]` only (a unit
/// test holds them to it), so the result is a valid identifier.
pub fn prometheus_name(name: &str) -> String {
    format!("sama_{}", name.replace('.', "_"))
}

/// Publish the values that are read at export time, not recorded.
fn refresh() {
    crate::metrics::RUNTIME_HARDWARE_THREADS.store(crate::hardware_threads() as i64);
}

fn write_histogram(out: &mut String, pname: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {pname} histogram");
    // Cumulative buckets; elide the empty tail (everything after the
    // last non-empty bucket folds into +Inf).
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(BUCKET_COUNT - 1);
    let mut cumulative = 0u64;
    for (i, &count) in h.buckets.iter().enumerate().take(last + 1) {
        cumulative += count;
        let _ = writeln!(
            out,
            "{pname}_bucket{{le=\"{}\"}} {cumulative}",
            bucket_upper_bound(i)
        );
    }
    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{pname}_sum {}", h.sum);
    let _ = writeln!(out, "{pname}_count {}", h.count());
}

fn write_windows(out: &mut String, pname: &str, windowed: &WindowedSnapshot) {
    for (quantile, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let _ = writeln!(out, "# TYPE {pname}_{label} gauge");
        for (window, h) in windowed.iter() {
            let _ = writeln!(
                out,
                "{pname}_{label}{{window=\"{window}\"}} {}",
                h.quantile(quantile)
            );
        }
    }
    let _ = writeln!(out, "# TYPE {pname}_window_count gauge");
    for (window, h) in windowed.iter() {
        let _ = writeln!(
            out,
            "{pname}_window_count{{window=\"{window}\"}} {}",
            h.count()
        );
    }
}

/// Render every declared metric as Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` block per metric, histogram buckets
/// cumulative with a final `+Inf`, then the `sama_build_info` line.
/// Histogram samples are nanoseconds (the `_ns` naming convention),
/// not the Prometheus-idiomatic seconds — documented here so
/// dashboards divide once.
pub fn prometheus() -> String {
    refresh();
    let mut out = String::new();
    for &metric in TABLE {
        let pname = prometheus_name(metric.name());
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {pname} counter\n{pname} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# TYPE {pname} gauge\n{pname} {}", g.get());
            }
            Metric::Histogram(h) => write_histogram(&mut out, &pname, &h.snapshot()),
            Metric::RollingHistogram(r) => write_windows(&mut out, &pname, &r.windowed()),
        }
    }
    let labels: Vec<String> = BUILD_INFO
        .iter()
        .map(|(k, v)| format!("{}=\"{v}\"", k.replace('.', "_")))
        .collect();
    let _ = writeln!(
        out,
        "# TYPE sama_build_info gauge\nsama_build_info{{{}}} 1",
        labels.join(",")
    );
    out
}

/// Render every declared metric as one JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:
/// {"count":n,"sum":s,"mean":m,"p50":..,"p95":..,"p99":..,
/// "buckets":[[le,count],...]}},"windows":{...},"build_info":{...}}` —
/// buckets listed sparsely (non-empty only), names kept in their
/// dotted form.
pub fn json() -> String {
    refresh();
    // One object per kind, filled in table order.
    let mut sections: [String; 4] = Default::default();
    for &metric in TABLE {
        let (section, body) = match metric {
            Metric::Counter(c) => (0, c.get().to_string()),
            Metric::Gauge(g) => (1, g.get().to_string()),
            Metric::Histogram(h) => (2, histogram_json(&h.snapshot())),
            Metric::RollingHistogram(r) => (3, windows_json(&r.windowed())),
        };
        let out = &mut sections[section];
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{body}", metric.name());
    }
    let [counters, gauges, histograms, windows] = sections;
    let build_info: Vec<String> = BUILD_INFO
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect();
    format!(
        "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
         \"histograms\":{{{histograms}}},\"windows\":{{{windows}}},\
         \"build_info\":{{{}}}}}",
        build_info.join(",")
    )
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut out = format!(
        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.sum,
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99),
    );
    let buckets: Vec<String> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(b, count)| format!("[{},{count}]", bucket_upper_bound(b)))
        .collect();
    out.push_str(&buckets.join(","));
    out.push_str("]}");
    out
}

fn windows_json(windowed: &WindowedSnapshot) -> String {
    let windows: Vec<String> = windowed
        .iter()
        .map(|(window, h)| {
            format!(
                "\"{window}\":{{\"count\":{},\"sum\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count(),
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            )
        })
        .collect();
    format!("{{{}}}", windows.join(","))
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_names_map_dots() {
        assert_eq!(prometheus_name("search.expand_ns"), "sama_search_expand_ns");
        assert_eq!(
            prometheus_name("serve.request.total_ns"),
            "sama_serve_request_total_ns"
        );
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let h = crate::Histogram::new("query.search_ns", "");
        h.record(1000);
        h.record(3);
        let mut text = String::new();
        write_histogram(&mut text, "sama_query_search_ns", &h.snapshot());
        assert!(text.starts_with("# TYPE sama_query_search_ns histogram\n"));
        assert!(text.contains("sama_query_search_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sama_query_search_ns_sum 1003"));
        assert!(text.contains("sama_query_search_ns_count 2"));
        // Buckets are cumulative: the bucket holding 1000 includes the
        // earlier sample 3.
        assert!(text.contains("sama_query_search_ns_bucket{le=\"1023\"} 2"));
        assert_eq!(
            histogram_json(&h.snapshot()),
            "{\"count\":2,\"sum\":1003,\"mean\":501.5,\"p50\":3,\"p95\":1023,\
             \"p99\":1023,\"buckets\":[[3,1],[1023,1]]}"
        );
    }

    #[test]
    fn every_declared_metric_is_exported_with_build_info() {
        let text = prometheus();
        for &metric in TABLE {
            let pname = prometheus_name(metric.name());
            let family = match metric {
                Metric::RollingHistogram(_) => format!("{pname}_p95"),
                _ => pname,
            };
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "{family} missing:\n{text}"
            );
        }
        assert!(text.ends_with(&format!(
            "# TYPE sama_build_info gauge\n\
             sama_build_info{{index_format=\"SAMAIDX2\",version=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains(&format!(
            "sama_runtime_hardware_threads {}",
            crate::hardware_threads()
        )));

        let json = json();
        assert!(json.starts_with("{\"counters\":{\"batch.batches_total\":"));
        assert!(json.contains("\"windows\":{\"query.total_ns\":{\"10s\":{\"count\":"));
        assert!(json.ends_with(&format!(
            "\"build_info\":{{\"index.format\":\"SAMAIDX2\",\"version\":\"{}\"}}}}",
            env!("CARGO_PKG_VERSION")
        )));
    }

    #[test]
    fn recorded_values_reach_both_exports() {
        // No other unit test of this crate records into this counter.
        crate::metrics::BATCH_BATCHES_TOTAL.add(1);
        assert!(prometheus().contains("\nsama_batch_batches_total 1\n"));
        assert!(json().starts_with("{\"counters\":{\"batch.batches_total\":1,"));
    }

    #[test]
    fn rolling_samples_reach_both_exports() {
        static ROLLING: crate::RollingHistogram = crate::RollingHistogram::new("test.total_ns", "");
        ROLLING.record_at(1_000, 100);
        let windowed = ROLLING.windowed_at(100);

        let mut text = String::new();
        write_windows(&mut text, "sama_test_total_ns", &windowed);
        assert!(text.contains("# TYPE sama_test_total_ns_p95 gauge"));
        for window in ["10s", "1m", "5m"] {
            assert!(text.contains(&format!(
                "sama_test_total_ns_p50{{window=\"{window}\"}} 1023\n"
            )));
            assert!(text.contains(&format!(
                "sama_test_total_ns_window_count{{window=\"{window}\"}} 1\n"
            )));
        }

        let json = windows_json(&windowed);
        for window in ["10s", "1m", "5m"] {
            assert!(json.contains(&format!("\"{window}\":{{\"count\":1,\"sum\":1000,")));
        }
    }

    #[test]
    fn escape_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
