//! End-to-end tests of the `sama` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn sama() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sama"))
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sama_cli_test_{}_{name}", std::process::id()))
}

const DEMO_NT: &str = r#"
<CarlaBunes> <sponsor> <A0056> .
<A0056> <aTo> <B1432> .
<B1432> <subject> "Health Care" .
<PierceDickes> <sponsor> <B1432> .
<PierceDickes> <gender> "Male" .
"#;

const DEMO_TTL: &str = r#"
@prefix g: <http://gov.example/> .
g:CarlaBunes g:sponsor g:A0056 .
g:A0056 g:aTo g:B1432 ; a g:Amendment .
"#;

const DEMO_RQ: &str = r#"
SELECT ?v1 ?v2 WHERE {
  <CarlaBunes> <sponsor> ?v1 .
  ?v1 <aTo> ?v2 .
  ?v2 <subject> "Health Care" .
}
"#;

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[test]
fn index_query_stats_paths_roundtrip() {
    let nt = temp_path("data.nt");
    let rq = temp_path("query.rq");
    let idx = temp_path("index.bin");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();

    // index
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stats
    let out = sama()
        .args(["stats", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("triples        : 5"));
    assert!(text.contains("paths"));

    // paths
    let out = sama()
        .args(["paths", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("CarlaBunes-sponsor-A0056"));

    // query (human output)
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "-k",
            "2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("score 0.00"));
    assert!(text.contains("bindings:"));

    // query (--json is machine-parseable: flat checks, no serde_json)
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "-k",
            "2",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"answers\":["));
    assert!(text.contains("\"score\":0"));
    assert!(text.contains("\"exact\":true"));
    assert!(text.trim_end().ends_with('}'));
}

#[test]
fn batch_answers_many_queries() {
    let nt = temp_path("data_batch.nt");
    let rq1 = temp_path("batch_q1.rq");
    let rq2 = temp_path("batch_q2.rq");
    let idx = temp_path("index_batch.bin");
    let _cleanup = Cleanup(vec![nt.clone(), rq1.clone(), rq2.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq1, DEMO_RQ).unwrap();
    std::fs::write(&rq2, "SELECT ?p WHERE { ?p <gender> \"Male\" . }\n").unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Human output: one line per query plus aggregate stats.
    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq1.to_str().unwrap(),
            rq2.to_str().unwrap(),
            "-k",
            "3",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("batch: 2 queries"), "{text}");
    assert!(text.contains("q/s"), "{text}");
    assert!(text.contains("p50"), "{text}");

    // JSON output carries per-query and aggregate stats.
    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq1.to_str().unwrap(),
            rq2.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"queries\":["), "{text}");
    assert!(text.contains("\"best_score\":0"), "{text}");
    assert!(text.contains("\"queries_per_sec\":"), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");

    // A batch with no query files is an error.
    let out = sama()
        .args(["batch", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn query_explain_emits_jsonl_trace() {
    let nt = temp_path("data_explain.nt");
    let rq = temp_path("explain.rq");
    let idx = temp_path("index_explain.bin");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --explain: stdout is exactly one well-formed JSON line.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--explain",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "expected one JSONL line, got: {text}");
    let line = lines[0];
    assert!(line.starts_with("{\"query_id\":"), "{line}");
    assert!(line.contains(",\"label\":"), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert_eq!(
        line.matches('{').count(),
        line.matches('}').count(),
        "{line}"
    );
    for key in [
        "\"query_paths\":[",
        "\"clusters\":[",
        "\"expansions\":",
        "\"truncation\":",
        "\"chi\":{\"lookups\":",
        "\"phases\":{",
        "\"preprocessing_ns\":",
        "\"clustering_ns\":",
        "\"search_ns\":",
        "\"total_ns\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }

    // --explain-text keeps the human pipeline breakdown.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--explain-text",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query paths (PQ):"), "{text}");
    assert!(text.contains("timings: preprocess"), "{text}");
}

#[test]
fn batch_metrics_out_and_trace_out() {
    let nt = temp_path("data_metrics.nt");
    let rq = temp_path("metrics.rq");
    let idx = temp_path("index_metrics.bin");
    let prom = temp_path("metrics.prom");
    let prom_json = temp_path("metrics.prom.json");
    let traces = temp_path("traces.jsonl");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        rq.clone(),
        idx.clone(),
        prom.clone(),
        prom_json.clone(),
        traces.clone(),
    ]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--metrics-out",
            prom.to_str().unwrap(),
            "--trace-out",
            traces.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Prometheus exposition covers all three phases, the χ lookups and
    // the worker pool.
    let text = std::fs::read_to_string(&prom).unwrap();
    for metric in [
        "# TYPE sama_query_queries_total counter",
        "sama_query_queries_total 2",
        "sama_query_preprocess_ns_count",
        "sama_query_cluster_ns_count",
        "sama_query_search_ns_count",
        "sama_cluster_retrieve_ns_count",
        "sama_cluster_align_ns_count",
        "sama_search_chi_lookups_total",
        "sama_batch_pool_threads",
        "sama_batch_run_ns_count",
        "sama_search_expansions_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }

    // JSON snapshot sits next to the Prometheus file.
    let text = std::fs::read_to_string(&prom_json).unwrap();
    assert!(text.starts_with("{\"counters\":{"), "{text}");
    assert!(text.contains("\"query.queries_total\":2"), "{text}");
    assert!(text.contains("\"histograms\":{"), "{text}");
    assert!(text.contains("\"batch.pool_threads\":"), "{text}");

    // Trace JSONL: one well-formed line per query.
    let text = std::fs::read_to_string(&traces).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    for line in lines {
        assert!(line.starts_with("{\"query_id\":"), "{line}");
        assert!(line.contains(",\"label\":"), "{line}");
        assert!(line.contains("\"phases\":{"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

/// An index file with its one run-dependent word — the wall-clock build
/// time closing the `stats` section — zeroed: two files are the same
/// index when they agree in everything else.
fn without_build_time(path: &std::path::Path) -> Vec<u8> {
    const STATS_ENTRY: usize = 24 + 21 * 16;
    let mut image = std::fs::read(path).unwrap();
    let stats = u64::from_le_bytes(image[STATS_ENTRY..STATS_ENTRY + 8].try_into().unwrap());
    let stamp = stats as usize + 6 * 8;
    image[stamp..stamp + 8].fill(0);
    image
}

#[test]
fn update_round_trips_and_equals_indexing_the_concatenation() {
    let nt = temp_path("data2.nt");
    let more = temp_path("more.nt");
    let all = temp_path("all.nt");
    let idx = temp_path("index2.bin");
    let updated = temp_path("index2_updated.bin");
    let fresh = temp_path("index2_fresh.bin");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        more.clone(),
        all.clone(),
        idx.clone(),
        updated.clone(),
        fresh.clone(),
    ]);
    // The batch extends a sink, adds a source and repeats an old triple.
    let more_nt = "<B1432> <reviewedBy> <Committee7> .\n\
                   <JeffRyser> <sponsor> <A0056> .\n\
                   <PierceDickes> <gender> \"Male\" .\n";
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&more, more_nt).unwrap();
    std::fs::write(&all, format!("{DEMO_NT}{more_nt}")).unwrap();

    let run = |args: &[&str]| {
        let out = sama().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    run(&["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()]);
    run(&[
        "index",
        all.to_str().unwrap(),
        "-o",
        fresh.to_str().unwrap(),
    ]);

    // `update -o` leaves its input alone and writes the file `sama
    // index` writes for the old triples followed by the new ones.
    let before = std::fs::read(&idx).unwrap();
    let log = run(&[
        "update",
        idx.to_str().unwrap(),
        more.to_str().unwrap(),
        "-o",
        updated.to_str().unwrap(),
    ]);
    assert!(log.contains("inserted 3 edges"), "{log}");
    assert_eq!(std::fs::read(&idx).unwrap(), before);
    assert!(
        without_build_time(&updated) == without_build_time(&fresh),
        "update output differs from indexing the concatenated input"
    );

    // Without `-o` the file is rewritten in place, and reads back.
    run(&["update", idx.to_str().unwrap(), more.to_str().unwrap()]);
    assert!(without_build_time(&idx) == without_build_time(&fresh));
    let out = sama()
        .args(["stats", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("triples        : 8"));
}

#[test]
fn turtle_input_accepted() {
    let ttl = temp_path("data.ttl");
    let idx = temp_path("index3.bin");
    let _cleanup = Cleanup(vec![ttl.clone(), idx.clone()]);
    std::fs::write(&ttl, DEMO_TTL).unwrap();
    let out = sama()
        .args(["index", ttl.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("parsed 3 triples"));
}

/// Every `sama query` error path: a one-line `error:` diagnostic on
/// stderr and exit code 1 — never a panic, and never a silent empty
/// answer set that looks like a miss.
#[test]
fn query_error_paths() {
    let nt = temp_path("data_err.nt");
    let idx = temp_path("index_err.bin");
    let ok_rq = temp_path("err_ok.rq");
    let empty_rq = temp_path("err_empty.rq");
    let bad_rq = temp_path("err_bad.rq");
    let corrupt = temp_path("err_corrupt.bin");
    let truncated = temp_path("err_truncated.bin");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        idx.clone(),
        ok_rq.clone(),
        empty_rq.clone(),
        bad_rq.clone(),
        corrupt.clone(),
        truncated.clone(),
    ]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&ok_rq, "SELECT ?x WHERE { ?x <sponsor> ?y . }\n").unwrap();
    std::fs::write(&empty_rq, "SELECT ?x WHERE { }\n").unwrap();
    std::fs::write(&bad_rq, "FROB ?x WHERE { ?x <p> ?y }\n").unwrap();
    std::fs::write(&corrupt, "garbage-not-an-index").unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // A query with no triple patterns parses but is rejected by the
    // engine with a typed InvalidQuery error.
    let out = sama()
        .args(["query", idx.to_str().unwrap(), empty_rq.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid query"), "{stderr}");
    assert!(stderr.contains("no triple patterns"), "{stderr}");

    // Malformed SPARQL fails at parse time with a located diagnostic.
    let out = sama()
        .args(["query", idx.to_str().unwrap(), bad_rq.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Unreadable query file.
    let out = sama()
        .args(["query", idx.to_str().unwrap(), "/no/such/query.rq"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Missing and corrupt index files are distinct diagnostics.
    let out = sama()
        .args(["query", "/no/such/index.bin", ok_rq.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read index"));
    let out = sama()
        .args(["query", corrupt.to_str().unwrap(), ok_rq.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot decode index"), "{stderr}");
    assert!(stderr.contains("bad magic"), "{stderr}");

    // A SAMAIDX2 file cut short fails validation at open — under the
    // default flags too, which map it like `--mmap` does.
    let bytes = std::fs::read(&idx).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() - 9]).unwrap();
    for extra in [&[][..], &["--mmap"]] {
        let out = sama()
            .args([
                "query",
                truncated.to_str().unwrap(),
                ok_rq.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("error: cannot decode index"), "{stderr}");
        assert!(stderr.contains("truncated"), "{stderr}");
    }

    // Missing positional args print the query usage line.
    let out = sama()
        .args(["query", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sama query"));

    // An already-expired deadline is NOT an error: exit 0, best-effort
    // (possibly empty) results, and an explanatory stderr note.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            ok_rq.to_str().unwrap(),
            "--deadline-ms",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline exceeded"), "{stderr}");

    // A malformed --deadline-ms value is a usage error.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            ok_rq.to_str().unwrap(),
            "--deadline-ms",
            "soon",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deadline-ms"));
}

#[test]
fn helpful_errors() {
    // Unknown command — the two retired ones included (`query
    // --profile-out` and `batch --metrics-out` / `GET /metrics` are
    // what they spelled).
    for command in ["bogus", "profile", "metrics"] {
        let out = sama().args([command, "idx.bin"]).output().unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with(&format!("error: unknown command {command:?}")),
            "{err}"
        );
    }

    // A mistyped flag is named, by every subcommand and before any file
    // is read (none of these exist), not adopted as a file name or
    // answered with the bare usage line. A lone `-` stays "stdin".
    for args in [
        &["index", "--stat", "x.nt", "-o", "i.bin"][..],
        &["index", "x.nt", "-o", "i.bin", "--stat"],
        &["update", "i.bin", "x.nt", "--stat"],
        &["query", "i.bin", "q.rq", "--jsno"],
        &["batch", "i.bin", "q.rq", "--jsno"],
        &["serve", "i.bin", "--adr", "127.0.0.1:0"],
        &["stats", "--sections"],
        &["paths", "i.bin", "--limt", "3"],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let out = sama().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: unexpected argument {flag:?}\n"),
            "{args:?}"
        );
    }
    let out = sama().args(["query", "i.bin", "-"]).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("unexpected argument"), "{err}");

    // A SPARQL diagnostic names the token as the query wrote it (not
    // the parser's enum) and the 1-based line it is on.
    let nt = temp_path("data_diag.nt");
    let idx = temp_path("index_diag.bin");
    let rq = temp_path("diag.rq");
    let _cleanup = Cleanup(vec![nt.clone(), idx.clone(), rq.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    for (query, diagnostic) in [
        (
            "SELEC ?x WHERE { ?x <sponsor> ?y }\n",
            "parse error at line 1: expected SELECT, got SELEC",
        ),
        (
            "SELECT ?x\nWHERE {\n  ?x <sponsor> }\n",
            "parse error at line 3: expected term, got }",
        ),
        (
            "SELECT ?x WHERE\n",
            "parse error at line 2: expected '{' after WHERE, got end of input",
        ),
    ] {
        std::fs::write(&rq, query).unwrap();
        let out = sama()
            .args(["query", idx.to_str().unwrap(), rq.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{query:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {diagnostic}\n"),
            "{query:?}"
        );
    }

    // Missing index file.
    let out = sama()
        .args(["stats", "/nonexistent/idx.bin"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read index"));

    // No arguments prints usage: seven subcommands, and no environment
    // variable — a switch is spelled as its flag only. `--mmap` is
    // still listed (scripts pass it).
    let out = sama().output().unwrap();
    assert!(!out.status.success());
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(usage.contains("USAGE"));
    assert!(usage.contains("--mmap"), "{usage}");
    assert!(!usage.contains("SAMA_"), "{usage}");
    let subcommands: Vec<&str> = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  sama "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(
        subcommands,
        ["index", "update", "query", "batch", "serve", "stats", "paths"]
    );
}

#[test]
fn index_stats_flag_reports_sections_and_open_time() {
    let nt = temp_path("data_v2stats.nt");
    let idx = temp_path("index_v2stats.bin");
    let _cleanup = Cleanup(vec![nt.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();

    let out = sama()
        .args([
            "index",
            nt.to_str().unwrap(),
            "-o",
            idx.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Per-section byte sizes, bytes-per-path, and the open time of the
    // file just written — and nothing about any other format.
    assert!(text.contains("sections:"), "{text}");
    assert!(text.contains("path-node-pool"), "{text}");
    assert!(text.contains("B/path"), "{text}");
    assert!(text.contains("open time"), "{text}");
    assert!(text.contains("zero-copy"), "{text}");
    assert!(!text.contains("v1"), "{text}");

    let bytes = std::fs::read(&idx).unwrap();
    assert!(bytes.starts_with(b"SAMAIDX2"));

    // `sama stats` shows the stored section table too.
    let out = sama()
        .args(["stats", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("zero-copy"), "{text}");
    assert!(text.contains("sink-table"), "{text}");
}

/// A `SAMAIDX2` file is served from its validated map whatever the
/// flags say: `--mmap` changes no byte of the output, and neither run
/// decodes into an owned index or rebuilds the data graph.
#[test]
fn query_default_open_is_mapped_and_mmap_flag_decides_nothing() {
    let nt = temp_path("data_mmap.nt");
    let rq = temp_path("query_mmap.rq");
    let idx = temp_path("index_mmap.bin");
    let prof = temp_path("profile_mmap.folded");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone(), prof.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Returns (stdout, folded profile stacks).
    let run = |extra: &[&str]| {
        let out = sama()
            .args(["query", idx.to_str().unwrap(), rq.to_str().unwrap()])
            .args(["--profile-out", prof.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&prof).unwrap(),
        )
    };

    for format in [&["--json"][..], &[]] {
        let (default, default_stacks) = run(format);
        let (flagged, flagged_stacks) = run(&[format, &["--mmap"]].concat());
        assert_eq!(default, flagged);
        assert!(default.contains("CarlaBunes sponsor A0056"), "{default}");
        for stacks in [default_stacks, flagged_stacks] {
            // The mapped open ran (the owned decoder has no such span)…
            assert!(stacks.contains("index.open_ns"), "{stacks}");
            // …and nothing asked the index for its graph.
            assert!(!stacks.contains("index.materialize_ns"), "{stacks}");
        }
    }
}

/// `--explain-text` prints every chosen data path from the index's
/// labels: the profile shows the mapped open and no rebuilt graph.
#[test]
fn explain_text_prints_paths_without_rebuilding_the_graph() {
    let nt = temp_path("data_explain_open.nt");
    let rq = temp_path("query_explain_open.rq");
    let idx = temp_path("index_explain_open.bin");
    let prof = temp_path("profile_explain_open.folded");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone(), prof.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = sama()
        .args(["query", idx.to_str().unwrap(), rq.to_str().unwrap()])
        .args(["--explain-text", "--profile-out", prof.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("CarlaBunes-sponsor-A0056-aTo-B1432-subject-\"Health Care\""),
        "{stdout}"
    );
    let stacks = std::fs::read_to_string(&prof).unwrap();
    assert!(stacks.contains("index.open_ns"), "{stacks}");
    assert!(!stacks.contains("index.materialize_ns"), "{stacks}");
}

#[test]
fn retired_formats_and_flags_are_refused() {
    let nt = temp_path("data_retired.nt");
    let rq = temp_path("query_retired.rq");
    let seq = temp_path("index_seq.bin");
    let old = temp_path("index_retired.bin");
    let unwritten = temp_path("index_unwritten.bin");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        rq.clone(),
        seq.clone(),
        old.clone(),
        unwritten.clone(),
    ]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o"])
        .arg(&seq)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A file in a format that is no longer read — `SAMAIDX1`, the
    // compressed `SAMAIDXZ`, a `SAMAIDX2` from before the shape table
    // (20 or 21 sections) or before path-content order (23) — is
    // refused by every subcommand that opens one, with the remedy in
    // the message.
    let old_header = |sections: u32| {
        let mut header = b"SAMAIDX2".to_vec();
        header.extend_from_slice(&2u32.to_le_bytes());
        header.extend_from_slice(&sections.to_le_bytes());
        header.extend_from_slice(&64u64.to_le_bytes());
        header.resize(64, 0);
        header
    };
    for retired in [
        b"SAMAIDX1\x05\0\0\0".to_vec(),
        b"SAMAIDXZ\x05".to_vec(),
        old_header(20),
        old_header(21),
        old_header(23),
    ] {
        std::fs::write(&old, &retired).unwrap();
        for args in [
            &["query", old.to_str().unwrap(), rq.to_str().unwrap()][..],
            &["stats", old.to_str().unwrap()],
            &["update", old.to_str().unwrap(), nt.to_str().unwrap()],
        ] {
            let out = sama().args(args).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("no longer read"), "{err}");
            assert!(err.contains("sama index"), "{err}");
        }
        assert_eq!(
            std::fs::read(&old).unwrap(),
            retired,
            "update left it alone"
        );
    }

    // The flags that wrote those formats are gone from both subcommands.
    for flag in ["--v1", "--compress"] {
        for args in [
            &[
                "index",
                nt.to_str().unwrap(),
                "-o",
                unwritten.to_str().unwrap(),
            ][..],
            &[
                "update",
                seq.to_str().unwrap(),
                nt.to_str().unwrap(),
                "-o",
                unwritten.to_str().unwrap(),
            ],
        ] {
            let out = sama().args(args).arg(flag).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?} {flag}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains(&format!("unexpected argument {flag:?}")) || err.contains("usage:"),
                "{err}"
            );
            assert!(!unwritten.exists(), "{args:?} {flag} wrote a file");
        }
    }
    let out = sama().arg("--help").output().unwrap();
    let help = String::from_utf8_lossy(&out.stderr);
    assert!(
        !help.contains("--v1") && !help.contains("--compress"),
        "{help}"
    );
}

/// A reader that goes away (`sama paths idx.bin | head -1`) ends the
/// process quietly, as it would any filter — not with a panic.
#[test]
fn closed_stdout_is_not_a_panic() {
    use std::io::BufRead;
    use std::process::Stdio;
    let nt = temp_path("data_pipe.nt");
    let idx = temp_path("index_pipe.bin");
    let _cleanup = Cleanup(vec![nt.clone(), idx.clone()]);
    // A listing well past any pipe buffer, so the writer is still at it
    // when the reader leaves.
    let triples: String = (0..50_000)
        .map(|i| format!("<s{i}> <p> <o{i}> .\n"))
        .collect();
    std::fs::write(&nt, triples).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut child = sama()
        .args(["paths", idx.to_str().unwrap(), "--limit", "50000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sama paths");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("first line");
    assert!(line.starts_with("p0: "), "{line}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.is_empty(), "{err}");
    assert_ne!(out.status.code(), Some(101), "{:?}", out.status);
}

#[test]
fn ic_weights_flag_and_env_keep_exact_answers() {
    let nt = temp_path("data_ic.nt");
    let rq = temp_path("query_ic.rq");
    let idx = temp_path("index_ic.bin");
    let near_rq = temp_path("query_ic_near.rq");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone(), near_rq.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    // "M" is not in the data: the one answer mismatches it with "Male".
    std::fs::write(&near_rq, "SELECT ?p WHERE { ?p <gender> \"M\" . }\n").unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let run = |rq: &PathBuf, configure: &dyn Fn(&mut std::process::Command)| {
        let mut cmd = sama();
        cmd.args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--json",
        ]);
        configure(&mut cmd);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // IC weights only reprice *mismatches*: the exact answer stays
    // score 0 and exact, with and without --mmap.
    let flagged = run(&rq, &|c| {
        c.arg("--ic-weights");
    });
    assert!(flagged.contains("\"score\":0"), "{flagged}");
    assert!(flagged.contains("\"exact\":true"), "{flagged}");
    let mapped = run(&rq, &|c| {
        c.args(["--ic-weights", "--mmap"]);
    });
    assert_eq!(flagged, mapped);

    // A mismatch is repriced by the flag, and by the flag only: the
    // retired `SAMA_IC=1` leaves the uniform score.
    let uniform = run(&near_rq, &|_| {});
    assert!(uniform.contains("\"score\":1,"), "{uniform}");
    let weighted = run(&near_rq, &|c| {
        c.arg("--ic-weights");
    });
    assert_ne!(uniform, weighted);
    let via_env = run(&near_rq, &|c| {
        c.env("SAMA_IC", "1");
    });
    assert_eq!(uniform, via_env);

    // batch accepts the flag too.
    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--ic-weights",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("batch: 1 queries"));
}

#[test]
fn synonyms_flag_widens_constants_and_an_empty_table_changes_nothing() {
    let nt = temp_path("data_syn.nt");
    let rq = temp_path("query_syn.rq");
    let idx = temp_path("index_syn.bin");
    let syn = temp_path("syn.tsv");
    let empty_syn = temp_path("syn_empty.tsv");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        rq.clone(),
        idx.clone(),
        syn.clone(),
        empty_syn.clone(),
    ]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    // "M" is not in the data; the synonym table bridges it to "Male".
    std::fs::write(&rq, "SELECT ?p WHERE { ?p <gender> \"M\" . }\n").unwrap();
    std::fs::write(&syn, "# gender codes\nM Male\nF Female\n").unwrap();
    std::fs::write(&empty_syn, "# no groups yet\n").unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let run = |configure: &dyn Fn(&mut std::process::Command)| {
        let mut cmd = sama();
        cmd.args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--json",
        ]);
        configure(&mut cmd);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Without synonyms "M" matches nothing exactly; with the table the
    // widened constant accepts "Male" at cost 0.
    let plain = run(&|_| {});
    assert!(!plain.contains("\"score\":0,"), "{plain}");
    let widened = run(&|c| {
        c.args(["--synonyms", syn.to_str().unwrap()]);
    });
    assert!(widened.contains("\"score\":0,"), "{widened}");
    assert!(widened.contains("\"exact\":true"), "{widened}");
    assert!(widened.contains("PierceDickes"), "{widened}");

    // --mmap serves the same answers; the retired `SAMA_SYN` loads no
    // table.
    let mapped = run(&|c| {
        c.args(["--synonyms", syn.to_str().unwrap(), "--mmap"]);
    });
    assert_eq!(widened, mapped);
    let via_env = run(&|c| {
        c.env("SAMA_SYN", syn.to_str().unwrap());
    });
    assert_eq!(plain, via_env);

    // Exact fallback: an empty table changes nothing, byte for byte.
    let neutral = run(&|c| {
        c.args(["--synonyms", empty_syn.to_str().unwrap()]);
    });
    assert_eq!(plain, neutral);

    // The widened cluster is an exact-retrieval cluster.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--explain",
            "--synonyms",
            syn.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"tier\":\"exact\""), "{text}");

    // batch accepts both semantic flags together.
    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--synonyms",
            syn.to_str().unwrap(),
            "--ic-weights",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("batch: 1 queries"), "{text}");
    assert!(text.contains("best score 0.00"), "{text}");
}

/// A synonym match is admitted however many exact matches the cluster
/// holds: with 7 and with 8 `"Male"` subjects, the `"M"` subject comes
/// back at score 0.
#[test]
fn synonyms_widen_a_cluster_however_many_exact_entries_it_has() {
    let rq = temp_path("query_syn_count.rq");
    let syn = temp_path("syn_count.tsv");
    let _cleanup = Cleanup(vec![rq.clone(), syn.clone()]);
    std::fs::write(&rq, "SELECT ?p WHERE { ?p <gender> \"Male\" . }\n").unwrap();
    std::fs::write(&syn, "M Male\n").unwrap();
    for males in [7, 8] {
        let nt = temp_path(&format!("data_syn_{males}.nt"));
        let idx = temp_path(&format!("index_syn_{males}.bin"));
        let _cleanup = Cleanup(vec![nt.clone(), idx.clone()]);
        let mut data: String = (0..males)
            .map(|i| format!("<P{i}> <gender> \"Male\" .\n"))
            .collect();
        data.push_str("<Q0> <gender> \"M\" .\n");
        std::fs::write(&nt, data).unwrap();
        let out = sama()
            .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        let out = sama()
            .args(["query", idx.to_str().unwrap(), rq.to_str().unwrap()])
            .args(["-k", "20", "--json", "--synonyms", syn.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let q0 = "\"score\":0,\"lambda\":0,\"psi\":0,\"exact\":true,\
                  \"triples\":[\"Q0 gender \\\"M\\\"\"]";
        assert!(text.contains(q0), "{males} males: {text}");
    }
}

/// Synonyms-file failures are one-line diagnostics with exit 1, before
/// any index work happens — never a panic.
#[test]
fn synonyms_file_error_paths() {
    let nt = temp_path("data_synerr.nt");
    let rq = temp_path("query_synerr.rq");
    let idx = temp_path("index_synerr.bin");
    let bad = temp_path("syn_bad.tsv");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone(), bad.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    // A one-member group is malformed (nothing to be a synonym *of*).
    std::fs::write(&bad, "M Male\nlonely\n").unwrap();

    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Missing file.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--synonyms",
            "/no/such/synonyms.tsv",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read synonyms file"), "{stderr}");

    // Malformed line, located by number.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--synonyms",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("malformed synonyms file (line 2)"),
        "{stderr}"
    );

    // Missing value.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--synonyms",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--synonyms needs a path"));

    // batch rejects a bad table with the same diagnostic.
    let out = sama()
        .args([
            "batch",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "--synonyms",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("malformed synonyms file"));
}

// ---- sama serve ------------------------------------------------------

/// One `read` off `stream`, retried while a signal interrupts it (as
/// `read_exact` and `read_to_end` do).
fn read_some(stream: &mut impl std::io::Read, chunk: &mut [u8], what: &str) -> usize {
    loop {
        match stream.read(chunk) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            result => return result.unwrap_or_else(|e| panic!("{what}: {e}")),
        }
    }
}

/// Read one HTTP response (head + Content-Length body) off `stream`.
fn read_http_reply(stream: &mut std::net::TcpStream) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = read_some(stream, &mut chunk, "read response head");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_len].to_vec()).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("content-length"))
        .unwrap_or(0);
    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, "read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    (status, headers, body)
}

/// POST `body` to `path` on a freshly spawned `sama serve` at `port`.
fn post_to_serve(port: u16, path: &str, body: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: sama\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    read_http_reply(&mut stream)
}

/// Spawn `sama serve <idx> --addr 127.0.0.1:0 <extra args>` and parse
/// the bound port from its startup line.
fn spawn_serve(
    idx: &std::path::Path,
    extra: &[&str],
    env: &[(&str, &str)],
) -> (
    std::process::Child,
    std::io::BufReader<std::process::ChildStdout>,
    u16,
) {
    use std::io::BufRead;
    let mut cmd = sama();
    cmd.args(["serve", idx.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    for (key, value) in env {
        cmd.env(key, value);
    }
    let mut child = cmd.spawn().expect("spawn sama serve");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("startup line");
    let port: u16 = line
        .trim()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("no port in startup line {line:?}"));
    (child, stdout, port)
}

#[cfg(unix)]
fn sigterm(child: &std::process::Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());
}

#[test]
fn serve_rejects_bad_flags_and_missing_index() {
    // No index path → usage error.
    let out = sama().arg("serve").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sama serve"));

    // A flag that needs a number rejects junk.
    let out = sama()
        .args(["serve", "idx.bin", "--max-connections", "lots"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --max-connections value"));

    // A bad engine-flag value reuses the query-path diagnostics.
    let out = sama()
        .args(["serve", "idx.bin", "--deadline-ms", "many"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --deadline-ms value"));

    // A nonexistent index is a one-line diagnostic, not a panic.
    let out = sama()
        .args(["serve", "/nonexistent/sama_index.bin"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read index"));
}

#[cfg(unix)]
#[test]
fn serve_json_matches_cli_bit_for_bit_and_drains_on_sigterm() {
    use std::io::Read;
    let nt = temp_path("serve_data.nt");
    let rq = temp_path("serve_query.rq");
    let idx = temp_path("serve_index.bin");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // The reference bytes: what `sama query --json` prints.
    let out = sama()
        .args([
            "query",
            idx.to_str().unwrap(),
            rq.to_str().unwrap(),
            "-k",
            "3",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let expected = out.stdout;

    let (mut child, mut stdout, port) = spawn_serve(&idx, &["-k", "3"], &[]);
    let (status, headers, body) = post_to_serve(port, "/query", DEMO_RQ);
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|(n, _)| n == "x-sama-query-id"),
        "query id header present"
    );
    assert_eq!(
        body, expected,
        "HTTP body is bit-for-bit the CLI's --json output"
    );

    sigterm(&child);
    let status = child.wait().expect("wait");
    assert!(status.success(), "SIGTERM exits 0 after drain");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain line");
    assert!(rest.contains("drained"), "drain log line, got {rest:?}");
}

#[cfg(unix)]
#[test]
fn serve_drain_returns_in_flight_results() {
    use std::io::Read;
    let nt = temp_path("serve_drain.nt");
    let idx = temp_path("serve_drain.bin");
    let _cleanup = Cleanup(vec![nt.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Park every handler 400ms so the query is still in flight when
    // SIGTERM lands.
    let (mut child, mut stdout, port) =
        spawn_serve(&idx, &[], &[("SAMA_FAULTS", "serve.handler:delay=400")]);
    let client = std::thread::spawn(move || post_to_serve(port, "/query", DEMO_RQ));
    std::thread::sleep(std::time::Duration::from_millis(150));
    sigterm(&child);

    let (status, _, body) = client.join().expect("client thread");
    assert_eq!(status, 200, "in-flight query completed during drain");
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"exact\":true"), "full result, got {text}");

    let exit = child.wait().expect("wait");
    assert!(exit.success(), "drain exits 0 under load");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain line");
    assert!(rest.contains("drained 1 in-flight"), "got {rest:?}");
}

/// The semantic flags flow through `sama serve` to every HTTP query:
/// a vocabulary-mismatched query answers exactly once the synonym
/// table bridges it, and the IC series appear on /metrics.
#[cfg(unix)]
#[test]
fn serve_applies_semantic_flags_to_http_queries() {
    use std::io::Write;
    let nt = temp_path("serve_syn.nt");
    let idx = temp_path("serve_syn.bin");
    let syn = temp_path("serve_syn.tsv");
    let _cleanup = Cleanup(vec![nt.clone(), idx.clone(), syn.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&syn, "M Male\n").unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let (mut child, _stdout, port) = spawn_serve(
        &idx,
        &["--synonyms", syn.to_str().unwrap(), "--ic-weights"],
        &[],
    );
    let (status, _, body) =
        post_to_serve(port, "/query", "SELECT ?p WHERE { ?p <gender> \"M\" . }\n");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"score\":0,"), "{text}");
    assert!(text.contains("PierceDickes"), "{text}");

    // /metrics exposes the IC weighting series after the query.
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: sama\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let (status, _, body) = read_http_reply(&mut stream);
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).unwrap();
    assert!(metrics.contains("sama_score_ic_queries_total"), "{metrics}");
    assert!(metrics.contains("sama_score_ic_labels"), "{metrics}");

    sigterm(&child);
    let status = child.wait().expect("wait");
    assert!(status.success());
}

/// `query`, `batch` and `serve` read their engine options
/// through one parser: each accepts every engine flag, and a bad value
/// gets the same one-line diagnostic whichever subcommand sees it.
/// `--threads` is not one of them: it is the width of the pool `batch`
/// and `serve` run whole queries on, and nothing else takes it.
#[cfg(unix)]
#[test]
fn every_engine_flag_is_accepted_by_all_three_subcommands() {
    let nt = temp_path("flags_data.nt");
    let rq = temp_path("flags_query.rq");
    let idx = temp_path("flags_index.bin");
    let syn = temp_path("flags_syn.tsv");
    let prof = temp_path("flags_profile.folded");
    let slow = temp_path("flags_slow.jsonl");
    let _cleanup = Cleanup(vec![
        nt.clone(),
        rq.clone(),
        idx.clone(),
        syn.clone(),
        prof.clone(),
        slow.clone(),
    ]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    std::fs::write(&rq, DEMO_RQ).unwrap();
    std::fs::write(&syn, "M\tMale\n").unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let engine_flags = format!(
        "-k 3 --ic-weights \
         --synonyms {} --deadline-ms 60000 --mmap --profile-out {} --slowlog 0 --slowlog-out {}",
        syn.display(),
        prof.display(),
        slow.display()
    );
    let engine_flags: Vec<&str> = engine_flags.split_whitespace().collect();
    let pool_width: &[&str] = &["--threads", "2"];
    for sub in ["query", "batch"] {
        let out = sama()
            .args([sub, idx.to_str().unwrap(), rq.to_str().unwrap()])
            .args(&engine_flags)
            .args(if sub == "batch" { pool_width } else { &[] })
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{sub}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let folded = std::fs::read_to_string(&prof).unwrap();
        assert!(folded.contains("query.cluster_ns"), "{sub}: {folded}");
        let records = std::fs::read_to_string(&slow).unwrap();
        assert!(records.contains("\"query_id\":"), "{sub}: {records}");
        std::fs::remove_file(&prof).unwrap();
        std::fs::remove_file(&slow).unwrap();
    }
    let serve_flags = [&engine_flags[..], pool_width].concat();
    let (mut child, _stdout, port) = spawn_serve(&idx, &serve_flags, &[]);
    let (status, _, body) = post_to_serve(port, "/query", DEMO_RQ);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    // `--threads` is the width of the pool a `POST /batch` runs on.
    let two = format!("{DEMO_RQ};;\n{DEMO_RQ}");
    let (status, _, body) = post_to_serve(port, "/batch", &two);
    let body = String::from_utf8_lossy(&body);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"threads\":2"), "{body}");
    sigterm(&child);
    assert!(child.wait().expect("wait").success());

    // Bad values are caught while parsing, before any file is read.
    for (bad, message) in [
        (&["-k", "x"][..], "bad -k value"),
        (&["--deadline-ms", "x"], "bad --deadline-ms value"),
        (&["--slowlog", "x"], "bad --slowlog value"),
        (&["-k"], "-k needs a number"),
        (&["--synonyms"], "--synonyms needs a path"),
    ] {
        for sub in ["query", "batch", "serve"] {
            let out = sama().arg(sub).arg("idx.bin").args(bad).output().unwrap();
            assert!(!out.status.success(), "{sub} {bad:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stderr),
                format!("error: {message}\n"),
                "{sub} {bad:?}"
            );
        }
    }

    // A query runs on one thread, an index is built on one, a cluster is
    // anchored by the paper's sink-first rule and filled by exact
    // retrieval: the flags that said otherwise are refused like any
    // unknown flag, with one line and before any file is read (none of
    // these exist).
    for (args, message) in [
        (
            &["query", "no.bin", "no.rq", "--anchor", "selective"][..],
            "error: unexpected argument \"--anchor\"\n",
        ),
        (
            &["query", "no.bin", "no.rq", "--threads", "2"],
            "error: unexpected argument \"--threads\"\n",
        ),
        (
            &["index", "no.nt", "-o", "no.bin", "--parallel", "2"],
            "error: unexpected argument \"--parallel\"\n",
        ),
        (
            &["query", "no.bin", "no.rq", "--lsh"],
            "error: unexpected argument \"--lsh\"\n",
        ),
        (
            &["batch", "no.bin", "no.rq", "--lsh-top-m", "4"],
            "error: unexpected argument \"--lsh-top-m\"\n",
        ),
        (
            &["serve", "no.bin", "--lsh"],
            "error: unexpected argument \"--lsh\"\n",
        ),
    ] {
        let out = sama().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), message, "{args:?}");
    }

    // `index --lsh` is refused before the input is read: nothing is
    // written, neither the index nor an `.lsh` beside it.
    let refused = temp_path("flags_refused.bin");
    let sidecar = temp_path("flags_refused.bin.lsh");
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o"])
        .args([refused.to_str().unwrap(), "--lsh"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unexpected argument \"--lsh\"\n"
    );
    assert!(!refused.exists() && !sidecar.exists());

    // The help text lists every engine flag under each of the three,
    // `--threads` under `batch` and `serve` only, and the flags that
    // went with the χ cache and the LSH sidecar are gone.
    let out = sama().arg("--help").output().unwrap();
    let usage = String::from_utf8_lossy(&out.stderr);
    assert!(!usage.contains(concat!("--shared", "-chi")), "{usage}");
    assert!(!usage.contains("--parallel"), "{usage}");
    assert!(!usage.contains("--anchor"), "{usage}");
    assert!(!usage.contains("--lsh"), "{usage}");
    for sub in ["query", "batch", "serve"] {
        let start = usage
            .find(&format!("  sama {sub} "))
            .unwrap_or_else(|| panic!("no {sub} section in {usage}"));
        let section = &usage[start..];
        let section = &section[..section[1..].find("\n  sama ").unwrap_or(section.len() - 1) + 1];
        for flag in engine_flags.iter().filter(|f| f.starts_with('-')) {
            assert!(section.contains(flag), "{sub} lacks {flag}: {section}");
        }
        assert_eq!(
            section.contains("--threads"),
            sub == "batch" || sub == "serve",
            "{sub}: {section}"
        );
    }
}

/// The nine retired `SAMA_*` switches, each at the value that did the
/// most damage while it was read.
const RETIRED_ENV: [(&str, &str); 9] = [
    ("SAMA_DEADLINE_MS", "0"),
    ("SAMA_TRACE", "1"),
    ("SAMA_LSH", "1"),
    ("SAMA_IC", "1"),
    ("SAMA_SYN", "/nonexistent"),
    ("SAMA_METRICS", "0"),
    ("SAMA_PROFILE", "1"),
    ("SAMA_SLOWLOG_MS", "0"),
    ("SAMA_SLO_MS", "0"),
];

/// A run is configured by its flags: `query`, `batch` and `serve` answer
/// the same bytes whatever the retired variables say. (`batch --json`
/// reports wall-clock latencies, which no two runs share; everything
/// else in it is compared.)
#[cfg(unix)]
#[test]
fn environment_configures_nothing() {
    let nt = temp_path("env_data.nt");
    let rq = temp_path("env_query.rq");
    let idx = temp_path("env_index.bin");
    let _cleanup = Cleanup(vec![nt.clone(), rq.clone(), idx.clone()]);
    std::fs::write(&nt, DEMO_NT).unwrap();
    // One mismatched label, so IC weights or a deadline would show.
    let near = "SELECT ?p WHERE { ?p <gender> \"M\" . }\n";
    std::fs::write(&rq, near).unwrap();
    let out = sama()
        .args(["index", nt.to_str().unwrap(), "-o", idx.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let without_timings = |batch_json: String| {
        let (queries, _stats) = batch_json.split_once("],\"stats\":").expect("stats object");
        let (head, _latency) = queries.split_once(",\"latency_us\":").expect("latency");
        head.to_string()
    };
    let run = |env: &[(&str, &str)]| {
        let cli = |sub: &str| {
            let out = sama()
                .args([sub, idx.to_str().unwrap(), rq.to_str().unwrap(), "--json"])
                .envs(env.iter().copied())
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{sub}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        let (mut child, _stdout, port) = spawn_serve(&idx, &[], env);
        let (status, _, body) = post_to_serve(port, "/query", near);
        sigterm(&child);
        assert!(child.wait().expect("wait").success());
        assert_eq!(status, 200);
        (
            cli("query"),
            without_timings(cli("batch")),
            String::from_utf8(body).unwrap(),
        )
    };
    let clean = run(&[]);
    assert!(clean.0.contains("\"score\":1,"), "{}", clean.0);
    assert!(clean.1.contains("\"best_score\":1,"), "{}", clean.1);
    assert_eq!(clean.0, clean.2, "serve answers the CLI's bytes");
    assert_eq!(run(&RETIRED_ENV), clean);
}
