//! The `sama` command-line tool: index N-Triples data, run SPARQL
//! basic-graph-pattern queries approximately, inspect indexes.
//!
//! ```text
//! sama index  <data.nt> -o <index.bin>      build and save an index
//! sama update <index.bin> <more.nt>         insert triples and rebuild
//! sama query  <index.bin> <query.rq|-> [-k N] [--explain]
//! sama batch  <index.bin> <q1.rq> [q2.rq ...] [-k N] [--threads N]
//! sama serve  <index.bin> [--addr HOST:PORT]  HTTP front door
//! sama stats  <index.bin>                   print Table-1-style stats
//! sama paths  <index.bin> [--limit N]       dump indexed paths
//! ```
//!
//! A run is configured by its flags alone: the binary reads no
//! environment variable (`SAMA_FAULTS`, the chaos harness's way into a
//! spawned `sama serve`, is read by `sama_obs::fault`).

use sama::engine::{
    json_escape, render_result_json, BatchConfig, EngineConfig, SamaEngine, TraceConfig,
    TruncationReason,
};
use sama::index::{
    decode_v2, display_parts, serialize_index_v2, v2::SECTION_NAMES, ExtractionConfig, IndexLike,
    MappedIndex, PathId, PathIndex, StorageError, Thesaurus,
};
use sama::model::{parse_ntriples, parse_sparql, parse_turtle, DataGraph};
use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("update") => cmd_update(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("paths") => cmd_paths(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Write to stdout like `print!`, except that a reader who has gone
/// away (`sama paths idx.bin | head -1`) ends the process quietly, as
/// it would any Unix filter, instead of panicking. `serve` keeps
/// `println!`: it has connections to drain whatever happens to stdout.
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// [`out!`] plus a newline.
macro_rules! outln {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

const USAGE: &str = "\
sama — approximate RDF querying by path alignment (EDBT 2013)

USAGE:
  sama index <data.nt|data.ttl> -o <index.bin> [--stats]
  sama update <index.bin> <more.nt|more.ttl> [-o <out.bin>]
             insert the triples and rebuild: the output is the file
             `sama index` writes for the old input followed by the new
  sama query <index.bin> <query.rq|-> [--explain] [--explain-text] [--json]
             {engine}
  sama batch <index.bin> <q1.rq> [q2.rq ...] [--json] [--max-queue N]
             [--threads N] [--metrics-out <file>] [--trace-out <file>]
             {engine}
  sama serve <index.bin> [--addr HOST:PORT] [--max-connections N]
             [--max-body-kb N] [--read-timeout-ms N] [--write-timeout-ms N]
             [--drain-ms N] [--max-queue N] [--threads N]
             [--metrics-out <file>]
             {engine}
             HTTP front door: POST /query + /batch, GET /metrics,
             /healthz, /readyz; SIGTERM/ctrl-c drains gracefully
  sama stats <index.bin>                    indexing statistics
  sama paths <index.bin> [--limit N]        dump indexed paths

  --threads N        batch, serve: width of the pool that runs whole queries
                     side by side (0 = all hardware threads; batch defaults
                     to 0, serve's POST /batch to 1). A query itself always
                     runs on one thread
  --explain          emit the per-query EXPLAIN trace as one JSONL line
  --explain-text     human-readable pipeline + per-answer breakdown
  --metrics-out F    write Prometheus text to F and a JSON snapshot to F.json
  --trace-out F      write one EXPLAIN trace JSONL line per query to F
  --deadline-ms N    per-query time budget in milliseconds; an expired query
                     returns its best-effort partial top-k, flagged
                     deadline_exceeded
  --max-queue N      batch admission bound: queries beyond the first N are
                     shed with a typed error instead of queueing (0 = none)
  --stats            after indexing, print per-section byte sizes,
                     bytes-per-path, and the measured open time of the file
  --mmap             accepted and ignored: an index is always served straight
                     from its validated memory map (no decode, no graph
                     rebuild). There is one index format, SAMAIDX2; a file
                     in an older one is refused: rebuild it with `sama index`
  --ic-weights       price label mismatches by corpus information content
                     (-log2 label frequency, from the index's IC section)
                     instead of uniformly, so rare-label disagreements cost
                     more than generic ones (indexes without the section
                     fall back to uniform)
  --synonyms F       load a synonym table (TSV: one tab- or comma-separated
                     group per line; # comments) and, when a cluster comes
                     back thinner than 8 entries, retry its retrieval with
                     synonym-widened labels. Exact fallback: if widening
                     adds nothing the original cluster is kept, and an empty
                     table leaves every answer bit-identical; EXPLAIN tags
                     relaxed clusters \"tier\":\"synonym\"
  --profile-out F    arm the phase-stack profiler and write the folded
                     flamegraph lines to F after the run
  --slowlog MS       capture queries slower than MS milliseconds into the
                     slow-query log (0 = every query)
  --slowlog-out F    write the captured slow-query records to F as JSONL
                     after the run (implies --slowlog 0 unless --slowlog
                     set a threshold)
  --addr H:P         serve: listen address (default 127.0.0.1:7878; port 0
                     picks a free port, printed on the startup line)
  --max-connections N  serve: admission cap; accepts beyond it are shed
                     with 503 + Retry-After (default 64)
  --max-body-kb N    serve: request-body cap in KiB; larger bodies get a
                     typed 413 (default 1024)
  --read-timeout-ms N  serve: socket read timeout cutting slow-loris
                     clients (default 5000)
  --write-timeout-ms N serve: socket write timeout (default 5000)
  --drain-ms N       serve: how long SIGTERM waits for in-flight
                     connections before exiting anyway (default 5000)";

/// The engine options, as every subcommand that answers queries lists
/// them in [`USAGE`] (see [`EngineOpts`]).
const ENGINE_USAGE: &str = "\
[-k N] [--ic-weights] [--synonyms <file>] [--deadline-ms N] [--mmap]
             [--profile-out <file>] [--slowlog MS] [--slowlog-out <file>]";

fn usage() -> String {
    USAGE.replace("{engine}", ENGINE_USAGE)
}

/// The operand of `flag`: the next argument, or a one-line complaint.
fn operand<'a>(
    flag: &str,
    what: &str,
    rest: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, String> {
    rest.next().ok_or_else(|| format!("{flag} needs {what}"))
}

/// `arg` as a positional argument: one that no flag arm recognised and
/// that starts with `-` is a mistyped flag, refused by name instead of
/// being adopted as a file (a lone `-` is stdin).
fn not_a_flag(arg: &str) -> Result<&str, String> {
    if arg.len() > 1 && arg.starts_with('-') {
        return Err(format!("unexpected argument {arg:?}"));
    }
    Ok(arg)
}

/// The numeric operand of `flag`.
fn number<T: std::str::FromStr>(
    flag: &str,
    rest: &mut std::slice::Iter<'_, String>,
) -> Result<T, String> {
    operand(flag, "a number", rest)?
        .parse()
        .map_err(|_| format!("bad {flag} value"))
}

/// How `query`, `batch` and `serve` configure the engine and its
/// diagnostics: one set of flags, one parse, one [`EngineConfig`]
/// assembly.
struct EngineOpts {
    k: usize,
    ic_weights: bool,
    synonyms: Option<String>,
    deadline_ms: Option<u64>,
    profile_out: Option<String>,
    slowlog_ms: Option<u64>,
    slowlog_out: Option<String>,
}

impl EngineOpts {
    /// What a run does when no flag says otherwise.
    fn new() -> Self {
        EngineOpts {
            k: 10,
            ic_weights: false,
            synonyms: None,
            deadline_ms: None,
            profile_out: None,
            slowlog_ms: None,
            slowlog_out: None,
        }
    }

    /// Take `arg` (and its operand off `rest`) if it is an engine
    /// option; `Ok(false)` leaves it to the subcommand.
    fn accept(
        &mut self,
        arg: &str,
        rest: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "-k" => self.k = number(arg, rest)?,
            "--ic-weights" => self.ic_weights = true,
            "--synonyms" => self.synonyms = Some(operand(arg, "a path", rest)?.clone()),
            "--deadline-ms" => self.deadline_ms = Some(number(arg, rest)?),
            // There is one way to open an index.
            "--mmap" => {}
            "--profile-out" => self.profile_out = Some(operand(arg, "a path", rest)?.clone()),
            "--slowlog" => self.slowlog_ms = Some(number(arg, rest)?),
            "--slowlog-out" => self.slowlog_out = Some(operand(arg, "a path", rest)?.clone()),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The engine configuration these options select.
    fn engine_config(&self, trace: bool) -> EngineConfig {
        let mut config = EngineConfig {
            ic_weights: self.ic_weights,
            ..Default::default()
        };
        if trace {
            config.trace = TraceConfig::enabled();
        }
        if let Some(ms) = self.deadline_ms {
            config.deadline = Some(std::time::Duration::from_millis(ms));
        }
        config
    }

    /// Arm the diagnostics sinks, then open the engine (so the index
    /// open profiles too): the index from [`open_index`], the synonym
    /// relaxation tier installed when a table was given. A missing or malformed table
    /// is a one-line diagnostic, not a panic.
    fn open_engine(
        &self,
        index_path: &str,
        trace: bool,
    ) -> Result<SamaEngine<MappedIndex>, String> {
        let thesaurus = self
            .synonyms
            .as_deref()
            .map(|path| Thesaurus::from_file(std::path::Path::new(path)))
            .transpose()
            .map_err(|e| e.to_string())?;
        // `--profile-out` turns the phase-stack profiler on, `--slowlog
        // MS` sets the capture threshold, and `--slowlog-out` alone
        // implies capture-everything (threshold 0) so the file is never
        // silently empty.
        if self.profile_out.is_some() {
            sama::obs::profile::set_profiling(true);
        }
        let log = sama::obs::slowlog::global();
        if let Some(ms) = self.slowlog_ms {
            log.set_threshold(Some(std::time::Duration::from_millis(ms)));
        } else if self.slowlog_out.is_some() {
            log.set_threshold(Some(std::time::Duration::ZERO));
        }
        let index = open_index(index_path)?;
        let engine = SamaEngine::from_index_with_config(index, self.engine_config(trace));
        Ok(match thesaurus {
            Some(thesaurus) => engine.relax_synonyms(std::sync::Arc::new(thesaurus)),
            None => engine,
        })
    }

    /// Flush the diagnostics sinks after the run: folded flamegraph
    /// lines to `--profile-out`, slow-query JSONL to `--slowlog-out`.
    fn flush_diagnostics(&self) -> Result<(), String> {
        if let Some(path) = &self.profile_out {
            let folded = sama::obs::profile::folded();
            std::fs::write(path, &folded).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!("wrote {} profile stacks to {path}", folded.lines().count());
        }
        if let Some(path) = &self.slowlog_out {
            let log = sama::obs::slowlog::global();
            std::fs::write(path, log.to_jsonl())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            eprintln!(
                "wrote {} slow-query records to {path} ({} evicted)",
                log.len(),
                log.evicted()
            );
        }
        Ok(())
    }
}

/// Read a query from a file or stdin (`-`) and parse it.
fn read_query(query_path: &str) -> Result<sama::model::SparqlQuery, String> {
    let text = if query_path == "-" {
        let mut text = String::new();
        std::io::stdin()
            .read_to_string(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(query_path)
            .map_err(|e| format!("cannot read {query_path:?}: {e}"))?
    };
    parse_sparql(&text).map_err(|e| e.to_string())
}

/// Open an index: the file is validated and served in place from its
/// memory map — the one index type and the one read path of every
/// subcommand but `update`.
fn open_index(path: &str) -> Result<MappedIndex, String> {
    let index = MappedIndex::open(std::path::Path::new(path)).map_err(|e| index_error(path, e))?;
    sama::obs::global().set_build_info("index.format", "SAMAIDX2");
    Ok(index)
}

/// Decode an index file into the owned, mutable representation `update`
/// works on.
fn load_index(path: &str) -> Result<PathIndex, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read index {path:?}: {e}"))?;
    decode_v2(&bytes).map_err(|e| index_error(path, e))
}

fn index_error(path: &str, e: StorageError) -> String {
    match e {
        StorageError::Io(e) => format!("cannot read index {path:?}: {e}"),
        e => format!("cannot decode index {path:?}: {e}"),
    }
}

fn parse_rdf_file(path: &str) -> Result<Vec<sama::model::Triple>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    if path.ends_with(".ttl") || path.ends_with(".turtle") {
        parse_turtle(&text).map_err(|e| e.to_string())
    } else {
        parse_ntriples(&text).map_err(|e| e.to_string())
    }
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    let mut input = None;
    let mut output = None;
    let mut show_stats = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" => output = Some(operand("-o", "a path", &mut iter)?.clone()),
            "--stats" => show_stats = true,
            other if input.is_none() => input = Some(not_a_flag(other)?.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let input = input.ok_or("missing input .nt/.ttl file")?;
    let output = output.ok_or("missing -o <index.bin>")?;

    let triples = parse_rdf_file(&input)?;
    let data = DataGraph::from_triples(&triples).map_err(|e| e.to_string())?;
    eprintln!(
        "parsed {} triples ({} nodes)",
        data.edge_count(),
        data.node_count()
    );

    let mut index = PathIndex::build(data);
    let bytes =
        serialize_index_v2(&mut index).map_err(|e| format!("cannot serialize index: {e}"))?;
    std::fs::write(&output, &bytes).map_err(|e| format!("cannot write {output:?}: {e}"))?;
    let stats = index.stats();
    eprintln!(
        "indexed {} paths in {:.2?}; wrote {} to {output}",
        stats.path_count,
        stats.build_time,
        sama::index::format_bytes(bytes.len()),
    );
    if stats.is_truncated() {
        eprintln!(
            "warning: extraction limits truncated the path set \
             ({} depth cuts, {} dropped)",
            stats.depth_truncated, stats.dropped
        );
    }
    if show_stats {
        let t = std::time::Instant::now();
        let mapped = open_index(&output)?;
        print_open_time_and_sections(&mapped, t.elapsed());
    }
    Ok(())
}

/// The tail of `sama stats` and `sama index --stats`: how long the open
/// took, and the per-section byte sizes of the file.
fn print_open_time_and_sections(index: &MappedIndex, open_time: std::time::Duration) {
    outln!("open time      : {open_time:.2?} (zero-copy)");
    let view = index.view();
    let paths = view.path_count().max(1);
    outln!("sections:");
    for (name, size) in SECTION_NAMES.iter().zip(view.section_sizes()) {
        outln!(
            "  {name:<18} {:>12}  ({:.1} B/path)",
            sama::index::format_bytes(size),
            size as f64 / paths as f64
        );
    }
}

fn cmd_update(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut output = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-o" | "--output" => output = Some(operand("-o", "a path", &mut iter)?.clone()),
            other => positional.push(not_a_flag(other)?.to_string()),
        }
    }
    let [index_path, data_path] = positional.as_slice() else {
        return Err("usage: sama update <index.bin> <more.nt|more.ttl> [-o out.bin]".into());
    };
    let output = output.unwrap_or_else(|| index_path.clone());

    let mut index = load_index(index_path)?;
    let triples = parse_rdf_file(data_path)?;
    let stats = index
        .insert_triples(&triples, &ExtractionConfig::default())
        .map_err(|e| e.to_string())?;
    eprintln!(
        "inserted {} edges: {} paths rebuilt into {}",
        stats.inserted_edges, stats.removed_paths, stats.added_paths
    );
    let bytes =
        serialize_index_v2(&mut index).map_err(|e| format!("cannot serialize index: {e}"))?;
    std::fs::write(&output, &bytes).map_err(|e| format!("cannot write {output:?}: {e}"))?;
    eprintln!(
        "wrote {} to {output}",
        sama::index::format_bytes(bytes.len())
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut opts = EngineOpts::new();
    let mut explain = false;
    let mut explain_text = false;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--explain" => explain = true,
            "--explain-text" => explain_text = true,
            "--json" => json = true,
            other if opts.accept(other, &mut iter)? => {}
            other => positional.push(not_a_flag(other)?.to_string()),
        }
    }
    let [index_path, query_path] = positional.as_slice() else {
        return Err("usage: sama query <index.bin> <query.rq|-> [-k N] [--explain]".into());
    };

    let query = read_query(query_path)?;
    let engine = opts.open_engine(index_path, explain)?;
    run_query(
        &engine,
        &query,
        query_path,
        opts.k,
        explain,
        explain_text,
        json,
    )?;
    opts.flush_diagnostics()
}

/// The query pipeline after engine construction.
#[allow(clippy::too_many_arguments)]
fn run_query(
    engine: &SamaEngine<MappedIndex>,
    query: &sama::model::SparqlQuery,
    query_path: &str,
    k: usize,
    explain: bool,
    explain_text: bool,
    json: bool,
) -> Result<(), String> {
    // `try_answer` validates the query first: a malformed query is a
    // one-line diagnostic and a nonzero exit, not a panic or an empty
    // answer set that looks like a miss.
    let result = engine
        .try_answer(&query.graph, k)
        .map_err(|e| format!("query failed: {e}"))?;

    // --explain: one machine-readable JSONL line per query (what the
    // pipeline did — phases, clusters, χ lookups, truncation).
    // Composable with --json; otherwise it is the only stdout output.
    if explain {
        let trace = result
            .trace
            .clone()
            .expect("trace enabled for --explain")
            .with_label(query_path);
        outln!("{}", trace.to_json_line());
    }

    if json {
        out!(
            "{}",
            render_result_json(engine.index(), &query.graph, &result)
        );
        return Ok(());
    }
    if explain && !explain_text {
        return Ok(());
    }

    if explain_text {
        outln!("query paths (PQ):");
        for qp in &result.query_paths {
            outln!(
                "  q{}: {}",
                qp.index,
                qp.path.display(query.graph.as_graph())
            );
        }
        outln!("clusters:");
        for c in &result.clusters {
            outln!(
                "  cl{}: {} entries (best λ = {}), {} of {} candidates scanned, {} touched{}",
                c.qpath_index,
                c.entries.len(),
                c.best_lambda(),
                c.scanned,
                c.candidates_retrieved,
                c.touched,
                if c.candidates_dropped > 0 {
                    format!(" [{} candidates dropped]", c.candidates_dropped)
                } else {
                    String::new()
                }
            );
        }
        outln!(
            "search: {} paths retrieved, truncated: {}",
            result.retrieved_paths,
            result.truncated
        );
        outln!(
            "timings: preprocess {:.2?}, cluster {:.2?}, search {:.2?} ({} χ lookups)",
            result.timings.preprocessing,
            result.timings.clustering,
            result.timings.search,
            result.chi_stats.lookups()
        );
        outln!();
    }

    for (rank, answer) in result.answers.iter().enumerate() {
        if explain_text {
            if let Some(text) = result.explain_answer(rank, engine.index(), &query.graph) {
                out!("{text}");
                continue;
            }
        }
        outln!(
            "-- answer {} (score {:.2}, Λ {:.2}, Ψ {:.2}{})",
            rank + 1,
            answer.score(),
            answer.lambda(),
            answer.psi(),
            if answer.is_exact() { ", exact" } else { "" }
        );
        for line in answer.triple_lines(engine.index()) {
            outln!("   {line}");
        }
        let bindings = answer.bindings();
        if !bindings.is_empty() {
            let rendered: Vec<String> = bindings
                .iter()
                .map(|&(v, value)| {
                    format!(
                        "?{}={}",
                        query.graph.vocab().lexical(v),
                        engine.index().label_lexical(value)
                    )
                })
                .collect();
            outln!("   bindings: {}", rendered.join(" "));
        }
    }
    if result.answers.is_empty() {
        eprintln!("no answers");
    }
    if matches!(result.truncation, Some(TruncationReason::DeadlineExceeded)) {
        eprintln!("note: deadline exceeded — best-effort partial results");
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut opts = EngineOpts::new();
    let mut json = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut max_queue = 0usize;
    // Pool width; 0 = one worker per hardware thread.
    let mut threads = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--max-queue" => max_queue = number(arg, &mut iter)?,
            "--threads" => threads = number(arg, &mut iter)?,
            "--metrics-out" => metrics_out = Some(operand(arg, "a path", &mut iter)?.clone()),
            "--trace-out" => trace_out = Some(operand(arg, "a path", &mut iter)?.clone()),
            other if opts.accept(other, &mut iter)? => {}
            other => positional.push(not_a_flag(other)?.to_string()),
        }
    }
    let [index_path, query_paths @ ..] = positional.as_slice() else {
        return Err(
            "usage: sama batch <index.bin> <q1.rq> [q2.rq ...] [-k N] [--threads N]".into(),
        );
    };
    if query_paths.is_empty() {
        return Err("batch needs at least one query file".into());
    }

    let mut queries = Vec::with_capacity(query_paths.len());
    for path in query_paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let query = parse_sparql(&text).map_err(|e| format!("{path}: {e}"))?;
        queries.push(query.graph);
    }

    let batch_config = BatchConfig {
        k: opts.k,
        threads,
        max_queue_depth: max_queue,
    };
    let engine = opts.open_engine(index_path, trace_out.is_some())?;
    let outcome = engine.answer_batch(&queries, &batch_config);
    let stats = &outcome.stats;
    opts.flush_diagnostics()?;

    // Per-query EXPLAIN traces, one JSONL line each, labeled by file.
    // Failed/shed slots carry no trace; they are skipped.
    if let Some(path) = &trace_out {
        let mut lines = String::new();
        let mut written = 0usize;
        for (file, result) in query_paths.iter().zip(&outcome.results) {
            let Ok(result) = result else { continue };
            let trace = result
                .trace
                .clone()
                .expect("trace enabled for --trace-out")
                .with_label(file.as_str());
            lines.push_str(&trace.to_json_line());
            lines.push('\n');
            written += 1;
        }
        std::fs::write(path, lines).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote {written} traces to {path}");
    }

    // Registry snapshot: Prometheus text exposition to <file>, JSON
    // snapshot to <file>.json.
    if let Some(path) = &metrics_out {
        let snapshot = sama::obs::global().snapshot();
        std::fs::write(path, snapshot.to_prometheus())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let json_path = format!("{path}.json");
        std::fs::write(&json_path, snapshot.to_json())
            .map_err(|e| format!("cannot write {json_path:?}: {e}"))?;
        eprintln!("wrote metrics to {path} (Prometheus) and {json_path} (JSON)");
    }

    if json {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\"queries\":[");
        for (i, (path, result)) in query_paths.iter().zip(&outcome.results).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match result {
                Ok(result) => {
                    let _ = write!(
                        out,
                        "{{\"file\":\"{}\",\"answers\":{},\"best_score\":{},\
                         \"retrieved_paths\":{},\"truncated\":{},\"latency_us\":{}}}",
                        json_escape(path),
                        result.answers.len(),
                        result
                            .best()
                            .map(|a| a.score().to_string())
                            .unwrap_or_else(|| "null".into()),
                        result.retrieved_paths,
                        result.truncated,
                        result.timings.total().as_micros()
                    );
                }
                Err(error) => {
                    let _ = write!(
                        out,
                        "{{\"file\":\"{}\",\"error\":\"{}\"}}",
                        json_escape(path),
                        json_escape(&error.to_string())
                    );
                }
            }
        }
        let lat = |l: &sama::engine::PhaseLatency| {
            format!(
                "{{\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}}",
                l.p50.as_micros(),
                l.p95.as_micros(),
                l.max.as_micros()
            )
        };
        let _ = writeln!(
            out,
            "],\"stats\":{{\"queries\":{},\"threads\":{},\"wall_time_us\":{},\
             \"queries_per_sec\":{:.2},\"total\":{},\"preprocessing\":{},\
             \"clustering\":{},\"search\":{}}}}}",
            stats.queries,
            stats.threads,
            stats.wall_time.as_micros(),
            stats.queries_per_sec,
            lat(&stats.total),
            lat(&stats.preprocessing),
            lat(&stats.clustering),
            lat(&stats.search),
        );
        out!("{out}");
        return Ok(());
    }

    for (path, result) in query_paths.iter().zip(&outcome.results) {
        match result {
            Ok(result) => outln!(
                "{path}: {} answers, best score {}, {} paths retrieved{} ({:.2?})",
                result.answers.len(),
                result
                    .best()
                    .map(|a| format!("{:.2}", a.score()))
                    .unwrap_or_else(|| "-".into()),
                result.retrieved_paths,
                match result.truncation {
                    Some(TruncationReason::DeadlineExceeded) => ", deadline exceeded",
                    Some(TruncationReason::Cancelled) => ", cancelled",
                    _ if result.truncated => ", truncated",
                    _ => "",
                },
                result.timings.total()
            ),
            Err(error) => outln!("{path}: FAILED ({error})"),
        }
    }
    outln!(
        "batch: {} queries on {} threads in {:.2?} ({:.1} q/s)",
        stats.queries,
        stats.threads,
        stats.wall_time,
        stats.queries_per_sec
    );
    if stats.failed + stats.shed + stats.degraded > 0 {
        outln!(
            "  {} failed, {} shed, {} degraded (deadline/cancel)",
            stats.failed,
            stats.shed,
            stats.degraded
        );
    }
    for (phase, lat) in [
        ("total", &stats.total),
        ("preprocess", &stats.preprocessing),
        ("cluster", &stats.clustering),
        ("search", &stats.search),
    ] {
        outln!(
            "  {phase:<10} p50 {:.2?}  p95 {:.2?}  max {:.2?}",
            lat.p50,
            lat.p95,
            lat.max
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [index_path] = args else {
        return Err("usage: sama stats <index.bin>".into());
    };
    let t = std::time::Instant::now();
    let index = open_index(not_a_flag(index_path)?)?;
    let open_time = t.elapsed();
    let s = index.stats();
    outln!("triples        : {}", s.triples);
    outln!("|HV|           : {}", s.hyper_vertices);
    outln!("|HE|           : {}", s.hyper_edges);
    outln!("paths          : {}", s.path_count);
    outln!("build time     : {:.2?}", s.build_time);
    if let Some(bytes) = s.serialized_bytes {
        outln!("space          : {}", sama::index::format_bytes(bytes));
    }
    outln!("truncated      : {}", s.is_truncated());
    print_open_time_and_sections(&index, open_time);
    Ok(())
}

fn cmd_paths(args: &[String]) -> Result<(), String> {
    let mut positional = Vec::new();
    let mut limit = 50usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--limit" => limit = number(arg, &mut iter)?,
            other => positional.push(not_a_flag(other)?.to_string()),
        }
    }
    let [index_path] = positional.as_slice() else {
        return Err("usage: sama paths <index.bin> [--limit N]".into());
    };
    let index = open_index(index_path)?;
    let graph = index.data().as_graph();
    let total = index.total_paths();
    for id in (0..total.min(limit) as u32).map(PathId) {
        outln!(
            "{id}: {}",
            display_parts(graph, index.path_nodes(id), index.path_edges(id))
        );
    }
    if total > limit {
        eprintln!("… {} more (use --limit)", total - limit);
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::time::Duration;
    let mut positional = Vec::new();
    let mut serve_config = sama::serve::ServeConfig {
        // Connections already run side by side, one thread each; a
        // `POST /batch` gets a wider pool only when asked.
        batch_threads: 1,
        ..Default::default()
    };
    let mut opts = EngineOpts::new();
    let mut metrics_out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => serve_config.addr = operand(arg, "HOST:PORT", &mut iter)?.clone(),
            "--max-connections" => serve_config.max_connections = number(arg, &mut iter)?,
            "--max-body-kb" => {
                serve_config.max_body_bytes = number::<usize>(arg, &mut iter)? * 1024;
            }
            "--read-timeout-ms" => {
                serve_config.read_timeout = Duration::from_millis(number(arg, &mut iter)?);
            }
            "--write-timeout-ms" => {
                serve_config.write_timeout = Duration::from_millis(number(arg, &mut iter)?);
            }
            "--drain-ms" => {
                serve_config.drain_grace = Duration::from_millis(number(arg, &mut iter)?);
            }
            "--max-queue" => serve_config.max_queue_depth = number(arg, &mut iter)?,
            "--threads" => serve_config.batch_threads = number(arg, &mut iter)?,
            "--metrics-out" => metrics_out = Some(operand(arg, "a path", &mut iter)?.clone()),
            other if opts.accept(other, &mut iter)? => {}
            other => positional.push(not_a_flag(other)?.to_string()),
        }
    }
    let [index_path] = positional.as_slice() else {
        return Err("usage: sama serve <index.bin> [--addr HOST:PORT] [-k N] ...".into());
    };
    serve_config.k = opts.k;

    // Arm the drain flag before the listener exists so a signal racing
    // startup still wins.
    sama::serve::signal::install();

    // Bind, announce, serve until drained, then flush the observability
    // sinks.
    let engine = opts.open_engine(index_path, false)?;
    let server = sama::serve::Server::bind(engine, serve_config)?;
    // The startup line is machine-parsed (tests bind port 0 and read
    // the actual port back), so flush it past the pipe buffer.
    println!("sama serve: listening on http://{}", server.local_addr());
    let _ = std::io::Write::flush(&mut std::io::stdout());
    let report = server.run();
    if let Some(path) = &metrics_out {
        let snapshot = sama::obs::global().snapshot();
        std::fs::write(path, snapshot.to_prometheus())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    opts.flush_diagnostics()?;
    println!(
        "sama serve: drained {} in-flight connections in {:.2?}{}",
        report.in_flight_at_shutdown,
        report.waited,
        if report.is_clean() {
            String::new()
        } else {
            format!(" ({} aborted at the grace limit)", report.aborted)
        }
    );
    Ok(())
}
