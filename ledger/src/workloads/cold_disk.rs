//! `cold_disk`: the `path-index` layer used the other way round —
//! every query pays for a process, an index open and a tear-down.
//!
//! The end-to-end phase runs `sama query <index> qN.rq --json` as one
//! **process per query** over the four cheapest LUBM queries, once with
//! default flags (read + decode + rebuild the owned index) and once
//! with `--mmap` (validate + map): 8 operation types per sweep. The
//! per-layer phases add `sama index`, `sama update`, the bare process
//! floor, and the same index steps called in-process.
//!
//! Four queries, not twelve: what this workload isolates is what a
//! process pays *around* the query. With all twelve, clustering was 21%
//! of the traced time and a 24 s run gave each type 8 samples (ten-seed
//! spread of `op_ms_p50` 15%); Q1, Q3, Q4 and Q9 cost the engine ≤5 ms
//! each, so a process is open + tear-down and each type gets ~35.
//!
//! "Cold" here is **process-cold with a warm page cache**: the index
//! file was written moments before and the ledger cannot drop the
//! operating system's cache, so no device read is measured — only what
//! the program itself does on every start.

use super::{record_fixture_steps, timed_setup, Outcome, RunOpts, TracedRun};
use crate::expected::Expected;
use crate::fixture::{fixture_mapped, MappedFixture, WorkDir};
use crate::gen::lubm_queries;
use crate::interrupted;
use crate::pipeline::{check_result, prepare, Pipeline, Prepared, TypeGate};
use crate::proc::{peak_rss_of, run_sama, Finished};
use crate::report::Record;
use crate::stats::Summary;
use crate::sweep::{run_sweeps, OpDone, SweepLog};
use datasets::Rng;
use path_index::{decode_any, extract_paths, serialize_index_v2, ExtractionConfig, MappedIndex};
use rdf_model::parse_ntriples;
use sama_core::Retrieval;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Answers per query (the CLI's default `-k`).
const K: usize = 10;
/// The queries run as processes: the cheapest for the engine (three
/// exact, one approximate), so that open and decode dominate.
const QUERIES: [&str; 4] = ["Q1", "Q3", "Q4", "Q9"];
/// `sama index` / `sama update` runs in the per-layer phase.
const BUILD_RUNS: usize = 3;
/// `sama --help` runs for the process floor.
const FLOOR_RUNS: usize = 20;

struct Context {
    fx: MappedFixture,
    /// One `.rq` file per query.
    query_files: Vec<PathBuf>,
    queries: Vec<Prepared>,
    dir: WorkDir,
}

fn setup(opts: &RunOpts) -> Result<Context, String> {
    let dir = WorkDir::create(&opts.out)?;
    let fx = fixture_mapped(opts.scale, opts.seed, &dir)?;
    let queries = prepare(lubm_queries(
        &datasets::lubm_workload(&fx.dataset),
        Some(&QUERIES),
    ))?;
    let query_files = queries
        .iter()
        .map(|q| {
            let path = dir.file(&format!("{}.rq", q.spec.name));
            std::fs::write(&path, &q.spec.sparql)
                .map(|()| path.clone())
                .map_err(|e| format!("cannot write {path:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Context {
        fx,
        query_files,
        queries,
        dir,
    })
}

/// A finished `sama` command is good when it exited 0 and printed
/// exactly `expected`.
fn clean(finished: &Finished, expected: &[u8]) -> Result<(), String> {
    match finished.code {
        Some(0) if finished.stdout == expected => Ok(()),
        Some(0) => Err("stdout differs from in-process render_result_json".into()),
        code => Err(format!(
            "exit {code:?}: {}",
            finished.stderr.lines().last().unwrap_or("")
        )),
    }
}

/// The gate of the process sweeps: type `t` is query `t % n` of the
/// `n` queries, with `--mmap` for `t ≥ n`.
struct Gate {
    /// Expected stdout per query, from the in-process engine.
    expected: Vec<Vec<u8>>,
    truncated: Vec<bool>,
    gates: Vec<TypeGate>,
}

impl Gate {
    fn first_error(&self) -> Option<String> {
        self.gates.iter().enumerate().find_map(|(ty, g)| {
            g.error.as_ref().map(|e| {
                format!(
                    "type {ty} ({}): {e}",
                    if ty >= self.expected.len() {
                        "--mmap"
                    } else {
                        "default"
                    }
                )
            })
        })
    }
}

fn query_process(ctx: &Context, opts: &RunOpts, ty: usize) -> Result<Finished, String> {
    let query = ty % ctx.queries.len();
    let mut args: Vec<&OsStr> = vec![
        "query".as_ref(),
        ctx.fx.index_path.as_os_str(),
        ctx.query_files[query].as_os_str(),
        "--json".as_ref(),
    ];
    if ty >= ctx.queries.len() {
        args.push("--mmap".as_ref());
    }
    run_sama(opts.sama()?, &args)
}

fn process_sweeps(
    ctx: &Context,
    opts: &RunOpts,
    gate: &mut Gate,
    rng: &mut Rng,
    budget: Duration,
    min_sweeps: usize,
) -> Result<SweepLog, String> {
    let queries = ctx.queries.len();
    run_sweeps(2 * queries, rng, budget, min_sweeps, |ty| {
        let finished = query_process(ctx, opts, ty)?;
        let expected = &gate.expected[ty % queries];
        let ok = gate.gates[ty].judge(&finished.stdout, || clean(&finished, expected))
            && finished.code == Some(0);
        Ok(OpDone {
            busy: finished.wall,
            ok,
            truncated: gate.truncated[ty % queries],
        })
    })
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut record = Record::new("cold_disk", opts.seed, opts.scale, opts.seconds);
    let expected = Expected::load_for("cold_disk", opts.seed, opts.scale)?;
    let (ctx, setup_s) = timed_setup(opts, || setup(opts))?;
    record.set("setup_s", setup_s);
    record_fixture_steps(
        &mut record,
        &ctx.fx.steps,
        ctx.fx.index_bytes.len(),
        ctx.fx.triples,
    );
    record
        .notes
        .push("cold = process-cold with a warm page cache: no device read is measured".to_string());

    // The in-process engine says what every process must print.
    let index = MappedIndex::open(&ctx.fx.index_path)
        .map_err(|e| format!("cannot map the fixture again: {e}"))?;
    let pipeline = Pipeline::new(index, K, Retrieval::Exact);
    let mut fingerprints = Expected::empty(opts.seed, opts.scale);
    let queries = ctx.queries.len();
    let mut gate = Gate {
        expected: Vec::new(),
        truncated: Vec::new(),
        gates: (0..2 * queries).map(|_| TypeGate::default()).collect(),
    };
    for q in &ctx.queries {
        let (result, json) = pipeline.answer(&q.graph)?;
        fingerprints.record(&q.spec.name, &result);
        if let Err(e) = check_result(&q.spec, K, true, &result, expected.as_ref()) {
            record.count(1, 1, 0, Some(&e));
        }
        gate.truncated.push(result.truncated);
        gate.expected.push(json.into_bytes());
    }

    let mut rng = Rng::new(opts.seed ^ 0xC01D_D15C);
    let (share, min_sweeps) = if opts.mode.end_to_end() {
        (1.0, 3)
    } else {
        (0.35, 1)
    };
    let log = process_sweeps(
        &ctx,
        opts,
        &mut gate,
        &mut rng,
        opts.share(share),
        min_sweeps,
    )?;
    record.windows = log.windows();
    record.count(log.attempted, log.failed, log.truncated, None);
    let default_p50 = log.percentile_over_types(0.5, |ty| ty < queries);
    let mmap_p50 = log.percentile_over_types(0.5, |ty| ty >= queries);
    record.set("cold_query_ms_p50", default_p50);
    record.set("cold_query_mmap_ms_p50", mmap_p50);
    if opts.mode.end_to_end() {
        record.set("ops_per_s", log.ops_per_s());
        record.set("op_ms_p50", mmap_p50);
        record.set("op_ms_p95", log.percentile_over_types(0.95, |_| true));
    }

    let mut tracer = None;
    if opts.mode.layers() {
        build_and_update(&ctx, opts, &mut record)?;
        process_floor(opts, &mut record)?;
        let traced = traced_sweeps(&ctx, opts, &pipeline, &mut gate, &mut rng, &mut record)?;
        traced.record_layers(&mut record);
        tracer = Some(traced.tracer);
    }
    // The largest process of the sweep: default flags decode the whole
    // index into owned structures (the query adds little to that).
    let biggest: [&OsStr; 4] = [
        "query".as_ref(),
        ctx.fx.index_path.as_os_str(),
        ctx.query_files[queries - 1].as_os_str(),
        "--json".as_ref(),
    ];
    record.set_exact("rss_mb", peak_rss_of(opts.sama()?, &biggest)?);
    if let Some(e) = gate.first_error() {
        record.count(0, 0, 0, Some(&e));
    }
    record.close_counts();
    Ok(Outcome {
        record,
        tracer,
        fingerprints,
    })
}

/// `+1%` triples for `sama update`: new students of existing
/// departments with existing advisors, so the insert extends paths the
/// index already holds.
fn more_ntriples(fx: &MappedFixture) -> String {
    let ds = &fx.dataset;
    let students = (fx.triples / 100 / 4).max(1);
    let mut out = String::new();
    for i in 0..students {
        let dept = &ds.departments[i % ds.departments.len()];
        let advisor = &ds.professors[i % ds.professors.len()];
        out.push_str(&format!(
            "<ExtraStudent{i}> <memberOf> <{dept}> .\n\
             <ExtraStudent{i}> <type> <GraduateStudent> .\n\
             <ExtraStudent{i}> <name> \"Extra Student {i}\" .\n\
             <ExtraStudent{i}> <advisor> <{advisor}> .\n"
        ));
    }
    out
}

/// `SAMAIDX2` bytes are a pure function of the data except for one
/// word: the stats section stamps the wall-clock build time. Two index
/// files are the same index when they differ in at most that one
/// aligned 8-byte word.
fn same_index(a: &[u8], b: &[u8]) -> bool {
    let mut differing = a
        .iter()
        .zip(b)
        .enumerate()
        .filter(|(_, (x, y))| x != y)
        .map(|(i, _)| i / 8);
    let first = differing.next();
    a.len() == b.len() && differing.all(|word| Some(word) == first)
}

fn run_checked(opts: &RunOpts, args: &[&OsStr], what: &str) -> Result<Finished, String> {
    interrupted()?;
    let finished = run_sama(opts.sama()?, args)?;
    if finished.code != Some(0) {
        return Err(format!(
            "{what} exited {:?}: {}",
            finished.code,
            finished.stderr.lines().last().unwrap_or("")
        ));
    }
    Ok(finished)
}

/// `sama index` and `sama update` as processes, their outputs held to
/// the bytes the same layer calls produce in-process; plus the layer
/// calls only this workload makes (`extract_paths`, `decode_any`,
/// `insert_triples`).
fn build_and_update(ctx: &Context, opts: &RunOpts, record: &mut Record) -> Result<(), String> {
    let data = ctx.dir.file("data.nt");
    let more = ctx.dir.file("more.nt");
    let built = ctx.dir.file("built.bin");
    let updated = ctx.dir.file("updated.bin");
    let more_text = more_ntriples(&ctx.fx);
    std::fs::write(&data, &ctx.fx.ntriples)
        .and_then(|()| std::fs::write(&more, &more_text))
        .map_err(|e| format!("cannot write the N-Triples inputs: {e}"))?;

    let mut index_s = Vec::new();
    let mut update_s = Vec::new();
    for _ in 0..BUILD_RUNS {
        let args: [&OsStr; 4] = [
            "index".as_ref(),
            data.as_os_str(),
            "-o".as_ref(),
            built.as_os_str(),
        ];
        index_s.push(run_checked(opts, &args, "sama index")?.wall.as_secs_f64());
        let args: [&OsStr; 5] = [
            "update".as_ref(),
            built.as_os_str(),
            more.as_os_str(),
            "-o".as_ref(),
            updated.as_os_str(),
        ];
        update_s.push(run_checked(opts, &args, "sama update")?.wall.as_secs_f64());
    }
    record.set("index_build_s", Summary::fast(&index_s));
    record.notes.push(format!(
        "sama update (+{} triples): {:.4} s per process",
        more_text.lines().count(),
        Summary::fast(&update_s).value
    ));

    // In-process: the steps `sama update` takes, and path extraction
    // on its own (it is inside `PathIndex::build` otherwise).
    let start = Instant::now();
    let mut owned = decode_any(&ctx.fx.index_bytes).map_err(|e| format!("decode_any: {e}"))?;
    record.set_exact(
        "path_index.decode_owned_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    let start = Instant::now();
    let extraction = extract_paths(owned.graph().as_graph(), &ExtractionConfig::default());
    record.set_exact("path_index.extract_ms", start.elapsed().as_secs_f64() * 1e3);
    let triples = parse_ntriples(&more_text).map_err(|e| format!("more.nt: {e}"))?;
    let start = Instant::now();
    owned
        .insert_triples(&triples, &ExtractionConfig::default())
        .map_err(|e| format!("insert_triples: {e}"))?;
    record.set_exact("path_index.update_ms", start.elapsed().as_secs_f64() * 1e3);
    let reencoded = serialize_index_v2(&mut owned).map_err(|e| format!("encode: {e}"))?;

    let read =
        |path: &PathBuf| std::fs::read(path).map_err(|e| format!("cannot read {path:?}: {e}"));
    let checks = [
        (
            same_index(&read(&built)?, &ctx.fx.index_bytes),
            "sama index output differs from in-process encode_v2",
        ),
        (
            same_index(&read(&updated)?, &reencoded),
            "sama update output differs from in-process insert_triples + encode_v2",
        ),
        (
            extraction.paths.len() == ctx.fx.paths,
            "extract_paths disagrees with the index's path count",
        ),
    ];
    for (ok, what) in checks {
        record.count(1, u64::from(!ok), 0, (!ok).then_some(what));
    }
    Ok(())
}

/// What a process costs before it does anything: `sama --help`.
fn process_floor(opts: &RunOpts, record: &mut Record) -> Result<(), String> {
    let mut floor_ms = Vec::new();
    for _ in 0..FLOOR_RUNS {
        interrupted()?;
        let finished = run_sama(opts.sama()?, &["--help".as_ref()])?;
        floor_ms.push(finished.wall.as_secs_f64() * 1e3);
    }
    record.set("cli.spawn_floor_ms", Summary::fast(&floor_ms));
    Ok(())
}

/// Sweeps with a span around each process and the same query answered
/// in-process, layer by layer, beside it: what the process adds to the
/// engine's own time is open, decode and tear-down.
fn traced_sweeps(
    ctx: &Context,
    opts: &RunOpts,
    pipeline: &Pipeline,
    gate: &mut Gate,
    rng: &mut Rng,
    record: &mut Record,
) -> Result<TracedRun, String> {
    let queries = ctx.queries.len();
    let types = 2 * queries;
    let mut run = TracedRun::start();
    let mut warm_error: Option<String> = None;
    let log = run_sweeps(types, rng, opts.share(0.35), 1, |ty| {
        let q = &ctx.queries[ty % queries];
        let name = if ty >= queries {
            "cli.query_mmap"
        } else {
            "cli.query_default"
        };
        let (finished, warm) = run.request(|t| {
            let finished = t.span(name, |_| query_process(ctx, opts, ty));
            (
                finished,
                pipeline.answer_traced(t, Some(&q.spec.sparql), &q.graph),
            )
        });
        let finished = finished?;
        match warm {
            Ok((_, json, work)) => {
                run.work += work;
                if json.as_bytes() != gate.expected[ty % queries] {
                    warm_error.get_or_insert_with(|| {
                        format!("{}: traced pipeline differs from the engine", q.spec.name)
                    });
                }
            }
            Err(e) => {
                warm_error.get_or_insert(e);
            }
        }
        let expected = &gate.expected[ty % queries];
        let ok = gate.gates[ty].judge(&finished.stdout, || clean(&finished, expected))
            && finished.code == Some(0);
        if run.ops.is_multiple_of(types as u64) {
            run.close_window(types);
        }
        Ok(OpDone {
            busy: finished.wall,
            ok,
            truncated: gate.truncated[ty % queries],
        })
    })?;
    record.count(log.attempted, log.failed, log.truncated, None);
    if let Some(e) = &warm_error {
        record.count(1, 1, 0, Some(e));
    }
    // (cold − warm) ÷ cold over the default-flag queries: the share of
    // a cold query that is not the engine answering it.
    let spans = run.tracer.spans();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    let cold = total("cli.query_default");
    let processes = cold + total("cli.query_mmap");
    let warm_all = total("request") - processes;
    // Both flag sets run the same queries, so half the in-process time
    // belongs to each.
    let warm = warm_all / 2.0;
    record.set_exact("cli.open_share", (cold - warm) / cold.max(1.0));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::same_index;

    #[test]
    fn index_files_may_differ_in_the_build_time_word_only() {
        let a: Vec<u8> = (0..64).collect();
        assert!(same_index(&a, &a));
        let mut stamp = a.clone();
        stamp[40] ^= 0xFF;
        stamp[47] ^= 0xFF;
        assert!(same_index(&a, &stamp), "one aligned word");
        let mut two_words = stamp.clone();
        two_words[8] ^= 1;
        assert!(!same_index(&a, &two_words));
        let mut straddle = a.clone();
        straddle[7] ^= 1;
        straddle[8] ^= 1;
        assert!(!same_index(&a, &straddle));
        assert!(!same_index(&a, &a[..63]));
    }
}
