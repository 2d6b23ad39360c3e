//! `lubm_mix` and `deep_topk`: the LUBM queries answered in-process
//! over the mapped fixture, one thread, answer + render per query, in
//! shuffled sweeps. The two differ only in which queries, how many
//! answers, and whether the LSH tier prunes the clusters — which is
//! exactly what moves the time from clustering (`lubm_mix`) to search
//! and rendering (`deep_topk`).

use super::{record_fixture_steps, timed_setup, Outcome, RunOpts, TracedRun};
use crate::expected::Expected;
use crate::fixture::{fixture_mapped, StepTimes, WorkDir};
use crate::gen::lubm_queries;
use crate::pipeline::{check_result, prepare, Pipeline, Prepared, TypeGate, Work};
use crate::proc::vm_hwm_mb;
use crate::report::{hardware_threads, Record};
use crate::stats::Summary;
use crate::sweep::{run_sweeps, OpDone, SweepLog, WINDOWS};
use datasets::Rng;
use path_index::{build_lsh_bytes, LshParams, LshSidecar};
use rdf_model::QueryGraph;
use sama_core::{BatchConfig, QueryResult, Retrieval};
use sama_testkit::invariants::fingerprint;
use std::time::{Duration, Instant};

/// What distinguishes the two in-process workloads.
pub struct Spec {
    name: &'static str,
    /// Queries of the 12 to run (`None` = all).
    only: Option<&'static [&'static str]>,
    /// Answers per query.
    k: usize,
    /// Prune clusters through the LSH tier (sidecar built in set-up).
    lsh: bool,
    /// Also run the `answer_batch` and metrics-on/off phases.
    batch_and_obs: bool,
}

/// The paper's Fig. 6 warm case: all 12 queries, k=10, exact retrieval.
pub const LUBM_MIX: Spec = Spec {
    name: "lubm_mix",
    only: None,
    k: 10,
    lsh: false,
    batch_and_obs: true,
};

/// The seven multi-path queries at k=1000 with clusters pruned to the
/// default `top_m`, so search and rendering carry the time.
pub const DEEP_TOPK: Spec = Spec {
    name: "deep_topk",
    only: Some(&["Q3", "Q4", "Q5", "Q6", "Q10", "Q11", "Q12"]),
    k: 1000,
    lsh: true,
    batch_and_obs: false,
};

/// Sweeps of the query list submitted per `answer_batch` call.
const BATCH_SWEEPS: usize = 4;

struct Context {
    pipeline: Pipeline,
    queries: Vec<Prepared>,
    steps: StepTimes,
    index_bytes: usize,
    triples: usize,
    paths: usize,
    lsh_build_s: f64,
    lsh_bytes: usize,
    // Last: the mapped file must outlive the pipeline that maps it.
    _dir: WorkDir,
}

fn setup(spec: &Spec, opts: &RunOpts) -> Result<Context, String> {
    let dir = WorkDir::create(&opts.out)?;
    let fx = fixture_mapped(opts.scale, opts.seed, &dir)?;
    let queries = prepare(lubm_queries(
        &datasets::lubm_workload(&fx.dataset),
        spec.only,
    ))?;
    let mut index = fx.index;
    let (mut lsh_build_s, mut lsh_bytes) = (0.0, 0);
    let retrieval = if spec.lsh {
        let start = Instant::now();
        let bytes = build_lsh_bytes(&index, LshParams::default())
            .map_err(|e| format!("cannot build LSH signatures: {e}"))?;
        lsh_build_s = start.elapsed().as_secs_f64();
        lsh_bytes = bytes.len();
        // Attached from memory: the sidecar is ~7× the index, and
        // writing it would make set-up a disk benchmark.
        let sidecar =
            LshSidecar::from_bytes(&bytes).map_err(|e| format!("bad LSH sidecar: {e}"))?;
        index
            .attach_lsh(sidecar)
            .map_err(|e| format!("cannot attach LSH sidecar: {e}"))?;
        Retrieval::DEFAULT_LSH
    } else {
        Retrieval::Exact
    };
    Ok(Context {
        pipeline: Pipeline::new(index, spec.k, retrieval),
        queries,
        steps: fx.steps,
        index_bytes: fx.index_bytes.len(),
        triples: fx.triples,
        paths: fx.paths,
        lsh_build_s,
        lsh_bytes,
        _dir: dir,
    })
}

/// The correctness gate of the in-process workloads, one verdict per
/// query type.
struct Gate<'a> {
    k: usize,
    exact_retrieval: bool,
    expected: Option<&'a Expected>,
    gates: Vec<TypeGate>,
    /// Bit-exact fingerprint of each type's sequential result — what
    /// `answer_batch` must reproduce.
    sequential: Vec<Vec<String>>,
    fingerprints: Expected,
}

impl Gate<'_> {
    /// Judge one execution of type `ty` that kept the engine busy for
    /// `busy`.
    fn judge(
        &mut self,
        ty: usize,
        q: &Prepared,
        busy: Duration,
        answered: &Result<(QueryResult, String), String>,
    ) -> OpDone {
        match answered {
            Ok((result, json)) => {
                let (k, exact, expected) = (self.k, self.exact_retrieval, self.expected);
                let (fingerprints, sequential) = (&mut self.fingerprints, &mut self.sequential);
                let ok = self.gates[ty].judge(json.as_bytes(), || {
                    fingerprints.record(&q.spec.name, result);
                    sequential[ty] = fingerprint(result);
                    check_result(&q.spec, k, exact, result, expected)
                });
                OpDone {
                    busy,
                    ok,
                    truncated: result.truncated,
                }
            }
            Err(e) => {
                self.gates[ty].error.get_or_insert_with(|| e.clone());
                OpDone {
                    busy,
                    ok: false,
                    truncated: false,
                }
            }
        }
    }

    fn first_error(&self) -> Option<&str> {
        self.gates.iter().find_map(|g| g.error.as_deref())
    }
}

fn untraced_sweeps(
    ctx: &Context,
    gate: &mut Gate,
    rng: &mut Rng,
    budget: Duration,
    min_sweeps: usize,
) -> Result<SweepLog, String> {
    run_sweeps(ctx.queries.len(), rng, budget, min_sweeps, |ty| {
        let q = &ctx.queries[ty];
        let start = Instant::now();
        let answered = ctx.pipeline.answer(&q.graph);
        let busy = start.elapsed();
        Ok(gate.judge(ty, q, busy, &answered))
    })
}

/// Run one of the two in-process workloads.
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let mut record = Record::new(spec.name, opts.seed, opts.scale, opts.seconds);
    let expected = Expected::load_for(spec.name, opts.seed, opts.scale)?;
    let (ctx, setup_s) = timed_setup(opts, || setup(spec, opts))?;
    record.set("setup_s", setup_s);
    record_fixture_steps(&mut record, &ctx.steps, ctx.index_bytes, ctx.triples);
    if spec.lsh {
        record.set_exact("path_index.lsh_build_s", ctx.lsh_build_s);
        record.set_exact(
            "path_index.lsh_bytes_per_path",
            ctx.lsh_bytes as f64 / ctx.paths as f64,
        );
    }
    let types = ctx.queries.len();
    let mut gate = Gate {
        k: spec.k,
        exact_retrieval: !spec.lsh,
        expected: expected.as_ref(),
        gates: (0..types).map(|_| TypeGate::default()).collect(),
        sequential: vec![Vec::new(); types],
        fingerprints: Expected::empty(opts.seed, opts.scale),
    };
    let mut rng = Rng::new(opts.seed ^ 0x5EED_0F5E_EDED);

    // Untraced sequential sweeps: the end-to-end numbers, and the
    // reference the traced run's overhead is measured against.
    let (share, min_sweeps) = if opts.mode.end_to_end() {
        (1.0, WINDOWS)
    } else {
        (0.25, 3)
    };
    let log = untraced_sweeps(&ctx, &mut gate, &mut rng, opts.share(share), min_sweeps)?;
    record.windows = log.windows();
    record.count(log.attempted, log.failed, log.truncated, None);
    // Peak of set-up plus the sequential loop: the same in every mode.
    record.set_exact("rss_mb", vm_hwm_mb("self"));
    if opts.mode.end_to_end() {
        record.set("ops_per_s", log.ops_per_s());
        record.set("op_ms_p50", log.percentile_over_types(0.5, |_| true));
        record.set("op_ms_p95", log.percentile_over_types(0.95, |_| true));
    }

    let mut tracer = None;
    if opts.mode.layers() {
        let traced_share = if spec.batch_and_obs { 0.35 } else { 0.75 };
        let traced = traced_sweeps(
            &ctx,
            &mut gate,
            &mut rng,
            opts.share(traced_share),
            &mut record,
        )?;
        let reference = Summary::fast(&log.sweep_seconds()).value;
        let traced_sweep = Summary::fast(
            &traced
                .windows
                .window_seconds(traced.tracer.spans(), "request"),
        )
        .value;
        record.set_exact(
            "bench.trace_overhead_pct",
            100.0 * (traced_sweep - reference) / reference,
        );
        traced.record_layers(&mut record);
        tracer = Some(traced.tracer);
        if spec.batch_and_obs {
            let sequential_rate = log.ops_per_s().value;
            batch_phase(
                &ctx,
                &gate,
                &mut rng,
                opts.share(0.25),
                sequential_rate,
                &mut record,
            )?;
            obs_phase(&ctx, &mut gate, &mut rng, opts.share(0.15), &mut record)?;
        }
    }
    let first_error = gate.first_error().map(str::to_string);
    record.count(0, 0, 0, first_error.as_deref());
    record.close_counts();
    Ok(Outcome {
        record,
        tracer,
        fingerprints: gate.fingerprints,
    })
}

/// The same sweeps through the taken-apart pipeline, a span per layer;
/// one trace window per sweep. Output must equal the untraced bytes.
fn traced_sweeps(
    ctx: &Context,
    gate: &mut Gate,
    rng: &mut Rng,
    budget: Duration,
    record: &mut Record,
) -> Result<TracedRun, String> {
    let types = ctx.queries.len();
    let mut run = TracedRun::start();
    let log = run_sweeps(types, rng, budget, 3, |ty| {
        let q = &ctx.queries[ty];
        let start = Instant::now();
        let answered = run.request(|t| ctx.pipeline.answer_traced(t, None, &q.graph));
        let busy = start.elapsed();
        let mut work = Work::default();
        let answered = answered.map(|(result, json, w)| {
            work = w;
            (result, json)
        });
        run.work += work;
        if run.ops.is_multiple_of(types as u64) {
            run.close_window(types);
        }
        Ok(gate.judge(ty, q, busy, &answered))
    })?;
    record.count(log.attempted, log.failed, log.truncated, None);
    Ok(run)
}

/// `answer_batch` at `threads = nproc` over a 4-sweep stream; every
/// result must be bit-identical to the sequential loop's.
fn batch_phase(
    ctx: &Context,
    gate: &Gate,
    rng: &mut Rng,
    budget: Duration,
    sequential_rate: f64,
    record: &mut Record,
) -> Result<(), String> {
    let types = ctx.queries.len();
    let stream: Vec<usize> = (0..BATCH_SWEEPS)
        .flat_map(|_| crate::gen::shuffled_sweep(rng, types))
        .collect();
    let graphs: Vec<QueryGraph> = stream
        .iter()
        .map(|&ty| ctx.queries[ty].graph.clone())
        .collect();
    let config = BatchConfig {
        k: ctx.pipeline.k(),
        threads: hardware_threads(),
        ..BatchConfig::default()
    };
    let (mut rates, mut tails) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed() < budget {
        crate::interrupted()?;
        let start = Instant::now();
        let outcome = ctx.pipeline.engine().answer_batch(&graphs, &config);
        let wall = start.elapsed().as_secs_f64();
        rates.push(graphs.len() as f64 / wall);
        let total = outcome.stats.total;
        tails.push(total.p95.as_secs_f64() / total.p50.as_secs_f64().max(1e-9));
        let mut failed = 0;
        let mut truncated = 0;
        let mut first_error = None;
        for (slot, result) in stream.iter().zip(&outcome.results) {
            match result {
                Ok(r) if fingerprint(r) == gate.sequential[*slot] => {
                    truncated += u64::from(r.truncated);
                }
                Ok(_) => {
                    failed += 1;
                    first_error.get_or_insert_with(|| {
                        format!(
                            "{}: answer_batch differs from the sequential loop",
                            ctx.queries[*slot].spec.name
                        )
                    });
                }
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert_with(|| format!("answer_batch: {e}"));
                }
            }
        }
        record.count(
            graphs.len() as u64,
            failed,
            truncated,
            first_error.as_deref(),
        );
    }
    let batch = Summary::high(&rates);
    record.set("batch_queries_per_s", batch);
    record.set_exact("core.batch.speedup_x", batch.value / sequential_rate);
    record.set("core.batch.p95_over_p50", Summary::middle(&tails));
    Ok(())
}

/// Sweeps with the metrics registry on and off, alternating which
/// comes first: the ROADMAP's 2% observability budget, measured on the
/// workload where the engine is busiest.
fn obs_phase(
    ctx: &Context,
    gate: &mut Gate,
    rng: &mut Rng,
    budget: Duration,
    record: &mut Record,
) -> Result<(), String> {
    let mut overheads = Vec::new();
    let started = Instant::now();
    let mut outcome = Ok(());
    while overheads.len() < 3 || started.elapsed() < budget {
        let mut seconds = [0.0; 2];
        let first_on = overheads.len() % 2 == 0;
        for on in [first_on, !first_on] {
            sama_obs::set_enabled(on);
            match untraced_sweeps(ctx, gate, rng, Duration::ZERO, 1) {
                Ok(log) => {
                    seconds[usize::from(on)] = log.sweep_seconds()[0];
                    record.count(log.attempted, log.failed, log.truncated, None);
                }
                Err(e) => outcome = Err(e),
            }
        }
        if outcome.is_err() {
            break;
        }
        overheads.push(100.0 * (seconds[1] - seconds[0]) / seconds[0]);
    }
    sama_obs::set_enabled(true);
    outcome?;
    record.set("obs.metrics_overhead_pct", Summary::middle(&overheads));
    Ok(())
}
