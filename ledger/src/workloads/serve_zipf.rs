//! `serve_zipf`: a real `sama serve --mmap` child under skewed,
//! near-duplicate-laden point queries over keep-alive loopback HTTP.
//!
//! Engine work is a few microseconds of each round trip here, so HTTP
//! framing, socket I/O, SPARQL parsing, JSON rendering and thread
//! handling decide the numbers — the layers `lubm_mix` cannot see.
//!
//! * End to end — closed loop: each connection sends its next request
//!   when the previous answer is complete. Throughput at saturation
//!   and the round-trip latency distribution.
//! * Per-layer phases — **open loop** at each rate of a ladder
//!   (requests are due on a schedule whatever the server does, and
//!   latency counts from the due time, so a stall charges every request
//!   it delays), fresh connections, and a traced closed loop that
//!   answers each request in-process as well.
//!
//! **Placement is pinned** (see [`pin`]): on the virtualised reference
//! box a wake-up that crosses vCPUs is a VM exit costing more than the
//! whole request, and the guest scheduler puts client and server on the
//! same vCPU in some runs (≈29k req/s) and on different ones in others
//! (≈11k req/s). Closed-loop clients therefore share the server's CPUs
//! — a ping-pong never runs both sides at once, so nothing is lost and
//! the software path is what is measured — and open-loop generators,
//! which spin until each request is due, take the other CPUs.

use super::{record_fixture_steps, timed_setup, Outcome, RunOpts, TracedRun};
use crate::expected::Expected;
use crate::fixture::{fixture_mapped, StepTimes, WorkDir};
use crate::gen::{due_ns, request_stream, OpenLoopSample, QuerySpec};
use crate::http::{get_request, prometheus_value, query_request, Conn};
use crate::interrupted;
use crate::pipeline::{check_result, prepare, Pipeline, Prepared};
use crate::proc::Server;
use crate::report::{hardware_threads, Record};
use crate::stats::{percentile, sorted, supported_percentile, Summary};
use datasets::Rng;
use path_index::MappedIndex;
use sama_core::Retrieval;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Answers per query (the server's default `k`).
const K: usize = 10;
/// The rate ladder of the per-layer run.
const RATE_LADDER: [f64; 4] = [2_000.0, 8_000.0, 16_000.0, 32_000.0];
/// The ladder rate whose percentiles and generator lag are reported
/// (`serve_ms_p99`).
const P99_RATE: f64 = 8_000.0;
/// Windows of the closed-loop phase. More and shorter than the sweep
/// workloads' seven: the value is the best window, and a window of a
/// fraction of a second fits inside a quiet spell of the host.
const SERVE_WINDOWS: usize = 40;
/// The latency limit a rate must meet at p99 to count as sustained.
const LATENCY_LIMIT_MS: f64 = 1.0;
/// Distinct requests whose score multiset is blessed and checked: the
/// first drawn, i.e. the hot head of the Zipf stream. (All of them are
/// held to the in-process bytes; this only bounds `serve_zipf.fp`.)
const FINGERPRINTED: usize = 512;
/// Most fresh connections opened.
const FRESH_CONNECTIONS: usize = 2_000;
/// Requests per window of the traced closed loop.
const TRACED_CHUNK: usize = 256;
/// Most windows the traced loop records: the spans are kept in memory
/// and written out, and ten thousand requests say all there is to say.
const TRACED_WINDOWS: usize = 40;

/// Connections (= generator threads): generator threads plus busy
/// server threads must fit the machine.
fn connections() -> usize {
    (hardware_threads() / 2).clamp(1, 4)
}

/// The CPUs the server (and closed-loop clients) run on.
fn server_cpus() -> Range<usize> {
    0..connections()
}

/// The CPUs open-loop generators spin on: as many again, next to the
/// server's.
fn generator_cpus() -> Range<usize> {
    connections()..2 * connections()
}

/// Restrict thread `tid` (0 = the caller) to `cpus`. Best effort: a
/// refusal (a container without the capability, a CPU that is not
/// there) leaves the scheduler's placement, and the numbers noisier.
#[cfg(target_os = "linux")]
fn pin(tid: u32, cpus: Range<usize>) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for cpu in cpus.filter(|&c| c < 64 * 16) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the `size` bytes
    // passed, which is all sched_setaffinity(2) requires; it copies the
    // mask and keeps no pointer.
    unsafe { sched_setaffinity(tid as i32, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// No affinity control elsewhere.
#[cfg(not(target_os = "linux"))]
fn pin(_tid: u32, _cpus: Range<usize>) {}

struct Context {
    server: Server,
    conns: Vec<Conn>,
    stream_order: Vec<u32>,
    distinct: Vec<QuerySpec>,
    steps: StepTimes,
    index_bytes: usize,
    triples: usize,
    dir: WorkDir,
}

fn ready(addr: SocketAddr) -> Result<(), String> {
    let request = get_request(addr, "/readyz");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        interrupted()?;
        if let Ok((200, _)) = Conn::open(addr).and_then(|mut c| {
            c.round_trip(&request)
                .map(|(status, body)| (status, body.to_vec()))
        }) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("sama serve did not become ready within 10 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn setup(opts: &RunOpts) -> Result<Context, String> {
    let dir = WorkDir::create(&opts.out)?;
    let fx = fixture_mapped(opts.scale, opts.seed, &dir)?;
    let stream = request_stream(&fx.dataset, &mut Rng::new(opts.seed ^ 0x21FF));
    let server = Server::spawn(opts.sama()?, &fx.index_path)?;
    ready(server.addr)?;
    let conns = (0..connections())
        .map(|_| Conn::open(server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Context {
        server,
        conns,
        stream_order: stream.order,
        distinct: stream.distinct,
        steps: fx.steps,
        index_bytes: fx.index_bytes.len(),
        triples: fx.triples,
        dir,
    })
}

/// What the server must answer for each distinct request, computed
/// in-process over the same index file.
struct Oracle {
    pipeline: Pipeline,
    queries: Vec<Prepared>,
    /// HTTP request bytes per distinct request.
    requests: Vec<Vec<u8>>,
    /// Expected response body per distinct request.
    bodies: Vec<Vec<u8>>,
    /// Whether that answer is flagged truncated.
    truncated: Vec<bool>,
    /// A rule the in-process answers themselves broke, if any.
    error: Option<String>,
    fingerprints: Expected,
}

fn oracle(ctx: &Context, opts: &RunOpts, expected: Option<&Expected>) -> Result<Oracle, String> {
    let index = MappedIndex::open(&ctx.dir.file("index.bin"))
        .map_err(|e| format!("cannot map the fixture again: {e}"))?;
    let pipeline = Pipeline::new(index, K, Retrieval::Exact);
    let queries = prepare(ctx.distinct.clone())?;
    let mut o = Oracle {
        requests: queries
            .iter()
            .map(|q| query_request(ctx.server.addr, &q.spec.sparql, false))
            .collect(),
        bodies: Vec::with_capacity(queries.len()),
        truncated: Vec::with_capacity(queries.len()),
        error: None,
        fingerprints: Expected::empty(opts.seed, opts.scale),
        pipeline,
        queries,
    };
    for (i, q) in o.queries.iter().enumerate() {
        interrupted()?;
        let (result, json) = o.pipeline.answer(&q.graph)?;
        let expected = expected.filter(|_| i < FINGERPRINTED);
        if i < FINGERPRINTED {
            o.fingerprints.record(&q.spec.name, &result);
        }
        if let Err(e) = check_result(&q.spec, K, true, &result, expected) {
            o.error.get_or_insert(e);
        }
        o.truncated.push(result.truncated);
        o.bodies.push(json.into_bytes());
    }
    Ok(o)
}

/// Tally of one phase's responses.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    truncated: u64,
    first_error: Option<String>,
}

/// Whether `response` is what the server must answer for request `id`.
fn verdict(
    oracle: &Oracle,
    id: usize,
    response: Result<(u16, &[u8]), String>,
) -> Result<(), String> {
    match response {
        Ok((200, body)) if body == oracle.bodies[id] => Ok(()),
        Ok((200, _)) => Err("body differs from in-process render_result_json".to_string()),
        Ok((status, _)) => Err(format!("HTTP {status}")),
        Err(e) => Err(e),
    }
}

impl Tally {
    fn judge(&mut self, oracle: &Oracle, id: usize, response: Result<(u16, &[u8]), String>) {
        self.add(oracle, id, verdict(oracle, id, response));
    }

    fn add(&mut self, oracle: &Oracle, id: usize, verdict: Result<(), String>) {
        self.attempted += 1;
        match verdict {
            Ok(()) => self.truncated += u64::from(oracle.truncated[id]),
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("{}: {e}", oracle.queries[id].spec.name));
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.truncated += other.truncated;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn into_record(self, record: &mut Record) {
        record.count(
            self.attempted,
            self.failed,
            self.truncated,
            self.first_error.as_deref(),
        );
    }
}

/// Run `work(connection index, connection)` on one thread per
/// connection, pinned to `cpus`, and collect the results in connection
/// order.
fn on_each_conn<T: Send>(
    conns: &mut [Conn],
    cpus: Range<usize>,
    work: impl Fn(usize, &mut Conn) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let work = &work;
                let cpus = cpus.clone();
                scope.spawn(move || {
                    pin(0, cpus);
                    work(c, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a load thread panicked".to_string())?)
            .collect()
    })
}

/// What the closed loop saw, window by window.
struct ClosedLoop {
    /// Requests per second.
    rates: Vec<f64>,
    /// Round-trip p50, milliseconds.
    p50_ms: Vec<f64>,
    /// Round-trip p95, milliseconds.
    p95_ms: Vec<f64>,
}

/// Closed loop for `duration`, in [`SERVE_WINDOWS`] equal windows; a
/// request belongs to the window it started in.
fn closed_loop(
    ctx: &mut Context,
    oracle: &Oracle,
    duration: Duration,
    tally: &mut Tally,
) -> Result<ClosedLoop, String> {
    let window = duration / SERVE_WINDOWS as u32;
    let order = &ctx.stream_order;
    let conns = ctx.conns.len();
    let start = Instant::now();
    let per_conn = on_each_conn(&mut ctx.conns, server_cpus(), |c, conn| {
        let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); SERVE_WINDOWS];
        let mut tally = Tally::default();
        let mut i = c;
        let mut sent = start.elapsed();
        loop {
            let w = (sent.as_nanos() / window.as_nanos().max(1)) as usize;
            if w >= SERVE_WINDOWS {
                return Ok((latencies, tally));
            }
            if i % 1024 == c {
                interrupted()?;
            }
            let id = order[i % order.len()] as usize;
            let response = conn.round_trip(&oracle.requests[id]);
            let done = start.elapsed();
            tally.judge(oracle, id, response);
            latencies[w].push((done - sent).as_secs_f64() * 1e3);
            sent = done;
            i += conns;
        }
    })?;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); SERVE_WINDOWS];
    for (latencies, t) in per_conn {
        for (all, mine) in windows.iter_mut().zip(latencies) {
            all.extend(mine);
        }
        tally.merge(t);
    }
    let windows: Vec<Vec<f64>> = windows.into_iter().map(sorted).collect();
    let at = |q| windows.iter().filter_map(|w| percentile(w, q)).collect();
    Ok(ClosedLoop {
        rates: windows
            .iter()
            .map(|w| w.len() as f64 / window.as_secs_f64())
            .collect(),
        p50_ms: at(0.5),
        p95_ms: at(0.95),
    })
}

/// One open-loop phase: requests due at `rate` per second for
/// `duration`, spread round-robin over the connections. Returns every
/// request's timestamps (all connections share one clock) and whether
/// the whole schedule was sent.
fn open_loop(
    ctx: &mut Context,
    oracle: &Oracle,
    rate: f64,
    duration: Duration,
    tally: &mut Tally,
) -> Result<(Vec<OpenLoopSample>, bool), String> {
    let scheduled = (rate * duration.as_secs_f64()) as u64;
    let order = &ctx.stream_order;
    let conns = ctx.conns.len() as u64;
    let epoch = Instant::now();
    // A server that cannot keep up turns the loop closed; stop sending
    // once the phase has overrun by half, the rest counts as unsent.
    let give_up = (duration.as_nanos() as u64) * 3 / 2;
    let per_conn = on_each_conn(&mut ctx.conns, generator_cpus(), |c, conn| {
        let mut samples = Vec::with_capacity((scheduled / conns) as usize + 1);
        let mut tally = Tally::default();
        let mut i = c as u64;
        while i < scheduled {
            let due = due_ns(i, rate);
            let mut now = epoch.elapsed().as_nanos() as u64;
            if now > give_up {
                break;
            }
            // Spin to the due time: at these rates the gaps are far
            // below what a sleep can hit.
            while now < due {
                std::hint::spin_loop();
                now = epoch.elapsed().as_nanos() as u64;
            }
            if i % 1024 == c as u64 {
                interrupted()?;
            }
            let id = order[i as usize % order.len()] as usize;
            let response = conn.round_trip(&oracle.requests[id]);
            let done = epoch.elapsed().as_nanos() as u64;
            tally.judge(oracle, id, response);
            samples.push(OpenLoopSample {
                due_ns: due,
                sent_ns: now,
                done_ns: done,
            });
            i += conns;
        }
        Ok((samples, tally))
    })?;
    let mut samples = Vec::with_capacity(scheduled as usize);
    for (s, t) in per_conn {
        samples.extend(s);
        tally.merge(t);
    }
    samples.sort_by_key(|s| s.due_ns);
    let complete = samples.len() as u64 == scheduled;
    Ok((samples, complete))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    // This thread is the closed-loop client of the fresh-connection
    // and traced phases, and the server it spawns inherits its mask.
    // (Never undone: every workload runs in a process of its own.)
    pin(0, server_cpus());
    let mut record = Record::new("serve_zipf", opts.seed, opts.scale, opts.seconds);
    let expected = Expected::load_for("serve_zipf", opts.seed, opts.scale)?;
    let (mut ctx, setup_s) = timed_setup(opts, || setup(opts))?;
    record.set("setup_s", setup_s);
    record_fixture_steps(&mut record, &ctx.steps, ctx.index_bytes, ctx.triples);
    let oracle = oracle(&ctx, opts, expected.as_ref())?;
    if let Some(e) = &oracle.error {
        record.count(1, 1, 0, Some(e));
    }
    record.windows = SERVE_WINDOWS;
    let mut tally = Tally::default();

    if opts.mode.end_to_end() {
        let seen = closed_loop(&mut ctx, &oracle, opts.share(1.0), &mut tally)?;
        record.set("ops_per_s", Summary::high(&seen.rates));
        record.set("op_ms_p50", Summary::fast(&seen.p50_ms));
        record.set("op_ms_p95", Summary::fast(&seen.p95_ms));
    }

    let mut tracer = None;
    if opts.mode.layers() {
        rate_ladder(&mut ctx, &oracle, opts, &mut record, &mut tally)?;
        fresh_connections(&ctx, &oracle, opts.share(0.15), &mut record, &mut tally)?;
        let traced = traced_loop(&mut ctx, &oracle, opts.share(0.35), &mut record, &mut tally)?;
        traced.record_layers(&mut record);
        tracer = Some(traced.tracer);
        let scrape = get_request(ctx.server.addr, "/metrics");
        let (status, body) = ctx.conns[0].round_trip(&scrape)?;
        let text = String::from_utf8_lossy(body);
        if status != 200 {
            return Err(format!("GET /metrics answered HTTP {status}"));
        }
        for (metric, series) in [
            ("serve.requests_total", "sama_serve_requests_total"),
            ("serve.shed_total", "sama_serve_shed_total"),
        ] {
            let value = prometheus_value(&text, series)
                .ok_or_else(|| format!("/metrics has no {series}"))?;
            record.set_exact(metric, value);
        }
    }
    record.set_exact("rss_mb", ctx.server.peak_rss_mb());
    tally.into_record(&mut record);
    record.close_counts();
    Ok(Outcome {
        record,
        tracer,
        fingerprints: oracle.fingerprints,
    })
}

/// Open loop at each rate of the ladder: p99 at the phase-B rate, the
/// generator's lateness, and the highest rate that meets the latency
/// limit with no failures and the whole schedule sent on time.
fn rate_ladder(
    ctx: &mut Context,
    oracle: &Oracle,
    opts: &RunOpts,
    record: &mut Record,
    tally: &mut Tally,
) -> Result<(), String> {
    let per_rate = opts.share(0.5 / RATE_LADDER.len() as f64);
    let mut max_ok = 0.0;
    for rate in RATE_LADDER {
        let mut phase = Tally::default();
        let (samples, complete) = open_loop(ctx, oracle, rate, per_rate, &mut phase)?;
        let latencies = sorted(samples.iter().map(|s| ms(s.latency_ns())).collect());
        let lags = sorted(samples.iter().map(|s| ms(s.lag_ns())).collect());
        // Without enough samples beyond it, p99 is not a percentile:
        // fall back to the maximum, which can only be stricter.
        let p99 = supported_percentile(&latencies, 0.99).or(latencies.last().copied());
        let lag_p99 = supported_percentile(&lags, 0.99).or(lags.last().copied());
        // A backlog that grows shows as lateness that stays at the end
        // of the schedule (the median: one hiccup is not a backlog).
        let tail = &samples[samples.len() - samples.len() / 4..];
        let late_tail =
            percentile(&sorted(tail.iter().map(|s| ms(s.lag_ns())).collect()), 0.5).unwrap_or(0.0);
        let ok = complete
            && phase.failed == 0
            && p99.is_some_and(|p| p <= LATENCY_LIMIT_MS)
            && late_tail <= LATENCY_LIMIT_MS;
        if ok {
            max_ok = rate;
        }
        if rate == P99_RATE {
            record.set_exact("serve_ms_p99", p99.unwrap_or(0.0));
            record.set_exact("serve.generator_lag_ms_p99", lag_p99.unwrap_or(0.0));
        }
        record.notes.push(format!(
            "open loop {rate}/s: p50 {:.4} ms, p99 {:.4} ms, lag p99 {:.4} ms, sent {} of {}, {}",
            percentile(&latencies, 0.5).unwrap_or(0.0),
            p99.unwrap_or(0.0),
            lag_p99.unwrap_or(0.0),
            samples.len(),
            (rate * per_rate.as_secs_f64()) as u64,
            if ok { "sustained" } else { "not sustained" }
        ));
        tally.merge(phase);
    }
    record.set_exact("serve_max_rate_ok", max_ok);
    Ok(())
}

/// Sequential requests each on a connection of its own
/// (`Connection: close`): connect + thread spawn + answer + teardown.
fn fresh_connections(
    ctx: &Context,
    oracle: &Oracle,
    budget: Duration,
    record: &mut Record,
    tally: &mut Tally,
) -> Result<(), String> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    for i in 0..FRESH_CONNECTIONS {
        if latencies.len() >= 20 && started.elapsed() >= budget {
            break;
        }
        interrupted()?;
        let id = ctx.stream_order[i % ctx.stream_order.len()] as usize;
        let request = query_request(ctx.server.addr, &oracle.queries[id].spec.sparql, true);
        let start = Instant::now();
        let mut conn = Conn::open(ctx.server.addr);
        let response = match &mut conn {
            Ok(conn) => conn.round_trip(&request),
            Err(e) => Err(e.clone()),
        };
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        tally.judge(oracle, id, response);
    }
    record.set("serve.fresh_conn_ms_p50", Summary::middle(&latencies));
    Ok(())
}

/// Closed loop on one connection with a span around each round trip,
/// followed by the same request answered in-process layer by layer.
/// The difference of the two medians is what HTTP, sockets and threads
/// cost on top of the engine.
fn traced_loop(
    ctx: &mut Context,
    oracle: &Oracle,
    budget: Duration,
    record: &mut Record,
    tally: &mut Tally,
) -> Result<TracedRun, String> {
    let mut run = TracedRun::start();
    let mut error: Option<String> = None;
    let started = Instant::now();
    let conn = &mut ctx.conns[0];
    let mut i = 0;
    while run.windows.len() < 3
        || (started.elapsed() < budget && run.windows.len() < TRACED_WINDOWS)
    {
        interrupted()?;
        for _ in 0..TRACED_CHUNK {
            let id = ctx.stream_order[i % ctx.stream_order.len()] as usize;
            i += 1;
            let q = &oracle.queries[id];
            let work = run.request(|t| {
                let checked = t.span("serve.roundtrip", |_| {
                    verdict(oracle, id, conn.round_trip(&oracle.requests[id]))
                });
                tally.add(oracle, id, checked);
                oracle
                    .pipeline
                    .answer_traced(t, Some(&q.spec.sparql), &q.graph)
            });
            match work {
                Ok((_, json, work)) => {
                    if json.as_bytes() != oracle.bodies[id] {
                        error.get_or_insert_with(|| {
                            format!("{}: traced pipeline differs from the engine", q.spec.name)
                        });
                    }
                    run.work += work;
                }
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
        run.close_window(TRACED_CHUNK);
    }
    if let Some(e) = &error {
        record.count(1, 1, 0, Some(e));
    }
    // Median round trip minus median in-process answer, per request.
    let spans = run.tracer.spans();
    let mut round_trips = Vec::new();
    let mut in_process = Vec::new();
    let mut engine_ns = 0u64;
    for s in spans {
        let d = s.end_ns - s.start_ns;
        match s.name {
            "request" => {}
            "serve.roundtrip" => {
                if !round_trips.is_empty() {
                    in_process.push(engine_ns as f64 / 1e3);
                }
                engine_ns = 0;
                round_trips.push(d as f64 / 1e3);
            }
            // The probe duplicates a lookup clustering does itself.
            "path_index.sink_lookup" => {}
            _ => engine_ns += d,
        }
    }
    in_process.push(engine_ns as f64 / 1e3);
    let round_trip = Summary::middle(&round_trips);
    let engine = Summary::middle(&in_process);
    record.set_exact("serve.overhead_us_p50", round_trip.value - engine.value);
    record.notes.push(format!(
        "traced closed loop: round trip p50 {:.2} us, the same requests in-process p50 {:.2} us",
        round_trip.value, engine.value
    ));
    Ok(run)
}
