//! The four workloads and what they share: run options, the repeated
//! timed set-up, and the reduction of a traced run to per-layer rows.

pub mod cold_disk;
pub mod inproc;
pub mod serve_zipf;

use crate::expected::Expected;
use crate::fixture::StepTimes;
use crate::report::{LayerRow, Mode, Record};
use crate::stats::Summary;
use crate::trace::{self_times, Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in the order `run --all` takes them.
pub const NAMES: [&str; 4] = ["lubm_mix", "deep_topk", "serve_zipf", "cold_disk"];
/// The seed the checked-in ledger and the blessed fingerprints use.
pub const DEFAULT_SEED: u64 = 42;
/// Target triples of the fixture (≈91.5k actual, ≈211k paths, ≈25 MB
/// of `SAMAIDX2`): large enough that `I` reaches 10k–530k per query.
pub const DEFAULT_SCALE: usize = 100_000;
/// The `--smoke` fixture.
pub const SMOKE_SCALE: usize = 2_000;

/// Set-up is repeated this often in an end-to-end run and `setup_s` is
/// the median, so one slow file write does not decide it …
const SETUP_REPEATS: usize = 3;
/// … unless set-up is so slow (the LSH build of `deep_topk`) that
/// repeating it would eat the run: no new repeat starts after this.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_secs(8);

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed of every generated input.
    pub seed: u64,
    /// Target triples of the fixture.
    pub scale: usize,
    /// Seconds of measurement (per mode).
    pub seconds: f64,
    /// Which phases run.
    pub mode: Mode,
    /// Output directory (ledger files, traces, scratch).
    pub out: PathBuf,
    /// The `sama` binary, for the workloads that drive it.
    pub sama: Option<PathBuf>,
}

impl RunOpts {
    /// A share of the measurement time.
    pub fn share(&self, part: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * part)
    }

    /// The `sama` binary or a clear error.
    pub fn sama(&self) -> Result<&PathBuf, String> {
        self.sama
            .as_ref()
            .ok_or_else(|| "this workload needs the sama binary".to_string())
    }
}

/// What a workload hands back.
pub struct Outcome {
    /// The metrics.
    pub record: Record,
    /// The traced run's spans, when one ran.
    pub tracer: Option<Tracer>,
    /// Score fingerprints of this run's queries (what `bless` writes).
    pub fingerprints: Expected,
}

/// Run one workload by name.
pub fn run(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "lubm_mix" => inproc::run(&inproc::LUBM_MIX, opts),
        "deep_topk" => inproc::run(&inproc::DEEP_TOPK, opts),
        "serve_zipf" => serve_zipf::run(opts),
        "cold_disk" => cold_disk::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// Run `setup` — everything before the first timed operation — and
/// time it; in an end-to-end run repeat it (dropping the previous
/// context first, so peak memory is one context's) and report the
/// median. Returns the last context.
pub fn timed_setup<T>(
    opts: &RunOpts,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Summary), String> {
    let repeats = if opts.mode.end_to_end() {
        SETUP_REPEATS
    } else {
        1
    };
    let started = Instant::now();
    let mut times = Vec::new();
    let mut context = None;
    while times.len() < repeats && (times.is_empty() || started.elapsed() < SETUP_REPEAT_BUDGET) {
        drop(context.take());
        let start = Instant::now();
        context = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        context.expect("set-up ran at least once"),
        Summary::middle(&times),
    ))
}

/// Record the fixture's layer steps (the same in every workload).
pub fn record_fixture_steps(record: &mut Record, steps: &StepTimes, bytes: usize, triples: usize) {
    record.set_exact("rdf_model.parse_ntriples_ms", steps.parse_ntriples_s * 1e3);
    record.set_exact("path_index.build_ms", steps.build_s * 1e3);
    record.set_exact("path_index.encode_v2_ms", steps.encode_s * 1e3);
    record.set_exact("path_index.open_mmap_ms", steps.open_s * 1e3);
    record.set_exact("index_bytes_per_triple", bytes as f64 / triples as f64);
}

/// Span-index windows of a traced run: `(first span, one past the
/// last span, operations)` per window.
#[derive(Default)]
pub struct TraceWindows {
    bounds: Vec<(usize, usize, usize)>,
    open_at: usize,
}

impl TraceWindows {
    /// Close a window holding `ops` operations at the tracer's current
    /// position.
    pub fn close(&mut self, tracer: &Tracer, ops: usize) {
        let end = tracer.spans().len();
        self.bounds.push((self.open_at, end, ops));
        self.open_at = end;
    }

    /// Windows closed so far.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Per-window values divided by each window's operation count.
    pub fn per_op(&self, per_window: &[f64]) -> Vec<f64> {
        per_window
            .iter()
            .zip(&self.bounds)
            .map(|(v, &(_, _, ops))| v / ops.max(1) as f64)
            .collect()
    }

    /// Mean duration per operation of spans named `name`, per window,
    /// in seconds (value: the fastest window).
    pub fn per_op_seconds(&self, spans: &[Span], name: &str) -> Summary {
        Summary::fast(&self.per_op(&self.window_seconds(spans, name)))
    }

    /// Total duration of `name` spans per window, seconds.
    pub fn window_seconds(&self, spans: &[Span], name: &str) -> Vec<f64> {
        self.bounds
            .iter()
            .map(|&(start, end, _)| {
                spans[start..end]
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                    .sum()
            })
            .collect()
    }
}

/// Reduce a traced run to the per-layer table: self and total time per
/// operation and each layer's share of the root spans. Returns the
/// table and the share of root time the non-root layers account for.
pub fn layer_table(
    spans: &[Span],
    root: &str,
    ops: u64,
) -> (BTreeMap<&'static str, LayerRow>, f64) {
    let times = self_times(spans);
    let root_total = times.get(root).map_or(0, |r| r.total_ns).max(1) as f64;
    let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
    let mut covered = 0.0;
    let table = times
        .iter()
        .map(|(&name, t)| {
            if name != root {
                covered += t.self_ns as f64;
            }
            let row = LayerRow {
                self_us_per_op: per_op(t.self_ns),
                total_us_per_op: per_op(t.total_ns),
                calls_per_op: t.calls as f64 / ops.max(1) as f64,
                share_pct: 100.0 * t.self_ns as f64 / root_total,
            };
            (name, row)
        })
        .collect();
    (table, 100.0 * covered / root_total)
}

/// What a traced in-process run produced: the spans, their windows,
/// and the work counted along the way.
pub struct TracedRun {
    /// The recorder.
    pub tracer: Tracer,
    /// One window per sweep (or per chunk of requests).
    pub windows: TraceWindows,
    /// Work summed over every traced operation.
    pub work: crate::pipeline::Work,
    /// Traced operations.
    pub ops: u64,
}

impl TracedRun {
    /// An empty run with recording on.
    pub fn start() -> TracedRun {
        TracedRun {
            tracer: Tracer::new(),
            windows: TraceWindows::default(),
            work: Default::default(),
            ops: 0,
        }
    }

    /// Run `f` as one traced operation under a fresh `request` root.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.ops += 1;
        self.tracer.next_request();
        self.tracer.span("request", f)
    }

    /// Close a window over the operations traced since the last one.
    pub fn close_window(&mut self, ops: usize) {
        self.windows.close(&self.tracer, ops);
    }

    /// Fill the engine-layer metrics (`rdf_model.parse_sparql_us`,
    /// `core.*`, `path_index.sink_lookup_ms`), the per-layer table and
    /// the coverage of the `request` root. Every workload answers its
    /// queries through the same traced pipeline, so every workload
    /// reports these.
    pub fn record_layers(&self, record: &mut Record) {
        let spans = self.tracer.spans();
        let w = &self.windows;
        let scaled = |name: &str, factor: f64| w.per_op_seconds(spans, name).scaled(factor);
        record.set(
            "rdf_model.parse_sparql_us",
            scaled("rdf_model.parse_sparql", 1e6),
        );
        record.set(
            "core.qpath.decompose_us",
            scaled("core.qpath.decompose", 1e6),
        );
        record.set(
            "path_index.sink_lookup_ms",
            scaled("path_index.sink_lookup", 1e3),
        );
        record.set("core.cluster.build_ms", scaled("core.cluster.build", 1e3));
        record.set("core.search.topk_ms", scaled("core.search.topk", 1e3));
        record.set("core.jsonout.render_us", scaled("core.jsonout.render", 1e6));
        // Alignment is what clustering does besides reading the index:
        // build − lookup, window by window.
        let build = w.window_seconds(spans, "core.cluster.build");
        let lookup = w.window_seconds(spans, "path_index.sink_lookup");
        let align: Vec<f64> = build
            .iter()
            .zip(&lookup)
            .map(|(b, l)| (b - l).max(0.0))
            .collect();
        record.set(
            "core.cluster.align_ms",
            Summary::fast(&w.per_op(&align)).scaled(1e3),
        );
        let align_total_ns = align.iter().sum::<f64>() * 1e9;

        let work = &self.work;
        let ops = self.ops.max(1) as f64;
        let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        record.set_exact(
            "core.cluster.candidates_per_query",
            work.candidates as f64 / ops,
        );
        // Per retrieved path (the paper's `I`): under the LSH tier most
        // of them are ranked and dropped, not aligned, and that is
        // clustering work all the same.
        record.set_exact(
            "core.cluster.ns_per_candidate",
            align_total_ns / work.candidates.max(1) as f64,
        );
        record.set_exact("core.cluster.kept_ratio", ratio(work.kept, work.aligned));
        record.set_exact(
            "core.search.expansions_per_answer",
            ratio(work.expansions, work.answers),
        );
        record.set_exact("core.search.chi_lookups", work.chi_lookups as f64 / ops);
        record.set_exact(
            "core.search.chi_hit_rate",
            ratio(work.chi_hits, work.chi_lookups),
        );
        record.set_exact(
            "core.jsonout.bytes_per_answer",
            ratio(work.json_bytes, work.answers),
        );
        let (table, coverage) = layer_table(spans, "request", self.ops);
        record.layers = table;
        record.set_exact("bench.layer_coverage_pct", coverage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(mode: Mode) -> RunOpts {
        RunOpts {
            seed: 1,
            scale: SMOKE_SCALE,
            seconds: 1.0,
            mode,
            out: PathBuf::from("unused"),
            sama: None,
        }
    }

    #[test]
    fn setup_is_repeated_for_end_to_end_runs_only() {
        let mut calls = 0;
        let (ctx, s) = timed_setup(&opts(Mode::EndToEnd), || {
            calls += 1;
            Ok(calls)
        })
        .unwrap();
        assert_eq!((ctx, s.n), (SETUP_REPEATS, SETUP_REPEATS));
        let mut calls = 0;
        let (_, s) = timed_setup(&opts(Mode::Layers), || {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((calls, s.n), (1, 1));
        let failing: Result<((), Summary), String> =
            timed_setup(&opts(Mode::Full), || Err("no".into()));
        assert!(failing.is_err());
        assert!(opts(Mode::Full).sama().is_err());
    }

    #[test]
    fn traced_windows_reduce_to_per_op_means_and_shares() {
        let mut tracer = Tracer::new();
        let mut windows = TraceWindows::default();
        for _ in 0..3 {
            for _ in 0..2 {
                tracer.next_request();
                tracer.span("request", |t| {
                    t.span("a", |_| std::hint::black_box(1));
                    t.span("b", |_| std::hint::black_box(2));
                });
            }
            windows.close(&tracer, 2);
        }
        assert_eq!(windows.len(), 3);
        let spans = tracer.spans();
        let a = windows.per_op_seconds(spans, "a");
        assert_eq!(a.n, 3);
        assert!(a.value >= 0.0);
        assert_eq!(windows.window_seconds(spans, "request").len(), 3);
        let (table, coverage) = layer_table(spans, "request", 6);
        assert_eq!(table["a"].calls_per_op, 1.0);
        assert_eq!(table["request"].calls_per_op, 1.0);
        let shares: f64 = table.values().map(|r| r.share_pct).sum();
        assert!(
            (shares - 100.0).abs() < 1e-6,
            "self times partition the root"
        );
        assert!((0.0..=100.0).contains(&coverage));
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run("nope", &opts(Mode::Full)).is_err());
    }
}
