//! `ledger` — the one performance ledger of this repository.
//!
//! ```text
//! ledger run --workload <name> [--seed N] [--seconds S] [--scale N] [--trace 0|1] [--out DIR]
//! ledger run --all             (same options; every workload in turn)
//! ledger run --all --smoke     (tiny fixture, a second or two per workload)
//! ledger bless                 (rewrite expected/*.fp at the default seed and scale)
//! ledger compare <old.json> <new.json>
//! ```
//!
//! `run` builds the LUBM fixture, runs the workload's end-to-end phases
//! untraced and its per-layer phases traced, checks every output,
//! prints every metric by name with its unit, and writes a stamped
//! `BENCH_<workload>.json` plus `trace_<workload>.jsonl`. With
//! `--trace 0|1` it runs only the end-to-end (0) or only the per-layer
//! (1) phases and ends with the one-line JSON result the benchmark
//! driver reads (see BENCHMARK.json). README.md is the metric reference.

mod compare;
mod expected;
mod fixture;
mod gen;
mod http;
mod pipeline;
mod proc;
mod report;
mod stats;
mod sweep;
mod trace;
mod workloads;

use report::{Mode, Stamp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{RunOpts, DEFAULT_SCALE, DEFAULT_SEED, NAMES, SMOKE_SCALE};

/// `Err` once SIGINT/SIGTERM arrived: every loop of the ledger polls
/// this, so an interrupt unwinds through the ordinary error path and
/// the `Drop`s that remove scratch files and reap children run.
pub fn interrupted() -> Result<(), String> {
    if sama_serve::signal::requested() {
        Err("interrupted".to_string())
    } else {
        Ok(())
    }
}

const USAGE: &str = "\
usage: ledger run (--workload <name> | --all) [--seed N] [--seconds S] [--scale N]
                  [--trace 0|1] [--smoke] [--out DIR]
       ledger bless [--out DIR]
       ledger compare <old.json> <new.json>
workloads: lubm_mix, deep_topk, serve_zipf, cold_disk";

fn main() -> ExitCode {
    // The runtime switches of the engine (SAMA_PARALLEL, SAMA_MMAP,
    // SAMA_DEADLINE_MS, …) would silently change what is measured, in
    // this process and in every child it spawns.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SAMA_") {
            std::env::remove_var(key);
        }
    }
    sama_serve::signal::install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bless") => cmd_bless(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workloads: Vec<&'static str>,
    opts: RunOpts,
    /// `--trace` was given: end with the driver's result line.
    contract: bool,
    smoke: bool,
}

fn known(name: &str) -> Result<&'static str, String> {
    NAMES
        .iter()
        .copied()
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name:?} (known: {})", NAMES.join(", ")))
}

fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workloads: Vec::new(),
        opts: RunOpts {
            seed: DEFAULT_SEED,
            scale: DEFAULT_SCALE,
            seconds: 30.0,
            mode: Mode::Full,
            out: default_out(),
            sama: None,
        },
        contract: false,
        smoke: false,
    };
    let mut iter = args.iter();
    let value = |iter: &mut std::slice::Iter<String>, flag: &str| {
        iter.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workload" => run.workloads = vec![known(&value(&mut iter, arg)?)?],
            "--all" => run.workloads = NAMES.to_vec(),
            "--seed" => run.opts.seed = value(&mut iter, arg)?.parse().map_err(|_| "bad --seed")?,
            "--scale" => {
                run.opts.scale = value(&mut iter, arg)?.parse().map_err(|_| "bad --scale")?;
            }
            "--seconds" => {
                run.opts.seconds = value(&mut iter, arg)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                run.contract = true;
                run.opts.mode = match value(&mut iter, arg)?.as_str() {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::Layers,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--smoke" => run.smoke = true,
            "--out" => run.opts.out = PathBuf::from(value(&mut iter, arg)?),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if run.workloads.is_empty() {
        return Err(format!("name a workload or --all\n{USAGE}"));
    }
    if run.contract && run.workloads.len() != 1 {
        return Err("--trace reports one workload: use --workload".into());
    }
    if run.smoke {
        run.opts.scale = SMOKE_SCALE;
        run.opts.seconds = 1.0;
    }
    Ok(run)
}

fn needs_sama(workload: &str) -> bool {
    matches!(workload, "serve_zipf" | "cold_disk")
}

/// `run --all`: every workload in a process of its own, so that peak
/// memory, CPU placement and allocator state are each workload's own —
/// exactly as when the benchmark driver runs them one by one.
fn run_each_in_its_own_process(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut all_ok = true;
    for workload in NAMES {
        interrupted()?;
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", workload])
            .args(&rest)
            .status()
            .map_err(|e| format!("cannot run {exe:?}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut run = parse_run(args)?;
    if run.workloads.len() > 1 {
        return run_each_in_its_own_process(args);
    }
    if run.workloads.iter().any(|w| needs_sama(w)) {
        // A smoke run (the test suite) takes the binary as it finds
        // it; a real run builds it from this checkout's sources.
        run.opts.sama = if run.smoke {
            proc::existing_sama()
        } else {
            Some(proc::build_sama()?)
        };
    }
    let stamp = Stamp::take();
    let mut all_correct = true;
    for workload in &run.workloads {
        if needs_sama(workload) && run.opts.sama.is_none() {
            println!(
                "SKIPPED {workload}: no sama binary (run `cargo build --release` in the \
                 repository root first)"
            );
            continue;
        }
        let outcome = workloads::run(workload, &run.opts)?;
        print!("{}", outcome.record.to_table());
        write_outputs(&run.opts, &stamp, &outcome)?;
        all_correct &= outcome.record.correct();
        if run.contract {
            println!(
                "{}",
                outcome.record.contract_line(run.opts.mode.end_to_end())
            );
            return Ok(ExitCode::SUCCESS);
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: some operations failed the correctness gate");
        ExitCode::FAILURE
    })
}

/// `BENCH_<workload>.json` for complete runs, `trace_<workload>.jsonl`
/// whenever a traced run happened.
fn write_outputs(
    opts: &RunOpts,
    stamp: &Stamp,
    outcome: &workloads::Outcome,
) -> Result<(), String> {
    use std::io::Write;
    let name = outcome.record.workload;
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("cannot create {:?}: {e}", opts.out))?;
    if let Some(tracer) = &outcome.tracer {
        let path = opts.out.join(format!("trace_{name}.jsonl"));
        let file =
            std::fs::File::create(&path).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        tracer
            .dump_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    if opts.mode == Mode::Full {
        let path = opts.out.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, outcome.record.to_json(stamp))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Re-derive `expected/<workload>.fp` from a short run of every
/// workload at the default seed and scale. Refuses to bless a run that
/// fails the other correctness rules.
fn cmd_bless(args: &[String]) -> Result<ExitCode, String> {
    let mut out = default_out();
    match args {
        [] => {}
        [flag, dir] if flag == "--out" => out = PathBuf::from(dir),
        _ => return Err(USAGE.to_string()),
    }
    let opts = RunOpts {
        seed: DEFAULT_SEED,
        scale: DEFAULT_SCALE,
        seconds: 1.0,
        mode: Mode::EndToEnd,
        out,
        sama: Some(proc::build_sama()?),
    };
    for workload in NAMES {
        let path = expected::path_of(workload);
        // The old file must not veto its own replacement.
        let _ = std::fs::remove_file(&path);
        let outcome = workloads::run(workload, &opts)?;
        if !outcome.record.correct() {
            print!("{}", outcome.record.to_table());
            return Err(format!(
                "{workload} fails its correctness gate; nothing blessed"
            ));
        }
        std::fs::create_dir_all(path.parent().expect("expected/ directory"))
            .and_then(|()| std::fs::write(&path, outcome.fingerprints.render()))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!(
            "blessed {} ({} queries)",
            path.display(),
            outcome.fingerprints.entries.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}
