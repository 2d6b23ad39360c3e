//! `ledger run --all --smoke` end to end: all four workloads on a tiny
//! fixture, including the child `sama` processes when the binary has
//! been built (the two workloads that need it are skipped, with a clear
//! message, when it has not).

use std::process::Command;

#[test]
fn smoke_run_exercises_every_workload() {
    let out = std::env::temp_dir().join(format!("ledger-smoke-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--all", "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("ledger binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{stderr}"
    );
    for workload in ["lubm_mix", "deep_topk"] {
        assert!(stdout.contains(&format!("== {workload} ")), "{stdout}");
        assert!(out.join(format!("BENCH_{workload}.json")).is_file());
        assert!(out.join(format!("trace_{workload}.jsonl")).is_file());
    }
    for workload in ["serve_zipf", "cold_disk"] {
        let ran = stdout.contains(&format!("== {workload} "));
        let skipped = stdout.contains(&format!("SKIPPED {workload}: no sama binary"));
        assert!(
            ran ^ skipped,
            "{workload} neither ran nor was skipped:\n{stdout}"
        );
        if skipped {
            eprintln!(
                "SKIPPED {workload}: target/release/sama is absent; run `cargo build --release`"
            );
        }
    }
    assert!(!stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("failed 0"), "{stdout}");
    // Nothing is left behind but the ledger files.
    let work = out.join("work");
    let leftovers = std::fs::read_dir(&work).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "scratch directories were not removed");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn driver_contract_line_is_the_last_line() {
    let out = std::env::temp_dir().join(format!("ledger-contract-{}", std::process::id()));
    for (trace, probe) in [("0", "\"ops_per_s\""), ("1", "\"core.cluster.build_ms\"")] {
        let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args([
                "run",
                "--workload",
                "lubm_mix",
                "--smoke",
                "--seed",
                "7",
                "--trace",
                trace,
                "--out",
            ])
            .arg(&out)
            .output()
            .expect("ledger binary runs");
        assert!(output.status.success());
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().expect("some output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains(probe) && last.ends_with("}}"), "{last}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn bad_invocations_exit_non_zero() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["compare", "only-one"],
        &[],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(args)
            .output()
            .expect("ledger binary runs")
            .status;
        assert!(!status.success(), "{args:?}");
    }
}
