//! End-to-end demonstration of the failure workflow the harness
//! promises: an observed violation shrinks to a minimal case, the case
//! serializes to a standalone JSON file, and `testkit replay <file>`
//! reproduces the violation with the right exit code.
//!
//! The deliberately-failing `demo_no_hub_label` invariant (hidden from
//! the catalog) provides a deterministic failure to drive the
//! machinery without breaking a real invariant.

use rdf_model::Triple;
use sama_testkit::case::Case;
use sama_testkit::invariants::find;
use sama_testkit::runner::record_failure;
use std::process::Command;

fn testkit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_testkit"))
}

fn noisy_failing_case() -> Case {
    // A chain case padded with noise, plus one offending "hub" triple.
    let mut case = sama_testkit::gen::generate("chain", 0xD431);
    case.data.push(Triple::parse("hub", "p0", "spoke"));
    for i in 0..8 {
        case.data.push(Triple::parse(
            &format!("noise{i}"),
            "p0",
            &format!("noise{}", i + 1),
        ));
    }
    case.query = vec![Triple::parse("?x", "p0", "?y")];
    case
}

#[test]
fn failure_shrinks_to_minimal_replayable_case() {
    let demo = find("demo_no_hub_label").unwrap();
    let case = noisy_failing_case();
    assert!((demo.check)(&case).is_err(), "fixture must fail");
    let original_size = case.data.len();

    let failure = record_failure(demo, &case);

    // Shrunk to the single offending triple (plus the 1-triple query).
    assert_eq!(
        failure.case.data.len(),
        1,
        "minimal: {:?}",
        failure.case.data
    );
    assert_eq!(failure.case.query.len(), 1);
    assert!(original_size > 5, "fixture was supposed to be noisy");
    assert_eq!(failure.case.invariant.as_deref(), Some("demo_no_hub_label"));

    // The persisted file round-trips to the identical case.
    let path = failure.file.as_ref().expect("replay file written");
    let text = std::fs::read_to_string(path).unwrap();
    assert_eq!(Case::from_json(&text).unwrap(), failure.case);

    // `testkit replay` reproduces the violation: exit 1, message on stderr.
    let out = testkit().arg("replay").arg(path).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "replay of a failing case exits 1"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("hub"), "stderr: {stderr}");

    let _ = std::fs::remove_file(path);
}

#[test]
fn replay_of_passing_case_exits_zero() {
    let mut case = sama_testkit::gen::generate("unicode", 5);
    case.invariant = Some("batch_identity".into());
    let dir = std::env::temp_dir().join("sama-testkit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("passing-case.json");
    std::fs::write(&path, case.to_json()).unwrap();

    let out = testkit().arg("replay").arg(&path).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("invariant holds"), "stdout: {stdout}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_error_paths_exit_two() {
    // Missing file.
    let out = testkit()
        .arg("replay")
        .arg("/no/such/case.json")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Unparseable file.
    let dir = std::env::temp_dir().join("sama-testkit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad-case.json");
    std::fs::write(&bad, "{not json").unwrap();
    let out = testkit().arg("replay").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
    let _ = std::fs::remove_file(&bad);

    // Bad usage.
    let out = testkit().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_subcommand_sweeps_and_exits_zero() {
    let out = testkit()
        .args(["run", "--cases", "6", "--seed", "99"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failure(s)"), "stdout: {stdout}");

    // Single-invariant mode.
    let out = testkit()
        .args(["run", "--cases", "4", "--invariant", "batch_identity"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));

    // Unknown invariant is a usage error.
    let out = testkit()
        .args(["run", "--invariant", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_subcommand_names_every_invariant() {
    let out = testkit().arg("list").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for inv in sama_testkit::CATALOG {
        assert!(
            stdout.contains(inv.name),
            "missing {} in list output",
            inv.name
        );
    }
}
