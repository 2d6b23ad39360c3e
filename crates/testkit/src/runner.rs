//! The sweep driver: generate seeded cases, run invariants, shrink and
//! persist failures, replay case files.
//!
//! Budget control: `SAMA_TESTKIT_CASES` sets how many cases each
//! invariant sweeps (default [`DEFAULT_CASES`], sized for the tier-1
//! test budget; CI's deep leg sets 500). Every case is a pure function
//! of `(family, seed)`, so a failure report names everything needed to
//! reproduce it — and the shrunk repro is also written to
//! `target/testkit-failures/` for `testkit replay`.

use crate::case::Case;
use crate::gen::{generate, FAMILIES};
use crate::invariants::{find, Invariant, CATALOG};
use crate::shrink::shrink;
use std::path::PathBuf;

/// Cases per invariant when `SAMA_TESTKIT_CASES` is unset. Keeps the
/// whole in-process sweep (cases × catalog × several engine builds
/// each) inside a few seconds — the tier-1 budget.
pub const DEFAULT_CASES: usize = 24;

/// Base seed of the default sweep; CI legs can vary it to widen
/// coverage over time without touching code.
pub const DEFAULT_BASE_SEED: u64 = 0x5a3a_0001;

/// The per-invariant case budget: `SAMA_TESTKIT_CASES` or the default.
pub fn case_budget() -> usize {
    match std::env::var("SAMA_TESTKIT_CASES") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("warning: ignoring SAMA_TESTKIT_CASES={v:?}: not a positive count");
                DEFAULT_CASES
            }
        },
        Err(_) => DEFAULT_CASES,
    }
}

/// Where shrunk failing cases are written: `target/testkit-failures/`
/// at the workspace root (CI uploads this directory as an artifact).
pub fn failure_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/testkit-failures")
}

/// One observed, shrunk, persisted failure.
#[derive(Debug)]
pub struct Failure {
    /// The violated invariant.
    pub invariant: String,
    /// The shrunk case.
    pub case: Case,
    /// Violation message from the shrunk case.
    pub message: String,
    /// Where the replay file was written (if the write succeeded).
    pub file: Option<PathBuf>,
}

impl Failure {
    /// Human-readable report with replay instructions.
    pub fn report(&self) -> String {
        let mut out = format!(
            "invariant {:?} violated (family {:?}, seed {}, k {}):\n{}\n\
             shrunk repro: {} data + {} query triple(s)",
            self.invariant,
            self.case.family,
            self.case.seed,
            self.case.k,
            self.message,
            self.case.data.len(),
            self.case.query.len(),
        );
        match &self.file {
            Some(path) => {
                out.push_str(&format!(
                    "\nreplay with: cargo run -p sama-testkit --bin testkit -- replay {}",
                    path.display()
                ));
            }
            None => out.push_str("\n(case file could not be written; JSON follows)\n"),
        }
        if self.file.is_none() {
            out.push_str(&self.case.to_json());
        }
        out
    }
}

/// Sweep `cases` seeded cases through one invariant. The first failure
/// is shrunk, written to [`failure_dir`], and returned.
pub fn run_invariant(inv: &Invariant, cases: usize, base_seed: u64) -> Result<(), Box<Failure>> {
    for i in 0..cases {
        let family = FAMILIES[i % FAMILIES.len()];
        let case = generate(family, base_seed.wrapping_add(i as u64));
        if (inv.check)(&case).is_err() {
            return Err(Box::new(record_failure(inv, &case)));
        }
    }
    Ok(())
}

/// Shrink an observed failure and persist the replay file.
pub fn record_failure(inv: &Invariant, case: &Case) -> Failure {
    let shrunk = shrink(case, inv);
    let mut minimal = shrunk.case;
    minimal.invariant = Some(inv.name.to_string());
    let dir = failure_dir();
    let file = std::fs::create_dir_all(&dir)
        .ok()
        .map(|()| {
            dir.join(format!(
                "{}-{}-{}.json",
                inv.name, minimal.family, minimal.seed
            ))
        })
        .and_then(|path| std::fs::write(&path, minimal.to_json()).ok().map(|()| path));
    Failure {
        invariant: inv.name.to_string(),
        case: minimal,
        message: shrunk.message,
        file,
    }
}

/// Test-facing entry point: sweep one named invariant under the
/// env-configured budget and panic with a full replay report on
/// violation. Each `#[test]` in `tests/invariants.rs` is one call.
pub fn assert_invariant(name: &str) {
    let inv = find(name).unwrap_or_else(|| panic!("unknown invariant {name:?}"));
    if let Err(failure) = run_invariant(inv, case_budget(), DEFAULT_BASE_SEED) {
        panic!("{}", failure.report());
    }
}

/// Aggregate outcome of a full catalog sweep (the `testkit run` CLI).
pub struct RunReport {
    /// Cases swept per invariant.
    pub cases_per_invariant: usize,
    /// Total checks executed (cases × invariants).
    pub checks: usize,
    /// Every invariant that failed, shrunk and persisted.
    pub failures: Vec<Failure>,
}

/// Sweep the whole catalog. Unlike [`run_invariant`], this keeps going
/// after a failure so one run reports every broken invariant.
pub fn run_all(cases: usize, base_seed: u64) -> RunReport {
    let mut failures = Vec::new();
    for inv in CATALOG {
        if let Err(failure) = run_invariant(inv, cases, base_seed) {
            failures.push(*failure);
        }
    }
    RunReport {
        cases_per_invariant: cases,
        checks: cases * CATALOG.len(),
        failures,
    }
}

/// Re-run one persisted case file against its recorded invariant.
pub fn replay(case: &Case) -> Result<(), String> {
    let name = case
        .invariant
        .as_deref()
        .ok_or("case file records no invariant (\"invariant\": null)")?;
    let inv = find(name).ok_or_else(|| format!("unknown invariant {name:?}"))?;
    if !case.well_formed() {
        return Err("case is not well-formed (graphs do not build or query \
                    has no source→sink decomposition)"
            .to_string());
    }
    (inv.check)(case).map_err(|msg| format!("invariant {name:?} still fails:\n{msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Triple;

    #[test]
    fn record_failure_writes_replayable_file() {
        let demo = find("demo_no_hub_label").unwrap();
        let mut case = generate("chain", 11);
        case.data.push(Triple::parse("hub", "p0", "s0"));
        case.query = vec![Triple::parse("?x", "p0", "?y")];
        let failure = record_failure(demo, &case);
        assert_eq!(failure.case.data.len(), 1, "shrunk to the offender");
        let path = failure.file.as_ref().expect("file written");
        let loaded = Case::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(loaded, failure.case);
        // Replay reproduces the violation.
        let err = replay(&loaded).unwrap_err();
        assert!(err.contains("hub"), "unexpected replay error: {err}");
        assert!(failure.report().contains("replay with"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_rejects_unknown_and_missing_invariants() {
        let mut case = generate("chain", 1);
        case.invariant = None;
        assert!(replay(&case).unwrap_err().contains("no invariant"));
        case.invariant = Some("no_such_invariant".into());
        assert!(replay(&case).unwrap_err().contains("unknown invariant"));
    }

    #[test]
    fn replay_of_passing_case_is_ok() {
        let mut case = generate("chain", 2);
        case.invariant = Some("batch_identity".into());
        assert!(replay(&case).is_ok());
    }
}
