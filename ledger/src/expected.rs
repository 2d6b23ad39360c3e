//! Blessed answer fingerprints (`expected/<workload>.fp`): for every
//! query of a workload at the default seed and scale, the multiset of
//! answer scores. Written by `ledger bless`, checked by every run at
//! that seed and scale — so an engine change that alters answers shows
//! up as failed operations, not as a faster benchmark.

use sama_core::QueryResult;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The score multiset of one result, as `(score, count)` runs in
/// ascending score order. Only defined for complete results: a
/// truncated search may legitimately stop elsewhere after an engine
/// change.
pub fn score_runs(result: &QueryResult) -> Option<Vec<(f64, usize)>> {
    if result.truncated {
        return None;
    }
    let mut scores: Vec<f64> = result.answers.iter().map(|a| a.score()).collect();
    scores.sort_by(f64::total_cmp);
    let mut runs: Vec<(f64, usize)> = Vec::new();
    for s in scores {
        match runs.last_mut() {
            Some((last, n)) if last.to_bits() == s.to_bits() => *n += 1,
            _ => runs.push((s, 1)),
        }
    }
    Some(runs)
}

fn render_runs(runs: &[(f64, usize)]) -> String {
    if runs.is_empty() {
        return "-".to_string();
    }
    let parts: Vec<String> = runs.iter().map(|(s, n)| format!("{s}*{n}")).collect();
    parts.join(",")
}

/// The blessed fingerprints of one workload.
#[derive(Debug, Default, PartialEq)]
pub struct Expected {
    /// Seed the file was blessed at.
    pub seed: u64,
    /// Scale the file was blessed at.
    pub scale: usize,
    /// Query name → rendered score runs.
    pub entries: BTreeMap<String, String>,
}

/// `expected/<workload>.fp` inside the ledger package.
pub fn path_of(workload: &str) -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.fp"))
}

impl Expected {
    /// No fingerprints yet, for inputs `(seed, scale)`.
    pub fn empty(seed: u64, scale: usize) -> Expected {
        Expected {
            seed,
            scale,
            entries: BTreeMap::new(),
        }
    }

    /// Parse a fingerprint file.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty fingerprint file")?;
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|w| w.strip_prefix(key))
                .ok_or_else(|| format!("fingerprint header lacks {key}"))
        };
        let mut out = Expected::empty(
            field("seed=")?.parse().map_err(|_| "bad seed")?,
            field("scale=")?.parse().map_err(|_| "bad scale")?,
        );
        for line in lines.filter(|l| !l.trim().is_empty()) {
            let (name, runs) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed fingerprint line {line:?}"))?;
            out.entries.insert(name.to_string(), runs.to_string());
        }
        Ok(out)
    }

    /// Load the blessed file for `workload` if it applies to this
    /// `(seed, scale)`; `Ok(None)` when there is none or it was blessed
    /// for other inputs.
    pub fn load_for(workload: &str, seed: u64, scale: usize) -> Result<Option<Expected>, String> {
        let path = path_of(workload);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cannot read {path:?}: {e}")),
        };
        let expected = Expected::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
        Ok((expected.seed == seed && expected.scale == scale).then_some(expected))
    }

    /// Record `result` under `name` (complete results only).
    pub fn record(&mut self, name: &str, result: &QueryResult) {
        if let Some(runs) = score_runs(result) {
            self.entries.insert(name.to_string(), render_runs(&runs));
        }
    }

    /// Check `result` against the blessed entry for `name`. Complete
    /// results must match an existing entry exactly; truncated results
    /// are not fingerprinted.
    pub fn check(&self, name: &str, result: &QueryResult) -> Result<(), String> {
        let Some(runs) = score_runs(result) else {
            return Ok(());
        };
        let got = render_runs(&runs);
        match self.entries.get(name) {
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "{name}: score multiset {got} differs from the blessed {want}"
            )),
            None => Err(format!(
                "{name}: no blessed fingerprint (run `ledger bless`)"
            )),
        }
    }

    /// Render in the file format.
    pub fn render(&self) -> String {
        let mut out = format!("# seed={} scale={}\n", self.seed, self.scale);
        for (name, runs) in &self.entries {
            out.push_str(&format!("{name} {runs}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_format_round_trips() {
        let mut e = Expected::empty(42, 100_000);
        e.entries.insert("Q1".into(), "0*10".into());
        e.entries.insert("Q9".into(), "1.5*3,2*7".into());
        e.entries.insert("Q0".into(), "-".into());
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
        assert!(Expected::parse("").is_err());
        assert!(Expected::parse("# seed=1\n").is_err());
        assert!(Expected::parse("# seed=1 scale=2\nnospace\n").is_err());
    }

    #[test]
    fn runs_render_shortest_round_trip_floats() {
        assert_eq!(render_runs(&[(0.0, 10)]), "0*10");
        assert_eq!(render_runs(&[(1.5, 3), (2.0, 7)]), "1.5*3,2*7");
        assert_eq!(render_runs(&[]), "-");
    }
}
