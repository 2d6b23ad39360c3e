//! `ledger compare <old> <new>`: one row per workload × gated metric
//! with both values, their ratio (base: old) and a verdict. Either
//! argument is a `BENCH_<workload>.json` or a directory of them.

use crate::report::Better;
use crate::workloads::NAMES;
use sama_testkit::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What a pair of values amounts to, given the metric's bound and the
/// spread the two runs saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than either run's own spread.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse by more than the bound.
    Regressed,
    /// Not worse than the bound, but the runs' own spread exceeds it,
    /// so "unchanged" cannot be told from noise (choosing-metrics §6.5).
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// The metric's value.
    pub value: f64,
    /// Smallest window.
    pub min: f64,
    /// Largest window.
    pub max: f64,
    /// Inter-quartile range over windows.
    pub iqr: f64,
}

/// Judge `new` against `old`.
pub fn verdict(old: Side, new: Side, better: Better, bound: f64) -> Verdict {
    // Orient so that larger = worse.
    let (o, n, clearly_better) = match better {
        Better::Lower => (old.value, new.value, new.max < old.min),
        Better::Higher => (-old.value, -new.value, new.min > old.max),
    };
    let base = old.value.abs();
    if base == 0.0 {
        // Nothing to take a share of (a count that was zero): any rise
        // is a regression, as for `failed_share`.
        return match n.partial_cmp(&o) {
            Some(std::cmp::Ordering::Greater) => Verdict::Regressed,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::WithinBound,
        };
    }
    let worsening = (n - o) / base;
    if worsening > bound {
        return Verdict::Regressed;
    }
    // The spread the two runs saw across their own windows.
    let spread = (old.iqr / base).max(new.iqr / new.value.abs().max(f64::MIN_POSITIVE));
    if bound > 0.0 && spread > bound {
        // Too noisy to call unchanged — unless every window of the new
        // run beats every window of the old one.
        if clearly_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening < 0.0 && worsening < -spread {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    parse(&text).map_err(|e| format!("{path:?}: {e}"))
}

/// The ledger files an argument names: itself, or the
/// `BENCH_<workload>.json` files of a directory.
fn files_of(path: &Path) -> Vec<PathBuf> {
    if path.is_dir() {
        NAMES
            .iter()
            .map(|w| path.join(format!("BENCH_{w}.json")))
            .filter(|p| p.is_file())
            .collect()
    } else {
        vec![path.to_path_buf()]
    }
}

fn side(metric: &Json) -> Option<Side> {
    let num = |k| metric.get(k).and_then(Json::as_num);
    Some(Side {
        value: num("value")?,
        min: num("min")?,
        max: num("max")?,
        iqr: num("iqr")?,
    })
}

/// Compare two ledger documents; returns the report rows and whether
/// anything regressed.
pub fn compare_docs(old: &Json, new: &Json) -> Result<(Vec<String>, bool), String> {
    for key in ["workload", "hardware_threads", "scale", "seed"] {
        if old.get(key) != new.get(key) {
            return Err(format!(
                "runs are not comparable: {key} is {:?} vs {:?}",
                old.get(key),
                new.get(key)
            ));
        }
    }
    let workload = old.get("workload").and_then(Json::as_str).unwrap_or("?");
    let mut rows = Vec::new();
    let mut regressed = false;
    for section in ["end_to_end", "per_layer"] {
        let Some(Json::Obj(metrics)) = old.get(section) else {
            continue;
        };
        for (name, old_metric) in metrics {
            let Some(bound) = old_metric.get("bound").and_then(Json::as_num) else {
                continue; // reported, never gated
            };
            let better = match old_metric.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let new_metric = new.get(section).and_then(|s| s.get(name));
            let (Some(o), Some(n)) = (side(old_metric), new_metric.and_then(side)) else {
                rows.push(format!(
                    "{workload:<11} {name:<26} missing from the new run  REGRESSED"
                ));
                regressed = true;
                continue;
            };
            let v = verdict(o, n, better, bound);
            regressed |= v == Verdict::Regressed;
            let unit = old_metric.get("unit").and_then(Json::as_str).unwrap_or("");
            rows.push(format!(
                "{workload:<11} {name:<26} {:>14.4} {:>14.4} {unit:<6} {:<9} (of old)  bound {:>4.0}%  {}",
                o.value,
                n.value,
                if o.value != 0.0 {
                    format!("x{:.4}", n.value / o.value)
                } else {
                    "-".to_string()
                },
                bound * 100.0,
                v.as_str()
            ));
        }
    }
    Ok((rows, regressed))
}

/// The `compare` subcommand.
pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let [old, new] = args else {
        return Err("usage: ledger compare <old.json|dir> <new.json|dir>".into());
    };
    let (old_files, new_files) = (files_of(Path::new(old)), files_of(Path::new(new)));
    if old_files.is_empty() || old_files.len() != new_files.len() {
        return Err(format!(
            "{old} and {new} do not hold the same ledger files ({} vs {})",
            old_files.len(),
            new_files.len()
        ));
    }
    println!(
        "{:<11} {:<26} {:>14} {:>14} {:<6} {:<18} {:<11} verdict",
        "workload", "metric", "old value", "new value", "unit", "ratio", "bound"
    );
    let mut regressed = false;
    for (o, n) in old_files.iter().zip(&new_files) {
        let (rows, bad) = compare_docs(&load(o)?, &load(n)?)?;
        rows.iter().for_each(|r| println!("{r}"));
        regressed |= bad;
    }
    Ok(if regressed {
        eprintln!("ledger: at least one gated metric regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Side {
        Side {
            value,
            min: value * 0.99,
            max: value * 1.01,
            iqr: value * 0.01,
        }
    }

    fn noisy(value: f64) -> Side {
        Side {
            value,
            min: value * 0.7,
            max: value * 1.3,
            iqr: value * 0.3,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(
            verdict(tight(100.0), tight(103.0), Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(tight(100.0), tight(115.0), Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(80.0), Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(100.0), tight(120.0), Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(tight(100.0), tight(99.5), Lower, 0.10),
            Verdict::WithinBound
        );
        // Spread beyond the bound: unresolved, unless every window of
        // the new run beats every window of the old one.
        assert_eq!(
            verdict(noisy(100.0), noisy(104.0), Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(noisy(100.0), tight(50.0), Lower, 0.10),
            Verdict::Better
        );
        // Exact metrics (bound 0): any worsening regresses.
        let exact = |v| Side {
            value: v,
            min: v,
            max: v,
            iqr: 0.0,
        };
        assert_eq!(
            verdict(exact(277.0), exact(277.0), Lower, 0.0),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(exact(277.0), exact(278.0), Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(exact(0.0), exact(0.01), Lower, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(exact(0.0), exact(0.0), Lower, 0.0),
            Verdict::WithinBound
        );
    }

    fn doc(threads: u32, ops: f64, failed_share: f64) -> Json {
        parse(&format!(
            "{{\"workload\":\"lubm_mix\",\"seed\":42,\"scale\":100000,\"hardware_threads\":{threads},\
             \"end_to_end\":{{\"ops_per_s\":{{\"value\":{ops},\"unit\":\"1/s\",\"better\":\"higher\",\
             \"bound\":0.1,\"min\":{ops},\"max\":{ops},\"iqr\":0,\"n\":7}}}},\
             \"per_layer\":{{\"failed_share\":{{\"value\":{failed_share},\"unit\":\"ratio\",\
             \"better\":\"lower\",\"bound\":0,\"min\":0,\"max\":0,\"iqr\":0,\"n\":1}},\
             \"core.search.topk_ms\":{{\"value\":3,\"unit\":\"ms\",\"better\":\"lower\",\
             \"bound\":null,\"min\":3,\"max\":3,\"iqr\":0,\"n\":1}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn documents_compare_row_by_row_and_refuse_mismatched_hardware() {
        let (rows, bad) = compare_docs(&doc(2, 30.0, 0.0), &doc(2, 31.0, 0.0)).unwrap();
        assert_eq!(
            rows.len(),
            2,
            "ungated layer metrics are not rows: {rows:?}"
        );
        assert!(!bad);
        assert!(rows[0].contains("ops_per_s") && rows[0].contains("(of old)"));
        let (rows, bad) = compare_docs(&doc(2, 30.0, 0.0), &doc(2, 20.0, 0.0)).unwrap();
        assert!(bad && rows[0].contains("REGRESSED"));
        let (rows, bad) = compare_docs(&doc(2, 30.0, 0.0), &doc(2, 30.0, 0.001)).unwrap();
        assert!(bad && rows[1].contains("failed_share") && rows[1].contains("REGRESSED"));
        let err = compare_docs(&doc(2, 30.0, 0.0), &doc(8, 30.0, 0.0)).unwrap_err();
        assert!(err.contains("hardware_threads"), "{err}");
    }
}
