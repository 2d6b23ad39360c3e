//! Replayable test cases: a seeded graph/query pair plus the invariant
//! it exercises, serializable to a standalone JSON file.
//!
//! A failing invariant shrinks its case (see [`mod@crate::shrink`]) and
//! writes it to disk; `testkit replay <case.json>` re-runs exactly that
//! case. Terms are encoded with a one-letter kind prefix (`i:` IRI,
//! `l:` literal, `b:` blank, `v:` variable) so unicode labels, spaces,
//! and quotes survive the round trip byte-for-byte.

use crate::json::{self, Json};
use rdf_model::{DataGraph, QueryGraph, Term, Triple};
use std::fmt::Write as _;

/// Current case-file format version.
pub const CASE_VERSION: u64 = 1;

/// One reproducible graph/query pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Generator family that produced the case (`"chain"`, `"hub"`, …)
    /// or `"manual"` for hand-written files.
    pub family: String,
    /// Generation seed; also drives every seeded decision an invariant
    /// makes while checking this case (permutations, deletions).
    pub seed: u64,
    /// Top-k requested from the engine.
    pub k: usize,
    /// The invariant this case was recorded against, if any.
    pub invariant: Option<String>,
    /// Ground triples of the data graph.
    pub data: Vec<Triple>,
    /// Triple patterns of the query.
    pub query: Vec<Triple>,
}

impl Case {
    /// Build the data graph. Panics on variables in data triples —
    /// generators never emit them; hand-edited files are validated by
    /// [`Case::well_formed`] first.
    pub fn data_graph(&self) -> DataGraph {
        DataGraph::from_triples(&self.data).expect("case data graph builds")
    }

    /// Build the query graph.
    pub fn query_graph(&self) -> QueryGraph {
        QueryGraph::from_triples(&self.query).expect("case query graph builds")
    }

    /// `true` if both graphs build and the query decomposes into at
    /// least one source→sink path against this data graph. Invariants
    /// and the shrinker only ever see well-formed cases.
    pub fn well_formed(&self) -> bool {
        if self.data.is_empty() || self.query.is_empty() {
            return false;
        }
        let Ok(data) = DataGraph::from_triples(&self.data) else {
            return false;
        };
        let Ok(query) = QueryGraph::from_triples(&self.query) else {
            return false;
        };
        sama_core::decompose_query_checked(
            &query,
            data.vocab(),
            &path_index::NoSynonyms,
            &path_index::ExtractionConfig::default(),
        )
        .is_ok()
    }

    /// Serialize as a standalone JSON case file (one object, pretty
    /// enough to hand-edit).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": {CASE_VERSION},");
        let _ = writeln!(out, "  \"family\": \"{}\",", json::escape(&self.family));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"k\": {},", self.k);
        match &self.invariant {
            Some(name) => {
                let _ = writeln!(out, "  \"invariant\": \"{}\",", json::escape(name));
            }
            None => {
                let _ = writeln!(out, "  \"invariant\": null,");
            }
        }
        let triples = |out: &mut String, key: &str, list: &[Triple], last: bool| {
            let _ = writeln!(out, "  \"{key}\": [");
            for (i, t) in list.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "    [\"{}\", \"{}\", \"{}\"]{}",
                    json::escape(&encode_term(&t.subject)),
                    json::escape(&encode_term(&t.predicate)),
                    json::escape(&encode_term(&t.object)),
                    if i + 1 == list.len() { "" } else { "," }
                );
            }
            let _ = writeln!(out, "  ]{}", if last { "" } else { "," });
        };
        triples(&mut out, "data", &self.data, false);
        triples(&mut out, "query", &self.query, true);
        out.push('}');
        out
    }

    /// Parse a case file produced by [`Case::to_json`] (or hand-written
    /// in the same schema).
    pub fn from_json(text: &str) -> Result<Case, String> {
        let root = json::parse(text)?;
        let version = root
            .get("version")
            .and_then(Json::as_num)
            .ok_or("missing \"version\"")? as u64;
        if version != CASE_VERSION {
            return Err(format!("unsupported case version {version}"));
        }
        let family = root
            .get("family")
            .and_then(Json::as_str)
            .ok_or("missing \"family\"")?
            .to_string();
        let seed = root
            .get("seed")
            .and_then(Json::as_num)
            .ok_or("missing \"seed\"")? as u64;
        let k = root
            .get("k")
            .and_then(Json::as_num)
            .ok_or("missing \"k\"")? as usize;
        let invariant = match root.get("invariant") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(other) => return Err(format!("bad \"invariant\": {other:?}")),
        };
        let triples = |key: &str| -> Result<Vec<Triple>, String> {
            let arr = root
                .get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("missing {key:?} array"))?;
            arr.iter()
                .map(|item| {
                    let terms = item.as_arr().ok_or("triple must be a 3-array")?;
                    let [s, p, o] = terms else {
                        return Err(format!("triple must have 3 terms, got {}", terms.len()));
                    };
                    Ok(Triple::new(
                        decode_term(s.as_str().ok_or("term must be a string")?)?,
                        decode_term(p.as_str().ok_or("term must be a string")?)?,
                        decode_term(o.as_str().ok_or("term must be a string")?)?,
                    ))
                })
                .collect()
        };
        Ok(Case {
            family,
            seed,
            k: k.max(1),
            invariant,
            data: triples("data")?,
            query: triples("query")?,
        })
    }
}

fn encode_term(term: &Term) -> String {
    match term {
        Term::Iri(s) => format!("i:{s}"),
        Term::Literal(s) => format!("l:{s}"),
        Term::Blank(s) => format!("b:{s}"),
        Term::Variable(s) => format!("v:{s}"),
    }
}

fn decode_term(encoded: &str) -> Result<Term, String> {
    let (kind, payload) = encoded
        .split_once(':')
        .ok_or_else(|| format!("term {encoded:?} lacks a kind prefix"))?;
    match kind {
        "i" => Ok(Term::Iri(payload.to_string())),
        "l" => Ok(Term::Literal(payload.to_string())),
        "b" => Ok(Term::Blank(payload.to_string())),
        "v" => Ok(Term::Variable(payload.to_string())),
        other => Err(format!("unknown term kind {other:?} in {encoded:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_case() -> Case {
        Case {
            family: "manual".into(),
            seed: 42,
            k: 5,
            invariant: Some("batch_identity".into()),
            data: vec![
                Triple::parse("a", "p", "b"),
                Triple::parse("b", "q", "\"lit with \\\" quote\""),
                Triple::parse("héllo☃", "p", "wörld"),
            ],
            query: vec![Triple::parse("?x", "p", "?y")],
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let case = demo_case();
        let text = case.to_json();
        let back = Case::from_json(&text).unwrap();
        assert_eq!(back, case);
        // And a second trip is byte-stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn well_formedness() {
        let case = demo_case();
        assert!(case.well_formed());
        let mut empty_query = case.clone();
        empty_query.query.clear();
        assert!(!empty_query.well_formed());
        let mut var_in_data = case.clone();
        var_in_data.data.push(Triple::parse("?x", "p", "b"));
        assert!(!var_in_data.well_formed());
        // Even a self-loop query decomposes (into a one-edge path), so
        // only structurally broken inputs are rejected.
        let mut self_loop = case;
        self_loop.query = vec![Triple::parse("?x", "p", "?x")];
        assert!(self_loop.well_formed());
    }

    #[test]
    fn rejects_malformed_files() {
        assert!(Case::from_json("{}").is_err());
        assert!(Case::from_json("not json").is_err());
        let bad_kind = r#"{"version":1,"family":"m","seed":0,"k":1,"invariant":null,
            "data":[["x:a","i:p","i:b"]],"query":[["v:x","i:p","v:y"]]}"#;
        assert!(Case::from_json(bad_kind).is_err());
    }
}
