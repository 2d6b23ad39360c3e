//! Machine-readable JSON rendering of a [`QueryResult`] — the single
//! writer behind `sama query --json` and the HTTP response bodies of
//! `sama-serve`, so the two are bit-identical and clients can diff CLI
//! output against server output byte for byte.
//!
//! The allowed dependency set has no serde_json; answers are flat
//! enough to render by hand.

use crate::engine::QueryResult;
use path_index::IndexLike;
use rdf_model::QueryGraph;

/// Escape `s` for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_escaped(&mut out, s);
    out
}

/// [`json_escape`] appended to `out`.
fn push_json_escaped(out: &mut String, s: &str) {
    use std::fmt::Write;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render `result` as the stable machine-readable document:
/// `{"answers":[{"rank":…,"score":…,"lambda":…,"psi":…,"exact":…,`
/// `"triples":[…],"bindings":{…}}],"truncated":…,"retrieved_paths":…}`
/// terminated by a single newline. `query` must be the graph the result
/// was answered for (its vocabulary resolves the binding variables) and
/// `index` the index it was answered against.
pub fn render_result_json<I: IndexLike>(
    index: &I,
    query: &QueryGraph,
    result: &QueryResult,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("{\"answers\":[");
    for (i, answer) in result.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rank\":{},\"score\":{},\"lambda\":{},\"psi\":{},\"exact\":{},",
            i,
            answer.score(),
            answer.lambda(),
            answer.psi(),
            answer.is_exact()
        );
        out.push_str("\"triples\":[");
        for (j, line) in answer.triple_lines(index).iter().enumerate() {
            out.push_str(if j > 0 { ",\"" } else { "\"" });
            push_json_escaped(&mut out, line);
            out.push('"');
        }
        out.push_str("],\"bindings\":{");
        for (j, (var, value)) in answer.bindings().iter().enumerate() {
            out.push_str(if j > 0 { ",\"" } else { "\"" });
            push_json_escaped(&mut out, query.vocab().lexical(*var));
            out.push_str("\":\"");
            push_json_escaped(&mut out, index.label_lexical(*value));
            out.push('"');
        }
        out.push_str("}}");
    }
    let _ = writeln!(
        out,
        "],\"truncated\":{},\"retrieved_paths\":{}}}",
        result.truncated, result.retrieved_paths
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamaEngine;
    use rdf_model::{parse_ntriples, DataGraph};

    #[test]
    fn escapes_the_json_metacharacters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\r\ty"), "x\\n\\r\\ty");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn renders_a_newline_terminated_document() {
        let triples = parse_ntriples(concat!(
            "<http://x/a> <http://x/p> <http://x/b> .\n",
            "<http://x/b> <http://x/q> \"leaf\" .\n",
        ))
        .expect("demo triples");
        let data = DataGraph::from_triples(&triples).expect("demo data");
        let query = rdf_model::parse_sparql(
            "SELECT ?o WHERE { <http://x/a> <http://x/p> ?o . ?o <http://x/q> \"leaf\" . }",
        )
        .expect("demo query");
        let engine = SamaEngine::new(data);
        let result = engine.answer(&query.graph, 3);
        assert!(!result.answers.is_empty(), "demo query must match");
        let json = render_result_json(engine.index(), &query.graph, &result);
        assert!(json.starts_with("{\"answers\":[{\"rank\":0,"));
        assert!(json.contains("\"exact\":true"));
        assert!(json.contains("\"bindings\":{\"o\":\"http://x/b\"}"));
        assert!(json.ends_with("}\n"), "document is newline-terminated");
        assert_eq!(json.lines().count(), 1, "single-line document");
    }
}
