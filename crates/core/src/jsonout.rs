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
use sama_obs::export::push_json_escaped;

/// `n` in decimal, as `{}` prints it.
fn push_uint(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// `x` as `{}` prints it. An integral value below 2^53 in magnitude —
/// every score of the uniform cost model — takes the integer path,
/// keeping the sign of `-0.0`; anything else goes through `{}`.
fn push_f64(out: &mut String, x: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if x.fract() == 0.0 && x.abs() < EXACT {
        if x.is_sign_negative() {
            out.push('-');
        }
        push_uint(out, x.abs() as u64);
    } else {
        use std::fmt::Write;
        let _ = write!(out, "{x}");
    }
}

/// Render `result` as the stable machine-readable document:
/// `{"answers":[{"rank":…,"score":…,"lambda":…,"psi":…,"exact":…,`
/// `"triples":[…],"bindings":{…}}],"truncated":…,"retrieved_paths":…}`
/// terminated by a single newline. `query` must be the graph the result
/// was answered for (its vocabulary resolves the binding variables) and
/// `index` the index it was answered against.
///
/// Written piece by piece into one `String`: each answer's triple lines
/// go into one reused buffer and are sorted as byte ranges
/// ([`crate::Answer::triple_lines`] is the same emitter).
pub fn render_result_json<I: IndexLike>(
    index: &I,
    query: &QueryGraph,
    result: &QueryResult,
) -> String {
    let mut out = String::new();
    let (mut text, mut lines) = (String::new(), Vec::new());
    out.push_str("{\"answers\":[");
    for (i, answer) in result.answers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rank\":");
        push_uint(&mut out, i as u64);
        for (key, value) in [
            (",\"score\":", answer.score()),
            (",\"lambda\":", answer.lambda()),
            (",\"psi\":", answer.psi()),
        ] {
            out.push_str(key);
            push_f64(&mut out, value);
        }
        out.push_str(if answer.is_exact() {
            ",\"exact\":true,"
        } else {
            ",\"exact\":false,"
        });
        out.push_str("\"triples\":[");
        answer.write_triple_lines(index, &mut text, &mut lines);
        for (j, line) in lines.iter().enumerate() {
            out.push_str(if j > 0 { ",\"" } else { "\"" });
            push_json_escaped(&mut out, &text[line.clone()]);
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
    out.push_str(if result.truncated {
        "],\"truncated\":true,\"retrieved_paths\":"
    } else {
        "],\"truncated\":false,\"retrieved_paths\":"
    });
    push_uint(&mut out, result.retrieved_paths as u64);
    out.push_str("}\n");
    out
}

/// The renderer before it wrote bytes: a `String` per triple line
/// through `format!`, `write!` for every number, and an escape that
/// pushes one `char` at a time — held here as the reference the
/// byte-level renderer must match.
#[cfg(test)]
mod reference {
    use crate::engine::QueryResult;
    use path_index::IndexLike;
    use rdf_model::QueryGraph;
    use std::fmt::Write;

    pub(super) fn push_json_escaped(out: &mut String, s: &str) {
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

    pub(super) fn render_result_json<I: IndexLike>(
        index: &I,
        query: &QueryGraph,
        result: &QueryResult,
    ) -> String {
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
            let term = |label| index.label_kind(label).display(index.label_lexical(label));
            let mut lines: Vec<String> = answer
                .edges(index)
                .into_iter()
                .map(|(edge, ..)| {
                    let (s, p, o) = index.edge_labels(edge);
                    format!("{} {} {}", term(s), term(p), term(o))
                })
                .collect();
            lines.sort();
            for (j, line) in lines.iter().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SamaEngine;
    use crate::json_escape;
    use rdf_model::{parse_ntriples, DataGraph, Term, Triple};

    /// Every string the escape must handle: quotes, backslashes, each
    /// control character, multi-byte UTF-8, and runs between them.
    fn awkward_strings() -> Vec<String> {
        let mut strings: Vec<String> = (1u8..0x20)
            .map(|c| format!("a{}b", char::from(c)))
            .collect();
        strings.extend(
            [
                "",
                "plain",
                "say \"hi\"",
                "back\\slash\\",
                "\"\\\"\\",
                "\u{1}\u{1f}",
                "Zürich — 東京 🦀",
                "ü\"ü\\ü\nü",
            ]
            .map(String::from),
        );
        strings
    }

    #[test]
    fn escape_matches_the_reference_on_awkward_strings() {
        for s in awkward_strings() {
            let mut want = String::new();
            reference::push_json_escaped(&mut want, &s);
            assert_eq!(json_escape(&s), want, "{s:?}");
        }
    }

    #[test]
    fn numbers_print_as_display_does() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            0.5,
            1.25,
            0.1 + 0.2,
            1e-7,
            -1.5e-300,
            123_456_789.0,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in values {
            let mut out = String::new();
            push_f64(&mut out, x);
            assert_eq!(out, format!("{x}"), "{x:e}");
        }
        for n in [0, 7, 10, 99, 1_000_000, u64::MAX] {
            let mut out = String::new();
            push_uint(&mut out, n);
            assert_eq!(out, n.to_string());
        }
    }

    /// Chains `<s> <p> <m>`, `<m> <q> "lit"` whose every term carries
    /// one of the awkward strings, answered for `?x <p> ?m . ?m <q> ?o`
    /// with every answer re-scored from a spread of awkward values, then
    /// with no answers at all: the document matches the reference's
    /// byte for byte each time.
    #[test]
    fn documents_match_the_reference_byte_for_byte() {
        let p = Term::iri("http://x/p \"\\ ü");
        let q = Term::iri("http://x/q");
        let mut triples = Vec::new();
        for (i, s) in awkward_strings().iter().enumerate() {
            let m = Term::iri(format!("http://x/m{i}{s}"));
            triples.push(Triple::new(
                Term::iri(format!("http://x/{s}{i}")),
                p.clone(),
                m.clone(),
            ));
            triples.push(Triple::new(m, q.clone(), Term::literal(s.clone())));
        }
        let data = DataGraph::from_triples(&triples).expect("ground triples");
        let query = rdf_model::QueryGraph::from_triples(&[
            Triple::new(
                Term::Variable("x".into()),
                p,
                Term::Variable("m \"1\"".into()),
            ),
            Triple::new(
                Term::Variable("m \"1\"".into()),
                q,
                Term::Variable("o".into()),
            ),
        ])
        .expect("query graph");
        let engine = SamaEngine::new(data);
        let mut result = engine.answer(&query, 100);
        assert!(result.answers.len() >= awkward_strings().len());
        let check = |result: &QueryResult| {
            assert_eq!(
                render_result_json(engine.index(), &query, result),
                reference::render_result_json(engine.index(), &query, result)
            );
        };
        check(&result);
        let values = [
            -0.0,
            0.0,
            0.5,
            1.25,
            -3.0,
            1e-7,
            123_456_789.0,
            0.1 + 0.2,
            1e300,
        ];
        for (i, answer) in result.answers.iter_mut().enumerate() {
            answer.breakdown.lambda_total = values[i % values.len()];
            answer.breakdown.psi_total = values[(i + 3) % values.len()];
        }
        check(&result);
        result.truncated = !result.truncated;
        result.answers.clear();
        check(&result);
    }

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
