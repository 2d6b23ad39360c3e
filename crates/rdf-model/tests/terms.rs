//! One spelling, one term: an IRI or a quoted literal reads the same in
//! N-Triples, Turtle and SPARQL, and a malformed one fails with the same
//! message on the same line in all three.

use rdf_model::{parse_ntriples, parse_sparql, parse_turtle, Term};

/// `rest` completes the statement `<s> <p> …`, on line 2 of a document
/// (and of a query) in each grammar. Each result is the statement's
/// object, or the error as `Display` prints it.
fn in_each_grammar(rest: &str) -> [(&'static str, Result<Term, String>); 3] {
    let data = format!("# line one\n<s> <p> {rest}");
    let query = format!("# line one\nSELECT * WHERE {{ <s> <p> {rest} }}");
    [
        (
            "N-Triples",
            parse_ntriples(&data)
                .map(|t| t[0].object.clone())
                .map_err(|e| e.to_string()),
        ),
        (
            "Turtle",
            parse_turtle(&data)
                .map(|t| t[0].object.clone())
                .map_err(|e| e.to_string()),
        ),
        (
            "SPARQL",
            parse_sparql(&query)
                .map(|q| q.patterns[0].object.clone())
                .map_err(|e| e.to_string()),
        ),
    ]
}

#[test]
fn every_spelling_reads_as_the_same_term_in_all_three_grammars() {
    for (rest, want) in [
        (r#""plain" ."#, Term::literal("plain")),
        (r#""" ."#, Term::literal("")),
        (r#""x"@en ."#, Term::literal("x")),
        (r#""x"@en-GB ."#, Term::literal("x")),
        (r#""x"@en."#, Term::literal("x")),
        (r#""1"^^<dt> ."#, Term::literal("1")),
        (r#""1"^^xsd:int ."#, Term::literal("1")),
        (r#""1"^^xsd:int."#, Term::literal("1")),
        (r#""caf\u00E9" ."#, Term::literal("café")),
        (r#""\U0001F600" ."#, Term::literal("😀")),
        (r#""\u0041\u00E9\u2603" ."#, Term::literal("Aé☃")),
        (r#""\u004100" ."#, Term::literal("A00")),
        (r#""a\rb" ."#, Term::literal("a\rb")),
        (r#""line\nbreak\ttab" ."#, Term::literal("line\nbreak\ttab")),
        (
            r#""say \"hi\" \\ twice" ."#,
            Term::literal("say \"hi\" \\ twice"),
        ),
        ("\"héllo wörld ☃ 😀\" .", Term::literal("héllo wörld ☃ 😀")),
        ("<http://ex.org/o#x> .", Term::iri("http://ex.org/o#x")),
        ("<o>.", Term::iri("o")),
    ] {
        for (grammar, got) in in_each_grammar(rest) {
            assert_eq!(got, Ok(want.clone()), "{grammar}: {rest}");
        }
    }
}

#[test]
fn every_malformed_term_fails_alike_in_all_three_grammars() {
    for (rest, want) in [
        (r#""x\qy" ."#, r"unsupported escape \q"),
        (r#""x\'y" ."#, r"unsupported escape \'"),
        (r#""\u12" ."#, r"\u escape needs 4 hex digits"),
        (r#""\uZZZZ" ."#, r"\u escape needs 4 hex digits"),
        (r#""\U0001F6" ."#, r"\U escape needs 8 hex digits"),
        (
            r#""\uD800" ."#,
            r"\u escape U+D800 is not a valid character",
        ),
        (
            r#""\U00110000" ."#,
            r"\U escape U+110000 is not a valid character",
        ),
        ("<o .", "unterminated IRI"),
        (r#""oops ."#, "unterminated literal"),
        // A closing quote missing on a line that a line break ends, as
        // every line of a file but perhaps its last is.
        ("\"oops .\n", "line break in literal"),
        ("\"a\nb\" .", "line break in literal"),
        ("\"a\rb\" .", "line break in literal"),
        ("\"a\\\nb\" .", "line break in literal"),
        (r#""x"@ ."#, "expected language tag after '@'"),
        (r#""x"^^ ."#, "expected datatype after '^^'"),
        (r#""x"^^int ."#, "expected datatype after '^^'"),
        (r#""x"^^<int ."#, "unterminated IRI"),
    ] {
        let want = Err(format!("parse error at line 2: {want}"));
        for (grammar, got) in in_each_grammar(rest) {
            assert_eq!(got, want, "{grammar}: {rest:?}");
        }
    }
    // An escape cut off by the end of the input.
    let want = "parse error at line 1: unterminated literal";
    let data = r#"<s> <p> "dangling\"#;
    assert_eq!(parse_ntriples(data).unwrap_err().to_string(), want);
    assert_eq!(parse_turtle(data).unwrap_err().to_string(), want);
    let query = r#"SELECT * WHERE { <s> <p> "dangling\"#;
    assert_eq!(parse_sparql(query).unwrap_err().to_string(), want);
}
