//! A line-oriented N-Triples parser and serializer.
//!
//! Supports the core N-Triples grammar: one `subject predicate object .`
//! statement a line, of `<iri>`, `_:blank` and `"literal"` terms (IRIs
//! and literals, with their escapes and discarded annotations, are read
//! by [`crate::lex`]). Comment lines (`#`) and blank lines are skipped.

use crate::error::{RdfError, Result};
use crate::lex::{Cursor, Lexed};
use crate::term::Term;
use crate::triple::Triple;

/// Parse an N-Triples document into a list of triples.
pub fn parse_ntriples(input: &str) -> Result<Vec<Triple>> {
    let mut triples = Vec::new();
    // Each line keeps its line break, so a literal that runs into it is
    // told from one that runs out of text.
    for (lineno, line) in input.split_inclusive('\n').enumerate() {
        let line = line.trim_start();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let triple = statement(&mut Cursor::new(line)).map_err(|(_, message)| RdfError::Parse {
            line: lineno + 1,
            message,
        })?;
        triples.push(triple);
    }
    Ok(triples)
}

/// Serialize triples as N-Triples text. IRIs are wrapped in `<>`,
/// literals quoted and escaped, blanks rendered `_:name`.
///
/// # Panics
/// Panics if a triple contains a variable — N-Triples has no variable
/// syntax; serialize query graphs with their `Display` form instead.
pub fn to_ntriples<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut out = String::new();
    for t in triples {
        out.push_str(&term_to_nt(&t.subject));
        out.push(' ');
        out.push_str(&term_to_nt(&t.predicate));
        out.push(' ');
        out.push_str(&term_to_nt(&t.object));
        out.push_str(" .\n");
    }
    out
}

fn term_to_nt(term: &Term) -> String {
    match term {
        Term::Iri(s) => format!("<{s}>"),
        Term::Blank(s) => format!("_:{s}"),
        Term::Literal(s) => format!("\"{}\"", escape_literal(s)),
        Term::Variable(v) => panic!("variable ?{v} cannot be serialized as N-Triples"),
    }
}

fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out
}

fn statement(cursor: &mut Cursor<'_>) -> Lexed<Triple> {
    let subject = term(cursor)?;
    let predicate = term(cursor)?;
    let object = term(cursor)?;
    skip_ws(cursor);
    if !cursor.eat(b'.') {
        return cursor.fault("expected terminating '.'");
    }
    if !cursor.rest().trim().is_empty() {
        return cursor.fault("trailing content after '.'");
    }
    Ok(Triple::new(subject, predicate, object))
}

fn skip_ws(cursor: &mut Cursor<'_>) {
    cursor.take_while(|c| c.is_ascii_whitespace());
}

fn term(cursor: &mut Cursor<'_>) -> Lexed<Term> {
    skip_ws(cursor);
    match cursor.peek_char() {
        Some('<') => Ok(Term::Iri(cursor.iri()?.to_string())),
        Some('"') => Ok(Term::Literal(cursor.literal()?)),
        Some('_') => blank(cursor),
        Some(other) => cursor.fault(format!("expected term, found {other:?}")),
        None => cursor.fault("unexpected end of line; expected term"),
    }
}

/// `_:label`: the label runs to whitespace or `.`.
fn blank(cursor: &mut Cursor<'_>) -> Lexed<Term> {
    if !(cursor.eat(b'_') && cursor.eat(b':')) {
        return cursor.fault("expected blank node '_:'");
    }
    match cursor.take_while(|c| !c.is_ascii_whitespace() && c != '.') {
        "" => cursor.fault("empty blank node label"),
        label => Ok(Term::Blank(label.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_document() {
        let doc = "\
# US Congress fragment
<CarlaBunes> <sponsor> <A0056> .
<A0056> <aTo> <B1432> .
<B1432> <subject> \"Health Care\" .
";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples.len(), 3);
        assert_eq!(triples[0].subject, Term::iri("CarlaBunes"));
        assert_eq!(triples[2].object, Term::literal("Health Care"));
    }

    #[test]
    fn roundtrip() {
        let triples = vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::literal("x \"y\" \\z")),
            Triple::new(Term::iri("a"), Term::iri("q"), Term::Blank("b0".into())),
            Triple::new(
                Term::Blank("b0".into()),
                Term::iri("r"),
                Term::literal("line\nbreak\ttab"),
            ),
        ];
        let text = to_ntriples(&triples);
        let parsed = parse_ntriples(&text).unwrap();
        assert_eq!(parsed, triples);
    }

    #[test]
    fn language_tag_discarded() {
        let triples = parse_ntriples("<a> <p> \"chat\"@en .").unwrap();
        assert_eq!(triples[0].object, Term::literal("chat"));
    }

    #[test]
    fn datatype_discarded() {
        let triples =
            parse_ntriples("<a> <p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .").unwrap();
        assert_eq!(triples[0].object, Term::literal("5"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let triples = parse_ntriples("\n# comment\n\n<a> <p> <b> .\n\n").unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_ntriples("<a> <p> <b> .\n<a> <p> .").unwrap_err();
        match err {
            RdfError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_dot() {
        assert!(parse_ntriples("<a> <p> <b>").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_ntriples("<a> <p> <b> . extra").is_err());
    }

    #[test]
    fn rejects_unterminated_iri() {
        assert!(parse_ntriples("<a <p> <b> .").is_err());
    }

    #[test]
    fn rejects_unterminated_literal() {
        assert!(parse_ntriples("<a> <p> \"oops .").is_err());
    }

    #[test]
    fn rejects_bad_escape() {
        assert!(parse_ntriples("<a> <p> \"bad\\qescape\" .").is_err());
    }

    #[test]
    fn unicode_literals() {
        let triples = parse_ntriples("<a> <p> \"héllo wörld ☃\" .").unwrap();
        assert_eq!(triples[0].object, Term::literal("héllo wörld ☃"));
    }

    #[test]
    fn empty_literal() {
        let triples = parse_ntriples("<a> <p> \"\" .").unwrap();
        assert_eq!(triples[0].object, Term::literal(""));
    }

    #[test]
    fn escaped_quotes_inside_literal() {
        let triples = parse_ntriples(r#"<a> <p> "say \"hi\" twice" ."#).unwrap();
        assert_eq!(triples[0].object, Term::literal("say \"hi\" twice"));
    }

    #[test]
    fn uchar_escapes() {
        let doc = "<a> <p> \"\\u0041\\u00E9\\u2603\" .";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("Aé☃"));
        let doc = "<a> <p> \"\\U0001F600\" .";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("😀"));
    }

    #[test]
    fn uchar_followed_by_plain_text() {
        // The escape consumes exactly its digit count — trailing
        // hex-looking characters stay literal.
        let doc = "<a> <p> \"\\u004100\" .";
        let triples = parse_ntriples(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("A00"));
    }

    #[test]
    fn rejects_short_uchar() {
        assert!(parse_ntriples("<a> <p> \"\\u12\" .").is_err());
        assert!(parse_ntriples("<a> <p> \"\\uZZZZ\" .").is_err());
        assert!(parse_ntriples("<a> <p> \"\\u\" .").is_err());
    }

    #[test]
    fn rejects_surrogate_uchar() {
        // U+D800 is a surrogate, not a Unicode scalar value.
        assert!(parse_ntriples("<a> <p> \"\\uD800\" .").is_err());
        assert!(parse_ntriples("<a> <p> \"\\U00110000\" .").is_err());
    }

    #[test]
    fn rejects_dangling_escape() {
        assert!(parse_ntriples("<a> <p> \"dangling\\").is_err());
    }

    #[test]
    #[should_panic(expected = "cannot be serialized")]
    fn serializing_variables_panics() {
        let t = Triple::parse("?x", "p", "b");
        let _ = to_ntriples(std::iter::once(&t));
    }
}
