//! A Turtle parser for the commonly used subset.
//!
//! Supported: `@prefix`/`@base` directives (and SPARQL-style `PREFIX`/
//! `BASE`), `<iri>` and `prefix:local` terms, the `a` keyword
//! (rdf:type), predicate lists (`;`), object lists (`,`), labelled
//! blank nodes (`_:b`), quoted literals (read by [`crate::lex`], as in
//! [`crate::ntriples`] and [`crate::sparql`]), numeric and boolean
//! literal shorthands, and `#` comments.
//!
//! Not supported (rare in bulk data): anonymous blank nodes `[...]`,
//! collections `(...)`, multiline `"""` literals.

use crate::error::Result;
use crate::hash::FxHashMap;
use crate::lex::{is_name_char, parse_error, Cursor, Tokens};
use crate::term::Term;
use crate::triple::Triple;
use std::ops::Range;

/// Parse a Turtle document into triples.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>> {
    Parser {
        tokens: Tokens::new(input, tokenize(input)?),
        prefixes: FxHashMap::default(),
        base: String::new(),
        triples: Vec::new(),
    }
    .document()
}

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

#[derive(Debug, PartialEq)]
enum Token {
    Iri(String),
    PrefixedName(String, String),
    Blank(String),
    Literal(String),
    A,
    Dot,
    Semicolon,
    Comma,
    PrefixDirective,
    BaseDirective,
}

struct Parser<'a> {
    tokens: Tokens<'a, Token>,
    prefixes: FxHashMap<String, String>,
    base: String,
    triples: Vec<Triple>,
}

impl Parser<'_> {
    fn document(mut self) -> Result<Vec<Triple>> {
        loop {
            match self.tokens.peek() {
                None => return Ok(self.triples),
                Some(Token::PrefixDirective) => {
                    self.tokens.pop();
                    let name = match self.tokens.pop() {
                        Some(Token::PrefixedName(p, local)) if local.is_empty() => p,
                        _ => return self.tokens.unexpected("prefix name"),
                    };
                    let iri = self.iri()?;
                    self.prefixes.insert(name, iri);
                }
                Some(Token::BaseDirective) => {
                    self.tokens.pop();
                    self.base = self.iri()?;
                }
                _ => {
                    self.statement()?;
                    continue;
                }
            }
            // `@prefix` and `@base` require a final dot; SPARQL `PREFIX`
            // and `BASE` forbid it — accept both.
            self.tokens.eat(&Token::Dot);
        }
    }

    fn iri(&mut self) -> Result<String> {
        match self.tokens.pop() {
            Some(Token::Iri(iri)) => Ok(iri),
            _ => self.tokens.unexpected("<iri>"),
        }
    }

    fn statement(&mut self) -> Result<()> {
        let subject = self.term()?;
        loop {
            let predicate = if self.tokens.eat(&Token::A) {
                Term::Iri(RDF_TYPE.to_string())
            } else {
                self.term()?
            };
            loop {
                let object = self.term()?;
                self.triples
                    .push(Triple::new(subject.clone(), predicate.clone(), object));
                if !self.tokens.eat(&Token::Comma) {
                    break;
                }
            }
            // A semicolon before the '.' is legal Turtle.
            if !self.tokens.eat(&Token::Semicolon) || self.tokens.peek() == Some(&Token::Dot) {
                break;
            }
        }
        match self.tokens.pop() {
            Some(Token::Dot) => Ok(()),
            _ => self.tokens.unexpected("'.'"),
        }
    }

    fn term(&mut self) -> Result<Term> {
        match self.tokens.pop() {
            Some(Token::Iri(iri)) => Ok(Term::Iri(self.resolve(iri))),
            Some(Token::PrefixedName(prefix, local)) => match self.prefixes.get(&prefix) {
                Some(base) => Ok(Term::Iri(format!("{base}{local}"))),
                None => self.tokens.err(format!("undeclared prefix '{prefix}:'")),
            },
            Some(Token::Blank(b)) => Ok(Term::Blank(b)),
            Some(Token::Literal(s)) => Ok(Term::Literal(s)),
            _ => self.tokens.unexpected("term"),
        }
    }

    /// Resolve against `@base` for relative IRIs (a pragmatic
    /// concatenation; full RFC 3986 resolution is out of scope).
    fn resolve(&self, iri: String) -> String {
        if self.base.is_empty() || iri.contains("://") || iri.starts_with("urn:") {
            iri
        } else {
            format!("{}{}", self.base, iri)
        }
    }
}

/// Split `input` into tokens, each with the bytes it was read from.
fn tokenize(input: &str) -> Result<Vec<(Token, Range<usize>)>> {
    let mut tokens = Vec::new();
    let mut cursor = Cursor::new(input);
    let fail = |fault| parse_error(input, fault);
    loop {
        cursor.skip_space();
        let start = cursor.pos();
        let Some(c) = cursor.peek_char() else {
            return Ok(tokens);
        };
        let token = match c {
            '.' | ';' | ',' => {
                cursor.bump();
                match c {
                    '.' => Token::Dot,
                    ';' => Token::Semicolon,
                    _ => Token::Comma,
                }
            }
            '<' => Token::Iri(cursor.iri().map_err(fail)?.to_string()),
            '"' => Token::Literal(cursor.literal().map_err(fail)?),
            '_' => {
                cursor.bump();
                if !cursor.eat(b':') {
                    return Err(fail((start, "expected '_:'".into())));
                }
                match cursor.take_while(is_name_char) {
                    "" => return Err(fail((start, "empty blank node label".into()))),
                    label => Token::Blank(label.to_string()),
                }
            }
            '@' => {
                cursor.bump();
                match cursor.take_while(is_name_char) {
                    "prefix" => Token::PrefixDirective,
                    "base" => Token::BaseDirective,
                    other => return Err(fail((start, format!("unknown directive @{other}")))),
                }
            }
            c if c.is_ascii_digit() || c == '+' || c == '-' => {
                let bytes = input.as_bytes();
                let in_number = |at: usize| match bytes.get(at) {
                    Some(b'0'..=b'9' | b'e' | b'E' | b'+' | b'-') => true,
                    // A '.' not followed by a digit is the statement dot.
                    Some(b'.') => bytes.get(at + 1).is_some_and(u8::is_ascii_digit),
                    _ => false,
                };
                cursor.bump();
                while in_number(cursor.pos()) {
                    cursor.bump();
                }
                Token::Literal(input[start..cursor.pos()].to_string())
            }
            c if is_name_char(c) => {
                let word = cursor.take_while(is_name_char);
                if cursor.eat(b':') {
                    let local = cursor.take_while(is_name_char);
                    Token::PrefixedName(word.to_string(), local.to_string())
                } else if word == "a" {
                    Token::A
                } else if word == "true" || word == "false" {
                    Token::Literal(word.to_string())
                } else if word.eq_ignore_ascii_case("prefix") {
                    Token::PrefixDirective
                } else if word.eq_ignore_ascii_case("base") {
                    Token::BaseDirective
                } else {
                    return Err(fail((start, format!("bare word {word:?} is not Turtle"))));
                }
            }
            other => return Err(fail((start, format!("unexpected character {other:?}")))),
        };
        tokens.push((token, start..cursor.pos()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RdfError;

    #[test]
    fn basic_triples() {
        let doc = r#"
            @prefix ex: <http://example.org/> .
            ex:CarlaBunes ex:sponsor ex:A0056 .
            ex:A0056 ex:aTo ex:B1432 .
        "#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(
            triples[0].subject,
            Term::iri("http://example.org/CarlaBunes")
        );
    }

    #[test]
    fn predicate_and_object_lists() {
        let doc = r#"
            @prefix ex: <http://ex.org/> .
            ex:s ex:p ex:o1 , ex:o2 ;
                 ex:q "v" ;
                 a ex:Thing .
        "#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 4);
        assert_eq!(triples[3].predicate, Term::iri(RDF_TYPE));
    }

    #[test]
    fn trailing_semicolon_is_legal() {
        let doc = "@prefix e: <u:> . e:s e:p e:o ; .";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn sparql_style_prefix() {
        let doc = "PREFIX ex: <http://ex.org/>\nex:a ex:p ex:b .";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn base_resolution() {
        let doc = "@base <http://ex.org/> . <a> <p> <b> .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Term::iri("http://ex.org/a"));
        // Absolute IRIs pass through.
        let doc = "@base <http://ex.org/> . <urn:x> <p> <http://y/> .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Term::iri("urn:x"));
        assert_eq!(triples[0].object, Term::iri("http://y/"));
    }

    #[test]
    fn literals_with_annotations() {
        let doc = r#"
            @prefix e: <u:> .
            e:s e:p "plain" .
            e:s e:p "tagged"@en .
            e:s e:p "5"^^<http://www.w3.org/2001/XMLSchema#int> .
            e:s e:p "7"^^e:num .
            e:s e:p 42 .
            e:s e:p -3.25 .
            e:s e:p true .
        "#;
        let triples = parse_turtle(doc).unwrap();
        let values: Vec<&str> = triples.iter().map(|t| t.object.lexical()).collect();
        assert_eq!(
            values,
            vec!["plain", "tagged", "5", "7", "42", "-3.25", "true"]
        );
    }

    #[test]
    fn blank_nodes() {
        let doc = "@prefix e: <u:> . _:b0 e:p _:b1 .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Term::Blank("b0".into()));
        assert_eq!(triples[0].object, Term::Blank("b1".into()));
    }

    #[test]
    fn comments_anywhere() {
        let doc = "# header\n@prefix e: <u:> . # trailing\ne:a e:p e:b . # done";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn number_then_statement_dot() {
        let doc = "@prefix e: <u:> . e:s e:p 42 .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("42"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "@prefix e: <u:> .\ne:s e:p ???";
        match parse_turtle(doc) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_prefix_rejected() {
        assert!(parse_turtle("x:a x:p x:b .").is_err());
    }

    #[test]
    fn missing_dot_rejected() {
        assert!(parse_turtle("@prefix e: <u:> . e:a e:p e:b").is_err());
    }

    #[test]
    fn empty_literal() {
        let doc = "@prefix e: <u:> . e:s e:p \"\" .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal(""));
    }

    #[test]
    fn escaped_quotes_inside_literal() {
        let doc = "@prefix e: <u:> . e:s e:p \"say \\\"hi\\\"\" .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("say \"hi\""));
    }

    #[test]
    fn uchar_escapes() {
        let doc = "@prefix e: <u:> . e:s e:p \"\\u0041\\u00E9\\u2603\" .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("Aé☃"));
        let doc = "@prefix e: <u:> . e:s e:p \"\\U0001F600\" .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].object, Term::literal("😀"));
    }

    #[test]
    fn rejects_bad_uchar() {
        // Short run, non-hex digits, and surrogate code points all
        // fail cleanly instead of panicking.
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"\\u12\" .").is_err());
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"\\uZZZZ\" .").is_err());
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"\\uD800\" .").is_err());
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"\\U00110000\" .").is_err());
    }

    #[test]
    fn unterminated_literal_rejected() {
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"open").is_err());
        // A dangling escape at end of input must not panic.
        assert!(parse_turtle("@prefix e: <u:> . e:s e:p \"open\\").is_err());
    }

    #[test]
    fn roundtrip_into_data_graph() {
        let doc = r#"
            @prefix gov: <http://gov.example/> .
            gov:CarlaBunes gov:sponsor gov:A0056 .
            gov:A0056 gov:aTo gov:B1432 .
            gov:B1432 gov:subject "Health Care" .
        "#;
        let triples = parse_turtle(doc).unwrap();
        let graph = crate::DataGraph::from_triples(&triples).unwrap();
        assert_eq!(graph.edge_count(), 3);
    }
}
