//! A SPARQL basic-graph-pattern parser.
//!
//! The paper's workloads are "12 queries in SPARQL of different
//! complexities" — plain conjunctive triple patterns. This module parses
//! exactly that fragment:
//!
//! ```sparql
//! PREFIX ub: <http://lubm.example.org/>
//! SELECT ?x ?y WHERE {
//!   ?x ub:advisor ?y .
//!   ?y ub:worksFor <Department0> .
//!   ?x ub:name "Alice" .
//! }
//! ```
//!
//! Supported: `PREFIX` declarations, `SELECT` with an explicit variable
//! list or `*`, a `WHERE` block of triple patterns separated by `.`,
//! terms as `<iri>`, `prefix:name`, `?var`, `"literal"`, or bare
//! identifiers (treated as IRIs, convenient for tests). IRIs and
//! literals are read by [`crate::lex`], as in the data parsers, so a
//! literal copied from a data file (escapes, `@lang`, `^^datatype`)
//! names the label the data holds. Not supported
//! (out of the paper's scope): `FILTER`, `OPTIONAL`, `UNION`, property
//! paths, blank-node syntax sugar.

use crate::error::Result;
use crate::hash::FxHashMap;
use crate::lex::{parse_error, Cursor, Tokens};
use crate::query::QueryGraph;
use crate::term::Term;
use crate::triple::Triple;
use std::ops::Range;

/// A parsed SPARQL query: the projection list and the basic graph
/// pattern, plus the [`QueryGraph`] assembled from the pattern.
#[derive(Debug, Clone)]
pub struct SparqlQuery {
    /// Projected variable names (without `?`); empty means `SELECT *`.
    pub projection: Vec<String>,
    /// The triple patterns of the WHERE block, in source order.
    pub patterns: Vec<Triple>,
    /// The query graph built from `patterns`.
    pub graph: QueryGraph,
}

/// Parse a SPARQL SELECT query over a basic graph pattern.
pub fn parse_sparql(input: &str) -> Result<SparqlQuery> {
    let mut tokens = Tokens::new(input, tokenize(input)?);

    let mut prefixes: FxHashMap<String, String> = FxHashMap::default();
    while matches!(tokens.peek(), Some(Token::Keyword(k)) if k == "PREFIX") {
        tokens.pop();
        let name = match tokens.pop() {
            Some(Token::PrefixedName(p, n)) if n.is_empty() => p,
            _ => return tokens.unexpected("prefix name"),
        };
        let iri = match tokens.pop() {
            Some(Token::Iri(iri)) => iri,
            _ => return tokens.unexpected("<iri> after PREFIX"),
        };
        prefixes.insert(name, iri);
    }

    expect_keyword(&mut tokens, "SELECT")?;
    let mut projection = Vec::new();
    loop {
        match tokens.pop() {
            Some(Token::Variable(v)) => projection.push(v),
            Some(Token::Star) => {
                expect_keyword(&mut tokens, "WHERE")?;
                break;
            }
            Some(Token::Keyword(k)) if k == "WHERE" => break,
            _ => return tokens.unexpected("?var, * or WHERE"),
        }
    }

    match tokens.pop() {
        Some(Token::OpenBrace) => {}
        _ => return tokens.unexpected("'{' after WHERE"),
    }

    let mut patterns = Vec::new();
    while !matches!(tokens.peek(), Some(Token::CloseBrace) | None) {
        let s = term(&mut tokens, &prefixes)?;
        let p = term(&mut tokens, &prefixes)?;
        let o = term(&mut tokens, &prefixes)?;
        patterns.push(Triple::new(s, p, o));
        // Triple separator: '.', optional before '}'.
        tokens.eat(&Token::Dot);
    }
    if tokens.pop().is_none() {
        return tokens.err("unexpected end of query; missing '}'".to_string());
    }
    if tokens.pop().is_some() {
        return tokens.err(format!("trailing content after '}}': {}", tokens.written()));
    }

    let graph = QueryGraph::from_triples(&patterns)?;
    Ok(SparqlQuery {
        projection,
        patterns,
        graph,
    })
}

fn expect_keyword(tokens: &mut Tokens<'_, Token>, kw: &str) -> Result<()> {
    match tokens.pop() {
        Some(Token::Keyword(k)) if k == kw => Ok(()),
        _ => tokens.unexpected(kw),
    }
}

fn term(tokens: &mut Tokens<'_, Token>, prefixes: &FxHashMap<String, String>) -> Result<Term> {
    match tokens.pop() {
        Some(Token::Iri(iri)) => Ok(Term::Iri(iri)),
        Some(Token::Variable(v)) => Ok(Term::Variable(v)),
        Some(Token::Literal(s)) => Ok(Term::Literal(s)),
        Some(Token::PrefixedName(p, n)) => match prefixes.get(&p) {
            Some(base) => Ok(Term::Iri(format!("{base}{n}"))),
            None if n.is_empty() => Ok(Term::Iri(p)), // bare identifier
            None => tokens.err(format!("undeclared prefix '{p}:'")),
        },
        _ => tokens.unexpected("term"),
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Keyword(String),
    Iri(String),
    Variable(String),
    Literal(String),
    /// `name:local`; `local` may be empty (then it's a bare identifier or
    /// a prefix declaration name).
    PrefixedName(String, String),
    OpenBrace,
    CloseBrace,
    Dot,
    Star,
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
            '{' | '}' | '.' | '*' => {
                cursor.bump();
                match c {
                    '{' => Token::OpenBrace,
                    '}' => Token::CloseBrace,
                    '.' => Token::Dot,
                    _ => Token::Star,
                }
            }
            '<' => Token::Iri(cursor.iri().map_err(fail)?.to_string()),
            '"' => Token::Literal(cursor.literal().map_err(fail)?),
            '?' | '$' => {
                cursor.bump();
                match cursor.take_while(is_identifier_char) {
                    "" => return Err(fail((start, "empty variable name".into()))),
                    name => Token::Variable(name.to_string()),
                }
            }
            c if is_identifier_char(c) => {
                let word = cursor.take_while(is_identifier_char);
                let upper = word.to_ascii_uppercase();
                if upper == "SELECT" || upper == "WHERE" || upper == "PREFIX" {
                    Token::Keyword(upper)
                } else if cursor.eat(b':') {
                    let local = cursor.take_while(is_identifier_char);
                    Token::PrefixedName(word.to_string(), local.to_string())
                } else {
                    Token::PrefixedName(word.to_string(), String::new())
                }
            }
            other => return Err(fail((start, format!("unexpected character {other:?}")))),
        };
        tokens.push((token, start..cursor.pos()));
    }
}

fn is_identifier_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-' || c == '/'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1_style_query() {
        let q = parse_sparql(
            r#"SELECT ?v1 ?v2 ?v3 WHERE {
                <CarlaBunes> <sponsor> ?v1 .
                ?v1 <aTo> ?v2 .
                ?v2 <subject> "Health Care" .
                ?v3 <sponsor> ?v2 .
                ?v3 <gender> "Male" .
            }"#,
        )
        .unwrap();
        assert_eq!(q.projection, vec!["v1", "v2", "v3"]);
        assert_eq!(q.patterns.len(), 5);
        assert_eq!(q.graph.node_count(), 6);
        assert_eq!(q.graph.variable_count(), 3);
    }

    #[test]
    fn prefix_expansion() {
        let q = parse_sparql(
            "PREFIX ub: <http://lubm.org/> SELECT ?x WHERE { ?x ub:advisor ub:Prof0 . }",
        )
        .unwrap();
        assert_eq!(
            q.patterns[0].predicate,
            Term::iri("http://lubm.org/advisor")
        );
        assert_eq!(q.patterns[0].object, Term::iri("http://lubm.org/Prof0"));
    }

    #[test]
    fn select_star() {
        let q = parse_sparql("SELECT * WHERE { ?x <p> ?y . }").unwrap();
        assert!(q.projection.is_empty());
        assert_eq!(q.graph.variable_count(), 2);
    }

    #[test]
    fn bare_identifiers_are_iris() {
        let q = parse_sparql("SELECT ?x WHERE { ?x sponsor CarlaBunes . }").unwrap();
        assert_eq!(q.patterns[0].predicate, Term::iri("sponsor"));
        assert_eq!(q.patterns[0].object, Term::iri("CarlaBunes"));
    }

    #[test]
    fn final_dot_optional() {
        let q = parse_sparql("SELECT ?x WHERE { ?x <p> <a> }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn comments_ignored() {
        let q = parse_sparql("SELECT ?x WHERE { # match anything\n ?x <p> <a> . }").unwrap();
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn undeclared_prefix_rejected() {
        assert!(parse_sparql("SELECT ?x WHERE { ?x nope:advisor <a> . }").is_err());
    }

    #[test]
    fn missing_brace_rejected() {
        assert!(parse_sparql("SELECT ?x WHERE { ?x <p> <a> .").is_err());
        // Diagnostics quote the token as written, `end of input` when
        // there is none, and the 1-based line either is on.
        for (input, want) in [
            (
                "SELEC ?x WHERE { ?x <p> <a> . }",
                "parse error at line 1: expected SELECT, got SELEC",
            ),
            (
                "SELECT ?x\nWHERE {\n  ?x <p> }",
                "parse error at line 3: expected term, got }",
            ),
            (
                "select ?x\nwhere { ?x p\n\"a b\" . } where",
                "parse error at line 3: trailing content after '}': where",
            ),
            (
                "SELECT ?x WHERE {\n ?x ub:p <a> }",
                "parse error at line 2: undeclared prefix 'ub:'",
            ),
            (
                "# comment\nSELECT ?x WHERE\n",
                "parse error at line 3: expected '{' after WHERE, got end of input",
            ),
            (
                "SELECT ?x WHERE {\n ?x <p> <a> .\n",
                "parse error at line 3: unexpected end of query; missing '}'",
            ),
            (
                "PREFIX ub: \"x\"",
                "parse error at line 1: expected <iri> after PREFIX, got \"x\"",
            ),
            (
                "SELECT ?x WHERE {\n ?x <p> \"a\\qb\" }",
                "parse error at line 2: unsupported escape \\q",
            ),
            (
                "SELECT ?x WHERE {\n\n ?x <p> <a }",
                "parse error at line 3: unterminated IRI",
            ),
        ] {
            let got = parse_sparql(input).unwrap_err().to_string();
            assert_eq!(got, want, "{input:?}");
        }
    }

    #[test]
    fn variable_edge_labels() {
        // Query Q2 of the paper uses a variable edge ?e1.
        let q = parse_sparql(r#"SELECT ?v2 WHERE { ?v3 ?e1 ?v2 . ?v2 <subject> "Health Care" . }"#)
            .unwrap();
        assert_eq!(q.graph.variable_count(), 3);
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_sparql("SELECT ?x WHERE { ?x <p> <a> . } garbage").is_err());
    }

    #[test]
    fn dollar_variables_accepted() {
        let q = parse_sparql("SELECT $x WHERE { $x <p> <a> . }").unwrap();
        assert_eq!(q.projection, vec!["x"]);
    }
}
