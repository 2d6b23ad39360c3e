//! RDF terms: IRIs, literals, blank nodes, and query variables.
//!
//! Following the paper's Section 3.1, node labels range over
//! `ΣN = U ∪ L` (URIs and literals; plus `VAR` in query graphs) and edge
//! labels over `ΣE = U` (plus `VAR` in query graphs).

use std::fmt;

/// The lexical category of an interned label.
///
/// Stored alongside every interned string so that matching code can
/// distinguish constants from variables without re-parsing the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermKind {
    /// A URI reference identifying a Web resource.
    Iri,
    /// A literal value (string, number, date, ...).
    Literal,
    /// A blank node (`_:b0` style); treated as an unnamed constant.
    Blank,
    /// A query variable (`?v1` style); only legal in query graphs.
    Variable,
}

impl TermKind {
    /// `true` for kinds that denote a fixed value (everything but
    /// [`TermKind::Variable`]).
    #[inline]
    pub fn is_constant(self) -> bool {
        !matches!(self, TermKind::Variable)
    }

    /// The display form of a label of this kind — exactly what
    /// [`Term`]'s `Display` prints (`iri`, `"literal"`, `_:blank`,
    /// `?var`), for callers that hold `(kind, lexical)` and must not
    /// allocate a [`Term`] to render it.
    pub fn display(self, lexical: &str) -> TermDisplay<'_> {
        TermDisplay {
            kind: self,
            lexical,
        }
    }

    /// What [`TermKind::display`] prints before and after the lexical
    /// form, for callers that append to a buffer without formatting.
    #[inline]
    pub fn affixes(self) -> (&'static str, &'static str) {
        match self {
            TermKind::Iri => ("", ""),
            TermKind::Literal => ("\"", "\""),
            TermKind::Blank => ("_:", ""),
            TermKind::Variable => ("?", ""),
        }
    }
}

/// Display adapter returned by [`TermKind::display`].
#[derive(Debug, Clone, Copy)]
pub struct TermDisplay<'a> {
    kind: TermKind,
    lexical: &'a str,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (before, after) = self.kind.affixes();
        f.write_str(before)?;
        f.write_str(self.lexical)?;
        f.write_str(after)
    }
}

/// An owned RDF term: the pre-interning representation used by parsers
/// and builders.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A URI reference, e.g. `http://example.org/sponsor`.
    Iri(String),
    /// A literal value, e.g. `"Carla Bunes"` or `"10/21/94"`.
    Literal(String),
    /// A blank node label, e.g. `b0` (rendered `_:b0`).
    Blank(String),
    /// A query variable name *without* the leading `?`, e.g. `v1`.
    Variable(String),
}

impl Term {
    /// The lexical category of this term.
    #[inline]
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Iri(_) => TermKind::Iri,
            Term::Literal(_) => TermKind::Literal,
            Term::Blank(_) => TermKind::Blank,
            Term::Variable(_) => TermKind::Variable,
        }
    }

    /// The bare lexical form, without quoting or `?`/`_:` sigils.
    #[inline]
    pub fn lexical(&self) -> &str {
        match self {
            Term::Iri(s) | Term::Literal(s) | Term::Blank(s) | Term::Variable(s) => s,
        }
    }

    /// The term of `kind` with lexical form `lexical` — the inverse of
    /// ([`Term::kind`], [`Term::lexical`]).
    pub fn from_parts(kind: TermKind, lexical: &str) -> Term {
        let s = lexical.to_string();
        match kind {
            TermKind::Iri => Term::Iri(s),
            TermKind::Literal => Term::Literal(s),
            TermKind::Blank => Term::Blank(s),
            TermKind::Variable => Term::Variable(s),
        }
    }

    /// `true` if this term is a variable.
    #[inline]
    pub fn is_variable(&self) -> bool {
        matches!(self, Term::Variable(_))
    }

    /// Parse a term from its display form:
    /// `?name` → variable, `_:name` → blank, `"text"` → literal,
    /// anything else → IRI.
    pub fn parse(text: &str) -> Term {
        if let Some(name) = text.strip_prefix('?') {
            Term::Variable(name.to_string())
        } else if let Some(name) = text.strip_prefix("_:") {
            Term::Blank(name.to_string())
        } else if text.len() >= 2 && text.starts_with('"') && text.ends_with('"') {
            Term::Literal(text[1..text.len() - 1].to_string())
        } else {
            Term::Iri(text.to_string())
        }
    }

    /// Convenience constructor for an IRI term.
    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    /// Convenience constructor for a literal term.
    pub fn literal(s: impl Into<String>) -> Term {
        Term::Literal(s.into())
    }

    /// Convenience constructor for a variable term. A leading `?` is
    /// stripped so both `var("x")` and `var("?x")` denote the same variable.
    pub fn var(s: impl Into<String>) -> Term {
        let s: String = s.into();
        let s = s.strip_prefix('?').map(str::to_string).unwrap_or(s);
        Term::Variable(s)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.kind().display(self.lexical()).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for text in ["?v1", "_:b0", "\"Health Care\"", "http://ex.org/sponsor"] {
            let term = Term::parse(text);
            assert_eq!(term.to_string(), text);
        }
    }

    #[test]
    fn parse_kinds() {
        assert_eq!(Term::parse("?x").kind(), TermKind::Variable);
        assert_eq!(Term::parse("_:b").kind(), TermKind::Blank);
        assert_eq!(Term::parse("\"lit\"").kind(), TermKind::Literal);
        assert_eq!(Term::parse("iri").kind(), TermKind::Iri);
    }

    #[test]
    fn var_strips_question_mark() {
        assert_eq!(Term::var("?x"), Term::var("x"));
        assert_eq!(Term::var("x").lexical(), "x");
    }

    #[test]
    fn constant_classification() {
        assert!(TermKind::Iri.is_constant());
        assert!(TermKind::Literal.is_constant());
        assert!(TermKind::Blank.is_constant());
        assert!(!TermKind::Variable.is_constant());
    }

    #[test]
    fn lexical_forms() {
        assert_eq!(Term::iri("a").lexical(), "a");
        assert_eq!(Term::literal("b").lexical(), "b");
        assert_eq!(Term::Blank("c".into()).lexical(), "c");
        assert_eq!(Term::var("d").lexical(), "d");
    }

    #[test]
    fn unterminated_quote_is_iri() {
        // A lone quote or unterminated quote falls back to IRI rather than
        // panicking on slicing.
        assert_eq!(Term::parse("\"").kind(), TermKind::Iri);
        assert_eq!(Term::parse("\"abc").kind(), TermKind::Iri);
    }
}
