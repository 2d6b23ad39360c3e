//! Label interning.
//!
//! All node and edge labels of a graph are interned into dense `u32`
//! [`LabelId`]s so that the hot alignment and scoring loops compare
//! integers instead of strings. Each graph owns one [`Vocabulary`];
//! cross-graph comparison (query constants against data labels) resolves
//! through the data graph's vocabulary once per query, never per path.

use crate::hash::FxHashMap;
use crate::term::{Term, TermKind};
use std::fmt;

/// A dense identifier for an interned label within one [`Vocabulary`].
///
/// Identifiers are assigned consecutively from zero, so they can index
/// side tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The id as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[inline]
fn kind_slot(kind: TermKind) -> usize {
    match kind {
        TermKind::Iri => 0,
        TermKind::Literal => 1,
        TermKind::Blank => 2,
        TermKind::Variable => 3,
    }
}

/// An interning table mapping labels (lexical form + [`TermKind`]) to
/// dense [`LabelId`]s and back.
///
/// Two terms with the same lexical form but different kinds (e.g. the IRI
/// `x` and the literal `"x"`) intern to *different* ids. Lookups borrow
/// the probe string — no allocation on the read path.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// id → lexical form.
    lexical: Vec<Box<str>>,
    /// id → kind.
    kinds: Vec<TermKind>,
    /// One lexical → id map per [`TermKind`], indexed by [`kind_slot`].
    lookup: [FxHashMap<Box<str>, LabelId>; 4],
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.lexical.len()
    }

    /// `true` if nothing has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lexical.is_empty()
    }

    /// Intern a label given as `(kind, lexical)`, returning its id
    /// (allocating a new one if unseen).
    pub fn intern_parts(&mut self, kind: TermKind, lexical: &str) -> LabelId {
        let slot = kind_slot(kind);
        if let Some(&id) = self.lookup[slot].get(lexical) {
            return id;
        }
        let id = LabelId(self.lexical.len() as u32);
        self.lexical.push(Box::from(lexical));
        self.kinds.push(kind);
        self.lookup[slot].insert(Box::from(lexical), id);
        id
    }

    /// Intern a term, returning its id (allocating a new one if unseen).
    #[inline]
    pub fn intern(&mut self, term: &Term) -> LabelId {
        self.intern_parts(term.kind(), term.lexical())
    }

    /// Append an entry *positionally*, without deduplication: the new id
    /// is always `len()`. Used by deserializers reconstructing a
    /// vocabulary id-for-id, where ids are defined by file position and
    /// must never shift because an earlier entry happened to repeat. If
    /// the `(kind, lexical)` pair was already present, the first entry
    /// keeps winning lookups.
    pub fn push_raw(&mut self, kind: TermKind, lexical: &str) -> LabelId {
        let id = LabelId(self.lexical.len() as u32);
        self.lexical.push(Box::from(lexical));
        self.kinds.push(kind);
        self.lookup[kind_slot(kind)]
            .entry(Box::from(lexical))
            .or_insert(id);
        id
    }

    /// Look up a term without interning it.
    #[inline]
    pub fn get(&self, term: &Term) -> Option<LabelId> {
        self.get_parts(term.kind(), term.lexical())
    }

    /// Look up a `(kind, lexical)` pair without interning it.
    #[inline]
    pub fn get_parts(&self, kind: TermKind, lexical: &str) -> Option<LabelId> {
        self.lookup[kind_slot(kind)].get(lexical).copied()
    }

    /// Look up a *constant* label by lexical form, trying IRI, literal and
    /// blank kinds in that order. Used when matching a query constant
    /// against a data vocabulary where the kind may differ (e.g. a query
    /// literal naming a data IRI).
    pub fn get_constant(&self, lexical: &str) -> Option<LabelId> {
        [TermKind::Iri, TermKind::Literal, TermKind::Blank]
            .into_iter()
            .find_map(|kind| self.get_parts(kind, lexical))
    }

    /// The lexical form of an interned label.
    #[inline]
    pub fn lexical(&self, id: LabelId) -> &str {
        &self.lexical[id.index()]
    }

    /// The kind of an interned label.
    #[inline]
    pub fn kind(&self, id: LabelId) -> TermKind {
        self.kinds[id.index()]
    }

    /// `true` if the label is a constant (not a variable).
    #[inline]
    pub fn is_constant(&self, id: LabelId) -> bool {
        self.kind(id).is_constant()
    }

    /// Reconstruct the owned [`Term`] for an id.
    pub fn term(&self, id: LabelId) -> Term {
        Term::from_parts(self.kind(id), self.lexical(id))
    }

    /// Iterate over all `(id, kind, lexical)` entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, TermKind, &str)> + '_ {
        self.lexical
            .iter()
            .zip(self.kinds.iter())
            .enumerate()
            .map(|(i, (lex, &kind))| (LabelId(i as u32), kind, lex.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern(&Term::iri("sponsor"));
        let b = v.intern(&Term::iri("sponsor"));
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn kind_disambiguates() {
        let mut v = Vocabulary::new();
        let iri = v.intern(&Term::iri("x"));
        let lit = v.intern(&Term::literal("x"));
        assert_ne!(iri, lit);
        assert_eq!(v.lexical(iri), "x");
        assert_eq!(v.lexical(lit), "x");
        assert_eq!(v.kind(iri), TermKind::Iri);
        assert_eq!(v.kind(lit), TermKind::Literal);
    }

    #[test]
    fn get_without_interning() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get(&Term::iri("a")), None);
        let id = v.intern(&Term::iri("a"));
        assert_eq!(v.get(&Term::iri("a")), Some(id));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn get_constant_tries_all_kinds() {
        let mut v = Vocabulary::new();
        let lit = v.intern(&Term::literal("Health Care"));
        assert_eq!(v.get_constant("Health Care"), Some(lit));
        let iri = v.intern(&Term::iri("Health Care"));
        // IRI kind wins when both exist.
        assert_eq!(v.get_constant("Health Care"), Some(iri));
        assert_eq!(v.get_constant("absent"), None);
    }

    #[test]
    fn variables_are_not_constants() {
        let mut v = Vocabulary::new();
        let var = v.intern(&Term::var("x"));
        assert!(!v.is_constant(var));
        assert_eq!(v.get_constant("x"), None);
    }

    #[test]
    fn term_roundtrip() {
        let mut v = Vocabulary::new();
        for term in [
            Term::iri("a"),
            Term::literal("b"),
            Term::Blank("c".into()),
            Term::var("d"),
        ] {
            let id = v.intern(&term);
            assert_eq!(v.term(id), term);
        }
    }

    #[test]
    fn push_raw_is_positional_and_first_wins() {
        let mut v = Vocabulary::new();
        let a = v.push_raw(TermKind::Iri, "x");
        let b = v.push_raw(TermKind::Iri, "x"); // duplicate: new slot, old lookup
        assert_eq!(a, LabelId(0));
        assert_eq!(b, LabelId(1));
        assert_eq!(v.len(), 2);
        assert_eq!(v.lexical(b), "x");
        assert_eq!(v.get(&Term::iri("x")), Some(a));
    }

    #[test]
    fn ids_are_dense() {
        let mut v = Vocabulary::new();
        let ids: Vec<_> = (0..10)
            .map(|i| v.intern(&Term::iri(format!("n{i}"))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert_eq!(v.iter().count(), 10);
    }
}
