//! Synonym expansion for label matching (paper, Section 6.1).
//!
//! The paper extracts "semantically similar entries such as synonyms,
//! hyponyms and hypernyms … from WordNet" to widen the label match
//! during clustering. WordNet is not available offline, so we provide a
//! pluggable [`SynonymProvider`] trait with two implementations: the
//! no-op [`NoSynonyms`] and a [`Thesaurus`] populated explicitly (the
//! dataset generators ship small domain thesauri). The code path
//! exercised — cluster admission via non-identical but related labels —
//! is identical to the paper's.
//!
//! A [`Thesaurus`] can also be loaded from a flat synonyms file
//! ([`Thesaurus::from_file`]) in either of two line formats, decided
//! per line so they can be mixed:
//!
//! * **TSV** — whitespace-separated members of one group:
//!   `professor lecturer faculty`
//! * **JSONL** — a JSON string array per line (for labels containing
//!   spaces): `["Health Care", "Healthcare"]`
//!
//! Blank lines and `#` comments are skipped. Malformed lines produce a
//! typed [`ThesaurusError`] naming the line, never a panic.

use rdf_model::{FxHashMap, FxHashSet};
use std::fmt;
use std::path::Path;

/// Supplies the set of labels considered semantically equivalent to a
/// probe label.
pub trait SynonymProvider: Send + Sync {
    /// All labels related to `label` (not including `label` itself).
    fn synonyms(&self, label: &str) -> Vec<String>;
}

/// A provider with no synonyms: labels match only themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSynonyms;

impl SynonymProvider for NoSynonyms {
    fn synonyms(&self, _label: &str) -> Vec<String> {
        Vec::new()
    }
}

/// An explicit thesaurus: groups of mutually equivalent labels.
///
/// Relations are symmetric and transitive within a group (each `group`
/// call merges all members into one equivalence class).
#[derive(Debug, Clone, Default)]
pub struct Thesaurus {
    /// label → group id.
    membership: FxHashMap<String, u32>,
    /// group id → members.
    groups: Vec<Vec<String>>,
}

impl Thesaurus {
    /// An empty thesaurus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare all `members` mutually synonymous (merging any groups
    /// they already belong to).
    pub fn group<I, S>(&mut self, members: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let members: Vec<String> = members.into_iter().map(Into::into).collect();
        // Collect existing groups to merge.
        let mut target: Option<u32> = None;
        for m in &members {
            if let Some(&g) = self.membership.get(m) {
                target = Some(match target {
                    None => g,
                    Some(t) if t == g => t,
                    Some(t) => {
                        // Merge g into t.
                        let moved = std::mem::take(&mut self.groups[g as usize]);
                        for label in &moved {
                            self.membership.insert(label.clone(), t);
                        }
                        self.groups[t as usize].extend(moved);
                        t
                    }
                });
            }
        }
        let gid = target.unwrap_or_else(|| {
            self.groups.push(Vec::new());
            (self.groups.len() - 1) as u32
        });
        for m in members {
            if self.membership.get(&m) != Some(&gid) {
                self.membership.insert(m.clone(), gid);
                self.groups[gid as usize].push(m);
            }
        }
        self
    }

    /// Number of equivalence classes (merged groups counted once).
    pub fn group_count(&self) -> usize {
        let live: FxHashSet<&u32> = self.membership.values().collect();
        live.len()
    }

    /// Load a thesaurus from a synonyms file (TSV or JSONL lines, see
    /// the module docs).
    ///
    /// # Errors
    /// [`ThesaurusError::Io`] when the file cannot be read,
    /// [`ThesaurusError::Parse`] (with the 1-based line number) on a
    /// malformed line.
    pub fn from_file(path: &Path) -> Result<Self, ThesaurusError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ThesaurusError::Io(format!("{}: {e}", path.display())))?;
        Self::from_str_contents(&text)
    }

    /// Parse synonyms-file contents (see [`Thesaurus::from_file`]).
    ///
    /// # Errors
    /// [`ThesaurusError::Parse`] on a malformed line.
    pub fn from_str_contents(text: &str) -> Result<Self, ThesaurusError> {
        let mut thesaurus = Thesaurus::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parse = |message: &str| ThesaurusError::Parse {
                line: i + 1,
                message: message.to_string(),
            };
            let members: Vec<String> = if line.starts_with('[') {
                parse_json_string_array(line).map_err(&parse)?
            } else {
                line.split_whitespace().map(str::to_string).collect()
            };
            if members.len() < 2 {
                return Err(parse("a synonym group needs at least two members"));
            }
            thesaurus.group(members);
        }
        Ok(thesaurus)
    }
}

/// Minimal JSON string-array parser for JSONL thesaurus lines —
/// deliberately hand-rolled (no JSON dependency in the workspace).
/// Accepts exactly `["a", "b", ...]` with the standard string escapes.
fn parse_json_string_array(line: &str) -> Result<Vec<String>, &'static str> {
    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    }
    let mut chars = line.chars().peekable();
    let mut out = Vec::new();
    if chars.next() != Some('[') {
        return Err("expected '['");
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some(']') if out.is_empty() => {
                chars.next();
                break;
            }
            Some('"') => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated string"),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('/') => s.push('/'),
                            Some('n') => s.push('\n'),
                            Some('t') => s.push('\t'),
                            Some('r') => s.push('\r'),
                            _ => return Err("unsupported escape"),
                        },
                        Some(c) => s.push(c),
                    }
                }
                out.push(s);
                skip_ws(&mut chars);
                match chars.next() {
                    Some(',') => {}
                    Some(']') => break,
                    _ => return Err("expected ',' or ']'"),
                }
            }
            _ => return Err("expected a JSON string"),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after ']'");
    }
    Ok(out)
}

/// Why a synonyms file failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThesaurusError {
    /// The file could not be read.
    Io(String),
    /// A line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for ThesaurusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThesaurusError::Io(e) => write!(f, "cannot read synonyms file: {e}"),
            ThesaurusError::Parse { line, message } => {
                write!(f, "malformed synonyms file (line {line}): {message}")
            }
        }
    }
}

impl std::error::Error for ThesaurusError {}

impl SynonymProvider for Thesaurus {
    fn synonyms(&self, label: &str) -> Vec<String> {
        match self.membership.get(label) {
            None => Vec::new(),
            Some(&g) => self.groups[g as usize]
                .iter()
                .filter(|m| m.as_str() != label)
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `label`'s synonyms, sorted (group order is insertion order).
    fn sorted(provider: &impl SynonymProvider, label: &str) -> Vec<String> {
        let mut synonyms = provider.synonyms(label);
        synonyms.sort();
        synonyms
    }

    #[test]
    fn no_synonyms_matches_identity_only() {
        assert!(NoSynonyms.synonyms("a").is_empty());
    }

    #[test]
    fn thesaurus_groups_are_symmetric() {
        let mut t = Thesaurus::new();
        t.group(["professor", "lecturer", "faculty"]);
        assert_eq!(sorted(&t, "professor"), ["faculty", "lecturer"]);
        assert_eq!(sorted(&t, "lecturer"), ["faculty", "professor"]);
        assert_eq!(sorted(&t, "faculty"), ["lecturer", "professor"]);
        assert!(t.synonyms("student").is_empty());
    }

    #[test]
    fn synonyms_exclude_self() {
        let mut t = Thesaurus::new();
        t.group(["car", "automobile"]);
        let syns = t.synonyms("car");
        assert_eq!(syns, vec!["automobile".to_string()]);
    }

    #[test]
    fn groups_merge_transitively() {
        let mut t = Thesaurus::new();
        t.group(["a", "b"]);
        t.group(["b", "c"]);
        assert_eq!(sorted(&t, "a"), ["b", "c"]);
        assert_eq!(sorted(&t, "c"), ["a", "b"]);
        assert_eq!(t.group_count(), 1);
    }

    #[test]
    fn merging_two_existing_groups() {
        let mut t = Thesaurus::new();
        t.group(["a", "b"]);
        t.group(["c", "d"]);
        assert_eq!(t.group_count(), 2);
        assert_eq!(sorted(&t, "b"), ["a"]);
        t.group(["a", "c"]);
        assert_eq!(sorted(&t, "b"), ["a", "c", "d"]);
        assert_eq!(sorted(&t, "d"), ["a", "b", "c"]);
        assert_eq!(t.group_count(), 1);
    }

    #[test]
    fn unknown_labels_unrelated() {
        let t = Thesaurus::new();
        assert!(t.synonyms("x").is_empty());
    }

    #[test]
    fn loads_tsv_lines() {
        let t = Thesaurus::from_str_contents(
            "# domain thesaurus\nprofessor lecturer faculty\n\ncar automobile\n",
        )
        .unwrap();
        assert_eq!(sorted(&t, "professor"), ["faculty", "lecturer"]);
        assert_eq!(sorted(&t, "car"), ["automobile"]);
        assert_eq!(t.group_count(), 2);
    }

    #[test]
    fn loads_jsonl_lines_with_spaces_and_escapes() {
        let t = Thesaurus::from_str_contents(
            "[\"Health Care\", \"Healthcare\"]\n[\"a\\\"b\", \"c\"]\n",
        )
        .unwrap();
        assert_eq!(sorted(&t, "Health Care"), ["Healthcare"]);
        assert_eq!(sorted(&t, "a\"b"), ["c"]);
    }

    #[test]
    fn mixed_formats_in_one_file() {
        let t = Thesaurus::from_str_contents("x y\n[\"Health Care\", \"HC\"]\n").unwrap();
        assert_eq!(sorted(&t, "x"), ["y"]);
        assert_eq!(sorted(&t, "Health Care"), ["HC"]);
        assert_eq!(t.group_count(), 2);
    }

    #[test]
    fn malformed_lines_are_typed_errors_with_line_numbers() {
        for (text, line) in [
            ("a b\nsingleton\n", 2),
            ("[\"unterminated\n", 1),
            ("ok fine\n[\"a\" \"b\"]\n", 2),
            ("[\"a\", \"b\"] trailing\n", 1),
            ("[\"bad\\q\", \"b\"]\n", 1),
        ] {
            match Thesaurus::from_str_contents(text) {
                Err(ThesaurusError::Parse { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
                other => panic!("{text:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Thesaurus::from_file(Path::new("/nonexistent/syn.tsv")).unwrap_err();
        assert!(matches!(err, ThesaurusError::Io(_)));
        assert!(err.to_string().starts_with("cannot read synonyms file"));
    }
}
