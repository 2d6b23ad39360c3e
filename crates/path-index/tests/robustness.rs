//! Robustness of the thesaurus loader, a text boundary fed by whoever
//! writes the `--synonyms` file: arbitrary input never panics, and what
//! is refused is refused with a typed error that names a line of the
//! input.

use path_index::{Thesaurus, ThesaurusError};
use proptest::prelude::*;

/// `Ok`, or a `Parse` error pointing inside `text` — never `Io` (no
/// file is involved) and never a panic.
fn loads_or_names_a_line(text: &str) {
    match Thesaurus::from_str_contents(text) {
        Ok(_) => {}
        Err(ThesaurusError::Parse { line, message }) => {
            assert!(
                (1..=text.lines().count()).contains(&line),
                "line {line} of {text:?}"
            );
            assert!(!message.is_empty(), "{text:?}");
        }
        Err(ThesaurusError::Io(e)) => panic!("{text:?} gave an I/O error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any lines at all.
    #[test]
    fn thesaurus_loader_never_panics(lines in proptest::collection::vec(".{0,60}", 0..8)) {
        loads_or_names_a_line(&lines.join("\n"));
    }

    /// Structured garbage built from the pieces of both line formats
    /// (whitespace-separated groups and JSON string arrays) reaches the
    /// array parser's deeper states: escapes, missing commas, trailing
    /// text, unterminated strings.
    #[test]
    fn tokenish_garbage_never_panics(
        tokens in proptest::collection::vec(
            prop_oneof![
                Just("["),
                Just("\n["),
                Just("\n[\"a\", "),
                Just("]"),
                Just("\""),
                Just(","),
                Just("\"a b\""),
                Just("\"c\""),
                Just("word"),
                Just("é"),
                Just(" "),
                Just("\t"),
                Just("\n"),
                Just("\r\n"),
                Just("#"),
                Just("\\"),
                Just("\\\""),
                Just("\\n"),
                Just("\\u00e9"),
                Just("\\ud800"),
                Just("\\u12"),
                Just("\\q"),
            ],
            0..24,
        )
    ) {
        loads_or_names_a_line(&tokens.concat());
    }
}
