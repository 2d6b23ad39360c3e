//! The one lexer for the terms every grammar of this crate shares.
//!
//! A byte cursor over a `&str` reads an IRI and a quoted literal by one
//! rule each, whichever grammar calls it:
//!
//! - an IRI is `<…>`: the text up to the next `>`;
//! - a quoted literal is `"…"` with the escapes `\" \\ \n \r \t`,
//!   `\uXXXX` and `\UXXXXXXXX`; a raw CR or LF inside it is an error;
//! - a literal may carry a language tag `@[A-Za-z0-9-]+` or a datatype
//!   `^^<iri>` / `^^name:name`, read and discarded unresolved: the
//!   similarity measure compares plain labels only.
//!
//! A fault is `(byte offset, message)`; [`parse_error`] makes it the
//! [`RdfError::Parse`] of the line that holds the faulting byte.
//! [`Tokens`] is the token stream the Turtle and SPARQL grammars read,
//! and points its diagnostics the same way.

use crate::error::{RdfError, Result};
use std::ops::Range;

/// A lexer fault: the byte offset it points at and what went wrong.
pub(crate) type Fault = (usize, String);

/// What a term reader returns.
pub(crate) type Lexed<T> = std::result::Result<T, Fault>;

/// `fault` as the parse error of the 1-based line of `input` that holds
/// its byte.
pub(crate) fn parse_error(input: &str, (offset, message): Fault) -> RdfError {
    let line = 1 + input[..offset].matches('\n').count();
    RdfError::Parse { line, message }
}

/// A name character of a prefixed name or a blank-node label.
pub(crate) fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// A position in a text, moved forward by the grammar and the term
/// readers.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; always a character boundary.
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    pub(crate) fn peek_char(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// The unread text.
    pub(crate) fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Steps over the next character.
    pub(crate) fn bump(&mut self) {
        self.pos += self.peek_char().map_or(0, char::len_utf8);
    }

    /// Steps over `b` if it is next.
    pub(crate) fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        self.pos += usize::from(next);
        next
    }

    /// Steps over the longest run of characters that `keep` accepts and
    /// returns it.
    pub(crate) fn take_while(&mut self, keep: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let run = &rest[..rest.find(|c| !keep(c)).unwrap_or(rest.len())];
        self.pos += run.len();
        run
    }

    /// Steps over whitespace and `#` comments, each to the end of its
    /// line.
    pub(crate) fn skip_space(&mut self) {
        loop {
            self.take_while(char::is_whitespace);
            if !self.eat(b'#') {
                return;
            }
            self.take_while(|c| c != '\n');
        }
    }

    /// A fault at the cursor.
    pub(crate) fn fault<T>(&self, message: impl Into<String>) -> Lexed<T> {
        Err((self.pos, message.into()))
    }

    /// `<…>`, the cursor on the `<`: the text between the brackets.
    pub(crate) fn iri(&mut self) -> Lexed<&'a str> {
        let body = &self.text[self.pos + 1..];
        let Some(len) = body.find('>') else {
            return self.fault("unterminated IRI");
        };
        self.pos += len + 2;
        Ok(&body[..len])
    }

    /// `"…"` and its annotation, the cursor on the opening quote: the
    /// literal's value with its escapes decoded.
    pub(crate) fn literal(&mut self) -> Lexed<String> {
        let open = self.pos;
        let unterminated = || (open, "unterminated literal".to_string());
        self.pos += 1;
        let mut value = String::new();
        loop {
            // Bytes that need no decoding are found a run at a time.
            // Every byte that ends a run is ASCII, so each run ends on a
            // character boundary.
            let run = self.rest();
            let len = run
                .bytes()
                .position(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\r'))
                .ok_or_else(unterminated)?;
            // The value grows a character at a time (capacity 8, 16, 32,
            // …), not by one exact-length copy: under glibc's malloc the
            // exact lengths left the heap of the ledger's repeated
            // fixture set-up 5% larger at its peak (EXPERIMENTS.md).
            for c in run[..len].chars() {
                value.push(c);
            }
            self.pos += len;
            match run.as_bytes()[len] {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => self.pos += 1,
                _ => return self.fault("line break in literal"),
            }
            let decoded = match self.peek().ok_or_else(unterminated)? {
                b'u' => self.uchar(4)?,
                b'U' => self.uchar(8)?,
                letter => {
                    let decoded = match letter {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'\n' | b'\r' => return self.fault("line break in literal"),
                        _ => {
                            let c = self.peek_char().expect("a byte is next");
                            return self.fault(format!("unsupported escape \\{c}"));
                        }
                    };
                    self.pos += 1;
                    decoded
                }
            };
            value.push(decoded);
        }
        self.annotation()?;
        Ok(value)
    }

    /// The character of a `\uXXXX` (`digits` 4) or `\UXXXXXXXX` (8)
    /// escape, the cursor on the `u`/`U`. Short digit runs and code
    /// points that are no Unicode scalar value (the surrogate U+D800)
    /// are faults.
    fn uchar(&mut self, digits: usize) -> Lexed<char> {
        let letter = self.peek_char().expect("on the escape letter");
        self.pos += 1;
        let mut code: u32 = 0;
        for _ in 0..digits {
            let Some(d) = self.peek().and_then(|b| char::from(b).to_digit(16)) else {
                return self.fault(format!("\\{letter} escape needs {digits} hex digits"));
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        char::from_u32(code).ok_or_else(|| {
            (
                self.pos - digits - 1,
                format!("\\{letter} escape U+{code:04X} is not a valid character"),
            )
        })
    }

    /// Steps over a language tag or a datatype after a literal.
    fn annotation(&mut self) -> Lexed<()> {
        if self.eat(b'@') {
            if self
                .take_while(|c| c.is_ascii_alphanumeric() || c == '-')
                .is_empty()
            {
                return self.fault("expected language tag after '@'");
            }
        } else if self.rest().starts_with("^^") {
            self.pos += 2;
            if self.peek() == Some(b'<') {
                self.iri()?;
            } else {
                self.take_while(is_name_char);
                if !self.eat(b':') {
                    return self.fault("expected datatype after '^^'");
                }
                self.take_while(is_name_char);
            }
        }
        Ok(())
    }
}

/// The tokens a grammar's tokenizer read, consumed front to back, each
/// with the bytes of the input it was read from.
pub(crate) struct Tokens<'a, T> {
    input: &'a str,
    /// What is left, next token last.
    rest: Vec<(T, Range<usize>)>,
    /// The bytes of the token [`Tokens::pop`] returned last — empty, at
    /// the end of the input, once it returned `None`. Diagnostics point
    /// here.
    at: Range<usize>,
}

impl<'a, T: PartialEq> Tokens<'a, T> {
    pub(crate) fn new(input: &'a str, mut tokens: Vec<(T, Range<usize>)>) -> Self {
        tokens.reverse();
        Tokens {
            input,
            rest: tokens,
            at: 0..0,
        }
    }

    pub(crate) fn peek(&self) -> Option<&T> {
        self.rest.last().map(|(token, _)| token)
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        let (token, at) = match self.rest.pop() {
            Some((token, at)) => (Some(token), at),
            None => (None, self.input.len()..self.input.len()),
        };
        self.at = at;
        token
    }

    /// Pops `token` if it is next.
    pub(crate) fn eat(&mut self, token: &T) -> bool {
        let next = self.peek() == Some(token);
        if next {
            self.pop();
        }
        next
    }

    /// The token popped last, as the input spells it.
    pub(crate) fn written(&self) -> &'a str {
        &self.input[self.at.clone()]
    }

    /// An error about the token popped last.
    pub(crate) fn err<X>(&self, message: String) -> Result<X> {
        Err(parse_error(self.input, (self.at.start, message)))
    }

    /// The token popped last is not the `expected` thing.
    pub(crate) fn unexpected<X>(&self, expected: &str) -> Result<X> {
        let got = match self.written() {
            "" => "end of input",
            written => written,
        };
        self.err(format!("expected {expected}, got {got}"))
    }
}
