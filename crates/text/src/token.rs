//! Tweet tokenization.
//!
//! Tweets are not newswire: they carry hashtags, @-mentions, URLs and loose
//! punctuation. The tokenizer keeps hashtags and mentions as single tokens
//! (they are entity candidates), drops URLs, and preserves the original
//! casing (the NER chunker needs it) while exposing a lowercase view.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use crate::stopwords::is_stopword;

/// The lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TokenKind {
    /// An ordinary word.
    Word,
    /// A `#hashtag` (leading `#` stripped in [`Token::text`]).
    Hashtag,
    /// A `@mention` (leading `@` stripped in [`Token::text`]).
    Mention,
    /// A number.
    Number,
}

/// One token with its original casing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// The token text, original case, sigils stripped.
    pub text: String,
    /// Lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Lowercase view of the token text.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// Whether the token starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(char::is_uppercase)
    }
}

/// Tokenizes a tweet. URLs are dropped; punctuation splits tokens; hashtags
/// and mentions survive as single tokens with their sigil recorded in
/// [`TokenKind`].
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    for_each_token(text, &mut String::new(), |t, kind| {
        tokens.push(Token { text: t.to_string(), kind });
    });
    tokens
}

/// The tokenizer behind both [`tokenize`] and [`with_tokens`]: visits each
/// token's text and kind in order. Words and numbers are slices of `text`;
/// hashtag and mention bodies are copied into `buf` with their punctuation
/// stripped.
fn for_each_token(text: &str, buf: &mut String, mut visit: impl FnMut(&str, TokenKind)) {
    for raw in text.split_whitespace() {
        if is_url(raw) {
            continue;
        }
        let (kind, body) = match raw.chars().next() {
            Some('#') => (TokenKind::Hashtag, &raw[1..]),
            Some('@') => (TokenKind::Mention, &raw[1..]),
            _ => (TokenKind::Word, raw),
        };
        if kind != TokenKind::Word {
            // Hashtags/mentions: strip trailing punctuation, keep one token.
            buf.clear();
            buf.extend(body.chars().filter(|c| c.is_alphanumeric() || *c == '_'));
            if !buf.is_empty() {
                visit(buf, kind);
            }
            continue;
        }
        // Ordinary text: split on anything that is not alphanumeric or an
        // apostrophe (keep "don't" together), then trim apostrophes.
        for piece in body.split(|c: char| !c.is_alphanumeric() && c != '\'') {
            let piece = piece.trim_matches('\'');
            if piece.is_empty() {
                continue;
            }
            let kind = if piece.chars().all(|c| c.is_ascii_digit()) {
                TokenKind::Number
            } else {
                TokenKind::Word
            };
            visit(piece, kind);
        }
    }
}

/// A tweet tokenized once for entity recognition, in buffers that are
/// reused from text to text (see [`with_tokens`]).
///
/// The token texts are stored joined by single spaces, once in original
/// case and once lowercased, so a run of consecutive tokens is one slice of
/// each: the lowercase slice is a gazetteer phrase key, and the same bytes
/// with `_` separators (the `ids` buffer) are the run's canonical entity id.
/// No token contains whitespace or, outside hashtags and mentions, `_`.
#[derive(Debug, Default)]
pub struct Tokens {
    pub(crate) spans: Vec<TokenSpan>,
    /// Original-case token texts joined by `' '`.
    pub(crate) surface: String,
    /// Lowercase token texts joined by `' '`.
    pub(crate) lower: String,
    /// `lower` with `'_'` separators.
    pub(crate) ids: String,
    /// Scratch for hashtag and mention bodies while tokenizing.
    sigil_body: String,
    /// Per-scan state of [`crate::EntityRecognizer::scan`].
    pub(crate) consumed: Vec<bool>,
    /// `ids` ranges already reported by the current scan.
    pub(crate) seen: Vec<(usize, usize)>,
}

/// Where one token sits in the [`Tokens`] buffers. `lower` ranges index
/// both `lower` and `ids`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenSpan {
    pub(crate) surface: (usize, usize),
    pub(crate) lower: (usize, usize),
    pub(crate) kind: TokenKind,
    /// A capitalized word that is not a stop word: a candidate for the
    /// recognizer's capitalized-chunk pass.
    pub(crate) chunkable: bool,
}

impl Tokens {
    /// Tokenizes `text`, replacing the previous contents.
    fn fill(&mut self, text: &str) {
        let Tokens { spans, surface, lower, ids, sigil_body, .. } = self;
        spans.clear();
        surface.clear();
        lower.clear();
        ids.clear();
        for_each_token(text, sigil_body, |t, kind| {
            if !spans.is_empty() {
                surface.push(' ');
                lower.push(' ');
                ids.push('_');
            }
            let s0 = surface.len();
            surface.push_str(t);
            let l0 = lower.len();
            push_lowercase(lower, t);
            ids.push_str(&lower[l0..]);
            let capitalized = t.chars().next().is_some_and(char::is_uppercase);
            spans.push(TokenSpan {
                surface: (s0, surface.len()),
                lower: (l0, lower.len()),
                kind,
                chunkable: kind == TokenKind::Word && capitalized && !is_stopword(&lower[l0..]),
            });
        });
    }
}

/// Runs `f` on `text` tokenized into this thread's reusable [`Tokens`], so
/// recognition allocates nothing for its tokens once the buffers are warm.
/// A nested call on the same thread gets a fresh `Tokens`.
pub fn with_tokens<R>(text: &str, f: impl FnOnce(&mut Tokens) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Tokens> = RefCell::new(Tokens::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut tokens) => {
            tokens.fill(text);
            let out = f(&mut tokens);
            // Do not pin an outsized text's buffers to the thread.
            if tokens.surface.capacity() > MAX_KEPT_BYTES {
                *tokens = Tokens::default();
            }
            out
        }
        Err(_) => {
            let mut tokens = Tokens::default();
            tokens.fill(text);
            f(&mut tokens)
        }
    })
}

/// Largest token buffer [`with_tokens`] keeps between texts.
const MAX_KEPT_BYTES: usize = 1 << 16;

/// Appends `t.to_lowercase()` to `out`. ASCII is lowercased in place; other
/// text char by char, which is the same mapping except for a capital sigma,
/// whose lowercase depends on its neighbours (that rare case allocates).
fn push_lowercase(out: &mut String, t: &str) {
    if t.is_ascii() {
        let start = out.len();
        out.push_str(t);
        out[start..].make_ascii_lowercase();
    } else if t.contains('\u{3a3}') {
        out.push_str(&t.to_lowercase());
    } else {
        out.extend(t.chars().flat_map(char::to_lowercase));
    }
}

/// Lowercase word list of a tweet (the view bag-of-words models use).
pub fn lower_words(text: &str) -> Vec<String> {
    tokenize(text).iter().map(Token::lower).collect()
}

fn is_url(tok: &str) -> bool {
    tok.starts_with("http://") || tok.starts_with("https://") || tok.starts_with("www.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_words() {
        let toks = tokenize("hello world");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].text, "hello");
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn hashtags_and_mentions_kept_whole() {
        let toks = tokenize("#covid19 spreading, says @PhantomOpera!");
        assert_eq!(toks[0], Token { text: "covid19".into(), kind: TokenKind::Hashtag });
        assert_eq!(
            toks.last().unwrap(),
            &Token { text: "PhantomOpera".into(), kind: TokenKind::Mention }
        );
    }

    #[test]
    fn urls_are_dropped() {
        let toks = tokenize("look https://t.co/abc123 here www.example.com now");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["look", "here", "now"]);
    }

    #[test]
    fn punctuation_splits_words() {
        let toks = tokenize("quarantine...business!Great");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["quarantine", "business", "Great"]);
    }

    #[test]
    fn apostrophes_survive_inside_words() {
        let toks = tokenize("they're done with 'this'");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["they're", "done", "with", "this"]);
    }

    #[test]
    fn numbers_are_typed() {
        let toks = tokenize("wave 2 hits 2020");
        assert_eq!(toks[1].kind, TokenKind::Number);
        assert_eq!(toks[3].kind, TokenKind::Number);
        assert_eq!(toks[0].kind, TokenKind::Word);
    }

    #[test]
    fn capitalization_detection() {
        let toks = tokenize("Majestic theatre");
        assert!(toks[0].is_capitalized());
        assert!(!toks[1].is_capitalized());
    }

    #[test]
    fn empty_and_symbol_only_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ... ###").is_empty());
        assert!(tokenize("@").is_empty());
    }

    #[test]
    fn lower_words_view() {
        assert_eq!(lower_words("Broadway SHOW"), vec!["broadway", "show"]);
    }

    #[test]
    fn unicode_text_survives() {
        let toks = tokenize("café über #naïve");
        assert_eq!(toks[0].text, "café");
        assert_eq!(toks[2].text, "naïve");
        assert_eq!(toks[2].kind, TokenKind::Hashtag);
    }
}
