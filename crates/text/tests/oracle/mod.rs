//! Reference recognizer and text generator for the recognizer equivalence
//! tests, shared by the `edge-text` and `edge-core` test targets.
//!
//! [`Oracle::recognize`] is the recognizer as first written: a gazetteer
//! keyed by `Vec<String>` token sequences, a `String` per lowercase token,
//! and a length loop bounded by the longest phrase. It is kept only to check
//! the compiled scan against.
#![allow(dead_code)]

use std::collections::HashMap;

use edge_text::{
    canonical_id, is_stopword, tokenize, EntityCategory, EntityMention, EntityRecognizer, Token,
    TokenKind,
};

/// The reference recognizer.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    gazetteer: HashMap<Vec<String>, EntityCategory>,
    max_phrase_len: usize,
}

impl Oracle {
    pub fn with_gazetteer<'a>(
        entries: impl IntoIterator<Item = (&'a str, EntityCategory)>,
    ) -> Self {
        let mut o = Oracle::default();
        for (surface, cat) in entries {
            o.add_gazetteer_entry(surface, cat);
        }
        o
    }

    /// The oracle over a recognizer's gazetteer, read back through its
    /// serialized `(surface, category)` entries.
    pub fn of(recognizer: &EntityRecognizer) -> Self {
        let value = serde::Serialize::to_value(recognizer);
        let entries: Vec<(String, EntityCategory)> =
            serde::Deserialize::from_value(value.get("entries").expect("entries"))
                .expect("recognizer entries");
        Oracle::with_gazetteer(entries.iter().map(|(s, c)| (s.as_str(), *c)))
    }

    fn add_gazetteer_entry(&mut self, surface: &str, category: EntityCategory) {
        let key: Vec<String> =
            surface.to_lowercase().split_whitespace().map(String::from).collect();
        if key.is_empty() {
            return;
        }
        self.max_phrase_len = self.max_phrase_len.max(key.len());
        self.gazetteer.insert(key, category);
    }

    pub fn merge(&mut self, other: &Oracle) {
        for (toks, cat) in &other.gazetteer {
            self.max_phrase_len = self.max_phrase_len.max(toks.len());
            self.gazetteer.entry(toks.clone()).or_insert(*cat);
        }
    }

    fn lookup(&self, toks: &[String]) -> Option<EntityCategory> {
        self.gazetteer.get(toks).copied()
    }

    pub fn recognize(&self, text: &str) -> Vec<EntityMention> {
        let tokens = tokenize(text);
        let mut mentions: Vec<EntityMention> = Vec::new();
        let push = |m: EntityMention, mentions: &mut Vec<EntityMention>| {
            if !mentions.iter().any(|e| e.id == m.id) {
                mentions.push(m);
            }
        };

        let lower: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mut consumed = vec![false; tokens.len()];

        // Pass 1: hashtags and mentions.
        for (i, tok) in tokens.iter().enumerate() {
            match tok.kind {
                TokenKind::Hashtag | TokenKind::Mention => {
                    consumed[i] = true;
                    let id = canonical_id(&tok.text);
                    let category = self
                        .lookup(std::slice::from_ref(&lower[i]))
                        .unwrap_or(EntityCategory::Other);
                    let sigil = if tok.kind == TokenKind::Hashtag { "#" } else { "@" };
                    push(
                        EntityMention { id, surface: format!("{sigil}{}", tok.text), category },
                        &mut mentions,
                    );
                }
                _ => {}
            }
        }

        // Pass 2: greedy longest gazetteer match.
        if self.max_phrase_len > 0 {
            let mut i = 0;
            while i < tokens.len() {
                if consumed[i] {
                    i += 1;
                    continue;
                }
                let mut matched = 0;
                let mut matched_cat = EntityCategory::Other;
                let max_len = self.max_phrase_len.min(tokens.len() - i);
                for len in (1..=max_len).rev() {
                    if (i..i + len).any(|j| consumed[j]) {
                        continue;
                    }
                    if let Some(cat) = self.lookup(&lower[i..i + len]) {
                        matched = len;
                        matched_cat = cat;
                        break;
                    }
                }
                if matched > 0 {
                    let surface = tokens[i..i + matched]
                        .iter()
                        .map(|t| t.text.as_str())
                        .collect::<Vec<_>>()
                        .join(" ");
                    for c in consumed.iter_mut().skip(i).take(matched) {
                        *c = true;
                    }
                    push(
                        EntityMention {
                            id: canonical_id(&surface),
                            surface,
                            category: matched_cat,
                        },
                        &mut mentions,
                    );
                    i += matched;
                } else {
                    i += 1;
                }
            }
        }

        // Pass 3: capitalized chunking for out-of-gazetteer entities.
        let mut i = 0;
        while i < tokens.len() {
            let is_candidate = |j: usize| {
                !consumed[j]
                    && tokens[j].kind == TokenKind::Word
                    && tokens[j].is_capitalized()
                    && !is_stopword(&lower[j])
            };
            if !is_candidate(i) {
                i += 1;
                continue;
            }
            let mut end = i + 1;
            while end < tokens.len() && is_candidate(end) {
                end += 1;
            }
            let chunk_len = end - i;
            if i == 0 && chunk_len == 1 {
                i = end;
                continue;
            }
            let surface =
                tokens[i..end].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
            for c in consumed.iter_mut().skip(i).take(chunk_len) {
                *c = true;
            }
            push(
                EntityMention {
                    id: canonical_id(&surface),
                    surface,
                    category: EntityCategory::Other,
                },
                &mut mentions,
            );
            i = end;
        }

        mentions
    }
}

/// Pieces the generator draws besides the caller's words: stop words,
/// sentence-case words, numbers, URLs, apostrophes, hashtags and mentions
/// with trailing punctuation, and non-ASCII forms (a word-final capital
/// sigma, dotted capital I, accents, the Kelvin sign).
const PIECES: &[&str] = &[
    "the",
    "The",
    "and",
    "I'm",
    "like",
    "LIKE",
    "li\u{212a}e",
    "great",
    "Great",
    "show",
    "tonight",
    "Tonight",
    "2020",
    "42nd",
    "don't",
    "'quoted'",
    "rock'n'roll",
    "https://t.co/abc",
    "www.example.com",
    "http://x.y/z?q=1",
    "#covid19!!",
    "#Covid19.",
    "#new_york,",
    "@PhantomOpera:",
    "@",
    "#",
    "#!!",
    "@_",
    "\u{3a3}\u{399}\u{3a3}",
    "\u{39f}\u{394}\u{39f}\u{3a3}",
    "\u{130}stanbul",
    "caf\u{e9}",
    "Caf\u{e9}",
    "na\u{ef}ve",
    "\u{dc}ber",
    "stra\u{df}e",
    "...",
    "!",
    "-",
    "&amp;",
    "\u{1f600}",
    "x_y",
    "A",
    "Z",
];

/// Separators placed after a piece.
const SEPARATORS: &[&str] = &[" ", " ", " ", "  ", ", ", "! ", ". ", "\t", "'", "-", "", "\n"];

/// Builds a tweet-like text from `(piece, mutation, separator)` draws. Draws
/// index `words` (gazetteer surfaces and their prefixes, supplied by the
/// test) or [`PIECES`], modulo their lengths.
pub fn compose(words: &[String], draws: &[(usize, usize, usize)]) -> String {
    let mut text = String::new();
    let mut previous = String::new();
    for &(piece, mutation, sep) in draws {
        let pool = words.len() + PIECES.len();
        let k = piece % pool;
        let base: String =
            if k < words.len() { words[k].clone() } else { PIECES[k - words.len()].to_string() };
        let piece = match mutation % 10 {
            0 => base.to_uppercase(),
            1 => base.to_lowercase(),
            2 => title_case(&base),
            3 => format!("#{}", base.replace(' ', "")),
            4 => format!("@{}!", base.replace(' ', "_")),
            5 => format!("{base}'s"),
            6 => format!("\"{base}\"?"),
            7 if !previous.is_empty() => previous.clone(),
            _ => base,
        };
        text.push_str(&piece);
        text.push_str(SEPARATORS[sep % SEPARATORS.len()]);
        previous = piece;
    }
    text
}

fn title_case(s: &str) -> String {
    s.split(' ')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(c) => c.to_uppercase().chain(cs.flat_map(char::to_lowercase)).collect(),
                None => String::new(),
            }
        })
        .collect::<Vec<String>>()
        .join(" ")
}

/// Gazetteer surfaces and every run of consecutive words in them, so
/// generated texts hit partial and overlapping phrases as well as whole
/// ones (and a phrase's tail can follow its head as a hashtag).
pub fn phrase_pieces(surfaces: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut out = Vec::new();
    for s in surfaces {
        let words: Vec<&str> = s.split_whitespace().collect();
        for a in 0..words.len() {
            for b in a + 1..=words.len() {
                out.push(words[a..b].join(" "));
            }
        }
    }
    out
}
