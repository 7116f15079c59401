//! A chunker-style named-entity recognizer for tweets.
//!
//! EDGE's entity2vec module uses the "Chunker Named Entity Recognizer"
//! (Ritter et al.), a tool trained specifically on tweets and reported at
//! 0.88 accuracy, which also classifies entities into 10 categories (one of
//! which is *Geolocation* — the paper's Section IV-A statistics rely on
//! that classification). The original tool's models are not available as
//! Rust artifacts, so this module re-creates its *behaviour*:
//!
//! * hashtags and @-mentions are entity candidates,
//! * capitalized token chunks are grouped into multi-word entities
//!   ("Majestic Theatre" is one entity, not two words),
//! * a gazetteer (playing the role of the recognizer's trained knowledge;
//!   in the pipeline it is derived from the training corpus) supplies
//!   categories and catches lowercase surface forms,
//! * sentence-initial capitalization and stop words are filtered.
//!
//! Like the real tool, recognition is imperfect by construction: entities
//! rendered in lowercase that are absent from the gazetteer are missed,
//! which is what produces the ~87–95% recognition band the paper audits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::token::{with_tokens, TokenKind, TokenSpan, Tokens};

/// The 10 entity categories of the Ritter et al. recognizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntityCategory {
    /// A person.
    Person,
    /// A geographic location — the category the Section IV-A statistics
    /// count. Note that locations are merely a *subset* of geo-indicative
    /// entities (e.g. "American Airlines" is geo-indicative but a Company).
    Geolocation,
    /// A company or organization.
    Company,
    /// A facility (hospital, theatre, stadium, …).
    Facility,
    /// A product.
    Product,
    /// A musical act.
    Band,
    /// A movie.
    Movie,
    /// A sports team.
    SportsTeam,
    /// A TV show.
    TvShow,
    /// Anything else.
    Other,
}

impl EntityCategory {
    /// Whether the category is the recognizer's location class.
    pub fn is_location(self) -> bool {
        self == EntityCategory::Geolocation
    }
}

/// One recognized entity mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityMention {
    /// Canonical id: lowercase, spaces replaced by `_` (the phrase-token
    /// form entity2vec trains on, e.g. `majestic_theatre`).
    pub id: String,
    /// The surface text as it appeared.
    pub surface: String,
    /// Predicted category.
    pub category: EntityCategory,
}

/// One mention found by [`EntityRecognizer::scan`], borrowed from the
/// scanned [`Tokens`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mention<'a> {
    /// Canonical id (see [`EntityMention::id`]).
    pub id: &'a str,
    /// The surface text as it appeared, without a hashtag or mention sigil.
    pub text: &'a str,
    /// `#` or `@` for hashtag and @-mention entities.
    pub sigil: Option<char>,
    /// Predicted category.
    pub category: EntityCategory,
}

impl From<Mention<'_>> for EntityMention {
    fn from(m: Mention<'_>) -> Self {
        let surface = match m.sigil {
            Some(sigil) => format!("{sigil}{}", m.text),
            None => m.text.to_string(),
        };
        EntityMention { id: m.id.to_string(), surface, category: m.category }
    }
}

/// The Fx multiply-rotate hash (as in rustc) for the gazetteer tables. The
/// tables are built from artifacts, never from request text, which only
/// looks them up, so a keyed hash buys nothing there, and SipHash costs
/// more than the short phrase keys it hashes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The recognizer: rules + gazetteer.
///
/// The gazetteer is compiled into two tables: phrases keyed by their
/// space-joined lowercase tokens, and each phrase's first token mapped to
/// the most tokens of any phrase starting with it, which bounds the greedy
/// match at each position. Serializes as its gazetteer entries (needed to
/// persist a trained EDGE model, whose inference path owns a recognizer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "RecognizerRepr", into = "RecognizerRepr")]
pub struct EntityRecognizer {
    /// Space-joined lowercase phrase tokens → category.
    phrases: FxHashMap<String, EntityCategory>,
    /// First lowercase phrase token → most tokens of a phrase starting with it.
    first_tokens: FxHashMap<String, usize>,
}

/// Serialized form of [`EntityRecognizer`]: `(surface, category)` entries.
#[derive(Serialize, Deserialize)]
struct RecognizerRepr {
    entries: Vec<(String, EntityCategory)>,
}

impl From<RecognizerRepr> for EntityRecognizer {
    fn from(repr: RecognizerRepr) -> Self {
        let mut r = EntityRecognizer::new();
        for (surface, cat) in repr.entries {
            r.add_gazetteer_entry(&surface, cat);
        }
        r
    }
}

impl From<EntityRecognizer> for RecognizerRepr {
    fn from(r: EntityRecognizer) -> Self {
        let mut entries: Vec<(String, EntityCategory)> = r.phrases.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Self { entries }
    }
}

/// Canonical entity id for a surface form: lowercase, whitespace → `_`.
pub fn canonical_id(surface: &str) -> String {
    surface.to_lowercase().split_whitespace().collect::<Vec<_>>().join("_")
}

impl EntityRecognizer {
    /// A recognizer with an empty gazetteer (rules only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a recognizer from `(surface form, category)` pairs.
    pub fn with_gazetteer<'a>(
        entries: impl IntoIterator<Item = (&'a str, EntityCategory)>,
    ) -> Self {
        let mut r = Self::new();
        for (surface, cat) in entries {
            r.add_gazetteer_entry(surface, cat);
        }
        r
    }

    /// Adds one gazetteer entry.
    pub fn add_gazetteer_entry(&mut self, surface: &str, category: EntityCategory) {
        let lower = surface.to_lowercase();
        let words: Vec<&str> = lower.split_whitespace().collect();
        let Some(first) = words.first() else { return };
        self.note_first_token(first, words.len());
        self.phrases.insert(words.join(" "), category);
    }

    fn note_first_token(&mut self, first: &str, len: usize) {
        match self.first_tokens.get_mut(first) {
            Some(longest) => *longest = (*longest).max(len),
            None => {
                self.first_tokens.insert(first.to_string(), len);
            }
        }
    }

    /// Number of gazetteer entries.
    pub fn gazetteer_len(&self) -> usize {
        self.phrases.len()
    }

    /// Merges another recognizer's gazetteer into this one. On conflicting
    /// entries the existing category wins, so merge order decides ties.
    /// Used by the serving router to build a union recognizer over every
    /// loaded shard model (routing needs to see all shards' entities).
    pub fn merge(&mut self, other: &EntityRecognizer) {
        for (key, cat) in &other.phrases {
            self.phrases.entry(key.clone()).or_insert(*cat);
        }
        for (first, &len) in &other.first_tokens {
            self.note_first_token(first, len);
        }
    }

    /// Recognizes the entities in `text`. Each distinct entity id appears
    /// once (the paper counts an entity once per tweet regardless of
    /// repeats), in first-mention order.
    pub fn recognize(&self, text: &str) -> Vec<EntityMention> {
        with_tokens(text, |tokens| {
            let mut mentions = Vec::new();
            self.scan(tokens, |m| mentions.push(m.into()));
            mentions
        })
    }

    /// Runs the recognition passes over a tokenized text and reports each
    /// distinct entity id once, in first-mention order. [`Self::recognize`],
    /// model entity resolution and the serving router (which scans one
    /// tokenization with two recognizers) all go through here.
    pub fn scan<'t>(&self, tokens: &'t mut Tokens, mut on_mention: impl FnMut(Mention<'t>)) {
        let Tokens { spans, surface, lower, ids, consumed, seen, .. } = tokens;
        let (spans, surface, lower, ids): (&'t [TokenSpan], &'t str, &'t str, &'t str) =
            (spans, surface, lower, ids);
        let n = spans.len();
        consumed.clear();
        consumed.resize(n, false);
        seen.clear();
        // Byte range of tokens `first..end` in `lower` (and `ids`).
        let run = |first: usize, end: usize| spans[first].lower.0..spans[end - 1].lower.1;
        let mut report = |first: usize, end: usize, sigil: Option<char>, category| {
            let range = run(first, end);
            let id = &ids[range.clone()];
            if seen.iter().any(|&(a, b)| &ids[a..b] == id) {
                return;
            }
            seen.push((range.start, range.end));
            let text = &surface[spans[first].surface.0..spans[end - 1].surface.1];
            on_mention(Mention { id, text, sigil, category });
        };

        // Pass 1: hashtags and mentions.
        for (i, span) in spans.iter().enumerate() {
            let sigil = match span.kind {
                TokenKind::Hashtag => '#',
                TokenKind::Mention => '@',
                _ => continue,
            };
            consumed[i] = true;
            let category =
                self.phrases.get(&lower[run(i, i + 1)]).copied().unwrap_or(EntityCategory::Other);
            report(i, i + 1, Some(sigil), category);
        }

        // Pass 2: greedy longest gazetteer match (catches lowercase forms
        // and fixes multi-word boundaries).
        let mut i = 0;
        while i < n {
            if consumed[i] {
                i += 1;
                continue;
            }
            let Some(&longest) = self.first_tokens.get(&lower[run(i, i + 1)]) else {
                i += 1;
                continue;
            };
            // A phrase never spans a hashtag or mention.
            let mut max_len = longest.min(n - i);
            if let Some(k) = consumed[i..i + max_len].iter().position(|&c| c) {
                max_len = k;
            }
            let matched = (1..=max_len)
                .rev()
                .find_map(|len| self.phrases.get(&lower[run(i, i + len)]).map(|&cat| (len, cat)));
            match matched {
                Some((len, category)) => {
                    consumed[i..i + len].fill(true);
                    report(i, i + len, None, category);
                    i += len;
                }
                None => i += 1,
            }
        }

        // Pass 3: capitalized chunking for out-of-gazetteer entities.
        let candidate = |j: usize| !consumed[j] && spans[j].chunkable;
        let mut i = 0;
        while i < n {
            if !candidate(i) {
                i += 1;
                continue;
            }
            let mut end = i + 1;
            while end < n && candidate(end) {
                end += 1;
            }
            // Sentence-initial single capitalized words are usually ordinary
            // sentence case, not entities; require either a non-initial
            // position or a multi-token chunk.
            if i > 0 || end > 1 {
                report(i, end, None, EntityCategory::Other);
            }
            i = end;
        }
    }

    /// The fraction of `expected` entity ids recovered from `text` — the
    /// per-tweet recognition-rate measurement of the paper's Section IV-A
    /// audit.
    pub fn recognition_rate(&self, text: &str, expected: &[String]) -> f64 {
        if expected.is_empty() {
            return 1.0;
        }
        let found: Vec<String> = self.recognize(text).into_iter().map(|m| m.id).collect();
        expected.iter().filter(|e| found.contains(e)).count() as f64 / expected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recognizer() -> EntityRecognizer {
        EntityRecognizer::with_gazetteer([
            ("Majestic Theatre", EntityCategory::Facility),
            ("Broadway", EntityCategory::Geolocation),
            ("Brooklyn", EntityCategory::Geolocation),
            ("Presbyterian Hospital", EntityCategory::Facility),
            ("covid19", EntityCategory::Other),
            ("phantomopera", EntityCategory::Band),
            ("William Street", EntityCategory::Geolocation),
        ])
    }

    #[test]
    fn canonical_id_normalizes() {
        assert_eq!(canonical_id("Majestic Theatre"), "majestic_theatre");
        assert_eq!(canonical_id("  COVID19 "), "covid19");
    }

    #[test]
    fn hashtags_and_mentions_become_entities() {
        let r = recognizer();
        let ms =
            r.recognize("This is for real... hospital this morning during the #covid19 pandemic");
        assert!(ms.iter().any(|m| m.id == "covid19"));
    }

    #[test]
    fn mention_category_from_gazetteer() {
        let r = recognizer();
        let ms = r.recognize("@PhantomOpera was a great way to end our NY trip");
        let phantom = ms.iter().find(|m| m.id == "phantomopera").expect("found");
        assert_eq!(phantom.category, EntityCategory::Band);
        assert_eq!(phantom.surface, "@PhantomOpera");
    }

    #[test]
    fn multiword_gazetteer_match_is_one_entity() {
        let r = recognizer();
        let ms = r.recognize("Tonight at the Majestic Theatre on Broadway");
        let ids: Vec<&str> = ms.iter().map(|m| m.id.as_str()).collect();
        assert!(ids.contains(&"majestic_theatre"), "{ids:?}");
        assert!(ids.contains(&"broadway"), "{ids:?}");
        let mt = ms.iter().find(|m| m.id == "majestic_theatre").unwrap();
        assert_eq!(mt.category, EntityCategory::Facility);
    }

    #[test]
    fn lowercase_gazetteer_forms_are_caught() {
        let r = recognizer();
        let ms = r.recognize("walking down william street rn");
        assert!(ms.iter().any(|m| m.id == "william_street"));
    }

    #[test]
    fn lowercase_unknown_entities_are_missed() {
        // This is the recognizer's designed imperfection.
        let r = recognizer();
        let ms = r.recognize("saw the phantom at majestic playhouse");
        assert!(ms.is_empty(), "{ms:?}");
    }

    #[test]
    fn capitalized_chunking_for_unknown_entities() {
        let r = recognizer();
        let ms = r.recognize("we visited Central Park Zoo yesterday");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].id, "central_park_zoo");
        assert_eq!(ms[0].category, EntityCategory::Other);
    }

    #[test]
    fn sentence_initial_single_capital_is_not_an_entity() {
        let r = recognizer();
        assert!(r.recognize("Great show tonight").is_empty());
        // But a sentence-initial multi-word chunk is.
        let ms = r.recognize("Times Square was packed");
        assert_eq!(ms[0].id, "times_square");
    }

    #[test]
    fn capitalized_stopwords_are_skipped() {
        let r = recognizer();
        let ms = r.recognize("The This That");
        assert!(ms.is_empty(), "{ms:?}");
    }

    #[test]
    fn repeated_entities_counted_once() {
        let r = recognizer();
        let ms = r.recognize("#covid19 everywhere, #covid19 again on Broadway and broadway");
        assert_eq!(ms.iter().filter(|m| m.id == "covid19").count(), 1);
        assert_eq!(ms.iter().filter(|m| m.id == "broadway").count(), 1);
    }

    #[test]
    fn recognition_rate_measures_misses() {
        let r = recognizer();
        let rate = r.recognition_rate(
            "quarantine vibes near william street",
            &["william_street".into(), "quarantine_vibes".into()],
        );
        assert!((rate - 0.5).abs() < 1e-12, "rate {rate}");
        assert_eq!(r.recognition_rate("anything", &[]), 1.0);
    }

    #[test]
    fn location_category_flag() {
        assert!(EntityCategory::Geolocation.is_location());
        assert!(!EntityCategory::Facility.is_location());
    }

    #[test]
    fn empty_text_yields_no_entities() {
        assert!(recognizer().recognize("").is_empty());
    }

    #[test]
    fn merge_unions_gazetteers_with_existing_entries_winning() {
        let mut a = EntityRecognizer::with_gazetteer([("Broadway", EntityCategory::Geolocation)]);
        let b = EntityRecognizer::with_gazetteer([
            ("Broadway", EntityCategory::Other),
            ("Sunset Boulevard West", EntityCategory::Geolocation),
        ]);
        a.merge(&b);
        assert_eq!(a.gazetteer_len(), 2);
        let ms = a.recognize("on Broadway then sunset boulevard west");
        let broadway = ms.iter().find(|m| m.id == "broadway").expect("broadway");
        assert_eq!(broadway.category, EntityCategory::Geolocation);
        assert!(ms.iter().any(|m| m.id == "sunset_boulevard_west"));
    }
}
