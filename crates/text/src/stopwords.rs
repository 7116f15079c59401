//! A compact English stop-word list tuned for tweets.

/// Sorted, for binary search.
const STOPWORDS: &[&str] = &[
    "a", "about", "after", "again", "all", "am", "an", "and", "any", "are", "as", "at", "be",
    "because", "been", "before", "being", "but", "by", "can", "come", "could", "day", "did", "do",
    "does", "doing", "don't", "done", "down", "during", "each", "few", "for", "from", "further",
    "get", "go", "going", "good", "got", "great", "had", "has", "have", "having", "he", "her",
    "here", "hers", "him", "his", "how", "i", "i'm", "if", "in", "into", "is", "it", "it's", "its",
    "just", "like", "lol", "me", "more", "most", "my", "new", "no", "not", "now", "of", "off",
    "on", "once", "one", "only", "or", "other", "our", "out", "over", "own", "really", "rt",
    "said", "same", "say", "see", "she", "should", "so", "some", "such", "than", "that", "the",
    "their", "them", "then", "there", "these", "they", "they're", "this", "those", "through",
    "time", "to", "today", "too", "u", "under", "until", "up", "us", "very", "was", "way", "we",
    "were", "what", "when", "where", "which", "while", "who", "why", "will", "with", "would",
    "you", "your", "yours",
];

/// Longest entry of [`STOPWORDS`], in bytes.
const MAX_STOPWORD_LEN: usize = 7;

/// [`STOPWORDS`] packed into big-endian integers (see [`pack`]), in the
/// same order: the list is sorted and no entry holds a zero byte, so
/// integer order is string order.
const PACKED: [u64; STOPWORDS.len()] = {
    let mut out = [0; STOPWORDS.len()];
    let mut i = 0;
    while i < STOPWORDS.len() {
        out[i] = pack(STOPWORDS[i].as_bytes());
        i += 1;
    }
    out
};

/// Packs at most 8 bytes into a `u64`, first byte highest.
const fn pack(word: &[u8]) -> u64 {
    let mut key = 0;
    let mut i = 0;
    while i < word.len() {
        key |= (word[i] as u64) << (56 - 8 * i);
        i += 1;
    }
    key
}

/// Whether `word` (any case) is a stop word. Every stop word is short
/// ASCII, so the lowercase form is packed into an integer (giving up at
/// the first non-ASCII or surplus char) and binary-searched.
pub fn is_stopword(word: &str) -> bool {
    let key = if word.is_ascii() {
        if word.len() > MAX_STOPWORD_LEN {
            return false;
        }
        let mut lower = [0u8; MAX_STOPWORD_LEN];
        lower[..word.len()].copy_from_slice(word.as_bytes());
        lower.make_ascii_lowercase();
        pack(&lower)
    } else {
        let mut key = 0u64;
        for (len, c) in word.chars().flat_map(char::to_lowercase).enumerate() {
            if !c.is_ascii() || len == MAX_STOPWORD_LEN {
                return false;
            }
            key |= (c as u64) << (56 - 8 * len);
        }
        key
    };
    PACKED.binary_search(&key).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_words_are_stopwords() {
        for w in ["the", "The", "THE", "and", "i'm", "rt"] {
            assert!(is_stopword(w), "{w}");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["broadway", "quarantine", "hospital", "covid19"] {
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn max_len_covers_the_list() {
        assert_eq!(STOPWORDS.iter().map(|w| w.len()).max(), Some(MAX_STOPWORD_LEN));
    }

    #[test]
    fn non_ascii_case_forms_match_like_to_lowercase() {
        // The Kelvin sign lowercases to ASCII `k`; a capital sigma never
        // lowercases to ASCII.
        assert!(is_stopword("li\u{212a}e"));
        assert!(!is_stopword("\u{3a3}o"));
        for w in ["caf\u{e9}", "\u{130}", "becauses"] {
            assert_eq!(is_stopword(w), STOPWORDS.contains(&w.to_lowercase().as_str()), "{w}");
        }
    }

    #[test]
    fn list_is_sorted_for_binary_search() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]), "STOPWORDS must be sorted");
        assert!(PACKED.windows(2).all(|w| w[0] < w[1]));
        assert!(STOPWORDS.iter().all(|w| !w.is_empty() && !w.contains('\0')));
    }

    #[test]
    fn list_is_deduplicated_and_lowercase() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase(), "{w} not lowercase");
            assert!(seen.insert(w), "{w} duplicated");
        }
    }
}
