//! The entity2vec pipeline (paper Section III-A1): NER → entity-phrase
//! tokenization → SGNS → per-entity semantic embeddings.
//!
//! Named entities are treated "as a whole" — every mention of
//! `Majestic Theatre` becomes the single token `majestic_theatre` in the
//! skip-gram corpus — so the embedding captures "syntactic and semantic
//! relationships between entities" rather than between their component
//! words.

use edge_embed::{train_sgns, Embedding, SgnsConfig};
use edge_text::{is_stopword, tokenize, EntityRecognizer, FxHashMap, Token};

use edge_data::Tweet;

/// The entity inventory of a trained model: stable indices for every entity
/// that appears in the training split (the graph's node set).
///
/// Serializes as the ordered name list; the reverse map is rebuilt on load.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
#[serde(from = "Vec<String>", into = "Vec<String>")]
pub struct EntityIndex {
    names: Vec<String>,
    /// Looked up for every recognized mention on the request path, hence
    /// the unkeyed Fx hash the recognizer's tables use too.
    by_name: FxHashMap<String, usize>,
}

impl From<Vec<String>> for EntityIndex {
    fn from(names: Vec<String>) -> Self {
        let by_name = names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        Self { names, by_name }
    }
}

impl From<EntityIndex> for Vec<String> {
    fn from(index: EntityIndex) -> Self {
        index.names
    }
}

impl EntityIndex {
    /// Number of entities.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no entities are indexed.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The canonical id of entity `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// The index of a canonical entity id.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Iterates `(index, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (i, n.as_str()))
    }

    fn insert(&mut self, name: &str) -> usize {
        if let Some(&i) = self.by_name.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), i);
        i
    }
}

/// The output of the entity2vec stage.
#[derive(Debug, Clone)]
pub struct Entity2Vec {
    /// Entity inventory (training-split entities only).
    pub index: EntityIndex,
    /// `index.len() × dim` semantic embeddings, row `i` for entity `i`.
    pub embeddings: Vec<Vec<f32>>,
    /// Per-tweet entity index sets for the training tweets (deduplicated,
    /// ascending), parallel to the input slice.
    pub tweet_entities: Vec<Vec<usize>>,
}

/// Converts a tweet into a skip-gram sentence: recognized entity mentions
/// become single canonical-id tokens, remaining words are lowercased, and
/// stop words are dropped.
pub fn entity_sentence(text: &str, ner: &EntityRecognizer) -> Vec<String> {
    let mentions = ner.recognize(text);
    // Map each mention's surface token sequence (lowercase) to its id.
    let mut surface_map: Vec<(Vec<String>, &str)> = mentions
        .iter()
        .map(|m| {
            let toks: Vec<String> = tokenize(&m.surface).iter().map(Token::lower).collect();
            (toks, m.id.as_str())
        })
        .collect();
    // Longest surfaces first so greedy matching prefers full phrases.
    surface_map.sort_by_key(|(toks, _)| std::cmp::Reverse(toks.len()));

    let tokens = tokenize(text);
    let lower: Vec<String> = tokens.iter().map(Token::lower).collect();
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    'outer: while i < lower.len() {
        for (surface, id) in &surface_map {
            if !surface.is_empty()
                && i + surface.len() <= lower.len()
                && lower[i..i + surface.len()] == surface[..]
            {
                out.push(id.to_string());
                i += surface.len();
                continue 'outer;
            }
        }
        if !is_stopword(&lower[i]) {
            out.push(lower[i].clone());
        }
        i += 1;
    }
    out
}

/// Runs the entity2vec stage over the training tweets.
///
/// Entities come only from the training split ("our model only considers
/// those entities that appear in our training set"); words participate in
/// the skip-gram corpus so entity embeddings absorb lexical context, but
/// only entity rows are returned.
pub fn run_entity2vec(
    train: &[Tweet],
    ner: &EntityRecognizer,
    sgns: &SgnsConfig,
    dim: usize,
) -> Entity2Vec {
    let mut index = EntityIndex::default();
    let mut vocab = edge_text::Vocab::new();
    let mut sentences: Vec<Vec<usize>> = Vec::with_capacity(train.len());
    let mut tweet_entities: Vec<Vec<usize>> = Vec::with_capacity(train.len());

    // First pass: sentences + entity inventory.
    let raw_sentences: Vec<Vec<String>> =
        train.iter().map(|t| entity_sentence(&t.text, ner)).collect();
    for (tweet, sent) in train.iter().zip(&raw_sentences) {
        let mentions = ner.recognize(&tweet.text);
        let mut ids: Vec<usize> = mentions.iter().map(|m| index.insert(&m.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        tweet_entities.push(ids);
        sentences.push(sent.iter().map(|w| vocab.add(w)).collect());
    }

    // SGNS over the combined entity+word vocabulary.
    let counts: Vec<u64> = (0..vocab.len()).map(|i| vocab.count(i)).collect();
    let config = SgnsConfig { dim, ..sgns.clone() };
    let table: Embedding = if vocab.len() >= 2 {
        train_sgns(&sentences, &counts, &config)
    } else {
        // Degenerate corpus: zero vectors keep downstream shapes valid.
        Embedding::from_flat(vocab.len().max(1), dim, vec![0.0; vocab.len().max(1) * dim])
    };

    // Extract entity rows (entities unseen by the vocab — impossible by
    // construction, but guard anyway — get zero vectors).
    let mut embeddings: Vec<Vec<f32>> = (0..index.len())
        .map(|i| match vocab.get(index.name(i)) {
            Some(vid) if vid < table.len() => table.vector(vid).to_vec(),
            _ => vec![0.0; dim],
        })
        .collect();
    postprocess_embeddings(&mut embeddings);

    Entity2Vec { index, embeddings, tweet_entities }
}

/// Anisotropy correction ("all-but-the-top", Mu & Viswanath): SGNS tables —
/// ours and gensim's alike — share a dominant common direction, leaving raw
/// pairwise cosines near 1. Downstream, the GCN and attention must then
/// separate entities inside a tiny residual subspace, which in practice
/// collapses EDGE's predictions onto a static prior. Centering the table
/// and scaling rows to unit norm removes the shared component while
/// preserving the relative geometry entity2vec learned.
fn postprocess_embeddings(embeddings: &mut [Vec<f32>]) {
    let Some(first) = embeddings.first() else { return };
    let dim = first.len();
    let n = embeddings.len() as f32;
    let mut mean = vec![0.0f32; dim];
    for row in embeddings.iter() {
        for (m, x) in mean.iter_mut().zip(row) {
            *m += x / n;
        }
    }
    for row in embeddings.iter_mut() {
        for (x, m) in row.iter_mut().zip(&mean) {
            *x -= m;
        }
        let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-8 {
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_data::{nyma, PresetSize};
    use edge_text::EntityCategory;

    fn ner() -> EntityRecognizer {
        EntityRecognizer::with_gazetteer([
            ("Majestic Theatre", EntityCategory::Facility),
            ("Broadway", EntityCategory::Geolocation),
            ("phantomopera", EntityCategory::Band),
        ])
    }

    #[test]
    fn entity_sentence_merges_phrases() {
        let s = entity_sentence("Loved the Majestic Theatre on Broadway tonight", &ner());
        assert!(s.contains(&"majestic_theatre".to_string()));
        assert!(s.contains(&"broadway".to_string()));
        assert!(!s.contains(&"majestic".to_string()));
        assert!(!s.contains(&"the".to_string()), "stopwords dropped");
    }

    #[test]
    fn entity_sentence_handles_sigils() {
        let s = entity_sentence("@PhantomOpera was wonderful #nyc", &ner());
        assert!(s.contains(&"phantomopera".to_string()));
        assert!(s.contains(&"nyc".to_string()), "hashtag becomes entity token");
    }

    #[test]
    fn run_on_preset_produces_consistent_shapes() {
        let d = nyma(PresetSize::Smoke, 1);
        let ner = edge_data::dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let sgns = SgnsConfig { dim: 16, epochs: 2, ..SgnsConfig::default() };
        let e2v = run_entity2vec(&train[..500], &ner, &sgns, 16);
        assert!(e2v.index.len() > 50, "entities found: {}", e2v.index.len());
        assert_eq!(e2v.embeddings.len(), e2v.index.len());
        assert_eq!(e2v.tweet_entities.len(), 500);
        assert!(e2v.embeddings.iter().all(|v| v.len() == 16));
        for ids in &e2v.tweet_entities {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted & deduped");
            assert!(ids.iter().all(|&i| i < e2v.index.len()));
        }
    }

    #[test]
    fn index_round_trips() {
        let d = nyma(PresetSize::Smoke, 2);
        let ner = edge_data::dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let sgns = SgnsConfig { dim: 8, epochs: 1, ..SgnsConfig::default() };
        let e2v = run_entity2vec(&train[..200], &ner, &sgns, 8);
        for (i, name) in e2v.index.iter() {
            assert_eq!(e2v.index.get(name), Some(i));
        }
    }

    #[test]
    fn anchored_entities_embed_similarly() {
        // The co-occurrence signal must reach the embeddings: an anchored
        // topic should be closer to its anchor than to a random entity.
        let d = nyma(PresetSize::Smoke, 3);
        let ner = edge_data::dataset_recognizer(&d);
        let (train, _) = d.paper_split();
        let sgns = SgnsConfig { dim: 32, epochs: 6, ..SgnsConfig::default() };
        let e2v = run_entity2vec(train, &ner, &sgns, 32);
        let (Some(phantom), Some(majestic)) =
            (e2v.index.get("phantomopera"), e2v.index.get("majestic_theatre"))
        else {
            panic!("signature entities missing from index");
        };
        // Small SGNS corpora produce a shared dominant direction, so compare
        // *centered* similarities: subtract the mean embedding first.
        let dim = e2v.embeddings[0].len();
        let mut mean = vec![0.0f32; dim];
        for v in &e2v.embeddings {
            for (m, x) in mean.iter_mut().zip(v) {
                *m += x / e2v.embeddings.len() as f32;
            }
        }
        let centered = |i: usize| -> Vec<f32> {
            e2v.embeddings[i].iter().zip(&mean).map(|(x, m)| x - m).collect()
        };
        let cos = |a: usize, b: usize| edge_embed::cosine(&centered(a), &centered(b));
        let anchored = cos(phantom, majestic);
        // Average similarity to 20 arbitrary other entities.
        let baseline: f32 =
            (0..20).map(|i| cos(phantom, (i * 7) % e2v.index.len())).sum::<f32>() / 20.0;
        assert!(anchored > baseline + 0.1, "anchored {anchored} vs baseline {baseline}");
    }
}
