//! Entity resolution through the compiled recognizer scan must equal the
//! reference oracle's mentions filtered to the model's entity index, on a
//! trained model's own gazetteer: every tweet of the corpus plus generated
//! and mutated texts.

#[path = "../../text/tests/oracle/mod.rs"]
mod oracle;

use edge_core::{EdgeConfig, EdgeModel, TrainOptions};
use edge_data::{dataset_recognizer, nyma, PresetSize};
use oracle::{compose, phrase_pieces, Oracle};

/// SplitMix64: a dependency-free deterministic draw stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn resolve_entities_equals_the_oracle_filtered_to_the_index() {
    let d = nyma(PresetSize::Smoke, 5);
    let (train, _) = d.paper_split();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 1;
    let (model, _) =
        EdgeModel::train(train, dataset_recognizer(&d), &d.bbox, cfg, &TrainOptions::default())
            .expect("train");
    let oracle = Oracle::of(model.recognizer());
    let expected = |text: &str| {
        let mut ids: Vec<usize> =
            oracle.recognize(text).iter().filter_map(|m| model.entity_index().get(&m.id)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };

    let words = phrase_pieces(d.gazetteer.iter().map(|(s, _)| s.clone()));
    let mut state = 42u64;
    let generated: Vec<String> = (0..3000)
        .map(|_| {
            let n = (splitmix(&mut state) % 20) as usize;
            let draws: Vec<(usize, usize, usize)> = (0..n)
                .map(|_| {
                    let r = splitmix(&mut state);
                    (r as usize % 100_000, (r >> 20) as usize % 100, (r >> 40) as usize % 100)
                })
                .collect();
            compose(&words, &draws)
        })
        .collect();

    let mut resolved = 0;
    let texts =
        d.tweets.iter().map(|t| t.text.as_str()).chain(generated.iter().map(String::as_str));
    for text in texts {
        let ids = model.resolve_entities(text);
        assert_eq!(ids, expected(text), "{text:?}");
        resolved += usize::from(!ids.is_empty());
    }
    // The texts exercise resolution, not just its empty case.
    assert!(resolved > d.tweets.len() / 2, "only {resolved} texts resolved an entity");
}
