//! Once its per-thread buffers are warm, `EdgeModel::resolve_entities`
//! makes at most one heap allocation per text: the returned `Vec` (none
//! when nothing resolves).
//!
//! The count is process-global, so this file holds a single test (and the
//! perf smoke script runs it with `--test-threads=1`).
#![cfg(feature = "alloc-stats")]

use edge_core::{EdgeConfig, EdgeModel, TrainOptions};
use edge_data::{dataset_recognizer, nyma, PresetSize};
use edge_obs::alloc::counts;

#[test]
fn warm_resolution_allocates_only_the_result() {
    let d = nyma(PresetSize::Smoke, 13);
    let (train, test) = d.paper_split();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 1;
    let (model, _) =
        EdgeModel::train(train, dataset_recognizer(&d), &d.bbox, cfg, &TrainOptions::default())
            .expect("train");

    // Warm-up: the scratch buffers grow to the longest text.
    for t in test {
        model.resolve_entities(&t.text);
    }
    let mut resolved = 0;
    for t in test {
        let before = counts().count;
        let ids = model.resolve_entities(&t.text);
        let allocs = counts().count - before;
        let allowed = u64::from(!ids.is_empty());
        assert!(allocs <= allowed, "{allocs} allocations resolving {:?} to {ids:?}", t.text);
        resolved += usize::from(!ids.is_empty());
    }
    assert!(resolved > test.len() / 2, "only {resolved} of {} texts resolved", test.len());
}
