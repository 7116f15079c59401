//! Seeded corpora and the serving artifacts built from them.

use std::path::Path;
use std::time::Instant;

use edge_core::{EdgeConfig, EdgeModel, QuantMode, TrainOptions, TrainReport};
use edge_data::{dataset_recognizer, Dataset, PresetSize};
use edge_text::EntityRecognizer;

/// A default-scale preset corpus, generated from the workload seed.
pub fn generate(preset: &str, seed: u64) -> Dataset {
    match preset {
        "nyma" => edge_data::nyma(PresetSize::Default, seed),
        "lama" => edge_data::lama(PresetSize::Default, seed),
        other => panic!("no preset {other}"),
    }
}

/// The CLI's default training profile (`fast`: d=64, M=4), seeded.
pub fn fast_config(seed: u64, epochs: Option<usize>) -> EdgeConfig {
    let mut config = EdgeConfig::fast();
    config.seed = seed;
    if let Some(e) = epochs {
        config.epochs = e;
    }
    config
}

/// Trains on the paper split's training part. Returns the model, its
/// report and the wall time of `EdgeModel::train` alone, seconds.
pub fn train(
    dataset: &Dataset,
    ner: EntityRecognizer,
    config: EdgeConfig,
) -> Result<(EdgeModel, TrainReport, f64), String> {
    let (train, _) = dataset.paper_split();
    let started = Instant::now();
    let (model, report) =
        EdgeModel::train(train, ner, &dataset.bbox, config, &TrainOptions::default())
            .map_err(|e| format!("training failed: {e}"))?;
    Ok((model, report, started.elapsed().as_secs_f64()))
}

/// Trains a serving model and writes it as an f32 mapped artifact.
/// Returns the wall time of `EdgeModel::train`, seconds.
pub fn build_artifact(
    dataset: &Dataset,
    seed: u64,
    epochs: usize,
    path: &Path,
) -> Result<f64, String> {
    let config = fast_config(seed, Some(epochs));
    let (model, _, secs) = train(dataset, dataset_recognizer(dataset), config)?;
    model.save_artifact(path, QuantMode::None).map_err(|e| format!("saving {path:?}: {e}"))?;
    Ok(secs)
}
