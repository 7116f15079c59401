//! Metric rows, the run outcome, provenance and the result line.

use crate::stats::{json_number, json_string};

/// The end-to-end metrics every workload reports (with `--trace 0`), in
/// `BENCHMARK.json` order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_tps", "texts/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("train_s", "s"),
    ("mean_km", "km"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports (with `--trace 1`), in
/// `BENCHMARK.json` order. A layer a workload does not run reads 0: the
/// per-layer rows carry no bound, and 0 says "not on this workload".
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.parse_us", "us"),
    ("serve.json.decode_us", "us"),
    ("serve.json.decode_ns_per_byte", "ns/B"),
    ("serve.router.route_us", "us"),
    ("core.resolve_us", "us"),
    ("text.ner_us", "us"),
    ("serve.cache.probe_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_size", "texts"),
    ("core.locate_us", "us"),
    ("core.attention_us", "us"),
    ("core.mdn_us", "us"),
    ("geo.mode_us", "us"),
    ("serve.render_us", "us"),
    ("serve.residual_us", "us"),
    ("core.entity2vec_s", "s"),
    ("embed.sgns_s", "s"),
    ("graph.build_s", "s"),
    ("core.gcn_s", "s"),
    ("core.attention_s", "s"),
    ("core.mdn_s", "s"),
    ("tensor.backward_s", "s"),
    ("tensor.adam_s", "s"),
    ("tensor.matmul_s", "s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.spmm_gflops", "GFLOP/s"),
    ("core.eval_s", "s"),
    ("train.residual_s", "s"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric { name: name.to_string(), value, unit: unit.to_string() }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests (serve) or checked outputs (train) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Outputs whose bytes or values differed from the expected ones.
    pub mismatches: u64,
    pub end_to_end: Vec<Metric>,
    /// Measured per-layer rows (trace runs); rows absent here read 0.
    pub layers: Vec<Metric>,
    /// Human-readable report lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        let unit = END_TO_END.iter().find(|(n, _)| *n == name).expect("declared metric").1;
        self.end_to_end.push(Metric::new(name, value, unit));
    }

    /// The layer rows in declared order, 0 for a layer the workload did
    /// not run.
    pub fn layer_rows(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = self.layers.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One aligned `name value unit` table line.
pub fn row(name: &str, value: f64, unit: &str) -> String {
    format!("  {name:<32} {value:>14.4} {unit}")
}
