//! Serving pieces: the pooled texts with their expected response bytes,
//! artifact building, timed server set-up and server-side figures.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use edge_core::{ArtifactLoad, EdgeModel, PredictError, PredictOptions, PredictRequest, Predictor};
use edge_data::Dataset;
use edge_geo::Point;
use edge_serve::json::{render_error, render_response};
use edge_serve::Router;

use crate::corpus;
use crate::report::{Metric, Outcome};
use crate::server::{Conn, ServerProc};
use crate::stats::{json_string, median};

/// Set-up cycles per run; `setup_s` is their median.
pub const SETUP_CYCLES: usize = 7;

/// One pooled text: its JSON literal, the exact fragment the server must
/// answer it with, and its predicted and true locations.
pub struct PoolText {
    pub json: String,
    pub expected: Vec<u8>,
    /// The predicted point when the model answers, `None` on abstention.
    pub predicted: Option<Point>,
    pub truth: Point,
}

/// The serving shards of a workload: names, artifact paths and the models
/// loaded back from those artifacts (the bytes the server maps).
pub struct Shards {
    pub names: Vec<String>,
    pub paths: Vec<PathBuf>,
    pub models: Vec<Arc<EdgeModel>>,
    /// Summed wall time of the `EdgeModel::train` calls, seconds.
    pub train_s: f64,
}

impl Shards {
    /// Trains one artifact per `(name, dataset)` with `epochs` epochs and
    /// loads each back. With `trace`, the training rows of the span
    /// profile land in `out`.
    pub fn build(
        work: &Path,
        corpora: &[(&str, &Dataset)],
        seed: u64,
        epochs: usize,
        trace: bool,
        out: &mut Outcome,
    ) -> Result<Shards, String> {
        let mut shards =
            Shards { names: Vec::new(), paths: Vec::new(), models: Vec::new(), train_s: 0.0 };
        let tracer = trace.then(crate::layers::TrainTracer::start);
        for (name, dataset) in corpora {
            let path = work.join(format!("{name}.edge"));
            shards.train_s += corpus::build_artifact(dataset, seed, epochs, &path)?;
            shards.names.push(name.to_string());
            shards.paths.push(path);
        }
        if let Some(tracer) = tracer {
            let (profile, flops) = tracer.finish();
            out.layers.extend(crate::layers::train_rows(&profile, flops, shards.train_s));
        }
        for path in &shards.paths {
            let model =
                EdgeModel::load_artifact(path).map_err(|e| format!("loading {path:?}: {e}"))?;
            shards.models.push(Arc::new(model));
        }
        Ok(shards)
    }

    /// `--model NAME=PATH` flags for `edge-cli serve`, one per shard.
    pub fn model_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        for (name, path) in self.names.iter().zip(&self.paths) {
            args.push("--model".to_string());
            args.push(format!("{name}={}", path.display()));
        }
        args
    }

    /// The pooled texts with the fragments a server over these shards
    /// must answer: routed like the server routes, located on the routed
    /// shard, rendered by the server's own writer. A text without entities
    /// expects the `no_entities` abstention.
    pub fn pool(&self, tweets: &[&edge_data::Tweet]) -> Vec<PoolText> {
        let router = Router::new(self.names.clone(), &self.models);
        let opts = PredictOptions::default();
        let mut pool = Vec::with_capacity(tweets.len());
        for tweet in tweets {
            let model = &self.models[router.route_text(&tweet.text, &self.models)];
            let entities = model.resolve_entities(&tweet.text);
            let (expected, predicted) = if entities.is_empty() {
                (render_error(&PredictError::NoEntities), None)
            } else {
                let resp = model
                    .locate(&PredictRequest::entities(entities), &opts)
                    .expect("a text with resolved entities is answered");
                (render_response(&resp), Some(resp.prediction.point))
            };
            pool.push(PoolText {
                json: json_string(&tweet.text),
                expected,
                predicted,
                truth: tweet.location,
            });
        }
        pool
    }
}

/// Mean great-circle error over the answered texts among `texts`, km.
pub fn mean_km<'a>(texts: impl Iterator<Item = &'a PoolText>) -> f64 {
    let errors: Vec<f64> =
        texts.filter_map(|t| t.predicted.map(|p| p.haversine_km(&t.truth))).collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// Runs `SETUP_CYCLES` timed set-ups of a server on CPU `cpu` — spawn →
/// artifacts open and listening → first reply → `warm` done — stopping
/// all but the last server, which is returned for the measured window.
/// `setup_s` is the median cycle.
pub fn timed_setups(
    edge_cli: &Path,
    args: &[String],
    cpu: usize,
    work: &Path,
    first: &PoolText,
    out: &mut Outcome,
    mut warm: impl FnMut(&mut Conn, &mut Outcome) -> Result<(), String>,
) -> Result<ServerProc, String> {
    let (mut listen, mut reply, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in 0..SETUP_CYCLES {
        let started = Instant::now();
        let log = work.join(format!("server-{cycle}.log"));
        let server = ServerProc::spawn(edge_cli, args, &log, cpu)?;
        listen.push(started.elapsed().as_secs_f64());
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let body = format!("{{\"text\":{}}}", first.json);
        let resp = conn.call("POST", "/predict", body.as_bytes()).map_err(|e| e.to_string())?;
        out.attempted += 1;
        if resp.status != 200 || resp.body != first.expected {
            out.failed += 1;
            out.mismatches += 1;
        }
        reply.push(started.elapsed().as_secs_f64());
        warm(&mut conn, out)?;
        total.push(started.elapsed().as_secs_f64());
        drop(conn);
        if cycle + 1 == SETUP_CYCLES {
            out.note(format!(
                "set-up (median of {SETUP_CYCLES}): listening {:.4} s, first reply {:.4} s, warm {:.4} s",
                median(&listen),
                median(&reply),
                median(&total)
            ));
            out.e2e("setup_s", median(&total));
            return Ok(server);
        }
        server.stop()?;
    }
    unreachable!("the last cycle returns")
}

/// Every stage's median over the server's last `n` predict requests, from
/// its `/debug/requests` ring, printed under `label`. With `record`, the
/// queue stage's median and p99 become the `serve.queue_wait_*` rows.
pub fn ring_rows(
    conn: &mut Conn,
    n: usize,
    label: &str,
    record: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let stages = crate::server::recent_stages(conn, n)?;
    let mut line = format!("server stages p50 (/debug/requests, {label}):");
    for (name, values) in &stages {
        line.push_str(&format!(" {name} {:.0} us", median(values)));
        if record && name == "queue" {
            out.layers.push(Metric::new("serve.queue_wait_p50_us", median(values), "us"));
            let p99 = crate::stats::quantile(values, 0.99);
            out.layers.push(Metric::new("serve.queue_wait_p99_us", p99, "us"));
        }
    }
    out.note(line);
    Ok(())
}

/// `(count, sum)` of the server's batch-size histogram.
pub fn batch_histogram(conn: &mut Conn) -> Result<(f64, f64), String> {
    let scrape = crate::server::scrape_metrics(conn)?;
    let count = scrape.value("serve_batch_size_count", &[]).unwrap_or(0.0);
    let sum = scrape.value("serve_batch_size_sum", &[]).unwrap_or(0.0);
    Ok((count, sum))
}

/// `(hits, misses)` of the server's response caches.
pub fn cache_counts(conn: &mut Conn) -> Result<(f64, f64), String> {
    let scrape = crate::server::scrape_metrics(conn)?;
    let hits = scrape.value("serve_cache_stats_hits", &[]).unwrap_or(0.0);
    let misses = scrape.value("serve_cache_stats_misses", &[]).unwrap_or(0.0);
    Ok((hits, misses))
}
