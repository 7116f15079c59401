//! Per-layer measurements: an in-process replay of a serve workload's
//! exact requests through each layer's public function, and the training
//! rows taken from the `edge-obs` span profile of a traced training run.

use std::sync::Arc;
use std::time::Instant;

use edge_core::attention::attention_infer;
use edge_core::{
    decode_theta, EdgeModel, PredictOptions, PredictRequest, PredictResponse, Predictor,
};
use edge_obs::trace::Profile;
use edge_serve::http::{parse_buffered, ParseStatus, ReadLimits};
use edge_serve::json::{parse_predict_body, render_response};
use edge_serve::{CacheKey, ResponseCache, Router, ServeConfig};
use edge_tensor::Matrix;

use crate::report::Metric;
use crate::stats::median;

/// Passes per layer; the median pass is reported, which keeps one
/// preempted pass from moving a row.
const PASSES: usize = 5;
/// Answered texts timed through the inference stages, at most.
const MAX_INFERENCE: usize = 4000;

/// Median wall time of `PASSES` runs of `pass`, divided by `calls`, in µs.
fn per_call_us(calls: usize, mut pass: impl FnMut()) -> f64 {
    let mut secs = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let started = Instant::now();
        pass();
        secs.push(started.elapsed().as_secs_f64());
    }
    median(&secs) * 1e6 / calls.max(1) as f64
}

/// What the replay measured, per request (`_req`) or per text, in µs.
pub struct ServeLayers {
    pub http_parse_us: f64,
    pub decode_us: f64,
    pub decode_ns_per_byte: f64,
    pub route_us: f64,
    pub resolve_us: f64,
    pub ner_us: f64,
    pub probe_us: f64,
    pub locate_us: f64,
    pub attention_us: f64,
    pub mdn_us: f64,
    pub mode_us: f64,
    pub render_us: f64,
    /// Texts per replayed request.
    pub texts_per_request: f64,
    /// Texts whose layer-by-layer reconstruction differed from `locate`.
    pub breakdown_mismatches: usize,
}

/// One shard's inference parameters as plain matrices, for timing the
/// attention, MDN-head and mode stages apart.
struct Stages {
    smoothed: Matrix,
    q1: Matrix,
    b1: Matrix,
    q2: Matrix,
    b2: Matrix,
    m: usize,
}

impl Stages {
    fn of(model: &EdgeModel) -> Stages {
        let n = model.entity_index().len();
        let rows: Vec<Vec<f32>> = (0..n).map(|i| model.smoothed_embedding(i)).collect();
        let store = model.param_store();
        let (q1, b1) = model.attention_param_ids();
        let (q2, b2) = model.head_param_ids();
        Stages {
            smoothed: Matrix::from_rows(&rows),
            q1: store.get(q1).clone(),
            b1: store.get(b1).clone(),
            q2: store.get(q2).clone(),
            b2: store.get(b2).clone(),
            m: model.config().n_components,
        }
    }

    /// Eq. 7 plus the Eq. 5–12 decode, as the inference engine runs them.
    fn head(&self, z: &Matrix) -> edge_geo::GaussianMixture {
        let mut theta = z.matmul(&self.q2);
        for (t, &b) in theta.row_mut(0).iter_mut().zip(self.b2.row(0)) {
            *t += b;
        }
        decode_theta(theta.row(0), self.m)
    }
}

/// Replays `wires` (exact request bytes, in the order the workload sent
/// them) through every serve-path layer of a server configured with the
/// given shards and the CLI's default cache settings. At most
/// `MAX_INFERENCE` answered texts go through the inference stages, which
/// are the slow ones.
pub fn replay_serve(
    wires: &[Vec<u8>],
    names: &[String],
    models: &[Arc<EdgeModel>],
) -> Result<ServeLayers, String> {
    let limits = ReadLimits::default();
    let http_parse_us = per_call_us(wires.len(), || {
        for wire in wires {
            std::hint::black_box(parse_buffered(std::hint::black_box(wire), &limits));
        }
    });
    let mut bodies = Vec::with_capacity(wires.len());
    for wire in wires {
        match parse_buffered(wire, &limits) {
            ParseStatus::Complete { req, .. } => bodies.push(req.body),
            other => return Err(format!("replayed request did not parse: {other:?}")),
        }
    }
    let body_bytes: usize = bodies.iter().map(Vec::len).sum();
    let decode_us = per_call_us(bodies.len(), || {
        for body in &bodies {
            let _ = std::hint::black_box(parse_predict_body(std::hint::black_box(body)));
        }
    });
    let mut texts: Vec<String> = Vec::new();
    for body in &bodies {
        texts.extend(parse_predict_body(body)?.texts);
    }

    let router = Router::new(names.to_vec(), models);
    let route_us = per_call_us(texts.len(), || {
        for text in &texts {
            std::hint::black_box(router.route_text(text, models));
        }
    });
    let shards: Vec<usize> = texts.iter().map(|t| router.route_text(t, models)).collect();
    let resolve_us = per_call_us(texts.len(), || {
        for (text, &s) in texts.iter().zip(&shards) {
            std::hint::black_box(models[s].resolve_entities(text));
        }
    });
    let ner_us = per_call_us(texts.len(), || {
        for (text, &s) in texts.iter().zip(&shards) {
            std::hint::black_box(models[s].recognizer().recognize(text));
        }
    });

    // Texts with entities reach the cache probe and, on a miss, inference.
    let answered: Vec<(usize, Vec<usize>)> = texts
        .iter()
        .zip(&shards)
        .map(|(t, &s)| (s, models[s].resolve_entities(t)))
        .filter(|(_, e)| !e.is_empty())
        .collect();
    let opts = PredictOptions::default();
    let locate = |(s, e): &(usize, Vec<usize>)| {
        models[*s]
            .locate(&PredictRequest::entities(e.clone()), &opts)
            .map_err(|err| format!("locate failed on a resolved text: {err}"))
    };
    // The server keeps one cache partition per shard, each of full capacity.
    let c = ServeConfig::default();
    let caches: Vec<ResponseCache> = models
        .iter()
        .map(|_| {
            ResponseCache::new(
                c.cache_capacity,
                c.cache_shards,
                c.cache_lsh_bits,
                c.cache_hamming_max,
            )
        })
        .collect();
    let key = |e: &[usize]| CacheKey { generation: 1, entities: e.to_vec(), fallback: false };
    for item in &answered {
        let bytes = Arc::new(render_response(&locate(item)?));
        caches[item.0].insert(key(&item.1), bytes);
    }
    let probe_us = per_call_us(answered.len(), || {
        for (s, e) in &answered {
            std::hint::black_box(caches[*s].get(&key(e)));
        }
    });

    let sample = &answered[..answered.len().min(MAX_INFERENCE)];
    let responses: Vec<PredictResponse> = sample.iter().map(locate).collect::<Result<_, _>>()?;
    let locate_us = per_call_us(sample.len(), || {
        for item in sample {
            let _ = std::hint::black_box(locate(item));
        }
    });
    let stages: Vec<Stages> = models.iter().map(|m| Stages::of(m)).collect();
    let attention = |(s, e): &(usize, Vec<usize>)| {
        let st = &stages[*s];
        attention_infer(&st.smoothed, e, &st.q1, &st.b1).0
    };
    let zs: Vec<Matrix> = sample.iter().map(attention).collect();
    let attention_us = per_call_us(sample.len(), || {
        for item in sample {
            std::hint::black_box(attention(item));
        }
    });
    let mixtures: Vec<edge_geo::GaussianMixture> =
        sample.iter().zip(&zs).map(|((s, _), z)| stages[*s].head(z)).collect();
    let mdn_us = per_call_us(sample.len(), || {
        for ((s, _), z) in sample.iter().zip(&zs) {
            std::hint::black_box(stages[*s].head(z));
        }
    });
    let mode_us = per_call_us(sample.len(), || {
        for mixture in &mixtures {
            std::hint::black_box(mixture.mode());
        }
    });
    let breakdown_mismatches = mixtures
        .iter()
        .zip(&responses)
        .filter(|(mixture, resp)| {
            let (p, q) = (mixture.mode(), resp.prediction.point);
            p.lat.to_bits() != q.lat.to_bits() || p.lon.to_bits() != q.lon.to_bits()
        })
        .count();
    let render_us = per_call_us(responses.len(), || {
        for resp in &responses {
            std::hint::black_box(render_response(resp));
        }
    });

    Ok(ServeLayers {
        http_parse_us,
        decode_us,
        decode_ns_per_byte: decode_us * 1e3 * bodies.len() as f64 / body_bytes.max(1) as f64,
        route_us,
        resolve_us,
        ner_us,
        probe_us,
        locate_us,
        attention_us,
        mdn_us,
        mode_us,
        render_us,
        texts_per_request: texts.len() as f64 / bodies.len().max(1) as f64,
        breakdown_mismatches,
    })
}

impl ServeLayers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("serve.http.parse_us", self.http_parse_us, "us"),
            Metric::new("serve.json.decode_us", self.decode_us, "us"),
            Metric::new("serve.json.decode_ns_per_byte", self.decode_ns_per_byte, "ns/B"),
            Metric::new("serve.router.route_us", self.route_us, "us"),
            Metric::new("core.resolve_us", self.resolve_us, "us"),
            Metric::new("text.ner_us", self.ner_us, "us"),
            Metric::new("serve.cache.probe_us", self.probe_us, "us"),
            Metric::new("core.locate_us", self.locate_us, "us"),
            Metric::new("core.attention_us", self.attention_us, "us"),
            Metric::new("core.mdn_us", self.mdn_us, "us"),
            Metric::new("geo.mode_us", self.mode_us, "us"),
            Metric::new("serve.render_us", self.render_us, "us"),
        ]
    }
}

/// Self time of the spans named `names`, seconds.
fn self_s(profile: &Profile, names: &[&str]) -> f64 {
    let us: u64 =
        profile.rows.iter().filter(|r| names.contains(&r.name.as_str())).map(|r| r.self_us).sum();
    us as f64 / 1e6
}

/// Total (self + children) time of the spans named `name`, seconds.
fn total_s(profile: &Profile, name: &str) -> f64 {
    profile.rows.iter().filter(|r| r.name == name).map(|r| r.total_us).sum::<u64>() as f64 / 1e6
}

/// The training rows of a traced run. `train_s` is the wall time of the
/// traced `EdgeModel::train` calls and `flops` the `(dense, sparse)` FLOP
/// counter deltas over them. The rows are disjoint self times, so
/// `train.residual_s` is what no named span covers (the epoch loop, batch
/// assembly, loss).
pub fn train_rows(profile: &Profile, flops: (u64, u64), train_s: f64) -> Vec<Metric> {
    let rows = [
        ("core.entity2vec_s", self_s(profile, &["entity2vec"])),
        ("embed.sgns_s", self_s(profile, &["sgns", "sgns.epoch"])),
        ("graph.build_s", self_s(profile, &["graph.build"])),
        ("core.gcn_s", self_s(profile, &["gcn"])),
        ("core.attention_s", self_s(profile, &["attention"])),
        ("core.mdn_s", self_s(profile, &["mdn"])),
        ("tensor.backward_s", self_s(profile, &["backward"])),
        ("tensor.adam_s", self_s(profile, &["adam.step"])),
        ("tensor.matmul_s", self_s(profile, &["matmul", "matmul.sparse"])),
    ];
    let named: f64 = rows.iter().map(|(_, s)| s).sum();
    let gflops = |flop: u64, secs: f64| if secs > 0.0 { flop as f64 / secs / 1e9 } else { 0.0 };
    let mut out: Vec<Metric> = rows.iter().map(|(n, s)| Metric::new(n, *s, "s")).collect();
    out.push(Metric::new(
        "tensor.matmul_gflops",
        gflops(flops.0, total_s(profile, "matmul")),
        "GFLOP/s",
    ));
    out.push(Metric::new(
        "tensor.spmm_gflops",
        gflops(flops.1, total_s(profile, "matmul.sparse")),
        "GFLOP/s",
    ));
    out.push(Metric::new("core.eval_s", total_s(profile, "evaluate"), "s"));
    out.push(Metric::new("train.residual_s", train_s - named, "s"));
    out
}

/// Turns span tracing and the metrics registry on for a traced training
/// run; [`TrainTracer::finish`] turns them off and returns the profile.
pub struct TrainTracer {
    flops_at_start: (u64, u64),
}

fn flop_counters() -> (u64, u64) {
    let snap = edge_obs::metrics::snapshot();
    (
        snap.counter("tensor.matmul.flops").unwrap_or(0),
        snap.counter("tensor.spmm.flops").unwrap_or(0),
    )
}

impl TrainTracer {
    pub fn start() -> TrainTracer {
        edge_obs::trace::reset();
        edge_obs::set_trace_enabled(true);
        edge_obs::set_metrics_enabled(true);
        TrainTracer { flops_at_start: flop_counters() }
    }

    /// `(dense, sparse)` FLOPs counted since [`TrainTracer::start`].
    pub fn flops(&self) -> (u64, u64) {
        let now = flop_counters();
        (now.0 - self.flops_at_start.0, now.1 - self.flops_at_start.1)
    }

    /// Stops tracing; returns the span profile and the FLOPs counted.
    pub fn finish(self) -> (Profile, (u64, u64)) {
        let flops = self.flops();
        edge_obs::set_trace_enabled(false);
        edge_obs::set_metrics_enabled(false);
        let profile = edge_obs::trace::profile();
        edge_obs::trace::reset();
        (profile, flops)
    }
}
