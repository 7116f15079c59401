//! Multi-shard routing and HTTP/1.1 pipelining, end to end: responses
//! from a routed two-metro server must be byte-identical to direct
//! `Predictor` calls on whichever shard the router picks, per-shard
//! metric families must attribute traffic to the right shard, and
//! pipelined requests must come back strictly in request order with the
//! same bytes a sequential client gets.

mod util;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

use edge_core::{
    ArtifactLoad, EdgeConfig, EdgeModel, PredictOptions, PredictRequest, Predictor, QuantMode,
    TrainOptions,
};
use edge_data::{dataset_recognizer, lama, Dataset, PresetSize};
use edge_serve::{Client, Router, ServeConfig, Server};

/// Second metro shard (Los Angeles) alongside `util`'s New York world.
struct LamaWorld {
    model_path: String,
    model: EdgeModel,
    dataset: Dataset,
}

static LAMA: OnceLock<LamaWorld> = OnceLock::new();

fn lama_world() -> &'static LamaWorld {
    LAMA.get_or_init(|| {
        let dataset = lama(PresetSize::Smoke, 9393);
        let (train, _) = dataset.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 2;
        let (model, _) = EdgeModel::train(
            train,
            dataset_recognizer(&dataset),
            &dataset.bbox,
            cfg,
            &TrainOptions::default(),
        )
        .expect("train");
        let path = std::env::temp_dir()
            .join(format!("edge_serve_router_lama_{}.model.json", std::process::id()));
        model.save_artifact(&path, QuantMode::None).expect("save");
        let model_path = path.to_string_lossy().into_owned();
        let model = EdgeModel::load_artifact(&model_path).expect("load");
        LamaWorld { model_path, model, dataset }
    })
}

/// Starts a two-shard server (nyma + lama) and returns it with a router
/// mirror built from the same artifacts, for computing expectations.
fn start_two_shards(mut config: ServeConfig) -> (Server, Router, Vec<Arc<EdgeModel>>) {
    config.addr = "127.0.0.1:0".to_string();
    let ny = EdgeModel::load_artifact(&util::world().model_path).expect("load nyma");
    let la = EdgeModel::load_artifact(&lama_world().model_path).expect("load lama");
    let server =
        Server::start_shards(vec![("nyma".to_string(), ny), ("lama".to_string(), la)], config)
            .expect("server starts");
    let models = vec![
        Arc::new(EdgeModel::load_artifact(&util::world().model_path).expect("load nyma")),
        Arc::new(EdgeModel::load_artifact(&lama_world().model_path).expect("load lama")),
    ];
    let router = Router::new(vec!["nyma".to_string(), "lama".to_string()], &models);
    (server, router, models)
}

/// Covered test-split texts from the lama dataset.
fn lama_texts(n: usize) -> Vec<String> {
    let w = lama_world();
    let (_, test) = w.dataset.paper_split();
    test.iter()
        .filter(|t| !w.model.resolve_entities(&t.text).is_empty())
        .take(n)
        .map(|t| t.text.clone())
        .collect()
}

/// The direct-prediction fragment from a specific shard's model.
fn shard_fragment(model: &EdgeModel, text: &str) -> Vec<u8> {
    match model.locate(&PredictRequest::text(text), &PredictOptions::default()) {
        Ok(resp) => edge_serve::json::render_response(&resp),
        Err(err) => edge_serve::json::render_error(&err),
    }
}

/// Extracts a labeled counter's value from an OpenMetrics exposition.
fn metric_value(text: &str, needle: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn routed_responses_are_bit_identical_to_the_owning_shard() {
    let (server, router, models) = start_two_shards(ServeConfig {
        cache_capacity: 0, // every text goes through a model
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    let mut texts = util::covered_texts(6);
    texts.extend(lama_texts(6));
    assert!(texts.len() >= 10, "both metros contribute covered texts");

    let mut routed = [0usize; 2];
    for text in &texts {
        let s = router.route_text(text, &models);
        routed[s] += 1;
        let resp = client.predict(text).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            shard_fragment(&models[s], text),
            "server bytes differ from direct rendering on shard {s}"
        );
    }
    assert!(routed[0] > 0, "some texts route to nyma");
    assert!(routed[1] > 0, "some texts route to lama");

    // The batch envelope mixes shards and still matches fragment-for-fragment.
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let resp = client.predict_batch(&refs).unwrap();
    assert_eq!(resp.status, 200);
    let mut expected = b"{\"results\":[".to_vec();
    for (i, text) in texts.iter().enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        let s = router.route_text(text, &models);
        expected.extend_from_slice(&shard_fragment(&models[s], text));
    }
    expected.extend_from_slice(b"]}");
    assert_eq!(resp.body, expected, "mixed-shard batch differs from direct rendering");

    // Per-shard attribution: both shards saw texts, and the exposition
    // says so under their own labels.
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    let ny = metric_value(&text, "serve_shard_texts_total{shard=\"nyma\"}");
    let la = metric_value(&text, "serve_shard_texts_total{shard=\"lama\"}");
    assert!(ny > 0.0, "nyma shard counter moved: {ny}");
    assert!(la > 0.0, "lama shard counter moved: {la}");
    server.shutdown();
}

/// The serve path's one-tokenization call gives exactly what routing and
/// then resolving separately give, on every test text of both metros.
#[test]
fn route_and_resolve_equals_route_text_then_resolve_entities() {
    let models = vec![
        Arc::new(EdgeModel::load_artifact(&util::world().model_path).expect("load nyma")),
        Arc::new(EdgeModel::load_artifact(&lama_world().model_path).expect("load lama")),
    ];
    let router = Router::new(vec!["nyma".to_string(), "lama".to_string()], &models);
    let (_, ny_test) = util::world().dataset.paper_split();
    let (_, la_test) = lama_world().dataset.paper_split();
    let mut per_shard = [0usize; 2];
    for tweet in ny_test.iter().chain(la_test) {
        let text = tweet.text.as_str();
        let shard = router.route_text(text, &models);
        let expected = (shard, models[shard].resolve_entities(text));
        assert_eq!(router.route_and_resolve(text, &models), expected, "{text:?}");
        per_shard[shard] += 1;
    }
    assert!(per_shard.iter().all(|&n| n > 0), "both shards routed to: {per_shard:?}");
}

#[test]
fn multi_shard_reload_requires_a_shard_name() {
    let (server, _, _) = start_two_shards(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let body =
        format!("{{\"path\":{}}}", serde_json::to_string(&util::world().model_path).unwrap());
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "ambiguous reload must be rejected");

    let body = format!(
        "{{\"path\":{},\"shard\":\"nyma\"}}",
        serde_json::to_string(&util::world().model_path).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "named-shard reload succeeds: {:?}", resp.json());

    let body = format!(
        "{{\"path\":{},\"shard\":\"atlantis\"}}",
        serde_json::to_string(&util::world().model_path).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "unknown shard is a typed client error");
    server.shutdown();
}

/// Reads one full HTTP/1.1 response (headers + Content-Length body) off
/// a stream that may already hold bytes of the next one.
struct RespReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RespReader {
    fn next(&mut self) -> Vec<u8> {
        loop {
            if let Some(header_end) = find(&self.buf, b"\r\n\r\n") {
                let headers = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
                let len: usize = headers
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .expect("response has a Content-Length");
                let total = header_end + 4 + len;
                if self.buf.len() >= total {
                    let rest = self.buf.split_off(total);
                    return std::mem::replace(&mut self.buf, rest);
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Frames one predict request with a fixed request id so response bytes
/// are deterministic across runs and connections.
fn predict_request(text: &str, id: &str) -> Vec<u8> {
    let body = format!("{{\"text\":{}}}", serde_json::to_string(text).unwrap());
    format!(
        "POST /predict HTTP/1.1\r\nHost: t\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn pipelined_requests_answer_in_order_with_sequential_bytes() {
    let server = util::start_server(ServeConfig {
        max_batch: 4,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let texts = util::covered_texts(6);
    assert!(texts.len() >= 4, "enough covered texts to pipeline");

    // Sequential leg: one request at a time on its own connection.
    let mut sequential = Vec::new();
    {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = RespReader { stream, buf: Vec::new() };
        for (i, text) in texts.iter().enumerate() {
            reader.stream.write_all(&predict_request(text, &format!("pipe-{i}"))).unwrap();
            sequential.push(reader.next());
        }
    }

    // Pipelined leg: every request written back-to-back before any
    // response is read. Answers must arrive strictly in request order
    // and byte-identical to the sequential leg.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = RespReader { stream, buf: Vec::new() };
    let mut wire = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        wire.extend_from_slice(&predict_request(text, &format!("pipe-{i}")));
    }
    reader.stream.write_all(&wire).unwrap();
    for (i, expected) in sequential.iter().enumerate() {
        let got = reader.next();
        assert_eq!(
            got,
            *expected,
            "pipelined response {i} differs from sequential:\n got: {}\nwant: {}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(expected)
        );
    }
    server.shutdown();
}
