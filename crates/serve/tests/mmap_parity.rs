//! Cross-format serving parity: a server loading the zero-copy mapped
//! artifact must answer byte-for-byte what a server loading the legacy
//! JSON envelope answers (f32 artifacts are bit-identical by design), and
//! the LSH cache tier with `cache_hamming_max = 0` must leave response
//! bytes untouched.

mod util;

use edge_core::{ArtifactLoad, EdgeModel, PredictOptions, PredictRequest, Predictor};
use edge_serve::{Client, ServeConfig, Server};

/// The serve-level twin of the core byte-identity test: the mapped-format
/// server's rendered predictions equal the legacy model's direct
/// rendering, float bits included.
#[test]
fn mapped_server_matches_legacy_rendering_bit_for_bit() {
    let w = util::world();
    let legacy = EdgeModel::load_artifact(&w.legacy_path).expect("legacy load");

    let server = util::start_server(ServeConfig {
        cache_capacity: 0, // every text must go through the mmapped model
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    let mut compared = 0;
    for text in util::covered_texts(16) {
        let resp = client.predict(&text).unwrap();
        assert_eq!(resp.status, 200);
        let direct = legacy
            .locate(&PredictRequest::text(&text), &PredictOptions::default())
            .map(|r| edge_serve::json::render_response(&r))
            .expect("legacy model covers the text");
        assert_eq!(resp.body, direct, "bytes diverged for: {text}");
        compared += 1;
    }
    assert!(compared >= 8, "compared only {compared}");
    server.shutdown();
}

/// A cold start from the mapped artifact must serve the very first
/// request correctly — the lazy sections must not be needed on the
/// predict path.
#[test]
fn first_request_after_mmap_cold_start_is_correct() {
    let server = Server::start_from_artifact(
        &util::world().model_path,
        ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
    )
    .expect("cold start");
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));
    server.shutdown();
}

/// `cache_hamming_max = 0` keeps the approximate tier fully disabled:
/// responses (hits and misses alike) are byte-identical to the plain
/// exact-cache server.
#[test]
fn hamming_zero_server_is_byte_identical_to_exact_cache_server() {
    let exact = util::start_server(ServeConfig::default());
    let lsh_off = util::start_server(ServeConfig {
        cache_lsh_bits: 16,
        cache_hamming_max: 0,
        ..ServeConfig::default()
    });
    let mut c_exact = Client::connect(exact.addr()).unwrap();
    let mut c_off = Client::connect(lsh_off.addr()).unwrap();

    let texts = util::covered_texts(10);
    // Two passes so the second pass is served from each cache.
    for _ in 0..2 {
        for text in &texts {
            let a = c_exact.predict(text).unwrap();
            let b = c_off.predict(text).unwrap();
            assert_eq!(a.status, b.status);
            assert_eq!(a.body, b.body, "bytes diverged for: {text}");
        }
    }
    exact.shutdown();
    lsh_off.shutdown();
}

/// With the tier on, the served bytes are still valid rendered
/// predictions (the approximation trades *which* cached answer you get,
/// never its integrity), and generation safety holds across reloads.
#[test]
fn lsh_enabled_server_serves_wellformed_cached_bytes() {
    let server = util::start_server(ServeConfig {
        cache_lsh_bits: 16,
        cache_hamming_max: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let texts = util::covered_texts(8);
    for _ in 0..2 {
        for text in &texts {
            let resp = client.predict(text).unwrap();
            assert_eq!(resp.status, 200);
            let body = resp.text();
            assert!(body.contains("\"point\""), "malformed cached body: {body}");
        }
    }
    server.shutdown();
}
