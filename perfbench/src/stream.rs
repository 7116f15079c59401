//! `serve-stream`: a closed loop of 32-text batch requests over one
//! keep-alive connection against a warmed two-shard (NYMA + LAMA) server.
//! Measured traffic is almost all cache hits, so the request path does the
//! work: HTTP framing, body decode, the router's and the shard's NER
//! passes, the cache probe and response assembly.
//!
//! The load generator and the server share one CPU, so the request path
//! runs one step at a time: request, server, reply. The host's speed
//! changes in steps that last seconds (see `perfbench/README.md`), so
//! throughput and the median come from the window's slowest slices.

use std::time::{Duration, Instant};

use crate::report::{Metric, Outcome};
use crate::server::{pin_current_thread, request_bytes, serve_cpu, Conn};
use crate::serving::{self, PoolText, Shards};
use crate::stats::{cpu_ticks, quantile, slowest_slices, steal_share, Rng};
use crate::Args;

/// Texts per request.
const BATCH: usize = 32;
/// The window is cut into slices of this many seconds ...
const SLICE_S: f64 = 0.5;
/// ... and this share of them, those with the highest median latency,
/// gives `throughput_tps` and `latency_p50_us`.
const SLOW_SHARE: f64 = 0.1;

/// Request `k` carries pool texts `BATCH*k .. BATCH*k + BATCH`, cyclically.
fn request_texts(pool: &[PoolText], k: u64) -> impl Iterator<Item = &PoolText> {
    let start = (k as usize * BATCH) % pool.len();
    (0..BATCH).map(move |j| &pool[(start + j) % pool.len()])
}

fn request_wire(pool: &[PoolText], k: u64) -> Vec<u8> {
    let items: Vec<&str> = request_texts(pool, k).map(|t| t.json.as_str()).collect();
    request_bytes("POST", "/predict", format!("{{\"texts\":[{}]}}", items.join(",")).as_bytes())
}

/// Whether `body` is exactly `{"results":[f0,f1,..]}` for request `k`.
fn matches_expected(pool: &[PoolText], k: u64, body: &[u8]) -> bool {
    let mut rest = match body.strip_prefix(b"{\"results\":[") {
        Some(r) => r,
        None => return false,
    };
    for (j, text) in request_texts(pool, k).enumerate() {
        if j > 0 {
            match rest.strip_prefix(b",") {
                Some(r) => rest = r,
                None => return false,
            }
        }
        match rest.strip_prefix(text.expected.as_slice()) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    rest == b"]}"
}

#[derive(Default)]
struct LoopStats {
    /// `(start offset s, latency us)` per correct reply.
    latencies_us: Vec<(f64, f64)>,
    ok: u64,
    failed: u64,
    mismatches: u64,
}

/// The closed-loop client, on CPU `cpu`: sends request `k`, waits for the
/// reply, checks it, and goes on with `k + 1` until `end`.
fn client(
    addr: std::net::SocketAddr,
    pool: &[PoolText],
    cpu: usize,
    begin: Instant,
    end: Instant,
) -> Result<LoopStats, String> {
    pin_current_thread(cpu).map_err(|e| format!("pinning the client to CPU {cpu}: {e}"))?;
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut stats = LoopStats::default();
    let mut k = 0;
    while Instant::now() < end {
        let wire = request_wire(pool, k);
        let started = Instant::now();
        let reply = conn.send(&wire).and_then(|_| conn.recv());
        let us = started.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok(resp) if resp.status == 200 && matches_expected(pool, k, &resp.body) => {
                stats.ok += 1;
                stats.latencies_us.push((started.duration_since(begin).as_secs_f64(), us));
            }
            Ok(resp) => {
                stats.failed += 1;
                if resp.status == 200 {
                    stats.mismatches += 1;
                }
            }
            Err(_) => {
                stats.failed += 1;
                conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
        k += 1;
    }
    Ok(stats)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let nyma = crate::corpus::generate("nyma", args.seed);
    let lama = crate::corpus::generate("lama", args.seed);
    let shards = Shards::build(
        &args.work,
        &[("nyma", &nyma), ("lama", &lama)],
        args.seed,
        args.serve_epochs,
        args.trace,
        out,
    )?;
    out.note(format!(
        "artifacts: {} epochs, EdgeModel::train {:.3} s (not gated here; see the train workload)",
        args.serve_epochs, shards.train_s
    ));
    // `(tweet, index of the shard of its own metro)`.
    let mut origin: Vec<(&edge_data::Tweet, usize)> = nyma
        .paper_split()
        .1
        .iter()
        .map(|t| (t, 0))
        .chain(lama.paper_split().1.iter().map(|t| (t, 1)))
        .collect();
    Rng::new(args.seed).shuffle(&mut origin);
    let tweets: Vec<&edge_data::Tweet> = origin.iter().map(|&(t, _)| t).collect();
    let pool = shards.pool(&tweets);
    let answered = pool.iter().filter(|t| t.predicted.is_some()).count();
    let router = edge_serve::Router::new(shards.names.clone(), &shards.models);
    let other_metro = origin
        .iter()
        .zip(&pool)
        .filter(|((t, home), p)| {
            p.predicted.is_some() && router.route_text(&t.text, &shards.models) != *home
        })
        .count();
    out.note(format!(
        "routing: {other_metro} of {answered} answered texts go to the other metro's shard"
    ));
    out.note(format!(
        "pool: {} test texts ({} answered, {} abstentions), {BATCH} texts per request, \
         mean body {:.0} B",
        pool.len(),
        answered,
        pool.len() - answered,
        pool.iter().map(|t| t.json.len() + 1).sum::<usize>() as f64 * BATCH as f64
            / pool.len() as f64
            + 11.0
    ));

    // Set-up: warm the response cache with one pass over the pool.
    let cycle = pool.len().div_ceil(BATCH) as u64;
    let cpu = serve_cpu()?;
    let mut server = serving::timed_setups(
        &args.edge_cli,
        &shards.model_args(),
        cpu,
        &args.work,
        &pool[0],
        out,
        {
            let pool = &pool;
            move |conn, out| {
                for k in 0..cycle {
                    let resp = conn.send(&request_wire(pool, k)).and_then(|_| conn.recv());
                    out.attempted += 1;
                    match resp {
                        Ok(r) if r.status == 200 && matches_expected(pool, k, &r.body) => {}
                        Ok(r) => {
                            out.failed += 1;
                            out.mismatches += u64::from(r.status == 200);
                        }
                        Err(e) => return Err(format!("warm-up request failed: {e}")),
                    }
                }
                Ok(())
            }
        },
    )?;
    let mut control = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    if args.trace {
        // The measured window is all cache hits, which skip the queue and
        // the batcher; the set-up's warm-up pass is what exercises them.
        serving::ring_rows(&mut control, 1024, "set-up warm-up", true, out)?;
        let (count, sum) = serving::batch_histogram(&mut control)?;
        out.layers.push(Metric::new("serve.batch_size", sum / count.max(1.0), "texts"));
    }
    let (hits0, misses0) = serving::cache_counts(&mut control)?;

    // The measured window: one closed-loop client on the server's CPU, in
    // a thread of its own so that the pin ends with the window.
    let ticks = cpu_ticks();
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(args.seconds);
    let stats = std::thread::scope(|s| {
        s.spawn(|| client(server.addr, &pool, cpu, started, end))
            .join()
            .expect("client thread panicked")
    })?;
    let window = started.elapsed().as_secs_f64();
    let steal = steal_share(ticks, cpu_ticks());
    out.attempted += stats.ok + stats.failed;
    out.failed += stats.failed;
    out.mismatches += stats.mismatches;

    let (hits1, misses1) = serving::cache_counts(&mut control)?;
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    let hit_ratio = if lookups > 0.0 { (hits1 - hits0) / lookups } else { 0.0 };
    // Texts per second and the median over the slowest slices, the p99
    // over every request of the window.
    let (slow, slow_s) = slowest_slices(&stats.latencies_us, window, SLICE_S, SLOW_SHARE);
    let throughput = (slow.len() * BATCH) as f64 / slow_s;
    let p50 = quantile(&slow, 0.5);
    let latencies: Vec<f64> = stats.latencies_us.iter().map(|&(_, us)| us).collect();
    out.e2e("throughput_tps", throughput);
    out.e2e("latency_p50_us", p50);
    out.e2e("latency_p99_us", quantile(&latencies, 0.99));
    // This workload trains only to build its artifacts, which is not what
    // it measures: `train_s` restates `throughput_tps` as the seconds one
    // pass over the pool takes.
    out.e2e("train_s", pool.len() as f64 / throughput);
    let deciles: Vec<String> =
        (1..10).map(|d| format!("{:.0}", quantile(&latencies, d as f64 / 10.0))).collect();
    out.note(format!("latency deciles p10..p90, whole window (us): {}", deciles.join(" ")));
    out.note(format!(
        "whole window: {:.1} texts/s, p50 {:.1} us; slowest {:.0}% of {SLICE_S} s slices \
         ({:.1} s, {} requests): {throughput:.1} texts/s, p50 {p50:.1} us, p99 {:.1} us",
        (stats.ok as usize * BATCH) as f64 / window,
        quantile(&latencies, 0.5),
        SLOW_SHARE * 100.0,
        slow_s,
        slow.len(),
        quantile(&slow, 0.99)
    ));
    let covered = (stats.ok as usize * BATCH).min(pool.len());
    out.e2e("mean_km", serving::mean_km(pool[..covered].iter()));
    out.e2e("peak_rss_mb", server.peak_rss_mb()?);
    out.note(format!(
        "window {:.3} s on CPU {cpu} (host steal {:.1}%): {} requests ({} texts), cache hit \
         ratio {:.4} over {} lookups",
        window,
        steal * 100.0,
        stats.ok + stats.failed,
        (stats.ok + stats.failed) as usize * BATCH,
        hit_ratio,
        lookups
    ));

    if args.trace {
        out.layers.push(Metric::new("serve.cache.hit_ratio", hit_ratio, "ratio"));
        serving::ring_rows(&mut control, 1024, "measured window", false, out)?;
        let done = (stats.ok + stats.failed).min(cycle);
        let wires: Vec<Vec<u8>> = (0..done).map(|k| request_wire(&pool, k)).collect();
        let layers = crate::layers::replay_serve(&wires, &shards.names, &shards.models)?;
        // Per request: framing and decode once, then per text the router's
        // NER pass, the shard's resolve and the cache probe (hits skip
        // inference and rendering).
        let tpr = layers.texts_per_request;
        let answered_share = answered as f64 / pool.len() as f64;
        let path = [
            ("serve.http.parse_us", layers.http_parse_us),
            ("serve.json.decode_us", layers.decode_us),
            ("serve.router.route_us x texts", layers.route_us * tpr),
            ("core.resolve_us x texts", layers.resolve_us * tpr),
            ("serve.cache.probe_us x answered", layers.probe_us * tpr * answered_share),
        ];
        crate::reconcile(out, p50, &path, layers.breakdown_mismatches);
        out.layers.extend(layers.metrics());
    }
    drop(control);
    server.stop()?;
    Ok(())
}
