//! Integration tests for the observability layer. The enable flags are
//! process-global, so each concern keeps to its own metric/span names and the
//! trace assertions live in a single test body.

use std::time::Duration;

use edge_obs::trace;

#[test]
fn concurrent_counter_increments_from_scoped_threads() {
    edge_obs::set_metrics_enabled(true);
    let c = edge_obs::metrics::counter("itest.concurrent.counter");
    let before = c.get();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                start.wait();
                for _ in 0..16_000 {
                    c.inc(1);
                }
            });
        }
    });
    assert_eq!(c.get() - before, 64_000, "relaxed increments must not be lost");
    let snap = edge_obs::metrics::snapshot();
    assert!(snap.counter("itest.concurrent.counter").unwrap() >= 64_000);
}

#[test]
fn span_nesting_self_time_and_jsonl_round_trip() {
    // One test body for all trace behavior: the enable flag is global, so a
    // second #[test] flipping it would race this one.
    edge_obs::set_trace_enabled(false);
    {
        let _span = edge_obs::span("itest.disabled");
    }
    assert!(trace::records().iter().all(|r| r.name != "itest.disabled"));

    edge_obs::set_trace_enabled(true);
    trace::reset();
    {
        let _outer = edge_obs::span("itest.outer");
        std::thread::sleep(Duration::from_millis(15));
        {
            let _inner = edge_obs::span("itest.inner");
            std::thread::sleep(Duration::from_millis(15));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    edge_obs::set_trace_enabled(false);

    let records = trace::records();
    let outer = records.iter().find(|r| r.name == "itest.outer").expect("outer recorded");
    let inner = records.iter().find(|r| r.name == "itest.inner").expect("inner recorded");
    assert_eq!(outer.parent, 0, "outer is a root span");
    assert_eq!(inner.parent, outer.id, "nesting gives the inner span its parent");
    assert_eq!(inner.thread, outer.thread);
    assert!(inner.start_us >= outer.start_us);
    assert!(inner.dur_us >= 14_000, "inner covers its sleep: {}", inner.dur_us);
    assert!(outer.dur_us >= inner.dur_us + 15_000, "outer covers both sleeps");

    // Self time = total minus direct children, and self times partition the
    // root total exactly.
    let profile = trace::profile_of(&records);
    let outer_row = profile.rows.iter().find(|r| r.name == "itest.outer").unwrap();
    let inner_row = profile.rows.iter().find(|r| r.name == "itest.inner").unwrap();
    assert_eq!(outer_row.calls, 1);
    assert_eq!(outer_row.total_us, outer.dur_us);
    assert_eq!(outer_row.self_us, outer.dur_us - inner.dur_us);
    assert_eq!(inner_row.self_us, inner.dur_us);
    let self_sum: u64 = profile.rows.iter().map(|r| r.self_us).sum();
    assert_eq!(self_sum, profile.root_total_us);
    assert!(profile.coverage(&["itest.outer", "itest.inner"]) > 0.999);
    let table = profile.render();
    assert!(table.contains("itest.outer") && table.contains("traced wall time"));

    // JSONL round trip preserves every field.
    let dump = trace::dump_jsonl();
    let parsed = trace::parse_jsonl(&dump).expect("dump parses back");
    assert_eq!(parsed.len(), records.len());
    for (p, r) in parsed.iter().zip(&records) {
        assert_eq!((p.id, p.parent, p.thread), (r.id, r.parent, r.thread));
        assert_eq!(p.name, r.name);
        assert_eq!((p.start_us, p.dur_us), (r.start_us, r.dur_us));
    }
    assert!(trace::parse_jsonl("{not json}\n").is_none());
}
