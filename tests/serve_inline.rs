//! Cache hits answered on the connection's reader thread.
//!
//! A `measure` whose key is already cached is answered by the reader
//! that parsed it, without an admission-queue handoff. This pins the
//! accounting of that path: a hit counts once in `orch.hits` and in
//! `serve.measure`, never in `serve.shed`; a traced daemon records one
//! `measure` span with outcome `hit` for it; and requests that miss the
//! cache, unknown benchmark names included, still take the pooled path
//! and get its typed errors.
//!
//! The `serve.*` counters and the trace sink are process-global, so
//! everything that reads them lives in the one test of this binary.

use std::sync::Arc;

use biaslab_core::orchestrator::MeasureKey;
use biaslab_core::serve::{
    self, encode_control, encode_measure, encode_response, Addr, Client, MeasureSpec, Server,
    ServerConfig,
};
use biaslab_core::setup::LinkOrder;
use biaslab_core::telemetry::{self, CacheOutcome, TraceEvent};
use biaslab_core::Orchestrator;
use biaslab_toolchain::OptLevel;
use biaslab_workloads::InputSize;

fn temp_sock(tag: &str) -> Addr {
    let dir = std::env::temp_dir();
    Addr::Unix(dir.join(format!("biaslab-sinline-{tag}-{}.sock", std::process::id())))
}

fn spec(bench: &str) -> MeasureSpec {
    MeasureSpec {
        bench: bench.to_owned(),
        machine: "core2".to_owned(),
        opt: OptLevel::O2,
        order: LinkOrder::Default,
        text_offset: 0,
        stack_shift: 0,
        env: 0,
        size: InputSize::Test,
        budget: 0,
    }
}

/// One named counter out of a `stats` round trip.
fn counter(client: &mut Client, name: &str) -> u64 {
    let ex = client
        .request(&encode_control(900, "stats"))
        .expect("stats answered");
    serve::stats_counter(ex.terminal(), name).unwrap_or(0)
}

#[test]
fn inline_hits_are_accounted_once_and_traced() {
    let orch = Arc::new(Orchestrator::default());
    let addr = temp_sock("acct");
    let server =
        Server::start(&ServerConfig::new(addr.clone()), Arc::clone(&orch)).expect("server starts");
    let mut client = Client::new(addr);
    let s = spec("hmmer");

    // The first request misses and simulates on the pool.
    let first = client.request(&encode_measure(1, &s)).expect("answered");
    let direct = Orchestrator::default();
    let harness = direct.harness("hmmer").expect("known benchmark");
    let result = direct.measure(&harness, &s.setup().expect("known machine"), s.size);
    assert_eq!(first.terminal(), encode_response(1, &result));
    let cold = orch.stats();
    assert_eq!((cold.hits, cold.misses, cold.simulated), (0, 1, 1));

    // The repeat is a hit, answered inline, with the same bytes the
    // in-process path gives.
    let measures = counter(&mut client, "serve.measure");
    let shed = counter(&mut client, "serve.shed");
    let _ = telemetry::drain();
    telemetry::enable();
    let again = client.request(&encode_measure(2, &s)).expect("answered");
    telemetry::disable();
    let events = telemetry::drain();
    assert_eq!(again.terminal(), encode_response(2, &result));

    let warm = orch.stats();
    assert_eq!(
        (warm.hits, warm.misses, warm.simulated),
        (1, 1, 1),
        "one hit, counted once, nothing simulated"
    );
    assert_eq!(counter(&mut client, "serve.measure"), measures + 1);
    assert_eq!(
        counter(&mut client, "serve.shed"),
        shed,
        "a hit is never shed"
    );

    // Exactly one `measure` span, with outcome `hit`, for the request's
    // key, and the matching cache event.
    let key = MeasureKey::new("hmmer", &s.setup().expect("known machine"), s.size).digest();
    let spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span(sp) if sp.name == "measure" => Some(sp),
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 1, "one measure span per request: {spans:?}");
    assert_eq!(spans[0].key, key);
    assert_eq!(spans[0].bench, "hmmer");
    assert_eq!(spans[0].outcome, Some(CacheOutcome::Hit));
    let hits = events
        .iter()
        .filter(
            |e| matches!(e, TraceEvent::Cache(c) if c.outcome == CacheOutcome::Hit && c.key == key),
        )
        .count();
    assert_eq!(hits, 1, "one cache hit event");

    // An unknown benchmark misses the cache and still gets the pool's
    // typed `bench` error, without touching the orchestrator's counters.
    let unknown = client
        .request(&encode_measure(3, &spec("not-a-benchmark")))
        .expect("answered");
    assert_eq!(serve::line_status(unknown.terminal()), Some("err"));
    assert!(
        unknown.terminal().contains("\"code\":\"bench\""),
        "{}",
        unknown.terminal()
    );
    // An unknown machine never reaches a lookup: the parser refuses it.
    let bad_machine = encode_measure(4, &s).replace("\"core2\"", "\"vax\"");
    let refused = client.request(&bad_machine).expect("answered");
    assert_eq!(serve::line_status(refused.terminal()), Some("err"));
    assert!(
        refused.terminal().contains("\"code\":\"proto\"") && refused.terminal().contains("machine"),
        "{}",
        refused.terminal()
    );
    assert_eq!(
        orch.stats(),
        warm,
        "misses on unknown names leave the cache alone"
    );
    server.shutdown();
}
