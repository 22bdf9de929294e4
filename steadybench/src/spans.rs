//! Span aggregation for traced runs: per-name totals, counts and self
//! time (span time minus the part of its interval its child spans cover),
//! per-experiment wall time, and the share of a window no span covers.

use std::collections::{BTreeMap, HashMap};

use biaslab_core::telemetry::{self, SpanEvent, TraceEvent};

use crate::util::Report;

/// Name of the benchmark's span around `Orchestrator::load`.
pub const LOAD: &str = "bench.load";
/// Name of the benchmark's span around `Orchestrator::persist`.
pub const PERSIST: &str = "bench.persist";
/// Name of the benchmark's span around each client request.
pub const REQUEST: &str = "bench.request";

/// Total length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for (a, b) in intervals {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

fn end(s: &SpanEvent) -> u64 {
    s.start_us + s.dur_us
}

/// Drains this process's buffered spans that lie inside
/// `[start_us, end_us]` and adds their aggregates to `report`:
/// `span.<name>.{us,n,self_us}`, `exp.<id>.us` per experiment, and
/// `trace.{covered_us,window_us}`.
///
/// A span's children are the spans it opened on its own thread, plus —
/// for a `sweep` — the `measure` spans its pool threads ran inside its
/// interval under the same experiment scope (pool threads are fresh, so
/// the trace links them to no parent).
pub fn drain_into(report: &mut Report, start_us: u64, end_us: u64) {
    let spans: Vec<SpanEvent> = telemetry::drain()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) if s.start_us >= start_us && end(&s) <= end_us => Some(s),
            _ => None,
        })
        .collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, end(s)));
    }
    let pool: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "measure" && s.worker != 0)
        .collect();
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in &spans {
        let mut inside = children.remove(&s.id).unwrap_or_default();
        if s.name == "sweep" {
            inside.extend(
                pool.iter()
                    .filter(|m| m.scope == s.scope && m.start_us >= s.start_us && end(m) <= end(s))
                    .map(|m| (m.start_us, end(m))),
            );
        }
        let own = s.dur_us - union_len(inside).min(s.dur_us);
        let t = totals.entry(s.name).or_default();
        t.0 += s.dur_us;
        t.1 += 1;
        t.2 += own;
        if s.name == "experiment" {
            report.insert(format!("exp.{}.us", s.bench), s.dur_us.to_string());
        }
    }
    for (name, (us, n, self_us)) in totals {
        report.insert(format!("span.{name}.us"), us.to_string());
        report.insert(format!("span.{name}.n"), n.to_string());
        report.insert(format!("span.{name}.self_us"), self_us.to_string());
    }
    let covered = union_len(spans.iter().map(|s| (s.start_us, end(s))).collect());
    report.insert("trace.covered_us".to_owned(), covered.to_string());
    report.insert(
        "trace.window_us".to_owned(),
        end_us.saturating_sub(start_us).to_string(),
    );
}
