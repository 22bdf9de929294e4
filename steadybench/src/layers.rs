//! The metric catalogue (end-to-end and per-layer, with units), the
//! derivation of per-layer values from a pass's report, and the
//! aggregation of passes into one run's result.

use std::collections::BTreeMap;

use crate::util::{median, num, Report};

/// Metric name → value.
pub type Values = BTreeMap<&'static str, f64>;

/// End-to-end metrics and their units, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("items_per_s", "1/s"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p90_ms", "ms"),
];

/// Per-layer metrics and their units, printed with `--trace 1`. A layer a
/// workload does not exercise reads `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("orch.load_s", "s"),
    ("orch.loaded_rows", "count"),
    ("orch.load_us_per_row", "us"),
    ("orch.persist_s", "s"),
    ("orch.persist_calls", "count"),
    ("orch.persist_rows", "count"),
    ("orch.persist_rows_min", "count"),
    ("orch.persist_rows_max", "count"),
    ("orch.simulated", "count"),
    ("orch.hits", "count"),
    ("orch.misses", "count"),
    ("orch.hit_ratio", "ratio"),
    ("orch.distinct_keys", "count"),
    ("orch.dup_sims", "count"),
    ("orch.dup_sims_min", "count"),
    ("orch.dup_sims_max", "count"),
    ("orch.busy_s", "s"),
    ("orch.sweep_wall_s", "s"),
    ("orch.pool_util", "ratio"),
    ("orch.self_s", "s"),
    ("harness.compile_s", "s"),
    ("harness.compile_spans", "count"),
    ("toolchain.link_s", "s"),
    ("toolchain.link_spans", "count"),
    ("toolchain.load_s", "s"),
    ("toolchain.load_spans", "count"),
    ("workloads.stat_s", "s"),
    ("workloads.stat_spans", "count"),
    ("uarch.run_s", "s"),
    ("uarch.runs", "count"),
    ("uarch.sim_instructions", "count"),
    ("uarch.minstr_per_s", "Minstr/s"),
    ("uarch.blockcache_hits", "count"),
    ("uarch.blockcache_misses", "count"),
    ("bench.ext_lint_s", "s"),
    ("bench.ext_analyze_s", "s"),
    ("bench.table1_s", "s"),
    ("bench.abl_warmup_s", "s"),
    ("bench.unattributed_s", "s"),
    ("analyze.lint_passes", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.proto_errors", "count"),
    ("serve.torn_writes", "count"),
    ("serve.self_s", "s"),
    ("serve.sweep_first_item_ms", "ms"),
    ("serve.journal_items", "count"),
    ("serve.resumed_items", "count"),
    ("serve.resumed_items_min", "count"),
    ("serve.resumed_items_max", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("check.unstable_counters", "count"),
];

/// Counters that must repeat exactly in every pass of the suite workloads.
pub const SUITE_STABLE: &[&str] = &[
    "orch.loaded_rows",
    "orch.distinct_keys",
    "orch.persist_calls",
    "uarch.sim_instructions",
    "analyze.lint_passes",
];

/// Counters that follow `orch.dup_sims` (every duplicate simulation is
/// one more miss and one more run through the block cache): reported
/// with their range.
const DUP_DEPENDENT: &[&str] = &[
    "orch.simulated",
    "orch.hits",
    "orch.misses",
    "uarch.blockcache_hits",
    "uarch.blockcache_misses",
    "serve.journal_items",
];

/// Counters that expose known scheduling defects: reported with their
/// range, never required to repeat. `orch.persist_rows` depends on how
/// many measurements the cache holds when each experiment's block is
/// flushed, which the schedule of `parallel::run_all` decides.
const DEFECT_COUNTERS: &[&str] = &["orch.dup_sims", "serve.resumed_items", "orch.persist_rows"];

/// Copies the process-wide registry counters a suite pass reports (block
/// cache, lint passes) into `r` under their per-layer names.
pub fn registry_into(r: &mut Report, counters: &[(String, u64)]) {
    for (from, to) in [
        ("uarch.blockcache.hit", "uarch.blockcache_hits"),
        ("uarch.blockcache.miss", "uarch.blockcache_misses"),
        ("analyze.lint.passes_run", "analyze.lint_passes"),
    ] {
        let v = counters
            .iter()
            .find(|(k, _)| k == from)
            .map_or(0, |(_, v)| *v);
        r.insert(to.to_owned(), v.to_string());
    }
}

/// Per-layer values every workload derives the same way from a pass
/// report: the orchestrator's counters and the span aggregates of a
/// traced pass.
pub fn common(r: &Report) -> Values {
    let mut v = Values::new();
    for &(name, _) in PER_LAYER {
        if r.contains_key(name) {
            v.insert(name, num(r, name));
        }
    }
    let span = |name: &str, what: &str| num(r, &format!("span.{name}.{what}"));
    let rows = num(r, "orch.loaded_rows");
    if rows > 0.0 {
        v.insert("orch.load_us_per_row", num(r, "orch.load_s") * 1e6 / rows);
    }
    let (hits, misses) = (num(r, "orch.hits"), num(r, "orch.misses"));
    if hits + misses > 0.0 {
        v.insert("orch.hit_ratio", hits / (hits + misses));
    }
    // Keys the pass added to the cache; every simulation beyond one per
    // key is a duplicate.
    let distinct = num(r, "orch.cached") - rows;
    v.insert("orch.distinct_keys", distinct);
    v.insert("orch.dup_sims", num(r, "orch.simulated") - distinct);
    let wall = num(r, "orch.sweep_wall_s");
    if wall > 0.0 {
        v.insert(
            "orch.pool_util",
            num(r, "orch.busy_s") / (wall * num(r, "threads")),
        );
    }
    v.insert(
        "orch.self_s",
        (span("sweep", "self_us")
            + span("measure", "self_us")
            + span(crate::spans::LOAD, "us")
            + span(crate::spans::PERSIST, "us"))
            / 1e6,
    );
    for (layer, name) in [
        ("harness.compile", "compile"),
        ("toolchain.link", "link"),
        ("toolchain.load", "load"),
        ("workloads.stat", "stat"),
    ] {
        v.insert(catalogued(&format!("{layer}_s")), span(name, "us") / 1e6);
        v.insert(catalogued(&format!("{layer}_spans")), span(name, "n"));
    }
    v.insert("uarch.run_s", span("run", "us") / 1e6);
    v.insert("uarch.runs", span("run", "n"));
    if span("run", "us") > 0.0 {
        // Instructions per microsecond is millions per second.
        v.insert(
            "uarch.minstr_per_s",
            num(r, "uarch.sim_instructions") / span("run", "us"),
        );
    }
    for (name, id) in [
        ("bench.ext_lint_s", "ext-lint"),
        ("bench.ext_analyze_s", "ext-analyze"),
        ("bench.table1_s", "table1"),
        ("bench.abl_warmup_s", "abl-warmup"),
    ] {
        v.insert(name, num(r, &format!("exp.{id}.us")) / 1e6);
    }
    v.insert("bench.unattributed_s", span("experiment", "self_us") / 1e6);
    let window = num(r, "trace.window_us");
    if window > 0.0 {
        v.insert(
            "trace.unattributed_frac",
            1.0 - num(r, "trace.covered_us") / window,
        );
    }
    v
}

/// The catalogue's `&'static` copy of a per-layer name built at run time.
fn catalogued(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .expect("every derived name is in PER_LAYER")
}

/// Attempted and failed operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// A check that is not one operation (a whole-output digest, a
    /// store's bytes) failed.
    pub wrong: bool,
}

impl Tally {
    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("steadybench: FAILED: {why}");
    }

    /// Records a failed check that is not one operation.
    pub fn wrong(&mut self, why: &str) {
        self.wrong = true;
        eprintln!("steadybench: WRONG: {why}");
    }
}

/// One run's result: operations, and the metrics of both kinds.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// End-to-end metrics (from untraced passes only).
    pub e2e: Values,
    /// Per-layer metrics (from traced passes).
    pub layers: Values,
}

impl Outcome {
    /// Aggregates passes: each end-to-end value a pass carries is the
    /// median over untraced passes (the caller adds the rest), each
    /// per-layer value the median over traced ones, and the counters in
    /// `stable` are checked to repeat exactly across all passes.
    pub fn from_passes(tally: Tally, passes: &[(bool, Values)], stable: &[&str]) -> Outcome {
        let column = |traced: bool, name: &str| -> Vec<f64> {
            passes
                .iter()
                .filter(|(t, _)| *t == traced)
                .filter_map(|(_, v)| v.get(name).copied())
                .collect()
        };
        let mut out = Outcome {
            tally,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            let values = column(false, name);
            if !values.is_empty() {
                out.e2e.insert(name, median(&values));
            }
        }
        let walls: Vec<String> = column(false, "suite_s")
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect();
        eprintln!("steadybench: untraced pass walls (s): {}", walls.join(" "));
        for &(name, _) in PER_LAYER {
            out.layers.insert(name, median(&column(true, name)));
        }
        let untraced = median(&column(false, "suite_s"));
        if untraced > 0.0 {
            out.layers.insert(
                "trace.overhead_frac",
                median(&column(true, "suite_s")) / untraced - 1.0,
            );
        }

        let all = |name: &str| -> Vec<f64> {
            passes
                .iter()
                .filter_map(|(_, v)| v.get(name).copied())
                .collect()
        };
        let mut unstable = 0.0;
        let mut line = String::from("steadybench: counters");
        let dependent = DUP_DEPENDENT.iter().filter(|n| !stable.contains(n));
        for &name in stable.iter().chain(dependent).chain(DEFECT_COUNTERS) {
            let vals = all(name);
            if vals.is_empty() {
                continue;
            }
            let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            line.push_str(&format!(" {name}={lo}"));
            if hi != lo {
                line.push_str(&format!("..{hi}"));
                if stable.contains(&name) {
                    unstable += 1.0;
                }
            }
            if DEFECT_COUNTERS.contains(&name) {
                out.layers.insert(catalogued(&format!("{name}_min")), lo);
                out.layers.insert(catalogued(&format!("{name}_max")), hi);
            }
        }
        eprintln!("{line}");
        if unstable > 0.0 {
            eprintln!("steadybench: {unstable} counter(s) differ between passes of the same code");
        }
        out.layers.insert("check.unstable_counters", unstable);
        out
    }
}
