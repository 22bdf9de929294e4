//! `suite-cold` and `suite-resumed`: the quick suite as `repro all
//! --effort quick` runs it, one pass per fresh process (the experiments
//! reach `Orchestrator::global()`, so a cold pass needs a new process).
//!
//! The benchmark spawns itself with `--child-suite <store>`; the child
//! constructs the global orchestrator and prints `ready` (the
//! spawn-to-ready time is the cold workload's set-up: the program's
//! start-up), then, timed as the pass, loads the store, runs the suite
//! with `parallel::run_all`, persists after each experiment, and reports.

use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

use biaslab_bench::{parallel, Effort, EXPERIMENTS};
use biaslab_core::{telemetry, Orchestrator};

use crate::layers::{self, Tally};
use crate::spans;
use crate::util::{cores, fnv64, fresh_dir, median, num, peak_rss_mb, percentile, Proc, Report};

/// The expected-output digests: `stdout <hex>` for the whole quick-suite
/// stdout and `<experiment id> <hex>` for each experiment's output.
const EXPECTED: &str = include_str!("../expected.txt");

fn expected(key: &str) -> Option<u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
}

/// Child side: one pass over the store in `store`.
pub fn child(store: &Path, traced: bool) -> Result<(), String> {
    if traced {
        telemetry::enable();
    }
    // Start-up as `repro all` does it before loading its store.
    let orch = Orchestrator::global();
    crate::util::print_ready();
    let mut go = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut go)
        .map_err(|e| format!("stdin: {e}"))?;

    let path = store.join("measurements.jsonl");
    let instructions_before = store_instructions(&path);
    let mut r = Report::new();
    let window_start = telemetry::now_us();
    let start = Instant::now();

    let span = traced.then(|| telemetry::Span::open(spans::LOAD, "store"));
    let t = Instant::now();
    let loaded = orch.load(&path).map_err(|e| format!("load: {e}"))?;
    r.insert("orch.load_s".into(), t.elapsed().as_secs_f64().to_string());
    if let Some(span) = span {
        span.close();
    }

    let mut out: Vec<u8> = Vec::new();
    let mut persist_s = 0.0;
    let mut persist_calls = 0u64;
    let mut persist_rows = 0u64;
    // One experiment worker per core, as `repro all` defaults to.
    let panics = parallel::run_all(EXPERIMENTS, Effort::Quick, cores(), &mut out, |run| {
        let digest = match &run.outcome {
            Ok(text) => format!("{:016x}", fnv64(text.as_bytes())),
            Err(_) => "panicked".to_owned(),
        };
        r.insert(format!("xd.{}", run.id), digest);
        let span = traced.then(|| telemetry::Span::open(spans::PERSIST, run.id));
        let t = Instant::now();
        persist_rows += orch.persist(&path) as u64;
        persist_s += t.elapsed().as_secs_f64();
        persist_calls += 1;
        if let Some(span) = span {
            span.close();
        }
    })
    .map_err(|e| format!("suite output: {e}"))?;
    let suite_s = start.elapsed().as_secs_f64();
    let window_end = telemetry::now_us();

    let stats = orch.stats();
    let store_bytes = std::fs::read(&path).unwrap_or_default();
    // Instructions of the measurements this pass added to the store.
    let sim_instructions = store_instructions(&path).saturating_sub(instructions_before);
    for (k, v) in [
        ("suite_s", suite_s.to_string()),
        ("panics", panics.to_string()),
        (
            "persist_degraded",
            u8::from(orch.persist_degraded()).to_string(),
        ),
        ("stdout", format!("{:016x}", fnv64(&out))),
        ("store", format!("{:016x}", fnv64(&store_bytes))),
        ("rss_mb", peak_rss_mb().to_string()),
        ("threads", cores().to_string()),
        ("orch.loaded_rows", loaded.to_string()),
        ("orch.persist_s", persist_s.to_string()),
        ("orch.persist_calls", persist_calls.to_string()),
        ("orch.persist_rows", persist_rows.to_string()),
        ("orch.simulated", stats.simulated.to_string()),
        ("orch.hits", stats.hits.to_string()),
        ("orch.misses", stats.misses.to_string()),
        ("orch.cached", stats.cached.to_string()),
        ("orch.busy_s", (stats.busy_us as f64 / 1e6).to_string()),
        (
            "orch.sweep_wall_s",
            (stats.sweep_wall_us as f64 / 1e6).to_string(),
        ),
        ("uarch.sim_instructions", sim_instructions.to_string()),
    ] {
        r.insert(k.to_owned(), v);
    }
    layers::registry_into(&mut r, &telemetry::metrics().snapshot());
    if traced {
        spans::drain_into(&mut r, window_start, window_end);
    }
    crate::util::print_report(&r);
    Ok(())
}

/// Sum of the `instructions` counter (second entry of `counters`) over
/// the measurements persisted in `path`; `0` for a missing store.
fn store_instructions(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let counters = line.split("\"counters\":[").nth(1)?;
            counters.split(',').nth(1)?.trim().parse::<u64>().ok()
        })
        .sum()
}

/// One pass in a fresh child process; returns its report and the
/// spawn-to-ready time.
fn pass(store: &Path, traced: bool) -> Result<(Report, f64), String> {
    let mut args = vec!["--child-suite".to_owned(), store.display().to_string()];
    if traced {
        args.push("--traced".to_owned());
    }
    let mut p = Proc::spawn(&args)?;
    p.wait_ready()?;
    let ready = p.spawned.elapsed().as_secs_f64();
    p.send("go")?;
    Ok((p.finish()?, ready))
}

/// Counts the pass's experiments against the expected digests; a panicked
/// or mismatching experiment is one failed operation.
fn check_pass(r: &Report, tally: &mut Tally, what: &str) {
    for e in EXPERIMENTS {
        tally.attempted += 1;
        let got = r.get(&format!("xd.{}", e.id)).map(String::as_str);
        let want = expected(e.id).map(|h| format!("{h:016x}"));
        if got.is_none() || got != want.as_deref() {
            tally.fail(&format!(
                "{what}: experiment {} output {got:?}, expected {want:?}",
                e.id
            ));
        }
    }
    let want = expected("stdout").map(|h| format!("{h:016x}"));
    if r.get("stdout") != want.as_ref() {
        tally.wrong(&format!(
            "{what}: suite stdout {:?}, expected {want:?}",
            r.get("stdout")
        ));
    }
    if num(r, "persist_degraded") != 0.0 {
        tally.wrong(&format!("{what}: the store could not be written"));
    }
}

/// Layer metrics of one pass, plus the suite's end-to-end view of it.
fn pass_layers(r: &Report) -> layers::Values {
    let mut v = layers::common(r);
    let s = num(r, "suite_s");
    v.insert("suite_s", s);
    v.insert("rps", EXPERIMENTS.len() as f64 / s);
    v.insert(
        "items_per_s",
        (num(r, "orch.hits") + num(r, "orch.misses")) / s,
    );
    v.insert("peak_rss_mb", num(r, "rss_mb"));
    v
}

/// Runs `suite-cold` (`resumed == false`) or `suite-resumed` for `seconds`
/// of passes after set-up.
pub fn run(
    work: &Path,
    resumed: bool,
    seconds: f64,
    trace: bool,
) -> Result<layers::Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let store = work.join("store");
    if resumed {
        // Set-up: a cold pass fills the store, three times for a median;
        // the last store is the one every measured pass resumes from.
        for _ in 0..3 {
            fresh_dir(&store).map_err(|e| format!("store dir: {e}"))?;
            let start = Instant::now();
            let (r, _) = pass(&store, false)?;
            setups.push(start.elapsed().as_secs_f64());
            check_pass(&r, &mut tally, "set-up cold pass");
        }
    }
    let store_digest = std::fs::read(store.join("measurements.jsonl"))
        .map(|b| format!("{:016x}", fnv64(&b)))
        .ok();

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut passes: Vec<(bool, layers::Values)> = Vec::new();
    // Wall of every untraced pass.
    let mut walls = Vec::new();
    let min_passes = if trace { 4 } else { 3 };
    while passes.len() < min_passes || Instant::now() < deadline {
        let traced = trace && passes.len() % 2 == 1;
        if !resumed {
            fresh_dir(&store).map_err(|e| format!("store dir: {e}"))?;
        }
        let (r, ready) = pass(&store, traced)?;
        check_pass(
            &r,
            &mut tally,
            if resumed { "resumed pass" } else { "cold pass" },
        );
        if resumed && r.get("store") != store_digest.as_ref() {
            tally.wrong("resumed pass: rewriting the store changed its bytes");
        }
        if !resumed {
            setups.push(ready);
        }
        if !traced {
            walls.push(num(&r, "suite_s"));
        }
        passes.push((traced, pass_layers(&r)));
    }
    let mut out = layers::Outcome::from_passes(tally, &passes, layers::SUITE_STABLE);
    out.e2e.insert("setup_s", median(&setups));
    // Latency of the whole suite, what a user of `repro all` waits for.
    // Single experiments' latencies move with whichever experiment shares
    // the other core, and spread up to 27% between runs where pass walls
    // spread 14%.
    out.e2e.insert("p50_us", percentile(&walls, 0.5) * 1e6);
    out.e2e.insert("p99_us", percentile(&walls, 0.99) * 1e6);
    out.e2e
        .insert("sweep_p50_ms", percentile(&walls, 0.5) * 1e3);
    out.e2e
        .insert("sweep_p90_ms", percentile(&walls, 0.9) * 1e3);
    Ok(out)
}
