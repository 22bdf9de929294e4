//! steadybench — the end-to-end and per-layer benchmark of biaslab.
//!
//! ```text
//! steadybench --workload <suite-cold|suite-resumed|serve-hot|serve-sweep>
//!             --seed <n> --seconds <s> --trace <0|1>
//! steadybench --probe setup-bias --seed <n> --seconds <s>
//! ```
//!
//! Each workload repeats a fixed amount of work (a *pass*: one quick
//! suite, or one round of requests) for `--seconds` after its set-up, and
//! prints one JSON line: the end-to-end metrics (medians over untraced
//! passes) with `--trace 0`, the per-layer metrics (from traced passes,
//! alternated with untraced ones to measure the tracing overhead) with
//! `--trace 1`. Every output is checked; see `README.md` beside this
//! package for the workloads, metrics and checks.

mod layers;
mod probe;
mod serving;
mod spans;
mod suite;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, by name.
const WORKLOADS: &[&str] = &["suite-cold", "suite-resumed", "serve-hot", "serve-sweep"];

/// The value following `flag` in `args`.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name).ok_or(format!("missing {name}"))?;
    v.parse().map_err(|_| format!("bad value for {name}: {v}"))
}

/// Runs one workload in a private directory under `.bench_work/`.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let work = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    util::fresh_dir(&work).map_err(|e| format!("work dir {}: {e}", work.display()))?;
    let out = match workload {
        "suite-cold" => suite::run(&work, false, seconds, trace),
        "suite-resumed" => suite::run(&work, true, seconds, trace),
        "serve-hot" => serving::hot(&work, seed, seconds, trace),
        "serve-sweep" => serving::sweep(&work, seed, seconds, trace),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    };
    let _ = std::fs::remove_dir_all(&work);
    // Only succeeds once no other run is using it.
    let _ = std::fs::remove_dir(work.parent().expect("work has a parent"));
    out
}

/// The result line: every metric of the requested kind, by name and unit.
fn result_json(out: &Outcome, trace: bool) -> String {
    let (catalogue, values) = if trace {
        (PER_LAYER, &out.layers)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let t = &out.tally;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && !t.wrong,
        t.attempted,
        t.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let traced = args.iter().any(|a| a == "--traced");
    let result = if let Some(store) = flag(&args, "--child-suite") {
        suite::child(Path::new(store), traced)
    } else if let Some(sock) = flag(&args, "--child-daemon") {
        serving::child(
            Path::new(sock),
            flag(&args, "--journal").map(PathBuf::from),
            traced,
        )
    } else if let Some(probe) = flag(&args, "--probe") {
        (|| {
            if probe != "setup-bias" {
                return Err(format!("unknown probe `{probe}`"));
            }
            probe::setup_bias(parse(&args, "--seed")?, parse(&args, "--seconds")?)
        })()
    } else {
        (|| {
            let workload: String = parse(&args, "--workload")?;
            let seed: u64 = parse(&args, "--seed")?;
            let seconds: f64 = parse(&args, "--seconds")?;
            let trace = match parse::<u8>(&args, "--trace")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace takes 0 or 1, got {t}")),
            };
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds out of range: {seconds}"));
            }
            let out = run_workload(&workload, seed, seconds, trace)?;
            println!("{}", result_json(&out, trace));
            Ok(())
        })()
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("steadybench: {e}");
            ExitCode::FAILURE
        }
    }
}
