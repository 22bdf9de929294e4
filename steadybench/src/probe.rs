//! The `setup-bias` probe — the paper's Figure 1 applied to biaslab
//! itself: does the size of the process environment, a setup property no
//! one reports, move biaslab's own end-to-end numbers?
//!
//! It re-executes this binary on `suite-cold` and `serve-hot` under eight
//! seeded environment paddings (0–4 KiB in one extra variable, inherited
//! by every child process), and also four times at the first padding,
//! interleaved with the others, for the run-to-run spread, then prints each metric's spread across
//! paddings next to its run-to-run spread. It is not one of the gated
//! runs.

use std::process::{Command, Stdio};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::END_TO_END;
use crate::util::{median, percentile};

/// The variable that carries the padding.
const PAD_VAR: &str = "STEADYBENCH_PAD";

/// One re-executed run under a padding; returns the end-to-end values in
/// catalogue order.
fn run_padded(workload: &str, seed: u64, seconds: f64, pad: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .env(PAD_VAR, "x".repeat(pad))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("{workload} at padding {pad} failed: {line}"));
    }
    END_TO_END
        .iter()
        .map(|(name, _)| {
            let tail = line
                .split(&format!("\"{name}\": {{\"value\": "))
                .nth(1)
                .ok_or(format!("{name} missing"))?;
            tail.split(',')
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or(format!("{name} unparsable"))
        })
        .collect()
}

/// Interquartile range over the median.
fn spread(v: &[f64]) -> f64 {
    (percentile(v, 0.75) - percentile(v, 0.25)) / median(v)
}

/// Runs the probe and prints its table.
pub fn setup_bias(seed: u64, seconds: f64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    // No padding first: the run-to-run spread is measured there.
    let pads: Vec<usize> = std::iter::once(0)
        .chain((1..8).map(|_| rng.gen_range(1..=4096usize)))
        .collect();
    println!("setup-bias probe: seed {seed}, {seconds} s per run, paddings {pads:?} bytes");
    for workload in ["suite-cold", "serve-hot"] {
        // Repeats interleaved with the paddings, so both spreads cover the
        // same stretch of the host's drift.
        let (mut across, mut repeat) = (Vec::new(), Vec::new());
        for (i, &p) in pads.iter().enumerate() {
            across.push(run_padded(workload, seed, seconds, p)?);
            if i % 2 == 1 {
                repeat.push(run_padded(workload, seed, seconds, pads[0])?);
            }
        }
        println!(
            "\n{workload}: metric, median, spread across paddings, run-to-run spread (IQR/median)"
        );
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let a: Vec<f64> = across.iter().map(|v| v[i]).collect();
            let r: Vec<f64> = repeat.iter().map(|v| v[i]).collect();
            println!(
                "  {name:14} {:>12.4} {unit:4} {:>8.4} {:>8.4}",
                median(&a),
                spread(&a),
                spread(&r)
            );
        }
    }
    Ok(())
}
