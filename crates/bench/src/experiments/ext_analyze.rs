//! `ext-analyze`: static-vs-dynamic validation of the bias analyzer.
//!
//! An extension, not a paper figure: the paper demonstrates bias by
//! sweeping real machines; `biaslab-analyze` claims the same sensitivity
//! is decidable from the linked image alone. This experiment runs the
//! static ranking (zero simulations, checked against the orchestrator's
//! instrumentation), then measures the O3/O2 speedup spread over a
//! setup grid for every benchmark and reports the Spearman rank
//! correlation per machine model.

use std::fmt::Write as _;

use biaslab_analyze::rank_suite;
use biaslab_core::report::Table;
use biaslab_core::setup::LinkOrder;
use biaslab_core::stats::spearman;
use biaslab_core::{ExperimentSetup, Orchestrator};
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;

use super::Effort;

/// The "careless experimenter" grid the measured side wanders over.
const ENV_SIZES: [u32; 4] = [0, 528, 1056, 1584];
const ORDERS: [LinkOrder; 2] = [LinkOrder::Default, LinkOrder::Reversed];

/// Measured sensitivity: the range of the O3/O2 cycle ratio over the
/// env-size × link-order grid.
fn measured_spread(bench: &str, machine: &MachineConfig, effort: Effort) -> f64 {
    let orch = Orchestrator::global();
    let harness = orch.harness(bench).expect("suite benchmark");
    let envs = &ENV_SIZES[..effort.points(ENV_SIZES.len()).min(ENV_SIZES.len())];
    let mut setups = Vec::new();
    for opt in [OptLevel::O2, OptLevel::O3] {
        for &env in envs {
            for order in ORDERS {
                let mut s = ExperimentSetup::default_on(machine.clone(), opt);
                s.link_order = order;
                if env > 0 {
                    s.env = Environment::of_total_size(env);
                }
                setups.push(s);
            }
        }
    }
    let results = orch.sweep(&harness, &setups, effort.input());
    let cycles: Vec<f64> = results
        .iter()
        .map(|r| r.as_ref().expect("measurable").counters.cycles as f64)
        .collect();
    let per_level = setups.len() / 2;
    let speedups: Vec<f64> = (0..per_level)
        .map(|i| cycles[i] / cycles[per_level + i])
        .collect();
    let lo = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

/// `ext-analyze`: predicted vs measured layout sensitivity per machine.
pub(crate) fn ext_analyze(effort: Effort) -> String {
    let machines = match effort {
        Effort::Quick => vec![MachineConfig::core2()],
        Effort::Full => MachineConfig::all(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ext-analyze: static sensitivity ranking vs measured O3/O2 spread\n\
         (extension beyond the paper; the static side runs zero simulations)\n"
    );
    for machine in machines {
        // The static side's zero-simulation property is asserted by
        // `tests/static_vs_dynamic.rs` (serially) and the CLI `analyze` test
        // (on a private orchestrator). It cannot be re-asserted here from
        // global orchestrator stats: under `repro all --jobs N` other
        // experiments simulate concurrently, so the counter moves for
        // unrelated reasons.
        let ranking = rank_suite(Orchestrator::global(), &machine).expect("suite analyzes");

        let mut table = Table::new(vec!["rank", "benchmark", "predicted", "measured-spread"]);
        let (mut predicted, mut measured) = (Vec::new(), Vec::new());
        for (i, r) in ranking.iter().enumerate() {
            let m = measured_spread(&r.bench, &machine, effort);
            predicted.push(r.predicted_spread);
            measured.push(m);
            table.row(vec![
                format!("{}", i + 1),
                r.bench.clone(),
                format!("{:.4}", r.predicted_spread),
                format!("{m:.4}"),
            ]);
        }
        let rho = spearman(&predicted, &measured);
        let _ = writeln!(out, "machine {}:", machine.name);
        let _ = write!(out, "{table}");
        let _ = writeln!(out, "spearman(predicted, measured) = {rho:.3}\n");
    }
    let _ = writeln!(
        out,
        "Reading: a positive rho on every machine means the linked image \
         alone predicts which benchmarks the paper's setup factors can bias."
    );
    out
}
