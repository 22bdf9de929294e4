//! Validation of the static bias analyzer against the simulator.
//!
//! The analyzer ranks benchmarks by how far their measured O3/O2 speedup
//! should move when the experimental setup (environment size, link
//! order) varies. This test measures that spread for real — a grid of
//! setups per benchmark, at both optimization levels, on every machine
//! model — and requires the static ranking to correlate positively
//! (Spearman) with the measured one. It also pins the analyzer's core
//! contract: producing the ranking itself runs **zero** simulations.

use biaslab_analyze::rank_suite;
use biaslab_core::setup::LinkOrder;
use biaslab_core::stats::spearman;
use biaslab_core::Orchestrator;
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;

/// The setup grid the "careless experimenter" wanders over: a few
/// environment sizes crossed with two link orders. Small enough to stay
/// debug-build friendly, wide enough to excite the paper's bias
/// mechanisms.
const ENV_SIZES: [u32; 4] = [0, 528, 1056, 1584];
const ORDERS: [LinkOrder; 2] = [LinkOrder::Default, LinkOrder::Reversed];

/// Measured sensitivity of one benchmark: the range of the O3/O2 cycle
/// ratio across the setup grid.
fn measured_spread(orch: &Orchestrator, bench: &str, machine: &MachineConfig) -> f64 {
    let harness = orch.harness(bench).expect("known benchmark");
    let mut setups = Vec::new();
    for opt in [OptLevel::O2, OptLevel::O3] {
        for env in ENV_SIZES {
            for order in ORDERS {
                let mut s = biaslab_core::ExperimentSetup::default_on(machine.clone(), opt);
                s.link_order = order;
                if env > 0 {
                    s.env = Environment::of_total_size(env);
                }
                setups.push(s);
            }
        }
    }
    let results = orch.sweep(&harness, &setups, InputSize::Test);
    let cycles: Vec<f64> = results
        .iter()
        .map(|r| r.as_ref().expect("measurable").counters.cycles as f64)
        .collect();
    let per_level = setups.len() / 2;
    let speedups: Vec<f64> = (0..per_level)
        .map(|i| cycles[i] / cycles[per_level + i])
        .collect();
    let lo = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = speedups.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

#[test]
fn static_ranking_correlates_with_measured_spread() {
    let orch = Orchestrator::global();
    for machine in MachineConfig::all() {
        // The static side first, bracketed by simulation counters: the
        // analyzer must not execute a single instruction.
        let before = orch.stats().simulated;
        let ranking = rank_suite(orch, &machine).expect("whole suite analyzes");
        assert_eq!(
            orch.stats().simulated,
            before,
            "static analysis must run zero simulations"
        );
        assert!(ranking.len() >= 8, "whole suite ranked");

        let (static_scores, measured): (Vec<f64>, Vec<f64>) = ranking
            .iter()
            .map(|r| {
                (
                    r.predicted_spread,
                    measured_spread(orch, &r.bench, &machine),
                )
            })
            .unzip();
        let rho = spearman(&static_scores, &measured);
        eprintln!("{}: spearman(static, measured) = {rho:.3}", machine.name);
        assert!(
            rho > 0.0,
            "static ranking must positively correlate with measured O3/O2 spread \
             on {} (got rho = {rho:.3})",
            machine.name
        );
    }
}
