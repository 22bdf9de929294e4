//! Golden snapshots of the static sensitivity report, one benchmark per
//! machine model. The analyzer is a pure function of the IR, the linked
//! image, and the machine configuration, so its long-form output must be
//! byte-stable; drift means the predictor changed and the validation
//! correlation (see the root `static_vs_dynamic` test) should be
//! re-examined.
//!
//! To regenerate after an *intentional* predictor change:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test -p biaslab-analyze --test golden_report
//! ```

use std::path::PathBuf;

use biaslab_analyze::analyze_benchmark;
use biaslab_core::Orchestrator;
use biaslab_uarch::MachineConfig;

fn golden_path(machine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/analyze_{machine}.txt"))
}

fn check(bench: &str, machine: &MachineConfig) {
    let report = analyze_benchmark(Orchestrator::global(), bench, machine).expect("analyzable");
    let actual = report.explain() + "\n";
    let path = golden_path(&machine.name);
    if std::env::var_os("BIASLAB_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `BIASLAB_BLESS=1 cargo test -p biaslab-analyze \
             --test golden_report` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "static report for {bench} on {} drifted — if the predictor change is \
         intentional, re-bless with BIASLAB_BLESS=1",
        machine.name
    );
}

#[test]
fn report_is_stable_on_pentium4() {
    check("mcf", &MachineConfig::pentium4());
}

#[test]
fn report_is_stable_on_core2() {
    check("perlbench", &MachineConfig::core2());
}

#[test]
fn report_is_stable_on_o3cpu() {
    check("sjeng", &MachineConfig::o3cpu());
}
