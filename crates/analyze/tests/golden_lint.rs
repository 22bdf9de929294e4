//! Golden snapshots of the suite's biaslint findings, one JSONL stream
//! per machine model. Lint is a pure function of the IR, the linked
//! image grid, and the machine configuration, so its machine-readable
//! output must be byte-stable; drift means a detector or the hotness
//! model changed and `ext-lint`'s causal precision should be re-checked.
//!
//! To regenerate after an *intentional* detector change:
//!
//! ```text
//! BIASLAB_BLESS=1 cargo test -p biaslab-analyze --test golden_lint
//! ```
//!
//! (`scripts/ci.sh` diffs `biaslab lint all --json` against these same
//! files, so the CLI and the library stay in lockstep.)

use std::path::PathBuf;

use biaslab_analyze::{lint_suite_jsonl, validate_lint_line};
use biaslab_core::Orchestrator;
use biaslab_uarch::MachineConfig;

fn golden_path(machine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/lint_{machine}.jsonl"))
}

fn check(machine: &MachineConfig) {
    let actual = lint_suite_jsonl(Orchestrator::global(), machine).expect("suite lints");
    for line in actual.lines() {
        validate_lint_line(line).expect("golden stream is schema-clean");
    }
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
             --test golden_lint` to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "lint findings on {} drifted — if the detector change is intentional, \
         re-bless with BIASLAB_BLESS=1 and re-run ext-lint to confirm precision",
        machine.name
    );
}

#[test]
fn lint_findings_are_stable_on_pentium4() {
    check(&MachineConfig::pentium4());
}

#[test]
fn lint_findings_are_stable_on_core2() {
    check(&MachineConfig::core2());
}

#[test]
fn lint_findings_are_stable_on_o3cpu() {
    check(&MachineConfig::o3cpu());
}
