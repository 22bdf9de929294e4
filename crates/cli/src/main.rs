//! `biaslab` — the command-line face of the measurement-bias laboratory.
//!
//! ```text
//! biaslab list                          # the benchmark suite
//! biaslab machines                      # the machine models
//! biaslab run perlbench --opt O3 --machine o3cpu --env 612 --profile
//! biaslab disasm hmmer --opt O2 | head
//! biaslab audit gcc --machine core2     # env + link-order bias report
//! biaslab analyze sjeng --explain       # predict bias statically (no runs)
//! biaslab analyze all --machine o3cpu   # rank the suite, still zero runs
//! biaslab survey                        # the 133-paper literature table
//! ```

use std::process::ExitCode;

mod args;
mod commands;
mod signals;

fn main() -> ExitCode {
    if let Err(e) = biaslab_core::faults::install_from_env() {
        eprintln!("error: invalid BIASLAB_FAULTS: {e}");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd, biaslab_core::Orchestrator::global()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
