//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints one JSON result as the last line
//! of standard output; exits non-zero on a bad command line or a failed
//! run, printing no result.

use perfbench::setup::Sizes;
use perfbench::{args, report, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from("perfbench").join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = perfbench::run(&args, &Sizes::full(args.workload), &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let line = outcome.and_then(|o| report::render(o.correct, o.attempted, o.failed, &o.metrics));
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
