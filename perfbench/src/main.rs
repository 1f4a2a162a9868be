//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|warm|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives one workload through the program's public entry points, checks
//! every output against a reference rendered through the public core API,
//! and prints the report (see `report.rs`). `--trace 0` measures the
//! end-to-end metrics; `--trace 1` gives the per-layer breakdown. Exits
//! nonzero when any output differs from its reference or a consistency
//! check fails. See `perfbench/README.md` for the workloads and metrics.

mod batch;
mod churn;
mod host;
mod inputs;
mod replay;
mod report;
mod serve;
mod stats;
mod warm;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload batch|warm|churn --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value.parse().ok()?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return None;
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse(&argv) else {
        return usage();
    };
    let report = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "warm" => warm::run(&args),
        "churn" => churn::run(&args),
        _ => return usage(),
    };
    eprint!("{}", report.table());
    println!("{}", report.report_json(&host::meta_json()));
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
