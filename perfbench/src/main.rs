//! Layer-attributed benchmark of the MBB workspace.
//!
//! ```text
//! mbb-perfbench --workload sparse|dense|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload generates its inputs from `--seed`, answers them through
//! the workspace's public APIs, checks every answer, and prints one JSON
//! object as the last line of standard output. With `--trace 0` the
//! object holds the end-to-end metrics, measured with every benchmark
//! timer off; with `--trace 1` it holds the per-layer metrics of a
//! separate traced run (see `README.md` for the layer × workload matrix).
//! The process exits non-zero when any answer check fails.

mod common;
mod dense;
mod kernels;
mod serve;
mod sparse;

use std::process::ExitCode;

use common::{Opts, Outcome};

const USAGE: &str =
    "usage: mbb-perfbench --workload sparse|dense|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match opts.workload.as_str() {
        "sparse" => sparse::run(&opts),
        "dense" => dense::run(&opts),
        "serve" => serve::run(&opts),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.print(opts.trace);
    if outcome.checks.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
