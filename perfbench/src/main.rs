//! `perfbench` — the repo benchmark. Runs one named workload for a fixed
//! time and prints one JSON result line (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <ticket-64k|serve-warm>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <path to ultra-serve> --work-dir <dir>
//! ```
//!
//! `perfbench/run.py` builds this binary and `ultra-serve` from source and
//! passes the last two flags.

mod engine;
mod report;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["ticket-64k", "serve-warm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        work_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--serve-bin" => args.serve_bin = Some(value.into()),
            "--work-dir" => args.work_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ticket-64k" => Ok(engine::run(args.seed, args.seconds, args.trace)),
        _ => match (&args.serve_bin, &args.work_dir) {
            (Some(bin), Some(work)) => std::fs::create_dir_all(work)
                .map_err(|e| format!("{}: {e}", work.display()))
                .and_then(|()| serve::run(args.seed, args.seconds, args.trace, bin, work)),
            _ => Err("serve-warm needs --serve-bin and --work-dir".into()),
        },
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
