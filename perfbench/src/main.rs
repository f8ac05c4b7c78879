//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable figures, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}`. Exits non-zero on a usage
//! error, a setup error or any failed or wrong reply.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use perfbench::bench::{end_to_end, traced, Metric, Report};
use perfbench::workload::{Stream, Workload};

/// Where the server sockets live, relative to the working directory.
const RUN_DIR: &str = ".perfbench-run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn json_line(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len()
    );
    for (i, Metric { name, value, unit }) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <decide_cold|chase_ingest|repeat_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let dir = Path::new(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("perfbench: cannot create {RUN_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let stream = Stream::new(args.workload, args.seed);
    let run = if args.trace {
        traced(&stream, args.seconds, dir)
    } else {
        end_to_end(&stream, args.seconds, dir)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in report.metrics.iter().chain(&report.notes) {
        println!("  {:<46} {:>16.3} {}", m.name, m.value, m.unit);
    }
    for failure in report.failures.iter().take(10) {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!("{}", json_line(&report));
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
