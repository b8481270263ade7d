//! `admbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --cli <path to rota-cli>`
//!
//! Prints one diagnostics line (`{"record": …}`) and then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when
//! every output check passed, 1 when one failed (the result line is
//! still printed), and 2 without a result when the run could not be
//! made.

use std::path::PathBuf;
use std::process::ExitCode;

use admbench::run::{run, Options, Report};
use admbench::workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("admbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(report) => {
            println!("{}", record_line(&options, &report));
            println!("{}", result_line(&report));
            if let Some(failure) = &report.first_failure {
                eprintln!(
                    "admbench: {} admits undecided, first: {failure}",
                    report.failed
                );
            }
            for problem in &report.problems {
                eprintln!("admbench: output check failed: {problem}");
            }
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("admbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cli: cli.ok_or("--cli is required")?,
    })
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

fn record_line(options: &Options, report: &Report) -> String {
    let fields: Vec<String> = report
        .record
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", number(*value)))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}}}}}",
        options.workload.name,
        options.seed,
        options.trace,
        fields.join(", ")
    )
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
