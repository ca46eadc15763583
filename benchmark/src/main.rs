//! The repository benchmark. One command drives one seeded workload
//! through the workspace's public API, checks every output, and prints
//! its metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload characterize --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `README.md` beside this package for the workloads, the
//! metrics and their definitions.

mod app_cells;
mod characterize;
mod layers;
mod measure;
mod pipeline;
mod plan;
mod serve_report;
mod trace;

use measure::{result_json, Outcome, Recorder};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["characterize", "app-cells", "serve-report"];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: apx_benchmark --workload <characterize|app-cells|serve-report> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("a workload")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space inside the directory the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".benchwork")
}

/// Builds the traced run's outcome and writes its spans out.
pub fn finish_traced(
    args: &Args,
    tracer: &trace::Tracer,
    layers: layers::Layers,
    recorders: &[&Recorder],
    correct: bool,
) -> Outcome {
    let path = work_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written = tracer.write_jsonl(&path);
    let mut notes = vec![match &written {
        Ok(()) => format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => format!("cannot write spans to {}: {e}", path.display()),
    }];
    if !correct {
        notes.push("traced run failed a check (decomposition or counts)".to_owned());
    }
    let attempted = recorders.iter().map(|r| r.attempted).sum();
    let failed = recorders.iter().map(|r| r.failed).sum::<u64>();
    Outcome {
        correct: correct && failed == 0 && written.is_ok(),
        attempted,
        failed,
        metrics: layers.metrics(),
        notes,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "characterize" => characterize::run(&args),
        "app-cells" => app_cells::run(&args),
        _ => serve_report::run(&args),
    }
    .unwrap_or_else(|message| Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        notes: vec![message],
    });
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let args = parse("--workload app-cells --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: "app-cells".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        assert!(parse("--workload fft --seed 7 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload app-cells --seed 7 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload app-cells --seed 7 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload app-cells --seconds 10 --trace 0").is_err());
    }

    /// Two seeds drive different op streams (see `plan::tests`) through
    /// the same metrics: the names printed never depend on the seed.
    #[test]
    fn two_seeds_print_the_same_metric_names() {
        let names = |seed: u64, trace: bool| -> Vec<String> {
            let args = Args {
                workload: "characterize".to_owned(),
                seed,
                seconds: 0.01,
                trace,
            };
            let outcome = characterize::run(&args).expect("set-up succeeds");
            assert!(outcome.correct, "{:?}", outcome.notes);
            outcome.metrics.into_iter().map(|m| m.name).collect()
        };
        assert_ne!(plan::config_cycle(3), plan::config_cycle(4));
        assert_eq!(names(3, false), names(4, false));
        assert_eq!(names(3, true), names(4, true));
    }
}
