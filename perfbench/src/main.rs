//! End-to-end and per-layer benchmark of the mvcloud advisor.
//!
//! ```text
//! perfbench --workload <advise_sales|plan_montecarlo|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! One closed-loop client calls the advisor's public API in process,
//! each call waiting for the previous one, for `--seconds` of timed
//! work after set-up. Every input is generated from `--seed`, and every
//! op's output is checked. Untraced runs (`--trace 0`) report the
//! end-to-end metrics; traced runs (`--trace 1`) alternate traced and
//! untraced ops and report the per-layer metrics besides. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a failed check makes the exit
//! code 1. `run.py` builds this program and narrows its metrics to the
//! ones `BENCHMARK.json` names for the mode.

mod advise;
mod measure;
mod plan;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{Metric, Report, RunConfig};

const USAGE: &str = "usage: perfbench --workload <advise_sales|plan_montecarlo|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed: not a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            work_dir,
        },
    })
}

/// A JSON number, or `null` for a non-finite value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(rep: &Report, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    // `plan_montecarlo` and `serve_mixed` time each set-up in a fresh
    // process of this program: `perfbench --setup-probe <workload>
    // <arg>` prints the set-up's timings in ms, separated by spaces.
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, workload, arg] = argv.as_slice() {
        if flag == "--setup-probe" {
            let timings = match workload.as_str() {
                "plan_montecarlo" => arg
                    .parse()
                    .map_err(|_| format!("bad seed {arg:?}"))
                    .and_then(plan::setup_probe),
                "serve_mixed" => serve::setup_probe(std::path::Path::new(arg)),
                other => Err(format!("no set-up probe for {other:?}")),
            };
            return match timings {
                Ok(ms) => {
                    let ms: Vec<String> = ms.iter().map(f64::to_string).collect();
                    println!("{}", ms.join(" "));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench: set-up probe failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    if let Err(e) = std::fs::create_dir_all(&cfg.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work_dir.display());
        return ExitCode::from(2);
    }
    let run = match args.workload.as_str() {
        "advise_sales" => advise::run,
        "plan_montecarlo" => plan::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rep = run(cfg);

    for note in &rep.notes {
        println!("# {note}");
    }
    let error_rate = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "# error_rate = {error_rate} (failed {} of {} ops)",
        rep.failed, rep.attempted
    );
    // A traced run also reports its untraced ops' end-to-end numbers;
    // the wrapper keeps the ones the mode asks for.
    let metrics: Vec<&Metric> = if cfg.trace {
        rep.layers.iter().chain(&rep.end_to_end).collect()
    } else {
        rep.end_to_end.iter().collect()
    };
    for m in &metrics {
        println!("# {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&rep, &metrics));
    if rep.failed == 0 && rep.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
