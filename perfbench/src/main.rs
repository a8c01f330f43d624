//! User-facing benchmark of the rumor service.
//!
//! Drives an in-process `rumor_serve::serve` over HTTP with one of three
//! workloads and prints, as its last line, one JSON object with the
//! figures of `BENCHMARK.json`:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analyst|dashboard|campaign|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with rollups on, replays its requests through each layer
//! and reports the per-layer metrics. `--workload all` runs the three
//! workloads one after another, each in its own process. `--record`
//! prints a fresh `references.json` on standard output.

mod analyst;
mod bodies;
mod campaign;
mod checks;
mod client;
mod dashboard;
mod env;
mod gen;
mod layers;
mod reference;
mod report;
mod stats;
mod trace;

use report::Outcome;
use rumor_serve::wire::{self, serialize, Value};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["analyst", "dashboard", "campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
    })
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<(String, Value)> = if trace {
        outcome
            .layers
            .iter()
            .map(|(m, v)| {
                (
                    m.name.clone(),
                    Value::obj([
                        ("value", Value::Num(*v)),
                        ("unit", Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect()
    } else {
        outcome
            .e2e
            .iter()
            .map(|(name, unit, v)| {
                (
                    name.to_string(),
                    Value::obj([
                        ("value", Value::Num(*v)),
                        ("unit", Value::Str((*unit).into())),
                    ]),
                )
            })
            .collect()
    };
    let t = &outcome.tally;
    serialize(&Value::obj([
        ("correct", Value::Bool(t.failed == 0)),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

fn main() -> ExitCode {
    // Production defaults: the server resolves its own thread counts.
    for var in env::THREAD_VARS {
        std::env::remove_var(var);
    }
    if std::env::args().any(|a| a == "--record") {
        reference::record();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let refs = reference::References::load();
    let run = match args.workload.as_str() {
        "analyst" => analyst::run(args.seed, args.trace, &refs),
        "dashboard" => dashboard::run(args.seed, args.seconds, args.trace, &refs),
        "campaign" => campaign::run(args.seed, args.trace, &refs),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir(env::WORK_DIR);
    let (outcome, provenance) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    let t = &outcome.tally;
    println!(
        "metric {} failed_share {:.6} ratio (n={})",
        args.workload,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.attempted
    );
    for e in &t.errors {
        println!("failure {e}");
    }
    if !args.trace {
        for (name, unit, v) in &outcome.e2e {
            println!("e2e {} {name} {v:.6} {unit}", args.workload);
        }
    }
    println!("{provenance}");
    println!("{}", result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own (so each reports
/// its own peak memory), forwards their output, and ends with one
/// result whose metrics are prefixed by workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let seed = args.seed.to_string();
        let seconds = args.seconds.to_string();
        let trace = if args.trace { "1" } else { "0" };
        let child = std::process::Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed,
                "--seconds",
                &seconds,
            ])
            .args(["--trace", trace])
            .output();
        let out = match child {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!("perfbench: {workload} failed ({})", out.status);
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return ExitCode::from(1);
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let result = text.lines().last().and_then(|l| wire::parse(l).ok());
        let Some(result) = result else {
            eprintln!("perfbench: {workload} printed no result");
            return ExitCode::from(1);
        };
        correct &= result.get("correct") == Some(&Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, value) in result
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap_or_default()
        {
            metrics.push((format!("{workload}.{name}"), value.clone()));
        }
    }
    println!(
        "{}",
        serialize(&Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(attempted)),
            ("failed", Value::Num(failed)),
            ("metrics", Value::Obj(metrics)),
        ]))
    );
    ExitCode::SUCCESS
}
