//! `rumor` — command-line interface to the rumor-propagation toolkit.
//!
//! ```text
//! rumor analyze   [--edges FILE | --nodes N] [--eps1 E] [--eps2 E] ...
//! rumor simulate  [--edges FILE | --nodes N] [--tf T] [--out FILE] ...
//! rumor optimize  [--edges FILE | --nodes N] [--tf T] [--c1 C] [--c2 C] ...
//! rumor abm       [--edges FILE | --nodes N] [--runs R] [--tf T] ...
//! rumor serve     [--addr A] [--threads N] [--queue-depth D] [--max-connections C] ...
//! ```
//!
//! Run `rumor help` for the full option list. Networks come from an edge
//! list (`--edges`) or a synthesized Digg-like graph (`--nodes`).

mod args;
mod client;
mod commands;
mod error;

use args::Args;
use error::{CliError, EXIT_USAGE};
use std::process::ExitCode;

const USAGE: &str = "\
rumor — heterogeneous SIR rumor propagation toolkit (ICDCS 2015 reproduction)

USAGE:
    rumor <command> [options]

COMMANDS:
    analyze    network statistics, threshold r0, equilibria, stability verdict
    simulate   integrate the rumor dynamics; optionally write a CSV trajectory
    optimize   watchdog-guarded forward-backward sweep for the cheapest countermeasures
    abm        fault-isolated agent-based ensemble vs the mean-field prediction
    serve      run the HTTP/1.1 JSON service (simulate/threshold/optimize/ensemble)
    jobs       submit and manage durable campaigns on a running serve instance
    selftest   deterministic fault-injection drills for the guarded integrator
    help       print this message

NETWORK SOURCE (all commands):
    --edges FILE     read an undirected edge list: per line, two unsigned
                     decimal node ids separated by ASCII whitespace or
                     commas; a line whose first non-separator is #
                     is a comment (--edges /dev/stdin reads a pipe)
    --nodes N        synthesize a Digg-like power-law network with N nodes
                     (default 5000; ignored when --edges is given)
    --kmax K         maximum degree of the synthetic network (default 300)
    --mean-degree D  target mean degree of the synthetic network (default 24)
    --seed S         RNG seed (default 2009)

MODEL PARAMETERS:
    --alpha A        inflow rate (default 0.01)
    --lambda0 L      acceptance scale, lambda(k) = L*k (default 0.02;
                     the rumor acceptance for --model two_rumor)
    --eps1 E         truth-spreading rate (default 0.2)
    --eps2 E         blocking rate (default 0.05)

MODEL SELECTION (simulate and optimize):
    --model M        paper (default) | two_rumor | tie_strength
    two_rumor:       competing rumor/truth-campaign dynamics with
                     truth-seeding and blocking control channels
                     --lambda20 L  truth acceptance scale (default 0.03)
                     --gamma1 G    rumor recovery rate (default 0.05)
                     --gamma2 G    truth retirement rate (default 0.08)
                     --mu F        spreader conversion fraction (default 0.5)
    tie_strength:    paper model with lambda_eff(k) = lambda(k)*k^(-beta)
                     --beta B      tie-strength exponent (default 0.5)

ROBUSTNESS:
    --strict         turn degraded results (quarantined windows, excluded
                     replicas, non-converged sweeps) into errors (exit 4)

PERFORMANCE:
    --threads N      worker threads for ensemble replicas (default: the
                     RUMOR_THREADS env var, else all available cores);
                     results are bit-identical for every thread count

OBSERVABILITY (all commands):
    --log-format F   trace output: off (default), text, or json; spans
                     and events go to stderr unless --trace-out is given.
                     Tracing never changes numeric results.
    --trace-out FILE write trace records to FILE instead of stderr
                     (implies --log-format json when no format is given)

COMMAND OPTIONS:
    simulate: --tf T (default 150)  --i0 F (default 0.1)  --out FILE
    optimize: --tf T (default 100)  --i0 F (default 0.05) --c1 C (5) --c2 C (10)
              --epsmax E (default 0.7)  --max-iters N (300)  --out FILE
    abm:      --tf T (default 40)   --i0 F (default 0.05) --runs R (default 8)
              --quorum F (default 0.5, min surviving replica fraction)
    serve:    --addr A (default 127.0.0.1:8080, port 0 = ephemeral)
              --queue-depth N (default 64 queued compute requests; beyond
                              it they are shed with 503)
              --cache-entries N (default 256; 0 disables the result cache)
              --deadline-ms MS (default 30000; late requests answer 504)
              --jobs-dir DIR (enable durable campaign jobs persisted in DIR;
                              a restart resumes interrupted campaigns)
              --max-connections N (default 1024; connections beyond it
                              are shed with 503 at accept)
              endpoints: GET /healthz /metrics,
                         POST /v1/{simulate,threshold,optimize,ensemble},
                         POST/GET /v1/jobs (with --jobs-dir)
              one event loop owns every socket and workers only run
              compute; Linux only (elsewhere serve exits 3); runs until
              SIGTERM/SIGINT, then drains in-flight requests
    jobs:     rumor jobs submit  [--spec FILE] [--wait]   submit a campaign
              rumor jobs list                             list known jobs
              rumor jobs status  ID [--wait]              inspect one job
              rumor jobs results ID [--out FILE]          fetch the result set
              rumor jobs cancel  ID                       stop at a point boundary
              rumor jobs resume  ID [--wait]              re-queue with fresh retries
              all actions take --addr A (default 127.0.0.1:8080); --wait polls
              to a terminal state, and --strict makes anything but `done`
              exit 4; --spec FILE is the JSON submission body (default {})
    selftest: --tf T (default 40)   --i0 F (default 0.05)

EXIT CODES:
    0  success        1  runtime failure      2  usage error
    3  invalid config 4  degraded result under --strict
    serve maps onto the same contract: a rejected service configuration
    (e.g. --queue-depth 0) exits 3; a failed bind exits 1; unknown
    options exit 2. HTTP-level failures (400/413/503/504) are per-request
    and never terminate the server.
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let allowed = [
        "edges",
        "nodes",
        "kmax",
        "mean-degree",
        "seed",
        "alpha",
        "lambda0",
        "model",
        "lambda20",
        "gamma1",
        "gamma2",
        "mu",
        "beta",
        "eps1",
        "eps2",
        "tf",
        "i0",
        "out",
        "c1",
        "c2",
        "epsmax",
        "max-iters",
        "runs",
        "quorum",
        "threads",
        "addr",
        "queue-depth",
        "cache-entries",
        "deadline-ms",
        "jobs-dir",
        "max-connections",
        "spec",
        "log-format",
        "trace-out",
    ];
    let flags = ["strict", "wait"];
    let parsed = match Args::parse(rest.iter().cloned(), &allowed, &flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // `jobs` takes positional arguments (an action and possibly a job
    // id); every other command takes options only.
    if command != "jobs" {
        if let Some(stray) = parsed.positional().first() {
            eprintln!("error: unexpected argument {stray:?}; run `rumor help`");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    // Observability wiring, before dispatch so every command is traced.
    // `--trace-out` without a format defaults to JSON lines; an explicit
    // `--log-format off` wins and disables tracing entirely.
    let log_format = match parsed.get("log-format") {
        None => None,
        Some(v) => match rumor_obs::LogFormat::parse(v) {
            Some(f) => Some(f),
            None => {
                eprintln!("error: --log-format {v:?} is not one of: off, text, json");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    match (log_format, parsed.get("trace-out")) {
        (None | Some(rumor_obs::LogFormat::Off), None) => {}
        (Some(rumor_obs::LogFormat::Off), Some(_)) => {}
        (fmt, Some(path)) => {
            let fmt = fmt.unwrap_or(rumor_obs::LogFormat::Json);
            if let Err(e) = rumor_obs::init_file(fmt, std::path::Path::new(path)) {
                eprintln!("error: cannot open trace file {path:?}: {e}");
                return ExitCode::from(error::EXIT_RUNTIME);
            }
        }
        (Some(fmt), None) => rumor_obs::init(fmt, None),
    }
    match parsed.get_usize("threads", 0) {
        // 0 = "not given": leave resolution to RUMOR_THREADS / the
        // machine's available parallelism.
        Ok(0) => {}
        Ok(t) => rumor_par::set_thread_override(Some(t)),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    let result = match command.as_str() {
        "analyze" => commands::analyze(&parsed),
        "simulate" => commands::simulate(&parsed),
        "optimize" => commands::optimize(&parsed),
        "abm" => commands::abm(&parsed),
        "serve" => commands::serve(&parsed),
        "jobs" => commands::jobs(&parsed),
        "selftest" => commands::selftest(&parsed),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; run `rumor help`"
        ))),
    };
    // Flush and close any trace sink before the process exits.
    rumor_obs::shutdown();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit)
        }
    }
}
