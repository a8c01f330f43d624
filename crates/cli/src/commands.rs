//! The `rumor` subcommands.

use crate::args::Args;
use crate::error::CliError;
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::multi::{optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions};
use rumor_control::watchdog::{optimize_guarded, SweepSource, WatchdogOptions};
use rumor_control::{ControlBounds, CostWeights};
use rumor_core::control::ConstantControl;
use rumor_core::equilibrium::{positive_equilibrium, r0, zero_equilibrium};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::sensitivity::{critical_countermeasure_scale, r0_sensitivity};
use rumor_core::stability::theorem2_consistency;
use rumor_core::state::NetworkState;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_datasets::edgelist::read_edge_list;
use rumor_datasets::summary::DatasetSummary;
use rumor_net::degree::DegreeClasses;
use rumor_net::graph::{EdgeKind, Graph};
use rumor_sim::abm::AbmConfig;
use rumor_sim::ensemble::{
    max_deviation, mean_field_reference, run_ensemble_isolated, IsolationPolicy, Simulator,
};
use std::io::Write;

type CliResult = Result<(), CliError>;

/// The network a command operates on: its degree partition plus, when an
/// actual graph is available or required, the graph itself.
struct Network {
    classes: DegreeClasses,
    graph: Option<Graph>,
    summary: DatasetSummary,
}

fn load_network(args: &Args, need_graph: bool) -> Result<Network, CliError> {
    if let Some(path) = args.get("edges") {
        let file = std::fs::File::open(path)
            .map_err(|e| CliError::runtime(format!("cannot open edge list {path:?}: {e}")))?;
        let graph = read_edge_list(file, EdgeKind::Undirected)?;
        let classes = DegreeClasses::from_graph(&graph)?;
        let summary = DatasetSummary::from_graph(path.to_string(), &graph)?;
        return Ok(Network {
            classes,
            graph: Some(graph),
            summary,
        });
    }
    let nodes = args.get_usize("nodes", 5_000)?;
    let k_max = args.get_usize("kmax", 300)?;
    let mean = args.get_f64("mean-degree", 24.0)?;
    let seed = args.get_u64("seed", 2_009)?;
    let dataset = DiggDataset::synthesize(DiggConfig {
        nodes,
        k_min: 1,
        k_max,
        target_mean_degree: mean,
        seed,
    })?;
    let graph = if need_graph {
        Some(dataset.realize_graph()?)
    } else {
        None
    };
    Ok(Network {
        classes: dataset.classes().clone(),
        graph,
        summary: dataset.summary(),
    })
}

fn model_params(args: &Args, classes: DegreeClasses) -> Result<ModelParams, CliError> {
    Ok(ModelParams::builder(classes)
        .alpha(args.get_f64("alpha", 0.01)?)
        .acceptance(AcceptanceRate::LinearInDegree {
            lambda0: args.get_f64("lambda0", 0.02)?,
        })
        .infectivity(Infectivity::paper_default())
        .build()?)
}

/// Reads the constant countermeasure rates `--eps1` and `--eps2`. A
/// negative or non-finite rate is a rejected configuration, checked here
/// because the schedule constructors assert on it.
fn countermeasures(args: &Args) -> Result<(f64, f64), CliError> {
    let rate = |key: &str, default: f64| -> Result<f64, CliError> {
        let v = args.get_f64(key, default)?;
        if v >= 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(CliError::config(format!(
                "--{key} must be non-negative and finite, got {v}"
            )))
        }
    };
    Ok((rate("eps1", 0.2)?, rate("eps2", 0.05)?))
}

/// Reads the horizon `--tf`, which must be positive and finite.
fn horizon(args: &Args, default: f64) -> Result<f64, CliError> {
    let tf = args.get_f64("tf", default)?;
    if tf > 0.0 && tf.is_finite() {
        Ok(tf)
    } else {
        Err(CliError::config(format!(
            "--tf must be positive and finite, got {tf}"
        )))
    }
}

/// Which propagation model `--model` selects (simulate/optimize only;
/// the threshold theory and the ABM only speak the paper model).
enum CliModelKind {
    Paper,
    TwoRumor {
        lambda20: f64,
        gamma1: f64,
        gamma2: f64,
        mu: f64,
    },
    TieStrength {
        beta: f64,
    },
}

fn model_kind(args: &Args) -> Result<CliModelKind, CliError> {
    match args.get("model").unwrap_or("paper") {
        "paper" => Ok(CliModelKind::Paper),
        "two_rumor" => Ok(CliModelKind::TwoRumor {
            lambda20: args.get_f64("lambda20", 0.03)?,
            gamma1: args.get_f64("gamma1", 0.05)?,
            gamma2: args.get_f64("gamma2", 0.08)?,
            mu: args.get_f64("mu", 0.5)?,
        }),
        "tie_strength" => Ok(CliModelKind::TieStrength {
            beta: args.get_f64("beta", 0.5)?,
        }),
        other => Err(CliError::usage(format!(
            "--model {other:?} is not one of: paper, two_rumor, tie_strength"
        ))),
    }
}

/// Builds the selected compartment model from the shared parameters.
fn build_compartment_model(
    kind: &CliModelKind,
    params: &ModelParams,
    c1: f64,
    c2: f64,
) -> Result<CompartmentKindModel, CliError> {
    Ok(match kind {
        CliModelKind::Paper => CompartmentKindModel::Paper(PaperSir::from_params(params, c1, c2)?),
        CliModelKind::TwoRumor {
            lambda20,
            gamma1,
            gamma2,
            mu,
        } => CompartmentKindModel::TwoRumor(rumor_models::two_rumor::TwoRumorModel::from_params(
            params, *lambda20, *gamma1, *gamma2, *mu, c1, c2,
        )?),
        CliModelKind::TieStrength { beta } => CompartmentKindModel::TieStrength(
            rumor_models::tie_strength::tie_strength_model(params, *beta, c1, c2)?,
        ),
    })
}

/// The selectable models, monomorphized per arm so the generic
/// simulate/optimize paths below stay `dyn`-free.
enum CompartmentKindModel {
    Paper(PaperSir),
    TwoRumor(rumor_models::two_rumor::TwoRumorModel),
    TieStrength(PaperSir),
}

/// `rumor analyze`: dataset statistics, threshold, equilibria, stability.
pub fn analyze(args: &Args) -> CliResult {
    let net = load_network(args, false)?;
    let params = model_params(args, net.classes)?;
    let (eps1, eps2) = countermeasures(args)?;
    let (threshold, verdict, consistent) = theorem2_consistency(&params, eps1, eps2)?;

    println!("{}", net.summary);
    println!(
        "\nmodel: alpha = {}, lambda(k) = {}k, omega(k) = sqrt(k)/(1+sqrt(k))",
        params.alpha(),
        args.get_f64("lambda0", 0.02)?
    );
    println!("countermeasures: eps1 = {eps1}, eps2 = {eps2}");
    println!("\nthreshold r0 = {threshold:.4}");
    println!(
        "prediction (theorem 5): the rumor will {}",
        if threshold <= 1.0 {
            "become extinct"
        } else {
            "persist endemically"
        }
    );
    println!("jacobian verdict at E0: {verdict:?} (consistent with r0: {consistent})");

    let e0 = zero_equilibrium(&params, eps1, eps2)?;
    println!(
        "\nrumor-free equilibrium E0: S = {:.4}, R = {:.4} per class",
        e0.s()[0],
        e0.r()[0]
    );
    match positive_equilibrium(&params, eps1, eps2) {
        Ok(ep) => println!(
            "endemic equilibrium E+: mean I+ = {:.4} per class",
            ep.total_infected() / params.n_classes() as f64
        ),
        Err(_) => println!("endemic equilibrium E+: does not exist (r0 <= 1)"),
    }

    let sens = r0_sensitivity(&params, eps1, eps2)?;
    println!(
        "
threshold sensitivities:"
    );
    println!("  dr0/d(alpha) = {:+.4}", sens.d_alpha);
    println!("  dr0/d(eps1)  = {:+.4}", sens.d_eps1);
    println!("  dr0/d(eps2)  = {:+.4}", sens.d_eps2);
    let scale = critical_countermeasure_scale(&params, eps1, eps2)?;
    if scale > 1.0 {
        println!(
            "to reach r0 = 1, scale both countermeasures by {scale:.3} (e.g. eps = ({:.4}, {:.4}))",
            eps1 * scale,
            eps2 * scale
        );
    } else {
        println!(
            "already subcritical: countermeasures could shrink to {:.1}% before r0 reaches 1",
            scale * 100.0
        );
    }
    // Where the threshold mass lives across degrees (top 3 classes).
    let mut shares: Vec<(usize, f64)> = sens
        .class_share
        .iter()
        .enumerate()
        .map(|(i, &v)| (params.classes().degree(i), v))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("largest per-class threshold shares:");
    for (k, share) in shares.iter().take(3) {
        println!("  degree {k:>5}: {:.2}% of r0", share * 100.0);
    }
    Ok(())
}

/// Simulates one model: the constant `--eps1/--eps2` map onto the model's
/// two control channels in order. `paper` carries the paper kind's
/// parameters: its report leads with the threshold `r0` and labels the
/// means `S/I/R`; the other kinds name their compartments.
fn simulate_model<M: CompartmentModel>(
    args: &Args,
    model: &M,
    paper: Option<&ModelParams>,
) -> CliResult {
    let (eps1, eps2) = countermeasures(args)?;
    let tf = args.get_f64("tf", 150.0)?;
    let i0 = args.get_f64("i0", 0.1)?;
    let traj = simulate_compartments(
        model,
        ConstantMultiControl::new(vec![eps1, eps2]),
        &model.layout().initial_uniform(i0)?,
        tf,
        &CompartmentSimOptions::default(),
    )?;
    let names = model.compartment_names();
    let labels: Vec<String> = match paper {
        Some(params) => {
            println!(
                "r0 = {:.4}; simulated {} classes over (0, {tf}]",
                r0(params, eps1, eps2)?,
                model.n_classes()
            );
            names
                .iter()
                .map(|name| format!("mean {}", name.to_uppercase()))
                .collect()
        }
        None => {
            println!(
                "simulated {} classes x {} compartments ({}) over (0, {tf}]",
                model.n_classes(),
                model.n_compartments(),
                names.join("/")
            );
            names.iter().map(|name| format!("mean {name}")).collect()
        }
    };
    print!("\n{:>10}", "t");
    for label in &labels {
        print!(" {label:>12}");
    }
    println!();
    let n = model.n_classes() as f64;
    let means: Vec<Vec<f64>> = (0..model.n_compartments())
        .map(|c| traj.total_series(c).iter().map(|x| x / n).collect())
        .collect();
    for idx in (0..traj.len()).step_by((traj.len() / 10).max(1)) {
        print!("{:>10.2}", traj.times()[idx]);
        for series in &means {
            print!(" {:>12.6}", series[idx]);
        }
        println!();
    }
    if let Some(path) = args.get("out") {
        let mut f = std::fs::File::create(path)?;
        let header: Vec<String> = names.iter().map(|name| format!("mean_{name}")).collect();
        writeln!(f, "t,{}", header.join(","))?;
        for (idx, t) in traj.times().iter().enumerate() {
            let row: Vec<String> = means.iter().map(|s| s[idx].to_string()).collect();
            writeln!(f, "{t},{}", row.join(","))?;
        }
        println!("\ntrajectory written to {path}");
    }
    Ok(())
}

/// `rumor simulate`: integrate the dynamics, print milestones, optional
/// CSV. `--model` selects the model; every kind runs through
/// `rumor-compartments`.
pub fn simulate(args: &Args) -> CliResult {
    let net = load_network(args, false)?;
    let params = model_params(args, net.classes)?;
    // Cost weights only enter the FBSM objective; the paper defaults
    // keep model construction valid here.
    match build_compartment_model(&model_kind(args)?, &params, 5.0, 10.0)? {
        CompartmentKindModel::Paper(m) => simulate_model(args, &m, Some(&params)),
        CompartmentKindModel::TwoRumor(m) => simulate_model(args, &m, None),
        CompartmentKindModel::TieStrength(m) => simulate_model(args, &m, None),
    }
}

/// The forward–backward sweep settings of `optimize` for every kind,
/// with `--max-iters` capping the iterations, checked before any output.
fn sweep_options(args: &Args) -> Result<MultiFbsmOptions, CliError> {
    let options = MultiFbsmOptions {
        n_nodes: 101,
        max_iterations: args.get_usize("max-iters", 300)?,
        tolerance: 1e-4,
        relaxation: 0.3,
        ..Default::default()
    };
    options.validate()?;
    Ok(options)
}

/// Optimize path for the compartment-model kinds: the multi-control
/// forward–backward sweep, with `--epsmax` bounding every channel.
fn optimize_compartment_kind<M: CompartmentModel>(args: &Args, model: &M) -> CliResult {
    let tf = horizon(args, 100.0)?;
    let y0 = model.layout().initial_uniform(args.get_f64("i0", 0.05)?)?;
    let epsmax = args.get_f64("epsmax", 0.7)?;
    let bounds = MultiControlBounds::new(vec![epsmax; model.n_controls()])?;
    let options = sweep_options(args)?;
    println!(
        "multi-control sweep: {} classes, channels ({}) over (0, {tf}], bounds {epsmax}...",
        model.n_classes(),
        model.control_names().join(", ")
    );
    let result = optimize_compartments_monitored(model, &y0, tf, &bounds, &options)?;
    if !result.converged && args.has_flag("strict") {
        return Err(CliError::degraded(format!(
            "multi-control sweep did not converge in {} iterations under --strict",
            result.iterations
        )));
    }
    println!(
        "finished after {} iterations (converged: {}); J = {:.4}, running cost = {:.4}",
        result.iterations,
        result.converged,
        result.cost.total(),
        result.cost.running()
    );
    println!(
        "terminal objective: {:.6}",
        model.terminal_objective(result.trajectory.last_state())
    );
    let names = model.control_names();
    print!("\n{:>8}", "t");
    for name in names {
        print!(" {:>10}", name);
    }
    println!();
    let grid = result.control.grid();
    for idx in (0..grid.len()).step_by((grid.len() / 10).max(1)) {
        print!("{:>8.1}", grid[idx]);
        for c in 0..model.n_controls() {
            print!(" {:>10.4}", result.control.values(c)[idx]);
        }
        println!();
    }
    if let Some(path) = args.get("out") {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "t,{}", names.join(","))?;
        for (idx, t) in grid.iter().enumerate() {
            let row: Vec<String> = (0..model.n_controls())
                .map(|c| result.control.values(c)[idx].to_string())
                .collect();
            writeln!(f, "{t},{}", row.join(","))?;
        }
        println!("\nschedule written to {path}");
    }
    Ok(())
}

/// `rumor optimize`: the cheapest countermeasure schedule, a schedule
/// table, optional CSV. The paper model runs the watchdog-guarded
/// forward–backward sweep; `--model two_rumor`/`tie_strength` run the
/// multi-control sweep. With `--strict`, a degraded result (best-so-far
/// checkpoint, heuristic fallback, or a non-converged multi sweep)
/// becomes a fatal error.
pub fn optimize(args: &Args) -> CliResult {
    let net = load_network(args, false)?;
    let params = model_params(args, net.classes)?;
    let (c1, c2) = (args.get_f64("c1", 5.0)?, args.get_f64("c2", 10.0)?);
    let kind = model_kind(args)?;
    if !matches!(kind, CliModelKind::Paper) {
        return match build_compartment_model(&kind, &params, c1, c2)? {
            CompartmentKindModel::TwoRumor(m) => optimize_compartment_kind(args, &m),
            CompartmentKindModel::Paper(m) | CompartmentKindModel::TieStrength(m) => {
                optimize_compartment_kind(args, &m)
            }
        };
    }
    let tf = horizon(args, 100.0)?;
    let i0 = args.get_f64("i0", 0.05)?;
    let weights = CostWeights::new(c1, c2)?;
    let epsmax = args.get_f64("epsmax", 0.7)?;
    let bounds = ControlBounds::new(epsmax, epsmax)?;
    let initial = NetworkState::initial_uniform(params.n_classes(), i0)?;
    let options = WatchdogOptions {
        fbsm: sweep_options(args)?,
        ..Default::default()
    };
    options.validate()?;

    println!(
        "sweeping {} classes over (0, {tf}] with c1 = {}, c2 = {}, bounds {epsmax}...",
        params.n_classes(),
        weights.c1,
        weights.c2
    );
    let guarded = optimize_guarded(&params, &initial, tf, &bounds, &weights, &options)?;
    for ev in &guarded.restarts {
        println!(
            "watchdog: attempt {} (relaxation {:.4}{}) diverged [{}]: {}",
            ev.attempt,
            ev.relaxation,
            if ev.guarded_ode { ", guarded ode" } else { "" },
            ev.divergence,
            ev.detail
        );
    }
    println!("watchdog: {}", guarded.summary());
    if guarded.degraded && args.has_flag("strict") {
        return Err(CliError::degraded(format!(
            "optimize produced a degraded result under --strict: {}",
            guarded.summary()
        )));
    }
    let result = guarded.result;
    println!(
        "finished after {} iterations (converged: {}{}); J = {:.4}, running cost = {:.4}",
        result.iterations,
        result.converged,
        match guarded.source {
            SweepSource::Fbsm => "",
            SweepSource::HeuristicFallback => ", heuristic fallback",
        },
        result.cost.total(),
        result.cost.running()
    );
    println!("terminal infection: {:.6}", result.cost.terminal);
    println!("\n{:>8} {:>10} {:>10}", "t", "eps1", "eps2");
    let grid = result.control.grid();
    for idx in (0..grid.len()).step_by((grid.len() / 10).max(1)) {
        println!(
            "{:>8.1} {:>10.4} {:>10.4}",
            grid[idx],
            result.control.values(0)[idx],
            result.control.values(1)[idx]
        );
    }
    if let Some(path) = args.get("out") {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "t,eps1,eps2")?;
        for (idx, t) in grid.iter().enumerate() {
            writeln!(
                f,
                "{t},{},{}",
                result.control.values(0)[idx],
                result.control.values(1)[idx]
            )?;
        }
        println!("\nschedule written to {path}");
    }
    Ok(())
}

/// `rumor abm`: fault-isolated stochastic ensemble vs the mean field.
/// Failed replicas are excluded and reported; `--quorum` sets the
/// minimum surviving fraction and `--strict` makes any exclusion fatal.
pub fn abm(args: &Args) -> CliResult {
    let net = load_network(args, true)?;
    let graph = net.graph.expect("load_network(need_graph = true)");
    // The microscopic simulators key rates off the realized graph's
    // degrees, so rebuild the partition from the graph itself.
    let classes = DegreeClasses::from_graph(&graph)?;
    let params = model_params(args, classes)?;
    let (eps1, eps2) = countermeasures(args)?;
    let cfg = AbmConfig {
        alpha: params.alpha(),
        dt: 0.1,
        tf: horizon(args, 40.0)?,
        eps1,
        eps2,
        initial_infected: args.get_f64("i0", 0.05)?,
        record_every: 10,
    };
    let runs = args.get_usize("runs", 8)?;
    let seed = args.get_u64("seed", 2_009)?;
    let policy = IsolationPolicy {
        quorum: args.get_f64("quorum", 0.5)?,
    };
    cfg.validate()?;
    policy.validate()?;
    if runs == 0 {
        return Err(CliError::config("--runs must be at least 1"));
    }
    println!(
        "running {runs} synchronous ABM realizations on {} nodes...",
        graph.node_count()
    );
    let isolated = run_ensemble_isolated(
        &graph,
        &params,
        &cfg,
        Simulator::Synchronous,
        runs,
        seed,
        &policy,
        None,
    )?;
    for failure in &isolated.failures {
        println!(
            "isolation: replica {} (seed {}) excluded: {}",
            failure.replica, failure.seed, failure.reason
        );
    }
    println!("isolation: {}", isolated.summary());
    if isolated.degraded() && args.has_flag("strict") {
        return Err(CliError::degraded(format!(
            "abm ensemble degraded under --strict: {}",
            isolated.summary()
        )));
    }
    let ens = isolated.result;
    let mf = mean_field_reference(&params, &cfg, &ens.times)?;
    println!(
        "\n{:>8} {:>12} {:>12} {:>12}",
        "t", "abm mean I", "abm std", "ode I"
    );
    for idx in (0..ens.times.len()).step_by((ens.times.len() / 10).max(1)) {
        println!(
            "{:>8.1} {:>12.6} {:>12.6} {:>12.6}",
            ens.times[idx], ens.i_mean[idx], ens.i_std[idx], mf[idx]
        );
    }
    println!(
        "\nmax |ABM - ODE| deviation: {:.4}",
        max_deviation(&ens, &mf)?
    );
    Ok(())
}

/// `rumor serve`: run the HTTP JSON service until SIGTERM/SIGINT, then
/// drain in-flight requests and exit. Exit codes follow the strict
/// contract: a rejected configuration is exit 3, a failed bind (or any
/// other startup I/O failure) is exit 1, usage errors are exit 2.
pub fn serve(args: &Args) -> CliResult {
    let config = rumor_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:8080").to_string(),
        // 0 = "not given" (matching the global --threads convention):
        // resolve via RUMOR_THREADS / available cores.
        threads: match args.get_usize("threads", 0)? {
            0 => None,
            t => Some(t),
        },
        queue_depth: args.get_usize("queue-depth", 64)?,
        cache_entries: args.get_usize("cache-entries", 256)?,
        deadline_ms: args.get_u64("deadline-ms", 30_000)?,
        jobs_dir: args.get("jobs-dir").map(str::to_string),
        max_connections: args.get_usize("max-connections", 1024)?,
        ..rumor_serve::ServeConfig::default()
    };
    let server = rumor_serve::serve(&config)?;
    println!(
        "rumor-serve listening on http://{} ({} worker(s), queue depth {}, cache {} entries, deadline {} ms)",
        server.local_addr(),
        server.workers(),
        config.queue_depth,
        config.cache_entries,
        config.deadline_ms
    );
    println!("endpoints: GET /healthz /metrics; POST /v1/{{simulate,threshold,optimize,ensemble}}");
    match &config.jobs_dir {
        Some(dir) => println!("durable jobs enabled under {dir:?}: POST/GET /v1/jobs"),
        None => println!("durable jobs disabled (enable with --jobs-dir DIR)"),
    }
    println!("press Ctrl-C (or send SIGTERM) for a graceful drain-and-exit");
    server.run_until_terminated();
    println!("rumor-serve: drained and stopped");
    Ok(())
}

/// Issues one jobs-API request and checks the HTTP status. Returns the
/// raw body (needed verbatim by `results`) plus its parsed form.
fn jobs_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(String, rumor_serve::wire::Value), CliError> {
    use rumor_serve::wire::{parse, Value};
    let resp = crate::client::request(addr, method, path, body)?;
    let value = parse(&resp.body).unwrap_or(Value::Null);
    if resp.status != 200 {
        let detail = value
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or_else(|| resp.body.trim())
            .to_string();
        let message = format!("{method} {path}: server answered {}: {detail}", resp.status);
        // 400 means the submission or transition was rejected up front;
        // everything else (404, 500, 503) is a runtime condition.
        return Err(if resp.status == 400 {
            CliError::config(message)
        } else {
            CliError::runtime(message)
        });
    }
    Ok((resp.body, value))
}

/// One human-readable line for a job status object.
fn job_status_line(v: &rumor_serve::wire::Value) -> String {
    use rumor_serve::wire::Value;
    let text = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let quarantined = v
        .get("quarantined")
        .and_then(Value::as_arr)
        .map_or(0, |a| a.len());
    let mut line = format!(
        "{} [{}]: {}, {}/{} points, {} quarantined, {} retries",
        text("id"),
        text("kind"),
        text("state"),
        num("completed"),
        num("total"),
        quarantined,
        num("retries"),
    );
    if let Some(err) = v.get("last_error").and_then(Value::as_str) {
        line.push_str(&format!(" (last error: {err})"));
    }
    line
}

/// Polls a job until it reaches a terminal state and prints the final
/// status line. Under `--strict`, anything but `done` is a degraded
/// result (exit 4).
fn jobs_wait(addr: &str, id: &str, strict: bool) -> CliResult {
    use rumor_serve::wire::Value;
    loop {
        let (_, v) = jobs_call(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
        let state = v
            .get("state")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        match state.as_str() {
            "done" | "partial" | "failed" | "cancelled" => {
                println!("{}", job_status_line(&v));
                if strict && state != "done" {
                    return Err(CliError::degraded(format!(
                        "job {id} finished {state} under --strict"
                    )));
                }
                return Ok(());
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    }
}

/// `rumor jobs`: client for the durable campaign endpoints of a running
/// `rumor serve --jobs-dir DIR` instance.
///
/// ```text
/// rumor jobs submit  [--spec FILE] [--wait]   # POST /v1/jobs
/// rumor jobs list                             # GET  /v1/jobs
/// rumor jobs status  ID [--wait]              # GET  /v1/jobs/{id}
/// rumor jobs results ID [--out FILE]          # GET  /v1/jobs/{id}/results
/// rumor jobs cancel  ID                       # POST /v1/jobs/{id}/cancel
/// rumor jobs resume  ID [--wait]              # POST /v1/jobs/{id}/resume
/// ```
pub fn jobs(args: &Args) -> CliResult {
    use rumor_serve::wire::Value;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let positional = args.positional();
    let action = positional.first().map(String::as_str).unwrap_or("");
    let expected_args: usize = match action {
        "submit" | "list" => 1,
        "status" | "results" | "cancel" | "resume" => 2,
        "" => {
            return Err(CliError::usage(
                "jobs needs an action: submit, list, status, results, cancel, resume",
            ))
        }
        other => {
            return Err(CliError::usage(format!(
            "unknown jobs action {other:?}; expected submit, list, status, results, cancel, resume"
        )))
        }
    };
    if positional.len() != expected_args {
        return Err(CliError::usage(format!(
            "jobs {action} takes {} argument(s), got {}; run `rumor help`",
            expected_args - 1,
            positional.len() - 1
        )));
    }
    let job_id = positional.get(1).map(String::as_str).unwrap_or("");
    match action {
        "submit" => {
            let body = match args.get("spec") {
                Some(path) => std::fs::read_to_string(path).map_err(|e| {
                    CliError::runtime(format!("cannot read spec file {path:?}: {e}"))
                })?,
                None => "{}".to_string(),
            };
            let (_, v) = jobs_call(&addr, "POST", "/v1/jobs", Some(&body))?;
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| CliError::runtime("malformed submit response (no id)"))?
                .to_string();
            println!(
                "submitted {id}: {} over {} points",
                v.get("kind").and_then(Value::as_str).unwrap_or("?"),
                v.get("points").and_then(Value::as_f64).unwrap_or(0.0) as u64
            );
            if args.has_flag("wait") {
                jobs_wait(&addr, &id, args.has_flag("strict"))
            } else {
                println!("poll with: rumor jobs status {id} --addr {addr}");
                Ok(())
            }
        }
        "list" => {
            let (_, v) = jobs_call(&addr, "GET", "/v1/jobs", None)?;
            let jobs = v.get("jobs").and_then(Value::as_arr).map_or(&[][..], |a| a);
            if jobs.is_empty() {
                println!("no jobs");
            }
            for job in jobs {
                println!("{}", job_status_line(job));
            }
            Ok(())
        }
        "status" => {
            if args.has_flag("wait") {
                jobs_wait(&addr, job_id, args.has_flag("strict"))
            } else {
                let (_, v) = jobs_call(&addr, "GET", &format!("/v1/jobs/{job_id}"), None)?;
                println!("{}", job_status_line(&v));
                let state = v.get("state").and_then(Value::as_str).unwrap_or("");
                if args.has_flag("strict") && matches!(state, "partial" | "failed" | "cancelled") {
                    return Err(CliError::degraded(format!(
                        "job {job_id} is {state} under --strict"
                    )));
                }
                Ok(())
            }
        }
        "results" => {
            let (raw, v) = jobs_call(&addr, "GET", &format!("/v1/jobs/{job_id}/results"), None)?;
            match args.get("out") {
                Some(path) => {
                    // The raw body goes out verbatim: for a finished
                    // campaign it is byte-identical across interrupted
                    // + recovered and uninterrupted runs.
                    std::fs::write(path, raw.as_bytes()).map_err(|e| {
                        CliError::runtime(format!("cannot write results to {path:?}: {e}"))
                    })?;
                    println!(
                        "{} result(s) ({}) written to {path}",
                        v.get("results")
                            .and_then(Value::as_arr)
                            .map_or(0, |a| a.len()),
                        v.get("state").and_then(Value::as_str).unwrap_or("?")
                    );
                }
                None => println!("{raw}"),
            }
            Ok(())
        }
        "cancel" => {
            let (_, v) = jobs_call(&addr, "POST", &format!("/v1/jobs/{job_id}/cancel"), None)?;
            println!(
                "{job_id}: {}",
                v.get("state").and_then(Value::as_str).unwrap_or("?")
            );
            Ok(())
        }
        "resume" => {
            let (_, v) = jobs_call(&addr, "POST", &format!("/v1/jobs/{job_id}/resume"), None)?;
            println!(
                "{job_id}: {}",
                v.get("state").and_then(Value::as_str).unwrap_or("?")
            );
            if args.has_flag("wait") {
                jobs_wait(&addr, job_id, args.has_flag("strict"))
            } else {
                Ok(())
            }
        }
        _ => unreachable!("action validated above"),
    }
}

/// `rumor selftest`: deterministic fault-injection drills for the
/// guarded integrator. Each scenario corrupts the rumor dynamics'
/// right-hand side on a fixed schedule and checks that the fallback
/// chain still delivers a complete trajectory. With `--strict`, any
/// quarantined (extrapolated) window is fatal.
pub fn selftest(args: &Args) -> CliResult {
    use rumor_core::model::RumorModel;
    use rumor_ode::fault::{FaultSchedule, FaultyRhs};
    use rumor_ode::recovery::Guarded;

    let net = load_network(args, false)?;
    let params = model_params(args, net.classes)?;
    let (eps1, eps2) = countermeasures(args)?;
    let tf = horizon(args, 40.0)?;
    let i0 = args.get_f64("i0", 0.05)?;
    let initial = NetworkState::initial_uniform(params.n_classes(), i0)?;
    let sys = RumorModel::new(&params, ConstantControl::new(eps1, eps2));
    let y0 = initial.to_flat();

    let scenarios: [(&str, FaultSchedule); 3] = [
        (
            "nan-window",
            FaultSchedule::new().nan_at(0.3 * tf, 0.02 * tf),
        ),
        (
            "stiffness-spike",
            FaultSchedule::new().stiffness_spike(0.5 * tf, 0.02 * tf, 200.0),
        ),
        (
            "perturbation-burst",
            FaultSchedule::new().perturbation_burst(0.7 * tf, 0.05 * tf, 0.5, 8.0),
        ),
    ];

    println!(
        "guarded-integrator selftest: {} classes over (0, {tf}], {} scenarios",
        params.n_classes(),
        scenarios.len()
    );
    let mut quarantined = 0usize;
    for (name, schedule) in scenarios {
        let faulty = FaultyRhs::new(&sys, schedule);
        let run = Guarded::new().run(&faulty, 0.0, &y0, tf)?;
        println!(
            "  {name:<20} injections: {:>4}  {}",
            faulty.injections(),
            run.report.summary()
        );
        if !run.report.completed {
            return Err(CliError::runtime(format!(
                "selftest scenario {name} did not complete: {}",
                run.report.summary()
            )));
        }
        quarantined += run.report.quarantined.len();
    }
    if quarantined > 0 && args.has_flag("strict") {
        return Err(CliError::degraded(format!(
            "selftest quarantined {quarantined} window(s) under --strict"
        )));
    }
    println!("selftest passed: all scenarios completed");
    Ok(())
}
