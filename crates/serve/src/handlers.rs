//! Endpoint implementations: each takes a validated request struct,
//! drives the corresponding engine, and returns a wire [`Value`].
//!
//! Handlers are pure functions of their request (the engines are
//! deterministic), which is what makes the canonical-key result cache
//! exact. Engine errors split two ways: configurations the engine
//! rejects are the client's fault (`400`), anything else — a failed
//! integration, a lost quorum — is a server-side failure (`500`).

use crate::api::{
    EnsembleRequest, ModelKind, ModelSpec, NetworkSpec, OptimizeRequest, SimulateRequest,
    ThresholdRequest,
};
use crate::wire::Value;
use rumor_compartments::model::CompartmentModel;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_compartments::simulate::{simulate_compartments, CompartmentSimOptions};
use rumor_control::checkpoint::{decode_multi_schedule, encode_multi_schedule};
use rumor_control::multi::{
    optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions, MultiPiecewiseControl,
};
use rumor_control::watchdog::{optimize_guarded, SweepSource, WatchdogOptions};
use rumor_control::{ControlBounds, CostWeights};
use rumor_core::equilibrium::{positive_equilibrium, r0, zero_equilibrium};
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::params::ModelParams;
use rumor_core::sensitivity::{critical_countermeasure_scale, r0_sensitivity};
use rumor_core::stability::theorem2_consistency;
use rumor_core::state::NetworkState;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_models::tie_strength::tie_strength_model;
use rumor_models::two_rumor::TwoRumorModel;
use rumor_net::degree::DegreeClasses;
use rumor_sim::abm::AbmConfig;
use rumor_sim::ensemble::{
    max_deviation, mean_field_reference, run_ensemble_isolated, IsolationPolicy, Simulator,
};
use std::fmt;

/// A handler failure, already classified by HTTP status.
#[derive(Debug)]
pub enum HandlerError {
    /// The request was well-formed JSON but the engines reject the
    /// configuration (HTTP 400).
    BadRequest(String),
    /// The computation itself failed (HTTP 500).
    Internal(String),
}

impl fmt::Display for HandlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerError::BadRequest(m) | HandlerError::Internal(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for HandlerError {}

type Result<T> = std::result::Result<T, HandlerError>;

/// Is this core-layer failure the client's fault (a rejected
/// configuration) rather than a server-side computation failure?
fn core_is_client_fault(e: &rumor_core::CoreError) -> bool {
    use rumor_core::CoreError as E;
    matches!(e, E::InvalidParameter { .. } | E::DimensionMismatch { .. })
        || matches!(
            e,
            E::Ode(
                rumor_ode::OdeError::InvalidConfig { .. }
                    | rumor_ode::OdeError::InvalidStep(_)
                    | rumor_ode::OdeError::DimensionMismatch { .. }
            )
        )
}

impl From<rumor_core::CoreError> for HandlerError {
    fn from(e: rumor_core::CoreError) -> Self {
        if core_is_client_fault(&e) {
            HandlerError::BadRequest(e.to_string())
        } else {
            HandlerError::Internal(e.to_string())
        }
    }
}

impl From<rumor_control::ControlError> for HandlerError {
    fn from(e: rumor_control::ControlError) -> Self {
        use rumor_control::ControlError as E;
        let client_fault = match &e {
            E::InvalidConfig(_) => true,
            E::Core(inner) => core_is_client_fault(inner),
            _ => false,
        };
        if client_fault {
            HandlerError::BadRequest(e.to_string())
        } else {
            HandlerError::Internal(e.to_string())
        }
    }
}

impl From<rumor_sim::SimError> for HandlerError {
    fn from(e: rumor_sim::SimError) -> Self {
        use rumor_sim::SimError as E;
        match &e {
            E::InvalidConfig(_) => HandlerError::BadRequest(e.to_string()),
            _ => HandlerError::Internal(e.to_string()),
        }
    }
}

impl From<rumor_datasets::DatasetError> for HandlerError {
    fn from(e: rumor_datasets::DatasetError) -> Self {
        use rumor_datasets::DatasetError as E;
        match &e {
            E::InvalidConfig(_) => HandlerError::BadRequest(e.to_string()),
            _ => HandlerError::Internal(e.to_string()),
        }
    }
}

impl From<rumor_net::NetError> for HandlerError {
    fn from(e: rumor_net::NetError) -> Self {
        HandlerError::Internal(e.to_string())
    }
}

fn synthesize(net: &NetworkSpec) -> Result<DiggDataset> {
    Ok(DiggDataset::synthesize(DiggConfig {
        nodes: net.nodes,
        k_min: 1,
        k_max: net.k_max,
        target_mean_degree: net.mean_degree,
        seed: net.seed,
    })?)
}

fn build_params(classes: DegreeClasses, model: &ModelSpec) -> Result<ModelParams> {
    Ok(ModelParams::builder(classes)
        .alpha(model.alpha)
        .acceptance(AcceptanceRate::LinearInDegree {
            lambda0: model.lambda0,
        })
        .infectivity(Infectivity::paper_default())
        .build()?)
}

/// Runs one model under the request's constant `(eps1, eps2)`, mapped onto
/// the model's two control channels in order (truth-seeding then blocking
/// for `two_rumor`), and reports population means per sample labelled by
/// the model's own compartment names. `head` gives the leading field,
/// evaluated after the simulation: the paper kind reports its threshold
/// `r0`, the other kinds their `kind`.
fn simulate_kind<M: CompartmentModel>(
    model: &M,
    req: &SimulateRequest,
    head: impl FnOnce() -> Result<(&'static str, Value)>,
) -> Result<Value> {
    let traj = simulate_compartments(
        model,
        ConstantMultiControl::new(vec![req.eps1, req.eps2]),
        &model.layout().initial_uniform(req.i0)?,
        req.tf,
        &CompartmentSimOptions {
            n_out: req.n_out,
            ..Default::default()
        },
    )?;
    let (name, value) = head()?;
    let n = model.n_classes() as f64;
    let mut fields = vec![
        (name.to_string(), value),
        ("n_classes".to_string(), Value::Num(n)),
        ("times".to_string(), Value::num_arr(traj.times())),
    ];
    for (c, name) in model.compartment_names().iter().enumerate() {
        let mean: Vec<f64> = traj.total_series(c).iter().map(|x| x / n).collect();
        fields.push((format!("mean_{name}"), Value::num_arr(&mean)));
    }
    fields.push((
        "terminal_infected".to_string(),
        Value::Num(model.terminal_objective(traj.last_state())),
    ));
    Ok(Value::Obj(fields))
}

/// `POST /v1/simulate`: trajectories under constant countermeasures,
/// reported as population means per sample. Every kind runs its
/// compartment model through `rumor-compartments`; the paper kind as
/// [`PaperSir`].
pub fn simulate(req: &SimulateRequest) -> Result<Value> {
    let dataset = synthesize(&req.network)?;
    let params = build_params(dataset.classes().clone(), &req.model)?;
    let kind = || Ok(("kind", Value::Str(req.model.kind.name().to_string())));
    // Cost weights only enter the FBSM objective; the paper defaults
    // keep model construction valid here.
    match &req.model.kind {
        ModelKind::Paper => simulate_kind(&PaperSir::from_params(&params, 5.0, 10.0)?, req, || {
            Ok(("r0", Value::Num(r0(&params, req.eps1, req.eps2)?)))
        }),
        ModelKind::TwoRumor {
            lambda20,
            gamma1,
            gamma2,
            mu,
        } => simulate_kind(
            &TwoRumorModel::from_params(&params, *lambda20, *gamma1, *gamma2, *mu, 5.0, 10.0)?,
            req,
            kind,
        ),
        ModelKind::TieStrength { beta } => {
            simulate_kind(&tie_strength_model(&params, *beta, 5.0, 10.0)?, req, kind)
        }
    }
}

/// `POST /v1/threshold`: `r0` of Theorem 1, the `E0`/`E+` equilibria,
/// the Jacobian verdict of Theorem 2, and threshold sensitivities.
pub fn threshold(req: &ThresholdRequest) -> Result<Value> {
    let dataset = synthesize(&req.network)?;
    let params = build_params(dataset.classes().clone(), &req.model)?;
    let (r0_value, verdict, consistent) = theorem2_consistency(&params, req.eps1, req.eps2)?;
    let e0 = zero_equilibrium(&params, req.eps1, req.eps2)?;
    let e_plus = match positive_equilibrium(&params, req.eps1, req.eps2) {
        Ok(ep) => Value::obj([(
            "mean_infected",
            Value::Num(ep.total_infected() / params.n_classes() as f64),
        )]),
        Err(_) => Value::Null,
    };
    let sens = r0_sensitivity(&params, req.eps1, req.eps2)?;
    let scale = critical_countermeasure_scale(&params, req.eps1, req.eps2)?;
    Ok(Value::obj([
        ("r0", Value::Num(r0_value)),
        ("predicted_extinction", Value::Bool(r0_value <= 1.0)),
        ("jacobian_verdict", Value::Str(format!("{verdict:?}"))),
        ("consistent_with_r0", Value::Bool(consistent)),
        (
            "e0",
            Value::obj([("s", Value::Num(e0.s()[0])), ("r", Value::Num(e0.r()[0]))]),
        ),
        ("e_plus", e_plus),
        (
            "sensitivity",
            Value::obj([
                ("d_alpha", Value::Num(sens.d_alpha)),
                ("d_eps1", Value::Num(sens.d_eps1)),
                ("d_eps2", Value::Num(sens.d_eps2)),
            ]),
        ),
        ("critical_scale", Value::Num(scale)),
    ]))
}

/// `POST /v1/optimize`: the optimal countermeasure schedule — the
/// watchdog-guarded forward–backward sweep of Eqs. (15)–(19) for the
/// paper kind, the multi-control sweep for the compartment kinds.
pub fn optimize(req: &OptimizeRequest) -> Result<Value> {
    optimize_with_warm_bytes(req, None).map(|(value, _)| value)
}

/// [`optimize`] with an optional warm-start checkpoint (a neighbouring
/// sweep point's encoded schedule), also returning the optimized
/// schedule re-encoded (RCP2, for every kind) so a campaign can thread it
/// into the next point. Legacy RCP1 bytes from older paper-model journals
/// still decode. Corrupt or wrong-kind warm bytes degrade to a cold start
/// instead of poisoning the point: the warm start is an accelerant, not
/// an input the answer is allowed to depend on for validity.
pub fn optimize_with_warm_bytes(
    req: &OptimizeRequest,
    warm: Option<&[u8]>,
) -> Result<(Value, Vec<u8>)> {
    let dataset = synthesize(&req.network)?;
    let params = build_params(dataset.classes().clone(), &req.model)?;
    match &req.model.kind {
        ModelKind::Paper => {
            let (value, control) = optimize_paper(&params, req, warm_schedule(warm, 2))?;
            Ok((value, encode_multi_schedule(&control)))
        }
        ModelKind::TwoRumor {
            lambda20,
            gamma1,
            gamma2,
            mu,
        } => {
            let m = TwoRumorModel::from_params(
                &params, *lambda20, *gamma1, *gamma2, *mu, req.c1, req.c2,
            )?;
            optimize_kind(&m, req, warm)
        }
        ModelKind::TieStrength { beta } => {
            let m = tie_strength_model(&params, *beta, req.c1, req.c2)?;
            optimize_kind(&m, req, warm)
        }
    }
}

/// The multi-control sweep path shared by the compartment-model kinds.
fn optimize_kind<M: CompartmentModel>(
    model: &M,
    req: &OptimizeRequest,
    warm: Option<&[u8]>,
) -> Result<(Value, Vec<u8>)> {
    let bounds = MultiControlBounds::new(vec![req.eps_max; model.n_controls()])?;
    let initial = warm_schedule(warm, model.n_controls());
    let options = MultiFbsmOptions {
        n_nodes: 101,
        max_iterations: req.max_iters,
        tolerance: 1e-4,
        relaxation: 0.3,
        initial_control: initial,
        ..Default::default()
    };
    let result = optimize_compartments_monitored(
        model,
        &model.layout().initial_uniform(req.i0)?,
        req.tf,
        &bounds,
        &options,
    )?;
    let mut schedule = vec![("t".to_string(), Value::num_arr(result.control.grid()))];
    for (c, name) in model.control_names().iter().enumerate() {
        schedule.push((name.to_string(), Value::num_arr(result.control.values(c))));
    }
    let value = Value::obj([
        ("kind", Value::Str(req.model.kind.name().to_string())),
        ("converged", Value::Bool(result.converged)),
        ("iterations", Value::Num(result.iterations as f64)),
        ("source", Value::Str("multi_fbsm".to_string())),
        (
            "cost",
            Value::obj([
                ("running", Value::Num(result.cost.running())),
                ("total", Value::Num(result.cost.total())),
                ("channels", Value::num_arr(&result.cost.channel_costs)),
            ]),
        ),
        (
            "terminal_infected",
            Value::Num(model.terminal_objective(result.trajectory.last_state())),
        ),
        ("schedule", Value::Obj(schedule)),
    ]);
    Ok((value, encode_multi_schedule(&result.control)))
}

/// Decodes warm-start bytes into a schedule with `n_channels` channels;
/// anything else (absent, corrupt, another kind's shape) is a cold start.
fn warm_schedule(warm: Option<&[u8]>, n_channels: usize) -> Option<MultiPiecewiseControl> {
    warm.and_then(|bytes| decode_multi_schedule(bytes).ok())
        .filter(|c| c.n_channels() == n_channels)
}

/// The watchdog-guarded sweep for the paper kind.
fn optimize_paper(
    params: &ModelParams,
    req: &OptimizeRequest,
    initial: Option<MultiPiecewiseControl>,
) -> Result<(Value, MultiPiecewiseControl)> {
    let weights = CostWeights::new(req.c1, req.c2)?;
    let bounds = ControlBounds::new(req.eps_max, req.eps_max)?;
    let initial_state = NetworkState::initial_uniform(params.n_classes(), req.i0)?;
    let guarded = optimize_guarded(
        params,
        &initial_state,
        req.tf,
        &bounds,
        &weights,
        &WatchdogOptions {
            fbsm: MultiFbsmOptions {
                n_nodes: 101,
                max_iterations: req.max_iters,
                tolerance: 1e-4,
                relaxation: 0.3,
                initial_control: initial,
                ..Default::default()
            },
            ..Default::default()
        },
    )?;
    let result = &guarded.result;
    let value = Value::obj([
        ("converged", Value::Bool(result.converged)),
        ("iterations", Value::Num(result.iterations as f64)),
        ("degraded", Value::Bool(guarded.degraded)),
        (
            "source",
            Value::Str(
                match guarded.source {
                    SweepSource::Fbsm => "fbsm",
                    SweepSource::HeuristicFallback => "heuristic_fallback",
                }
                .to_string(),
            ),
        ),
        ("restarts", Value::Num(guarded.restarts.len() as f64)),
        (
            "cost",
            Value::obj([
                ("running", Value::Num(result.cost.running())),
                ("total", Value::Num(result.cost.total())),
            ]),
        ),
        ("terminal_infected", Value::Num(result.cost.terminal)),
        (
            "schedule",
            Value::obj([
                ("t", Value::num_arr(result.control.grid())),
                ("eps1", Value::num_arr(result.control.values(0))),
                ("eps2", Value::num_arr(result.control.values(1))),
            ]),
        ),
    ]);
    Ok((value, guarded.result.control))
}

/// `POST /v1/ensemble`: fault-isolated synchronous-ABM ensemble on the
/// realized graph, compared against the mean-field prediction. `threads`
/// comes from the server (resolved once via `rumor_par`).
pub fn ensemble(req: &EnsembleRequest, threads: usize) -> Result<Value> {
    let dataset = synthesize(&req.network)?;
    let graph = dataset.realize_graph()?;
    // Microscopic rates key off the realized graph's degrees.
    let classes = DegreeClasses::from_graph(&graph)?;
    let params = build_params(classes, &req.model)?;
    let cfg = AbmConfig {
        alpha: params.alpha(),
        dt: req.dt,
        tf: req.tf,
        eps1: req.eps1,
        eps2: req.eps2,
        initial_infected: req.i0,
        record_every: 10,
    };
    let policy = IsolationPolicy { quorum: req.quorum };
    let isolated = run_ensemble_isolated(
        &graph,
        &params,
        &cfg,
        Simulator::Synchronous,
        req.runs,
        req.network.seed,
        &policy,
        Some(threads),
    )?;
    let ens = &isolated.result;
    let mf = mean_field_reference(&params, &cfg, &ens.times)?;
    let deviation = max_deviation(ens, &mf)?;
    Ok(Value::obj([
        ("runs", Value::Num(ens.runs as f64)),
        ("attempted", Value::Num(isolated.attempted as f64)),
        ("excluded", Value::Num(isolated.failures.len() as f64)),
        ("degraded", Value::Bool(isolated.degraded())),
        ("times", Value::num_arr(&ens.times)),
        ("i_mean", Value::num_arr(&ens.i_mean)),
        ("i_std", Value::num_arr(&ens.i_std)),
        ("max_deviation_vs_ode", Value::Num(deviation)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse;

    fn small_net() -> &'static str {
        r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}, "tf": 10}"#
    }

    #[test]
    fn simulate_handler_is_deterministic() {
        let req = SimulateRequest::from_value(&parse(small_net()).unwrap()).unwrap();
        let a = simulate(&req).unwrap();
        let b = simulate(&req).unwrap();
        assert_eq!(
            crate::wire::serialize(&a),
            crate::wire::serialize(&b),
            "identical requests must produce identical bytes"
        );
        assert!(a.get("times").unwrap().as_arr().unwrap().len() == 201);
    }

    #[test]
    fn threshold_handler_reports_consistency() {
        let req = ThresholdRequest::from_value(
            &parse(r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}"#).unwrap(),
        )
        .unwrap();
        let out = threshold(&req).unwrap();
        assert!(out.get("r0").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(out.get("consistent_with_r0"), Some(&Value::Bool(true)));
    }

    #[test]
    fn ensemble_handler_runs_small_workload() {
        let req = EnsembleRequest::from_value(
            &parse(
                r#"{"network": {"nodes": 200, "k_max": 20, "mean_degree": 4},
                    "tf": 3, "runs": 2}"#,
            )
            .unwrap(),
        )
        .unwrap();
        let out = ensemble(&req, 1).unwrap();
        assert_eq!(out.get("runs").unwrap().as_f64(), Some(2.0));
        assert!(!out.get("times").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn paper_kind_reads_legacy_rcp1_warm_bytes_like_rcp2() {
        // A setting whose sweeps converge in a few dozen iterations.
        let at = |lambda0: f64| {
            let body = format!(
                r#"{{"network": {{"nodes": 300, "k_max": 50, "mean_degree": 8, "seed": 104}},
                    "model": {{"lambda0": {lambda0}}}, "tf": 50, "eps_max": 0.08}}"#
            );
            OptimizeRequest::from_value(&parse(&body).unwrap()).unwrap()
        };
        let (_, rcp2) = optimize_with_warm_bytes(&at(0.021), None).unwrap();
        assert_eq!(&rcp2[..4], b"RCP2");
        // The same schedule in the RCP1 layout older journals hold:
        // magic, node count, then grid, eps1 and eps2 series.
        let prior = decode_multi_schedule(&rcp2).unwrap();
        let mut rcp1 = b"RCP1".to_vec();
        rcp1.extend_from_slice(&(prior.grid().len() as u32).to_le_bytes());
        for series in [prior.grid(), prior.values(0), prior.values(1)] {
            for x in series {
                rcp1.extend_from_slice(&x.to_le_bytes());
            }
        }
        let next = at(0.0215);
        let (from_rcp1, out1) = optimize_with_warm_bytes(&next, Some(&rcp1)).unwrap();
        let (from_rcp2, out2) = optimize_with_warm_bytes(&next, Some(&rcp2)).unwrap();
        assert_eq!(
            crate::wire::serialize(&from_rcp1),
            crate::wire::serialize(&from_rcp2)
        );
        assert_eq!(out1, out2);
        // And the warm start was taken, not dropped as corrupt: it
        // converges in fewer iterations than a cold start.
        let (cold, _) = optimize_with_warm_bytes(&next, None).unwrap();
        let iterations = |v: &Value| v.get("iterations").unwrap().as_f64().unwrap();
        assert_eq!(from_rcp1.get("converged"), Some(&Value::Bool(true)));
        assert!(
            iterations(&from_rcp1) < iterations(&cold),
            "warm {} vs cold {}",
            iterations(&from_rcp1),
            iterations(&cold)
        );
    }
}
