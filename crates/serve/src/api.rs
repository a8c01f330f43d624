//! Typed request structs for the JSON endpoints.
//!
//! Every endpoint body deserializes into an owned request struct via
//! `from_value`-style constructors: unknown fields are rejected (typos
//! fail loudly, matching the CLI's flag policy), missing fields take the
//! CLI's documented defaults, and every field is range-checked *before*
//! any engine runs — the service refuses work it can see is invalid or
//! oversized with a `400`, keeping admission cheap.
//!
//! Each struct also produces a **canonical value**: the full field set
//! in a fixed order with defaults materialized. Serializing it yields
//! one byte string per semantically identical request — the result
//! cache's key — regardless of the client's field order, whitespace, or
//! omitted defaults.

use crate::wire::Value;
use std::fmt;

/// Largest integer the `f64`-backed wire layer can carry exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// A request that failed validation (HTTP 400).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError(pub String);

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ApiError {}

type Result<T> = std::result::Result<T, ApiError>;

pub(crate) fn field_err(key: &str, reason: impl fmt::Display) -> ApiError {
    ApiError(format!("field {key:?}: {reason}"))
}

/// Checks that `v` is an object whose keys all appear in `allowed`.
pub(crate) fn check_keys(v: &Value, context: &str, allowed: &[&str]) -> Result<()> {
    let Some(members) = v.as_obj() else {
        return Err(ApiError(format!("{context} must be a JSON object")));
    };
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(ApiError(format!(
                "{context}: unknown field {key:?} (expected one of: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

pub(crate) fn get_f64(v: &Value, key: &str, default: f64) -> Result<f64> {
    match v.get(key) {
        None => Ok(default),
        Some(item) => item
            .as_f64()
            .ok_or_else(|| field_err(key, "must be a number")),
    }
}

pub(crate) fn get_usize(v: &Value, key: &str, default: usize) -> Result<usize> {
    match v.get(key) {
        None => Ok(default),
        Some(item) => {
            let x = item
                .as_f64()
                .ok_or_else(|| field_err(key, "must be a number"))?;
            if x < 0.0 || x.fract() != 0.0 || x > MAX_EXACT_INT {
                return Err(field_err(key, "must be a non-negative integer"));
            }
            Ok(x as usize)
        }
    }
}

pub(crate) fn get_u64(v: &Value, key: &str, default: u64) -> Result<u64> {
    get_usize(v, key, default as usize).map(|x| x as u64)
}

fn check_range(key: &str, x: f64, lo: f64, hi: f64) -> Result<()> {
    if !x.is_finite() || x < lo || x > hi {
        return Err(field_err(key, format!("must lie in [{lo}, {hi}], got {x}")));
    }
    Ok(())
}

fn check_positive(key: &str, x: f64, hi: f64) -> Result<()> {
    if !x.is_finite() || x <= 0.0 || x > hi {
        return Err(field_err(key, format!("must lie in (0, {hi}], got {x}")));
    }
    Ok(())
}

/// The synthetic network a request runs on (a Digg-calibrated power-law
/// degree sequence; see `rumor_datasets::digg`). All fields optional in
/// the wire form; defaults match `rumor analyze`/`simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Maximum degree of the power-law sequence.
    pub k_max: usize,
    /// Target mean degree.
    pub mean_degree: f64,
    /// RNG seed for the degree sequence (and graph realization).
    pub seed: u64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        NetworkSpec {
            nodes: 5_000,
            k_max: 300,
            mean_degree: 24.0,
            seed: 2_009,
        }
    }
}

impl NetworkSpec {
    /// Parses `{"nodes", "k_max", "mean_degree", "seed"}`, bounding the
    /// request so a single query cannot monopolize the service.
    /// `max_nodes` differs per endpoint (ensemble realizes the graph).
    pub fn from_value(v: &Value, max_nodes: usize) -> Result<Self> {
        check_keys(v, "network", &["nodes", "k_max", "mean_degree", "seed"])?;
        let d = NetworkSpec::default();
        let spec = NetworkSpec {
            nodes: get_usize(v, "nodes", d.nodes)?,
            k_max: get_usize(v, "k_max", d.k_max)?,
            mean_degree: get_f64(v, "mean_degree", d.mean_degree)?,
            seed: get_u64(v, "seed", d.seed)?,
        };
        if spec.nodes < 10 || spec.nodes > max_nodes {
            return Err(field_err(
                "nodes",
                format!("must lie in [10, {max_nodes}], got {}", spec.nodes),
            ));
        }
        if spec.k_max < 1 || spec.k_max >= spec.nodes {
            return Err(field_err("k_max", "must lie in [1, nodes)"));
        }
        if !(spec.mean_degree.is_finite()
            && spec.mean_degree >= 1.0
            && spec.mean_degree <= spec.k_max as f64)
        {
            return Err(field_err("mean_degree", "must lie in [1, k_max]"));
        }
        Ok(spec)
    }

    fn canonical(&self) -> Value {
        Value::obj([
            ("nodes", Value::Num(self.nodes as f64)),
            ("k_max", Value::Num(self.k_max as f64)),
            ("mean_degree", Value::Num(self.mean_degree)),
            ("seed", Value::Num(self.seed as f64)),
        ])
    }
}

/// Which propagation model a request drives. The paper model is the
/// default; the other kinds ride on the generalized compartment
/// abstraction (`rumor-compartments`) and carry their own parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// The paper's heterogeneous SIR model, Eq. (1).
    Paper,
    /// Competing two-rumor dynamics: a rumor and a truth campaign
    /// racing for shared susceptibles.
    TwoRumor {
        /// Truth acceptance scale: `λ2(k) = λ20·k`.
        lambda20: f64,
        /// Rumor recovery rate.
        gamma1: f64,
        /// Truth retirement rate.
        gamma2: f64,
        /// Fraction of truth-contacted spreaders that convert.
        mu: f64,
    },
    /// The paper model with tie-strength modulation
    /// `λ_eff(k) = λ(k)·k^(−β)`.
    TieStrength {
        /// Tie-strength exponent `β ≥ 0`.
        beta: f64,
    },
}

impl ModelKind {
    /// The wire spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Paper => "paper",
            ModelKind::TwoRumor { .. } => "two_rumor",
            ModelKind::TieStrength { .. } => "tie_strength",
        }
    }
}

/// Model parameters shared by every endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Population inflow rate `α`.
    pub alpha: f64,
    /// Acceptance scale: `λ(k) = λ0·k` (the *rumor* acceptance for the
    /// two-rumor kind).
    pub lambda0: f64,
    /// Which model the parameters drive.
    pub kind: ModelKind,
}

impl Default for ModelSpec {
    fn default() -> Self {
        ModelSpec {
            alpha: 0.01,
            lambda0: 0.02,
            kind: ModelKind::Paper,
        }
    }
}

impl ModelSpec {
    /// Is this the paper model (the only kind the threshold theory and
    /// the ABM ensemble support)?
    pub fn is_paper(&self) -> bool {
        matches!(self.kind, ModelKind::Paper)
    }

    /// Parses `{"alpha", "lambda0", "kind", ...kind parameters}`. Kind
    /// parameters are only accepted under the kind they belong to, so a
    /// stray `beta` on a `two_rumor` request fails loudly instead of
    /// being silently dropped.
    pub fn from_value(v: &Value) -> Result<Self> {
        check_keys(
            v,
            "model",
            &[
                "alpha", "lambda0", "kind", "lambda20", "gamma1", "gamma2", "mu", "beta",
            ],
        )?;
        let d = ModelSpec::default();
        let alpha = get_f64(v, "alpha", d.alpha)?;
        let lambda0 = get_f64(v, "lambda0", d.lambda0)?;
        check_range("alpha", alpha, 0.0, 10.0)?;
        check_positive("lambda0", lambda0, 10.0)?;
        let kind_name = match v.get("kind") {
            None => "paper",
            Some(item) => item
                .as_str()
                .ok_or_else(|| field_err("kind", "must be a string"))?,
        };
        let reject_foreign = |keys: &[&str]| -> Result<()> {
            for key in keys {
                if v.get(key).is_some() {
                    return Err(field_err(
                        key,
                        format!("not a parameter of model kind {kind_name:?}"),
                    ));
                }
            }
            Ok(())
        };
        let kind = match kind_name {
            "paper" => {
                reject_foreign(&["lambda20", "gamma1", "gamma2", "mu", "beta"])?;
                ModelKind::Paper
            }
            "two_rumor" => {
                reject_foreign(&["beta"])?;
                let lambda20 = get_f64(v, "lambda20", 0.03)?;
                let gamma1 = get_f64(v, "gamma1", 0.05)?;
                let gamma2 = get_f64(v, "gamma2", 0.08)?;
                let mu = get_f64(v, "mu", 0.5)?;
                check_positive("lambda20", lambda20, 10.0)?;
                check_range("gamma1", gamma1, 0.0, 10.0)?;
                check_range("gamma2", gamma2, 0.0, 10.0)?;
                check_range("mu", mu, 0.0, 1.0)?;
                ModelKind::TwoRumor {
                    lambda20,
                    gamma1,
                    gamma2,
                    mu,
                }
            }
            "tie_strength" => {
                reject_foreign(&["lambda20", "gamma1", "gamma2", "mu"])?;
                let beta = get_f64(v, "beta", 0.5)?;
                check_range("beta", beta, 0.0, 10.0)?;
                ModelKind::TieStrength { beta }
            }
            other => {
                return Err(field_err(
                    "kind",
                    format!("must be one of paper, two_rumor, tie_strength, got {other:?}"),
                ))
            }
        };
        Ok(ModelSpec {
            alpha,
            lambda0,
            kind,
        })
    }

    fn canonical(&self) -> Value {
        // The paper kind serializes exactly as it did before the kinds
        // existed, so the canonical cache key of every historical
        // request is unchanged.
        let mut fields = vec![
            ("alpha", Value::Num(self.alpha)),
            ("lambda0", Value::Num(self.lambda0)),
        ];
        match &self.kind {
            ModelKind::Paper => {}
            ModelKind::TwoRumor {
                lambda20,
                gamma1,
                gamma2,
                mu,
            } => {
                fields.push(("kind", Value::Str("two_rumor".to_string())));
                fields.push(("lambda20", Value::Num(*lambda20)));
                fields.push(("gamma1", Value::Num(*gamma1)));
                fields.push(("gamma2", Value::Num(*gamma2)));
                fields.push(("mu", Value::Num(*mu)));
            }
            ModelKind::TieStrength { beta } => {
                fields.push(("kind", Value::Str("tie_strength".to_string())));
                fields.push(("beta", Value::Num(*beta)));
            }
        }
        Value::obj(fields)
    }
}

fn network_field(v: &Value, max_nodes: usize) -> Result<NetworkSpec> {
    match v.get("network") {
        None => {
            let d = NetworkSpec::default();
            if d.nodes > max_nodes {
                Err(field_err(
                    "network",
                    format!("required for this endpoint (default of {} nodes exceeds the {max_nodes}-node cap)", d.nodes),
                ))
            } else {
                Ok(d)
            }
        }
        Some(net) => NetworkSpec::from_value(net, max_nodes),
    }
}

fn model_field(v: &Value) -> Result<ModelSpec> {
    match v.get("model") {
        None => Ok(ModelSpec::default()),
        Some(m) => ModelSpec::from_value(m),
    }
}

/// `POST /v1/simulate` — integrate the heterogeneous SIR dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// Network the model runs on.
    pub network: NetworkSpec,
    /// Model parameters.
    pub model: ModelSpec,
    /// Truth-spreading rate `ε1`.
    pub eps1: f64,
    /// Blocking rate `ε2`.
    pub eps2: f64,
    /// Final time.
    pub tf: f64,
    /// Initial infected fraction per class.
    pub i0: f64,
    /// Output samples on `[0, tf]`.
    pub n_out: usize,
}

impl SimulateRequest {
    /// Parses and validates a simulate request body.
    pub fn from_value(v: &Value) -> Result<Self> {
        check_keys(
            v,
            "request",
            &["network", "model", "eps1", "eps2", "tf", "i0", "n_out"],
        )?;
        let req = SimulateRequest {
            network: network_field(v, 200_000)?,
            model: model_field(v)?,
            eps1: get_f64(v, "eps1", 0.2)?,
            eps2: get_f64(v, "eps2", 0.05)?,
            tf: get_f64(v, "tf", 150.0)?,
            i0: get_f64(v, "i0", 0.1)?,
            n_out: get_usize(v, "n_out", 201)?,
        };
        check_range("eps1", req.eps1, 0.0, 1.0)?;
        check_range("eps2", req.eps2, 0.0, 1.0)?;
        check_positive("tf", req.tf, 10_000.0)?;
        if !(req.i0 > 0.0 && req.i0 < 1.0) {
            return Err(field_err("i0", "must lie in (0, 1)"));
        }
        if req.n_out < 2 || req.n_out > 2_001 {
            return Err(field_err("n_out", "must lie in [2, 2001]"));
        }
        Ok(req)
    }

    /// The canonical (defaults-materialized, fixed-order) wire value.
    pub fn canonical(&self) -> Value {
        Value::obj([
            ("network", self.network.canonical()),
            ("model", self.model.canonical()),
            ("eps1", Value::Num(self.eps1)),
            ("eps2", Value::Num(self.eps2)),
            ("tf", Value::Num(self.tf)),
            ("i0", Value::Num(self.i0)),
            ("n_out", Value::Num(self.n_out as f64)),
        ])
    }
}

/// `POST /v1/threshold` — `r0`, equilibria, Theorem-2 consistency.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRequest {
    /// Network the model runs on.
    pub network: NetworkSpec,
    /// Model parameters.
    pub model: ModelSpec,
    /// Truth-spreading rate `ε1`.
    pub eps1: f64,
    /// Blocking rate `ε2`.
    pub eps2: f64,
}

impl ThresholdRequest {
    /// Parses and validates a threshold request body.
    pub fn from_value(v: &Value) -> Result<Self> {
        check_keys(v, "request", &["network", "model", "eps1", "eps2"])?;
        let req = ThresholdRequest {
            network: network_field(v, 200_000)?,
            model: model_field(v)?,
            eps1: get_f64(v, "eps1", 0.2)?,
            eps2: get_f64(v, "eps2", 0.05)?,
        };
        check_range("eps1", req.eps1, 0.0, 1.0)?;
        check_range("eps2", req.eps2, 0.0, 1.0)?;
        // The r0/equilibrium theory is stated for the paper model only.
        if !req.model.is_paper() {
            return Err(field_err(
                "model.kind",
                format!(
                    "threshold analysis supports only the paper kind, got {:?}",
                    req.model.kind.name()
                ),
            ));
        }
        Ok(req)
    }

    /// The canonical (defaults-materialized, fixed-order) wire value.
    pub fn canonical(&self) -> Value {
        Value::obj([
            ("network", self.network.canonical()),
            ("model", self.model.canonical()),
            ("eps1", Value::Num(self.eps1)),
            ("eps2", Value::Num(self.eps2)),
        ])
    }
}

/// `POST /v1/optimize` — guarded FBSM countermeasure schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Network the model runs on.
    pub network: NetworkSpec,
    /// Model parameters.
    pub model: ModelSpec,
    /// Control horizon.
    pub tf: f64,
    /// Initial infected fraction per class.
    pub i0: f64,
    /// Cost weight on `ε1²`.
    pub c1: f64,
    /// Cost weight on `ε2²`.
    pub c2: f64,
    /// Upper bound on both controls.
    pub eps_max: f64,
    /// Sweep iteration cap.
    pub max_iters: usize,
}

impl OptimizeRequest {
    /// Parses and validates an optimize request body.
    pub fn from_value(v: &Value) -> Result<Self> {
        check_keys(
            v,
            "request",
            &[
                "network",
                "model",
                "tf",
                "i0",
                "c1",
                "c2",
                "eps_max",
                "max_iters",
            ],
        )?;
        let req = OptimizeRequest {
            network: network_field(v, 200_000)?,
            model: model_field(v)?,
            tf: get_f64(v, "tf", 100.0)?,
            i0: get_f64(v, "i0", 0.05)?,
            c1: get_f64(v, "c1", 5.0)?,
            c2: get_f64(v, "c2", 10.0)?,
            eps_max: get_f64(v, "eps_max", 0.7)?,
            max_iters: get_usize(v, "max_iters", 300)?,
        };
        check_positive("tf", req.tf, 1_000.0)?;
        if !(req.i0 > 0.0 && req.i0 < 1.0) {
            return Err(field_err("i0", "must lie in (0, 1)"));
        }
        check_positive("c1", req.c1, 1e6)?;
        check_positive("c2", req.c2, 1e6)?;
        check_positive("eps_max", req.eps_max, 1.0)?;
        if req.max_iters < 1 || req.max_iters > 2_000 {
            return Err(field_err("max_iters", "must lie in [1, 2000]"));
        }
        Ok(req)
    }

    /// The canonical (defaults-materialized, fixed-order) wire value.
    pub fn canonical(&self) -> Value {
        Value::obj([
            ("network", self.network.canonical()),
            ("model", self.model.canonical()),
            ("tf", Value::Num(self.tf)),
            ("i0", Value::Num(self.i0)),
            ("c1", Value::Num(self.c1)),
            ("c2", Value::Num(self.c2)),
            ("eps_max", Value::Num(self.eps_max)),
            ("max_iters", Value::Num(self.max_iters as f64)),
        ])
    }
}

/// `POST /v1/ensemble` — fault-isolated agent-based ensemble vs the
/// mean-field prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleRequest {
    /// Network the model runs on (realized as an actual graph, so the
    /// node cap is tighter than the mean-field endpoints').
    pub network: NetworkSpec,
    /// Model parameters.
    pub model: ModelSpec,
    /// Truth-spreading rate `ε1`.
    pub eps1: f64,
    /// Blocking rate `ε2`.
    pub eps2: f64,
    /// Final time.
    pub tf: f64,
    /// Initial infected fraction.
    pub i0: f64,
    /// ABM time step.
    pub dt: f64,
    /// Number of replicas.
    pub runs: usize,
    /// Minimum surviving replica fraction.
    pub quorum: f64,
}

impl EnsembleRequest {
    /// Largest network an ensemble request may realize.
    pub const MAX_NODES: usize = 20_000;

    /// Most ABM steps (`tf / dt`) one replica may take. The deadline is
    /// checked only before and after compute, so this bounds how long a
    /// request can hold a compute worker; at the largest `tf`, any
    /// `dt >= 0.01` fits.
    const MAX_STEPS: f64 = 100_000.0;

    /// Parses and validates an ensemble request body.
    pub fn from_value(v: &Value) -> Result<Self> {
        check_keys(
            v,
            "request",
            &[
                "network", "model", "eps1", "eps2", "tf", "i0", "dt", "runs", "quorum",
            ],
        )?;
        let req = EnsembleRequest {
            network: network_field(v, Self::MAX_NODES)?,
            model: model_field(v)?,
            eps1: get_f64(v, "eps1", 0.2)?,
            eps2: get_f64(v, "eps2", 0.05)?,
            tf: get_f64(v, "tf", 40.0)?,
            i0: get_f64(v, "i0", 0.05)?,
            dt: get_f64(v, "dt", 0.1)?,
            runs: get_usize(v, "runs", 8)?,
            quorum: get_f64(v, "quorum", 0.5)?,
        };
        check_range("eps1", req.eps1, 0.0, 1.0)?;
        check_range("eps2", req.eps2, 0.0, 1.0)?;
        check_positive("tf", req.tf, 1_000.0)?;
        if !(req.i0 > 0.0 && req.i0 < 1.0) {
            return Err(field_err("i0", "must lie in (0, 1)"));
        }
        check_positive("dt", req.dt, 1.0)?;
        if req.tf / req.dt > Self::MAX_STEPS {
            return Err(field_err(
                "dt",
                format!(
                    "tf/dt must be at most {} ABM steps, got {}",
                    Self::MAX_STEPS,
                    req.tf / req.dt
                ),
            ));
        }
        if req.runs < 1 || req.runs > 128 {
            return Err(field_err("runs", "must lie in [1, 128]"));
        }
        if !(req.quorum > 0.0 && req.quorum <= 1.0) {
            return Err(field_err("quorum", "must lie in (0, 1]"));
        }
        // The microscopic ABM implements the paper's transition rules.
        if !req.model.is_paper() {
            return Err(field_err(
                "model.kind",
                format!(
                    "ensemble simulation supports only the paper kind, got {:?}",
                    req.model.kind.name()
                ),
            ));
        }
        Ok(req)
    }

    /// The canonical (defaults-materialized, fixed-order) wire value.
    pub fn canonical(&self) -> Value {
        Value::obj([
            ("network", self.network.canonical()),
            ("model", self.model.canonical()),
            ("eps1", Value::Num(self.eps1)),
            ("eps2", Value::Num(self.eps2)),
            ("tf", Value::Num(self.tf)),
            ("i0", Value::Num(self.i0)),
            ("dt", Value::Num(self.dt)),
            ("runs", Value::Num(self.runs as f64)),
            ("quorum", Value::Num(self.quorum)),
        ])
    }
}

/// The canonical cache key of a request: endpoint plus the canonical
/// wire form. Two requests map to the same key iff they are
/// semantically identical, and the engines are deterministic, so a
/// cache hit can be served byte-for-byte.
pub fn canonical_key(endpoint: &str, canonical: &Value) -> String {
    format!("{endpoint}?{}", crate::wire::serialize(canonical))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse;

    #[test]
    fn defaults_fill_missing_fields() {
        let req = SimulateRequest::from_value(&parse("{}").unwrap()).unwrap();
        assert_eq!(req.network, NetworkSpec::default());
        assert_eq!(req.model, ModelSpec::default());
        assert_eq!(req.tf, 150.0);
        assert_eq!(req.n_out, 201);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = SimulateRequest::from_value(&parse(r#"{"tff": 10}"#).unwrap()).unwrap_err();
        assert!(err.0.contains("tff"), "{err}");
        let err =
            ThresholdRequest::from_value(&parse(r#"{"network": {"n": 5}}"#).unwrap()).unwrap_err();
        assert!(err.0.contains("unknown field"), "{err}");
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        for bad in [
            r#"{"eps1": 1.5}"#,
            r#"{"tf": -1}"#,
            r#"{"tf": 1e9}"#,
            r#"{"i0": 0}"#,
            r#"{"n_out": 1}"#,
            r#"{"network": {"nodes": 4}}"#,
            r#"{"network": {"nodes": 1e9}}"#,
            r#"{"n_out": 2.5}"#,
        ] {
            assert!(
                SimulateRequest::from_value(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn ensemble_node_cap_is_tighter() {
        let big = r#"{"network": {"nodes": 50000, "k_max": 100}}"#;
        assert!(SimulateRequest::from_value(&parse(big).unwrap()).is_ok());
        assert!(EnsembleRequest::from_value(&parse(big).unwrap()).is_err());
    }

    #[test]
    fn ensemble_step_count_is_capped() {
        // dt = 1e-300 would make the ABM loop `usize::MAX` times.
        for bad in [
            r#"{"dt": 1e-300}"#,
            r#"{"tf": 1000, "dt": 0.009}"#,
            r#"{"tf": 40, "dt": 0.0001}"#,
        ] {
            let err = EnsembleRequest::from_value(&parse(bad).unwrap()).unwrap_err();
            assert!(err.0.contains("\"dt\""), "{bad}: {err}");
        }
        for ok in [r#"{"tf": 1000, "dt": 0.01}"#, r#"{"tf": 10, "dt": 0.0001}"#] {
            assert!(
                EnsembleRequest::from_value(&parse(ok).unwrap()).is_ok(),
                "rejected {ok}"
            );
        }
    }

    #[test]
    fn canonical_key_ignores_field_order_and_defaults() {
        let a =
            SimulateRequest::from_value(&parse(r#"{"tf": 150, "eps1": 0.2}"#).unwrap()).unwrap();
        let b = SimulateRequest::from_value(&parse(r#"{"eps1": 0.2}"#).unwrap()).unwrap();
        assert_eq!(
            canonical_key("/v1/simulate", &a.canonical()),
            canonical_key("/v1/simulate", &b.canonical())
        );
    }

    #[test]
    fn model_kinds_parse_validate_and_canonicalize() {
        // Default and explicit paper spell the same canonical bytes as
        // the pre-kind wire format.
        let bare = SimulateRequest::from_value(&parse("{}").unwrap()).unwrap();
        let explicit =
            SimulateRequest::from_value(&parse(r#"{"model": {"kind": "paper"}}"#).unwrap())
                .unwrap();
        assert_eq!(
            crate::wire::serialize(&bare.canonical()),
            crate::wire::serialize(&explicit.canonical())
        );
        assert!(
            !crate::wire::serialize(&bare.canonical()).contains("kind"),
            "paper canonical form must not grow a kind field"
        );

        let two = SimulateRequest::from_value(
            &parse(r#"{"model": {"kind": "two_rumor", "gamma1": 0.1}}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(two.model.kind.name(), "two_rumor");
        let round = SimulateRequest::from_value(&two.canonical()).unwrap();
        assert_eq!(two, round);

        let tied = OptimizeRequest::from_value(
            &parse(r#"{"model": {"kind": "tie_strength", "beta": 0.8}}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(tied.model.kind, ModelKind::TieStrength { beta: 0.8 });
        let round = OptimizeRequest::from_value(&tied.canonical()).unwrap();
        assert_eq!(tied, round);

        for bad in [
            r#"{"model": {"kind": "nope"}}"#,
            r#"{"model": {"kind": 7}}"#,
            r#"{"model": {"beta": 0.5}}"#,
            r#"{"model": {"kind": "two_rumor", "beta": 0.5}}"#,
            r#"{"model": {"kind": "tie_strength", "mu": 0.5}}"#,
            r#"{"model": {"kind": "two_rumor", "mu": 1.5}}"#,
            r#"{"model": {"kind": "two_rumor", "lambda20": 0}}"#,
            r#"{"model": {"kind": "tie_strength", "beta": -1}}"#,
        ] {
            assert!(
                SimulateRequest::from_value(&parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn threshold_and_ensemble_accept_only_the_paper_kind() {
        let two = r#"{"model": {"kind": "two_rumor"},
                      "network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}"#;
        let err = ThresholdRequest::from_value(&parse(two).unwrap()).unwrap_err();
        assert!(err.0.contains("paper"), "{err}");
        let err = EnsembleRequest::from_value(&parse(two).unwrap()).unwrap_err();
        assert!(err.0.contains("paper"), "{err}");
        // Simulate and optimize take all kinds.
        assert!(SimulateRequest::from_value(&parse(two).unwrap()).is_ok());
        assert!(OptimizeRequest::from_value(&parse(two).unwrap()).is_ok());
    }

    #[test]
    fn canonical_form_round_trips_through_from_value() {
        let req = OptimizeRequest::from_value(
            &parse(r#"{"tf": 60, "c1": 2.5, "network": {"nodes": 400, "k_max": 30}}"#).unwrap(),
        )
        .unwrap();
        let round = OptimizeRequest::from_value(&req.canonical()).unwrap();
        assert_eq!(req, round);
    }
}
