//! Recorded reference answers and the tolerance they are checked at.
//!
//! `references.json` maps a request (the hash of its canonical cache
//! key, or of a campaign submission plus a point index) to the figures
//! the answer must reproduce. `--record` recomputes the file in-process
//! through the handlers; it is rerun only when the numerics change on
//! purpose.

use crate::bodies::{self, Req};
use rumor_jobs::{JobSpec, PointOutcome, PointRunner};
use rumor_serve::api::{
    canonical_key, EnsembleRequest, OptimizeRequest, SimulateRequest, ThresholdRequest,
};
use rumor_serve::handlers;
use rumor_serve::jobs_api::JobSubmitRequest;
use rumor_serve::jobs_exec::CampaignRunner;
use rumor_serve::wire::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const RECORDED: &str = include_str!("../references.json");

/// Relative tolerance per reference figure. `r0` and plain trajectories
/// come from deterministic closed-form or fixed-tolerance integration;
/// optimizer outputs get the service's own convergence tolerance
/// scaled up, because an iteration-capped solve is sensitive to
/// floating-point summation order.
pub fn tolerance(field: &str) -> f64 {
    match field {
        "r0" => 1e-9,
        "terminal" | "i_final" => 1e-6,
        "J" | "J_terminal" => 1e-3,
        _ => 1e-6,
    }
}

/// FNV-1a, printed as 16 hex digits.
pub fn key_hash(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Validates a compute request into its canonical form, as the server
/// does before its cache lookup.
pub fn canonical(path: &str, v: &Value) -> Result<Value, String> {
    match path {
        "/v1/simulate" => SimulateRequest::from_value(v).map(|r| r.canonical()),
        "/v1/threshold" => ThresholdRequest::from_value(v).map(|r| r.canonical()),
        "/v1/optimize" => OptimizeRequest::from_value(v).map(|r| r.canonical()),
        "/v1/ensemble" => EnsembleRequest::from_value(v).map(|r| r.canonical()),
        other => return Err(format!("no canonical form for {other}")),
    }
    .map_err(|e| e.to_string())
}

/// Runs the handler of a canonical compute request, as the server does
/// on a cache miss.
pub fn run_handler(path: &str, canonical: &Value, workers: usize) -> Result<Value, String> {
    let invalid = |e: rumor_serve::api::ApiError| e.to_string();
    let failed = |e: handlers::HandlerError| e.to_string();
    match path {
        "/v1/simulate" => {
            handlers::simulate(&SimulateRequest::from_value(canonical).map_err(invalid)?)
                .map_err(failed)
        }
        "/v1/threshold" => {
            handlers::threshold(&ThresholdRequest::from_value(canonical).map_err(invalid)?)
                .map_err(failed)
        }
        "/v1/optimize" => {
            handlers::optimize(&OptimizeRequest::from_value(canonical).map_err(invalid)?)
                .map_err(failed)
        }
        "/v1/ensemble" => handlers::ensemble(
            &EnsembleRequest::from_value(canonical).map_err(invalid)?,
            workers,
        )
        .map_err(failed),
        other => Err(format!("no handler for {other}")),
    }
}

/// The canonical cache key of a compute request, as the server forms it.
pub fn canonical_of(path: &str, body: &str) -> Result<String, String> {
    let v = wire::parse(body).map_err(|e| e.to_string())?;
    Ok(canonical_key(path, &canonical(path, &v)?))
}

/// Key of one campaign point.
pub fn point_key(submission: &str, point: u64) -> String {
    key_hash(&format!("{submission}#{point}"))
}

/// The figures of one answer that references pin.
pub fn figures(path: &str, v: &Value) -> Vec<(&'static str, f64)> {
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
    let mut out = Vec::new();
    let mut push = |name: &'static str, x: Option<f64>| {
        if let Some(x) = x {
            out.push((name, x));
        }
    };
    match path {
        "/v1/threshold" => push("r0", num(v, "r0")),
        "/v1/simulate" => {
            push("r0", num(v, "r0"));
            push("terminal", num(v, "terminal_infected"));
        }
        "/v1/optimize" => {
            push("J", v.get("cost").and_then(|c| num(c, "total")));
            push("J_terminal", num(v, "terminal_infected"));
        }
        "/v1/ensemble" => {
            let last = v
                .get("i_mean")
                .and_then(Value::as_arr)
                .and_then(|a| a.last())
                .and_then(Value::as_f64);
            push("i_final", last);
        }
        _ => {}
    }
    out
}

/// The recorded references.
pub struct References(BTreeMap<String, Vec<(String, f64)>>);

impl References {
    pub fn load() -> References {
        let root = wire::parse(RECORDED).expect("references.json is valid JSON");
        let mut map = BTreeMap::new();
        for (key, entry) in root.as_obj().expect("references.json is an object") {
            let figures = entry
                .as_obj()
                .expect("each reference is an object")
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.as_f64().expect("reference figures are numbers"),
                    )
                })
                .collect();
            map.insert(key.clone(), figures);
        }
        References(map)
    }

    /// Compares an answer against the reference recorded under `key`.
    /// `Ok(false)` when no reference exists for the key.
    pub fn check(&self, key: &str, got: &[(&'static str, f64)]) -> Result<bool, String> {
        let Some(expected) = self.0.get(key) else {
            return Ok(false);
        };
        for (name, want) in expected {
            let Some(&(_, have)) = got.iter().find(|(n, _)| n == name) else {
                return Err(format!("answer lacks {name}"));
            };
            let scale = want.abs().max(1e-12);
            if (have - want).abs() / scale > tolerance(name) {
                return Err(format!(
                    "{name} = {have:e}, reference {want:e} (relative tolerance {:e})",
                    tolerance(name)
                ));
            }
        }
        Ok(true)
    }
}

fn compute(req: &Req, threads: usize) -> Value {
    let v = wire::parse(&req.body).expect("generated bodies are valid JSON");
    canonical(&req.path, &v)
        .and_then(|c| run_handler(&req.path, &c, threads))
        .expect("reference request computes")
}

/// Campaign points whose answers are pinned: a sample of the long
/// sweeps, every point of the optimize sweep.
pub fn pinned_points(kind: &str, points: u64) -> Vec<u64> {
    match kind {
        "optimize_sweep" => (0..points).collect(),
        _ => {
            let step = (points / 16).max(1);
            (0..points)
                .step_by(step as usize)
                .chain([points - 1])
                .collect()
        }
    }
}

/// Runs the pinned points of a campaign submission in-process, in
/// index order so optimize points see their predecessor's warm start.
/// `around` wraps each point's run (the traced replay times it).
pub fn campaign_rows(
    body: &str,
    threads: usize,
    around: &mut dyn FnMut(&mut dyn FnMut() -> PointOutcome) -> PointOutcome,
) -> Vec<(u64, Vec<u8>)> {
    let submission =
        JobSubmitRequest::from_value(&wire::parse(body).expect("valid")).expect("valid submission");
    let spec: JobSpec = submission.to_spec();
    let runner = CampaignRunner { workers: threads };
    let pinned = pinned_points(submission.kind.as_str(), submission.points);
    let last = *pinned.last().expect("at least one point");
    let chained = submission.kind.as_str() == "optimize_sweep";
    let mut warm: Option<Vec<u8>> = None;
    let mut rows = Vec::new();
    for index in 0..=last {
        if !chained && !pinned.contains(&index) {
            continue;
        }
        let prior = warm.take();
        match around(&mut || runner.run_point(&spec, index, 0, prior.as_deref())) {
            PointOutcome::Ok { payload, warm: w } => {
                warm = w;
                rows.push((index, payload));
            }
            _ => panic!("campaign point {index} failed"),
        }
    }
    rows
}

/// Recomputes every reference and prints `references.json`.
pub fn record() {
    let threads = rumor_par::resolve_threads(None);
    let mut out: BTreeMap<String, Vec<(&'static str, f64)>> = BTreeMap::new();
    let mut reqs: Vec<Req> = Vec::new();
    for v in 0..bodies::VARIANTS {
        reqs.extend(
            bodies::ANALYST_CLASSES
                .iter()
                .map(|c| bodies::analyst_request(c, v)),
        );
    }
    reqs.extend((0..bodies::DASHBOARD_POOL).map(bodies::dashboard_scenario));
    for req in &reqs {
        let key = canonical_of(&req.path, &req.body).expect("valid");
        if out.contains_key(&key_hash(&key)) {
            continue;
        }
        let t0 = std::time::Instant::now();
        let value = compute(req, threads);
        eprintln!(
            "record {:28} {:8.3} s {}",
            req.class,
            t0.elapsed().as_secs_f64(),
            key_hash(&key)
        );
        out.insert(key_hash(&key), figures(&req.path, &value));
    }
    for v in 0..bodies::VARIANTS {
        for kind in bodies::CAMPAIGN_KINDS {
            let job = bodies::campaign_job(kind, v);
            let t0 = std::time::Instant::now();
            for (index, payload) in campaign_rows(&job.body, threads, &mut |run| run()) {
                let row =
                    wire::parse(std::str::from_utf8(&payload).expect("utf-8")).expect("row JSON");
                let result = row.get("result").expect("row has a result");
                let path = match kind {
                    "threshold_sweep" => "/v1/threshold",
                    "optimize_sweep" => "/v1/optimize",
                    _ => "/v1/ensemble",
                };
                out.insert(point_key(&job.body, index), figures(path, result));
            }
            eprintln!(
                "record {kind} variant {v}: {:.3} s",
                t0.elapsed().as_secs_f64()
            );
        }
    }
    let mut text = String::from("{\n");
    for (n, (key, figs)) in out.iter().enumerate() {
        let fields: Vec<String> = figs
            .iter()
            .map(|(k, x)| format!("\"{k}\": {}", wire::serialize(&Value::Num(*x))))
            .collect();
        let comma = if n + 1 < out.len() { "," } else { "" };
        let _ = writeln!(text, "  \"{key}\": {{{}}}{comma}", fields.join(", "));
    }
    text.push_str("}\n");
    print!("{text}");
}
