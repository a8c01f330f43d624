//! Executes campaign points for the durable job manager.
//!
//! [`CampaignRunner`] is the service's [`PointRunner`]: it decodes the
//! opaque spec payload back into the validated submission, derives the
//! point's parameters (swept `λ0`, or a per-replica seed for ensemble
//! campaigns), and drives the same pure handlers the synchronous
//! endpoints use. Determinism in `(spec, index, warm)` is inherited
//! from the engines, which is what makes recovered campaigns finish
//! with byte-identical result sets.
//!
//! Failure classification mirrors the HTTP mapping: what would have
//! been a `400` can never succeed on retry (`Permanent`), what would
//! have been a `500` might (`Transient`). Optimize sweeps thread a
//! warm-start schedule between points through the manager's durable
//! checkpoint, encoded with [`rumor_control::checkpoint`].

use crate::handlers::{self, HandlerError};
use crate::jobs_api::{JobKind, JobSubmitRequest};
use crate::wire::{self, Value};
use rumor_jobs::{JobSpec, PointOutcome, PointRunner};
use std::time::Duration;

/// The service-side point executor.
pub struct CampaignRunner {
    /// Thread budget handed to engines that parallelize internally.
    pub workers: usize,
}

/// Replaces `v[section][key]` in a canonical object. Canonical forms
/// materialize every field, so a missing slot means a foreign value —
/// left untouched rather than panicking.
fn set_nested(v: &mut Value, section: &str, key: &str, val: Value) {
    if let Value::Obj(members) = v {
        if let Some((_, Value::Obj(inner))) = members.iter_mut().find(|(k, _)| k == section) {
            if let Some((_, slot)) = inner.iter_mut().find(|(k, _)| k == key) {
                *slot = val;
            }
        }
    }
}

/// Replaces a top-level field of a canonical object.
fn set_top(v: &mut Value, key: &str, val: Value) {
    if let Value::Obj(members) = v {
        if let Some((_, slot)) = members.iter_mut().find(|(k, _)| k == key) {
            *slot = val;
        }
    }
}

fn classify(e: HandlerError) -> PointOutcome {
    match e {
        HandlerError::BadRequest(m) => PointOutcome::Permanent(m),
        HandlerError::Internal(m) => PointOutcome::Transient(m),
    }
}

fn result_payload(fields: Vec<(&'static str, Value)>) -> Vec<u8> {
    wire::serialize(&Value::obj(fields)).into_bytes()
}

impl CampaignRunner {
    fn threshold_point(&self, req: &JobSubmitRequest, index: u64) -> PointOutcome {
        let lambda0 = req.lambda0_at(index);
        let mut base = req.base.clone();
        set_nested(&mut base, "model", "lambda0", Value::Num(lambda0));
        let point = match crate::api::ThresholdRequest::from_value(&base) {
            Ok(r) => r,
            Err(e) => return PointOutcome::Permanent(format!("point {index}: {e}")),
        };
        match handlers::threshold(&point) {
            Ok(out) => PointOutcome::Ok {
                payload: result_payload(vec![
                    ("point", Value::Num(index as f64)),
                    ("lambda0", Value::Num(lambda0)),
                    ("result", out),
                ]),
                warm: None,
            },
            Err(e) => classify(e),
        }
    }

    fn optimize_point(
        &self,
        req: &JobSubmitRequest,
        index: u64,
        warm: Option<&[u8]>,
    ) -> PointOutcome {
        let lambda0 = req.lambda0_at(index);
        let mut base = req.base.clone();
        set_nested(&mut base, "model", "lambda0", Value::Num(lambda0));
        let point = match crate::api::OptimizeRequest::from_value(&base) {
            Ok(r) => r,
            Err(e) => return PointOutcome::Permanent(format!("point {index}: {e}")),
        };
        // The warm bytes pass through opaquely: the handler decodes them
        // (RCP2, or an older journal's RCP1) for the request's model kind
        // and degrades corrupt or mismatched bytes to a cold start, so
        // this runner never learns a schedule format.
        match handlers::optimize_with_warm_bytes(&point, warm) {
            Ok((out, schedule_bytes)) => PointOutcome::Ok {
                payload: result_payload(vec![
                    ("point", Value::Num(index as f64)),
                    ("lambda0", Value::Num(lambda0)),
                    ("result", out),
                ]),
                warm: Some(schedule_bytes),
            },
            Err(e) => classify(e),
        }
    }

    fn ensemble_point(&self, req: &JobSubmitRequest, index: u64) -> PointOutcome {
        let mut base = req.base.clone();
        let base_seed = req
            .base
            .get("network")
            .and_then(|n| n.get("seed"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;
        let seed = base_seed.wrapping_add(index);
        set_nested(&mut base, "network", "seed", Value::Num(seed as f64));
        set_top(&mut base, "runs", Value::Num(1.0));
        let point = match crate::api::EnsembleRequest::from_value(&base) {
            Ok(r) => r,
            Err(e) => return PointOutcome::Permanent(format!("point {index}: {e}")),
        };
        match handlers::ensemble(&point, self.workers.max(1)) {
            Ok(out) => PointOutcome::Ok {
                payload: result_payload(vec![
                    ("point", Value::Num(index as f64)),
                    ("seed", Value::Num(seed as f64)),
                    ("result", out),
                ]),
                warm: None,
            },
            Err(e) => classify(e),
        }
    }
}

impl PointRunner for CampaignRunner {
    fn run_point(
        &self,
        spec: &JobSpec,
        index: u64,
        attempt: u32,
        warm: Option<&[u8]>,
    ) -> PointOutcome {
        let req = match JobSubmitRequest::decode_spec(spec) {
            Ok(r) => r,
            Err(e) => return PointOutcome::Permanent(format!("undecodable campaign spec: {e}")),
        };
        // Injected faults come first so they also exercise the retry
        // and quarantine paths of throttled campaigns.
        if req.inject_persistent.binary_search(&index).is_ok() {
            return PointOutcome::Transient(format!(
                "injected persistent fault at point {index} (attempt {attempt})"
            ));
        }
        if attempt == 0 && req.inject_transient.binary_search(&index).is_ok() {
            return PointOutcome::Transient(format!("injected transient fault at point {index}"));
        }
        if req.throttle_ms > 0 {
            std::thread::sleep(Duration::from_millis(req.throttle_ms));
        }
        match req.kind {
            JobKind::ThresholdSweep => self.threshold_point(&req, index),
            JobKind::OptimizeSweep => self.optimize_point(&req, index, warm),
            JobKind::Ensemble => self.ensemble_point(&req, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse;
    use rumor_control::checkpoint::decode_multi_schedule;

    fn small_sweep(kind: &str, points: u64) -> JobSpec {
        let body = format!(
            r#"{{"kind": "{kind}", "points": {points},
                "sweep": {{"from": 0.02, "to": 0.03}},
                "base": {{"network": {{"nodes": 300, "k_max": 25, "mean_degree": 4}}}}}}"#
        );
        JobSubmitRequest::from_value(&parse(&body).unwrap())
            .unwrap()
            .to_spec()
    }

    #[test]
    fn threshold_points_are_deterministic_and_swept() {
        let runner = CampaignRunner { workers: 1 };
        let spec = small_sweep("threshold_sweep", 3);
        let run = |index| match runner.run_point(&spec, index, 0, None) {
            PointOutcome::Ok { payload, .. } => payload,
            _ => panic!("point {index} failed"),
        };
        assert_eq!(run(0), run(0), "same point must be byte-identical");
        assert_ne!(run(0), run(2), "sweep must vary the point");
        let text = String::from_utf8(run(1)).unwrap();
        let value = parse(&text).unwrap();
        assert_eq!(value.get("point").unwrap().as_f64(), Some(1.0));
        assert!((value.get("lambda0").unwrap().as_f64().unwrap() - 0.025).abs() < 1e-12);
        assert!(value.get("result").unwrap().get("r0").is_some());
    }

    #[test]
    fn injected_faults_classify_as_transient() {
        let runner = CampaignRunner { workers: 1 };
        let spec = JobSubmitRequest::from_value(
            &parse(
                r#"{"points": 4, "inject": {"transient": [1], "persistent": [2]},
                    "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .to_spec();
        assert!(matches!(
            runner.run_point(&spec, 1, 0, None),
            PointOutcome::Transient(_)
        ));
        // The transient point succeeds on its retry...
        assert!(matches!(
            runner.run_point(&spec, 1, 1, None),
            PointOutcome::Ok { .. }
        ));
        // ...the persistent one never does.
        for attempt in 0..3 {
            assert!(matches!(
                runner.run_point(&spec, 2, attempt, None),
                PointOutcome::Transient(_)
            ));
        }
    }

    #[test]
    fn optimize_points_thread_a_warm_schedule() {
        let runner = CampaignRunner { workers: 1 };
        let spec = JobSubmitRequest::from_value(
            &parse(
                r#"{"kind": "optimize_sweep", "points": 2,
                    "sweep": {"from": 0.02, "to": 0.022},
                    "base": {"tf": 20, "max_iters": 150,
                             "network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .to_spec();
        let PointOutcome::Ok { warm, .. } = runner.run_point(&spec, 0, 0, None) else {
            panic!("cold point failed");
        };
        let warm = warm.expect("optimize points must emit warm bytes");
        // The paper kind persists RCP2 like every other kind.
        assert_eq!(&warm[..4], b"RCP2");
        let schedule = decode_multi_schedule(&warm).expect("valid schedule checkpoint");
        assert_eq!(schedule.n_channels(), 2);
        let PointOutcome::Ok { payload, .. } = runner.run_point(&spec, 1, 0, Some(&warm)) else {
            panic!("warm point failed");
        };
        let text = String::from_utf8(payload).unwrap();
        let value = parse(&text).unwrap();
        let iters = value
            .get("result")
            .unwrap()
            .get("iterations")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(iters >= 1.0);
        // Corrupt warm bytes fall back to a cold start, not a failure.
        assert!(matches!(
            runner.run_point(&spec, 1, 0, Some(b"garbage")),
            PointOutcome::Ok { .. }
        ));
    }

    #[test]
    fn two_rumor_optimize_points_thread_rcp2_warm_bytes() {
        let runner = CampaignRunner { workers: 1 };
        let spec = JobSubmitRequest::from_value(
            &parse(
                r#"{"kind": "optimize_sweep", "points": 2,
                    "sweep": {"from": 0.02, "to": 0.022},
                    "base": {"tf": 15, "max_iters": 60, "eps_max": 0.2,
                             "model": {"kind": "two_rumor"},
                             "network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .to_spec();
        let PointOutcome::Ok { warm, payload } = runner.run_point(&spec, 0, 0, None) else {
            panic!("cold two-rumor point failed");
        };
        let text = String::from_utf8(payload).unwrap();
        assert!(text.contains("\"kind\":\"two_rumor\""), "{text}");
        let warm = warm.expect("optimize points must emit warm bytes");
        // Multi-control kinds persist RCP2, and the bytes round-trip
        // exactly, which is the resume contract.
        assert_eq!(&warm[..4], b"RCP2");
        let schedule = decode_multi_schedule(&warm).expect("RCP2 warm bytes");
        assert_eq!(schedule.n_channels(), 2);
        assert!(matches!(
            runner.run_point(&spec, 1, 0, Some(&warm)),
            PointOutcome::Ok { .. }
        ));
        // Foreign bytes (an RCP1 pair schedule is still decodable as a
        // legacy 2-channel warm start; true garbage is not) degrade to a
        // cold start rather than failing the point.
        assert!(matches!(
            runner.run_point(&spec, 1, 0, Some(b"garbage")),
            PointOutcome::Ok { .. }
        ));
    }

    #[test]
    fn ensemble_points_get_unique_seeds_and_one_replica() {
        let runner = CampaignRunner { workers: 1 };
        let spec = JobSubmitRequest::from_value(
            &parse(
                r#"{"kind": "ensemble", "points": 2,
                    "base": {"network": {"nodes": 200, "k_max": 20, "mean_degree": 4},
                             "tf": 3, "runs": 8}}"#,
            )
            .unwrap(),
        )
        .unwrap()
        .to_spec();
        let run = |index| match runner.run_point(&spec, index, 0, None) {
            PointOutcome::Ok { payload, .. } => {
                parse(&String::from_utf8(payload).unwrap()).unwrap()
            }
            _ => panic!("point {index} failed"),
        };
        let a = run(0);
        let b = run(1);
        assert_ne!(a.get("seed"), b.get("seed"));
        // The per-point replica count is forced to 1 regardless of base.
        assert_eq!(
            a.get("result").unwrap().get("runs").unwrap().as_f64(),
            Some(1.0)
        );
    }
}
