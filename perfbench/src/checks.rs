//! Output checks: a wrong answer counts as a failed request.

use crate::reference::{canonical_of, figures, key_hash, References};
use rumor_serve::wire::{self, Value};

/// Slack for fractions computed in floating point.
const EPS: f64 = 1e-9;

fn finite(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("missing field {}", path.join(".")))?;
    }
    cur.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("field {} is not a finite number", path.join(".")))
}

fn series<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing array {key}"))?;
    if arr.is_empty() {
        return Err(format!("empty array {key}"));
    }
    Ok(arr)
}

/// Every element finite and within `[lo, hi]`.
fn bounded(arr: &[Value], key: &str, lo: f64, hi: f64) -> Result<(), String> {
    for x in arr {
        match x.as_f64() {
            Some(x) if x.is_finite() && x >= lo - EPS && x <= hi + EPS => {}
            _ => return Err(format!("{key} holds {x:?}, outside [{lo}, {hi}]")),
        }
    }
    Ok(())
}

fn flag(v: &Value, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("missing flag {key}"))
}

/// Parses a response body as JSON.
pub fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    wire::parse(text).map_err(|e| format!("body does not parse: {e}"))
}

/// Shape and range checks of one compute answer. `request` is the
/// parsed request body (for limits such as `eps_max`).
pub fn shape(path: &str, request: &Value, v: &Value) -> Result<(), String> {
    match path {
        "/v1/threshold" => {
            let r0 = finite(v, &["r0"])?;
            if r0 <= 0.0 {
                return Err(format!("r0 = {r0} is not positive"));
            }
            finite(v, &["critical_scale"])?;
            finite(v, &["e0", "s"])?;
            finite(v, &["e0", "r"])?;
            for k in ["d_alpha", "d_eps1", "d_eps2"] {
                finite(v, &["sensitivity", k])?;
            }
            if !flag(v, "consistent_with_r0")? {
                return Err("Theorem-2 verdict disagrees with r0".into());
            }
            if flag(v, "predicted_extinction")? != (r0 <= 1.0) {
                return Err("predicted_extinction disagrees with r0".into());
            }
        }
        "/v1/simulate" => {
            let times = series(v, "times")?;
            bounded(times, "times", 0.0, f64::MAX)?;
            let mut means = 0;
            for (key, item) in v.as_obj().unwrap_or_default() {
                if let Some(arr) = key.strip_prefix("mean_").and(item.as_arr()) {
                    if arr.len() != times.len() {
                        return Err(format!(
                            "{key} has {} samples, times {}",
                            arr.len(),
                            times.len()
                        ));
                    }
                    bounded(arr, key, 0.0, 1.0)?;
                    means += 1;
                }
            }
            if means < 3 {
                return Err(format!("only {means} mean series"));
            }
            if finite(v, &["terminal_infected"])? < -EPS {
                return Err("negative terminal infection".into());
            }
            if v.get("r0").is_some() && finite(v, &["r0"])? <= 0.0 {
                return Err("r0 is not positive".into());
            }
        }
        "/v1/optimize" => {
            flag(v, "converged")?;
            if finite(v, &["iterations"])? < 1.0 {
                return Err("no iterations".into());
            }
            if finite(v, &["cost", "total"])? < 0.0 {
                return Err("negative cost".into());
            }
            if finite(v, &["terminal_infected"])? < -EPS {
                return Err("negative terminal infection".into());
            }
            let eps_max = request
                .get("eps_max")
                .and_then(Value::as_f64)
                .unwrap_or(0.7);
            let schedule = v
                .get("schedule")
                .and_then(Value::as_obj)
                .ok_or("missing schedule")?;
            let mut channels = 0;
            for (key, item) in schedule {
                let arr = item
                    .as_arr()
                    .ok_or_else(|| format!("schedule.{key} is not an array"))?;
                if key == "t" {
                    bounded(arr, "schedule.t", 0.0, f64::MAX)?;
                } else {
                    bounded(arr, &format!("schedule.{key}"), 0.0, eps_max)?;
                    channels += 1;
                }
            }
            if channels < 2 {
                return Err(format!("schedule has {channels} control channels"));
            }
        }
        "/v1/ensemble" => {
            if finite(v, &["runs"])? < 1.0 || finite(v, &["excluded"])? != 0.0 {
                return Err("replicas were excluded from the ensemble".into());
            }
            if flag(v, "degraded")? {
                return Err("ensemble is degraded".into());
            }
            let times = series(v, "times")?;
            let mean = series(v, "i_mean")?;
            bounded(mean, "i_mean", 0.0, 1.0)?;
            bounded(series(v, "i_std")?, "i_std", 0.0, 1.0)?;
            if mean.len() != times.len() {
                return Err("i_mean and times differ in length".into());
            }
            if finite(v, &["max_deviation_vs_ode"])? < 0.0 {
                return Err("negative deviation".into());
            }
        }
        other => return Err(format!("no checks for {other}")),
    }
    Ok(())
}

/// The `/healthz` answer must be exactly the liveness document.
pub fn healthz(body: &[u8]) -> Result<(), String> {
    if body == br#"{"status":"ok"}"# {
        Ok(())
    } else {
        Err(format!(
            "/healthz answered {:?}",
            String::from_utf8_lossy(body)
        ))
    }
}

/// Full check of a compute answer: it parses, has the right shape, and
/// matches the recorded reference. `need_ref` makes a missing reference
/// a failure (every seeded analyst and working-set request has one).
pub fn answer(
    refs: &References,
    path: &str,
    request_body: &str,
    body: &[u8],
    need_ref: bool,
) -> Result<(), String> {
    let v = parse(body)?;
    let request = wire::parse(request_body).map_err(|e| format!("request: {e}"))?;
    shape(path, &request, &v).map_err(|e| format!("{path}: {e}"))?;
    let key = key_hash(&canonical_of(path, request_body)?);
    match refs.check(&key, &figures(path, &v)) {
        Ok(true) => Ok(()),
        Ok(false) if need_ref => Err(format!("{path}: no reference recorded for {key}")),
        Ok(false) => Ok(()),
        Err(e) => Err(format!("{path} {key}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, req: &str, body: &str) -> Result<(), String> {
        shape(
            path,
            &wire::parse(req).unwrap(),
            &wire::parse(body).unwrap(),
        )
    }

    #[test]
    fn schedule_outside_its_bound_fails() {
        let ok = r#"{"converged":true,"iterations":3,"cost":{"total":1.5},"terminal_infected":0.1,
                    "schedule":{"t":[0,1],"eps1":[0.08,0.05],"eps2":[0,0.075]}}"#;
        assert!(check("/v1/optimize", r#"{"eps_max":0.08}"#, ok).is_ok());
        assert!(check("/v1/optimize", r#"{"eps_max":0.07}"#, ok).is_err());
        let nan = ok.replace("1.5", "null");
        assert!(check("/v1/optimize", "{}", &nan).is_err());
    }

    #[test]
    fn threshold_verdicts_must_agree_with_r0() {
        let body = |r0: f64, ext: bool| {
            format!(
                r#"{{"r0":{r0},"predicted_extinction":{ext},"consistent_with_r0":true,
                    "e0":{{"s":1,"r":0}},"sensitivity":{{"d_alpha":1,"d_eps1":1,"d_eps2":1}},
                    "critical_scale":2}}"#
            )
        };
        assert!(check("/v1/threshold", "{}", &body(0.5, true)).is_ok());
        assert!(check("/v1/threshold", "{}", &body(1.5, true)).is_err());
    }

    #[test]
    fn simulate_fractions_stay_in_unit_interval() {
        let body = |x: f64| {
            format!(
                r#"{{"times":[0,1],"mean_s":[0.9,{x}],"mean_i":[0.1,0.1],"mean_r":[0,0.1],
                    "terminal_infected":1.0}}"#
            )
        };
        assert!(check("/v1/simulate", "{}", &body(0.8)).is_ok());
        assert!(check("/v1/simulate", "{}", &body(1.2)).is_err());
    }
}
