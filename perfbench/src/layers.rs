//! The layer map: for every per-layer metric of `BENCHMARK.json`, the
//! layer it measures, the end-to-end metric and workload it should
//! move, and where no change is expected.

use rumor_serve::wire::{self, Value};

/// One per-layer metric: name, unit and direction as `BENCHMARK.json`
/// lists them, and its place in the layer map.
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    pub layer: &'static str,
    /// End-to-end metrics and workloads this metric should move.
    pub moves: &'static str,
    /// Where a change of this layer should leave end-to-end figures
    /// alone.
    pub steady_on: &'static str,
}

// `makespan_s` is a gated end-to-end metric; the latency names are
// printed by the untraced run (see `README.md`).
const HTTP_MOVES: &str =
    "makespan_s, p50_ms.r250, p50_ms.r1000, sustained_rps on dashboard; poll_p50_ms on campaign";
const SERVER_MOVES: &str =
    "makespan_s, p90_ms.r1000, sustained_rps on dashboard; poll_p90_ms on campaign";
const WIRE_MOVES: &str = "makespan_s, p50_ms.r250, p50_ms.r1000, sustained_rps on dashboard";
const API_MOVES: &str = "makespan_s, p50_ms.r250, p50_ms.r1000 on dashboard";
const CACHE_MOVES: &str = "makespan_s, p50_ms.r250, p90_ms.r250, p90_ms.r1000 on dashboard";
const ENGINE_MOVES: &str = "makespan_s on analyst";
const ENGINE_BOTH: &str = "makespan_s on analyst and campaign";
const SOLVER_MOVES: &str = "makespan_s, converged_share on analyst and campaign";
// The campaign is run on request and not gated; the analyst's traced
// run measures the jobs layer.
const JOBS_MOVES: &str = "makespan_s, poll_p50_ms on campaign (not gated)";

/// `(metric, layer, should move, expect no change on)`.
#[rustfmt::skip]
const MAP: &[(&str, &str, &str, &str)] = &[
    ("http.connections_per_req", "serve::http", HTTP_MOVES, "analyst"),
    ("http.connect_ms_p50", "serve::http", HTTP_MOVES, "analyst"),
    ("http.ttfb_ms_p50", "serve::http", HTTP_MOVES, "analyst"),
    ("http.parse_us", "serve::http", HTTP_MOVES, "analyst"),
    ("http.frame_us", "serve::http", HTTP_MOVES, "analyst"),
    ("server.wait_ms_p50", "serve::server", SERVER_MOVES, "analyst"),
    ("server.wait_ms_p90", "serve::server", SERVER_MOVES, "analyst"),
    ("server.shed", "serve::server", SERVER_MOVES, "analyst"),
    ("server.timeouts", "serve::server", SERVER_MOVES, "analyst"),
    ("wire.parse_us", "serve::wire", WIRE_MOVES, "analyst"),
    ("wire.serialize_us", "serve::wire", WIRE_MOVES, "analyst"),
    ("wire.bytes_in_per_req", "serve::wire", WIRE_MOVES, "analyst"),
    ("wire.bytes_out_per_req", "serve::wire", WIRE_MOVES, "analyst"),
    ("api.validate_us", "serve::api", API_MOVES, "analyst"),
    ("cache.hit_ratio", "serve::cache", CACHE_MOVES, "analyst"),
    ("cache.get_us", "serve::cache", CACHE_MOVES, "analyst"),
    ("cache.evictions", "serve::cache", CACHE_MOVES, "analyst"),
    ("handlers.threshold_ms", "serve::handlers", ENGINE_MOVES, "dashboard"),
    ("handlers.optimize_ms", "serve::handlers", ENGINE_MOVES, "dashboard"),
    ("handlers.simulate_ms", "serve::handlers", ENGINE_MOVES, "dashboard"),
    ("handlers.ensemble_ms", "serve::handlers", ENGINE_MOVES, "dashboard"),
    ("datasets.synthesize_ms", "datasets", ENGINE_MOVES, "dashboard"),
    ("numerics.stability_ms", "numerics", ENGINE_BOTH, "dashboard"),
    ("control.fbsm_iterations", "control", SOLVER_MOVES, "dashboard"),
    ("control.multi_fbsm_iterations", "control", SOLVER_MOVES, "dashboard"),
    ("control.watchdog_restarts", "control", SOLVER_MOVES, "dashboard"),
    ("control.sweep_ms", "control", SOLVER_MOVES, "dashboard"),
    ("ode.steps_accepted", "ode", ENGINE_MOVES, "dashboard"),
    ("ode.accept_ratio", "ode", ENGINE_MOVES, "dashboard"),
    ("ode.adaptive_ms", "ode", ENGINE_MOVES, "dashboard"),
    ("core.rhs_evals_per_s.net10k", "core", ENGINE_MOVES, "dashboard"),
    ("core.rhs_evals_per_s.net71k", "core", ENGINE_MOVES, "dashboard"),
    ("core.rhs_bytes_per_eval.net71k", "core", ENGINE_MOVES, "dashboard"),
    ("compartments.rhs_evals_per_s.two_rumor_net10k", "compartments", ENGINE_MOVES, "dashboard"),
    ("par.inner_speedup.net10k", "par", ENGINE_MOVES, "dashboard; analyst's 300-node requests"),
    ("par.inner_speedup.net71k", "par", ENGINE_MOVES, "dashboard; analyst's 300-node requests"),
    ("par.ensemble_speedup", "par", ENGINE_MOVES, "dashboard"),
    ("sim.replicas_per_s", "sim", ENGINE_BOTH, "dashboard"),
    ("jobs.points_per_s.threshold_sweep", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.points_per_s.optimize_sweep", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.points_per_s.ensemble", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.submit_ms", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.disk_bytes_per_point", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.checkpoints", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.transitions", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("jobs.stream_chunks", "jobs", JOBS_MOVES, "analyst, dashboard"),
    ("obs.overhead", "obs", "validity of the traced run only", "all"),
    ("gen.late_ms_p99", "generator", "validity of the open-loop figures only", "all"),
];

/// The per-layer metrics of `BENCHMARK.json`, in its order, each with
/// its place in the layer map.
pub fn layer_metrics() -> Vec<LayerMetric> {
    let root = wire::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let listed = root
        .get("per_layer")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists per-layer metrics");
    listed
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let name = field("name");
            let &(_, layer, moves, steady_on) = MAP
                .iter()
                .find(|(n, ..)| *n == name)
                .unwrap_or_else(|| panic!("{name} has no place in the layer map"));
            LayerMetric {
                unit: field("unit"),
                better: field("better"),
                name,
                layer,
                moves,
                steady_on,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_and_the_layer_map_list_the_same_metrics() {
        let metrics = layer_metrics();
        assert_eq!(
            metrics.len(),
            MAP.len(),
            "the map places an unlisted metric"
        );
        let names: std::collections::BTreeSet<&str> =
            metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), metrics.len(), "metric names repeat");
    }
}
