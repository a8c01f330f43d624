//! The traced run: replays requests through each layer's public
//! functions with spans around every call, diffs the `rumor_obs`
//! rollups around the timed phase, and times the engine layers on their
//! own.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the time its children cover.

use crate::env::WORK_DIR;
use crate::reference;
use crate::stats::{median, percentile};
use rumor_core::control::ConstantControl;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_datasets::digg::{DiggConfig, DiggDataset};
use rumor_ode::system::OdeSystem;
use rumor_par::InnerPool;
use rumor_serve::api::{canonical_key, EnsembleRequest, OptimizeRequest};
use rumor_serve::cache::LruCache;
use rumor_serve::handlers;
use rumor_serve::http::{self, Parsed, RequestParser};
use rumor_serve::wire::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
struct SpanRec {
    name: &'static str,
    /// Replayed request this span belongs to.
    request: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span store.
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start: self.t0.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed();
        out
    }

    /// Duration of the most recent span called `name`, in µs.
    fn last_us(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
    }

    /// Every duration of spans called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Self time per span name, in ms.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).as_nanos().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON line under the work directory.
    pub fn write(&self, file: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new(WORK_DIR).join("spans");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"id":{i},"parent":{parent},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.request,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// The stages of one replayed request.
pub struct Replayed {
    /// Response body the layers produced.
    pub body: Vec<u8>,
    /// Sum of the replayed stage times, in ms.
    pub stages_ms: f64,
}

fn handler_span(path: &str) -> &'static str {
    match path {
        "/v1/threshold" => "handlers.threshold",
        "/v1/optimize" => "handlers.optimize",
        "/v1/simulate" => "handlers.simulate",
        _ => "handlers.ensemble",
    }
}

/// Replays one request's bytes through the server's layers: parse,
/// JSON, validation, the benchmark's own cache, the handler, serialize
/// and framing. Non-compute requests stop after parsing and framing.
pub fn replay(
    tr: &mut Tracer,
    request: usize,
    bytes: &[u8],
    max_body: usize,
    cache: &mut LruCache,
    workers: usize,
) -> Result<Replayed, String> {
    tr.request = request;
    tr.span("replay.request", |tr| {
        let parsed = tr.span("http.parse", |_| RequestParser::new(max_body).feed(bytes));
        let Parsed::Ready(req) = parsed else {
            return Err("request bytes do not parse".to_string());
        };
        let target = req.target.clone();
        let compute = matches!(
            target.as_str(),
            "/v1/simulate" | "/v1/threshold" | "/v1/optimize" | "/v1/ensemble"
        );
        let (body, hit) = if compute && req.method == "POST" {
            let text = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
            let value = tr
                .span("wire.parse", |_| wire::parse(text))
                .map_err(|e| e.to_string())?;
            let (canonical, key) = tr.span("api.validate", |_| {
                let canonical = reference::canonical(&target, &value)?;
                let key = canonical_key(&target, &canonical);
                Ok::<_, String>((canonical, key))
            })?;
            match tr.span("cache.get", |_| cache.get(&key)) {
                Some(body) => (body.to_vec(), true),
                None => {
                    let computed = tr.span(handler_span(&target), |_| {
                        reference::run_handler(&target, &canonical, workers)
                    })?;
                    let body = tr.span("wire.serialize", |_| {
                        wire::serialize(&computed).into_bytes()
                    });
                    cache.insert(key, Arc::from(body.clone().into_boxed_slice()));
                    (body, false)
                }
            }
        } else if target == "/healthz" {
            let body = tr.span("wire.serialize", |_| {
                wire::serialize(&Value::obj([("status", Value::Str("ok".into()))])).into_bytes()
            });
            (body, false)
        } else {
            (Vec::new(), false)
        };
        let extra: &[(&str, &str)] = if hit {
            &[("X-Cache", "hit"), ("X-Trace-Id", "0")]
        } else {
            &[("X-Cache", "miss"), ("X-Trace-Id", "0")]
        };
        tr.span("http.frame", |_| {
            http::response_bytes(200, "OK", "application/json", extra, &body, false)
        });
        Ok(Replayed {
            body,
            stages_ms: 0.0,
        })
    })
    .map(|mut r| {
        // The root span has closed: its length covers every stage.
        r.stages_ms = tr.last_us("replay.request").unwrap_or(0.0) / 1e3;
        r
    })
}

/// Rollup counters and span totals accumulated between two snapshots.
pub struct RollupDiff {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, (u64, u64)>,
}

impl RollupDiff {
    pub fn between(a: &rumor_obs::RollupSnapshot, b: &rumor_obs::RollupSnapshot) -> RollupDiff {
        let counters = b
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - a.counter(k).unwrap_or(0)))
            .collect();
        let spans = b
            .spans
            .iter()
            .map(|(k, s)| {
                let before = a.span_stat(k).unwrap_or_default();
                (
                    k.clone(),
                    (s.count - before.count, s.total_ns - before.total_ns),
                )
            })
            .collect();
        RollupDiff { counters, spans }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn span_count(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0 as f64)
    }

    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1 as f64 / 1e6)
    }
}

fn params_for(config: DiggConfig, lambda0: f64) -> ModelParams {
    let ds = DiggDataset::synthesize(config).expect("probe network synthesizes");
    ModelParams::builder(ds.classes().clone())
        .alpha(0.01)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("probe parameters are valid")
}

fn net10k() -> DiggConfig {
    DiggConfig {
        nodes: 10_000,
        k_min: 1,
        k_max: 300,
        target_mean_degree: 24.0,
        seed: 101,
    }
}

/// Median evaluations per second over five short windows.
fn rate(mut op: impl FnMut()) -> f64 {
    for _ in 0..20 {
        op();
    }
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut n = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            for _ in 0..10 {
                op();
            }
            n += 10;
        }
        rates.push(n as f64 / t0.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// The pool a single production solve on `n` classes would build.
fn production_pool(inner: usize, n: usize) -> Option<Arc<InnerPool>> {
    (inner > 1 && rumor_core::kernels::partition_count(n) > 1)
        .then(|| Arc::new(InnerPool::new(inner)))
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Engine layers timed on their own, at the resolved thread counts.
pub fn probes(inner: usize, workers: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let synth: Vec<f64> = (0..3)
        .map(|_| time_ms(|| DiggDataset::synthesize(DiggConfig::default())).1)
        .collect();
    out.push(("datasets.synthesize_ms", median(&synth)));

    let p71 = params_for(DiggConfig::default(), 0.02);
    let (verdict, ms) = time_ms(|| rumor_core::stability::theorem2_consistency(&p71, 0.2, 0.05));
    verdict.expect("Theorem-2 check runs on the paper network");
    out.push(("numerics.stability_ms", ms));

    let p10 = params_for(net10k(), 0.02);
    let mut speedups = Vec::new();
    let nets = [
        ("core.rhs_evals_per_s.net10k", &p10),
        ("core.rhs_evals_per_s.net71k", &p71),
    ];
    for (name, params) in nets {
        let n = params.n_classes();
        let y: Vec<f64> = (0..3 * n).map(|i| [0.9, 0.1, 0.0][i / n]).collect();
        let mut dydt = vec![0.0; y.len()];
        let serial = RumorModel::new(params, ConstantControl::new(0.2, 0.05));
        let pooled = RumorModel::new(params, ConstantControl::new(0.2, 0.05))
            .with_pool(production_pool(inner, n));
        let r1 = rate(|| serial.rhs(0.0, std::hint::black_box(&y), &mut dydt));
        let rp = rate(|| pooled.rhs(0.0, std::hint::black_box(&y), &mut dydt));
        out.push((name, rp));
        speedups.push(rp / r1);
    }
    // Computed, not measured: Θ reads the weights and I (2n doubles);
    // the element map reads S, I, λ and writes three derivatives (6n).
    out.push((
        "core.rhs_bytes_per_eval.net71k",
        (8 * 8 * p71.n_classes()) as f64,
    ));

    {
        use rumor_compartments::model::{CompartmentModel, CompartmentOde};
        use rumor_compartments::schedule::ConstantMultiControl;
        use rumor_models::two_rumor::TwoRumorModel;
        let model = TwoRumorModel::from_params(&p10, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0)
            .expect("two-rumor model builds");
        let n = model.n_classes();
        let ode = CompartmentOde::new(&model, ConstantMultiControl::new(vec![0.2, 0.05]))
            .with_pool(production_pool(inner, n));
        let mut y = vec![0.0; model.state_dim()];
        for j in 0..n {
            y[j] = 0.88;
            y[n + j] = 0.1;
            y[2 * n + j] = 0.02;
        }
        let mut dydt = vec![0.0; y.len()];
        let r = rate(|| ode.rhs(0.0, std::hint::black_box(&y), &mut dydt));
        out.push(("compartments.rhs_evals_per_s.two_rumor_net10k", r));
    }
    out.push(("par.inner_speedup.net10k", speedups[0]));
    out.push(("par.inner_speedup.net71k", speedups[1]));

    let ens = EnsembleRequest::from_value(
        &wire::parse(r#"{"network":{"nodes":2000,"k_max":100,"mean_degree":8,"seed":7}}"#)
            .expect("valid"),
    )
    .expect("valid ensemble");
    let time_at = |threads: usize| {
        let runs: Vec<f64> = (0..3)
            .map(|_| time_ms(|| handlers::ensemble(&ens, threads).expect("ensemble runs")).1)
            .collect();
        median(&runs)
    };
    let t1 = time_at(1);
    out.push(("par.ensemble_speedup", t1 / time_at(workers.max(1))));

    // Tracing overhead on an instrumented engine path: the same small
    // solve with rollups off and on.
    let opt = OptimizeRequest::from_value(
        &wire::parse(r#"{"network":{"nodes":300,"k_max":50,"mean_degree":8,"seed":7},"tf":50,"eps_max":0.08}"#)
            .expect("valid"),
    )
    .expect("valid optimize");
    let was_on = rumor_obs::rollup_enabled();
    let timed = |on: bool| {
        rumor_obs::set_rollup(on);
        let runs: Vec<f64> = (0..7)
            .map(|_| time_ms(|| handlers::optimize(&opt).expect("optimize runs")).1)
            .collect();
        median(&runs)
    };
    let off = timed(false);
    let on = timed(true);
    rumor_obs::set_rollup(was_on);
    out.push(("obs.overhead", on / off));
    out
}

/// Median of a sample in its own unit, or 0 when empty.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Percentile of an unsorted sample, or 0 when empty.
pub fn percentile_or_zero(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Everything a traced run gathers, reduced to the layer map by
/// [`Traced::figures`].
pub struct Traced {
    pub tracer: Tracer,
    /// Client records of the timed phase.
    pub sent: Vec<crate::gen::Sent>,
    /// Connections the client opened during the timed phase.
    pub opened: u64,
    /// `(client latency, replayed stage time)` per replayed request, ms.
    pub waits: Vec<(f64, f64)>,
    pub counters: crate::env::Counters,
    pub rollups: RollupDiff,
    pub probes: Vec<(&'static str, f64)>,
    /// Job-layer figures of a campaign run.
    pub jobs: Vec<(String, f64)>,
    /// Lateness of the open-loop requests, ms.
    pub late_ms: Vec<f64>,
}

impl Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order; 0 where this
    /// workload does not exercise the layer.
    pub fn figures(&self) -> Vec<(crate::layers::LayerMetric, f64)> {
        let sent = &self.sent;
        let n = sent.len().max(1) as f64;
        let connects: Vec<f64> = sent
            .iter()
            .filter_map(|s| s.connect.map(|c| c.as_secs_f64() * 1e3))
            .collect();
        let ttfb: Vec<f64> = sent.iter().map(|s| s.ttfb.as_secs_f64() * 1e3).collect();
        let waits: Vec<f64> = self.waits.iter().map(|(l, s)| (l - s).max(0.0)).collect();
        let us = |name: &str| median_or_zero(&self.tracer.durations_us(name));
        let handler_ms = |name: &str| {
            let d = self.tracer.durations_us(name);
            if d.is_empty() {
                0.0
            } else {
                d.iter().sum::<f64>() / d.len() as f64 / 1e3
            }
        };
        let c = &self.counters;
        let r = &self.rollups;
        let lookups = (c.hits + c.misses) as f64;
        let steps = r.counter("ode.steps_accepted");
        let tried = steps + r.counter("ode.steps_rejected");
        let replica_s = r.span_ms("sim.replica") / 1e3;
        let mut out: Vec<(&str, f64)> = vec![
            ("http.connections_per_req", self.opened as f64 / n),
            ("http.connect_ms_p50", median_or_zero(&connects)),
            ("http.ttfb_ms_p50", median_or_zero(&ttfb)),
            ("http.parse_us", us("http.parse")),
            ("http.frame_us", us("http.frame")),
            ("server.wait_ms_p50", percentile_or_zero(&waits, 0.5)),
            ("server.wait_ms_p90", percentile_or_zero(&waits, 0.9)),
            ("server.shed", c.shed as f64),
            ("server.timeouts", c.timeouts as f64),
            ("wire.parse_us", us("wire.parse")),
            ("wire.serialize_us", us("wire.serialize")),
            (
                "wire.bytes_in_per_req",
                sent.iter().map(|s| s.bytes_out as f64).sum::<f64>() / n,
            ),
            (
                "wire.bytes_out_per_req",
                sent.iter().map(|s| s.bytes_in as f64).sum::<f64>() / n,
            ),
            ("api.validate_us", us("api.validate")),
            (
                "cache.hit_ratio",
                if lookups > 0.0 {
                    c.hits as f64 / lookups
                } else {
                    0.0
                },
            ),
            ("cache.get_us", us("cache.get")),
            ("cache.evictions", c.evictions as f64),
            ("handlers.threshold_ms", handler_ms("handlers.threshold")),
            ("handlers.optimize_ms", handler_ms("handlers.optimize")),
            ("handlers.simulate_ms", handler_ms("handlers.simulate")),
            ("handlers.ensemble_ms", handler_ms("handlers.ensemble")),
            (
                "control.fbsm_iterations",
                r.counter("control.fbsm_iterations"),
            ),
            (
                "control.multi_fbsm_iterations",
                r.counter("control.multi_fbsm_iterations"),
            ),
            (
                "control.watchdog_restarts",
                r.counter("control.watchdog_restarts"),
            ),
            (
                "control.sweep_ms",
                r.span_ms("control.fbsm_sweep") + r.span_ms("control.multi_fbsm_sweep"),
            ),
            ("ode.steps_accepted", steps),
            (
                "ode.accept_ratio",
                if tried > 0.0 { steps / tried } else { 0.0 },
            ),
            ("ode.adaptive_ms", r.span_ms("ode.adaptive")),
            (
                "sim.replicas_per_s",
                if replica_s > 0.0 {
                    r.span_count("sim.replica") / replica_s
                } else {
                    0.0
                },
            ),
            ("jobs.checkpoints", r.counter("jobs.checkpoints")),
            ("jobs.transitions", r.counter("jobs.transitions")),
            ("jobs.stream_chunks", c.stream_chunks as f64),
            ("gen.late_ms_p99", percentile_or_zero(&self.late_ms, 0.99)),
        ];
        out.extend(self.probes.iter().copied());
        // Job figures gathered apart from the timed phase (a campaign
        // run for the analyst's traced run) take the place of this
        // phase's own.
        out.retain(|(k, _)| !self.jobs.iter().any(|(j, _)| j == k));
        out.extend(self.jobs.iter().map(|(k, v)| (k.as_str(), *v)));
        crate::layers::layer_metrics()
            .into_iter()
            .map(|m| {
                let v = out
                    .iter()
                    .find(|(k, _)| *k == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m, v)
            })
            .collect()
    }
}

/// Reduces a traced run to the layer map, prints it with self times,
/// and writes the spans.
pub fn finish(out: &mut crate::report::Outcome, traced: &Traced, workload: &str, seed: u64) {
    for (name, ms) in traced.tracer.self_times_ms() {
        out.line(format!("self_time {workload} {name} {ms:.3} ms"));
    }
    match traced.tracer.write(&format!("{workload}-seed{seed}.jsonl")) {
        Ok(path) => out.line(format!("spans written to {}", path.display())),
        Err(e) => out.line(format!("spans not written: {e}")),
    }
    out.layers = traced.figures();
    let lines: Vec<String> = out
        .layers
        .iter()
        .map(|(m, value)| {
            format!(
                "layer {workload} {} {value:.6} {} ({} is better) [{}] should move: {}; expect no change on: {}",
                m.name, m.unit, m.better, m.layer, m.moves, m.steady_on
            )
        })
        .collect();
    out.lines.extend(lines);
}
