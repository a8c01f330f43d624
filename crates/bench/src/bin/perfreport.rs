//! `perfreport` — headline performance numbers for the allocation-free
//! hot path, the parallel ensemble layer, and the HTTP service, written
//! as machine-readable JSON to `BENCH_PR9.json` at the workspace root.
//! Runs with `rumor-obs` rollups enabled, so the report also carries a
//! `span_rollup` section: per-span-name call counts and total wall time
//! plus the instrumentation counters (steps, sweeps, replicas) observed
//! while the workloads ran.
//!
//! Doubles as the CI perf-regression gate:
//!
//! ```sh
//! perfreport [--out FILE] [--check BASELINE.json] [--tolerance F] [--heavy]
//! ```
//!
//! With `--check`, the headline metrics from the fresh run are compared
//! against the committed baseline; every watched metric is printed as a
//! baseline/current/limit diff row and the process exits 1 if *any*
//! throughput falls below `tolerance × baseline` (or a wall time
//! exceeds `baseline / tolerance`) — the full table is always emitted,
//! not just the first offender. Metrics missing from either report
//! (e.g. the `--heavy`-only sections in a per-PR run) are reported and
//! skipped so one baseline serves both tiers. The default tolerance
//! 0.25 is deliberately generous: CI runners differ wildly from the
//! machines baselines are recorded on, so the gate only catches
//! order-of-magnitude regressions (a dropped `--release`, an
//! accidentally quadratic loop), not percent-level noise.
//!
//! Twelve canonical workloads (the last behind `--heavy`):
//!
//! 1. **RHS evals/s** — the heterogeneous SIR right-hand side on the
//!    Digg-calibrated class structure (the kernel every integrator step
//!    and every FBSM pass is made of), running the chunked
//!    auto-vectorized kernels of `rumor_core::kernels`.
//! 2. **ABM replicas/s** — a 64-replica synchronous-ABM ensemble on a
//!    Digg-like power-law (Barabási–Albert) graph, serial vs. 2/4/8
//!    worker threads, with a bit-identity check of every parallel run
//!    against the serial baseline.
//! 3. **FBSM sweep wall time** — one forward–backward sweep in the
//!    paper's Fig. 4 optimal-control setting. The timed sweep is
//!    iteration-capped (a fixed-size workload); afterwards warm-started
//!    continuation rounds re-run the sweep seeded with the previous
//!    schedule until it converges, and the report carries the final
//!    residual either way.
//! 4. **Wire throughput** — JSON parse + validation + canonicalization
//!    of a representative `/v1/simulate` body (the per-request CPU cost
//!    the service pays before any caching or compute).
//! 5. **Cache-hit vs. cold latency** — the same `/v1/simulate` request
//!    against a live in-process server over a real socket, cold
//!    (computes) then repeated (served from the LRU byte cache).
//! 6. **Sustained req/s at the admission limit** — concurrent clients
//!    hammering the server; reports the served rate plus how many
//!    requests were shed with `503` by the bounded queue.
//! 7. **Durable campaign throughput** — a 200-point threshold sweep
//!    submitted to `/v1/jobs`, measured end to end through the durable
//!    queue: journaled state transitions, per-point result persistence,
//!    and checkpoints included.
//! 8. **digg_full** — the full 71,367-node / 848-class Digg-equivalent
//!    problem: RHS evals/s at 848 classes plus a warm-start-continued
//!    FBSM sweep whose continuation rounds run with backtracking
//!    under-relaxation until the sweep genuinely converges (final
//!    residual <= 1e-4 is pinned in the committed report). Runs on
//!    every invocation (and so on every PR).
//! 9. **intra_scaling** — the deterministic intra-replica thread table:
//!    the 848-class RHS at 1/2/4/8 inner-pool threads, each row
//!    asserting bitwise identity against the serial kernel, plus one
//!    `t1` row each timing the serial 848-class costate RHS and a
//!    million-agent `abm::run` step. Production solves run serially;
//!    the pooled `rhs_848` rows only measure what the pool would cost.
//!    On a single-core host the parallel rows measure dispatch
//!    overhead, not speedup; the table is keyed `t1`/`t2`/... so the
//!    perf gate can watch the serial row on any host.
//! 10. **ingest_sparse** — streaming two-pass CSR ingest of an edge
//!     list whose node ids all sit at or above the interner's 2^24
//!     direct-map limit, exercising the hash fallback and its geometric
//!     capacity reservation.
//! 11. **two_rumor** — the competing two-rumor compartment model:
//!     4-band RHS evals/s on the small-tier Digg classes (directly
//!     comparable with workload 1) plus one capped multi-control FBSM
//!     sweep on the canonical two-rumor small tier, asserting a final
//!     residual <= 1e-4.
//! 12. **synthetic_1m** (`--heavy`, nightly) — a deterministic
//!     million-node edge list streamed from disk through the two-pass
//!     CSR ingest (`rumor_datasets::streaming`), then a synchronous ABM
//!     replica stepped over all million agents on the flat state arena;
//!     reports ingest MB/s + edges/s and ABM node-steps/s.
//!
//! Numbers are measured on whatever host runs the binary; the report
//! records `available_parallelism` so speedups can be judged against the
//! hardware (on a single-core host the parallel runs measure scheduling
//! overhead, not speedup).
//!
//! ```sh
//! cargo run --release -p rumor-bench --bin perfreport
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use rumor_bench::{digg_dataset, fig4_params, Scale};
use rumor_compartments::model::CompartmentAdjoint;
use rumor_compartments::paper::PaperSir;
use rumor_compartments::schedule::ConstantMultiControl;
use rumor_control::multi::{
    optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions, MultiSweepResult,
};
use rumor_control::{ControlBounds, CostWeights};
use rumor_core::control::ConstantControl;
use rumor_core::functions::{AcceptanceRate, Infectivity};
use rumor_core::model::RumorModel;
use rumor_core::params::ModelParams;
use rumor_core::state::NetworkState;
use rumor_datasets::streaming::StreamingCsrBuilder;
use rumor_net::degree::DegreeClasses;
use rumor_net::generators::barabasi_albert;
use rumor_net::graph::{EdgeKind, Graph};
use rumor_ode::integrator::{Adaptive, AdaptiveConfig};
use rumor_ode::system::OdeSystem;
use rumor_par::InnerPool;
use rumor_serve::api::SimulateRequest;
use rumor_serve::{serve, wire, ServeConfig, Server};
use rumor_sim::abm::{self, AbmConfig};
use rumor_sim::ensemble::{run_ensemble, EnsembleResult, Simulator};
use std::fmt::Write as _;
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ABM_REPLICAS: usize = 64;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Command-line configuration for the report/gate.
struct Config {
    out: PathBuf,
    check: Option<PathBuf>,
    tolerance: f64,
    /// Include the million-node `synthetic_1m` section (nightly tier).
    heavy: bool,
}

fn parse_args() -> Config {
    let mut config = Config {
        out: PathBuf::from("BENCH_PR9.json"),
        check: None,
        tolerance: 0.25,
        heavy: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => config.out = PathBuf::from(value("--out")),
            "--check" => config.check = Some(PathBuf::from(value("--check"))),
            "--heavy" => config.heavy = true,
            "--tolerance" => {
                let raw = value("--tolerance");
                config.tolerance = match raw.parse::<f64>() {
                    Ok(t) if t > 0.0 && t <= 1.0 => t,
                    _ => {
                        eprintln!("error: --tolerance must be in (0, 1], got {raw:?}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "error: unknown option {other:?} (expected --out, --check, --tolerance, --heavy)"
                );
                std::process::exit(2);
            }
        }
    }
    config
}

fn main() {
    let config = parse_args();
    // Relative --out/--check paths land at the workspace root (two up
    // from CARGO_MANIFEST_DIR = crates/bench); `join` keeps an absolute
    // path verbatim.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let resolve = |path: &PathBuf| root.join(path);
    let baseline = config.check.as_ref().map(|path| {
        load_baseline(&resolve(path)).unwrap_or_else(|e| {
            eprintln!("perf gate: {e}");
            std::process::exit(1);
        })
    });
    // Span rollups (not the line sink) are on for the whole report: the
    // near-zero-cost aggregation path the workloads would run with in
    // production, surfaced as a `span_rollup` section at the end.
    rumor_obs::set_rollup(true);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("perfreport: host has {cores} available core(s)");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"pr\": 9,");
    let _ = writeln!(json, "  \"generated_by\": \"perfreport\",");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"available_parallelism\": {cores}, \"os\": \"{}\", \"arch\": \"{}\" }},",
        std::env::consts::OS,
        std::env::consts::ARCH
    );

    // ---- Workload 1: RHS evaluations per second. --------------------
    let params = {
        let ds = digg_dataset(Scale::Small);
        fig4_params(&ds)
    };
    let model = RumorModel::new(&params, ConstantControl::new(0.2, 0.05));
    let y = NetworkState::initial_uniform(params.n_classes(), 0.1)
        .expect("state")
        .to_flat();
    let mut dydt = vec![0.0; y.len()];
    // Warm up, then take the best of several short windows: on shared
    // or virtualized hosts a single long window absorbs steal time, and
    // the max-rate window is the least-contaminated estimate of what
    // the kernel actually sustains.
    for _ in 0..100 {
        model.rhs(0.0, &y, &mut dydt);
    }
    let (evals, rhs_wall, rhs_rate) = best_rate_window(200, || model.rhs(0.0, &y, &mut dydt));
    println!(
        "rhs: {} classes, {evals} evals in {rhs_wall:.3} s = {rhs_rate:.0} evals/s (best of {RATE_WINDOWS} windows)",
        params.n_classes()
    );
    let _ = writeln!(
        json,
        "  \"rhs\": {{ \"n_classes\": {}, \"evals\": {evals}, \"wall_s\": {rhs_wall:.4}, \"evals_per_s\": {rhs_rate:.1} }},",
        params.n_classes()
    );

    // ---- Workload 2: ABM ensemble, serial vs. N threads. ------------
    let mut rng = StdRng::seed_from_u64(7);
    let graph = barabasi_albert(2_000, 3, &mut rng).expect("graph");
    let classes = DegreeClasses::from_graph(&graph).expect("classes");
    let abm_params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.5 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("abm params");
    let cfg = AbmConfig {
        alpha: 0.0,
        dt: 0.1,
        tf: 5.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.05,
        record_every: 10,
    };
    let run = |threads: usize| -> (f64, EnsembleResult) {
        let start = Instant::now();
        let ens = run_ensemble(
            &graph,
            &abm_params,
            &cfg,
            Simulator::Synchronous,
            ABM_REPLICAS,
            42,
            Some(threads),
        )
        .expect("ensemble");
        (start.elapsed().as_secs_f64(), ens)
    };
    // Warm-up run (page-in, allocator steady state), then the baseline.
    let _ = run(1);
    let (serial_wall, serial) = run(1);
    let _ = writeln!(
        json,
        "  \"abm_ensemble\": {{\n    \"graph\": \"barabasi_albert(n=2000, m=3)\",\n    \"replicas\": {ABM_REPLICAS}, \"tf\": {}, \"dt\": {},\n    \"runs\": [",
        cfg.tf, cfg.dt
    );
    for (pos, &threads) in THREAD_COUNTS.iter().enumerate() {
        let (wall, ens) = if threads == 1 {
            (serial_wall, serial.clone())
        } else {
            run(threads)
        };
        let identical = ens
            .i_mean
            .iter()
            .zip(&serial.i_mean)
            .all(|(a, b)| a.to_bits() == b.to_bits())
            && ens
                .i_std
                .iter()
                .zip(&serial.i_std)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "parallel run diverged from serial baseline");
        let speedup = serial_wall / wall;
        let rate = ABM_REPLICAS as f64 / wall;
        println!(
            "abm: {threads} thread(s): {wall:.3} s, {rate:.1} replicas/s, speedup {speedup:.2}x, bit-identical: {identical}"
        );
        let comma = if pos + 1 == THREAD_COUNTS.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "      {{ \"threads\": {threads}, \"wall_s\": {wall:.4}, \"replicas_per_s\": {rate:.2}, \"speedup_vs_serial\": {speedup:.3}, \"bit_identical_to_serial\": {identical} }}{comma}"
        );
    }
    let _ = writeln!(json, "    ]\n  }},");

    // ---- Workload 3: one FBSM sweep in the Fig. 4 setting. ----------
    let ds = digg_dataset(Scale::Small);
    let fbsm_params = fig4_params(&ds);
    let bounds = ControlBounds::new(0.7, 0.7).expect("bounds");
    let weights = CostWeights::paper_default();
    let fbsm_model = PaperSir::from_params(&fbsm_params, weights.c1, weights.c2).expect("model");
    let sweep_bounds = MultiControlBounds::from(bounds);
    let initial = NetworkState::initial_uniform(fbsm_params.n_classes(), 0.05).expect("initial");
    // Iteration-capped on purpose: the relative control change plateaus
    // just above tight tolerances in this setting, so the cap — not the
    // tolerance — defines a fixed-size workload whose wall time is
    // comparable across runs. `optimize_compartments_monitored` skips
    // the divergence gate that `optimize_compartments` applies to
    // non-converged sweeps. Convergence
    // is then finished off by warm-started continuation rounds (each
    // restart resets the relaxation, and backtracking under-relaxation
    // carries it past the ~4e-3 plateau), reported
    // (with the final residual) separately from the timed sweep so the
    // gate metric keeps its fixed-size meaning; three continuation
    // rounds settle it, pinned in crates/bench/tests/fbsm_small_tier.rs.
    // Single solves run serially, so the wall time the perf gate watches
    // stays comparable across hosts with different core counts.
    let options = MultiFbsmOptions {
        n_nodes: 81,
        max_iterations: 150,
        tolerance: 1e-4,
        relaxation: 0.3,
        ..Default::default()
    };
    let tf = 40.0;
    let fbsm = fbsm_workload(
        &fbsm_model,
        &initial.to_flat(),
        tf,
        &sweep_bounds,
        &options,
        6,
    );
    assert!(
        fbsm.converged_final && fbsm.final_residual_after <= 1e-4,
        "small-tier FBSM continuation failed to converge: residual {}",
        fbsm.final_residual_after
    );
    println!(
        "fbsm: {} classes, tf = {tf}: {}",
        fbsm_params.n_classes(),
        fbsm.summary()
    );
    let _ = writeln!(
        json,
        "  \"fbsm\": {},",
        fbsm.to_json(fbsm_params.n_classes(), tf, options.n_nodes)
    );

    // ---- Workload 4: wire parse + validate + canonicalize. ----------
    let body = r#"{"network": {"nodes": 2000, "k_max": 60, "mean_degree": 5}, "model": {"alpha": 0.01, "lambda0": 0.02}, "eps1": 0.25, "eps2": 0.1, "tf": 120, "i0": 0.08, "n_out": 201}"#;
    for _ in 0..200 {
        let parsed = wire::parse(body).expect("wire parse");
        let _ = SimulateRequest::from_value(&parsed)
            .expect("validate")
            .canonical();
    }
    let start = Instant::now();
    let mut wire_ops = 0u64;
    while start.elapsed().as_secs_f64() < 0.3 {
        for _ in 0..500 {
            let parsed = wire::parse(body).expect("wire parse");
            let canonical = SimulateRequest::from_value(&parsed)
                .expect("validate")
                .canonical();
            std::hint::black_box(&canonical);
        }
        wire_ops += 500;
    }
    let wire_wall = start.elapsed().as_secs_f64();
    let wire_rate = wire_ops as f64 / wire_wall;
    println!(
        "wire: {wire_ops} parse+validate ops ({} B bodies) in {wire_wall:.3} s = {wire_rate:.0} ops/s",
        body.len()
    );
    let _ = writeln!(
        json,
        "  \"wire\": {{ \"body_bytes\": {}, \"ops\": {wire_ops}, \"wall_s\": {wire_wall:.4}, \"parse_validate_per_s\": {wire_rate:.1} }},",
        body.len()
    );

    // ---- Workload 5: cold vs. cache-hit /v1/simulate latency. -------
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(2),
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    // The service defaults: the paper-scale Digg-like network. Heavy
    // enough that the cold/hit contrast measures the cache, not socket
    // overhead.
    let sim_body = r#"{"network": {"nodes": 5000, "k_max": 300, "mean_degree": 24}, "tf": 150}"#;
    let cold_start = Instant::now();
    let cold = http_request(&server, "/v1/simulate", sim_body);
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        cold.contains("X-Cache: miss"),
        "first request must be a cache miss"
    );
    // Median of repeated hits: each is a full TCP connect + parse +
    // cache lookup + response, so this is end-to-end hit latency.
    let mut hit_ms: Vec<f64> = (0..25)
        .map(|_| {
            let start = Instant::now();
            let hit = http_request(&server, "/v1/simulate", sim_body);
            assert!(hit.contains("X-Cache: hit"), "repeat must hit the cache");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    hit_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let hit_median_ms = hit_ms[hit_ms.len() / 2];
    println!(
        "serve latency: cold {cold_ms:.2} ms, cache-hit median {hit_median_ms:.3} ms ({:.0}x)",
        cold_ms / hit_median_ms
    );
    let _ = writeln!(
        json,
        "  \"serve_latency\": {{ \"cold_ms\": {cold_ms:.3}, \"cache_hit_median_ms\": {hit_median_ms:.4}, \"hit_speedup\": {:.1} }},",
        cold_ms / hit_median_ms
    );
    server.shutdown_and_join();

    // ---- Workload 6: sustained req/s at the admission limit. --------
    // More always-outstanding clients than `workers + queue_depth` can
    // hold, so the bounded queue must shed the excess with `503` while
    // the served (cache-hit) rate stays high. Counts both outcomes.
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(1),
        queue_depth: 2,
        ..ServeConfig::default()
    })
    .expect("bind admission server");
    let _ = http_request(&server, "/v1/simulate", sim_body); // warm the cache
    let clients = 8;
    let window = Duration::from_millis(600);
    let addr = server.local_addr();
    let (served, shed): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let (mut ok, mut rejected) = (0u64, 0u64);
                    let start = Instant::now();
                    while start.elapsed() < window {
                        match raw_request(addr, "POST", "/v1/simulate", sim_body) {
                            Some(response) if response.starts_with("HTTP/1.1 200") => ok += 1,
                            Some(response) if response.starts_with("HTTP/1.1 503") => {
                                rejected += 1;
                            }
                            _ => {}
                        }
                    }
                    (ok, rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0, 0), |(a, b), (x, y)| (a + x, b + y))
    });
    let served_rate = served as f64 / window.as_secs_f64();
    println!(
        "admission: {clients} clients for {:.1} s: {served} served ({served_rate:.0} req/s), {shed} shed with 503",
        window.as_secs_f64()
    );
    let _ = writeln!(
        json,
        "  \"admission\": {{ \"clients\": {clients}, \"window_s\": {:.2}, \"served\": {served}, \"served_per_s\": {served_rate:.1}, \"shed_503\": {shed} }},",
        window.as_secs_f64()
    );
    server.shutdown_and_join();

    // ---- Workload 7: durable campaign throughput. -------------------
    // A 200-point threshold sweep through the journaled job queue: every
    // point pays the durability tax (journaled transitions, persisted
    // results, periodic checkpoints), so points/s measures the whole
    // durable path, not just the engine.
    let jobs_dir =
        std::env::temp_dir().join(format!("rumor_perfreport_jobs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&jobs_dir);
    std::fs::create_dir_all(&jobs_dir).expect("create jobs dir");
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: Some(2),
        jobs_dir: Some(jobs_dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("bind jobs server");
    let campaign = r#"{"kind": "threshold_sweep", "points": 200, "sweep": {"from": 0.01, "to": 0.05}, "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#;
    let jobs_points = 200u64;
    let start = Instant::now();
    let submitted = http_request(&server, "/v1/jobs", campaign);
    let submit_body = submitted.split("\r\n\r\n").nth(1).unwrap_or("");
    let job_id = wire::parse(submit_body)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(str::to_string)))
        .expect("submit response carries a job id");
    let status_path = format!("/v1/jobs/{job_id}");
    loop {
        let response =
            raw_request(server.local_addr(), "GET", &status_path, "").expect("job status request");
        if response.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            !response.contains("\"failed\"") && !response.contains("\"partial\""),
            "benchmark campaign did not finish clean: {response}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(300),
            "benchmark campaign did not finish within 300 s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let jobs_wall = start.elapsed().as_secs_f64();
    let jobs_rate = jobs_points as f64 / jobs_wall;
    println!(
        "jobs: {jobs_points}-point durable threshold sweep in {jobs_wall:.3} s = {jobs_rate:.1} points/s"
    );
    let _ = writeln!(
        json,
        "  \"jobs\": {{ \"points\": {jobs_points}, \"wall_s\": {jobs_wall:.4}, \"points_per_s\": {jobs_rate:.2} }},"
    );
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&jobs_dir);

    // ---- Workload 8: the full 848-class Digg-equivalent problem. ----
    // RHS throughput and an FBSM sweep at the paper's full scale
    // (71,367 nodes, 848 degree classes). Runs on every invocation so
    // every PR gates the full-scale hot path, not just the small tier.
    let full_ds = digg_dataset(Scale::Full);
    let full_params = fig4_params(&full_ds);
    let model = RumorModel::new(&full_params, ConstantControl::new(0.2, 0.05));
    let y = NetworkState::initial_uniform(full_params.n_classes(), 0.1)
        .expect("state")
        .to_flat();
    let mut dydt = vec![0.0; y.len()];
    for _ in 0..50 {
        model.rhs(0.0, &y, &mut dydt);
    }
    let (full_evals, full_rhs_wall, full_rhs_rate) =
        best_rate_window(100, || model.rhs(0.0, &y, &mut dydt));
    println!(
        "digg_full rhs: {} classes, {full_evals} evals in {full_rhs_wall:.3} s = {full_rhs_rate:.0} evals/s (best of {RATE_WINDOWS} windows)",
        full_params.n_classes()
    );
    let full_initial =
        NetworkState::initial_uniform(full_params.n_classes(), 0.05).expect("initial");
    // Same grid as the small-tier sweep; a lower iteration cap keeps
    // the per-PR wall time bounded, with warm-started continuation
    // finishing convergence (final residual reported either way).
    let full_options = MultiFbsmOptions {
        n_nodes: 81,
        max_iterations: 60,
        tolerance: 1e-4,
        relaxation: 0.3,
        ..Default::default()
    };
    // The capped timed sweep stays the fixed-size gate workload; the
    // continuation rounds run with backtracking under-relaxation (retry
    // an oscillating update at a smaller step inside the same iteration
    // instead of accepting it), which is what carries this problem past
    // the ~4e-3 plateau plain damping stalls at and down to genuine
    // convergence (residual <= 1e-4, pinned in the committed report).
    let full_model = PaperSir::from_params(&full_params, weights.c1, weights.c2).expect("model");
    let full_fbsm = fbsm_workload(
        &full_model,
        &full_initial.to_flat(),
        tf,
        &sweep_bounds,
        &full_options,
        12,
    );
    assert!(
        full_fbsm.converged_final && full_fbsm.final_residual_after <= 1e-4,
        "digg_full continuation must converge to <= 1e-4, got converged {} residual {:.3e}",
        full_fbsm.converged_final,
        full_fbsm.final_residual_after
    );
    println!(
        "digg_full fbsm: {} classes, tf = {tf}: {}",
        full_params.n_classes(),
        full_fbsm.summary()
    );
    let _ = writeln!(
        json,
        "  \"digg_full\": {{\n    \"nodes\": {},\n    \"rhs\": {{ \"n_classes\": {}, \"evals\": {full_evals}, \"wall_s\": {full_rhs_wall:.4}, \"evals_per_s\": {full_rhs_rate:.1} }},\n    \"fbsm\": {}\n  }},",
        full_ds.summary().nodes,
        full_params.n_classes(),
        full_fbsm.to_json(full_params.n_classes(), tf, full_options.n_nodes)
    );

    // ---- Workload 9: deterministic intra-replica thread scaling. ----
    let _ = writeln!(
        json,
        "  \"intra_scaling\": {},",
        intra_scaling_section(&full_params)
    );

    // ---- Workload 10: sparse-id streaming ingest (hash fallback). ---
    let _ = writeln!(json, "  \"ingest_sparse\": {},", ingest_sparse_section());

    // ---- Workload 11: the competing two-rumor compartment model. ----
    let _ = writeln!(json, "  \"two_rumor\": {},", two_rumor_section());

    // ---- Workload 12 (--heavy): million-node ingest + ABM stepping. --
    if config.heavy {
        let _ = writeln!(json, "  \"synthetic_1m\": {},", synthetic_1m_section());
    }

    // ---- Span rollups accumulated across every workload above. ------
    let rollup = rumor_obs::snapshot();
    println!(
        "rollup: {} span name(s), {} counter(s) aggregated",
        rollup.spans.len(),
        rollup.counters.len()
    );
    let _ = writeln!(json, "  \"span_rollup\": {},", rumor_obs::rollup_json());

    let _ = writeln!(
        json,
        "  \"notes\": [\n    \"parallel ensemble output is bit-identical to the serial run at every thread count (asserted above)\",\n    \"speedups are physical: on a host with {cores} available core(s), thread counts beyond {cores} measure scheduling overhead rather than parallel speedup\",\n    \"intra_scaling.rhs_848 rows beyond t{cores} on this host measure pool dispatch overhead, not parallel speedup; bit-identity is asserted for every row regardless\",\n    \"fbsm sweeps run serially, as every production solve does, so their wall times stay host-comparable\",\n    \"serve latencies are end-to-end over a real localhost socket, one connection per request\",\n    \"the admission workload intentionally overloads a queue_depth=8 pool: 503s are the bounded queue working, not a failure\"\n  ]"
    );
    json.push_str("}\n");

    let out = resolve(&config.out);
    if !write_and_gate(&json, &out, baseline.as_ref(), config.tolerance) {
        std::process::exit(1);
    }
}

/// Number of measurement windows per throughput estimate.
const RATE_WINDOWS: usize = 5;

/// Runs `op` in `RATE_WINDOWS` windows of ~0.12 s each and returns
/// `(ops, wall_s, ops_per_s)` of the **fastest** window. On shared or
/// virtualized hosts the max-rate window is the least contaminated by
/// steal time, so it estimates what the kernel sustains rather than
/// what the noisy neighborhood allowed.
fn best_rate_window(batch: u64, mut op: impl FnMut()) -> (u64, f64, f64) {
    let mut best = (0u64, f64::INFINITY, 0.0f64);
    for _ in 0..RATE_WINDOWS {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed().as_secs_f64() < 0.12 {
            for _ in 0..batch {
                op();
            }
            ops += batch;
        }
        let wall = start.elapsed().as_secs_f64();
        let rate = ops as f64 / wall;
        if rate > best.2 {
            best = (ops, wall, rate);
        }
    }
    best
}

/// Outcome of the FBSM workload: the timed, iteration-capped sweep plus
/// warm-started continuation rounds that finish convergence.
struct FbsmBench {
    iterations: usize,
    converged: bool,
    wall_s: f64,
    final_residual: f64,
    continuation_rounds: usize,
    continuation_iterations: usize,
    continuation_wall_s: f64,
    converged_final: bool,
    final_residual_after: f64,
}

impl FbsmBench {
    fn summary(&self) -> String {
        format!(
            "{} iterations (converged: {}) in {:.3} s, residual {:.2e}; \
             after {} warm-start round(s) (+{} iterations, {:.3} s): converged {}, residual {:.2e}",
            self.iterations,
            self.converged,
            self.wall_s,
            self.final_residual,
            self.continuation_rounds,
            self.continuation_iterations,
            self.continuation_wall_s,
            self.converged_final,
            self.final_residual_after
        )
    }

    fn to_json(&self, n_classes: usize, tf: f64, grid_nodes: usize) -> String {
        format!(
            "{{ \"n_classes\": {n_classes}, \"tf\": {tf}, \"grid_nodes\": {grid_nodes}, \
             \"iterations\": {}, \"converged\": {}, \"wall_s\": {:.4}, \"final_residual\": {:.6e}, \
             \"continuation\": {{ \"rounds\": {}, \"iterations\": {}, \"wall_s\": {:.4}, \
             \"converged\": {}, \"final_residual\": {:.6e} }} }}",
            self.iterations,
            self.converged,
            self.wall_s,
            self.final_residual,
            self.continuation_rounds,
            self.continuation_iterations,
            self.continuation_wall_s,
            self.converged_final,
            self.final_residual_after
        )
    }
}

/// Last relative control change of a sweep (infinite when the sweep
/// recorded no iterations).
fn residual(sweep: &MultiSweepResult) -> f64 {
    sweep
        .change_history
        .last()
        .copied()
        .unwrap_or(f64::INFINITY)
}

/// Runs the timed, iteration-capped FBSM sweep, then — if the cap (not
/// the tolerance) stopped it — up to `max_rounds - 1` warm-started
/// continuation rounds, each seeded with the previous schedule via
/// `MultiFbsmOptions::initial_control`. The continuation settles
/// convergence without disturbing the fixed-size timed workload the
/// gate watches; the final residual is reported either way.
fn fbsm_workload(
    model: &PaperSir,
    y0: &[f64],
    tf: f64,
    bounds: &MultiControlBounds,
    options: &MultiFbsmOptions,
    max_rounds: usize,
) -> FbsmBench {
    let start = Instant::now();
    let first = optimize_compartments_monitored(model, y0, tf, bounds, options).expect("sweep");
    let wall_s = start.elapsed().as_secs_f64();

    let mut last = first.clone();
    let mut continuation_rounds = 0usize;
    let mut continuation_iterations = 0usize;
    let cont_start = Instant::now();
    while !last.converged && continuation_rounds + 1 < max_rounds {
        let warm = MultiFbsmOptions {
            initial_control: Some(last.control.clone()),
            ..options.clone()
        };
        last = optimize_compartments_monitored(model, y0, tf, bounds, &warm)
            .expect("continuation sweep");
        continuation_rounds += 1;
        continuation_iterations += last.iterations;
    }
    FbsmBench {
        iterations: first.iterations,
        converged: first.converged,
        wall_s,
        final_residual: residual(&first),
        continuation_rounds,
        continuation_iterations,
        continuation_wall_s: if continuation_rounds > 0 {
            cont_start.elapsed().as_secs_f64()
        } else {
            0.0
        },
        converged_final: last.converged,
        final_residual_after: residual(&last),
    }
}

/// SplitMix64 finalizer shared by the synthetic graph generators below.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds the deterministic million-node graph in process through the
/// two-phase [`StreamingCsrBuilder`] protocol (no file round-trip):
/// replay the same SplitMix64 edge stream into `count`, then `place`.
fn synthetic_graph_in_process(n: usize, out_degree: usize) -> Graph {
    let edges = |sink: &mut dyn FnMut(u64, u64)| {
        for u in 0..n {
            for j in 0..out_degree {
                let v = (splitmix64((u as u64) << 3 | j as u64) % n as u64) as usize;
                if v != u {
                    sink(u as u64, v as u64);
                }
            }
        }
    };
    let mut b = StreamingCsrBuilder::new(EdgeKind::Undirected);
    edges(&mut |u, v| b.count(u, v).expect("count"));
    b.start_placement();
    edges(&mut |u, v| b.place(u, v).expect("place"));
    let (graph, _) = b.finish().expect("finish synthetic CSR");
    graph
}

/// The intra-replica scaling table: the 848-class RHS at inner-pool
/// sizes 1/2/4/8 with bitwise identity against the serial kernel
/// asserted per row, the serial 848-class costate RHS as the single row
/// `costate_848.t1`, and a million-agent `abm::run` step as the single
/// row `abm_1m.t1`. Keyed `t1`/`t2`/`t4`/`t8` so the gate can watch the
/// serial row by dotted path on any host. The `rhs_848` rows are the
/// only perfreport path that builds an [`InnerPool`].
fn intra_scaling_section(full_params: &ModelParams) -> String {
    let n = full_params.n_classes();
    let mut json = String::from("{\n");

    // -- 848-class forward RHS (theta reduction + element map). -------
    let y = NetworkState::initial_uniform(n, 0.1)
        .expect("state")
        .to_flat();
    let serial_model = RumorModel::new(full_params, ConstantControl::new(0.2, 0.05));
    let mut d_serial = vec![0.0; y.len()];
    serial_model.rhs(0.0, &y, &mut d_serial);
    let _ = writeln!(json, "    \"rhs_848\": {{");
    let mut t1_rate = 0.0f64;
    for (pos, &threads) in THREAD_COUNTS.iter().enumerate() {
        let pool = Arc::new(InnerPool::new(threads));
        let model = RumorModel::new(full_params, ConstantControl::new(0.2, 0.05))
            .with_pool(Some(Arc::clone(&pool)));
        let mut dydt = vec![0.0; y.len()];
        model.rhs(0.0, &y, &mut dydt);
        let identical = dydt
            .iter()
            .zip(&d_serial)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "pooled RHS diverged at {threads} thread(s)");
        for _ in 0..50 {
            model.rhs(0.0, &y, &mut dydt);
        }
        let (evals, wall, rate) = best_rate_window(100, || model.rhs(0.0, &y, &mut dydt));
        if threads == 1 {
            t1_rate = rate;
        }
        println!(
            "intra rhs_848: {threads} thread(s): {evals} evals in {wall:.3} s = {rate:.0} evals/s, speedup vs t1 {:.2}x, bit-identical: {identical}",
            rate / t1_rate
        );
        let comma = if pos + 1 == THREAD_COUNTS.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "      \"t{threads}\": {{ \"evals\": {evals}, \"wall_s\": {wall:.4}, \"evals_per_s\": {rate:.1}, \"speedup_vs_t1\": {:.3}, \"bit_identical_to_serial\": {identical} }}{comma}",
            rate / t1_rate
        );
    }
    let _ = writeln!(json, "    }},");

    // -- 848-class costate (adjoint) RHS over a real forward solve. ---
    let control = ConstantMultiControl::new(vec![0.2, 0.05]);
    let forward = Adaptive::with_config(AdaptiveConfig {
        rtol: 1e-6,
        atol: 1e-8,
        ..Default::default()
    })
    .integrate(&serial_model, 0.0, &y, 40.0)
    .expect("forward solve for costate bench");
    let weights = CostWeights::paper_default();
    let port = PaperSir::from_params(full_params, weights.c1, weights.c2).expect("model");
    let costate = CompartmentAdjoint::new(&port, &forward, &control);
    let yc = costate.weighted_terminal_condition(1.0);
    let mut dydt = vec![0.0; yc.len()];
    for _ in 0..50 {
        costate.rhs(20.0, &yc, &mut dydt);
    }
    let (evals, wall, rate) = best_rate_window(100, || costate.rhs(20.0, &yc, &mut dydt));
    println!("intra costate_848: 1 thread: {evals} evals in {wall:.3} s = {rate:.0} evals/s");
    let _ = writeln!(json, "    \"costate_848\": {{");
    let _ = writeln!(
        json,
        "      \"t1\": {{ \"evals\": {evals}, \"wall_s\": {wall:.4}, \"evals_per_s\": {rate:.1} }}"
    );
    let _ = writeln!(json, "    }},");

    // -- Million-agent synchronous ABM stepping (one thread). ---------
    const N_1M: usize = 1_000_000;
    let graph = synthetic_graph_in_process(N_1M, 4);
    let classes = DegreeClasses::from_graph(&graph).expect("1M classes");
    let abm_params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("1M params");
    let abm_cfg = AbmConfig {
        alpha: 0.0,
        dt: 1.0,
        tf: 3.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.02,
        record_every: 3,
    };
    let n_steps = (abm_cfg.tf / abm_cfg.dt).round() as u64;
    let active = graph.degrees().into_iter().filter(|&d| d > 0).count();
    let start = Instant::now();
    abm::run(
        &graph,
        &abm_params,
        &abm_cfg,
        &mut StdRng::seed_from_u64(1_000_003),
    )
    .expect("1M ABM replica");
    let wall = start.elapsed().as_secs_f64();
    let rate = active as f64 * n_steps as f64 / wall;
    println!(
        "intra abm_1m: 1 thread: {active} active nodes x {n_steps} steps in {wall:.3} s = {rate:.0} node-steps/s"
    );
    let _ = writeln!(json, "    \"abm_1m\": {{");
    let _ = writeln!(
        json,
        "      \"t1\": {{ \"active_nodes\": {active}, \"steps\": {n_steps}, \"wall_s\": {wall:.4}, \"node_steps_per_s\": {rate:.1} }}"
    );
    let _ = writeln!(json, "    }}");
    json.push_str("  }");
    json
}

/// Streaming ingest of an edge list whose raw node ids all sit at or
/// above the interner's 2^24 direct-map limit, so every id takes the
/// hash-fallback path (with its geometric capacity reservation).
fn ingest_sparse_section() -> String {
    use std::io::{BufWriter, Write as _};

    const NODES: usize = 120_000;
    const EDGES: usize = 360_000;
    const BASE: u64 = 1 << 24;
    // Deterministic sparse ids spread over a 2^40 band above the limit.
    let id = |i: usize| BASE + splitmix64(0xC0FFEE ^ i as u64) % (1u64 << 40);

    let path = std::env::temp_dir().join(format!("rumor_sparse_ingest_{}.txt", std::process::id()));
    {
        let file = std::fs::File::create(&path).expect("create sparse edge list");
        let mut w = BufWriter::with_capacity(1 << 20, file);
        for e in 0..EDGES {
            let a = (splitmix64(e as u64) % NODES as u64) as usize;
            let b = (splitmix64(!(e as u64)) % NODES as u64) as usize;
            if a == b {
                continue;
            }
            let mut line = String::with_capacity(32);
            let _ = writeln!(line, "{} {}", id(a), id(b));
            w.write_all(line.as_bytes()).expect("write sparse edge");
        }
        w.flush().expect("flush sparse edge list");
    }
    let start = Instant::now();
    let (graph, stats) =
        rumor_datasets::streaming::load_edge_list_path(&path, EdgeKind::Undirected)
            .expect("stream sparse edge list");
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    assert!(
        stats.nodes as usize <= NODES,
        "id compaction must not invent nodes"
    );
    let mbytes = stats.bytes as f64 / 1e6;
    let mbytes_per_s = mbytes / wall;
    let edges_per_s = stats.edges as f64 / wall;
    println!(
        "ingest_sparse: {} nodes (all ids >= 2^24), {} edges, {mbytes:.1} MB in {wall:.3} s = {mbytes_per_s:.1} MB/s ({edges_per_s:.0} edges/s)",
        stats.nodes, stats.edges
    );
    format!(
        "{{ \"nodes\": {}, \"edges\": {}, \"bytes\": {}, \"min_raw_id\": {BASE}, \"wall_s\": {wall:.4}, \"mbytes_per_s\": {mbytes_per_s:.2}, \"edges_per_s\": {edges_per_s:.1}, \"graph_nodes\": {} }}",
        stats.nodes,
        stats.edges,
        stats.bytes,
        graph.node_count()
    )
}

/// The million-node tier: writes a deterministic synthetic edge list to
/// a temp file, streams it through the two-pass CSR ingest, then steps
/// one synchronous-ABM replica over all agents on the flat state arena.
/// Returns the `synthetic_1m` JSON object.
fn synthetic_1m_section() -> String {
    use std::io::{BufWriter, Write as _};

    const N: usize = 1_000_000;
    const OUT_DEGREE: usize = 4;

    let path = std::env::temp_dir().join(format!("rumor_synth_1m_{}.txt", std::process::id()));
    let gen_start = Instant::now();
    {
        let file = std::fs::File::create(&path).expect("create synthetic edge list");
        let mut w = BufWriter::with_capacity(1 << 20, file);
        let mut line = String::with_capacity(32);
        for u in 0..N {
            for j in 0..OUT_DEGREE {
                let v = (splitmix64((u as u64) << 3 | j as u64) % N as u64) as usize;
                if v == u {
                    continue; // self-loops carry no contact dynamics
                }
                line.clear();
                let _ = writeln!(line, "{u} {v}");
                w.write_all(line.as_bytes()).expect("write edge");
            }
        }
        w.flush().expect("flush edge list");
    }
    let gen_wall = gen_start.elapsed().as_secs_f64();

    let ingest_start = Instant::now();
    let (graph, stats) =
        rumor_datasets::streaming::load_edge_list_path(&path, EdgeKind::Undirected)
            .expect("stream 1M-node edge list");
    let ingest_wall = ingest_start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&path);
    let mbytes = stats.bytes as f64 / 1e6;
    let mbytes_per_s = mbytes / ingest_wall;
    let edges_per_s = stats.edges as f64 / ingest_wall;
    println!(
        "synthetic_1m ingest: {} nodes, {} edges, {:.1} MB in {ingest_wall:.3} s = {mbytes_per_s:.1} MB/s ({edges_per_s:.0} edges/s; generation took {gen_wall:.3} s)",
        stats.nodes, stats.edges, mbytes
    );

    let classes = DegreeClasses::from_graph(&graph).expect("1M classes");
    let n_classes = classes.len();
    let abm_params = ModelParams::builder(classes)
        .alpha(0.0)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.05 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("1M params");
    let abm_cfg = AbmConfig {
        alpha: 0.0,
        dt: 1.0,
        tf: 5.0,
        eps1: 0.02,
        eps2: 0.1,
        initial_infected: 0.02,
        record_every: 5,
    };
    let n_steps = (abm_cfg.tf / abm_cfg.dt).round() as u64;
    let active = graph.degrees().into_iter().filter(|&d| d > 0).count();
    let abm_start = Instant::now();
    let traj = abm::run(
        &graph,
        &abm_params,
        &abm_cfg,
        &mut StdRng::seed_from_u64(1_000_003),
    )
    .expect("1M ABM replica");
    let abm_wall = abm_start.elapsed().as_secs_f64();
    let node_steps_per_s = active as f64 * n_steps as f64 / abm_wall;
    println!(
        "synthetic_1m abm: {active} active nodes x {n_steps} steps in {abm_wall:.3} s = {node_steps_per_s:.0} node-steps/s (final infected {:.4})",
        traj.final_infected()
    );

    format!(
        "{{\n    \"ingest\": {{ \"nodes\": {}, \"edges\": {}, \"bytes\": {}, \"wall_s\": {ingest_wall:.4}, \"mbytes_per_s\": {mbytes_per_s:.2}, \"edges_per_s\": {edges_per_s:.1} }},\n    \"abm\": {{ \"active_nodes\": {active}, \"n_classes\": {n_classes}, \"steps\": {n_steps}, \"dt\": {}, \"wall_s\": {abm_wall:.4}, \"node_steps_per_s\": {node_steps_per_s:.1} }}\n  }}",
        stats.nodes, stats.edges, stats.bytes, abm_cfg.dt
    )
}

/// The competing two-rumor compartment model: RHS throughput of the
/// generalized 4-band kernels on the small-tier Digg classes, plus one
/// capped multi-control FBSM sweep on the canonical two-rumor small
/// tier (byte-for-byte the configuration of
/// `crates/control/tests/two_rumor_fbsm.rs` and the EXPERIMENTS.md
/// cost-effectiveness study), asserting genuine convergence.
fn two_rumor_section() -> String {
    use rumor_compartments::model::{CompartmentModel, CompartmentOde};
    use rumor_compartments::schedule::ConstantMultiControl;
    use rumor_control::multi::{
        optimize_compartments_monitored, MultiControlBounds, MultiFbsmOptions,
    };
    use rumor_models::two_rumor::TwoRumorModel;

    // RHS throughput on the same small-tier class structure as the
    // paper-model `rhs` workload, so the 4-band generalized kernel cost
    // is directly comparable with the 3-band legacy one.
    let ds = digg_dataset(Scale::Small);
    let params = fig4_params(&ds);
    let model =
        TwoRumorModel::from_params(&params, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0).expect("model");
    let n = model.n_classes();
    let ode = CompartmentOde::new(&model, ConstantMultiControl::new(vec![0.2, 0.05]));
    let mut y = vec![0.0; model.state_dim()];
    for j in 0..n {
        y[j] = 0.88;
        y[n + j] = 0.1;
        y[2 * n + j] = 0.02;
    }
    let mut dydt = vec![0.0; y.len()];
    for _ in 0..100 {
        ode.rhs(0.0, &y, &mut dydt);
    }
    let (evals, rhs_wall, rhs_rate) = best_rate_window(200, || ode.rhs(0.0, &y, &mut dydt));
    println!(
        "two_rumor rhs: {n} classes x 4 compartments, {evals} evals in {rhs_wall:.3} s = {rhs_rate:.0} evals/s (best of {RATE_WINDOWS} windows)"
    );

    // The canonical two-rumor small tier: 12 degree classes, bounds
    // [0.2, 0.2] (wider boxes put grid nodes on the clamp boundary and
    // the Picard iteration cycles), 51 grid nodes over tf = 40. The cap
    // bounds the workload; the sweep in fact converges well inside it
    // and the final residual is asserted, so a regression in the
    // multi-control numerics fails the report instead of skewing it.
    let degrees: Vec<usize> = (0..24).map(|i| 1 + i % 12).collect();
    let classes = DegreeClasses::from_degrees(&degrees).expect("classes");
    let fbsm_params = ModelParams::builder(classes)
        .alpha(0.002)
        .acceptance(AcceptanceRate::LinearInDegree { lambda0: 0.02 })
        .infectivity(Infectivity::paper_default())
        .build()
        .expect("two-rumor params");
    let fbsm_model = TwoRumorModel::from_params(&fbsm_params, 0.03, 0.05, 0.08, 0.5, 5.0, 10.0)
        .expect("two-rumor model");
    let nn = fbsm_model.n_classes();
    let mut y0 = vec![0.0; fbsm_model.state_dim()];
    for j in 0..nn {
        y0[j] = 0.88;
        y0[nn + j] = 0.1;
        y0[2 * nn + j] = 0.02;
    }
    let bounds = MultiControlBounds::new(vec![0.2, 0.2]).expect("bounds");
    let options = MultiFbsmOptions {
        n_nodes: 51,
        max_iterations: 150,
        tolerance: 1e-4,
        relaxation: 0.4,
        ode: AdaptiveConfig {
            rtol: 1e-6,
            atol: 1e-8,
            ..Default::default()
        },
        ..Default::default()
    };
    let tf = 40.0;
    let start = Instant::now();
    let sweep = optimize_compartments_monitored(&fbsm_model, &y0, tf, &bounds, &options)
        .expect("two-rumor sweep");
    let fbsm_wall = start.elapsed().as_secs_f64();
    let residual = sweep
        .change_history
        .last()
        .copied()
        .unwrap_or(f64::INFINITY);
    assert!(
        sweep.converged && residual <= 1e-4,
        "two-rumor multi-control sweep must converge to <= 1e-4, got converged {} residual {residual:.3e}",
        sweep.converged
    );
    println!(
        "two_rumor fbsm: {nn} classes, 2 control channels: {} iterations in {fbsm_wall:.3} s, residual {residual:.3e}, J = {:.4}",
        sweep.iterations,
        sweep.cost.total()
    );

    format!(
        "{{\n    \"rhs\": {{ \"n_classes\": {n}, \"n_compartments\": 4, \"evals\": {evals}, \"wall_s\": {rhs_wall:.4}, \"evals_per_s\": {rhs_rate:.1} }},\n    \"fbsm\": {{ \"n_classes\": {nn}, \"n_controls\": 2, \"grid_nodes\": {}, \"tf\": {tf}, \"iterations\": {}, \"converged\": {}, \"wall_s\": {fbsm_wall:.4}, \"final_residual\": {residual:.6e}, \"cost_total\": {:.6} }}\n  }}",
        options.n_nodes,
        sweep.iterations,
        sweep.converged,
        sweep.cost.total()
    )
}

/// The headline metrics the regression gate watches: a dotted JSON path
/// and whether larger values are better (throughputs) or worse (wall
/// times). The `synthetic_1m.*` paths only exist in `--heavy` reports;
/// the gate skips paths missing from either side, so one baseline
/// serves both the per-PR and the nightly tier.
const GATE_METRICS: [(&str, bool); 13] = [
    ("rhs.evals_per_s", true),
    ("two_rumor.rhs.evals_per_s", true),
    ("two_rumor.fbsm.wall_s", false),
    ("wire.parse_validate_per_s", true),
    ("jobs.points_per_s", true),
    ("fbsm.wall_s", false),
    ("digg_full.rhs.evals_per_s", true),
    ("intra_scaling.rhs_848.t1.evals_per_s", true),
    ("intra_scaling.costate_848.t1.evals_per_s", true),
    ("intra_scaling.abm_1m.t1.node_steps_per_s", true),
    ("ingest_sparse.mbytes_per_s", true),
    ("synthetic_1m.ingest.mbytes_per_s", true),
    ("synthetic_1m.abm.node_steps_per_s", true),
];

/// Walks a dotted path (`"digg_full.rhs.evals_per_s"`) into a parsed
/// report and returns the numeric leaf, if present.
fn lookup_metric(value: &wire::Value, path: &str) -> Option<f64> {
    let mut node = value;
    let mut segments = path.split('.').peekable();
    while let Some(segment) = segments.next() {
        if segments.peek().is_none() {
            return node.get(segment).and_then(|leaf| leaf.as_f64());
        }
        node = node.get(segment)?;
    }
    None
}

/// A `--check` baseline, read and parsed before the first workload
/// runs: `--out` may name the same file, and a report gated against
/// its own copy would read +0.0% on every metric.
struct Baseline {
    path: PathBuf,
    report: wire::Value,
}

fn load_baseline(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let report = wire::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    Ok(Baseline {
        path: path.to_path_buf(),
        report,
    })
}

/// Writes the fresh report to `out`, then gates it against `baseline`
/// (when given). Returns false if any gated metric regressed.
fn write_and_gate(json: &str, out: &Path, baseline: Option<&Baseline>, tolerance: f64) -> bool {
    std::fs::write(out, json).expect("write report");
    println!("wrote {}", out.display());
    baseline.is_none_or(|baseline| gate(json, baseline, tolerance))
}

/// Compares the fresh report against the committed baseline. Every
/// watched metric is evaluated and printed as one diff row — the gate
/// never stops at the first offender — and the function returns false
/// (→ exit 1) if any metric regressed past the tolerance. Metrics
/// absent from either report are reported and skipped so the gate keeps
/// working across report-format growth and across the per-PR/nightly
/// tier split.
fn gate(current_json: &str, baseline: &Baseline, tolerance: f64) -> bool {
    let current = wire::parse(current_json).expect("fresh report is valid JSON");
    println!(
        "perf gate: comparing against {} (tolerance {tolerance})",
        baseline.path.display()
    );
    println!(
        "  {:<34} {:>14} {:>14} {:>9} {:>14}  verdict",
        "metric", "baseline", "current", "delta", "limit"
    );
    let mut regressions: Vec<String> = Vec::new();
    for (path, higher_is_better) in GATE_METRICS {
        let Some(base) = lookup_metric(&baseline.report, path) else {
            println!("  {path:<34} not in baseline, skipped");
            continue;
        };
        let Some(now) = lookup_metric(&current, path) else {
            println!("  {path:<34} not in current run, skipped");
            continue;
        };
        let (passed, limit) = if higher_is_better {
            (now >= base * tolerance, base * tolerance)
        } else {
            (now <= base / tolerance, base / tolerance)
        };
        let delta_pct = (now / base - 1.0) * 100.0;
        println!(
            "  {path:<34} {base:>14.2} {now:>14.2} {delta_pct:>+8.1}% {limit:>14.2}  {}",
            if passed { "ok" } else { "REGRESSION" }
        );
        if !passed {
            regressions.push(format!(
                "{path}: {now:.2} vs baseline {base:.2} ({delta_pct:+.1}%, {} {limit:.2})",
                if higher_is_better { "floor" } else { "ceiling" }
            ));
        }
    }
    if !regressions.is_empty() {
        eprintln!(
            "perf gate: {} metric(s) regressed past the {tolerance}x tolerance:",
            regressions.len()
        );
        for line in &regressions {
            eprintln!("  {line}");
        }
    }
    regressions.is_empty()
}

/// One full HTTP exchange against the bench server; panics on failure
/// (the server is in-process, so failures are bugs, not flakiness).
fn http_request(server: &Server, path: &str, body: &str) -> String {
    raw_request(server.local_addr(), "POST", path, body).expect("bench request")
}

/// One full HTTP exchange; `None` on connection failure (expected under
/// deliberate overload in the admission workload).
fn raw_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok()?;
    Some(String::from_utf8_lossy(&response).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_reads_the_baseline_before_the_report_overwrites_it() {
        let path =
            std::env::temp_dir().join(format!("perfreport_gate_{}.json", std::process::id()));
        std::fs::write(&path, r#"{"rhs": {"evals_per_s": 1000.0}}"#).unwrap();
        let baseline = load_baseline(&path).unwrap();
        // `--out` names the baseline file: 100 evals/s is below the
        // 0.25 × 1000 floor, and only a gate that re-read the file would
        // compare the run with itself and pass it.
        let slow = r#"{"rhs": {"evals_per_s": 100.0}}"#;
        let slow_passed = write_and_gate(slow, &path, Some(&baseline), 0.25);
        let written = std::fs::read_to_string(&path);
        let fast = r#"{"rhs": {"evals_per_s": 900.0}}"#;
        let fast_passed = write_and_gate(fast, &path, Some(&baseline), 0.25);
        std::fs::remove_file(&path).unwrap();
        assert!(!slow_passed, "a metric below its floor passed the gate");
        assert_eq!(written.unwrap(), slow);
        assert!(fast_passed, "a metric above its floor failed the gate");
    }
}
