//! `analyst`: a researcher reproducing the paper. One client sends
//! about a dozen distinct, cache-cold requests in a closed loop: the
//! paper-scale threshold analysis, optimizations on 10,000- and
//! 300-node nets for every model kind, paper-scale simulations and two
//! ensembles. The untraced run sends the set `PASSES` times, each time
//! to a fresh server so every request is cache-cold again, and
//! `makespan_s` adds up each request's median latency over the passes.
//! The traced run sends it once and then, since no listed workload
//! reaches the jobs engine, runs three campaign rounds for the
//! job-layer figures.

use crate::bodies::{self, Req};
use crate::campaign;
use crate::checks;
use crate::client::Conn;
use crate::env::{self, Counters, Target};
use crate::gen::{self, Sent};
use crate::reference::References;
use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self, RollupDiff, Traced, Tracer};
use rumor_serve::cache::LruCache;
use rumor_serve::wire::Value;
use std::sync::Mutex;
use std::time::Instant;

/// Passes of the request set in an untraced run.
const PASSES: usize = 3;

/// One pass of the request set as the client saw it.
struct Pass {
    records: Vec<Sent>,
    bodies: Vec<Option<Vec<u8>>>,
    wall_s: f64,
    opened: u64,
}

/// Sends every request once, in order, each when the previous answer
/// has arrived.
fn pass(target: &Target, reqs: &[Req], refs: &References) -> Pass {
    let bodies: Mutex<Vec<Option<Vec<u8>>>> = Mutex::new(vec![None; reqs.len()]);
    let check = |i: usize, resp: &crate::client::Response| {
        bodies.lock().expect("not poisoned")[i] = Some(resp.body.clone());
        checks::answer(refs, &reqs[i].path, &reqs[i].body, &resp.body, true)
    };
    let start = Instant::now();
    let mut conn = Conn::new(target.addr);
    let mut records = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        // Closed loop: each request is due when the previous answer
        // arrives.
        let due = start.elapsed();
        records.push(gen::send_one(
            &mut conn,
            start,
            i,
            due,
            &req.planned(),
            &check,
        ));
    }
    Pass {
        records,
        bodies: bodies.into_inner().expect("not poisoned"),
        wall_s: start.elapsed().as_secs_f64(),
        opened: conn.opened,
    }
}

pub fn run(seed: u64, trace: bool, refs: &References) -> Result<(Outcome, String), String> {
    let mut out = Outcome::default();
    let (setup_s, setups, mut target, reqs) = env::set_up(|| {
        let reqs = bodies::analyst(seed);
        Ok((Target::start()?, reqs))
    })?;
    let provenance = env::provenance(&target, "analyst", seed);

    let rollups_before = trace.then(|| {
        rumor_obs::set_rollup(true);
        rumor_obs::snapshot()
    });
    let counters_before = trace.then(|| Counters::read(&target));
    let mut passes = Vec::new();
    let mut peak_rss_mb = 0.0;
    for p in 0..if trace { 1 } else { PASSES } {
        if p > 0 {
            // A fresh server, so every request is cache-cold again.
            target.stop();
            target = Target::start()?;
        }
        passes.push(pass(&target, &reqs, refs));
        if p == 0 {
            // One server's peak: the allocator keeps memory of stopped
            // servers resident, so later passes only add to it.
            peak_rss_mb = env::peak_rss_mb();
        }
    }
    let rollups_after = trace.then(rumor_obs::snapshot);

    let (mut converged, mut optimized) = (0, 0);
    for (p, run) in passes.iter().enumerate() {
        out.tally.sent(&run.records);
        for (req, body) in reqs.iter().zip(&run.bodies) {
            if req.path != "/v1/optimize" {
                continue;
            }
            optimized += 1;
            let v = body.as_deref().and_then(|b| checks::parse(b).ok());
            if v.and_then(|v| v.get("converged").and_then(Value::as_bool)) == Some(true) {
                converged += 1;
            }
        }
        for r in &run.records {
            out.line(format!(
                "request analyst pass {p} {:28} {:10.3} ms status {}",
                reqs[r.index].class,
                r.latency_ms(),
                r.status
            ));
        }
        out.figure(
            "analyst",
            &format!("pass_wall_s.{p}"),
            run.wall_s,
            "s",
            run.records.len(),
        );
    }
    // Each request at its median latency over the passes.
    let makespan: f64 = (0..reqs.len())
        .map(|i| {
            let latencies: Vec<f64> = passes
                .iter()
                .map(|run| run.records[i].latency_ms() / 1e3)
                .collect();
            median(&latencies)
        })
        .sum();
    out.figure("analyst", "setup_s", setup_s, "s", setups);
    out.figure(
        "analyst",
        "makespan_s",
        makespan,
        "s",
        reqs.len() * passes.len(),
    );
    out.figure(
        "analyst",
        "converged_share",
        f64::from(converged) / f64::from(optimized.max(1)),
        "ratio",
        optimized as usize,
    );

    if trace {
        let counters = Counters::read(&target).since(counters_before.expect("traced"));
        let Pass {
            records,
            bodies: bodies_seen,
            opened,
            ..
        } = passes.pop().expect("a traced run makes one pass");
        let mut tracer = Tracer::new();
        let mut cache = LruCache::new(target.config.cache_entries);
        let mut waits = Vec::new();
        for (r, req) in records.iter().zip(&reqs) {
            let bytes = req.planned().bytes();
            let replayed = trace::replay(
                &mut tracer,
                r.index,
                &bytes,
                target.config.max_body_bytes,
                &mut cache,
                target.workers,
            );
            out.tally
                .check(replayed.as_ref().map(|_| ()).map_err(Clone::clone));
            if let (Ok(rep), Some(http_body)) = (&replayed, &bodies_seen[r.index]) {
                out.tally.check(if rep.body == *http_body {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: HTTP body differs from the in-process handler",
                        req.class
                    ))
                });
                waits.push((r.latency_ms(), rep.stages_ms));
            }
        }
        let traced = Traced {
            probes: trace::probes(target.inner_threads, target.workers),
            rollups: RollupDiff::between(
                rollups_before.as_ref().expect("traced"),
                rollups_after.as_ref().expect("traced"),
            ),
            late_ms: records.iter().map(Sent::late_ms).collect(),
            tracer,
            sent: records,
            opened,
            waits,
            counters,
            jobs: campaign::jobs_figures(&mut out, seed, refs)?,
        };
        trace::finish(&mut out, &traced, "analyst", seed);
    }

    out.e2e = vec![
        ("setup_s", "s", setup_s),
        ("makespan_s", "s", makespan),
        ("peak_rss_mb", "MB", peak_rss_mb),
    ];
    target.stop();
    Ok((out, provenance))
}
