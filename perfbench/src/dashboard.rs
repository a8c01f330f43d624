//! `dashboard`: operators polling standard scenarios. An open loop
//! with seeded Poisson arrivals at 250, then 1,000, then again 250 requests
//! per second, followed by a search for the highest sustained rate. About
//! 97% of requests repeat a 32-body working set warmed during set-up
//! (with member order and whitespace shuffled, so only
//! canonicalization makes them hit), about 2% are fresh simulate bodies
//! that compute, and about 1% are `GET /healthz` and `GET /metrics`.
//!
//! The open-loop phases run on a fixed schedule, so their length does
//! not depend on the server. `makespan_s` is instead the wall time of a
//! closed-loop batch of `BATCH` scrambled working-set requests on the
//! generator's connections, which the server's per-request cost sets;
//! it is the median over `ROUNDS` batches, so a few seconds of host
//! stalls do not set it.

use crate::bodies::{self, Req};
use crate::checks;
use crate::client::{Conn, Response};
use crate::env::{self, Counters, Target};
use crate::gen::{self, Planned, Sent};
use crate::reference::References;
use crate::report::Outcome;
use crate::stats::{median, poisson_schedule, sustained_search, Rng};
use crate::trace::{self, percentile_or_zero, RollupDiff, Traced, Tracer};
use rumor_serve::cache::LruCache;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Latency limit on p90 for a rate to count as sustained.
const LIMIT_MS: f64 = 5.0;
/// Bisection steps of the sustained-rate search.
const SEARCH_STEPS: usize = 7;
/// Requests in one closed-loop batch.
const BATCH: usize = 2_000;
/// Closed-loop batches per run.
const ROUNDS: usize = 10;

#[derive(Debug, Clone)]
enum Kind {
    /// Working-set entry `w`, scrambled.
    Hit(usize),
    Fresh(Req),
    Health,
    Metrics,
}

struct Phase {
    /// Due times of an open-loop phase; `None` for a closed-loop batch.
    due: Option<Vec<Duration>>,
    plan: Vec<Planned>,
    kinds: Vec<Kind>,
}

fn plan_phase(rng: &mut Rng, rate: f64, duration: Duration, ws: &[Req]) -> Phase {
    let due = poisson_schedule(rng, rate, duration);
    let mut plan = Vec::with_capacity(due.len());
    let mut kinds = Vec::with_capacity(due.len());
    for _ in 0..due.len() {
        let u = rng.unit();
        let (kind, planned) = if u < 0.005 {
            (Kind::Health, Planned::get("/healthz"))
        } else if u < 0.01 {
            (Kind::Metrics, Planned::get("/metrics"))
        } else if u < 0.03 {
            let fresh = bodies::fresh_simulate(rng);
            let planned = fresh.planned();
            (Kind::Fresh(fresh), planned)
        } else {
            hit(rng, ws)
        };
        kinds.push(kind);
        plan.push(planned);
    }
    Phase {
        due: Some(due),
        plan,
        kinds,
    }
}

/// A scrambled request for a random working-set entry.
fn hit(rng: &mut Rng, ws: &[Req]) -> (Kind, Planned) {
    let w = rng.below(ws.len());
    let body = bodies::scramble(&ws[w].body, rng);
    (Kind::Hit(w), Planned::post(ws[w].path.as_str(), body))
}

fn plan_batch(rng: &mut Rng, ws: &[Req]) -> Phase {
    let (kinds, plan) = (0..BATCH).map(|_| hit(rng, ws)).unzip();
    Phase {
        due: None,
        plan,
        kinds,
    }
}

/// Checks one answer of a phase. A hit must be byte-identical to the
/// warm-up answer of its working-set entry.
fn check(kind: &Kind, warm: &[Vec<u8>], refs: &References, resp: &Response) -> Result<(), String> {
    match kind {
        Kind::Hit(w) if resp.body == warm[*w] => Ok(()),
        Kind::Hit(w) => Err(format!(
            "working-set entry {w}: answer differs from its first answer"
        )),
        Kind::Fresh(req) => checks::answer(refs, &req.path, &req.body, &resp.body, false),
        Kind::Health => checks::healthz(&resp.body),
        Kind::Metrics if resp.body_text().contains("rumor_serve_admitted_total") => Ok(()),
        Kind::Metrics => Err("/metrics lacks the admission counter".into()),
    }
}

/// Runs a phase; keeps fresh and GET bodies when `keep` (for the
/// traced replay).
fn drive(
    target: &Target,
    phase: &Phase,
    warm: &[Vec<u8>],
    refs: &References,
    keep: bool,
) -> (Vec<Sent>, u64, BTreeMap<usize, Vec<u8>>) {
    let kept = Mutex::new(BTreeMap::new());
    let check = |i: usize, resp: &Response| {
        if keep && !matches!(phase.kinds[i], Kind::Hit(_)) {
            kept.lock()
                .expect("not poisoned")
                .insert(i, resp.body.clone());
        }
        check(&phase.kinds[i], warm, refs, resp)
    };
    let (sent, opened) = match &phase.due {
        Some(due) => gen::open_loop(target.addr, due, &phase.plan, gen::max_conns(), &check),
        None => gen::closed_loop(target.addr, &phase.plan, gen::max_conns(), &check),
    };
    (sent, opened, kept.into_inner().expect("not poisoned"))
}

fn latencies(sent: &[Sent]) -> Vec<f64> {
    sent.iter().map(Sent::latency_ms).collect()
}

/// Wall time: from the start to the last answer.
fn wall_s(sent: &[Sent]) -> f64 {
    sent.iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .as_secs_f64()
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    refs: &References,
) -> Result<(Outcome, String), String> {
    let mut out = Outcome::default();
    let quarter = Duration::from_secs_f64(seconds as f64 / 4.0);
    // The 250 req/s quarter is split around the 1,000 req/s one, so its
    // median samples a wider stretch of the run.
    let layout = [
        (250.0, quarter / 2),
        (1_000.0, quarter),
        (250.0, quarter / 2),
    ];
    let (setup_s, setups, target, (ws, warm, phases, batches)) = env::set_up(|| {
        let ws = bodies::working_set(seed);
        let mut rng = Rng::stream(seed, "batch");
        let batches: Vec<Phase> = (0..ROUNDS).map(|_| plan_batch(&mut rng, &ws)).collect();
        let phases: Vec<(f64, Phase)> = layout
            .iter()
            .enumerate()
            .map(|(k, &(rate, length))| {
                let mut rng = Rng::stream(seed, &format!("phase-{k}"));
                (rate, plan_phase(&mut rng, rate, length, &ws))
            })
            .collect();
        let target = Target::start()?;
        let mut conn = Conn::new(target.addr);
        let mut warm = Vec::with_capacity(ws.len());
        for req in &ws {
            let resp = conn
                .send("POST", &req.path, req.body.as_bytes())
                .map_err(|e| format!("warm-up {}: {e}", req.path))?;
            if resp.status != 200 {
                return Err(format!("warm-up {} answered {}", req.path, resp.status));
            }
            warm.push(resp.body);
        }
        Ok((target, (ws, warm, phases, batches)))
    })?;
    // The kept set-up's answers are what every later hit must repeat.
    for (req, body) in ws.iter().zip(&warm) {
        out.tally
            .check(checks::answer(refs, &req.path, &req.body, body, true));
    }
    let provenance = env::provenance(&target, "dashboard", seed);

    let rollups_before = trace.then(|| {
        rumor_obs::set_rollup(true);
        rumor_obs::snapshot()
    });
    let counters_before = Counters::read(&target);
    let driven: Vec<_> = phases
        .iter()
        .map(|(_, phase)| drive(&target, phase, &warm, refs, trace))
        .collect();
    let batch_driven: Vec<_> = batches
        .iter()
        .map(|batch| drive(&target, batch, &warm, refs, false))
        .collect();
    let counters = Counters::read(&target).since(counters_before);
    let rollups_after = trace.then(rumor_obs::snapshot);
    let at = |rate: f64| {
        phases
            .iter()
            .zip(&driven)
            .filter(move |((r, _), _)| *r == rate)
            .flat_map(|(_, (sent, _, _))| sent)
    };
    for (sent, _, _) in driven.iter().chain(&batch_driven) {
        out.tally.sent(sent);
    }
    let round_s: Vec<f64> = batch_driven
        .iter()
        .map(|(sent, _, _)| wall_s(sent))
        .collect();
    let makespan = median(&round_s);

    // Sustained rate: the highest open-loop rate whose p90 meets the
    // limit with no failure and no backlog building up at the end.
    let mut trial = 0u64;
    let sustained = sustained_search(250.0, 20_000.0, SEARCH_STEPS, |rate| {
        trial += 1;
        let length = Duration::from_secs_f64((1_200.0 / rate).clamp(0.4, 1.5));
        let phase = plan_phase(&mut Rng::stream(seed ^ trial, "trial"), rate, length, &ws);
        let (sent, _, _) = drive(&target, &phase, &warm, refs, false);
        out.tally.sent(&sent);
        let lat = latencies(&sent);
        let tail: Vec<f64> = sent[sent.len() * 3 / 4..]
            .iter()
            .map(Sent::late_ms)
            .collect();
        let p90 = percentile_or_zero(&lat, 0.9);
        let backlog = percentile_or_zero(&tail, 0.9);
        let failed = sent.iter().filter(|s| s.error.is_some()).count();
        let pass = failed == 0 && p90 <= LIMIT_MS && backlog <= LIMIT_MS;
        out.line(format!(
            "trial dashboard rate {rate:.0} n={} p90={p90:.3}ms tail_late_p90={backlog:.3}ms failed={failed} {}",
            sent.len(),
            if pass { "sustained" } else { "not sustained" }
        ));
        pass
    });

    let low_ms: Vec<f64> = at(250.0).map(Sent::latency_ms).collect();
    let high_ms: Vec<f64> = at(1_000.0).map(Sent::latency_ms).collect();
    let late: Vec<f64> = driven
        .iter()
        .flat_map(|(sent, _, _)| sent)
        .map(Sent::late_ms)
        .collect();
    out.figure("dashboard", "setup_s", setup_s, "s", setups);
    for (k, s) in round_s.iter().enumerate() {
        out.figure(
            "dashboard",
            &format!("round_makespan_s.{k}"),
            *s,
            "s",
            BATCH,
        );
    }
    out.figure("dashboard", "makespan_s", makespan, "s", ROUNDS);
    out.latency("dashboard", "p50_ms.r250", "p90_ms.r250", &low_ms);
    out.latency("dashboard", "p50_ms.r1000", "p90_ms.r1000", &high_ms);
    out.figure(
        "dashboard",
        "sustained_rps",
        sustained,
        "req/s",
        trial as usize,
    );
    out.latency("dashboard", "gen.late_p50_ms", "gen.late_p90_ms", &late);

    if trace {
        let mut tracer = Tracer::new();
        let mut cache = LruCache::new(target.config.cache_entries);
        let max_body = target.config.max_body_bytes;
        // Warm the replay cache as set-up warmed the server's.
        for (w, req) in ws.iter().enumerate() {
            let bytes = req.planned().bytes();
            let rep = trace::replay(
                &mut tracer,
                usize::MAX - w,
                &bytes,
                max_body,
                &mut cache,
                target.workers,
            )?;
            out.tally.check(if rep.body == warm[w] {
                Ok(())
            } else {
                Err(format!(
                    "working-set entry {w}: HTTP body differs from the in-process handler"
                ))
            });
        }
        let mut waits = Vec::new();
        let mut n = 0;
        let timed = || driven.iter().chain(&batch_driven);
        let timed_phases = phases.iter().map(|(_, phase)| phase).chain(&batches);
        for (phase, (sent, _, kept)) in timed_phases.zip(timed()) {
            for s in sent {
                let bytes = phase.plan[s.index].bytes();
                let rep =
                    trace::replay(&mut tracer, n, &bytes, max_body, &mut cache, target.workers)?;
                n += 1;
                let same = match &phase.kinds[s.index] {
                    Kind::Hit(w) => rep.body == warm[*w],
                    Kind::Fresh(_) => kept.get(&s.index) == Some(&rep.body),
                    Kind::Health => checks::healthz(&rep.body).is_ok(),
                    Kind::Metrics => true,
                };
                out.tally.check(if same {
                    Ok(())
                } else {
                    Err(format!(
                        "request {}: HTTP body differs from the replay",
                        s.index
                    ))
                });
                waits.push((s.latency_ms(), rep.stages_ms));
            }
        }
        out.line(format!("replayed dashboard {n} requests"));
        let sent: Vec<Sent> = timed().flat_map(|(s, _, _)| s.clone()).collect();
        let traced = Traced {
            probes: trace::probes(target.inner_threads, target.workers),
            rollups: RollupDiff::between(
                rollups_before.as_ref().expect("traced"),
                rollups_after.as_ref().expect("traced"),
            ),
            tracer,
            sent,
            opened: timed().map(|(_, opened, _)| opened).sum(),
            waits,
            counters,
            jobs: Vec::new(),
            late_ms: late,
        };
        trace::finish(&mut out, &traced, "dashboard", seed);
    }

    out.e2e = vec![
        ("setup_s", "s", setup_s),
        ("makespan_s", "s", makespan),
        ("peak_rss_mb", "MB", env::peak_rss_mb()),
    ];
    target.stop();
    Ok((out, provenance))
}
