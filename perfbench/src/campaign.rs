//! `campaign`: durable writes beside reads. In each of eight rounds,
//! three `/v1/jobs` campaigns are submitted at once: a 1,000-point
//! threshold sweep, a 16-point warm-started paper optimize sweep and a
//! 64-replica ensemble. One consumer follows each job's chunked stream
//! in turn while a poller issues `GET /v1/jobs/{id}` 50 times a second.
//! It is the only workload that drives the jobs engine (journal,
//! checkpoints, result store, round-robin scheduler) and the warm-start
//! codec. The rounds submit every input variant once, so `makespan_s`,
//! their summed wall time, measures the same work whatever the seed.

use crate::bodies::{self, Req};
use crate::checks::{self, parse};
use crate::client::{Conn, Response};
use crate::env::{self, Counters, Target};
use crate::gen::{self, Planned, Sent};
use crate::reference::{self, figures, point_key, References};
use crate::report::{Outcome, Tally};
use crate::stats::median;
use crate::trace::{self, RollupDiff, Traced, Tracer};
use rumor_serve::cache::LruCache;
use rumor_serve::wire::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Rounds per run: one per input variant.
const ROUNDS: usize = bodies::VARIANTS;
const STATES: [&str; 6] = ["queued", "running", "done", "failed", "cancelled", "paused"];

fn endpoint_of(kind: &str) -> &'static str {
    match kind {
        "threshold_sweep" => "/v1/threshold",
        "optimize_sweep" => "/v1/optimize",
        _ => "/v1/ensemble",
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// A job status answer: parses, names a known state, and never claims
/// more points than the job has.
fn check_status(body: &[u8]) -> Result<Value, String> {
    let v = parse(body)?;
    let state = v.get("state").and_then(Value::as_str).unwrap_or_default();
    if !STATES.contains(&state) {
        return Err(format!("unknown job state {state:?}"));
    }
    match (num(&v, "completed"), num(&v, "total")) {
        (Some(c), Some(t)) if c <= t => Ok(v),
        _ => Err("job status has completed > total or lacks them".into()),
    }
}

/// The row lines of a finished stream: every chunk but the summary,
/// without its trailing newline.
fn row_lines(stream: &Response) -> impl Iterator<Item = &[u8]> {
    let rows = stream.chunks.len().saturating_sub(1);
    stream.chunks[..rows]
        .iter()
        .map(|(_, c)| c.strip_suffix(b"\n").unwrap_or(c))
}

/// Every check of one finished campaign: the terminal summary, each
/// streamed row against its shape and (for pinned points) its
/// reference, and `/results` byte-equal to the streamed rows plus
/// summary. Returns how many rows report a converged solve.
fn check_job(
    job: &Req,
    stream: &Response,
    results: &Response,
    refs: &References,
    tally: &mut Tally,
) -> Result<usize, String> {
    let submission = parse(job.body.as_bytes())?;
    let kind = submission
        .get("kind")
        .and_then(Value::as_str)
        .unwrap_or_default();
    let points = num(&submission, "points").unwrap_or(0.0) as u64;
    let base = submission
        .get("base")
        .cloned()
        .unwrap_or(Value::Obj(Vec::new()));
    let path = endpoint_of(kind);
    let (_, summary_chunk) = stream
        .chunks
        .last()
        .ok_or_else(|| format!("{kind}: empty stream"))?;
    let summary_line = summary_chunk.strip_suffix(b"\n").unwrap_or(summary_chunk);
    let summary = parse(summary_line)?;
    let expect = |key: &str, want: f64| match num(&summary, key) {
        Some(x) if x == want => Ok(()),
        other => Err(format!(
            "{kind}: summary {key} = {other:?}, expected {want}"
        )),
    };
    if summary.get("state").and_then(Value::as_str) != Some("done") {
        return Err(format!("{kind}: job ended {:?}", summary.get("state")));
    }
    expect("total", points as f64)?;
    expect("completed", points as f64)?;
    expect("missing", 0.0)?;
    for key in ["manifest", "quarantined"] {
        if summary.get(key).and_then(Value::as_arr).map(<[Value]>::len) != Some(0) {
            return Err(format!("{kind}: {key} is not empty"));
        }
    }
    if row_lines(stream).count() as u64 != points {
        return Err(format!(
            "{kind}: streamed {} rows of {points}",
            row_lines(stream).count()
        ));
    }
    let pinned = reference::pinned_points(kind, points);
    let mut converged = 0;
    for (index, line) in row_lines(stream).enumerate() {
        let verdict = parse(line).and_then(|row| {
            if num(&row, "point") != Some(index as f64) {
                return Err("out of order".to_string());
            }
            let result = row.get("result").ok_or("no result")?;
            checks::shape(path, &base, result)?;
            if result.get("converged") == Some(&Value::Bool(true)) {
                converged += 1;
            }
            if pinned.binary_search(&(index as u64)).is_err() {
                return Ok(());
            }
            match refs.check(&point_key(&job.body, index as u64), &figures(path, result)) {
                Ok(true) => Ok(()),
                Ok(false) => Err("no reference recorded".to_string()),
                Err(e) => Err(e),
            }
        });
        tally.check(verdict.map_err(|e| format!("{kind} point {index}: {e}")));
    }
    // `/results` is the summary's fields followed by the streamed rows.
    let mut expected = summary_line
        .strip_suffix(b"}")
        .ok_or_else(|| format!("{kind}: summary is not an object"))?
        .to_vec();
    expected.extend_from_slice(b",\"results\":[");
    for (i, line) in row_lines(stream).enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        expected.extend_from_slice(line);
    }
    expected.extend_from_slice(b"]}");
    if results.body != expected {
        return Err(format!(
            "{kind}: /results differs from the streamed rows and summary"
        ));
    }
    Ok(converged)
}

/// One round as the client saw it.
struct Round {
    jobs: Vec<Req>,
    ids: Vec<String>,
    submits: Vec<Sent>,
    polls: Vec<Sent>,
    /// Per job: when it was first seen done, and its finished stream.
    done_at: Vec<Option<Duration>>,
    streams: Vec<Option<Response>>,
    makespan: f64,
    opened: u64,
    /// Converged rows and rows of the optimize sweep.
    converged: (usize, usize),
}

/// Submits one round's campaigns, follows their streams while polling
/// their status, then checks every result.
fn round(
    target: &Target,
    jobs: Vec<Req>,
    refs: &References,
    tally: &mut Tally,
) -> Result<Round, String> {
    let start = Instant::now();
    let mut conn = Conn::new(target.addr);
    let mut ids = Vec::new();
    let mut submits = Vec::new();
    for job in &jobs {
        let id = Mutex::new(None);
        let sent = gen::send_one(
            &mut conn,
            start,
            submits.len(),
            start.elapsed(),
            &job.planned(),
            &|_, resp| {
                let v = parse(&resp.body)?;
                let got = v
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or("submission lacks an id")?;
                *id.lock().expect("not poisoned") = Some(got.to_string());
                Ok(())
            },
        );
        let id = id.into_inner().expect("not poisoned");
        let error = sent.error.clone();
        submits.push(sent);
        ids.push(id.ok_or_else(|| format!("{} was not accepted: {error:?}", job.class))?);
    }
    tally.sent(&submits);

    let done_at: Mutex<Vec<Option<Duration>>> = Mutex::new(vec![None; ids.len()]);
    let stop = AtomicBool::new(false);
    let poll_plan = |k: usize| Planned::get(format!("/v1/jobs/{}", ids[k % ids.len()]));
    let poll_check = |k: usize, resp: &Response| {
        let v = check_status(&resp.body)?;
        if v.get("state").and_then(Value::as_str) == Some("done") {
            done_at.lock().expect("not poisoned")[k % ids.len()].get_or_insert(start.elapsed());
        }
        Ok(())
    };
    let (streams, polls, poll_opened, makespan) = std::thread::scope(|s| {
        let poller = s
            .spawn(|| gen::probe_until(target.addr, POLL_INTERVAL, &poll_plan, &stop, &poll_check));
        let mut streams = Vec::new();
        for (k, id) in ids.iter().enumerate() {
            let bytes = Planned::get(format!("/v1/jobs/{id}/stream")).bytes();
            streams.push(conn.exchange(&bytes));
            // A stream ends when its job is done, or at once if the job
            // finished before the consumer reached it; the earlier of
            // this and the poller's first `done` is the completion time.
            let mut done = done_at.lock().expect("not poisoned");
            let end = start.elapsed();
            done[k] = Some(done[k].map_or(end, |d| d.min(end)));
        }
        let makespan = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let (polls, opened) = poller.join().expect("poller thread");
        (streams, polls, opened, makespan)
    });
    tally.sent(&polls);

    let mut converged = (0usize, 0usize);
    let mut finished = Vec::new();
    for ((job, id), stream) in jobs.iter().zip(&ids).zip(streams) {
        let stream = match stream {
            Ok(s) if s.status == 200 => s,
            other => {
                tally.fail(format!("stream of {id}: {:?}", other.map(|s| s.status)));
                finished.push(None);
                continue;
            }
        };
        tally.ok();
        let results = match conn.send("GET", &format!("/v1/jobs/{id}/results"), b"") {
            Ok(r) if r.status == 200 => r,
            other => {
                tally.fail(format!("results of {id}: {:?}", other.map(|r| r.status)));
                finished.push(None);
                continue;
            }
        };
        tally.ok();
        match check_job(job, &stream, &results, refs, tally) {
            Ok(n) => {
                if job.class == "job.optimize_sweep" {
                    converged.0 += n;
                    converged.1 += row_lines(&stream).count();
                }
                tally.ok();
            }
            Err(e) => tally.fail(e),
        }
        finished.push(Some(stream));
    }
    Ok(Round {
        jobs,
        ids,
        submits,
        polls,
        done_at: done_at.into_inner().expect("not poisoned"),
        streams: finished,
        makespan,
        opened: poll_opened + conn.opened,
        converged,
    })
}

fn points(job: &Req) -> f64 {
    parse(job.body.as_bytes())
        .ok()
        .and_then(|v| num(&v, "points"))
        .unwrap_or(0.0)
}

pub fn run(seed: u64, trace: bool, refs: &References) -> Result<(Outcome, String), String> {
    run_rounds(seed, ROUNDS, trace, true, refs)
}

/// The campaign with its first `n_rounds` rounds; a traced run times
/// the engine probes when `probes` is set.
fn run_rounds(
    seed: u64,
    n_rounds: usize,
    trace: bool,
    probes: bool,
    refs: &References,
) -> Result<(Outcome, String), String> {
    let mut out = Outcome::default();
    let (setup_s, setups, target, inputs) = env::set_up(|| {
        let inputs: Vec<Vec<Req>> = (0..n_rounds).map(|r| bodies::campaign(seed, r)).collect();
        Ok((Target::start()?, inputs))
    })?;
    let provenance = env::provenance(&target, "campaign", seed);

    let rollups_before = trace.then(|| {
        rumor_obs::set_rollup(true);
        rumor_obs::snapshot()
    });
    let counters_before = Counters::read(&target);
    let rounds: Vec<Round> = inputs
        .into_iter()
        .map(|jobs| round(&target, jobs, refs, &mut out.tally))
        .collect::<Result<_, _>>()?;
    let counters = Counters::read(&target).since(counters_before);
    let rollups_after = trace.then(rumor_obs::snapshot);
    let disk = env::disk_bytes(&target.jobs_dir);

    let makespans: Vec<f64> = rounds.iter().map(|r| r.makespan).collect();
    let polls: Vec<&Sent> = rounds.iter().flat_map(|r| &r.polls).collect();
    let poll_ms: Vec<f64> = polls.iter().map(|s| s.latency_ms()).collect();
    let converged = rounds
        .iter()
        .fold((0, 0), |(c, n), r| (c + r.converged.0, n + r.converged.1));
    for (k, r) in rounds.iter().enumerate() {
        for (job, at) in r.jobs.iter().zip(&r.done_at) {
            out.line(format!(
                "job campaign round {k} {:22} done at {} s",
                job.class,
                at.map_or("?".to_string(), |d| format!("{:.3}", d.as_secs_f64()))
            ));
        }
        out.figure(
            "campaign",
            &format!("round_makespan_s.{k}"),
            r.makespan,
            "s",
            r.jobs.len(),
        );
    }
    out.figure("campaign", "setup_s", setup_s, "s", setups);
    let makespan: f64 = makespans.iter().sum();
    out.figure("campaign", "makespan_s", makespan, "s", rounds.len());
    out.figure(
        "campaign",
        "converged_share",
        converged.0 as f64 / converged.1.max(1) as f64,
        "ratio",
        converged.1,
    );
    out.latency("campaign", "poll_p50_ms", "poll_p90_ms", &poll_ms);

    if trace {
        let mut tracer = Tracer::new();
        let mut rates: Vec<(&'static str, f64)> = Vec::new();
        for r in &rounds {
            for ((job, at), stream) in r.jobs.iter().zip(&r.done_at).zip(&r.streams) {
                let lines: Vec<&[u8]> = stream.iter().flat_map(row_lines).collect();
                let kind = job.class.trim_start_matches("job.");
                let (name, span) = match kind {
                    "threshold_sweep" => {
                        ("jobs.points_per_s.threshold_sweep", "handlers.threshold")
                    }
                    "optimize_sweep" => ("jobs.points_per_s.optimize_sweep", "handlers.optimize"),
                    _ => ("jobs.points_per_s.ensemble", "handlers.ensemble"),
                };
                rates.push((name, at.map_or(0.0, |d| points(job) / d.as_secs_f64())));
                let replayed = reference::campaign_rows(&job.body, target.workers, &mut |run| {
                    tracer.span(span, |_| run())
                });
                for (index, payload) in replayed {
                    out.tally.check(match lines.get(index as usize) {
                        Some(line) if *line == payload.as_slice() => Ok(()),
                        _ => Err(format!(
                            "{kind} point {index}: streamed row differs from the in-process run"
                        )),
                    });
                }
            }
        }
        // Each job kind's rate is its median over the rounds.
        let mut jobs: Vec<(String, f64)> = Vec::new();
        for name in [
            "jobs.points_per_s.threshold_sweep",
            "jobs.points_per_s.optimize_sweep",
            "jobs.points_per_s.ensemble",
        ] {
            let of_kind: Vec<f64> = rates
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            jobs.push((name.to_string(), trace::median_or_zero(&of_kind)));
        }
        let submits: Vec<Sent> = rounds
            .iter()
            .flat_map(|r| r.submits.iter().cloned())
            .collect();
        let total_points: f64 = rounds.iter().flat_map(|r| &r.jobs).map(points).sum();
        jobs.push((
            "jobs.submit_ms".to_string(),
            median(&submits.iter().map(Sent::latency_ms).collect::<Vec<_>>()),
        ));
        jobs.push((
            "jobs.disk_bytes_per_point".to_string(),
            disk as f64 / total_points.max(1.0),
        ));
        let mut cache = LruCache::new(target.config.cache_entries);
        let mut waits = Vec::new();
        let replayed_polls = rounds
            .iter()
            .flat_map(|r| r.polls.iter().map(move |p| (r, p)))
            .take(500);
        for (k, (r, p)) in replayed_polls.enumerate() {
            let path = format!("/v1/jobs/{}", r.ids[p.index % r.ids.len()]);
            let rep = trace::replay(
                &mut tracer,
                k,
                &Planned::get(path).bytes(),
                target.config.max_body_bytes,
                &mut cache,
                target.workers,
            )?;
            waits.push((p.latency_ms(), rep.stages_ms));
        }
        let mut sent = submits;
        sent.extend(polls.iter().map(|s| (*s).clone()));
        let traced = Traced {
            probes: if probes {
                trace::probes(target.inner_threads, target.workers)
            } else {
                Vec::new()
            },
            rollups: RollupDiff::between(
                rollups_before.as_ref().expect("traced"),
                rollups_after.as_ref().expect("traced"),
            ),
            late_ms: polls.iter().map(|s| s.late_ms()).collect(),
            tracer,
            sent,
            opened: rounds.iter().map(|r| r.opened).sum(),
            waits,
            counters,
            jobs,
        };
        trace::finish(&mut out, &traced, "campaign", seed);
    }

    out.e2e = vec![
        ("setup_s", "s", setup_s),
        ("makespan_s", "s", makespan),
        ("peak_rss_mb", "MB", env::peak_rss_mb()),
    ];
    target.stop();
    Ok((out, provenance))
}

/// Rounds of the campaign run for another workload's job figures.
const JOB_ROUNDS: usize = 3;

/// Runs `JOB_ROUNDS` rounds of the campaign traced, on a server of its
/// own, for the traced run of a workload that does not reach the jobs
/// engine: returns its job-layer figures, counts its operations and
/// failures in `out`, and keeps its round and job lines.
pub fn jobs_figures(
    out: &mut Outcome,
    seed: u64,
    refs: &References,
) -> Result<Vec<(String, f64)>, String> {
    let (campaign, _) = run_rounds(seed, JOB_ROUNDS, true, false, refs)?;
    let t = campaign.tally;
    out.tally.attempted += t.attempted;
    out.tally.failed += t.failed;
    out.tally.errors.extend(t.errors);
    out.lines.extend(
        campaign.lines.into_iter().filter(|l| {
            l.starts_with("job ") || l.starts_with("metric ") || l.starts_with("detail ")
        }),
    );
    Ok(campaign
        .layers
        .into_iter()
        .filter(|(m, _)| m.layer == "jobs")
        .map(|(m, v)| (m.name, v))
        .collect())
}
