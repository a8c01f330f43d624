//! The server proper: configuration, the shared routing dialect, the
//! compute path, and the [`Server`] handle with graceful shutdown.
//!
//! The connection layer is the epoll event loop in
//! `crate::event_loop` (Linux only): it owns every socket, answers
//! cheap endpoints inline, and dispatches the compute endpoints to a
//! fixed worker pool.
//!
//! # Admission control
//!
//! Compute requests enter a bounded queue of depth `queue_depth` in
//! front of the worker pool; when it is full the request is **shed
//! immediately** with `503 Service Unavailable` + `Retry-After`
//! instead of queuing unboundedly — under overload the service degrades
//! to fast rejections, never to an ever-growing backlog or a panic.
//! Connections beyond `max_connections` are shed the same way at
//! accept. Each request's deadline is measured from its first byte;
//! `run_compute` checks it before and after the expensive compute and
//! answers `504 Gateway Timeout` once it has passed — a request cannot
//! burn a worker on a response nobody is waiting for.
//!
//! # Shutdown
//!
//! A shutdown request sets a flag and wakes the event loop through its
//! eventfd. The loop then stops accepting, ends job streams, closes
//! idle connections, and lets in-flight compute finish and answer
//! (`Connection: close`) before the workers exit — in-flight work is
//! finished, new work is refused.

use crate::api::{
    canonical_key, EnsembleRequest, OptimizeRequest, SimulateRequest, ThresholdRequest,
};
use crate::cache::LruCache;
use crate::handlers::{self, HandlerError};
use crate::http::{self, Request};
use crate::jobs_api::JobSubmitRequest;
use crate::jobs_exec::CampaignRunner;
use crate::metrics::{endpoint_index, Metrics};
use crate::wire::{self, Value};
use crate::ServeError;
use rumor_jobs::{JobManager, JobManagerConfig, JobStatus, JobsError};
use std::fs::File;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which connection layer drives the service. There is one: the field
/// exists so configurations and provenance records can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// One epoll event loop owns every socket; workers only run
    /// compute. Idle keep-alive pollers cost an epoll slot, not a
    /// thread. Linux only.
    #[default]
    Epoll,
}

/// Configuration of [`serve`]. `Default` matches the CLI defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port `0` for ephemeral).
    pub addr: String,
    /// Worker threads; `None` resolves via [`rumor_par::resolve_threads`]
    /// (`--threads` → `RUMOR_THREADS` → available cores).
    pub threads: Option<usize>,
    /// Compute-queue depth: compute requests dispatched to busy workers
    /// wait here; beyond it they are shed with `503`.
    pub queue_depth: usize,
    /// LRU result-cache entries (`0` disables caching).
    pub cache_entries: usize,
    /// Request-body cap in bytes (`413` beyond it).
    pub max_body_bytes: usize,
    /// Per-request wall-clock deadline in milliseconds (`504` beyond it).
    pub deadline_ms: u64,
    /// A partial request idle this long (milliseconds) is answered
    /// `408`. A connection with no request in progress (parked
    /// keep-alive, or opened and silent) is exempt, and writes have no
    /// timeout: a client that stops reading holds its connection slot
    /// until it disconnects or the server shuts down.
    pub io_timeout_ms: u64,
    /// Durable-jobs directory; `None` disables the `/v1/jobs` family
    /// (those endpoints answer `503`). Opening the directory replays
    /// its journals and resumes interrupted campaigns.
    pub jobs_dir: Option<String>,
    /// Connection layer; see [`IoBackend`].
    pub io_backend: IoBackend,
    /// Concurrent-connection cap; beyond it new connections are shed
    /// with `503` at accept time.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            threads: None,
            queue_depth: 64,
            cache_entries: 256,
            max_body_bytes: 1024 * 1024,
            deadline_ms: 30_000,
            io_timeout_ms: 5_000,
            jobs_dir: None,
            io_backend: IoBackend::Epoll,
            max_connections: 1024,
        }
    }
}

impl ServeConfig {
    /// Validates every field up front (bind errors surface later, from
    /// [`serve`] itself).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.addr.is_empty() {
            return Err(ServeError::InvalidConfig("addr: must not be empty".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_depth: must be at least 1".into(),
            ));
        }
        if let Some(0) = self.threads {
            return Err(ServeError::InvalidConfig(
                "threads: must be at least 1 when given".into(),
            ));
        }
        if self.max_body_bytes < 64 {
            return Err(ServeError::InvalidConfig(
                "max_body_bytes: must be at least 64".into(),
            ));
        }
        if self.deadline_ms == 0 {
            return Err(ServeError::InvalidConfig(
                "deadline_ms: must be at least 1".into(),
            ));
        }
        if self.io_timeout_ms == 0 {
            return Err(ServeError::InvalidConfig(
                "io_timeout_ms: must be at least 1".into(),
            ));
        }
        if let Some(dir) = &self.jobs_dir {
            if dir.is_empty() {
                return Err(ServeError::InvalidConfig(
                    "jobs_dir: must not be empty when given".into(),
                ));
            }
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections: must be at least 1".into(),
            ));
        }
        if !cfg!(target_os = "linux") {
            return Err(ServeError::InvalidConfig(
                "io_backend: epoll is only available on Linux".into(),
            ));
        }
        Ok(())
    }
}

/// Everything the event loop and its compute workers need to route and
/// execute requests.
pub(crate) struct Shared {
    pub metrics: Arc<Metrics>,
    pub cache: Arc<Mutex<LruCache>>,
    pub config: ServeConfig,
    pub workers: usize,
    pub jobs: Option<Arc<JobManager>>,
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown_and_join`] (or hold a [`ServerHandle`] and
/// `join`) for an orderly exit.
pub struct Server {
    local_addr: SocketAddr,
    metrics: Arc<Metrics>,
    handle: ServerHandle,
    workers: usize,
    threads: Vec<JoinHandle<()>>,
    jobs: Option<Arc<JobManager>>,
}

/// A cloneable handle that can request shutdown from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// The event loop's wake eventfd: it sees the flag at once, not at
    /// its next tick.
    wake: Arc<File>,
}

impl ServerHandle {
    /// Requests an orderly shutdown: stop accepting, drain, exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = (&*self.wake).write(&1u64.to_ne_bytes());
    }
}

impl Server {
    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live metrics block.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle for requesting shutdown from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// The durable job manager, when `jobs_dir` was configured.
    pub fn jobs(&self) -> Option<Arc<JobManager>> {
        self.jobs.clone()
    }

    /// Requests shutdown and joins every thread (event loop + workers),
    /// then parks the job worker: a running campaign transitions back
    /// to `queued` on disk so the next start resumes it.
    pub fn shutdown_and_join(mut self) {
        self.handle.shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(jobs) = self.jobs.take() {
            jobs.shutdown();
        }
    }

    /// Blocks until SIGTERM/SIGINT (or a programmatic
    /// [`crate::signal::request_termination`]) arrives, then shuts down
    /// gracefully: the listener closes, admitted requests drain, and
    /// every thread is joined before this returns.
    pub fn run_until_terminated(self) {
        crate::signal::install_termination_handlers();
        while !crate::signal::termination_requested()
            && !self.handle.shutdown.load(Ordering::SeqCst)
        {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown_and_join();
    }
}

/// Binds the address and starts the event loop and worker threads.
///
/// # Errors
///
/// * [`ServeError::InvalidConfig`] for a rejected configuration.
/// * [`ServeError::Bind`] when the address cannot be bound.
pub fn serve(config: &ServeConfig) -> Result<Server, ServeError> {
    config.validate()?;
    let workers = rumor_par::resolve_threads(config.threads);
    let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
        addr: config.addr.clone(),
        source,
    })?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let local_addr = listener.local_addr().map_err(ServeError::Io)?;

    let metrics = Arc::new(Metrics::new());
    let jobs = match &config.jobs_dir {
        Some(dir) => Some(
            JobManager::open(
                JobManagerConfig::new(dir),
                Arc::new(CampaignRunner { workers }),
                Arc::clone(&metrics.jobs),
            )
            .map_err(jobs_open_error)?,
        ),
        None => None,
    };
    let cache = Arc::new(Mutex::new(LruCache::new(config.cache_entries)));
    let shutdown = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        metrics: Arc::clone(&metrics),
        cache,
        config: config.clone(),
        workers,
        jobs: jobs.clone(),
    });

    let (threads, wake) = spawn_event_loop(listener, &shared, &shutdown)?;

    Ok(Server {
        local_addr,
        metrics,
        handle: ServerHandle { shutdown, wake },
        workers,
        threads,
        jobs,
    })
}

#[cfg(target_os = "linux")]
use crate::event_loop::spawn as spawn_event_loop;

#[cfg(not(target_os = "linux"))]
fn spawn_event_loop(
    _: TcpListener,
    _: &Arc<Shared>,
    _: &Arc<AtomicBool>,
) -> Result<(Vec<JoinHandle<()>>, Arc<File>), ServeError> {
    unreachable!("validate() rejects every configuration off Linux")
}

/// Maps a job-store failure at startup onto the service error space.
fn jobs_open_error(e: JobsError) -> ServeError {
    match e {
        JobsError::InvalidConfig(m) => ServeError::InvalidConfig(format!("jobs: {m}")),
        JobsError::Io { context, source } => ServeError::Io(std::io::Error::new(
            source.kind(),
            format!("jobs: {context}: {source}"),
        )),
        other => ServeError::InvalidConfig(format!("jobs: {other}")),
    }
}

/// Where a parsed request goes next: answered inline by the event
/// loop, dispatched to the compute pool, or switched to chunked
/// streaming.
pub(crate) enum Routed {
    /// Fully answered; frame and write the outcome.
    Done(Outcome),
    /// An expensive compute endpoint: run [`run_compute`].
    Compute,
    /// Stream job `job_id`'s points as chunks until it finishes.
    Stream {
        /// The (known-valid) job to stream.
        job_id: String,
    },
}

/// A fully-determined response; the event loop frames it keep-alive
/// or `Connection: close`, with every other byte the same either way.
pub(crate) struct Outcome {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers (e.g. `X-Cache`, `Retry-After`), emitted before
    /// `X-Trace-Id`.
    pub extra: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
}

impl Outcome {
    pub(crate) fn json(status: u16, value: &Value) -> Outcome {
        Outcome {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: wire::serialize(value).into_bytes(),
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Outcome {
        Outcome::json(
            status,
            &Value::obj([("error", Value::Str(message.to_string()))]),
        )
    }

    /// The capacity-shed response: `503` + `Retry-After`, same bytes
    /// from the full compute queue and the connection cap.
    pub(crate) fn overloaded() -> Outcome {
        Outcome {
            status: 503,
            content_type: "application/json",
            extra: vec![("Retry-After", "1".to_string())],
            body: br#"{"error":"server is at capacity, retry shortly"}"#.to_vec(),
        }
    }
}

/// Routes one parsed request. Pure with respect to the connection:
/// everything socket-shaped stays with the event loop.
pub(crate) fn route_request(request: &Request, shared: &Shared) -> Routed {
    if endpoint_index(&request.method, &request.target).is_none() {
        let target = request.target.as_str();
        let known_path = matches!(
            target,
            "/healthz"
                | "/metrics"
                | "/v1/simulate"
                | "/v1/threshold"
                | "/v1/optimize"
                | "/v1/ensemble"
        ) || target == "/v1/jobs"
            || target.starts_with("/v1/jobs/");
        let (status, message) = if known_path {
            (405, "method not allowed for this endpoint")
        } else {
            (404, "no such endpoint")
        };
        return Routed::Done(Outcome::error(status, message));
    }

    match (request.method.as_str(), request.target.as_str()) {
        ("GET", "/healthz") => Routed::Done(Outcome::json(
            200,
            &Value::obj([("status", Value::Str("ok".into()))]),
        )),
        ("GET", "/metrics") => Routed::Done(Outcome {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            extra: Vec::new(),
            body: shared.metrics.render().into_bytes(),
        }),
        (method, target) if target == "/v1/jobs" || target.starts_with("/v1/jobs/") => {
            jobs_request(request, method, target, shared)
        }
        _ => Routed::Compute,
    }
}

/// The stateful `/v1/jobs` family. Responses are never cached — they
/// describe mutable job state, not a pure function of the request.
fn jobs_request(request: &Request, method: &str, target: &str, shared: &Shared) -> Routed {
    let Some(manager) = &shared.jobs else {
        return Routed::Done(Outcome::error(
            503,
            "durable jobs are not enabled (start the server with a jobs directory)",
        ));
    };

    // `/v1/jobs` | `/v1/jobs/{id}` | `/v1/jobs/{id}/{action}`.
    let rest = target.strip_prefix("/v1/jobs").unwrap_or_default();
    let mut parts = rest.trim_start_matches('/').splitn(2, '/');
    let id = parts.next().unwrap_or_default();
    let action = parts.next().unwrap_or_default();

    if method == "GET" && !id.is_empty() && action == "stream" {
        // Existence is checked here so an unknown job answers a plain
        // 404 instead of opening a stream that instantly dies.
        return match manager.status(id) {
            Some(_) => Routed::Stream {
                job_id: id.to_string(),
            },
            None => Routed::Done(Outcome::error(404, &format!("unknown job {id:?}"))),
        };
    }

    let outcome: Result<(u16, Value), (u16, String)> = match (method, id, action) {
        ("POST", "", "") => jobs_submit(request, manager),
        ("GET", "", "") => Ok((
            200,
            Value::obj([(
                "jobs",
                Value::Arr(manager.list().iter().map(status_value).collect()),
            )]),
        )),
        ("GET", id, "") => match manager.status(id) {
            Some(status) => Ok((200, status_value(&status))),
            None => Err((404, format!("unknown job {id:?}"))),
        },
        ("GET", id, "results") => jobs_results(manager, id),
        ("POST", id, "cancel") => match manager.cancel(id) {
            Ok(state) => Ok((
                200,
                Value::obj([
                    ("id", Value::Str(id.to_string())),
                    ("state", Value::Str(state.as_str().to_string())),
                ]),
            )),
            Err(e) => Err(jobs_error_status(e)),
        },
        ("POST", id, "resume") => match manager.resume(id) {
            Ok(()) => Ok((
                200,
                Value::obj([
                    ("id", Value::Str(id.to_string())),
                    ("state", Value::Str("queued".to_string())),
                ]),
            )),
            Err(e) => Err(jobs_error_status(e)),
        },
        ("GET" | "POST", _, _) => Err((404, "no such jobs endpoint".to_string())),
        _ => Err((405, "method not allowed for this endpoint".to_string())),
    };
    Routed::Done(match outcome {
        Ok((status, value)) => Outcome::json(status, &value),
        Err((status, message)) => Outcome::error(status, &message),
    })
}

fn jobs_submit(
    request: &Request,
    manager: &Arc<JobManager>,
) -> Result<(u16, Value), (u16, String)> {
    let body_text = std::str::from_utf8(&request.body)
        .map_err(|_| (400, "body is not valid UTF-8".to_string()))?;
    let parsed = if body_text.trim().is_empty() {
        Value::Obj(Vec::new())
    } else {
        wire::parse(body_text).map_err(|e| (400, e.to_string()))?
    };
    let submission = JobSubmitRequest::from_value(&parsed).map_err(|e| (400, e.to_string()))?;
    let id = manager
        .submit(submission.to_spec())
        .map_err(jobs_error_status)?;
    Ok((
        200,
        Value::obj([
            ("id", Value::Str(id)),
            ("state", Value::Str("queued".to_string())),
            ("kind", Value::Str(submission.kind.as_str().to_string())),
            ("points", Value::Num(submission.points as f64)),
        ]),
    ))
}

/// One durable result row as it appears in both the `results` body and
/// the stream: parsed payload, or a placeholder for opaque bytes.
fn row_value(index: u64, payload: &[u8]) -> Value {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| wire::parse(text).ok())
        .unwrap_or_else(|| Value::obj([("point", Value::Num(index as f64)), ("raw", Value::Null)]))
}

/// The quarantine manifest: which points are missing, after how many
/// attempts, and why. The per-entry key is `index` (not `point`) so
/// result bodies keep exactly one `"point"` occurrence per row.
fn manifest_value(status: &JobStatus) -> Value {
    Value::Arr(
        status
            .manifest
            .iter()
            .map(|entry| {
                Value::obj([
                    ("index", Value::Num(entry.point as f64)),
                    ("attempts", Value::Num(f64::from(entry.attempts))),
                    ("error", Value::Str(entry.error.clone())),
                ])
            })
            .collect(),
    )
}

/// The terminal summary shared verbatim between the `results` body and
/// the final stream chunk, so streaming consumers and later refetchers
/// see identical terminal payloads (manifest included).
fn summary_fields(status: &JobStatus) -> Vec<(&'static str, Value)> {
    vec![
        ("state", Value::Str(status.state.as_str().to_string())),
        ("total", Value::Num(status.total as f64)),
        ("completed", Value::Num(status.completed as f64)),
        (
            "quarantined",
            Value::Arr(
                status
                    .quarantined
                    .iter()
                    .map(|&i| Value::Num(i as f64))
                    .collect(),
            ),
        ),
        ("manifest", manifest_value(status)),
        ("missing", Value::Num(status.missing() as f64)),
    ]
}

/// Assembles the durable result set. The body deliberately excludes the
/// job ID and timing so two campaigns over the same spec — one
/// uninterrupted, one killed and recovered — produce byte-identical
/// bodies when complete.
fn jobs_results(manager: &Arc<JobManager>, id: &str) -> Result<(u16, Value), (u16, String)> {
    let status = manager
        .status(id)
        .ok_or_else(|| (404, format!("unknown job {id:?}")))?;
    let rows = manager.results(id).map_err(jobs_error_status)?;
    let results = rows
        .iter()
        .map(|(index, payload)| row_value(*index, payload))
        .collect();
    let mut fields = summary_fields(&status);
    fields.push(("results", Value::Arr(results)));
    Ok((200, Value::obj(fields)))
}

fn status_value(status: &JobStatus) -> Value {
    Value::obj([
        ("id", Value::Str(status.id.clone())),
        ("kind", Value::Str(status.kind.clone())),
        ("state", Value::Str(status.state.as_str().to_string())),
        ("total", Value::Num(status.total as f64)),
        ("completed", Value::Num(status.completed as f64)),
        (
            "quarantined",
            Value::Arr(
                status
                    .quarantined
                    .iter()
                    .map(|&i| Value::Num(i as f64))
                    .collect(),
            ),
        ),
        ("manifest", manifest_value(status)),
        ("missing", Value::Num(status.missing() as f64)),
        ("retries", Value::Num(status.retries as f64)),
        (
            "last_error",
            match &status.last_error {
                Some(m) => Value::Str(m.clone()),
                None => Value::Null,
            },
        ),
    ])
}

/// Incremental cursor over a job's durable results: each poll frames
/// any newly-completed points as chunks
/// (`one JSON row + \n` per chunk) and, once the job reaches a terminal
/// state, appends the summary chunk — the same fields as the `results`
/// body minus the rows — and the terminal chunk.
pub(crate) struct JobStream {
    job_id: String,
    emitted: usize,
}

/// One poll's worth of stream output.
pub(crate) struct StreamPoll {
    /// Ready-to-write chunked framing (possibly empty).
    pub bytes: Vec<u8>,
    /// Data chunks framed in `bytes` (for the stream-chunk counter).
    pub chunks: u64,
    /// Whether the terminal chunk has been framed; stop polling.
    pub done: bool,
}

impl JobStream {
    pub(crate) fn new(job_id: &str) -> JobStream {
        JobStream {
            job_id: job_id.to_string(),
            emitted: 0,
        }
    }

    /// Frames everything new since the last poll.
    ///
    /// # Errors
    ///
    /// Propagates store failures (and the job vanishing mid-stream);
    /// the caller terminates the stream.
    pub(crate) fn poll(&mut self, manager: &JobManager) -> Result<StreamPoll, JobsError> {
        let Some(status) = manager.status(&self.job_id) else {
            return Err(JobsError::UnknownJob(self.job_id.clone()));
        };
        let finished = status.state.is_finished();
        let mut bytes = Vec::new();
        let mut chunks = 0u64;
        // Points execute in ascending index order, so the sorted result
        // rows are also completion order and `emitted` is a plain
        // prefix length. Reading the store only when the count moved
        // keeps an idle poll cheap.
        if finished || (status.completed as usize) > self.emitted {
            let rows = manager.results(&self.job_id)?;
            for (index, payload) in rows.iter().skip(self.emitted) {
                let mut line = wire::serialize(&row_value(*index, payload)).into_bytes();
                line.push(b'\n');
                bytes.extend_from_slice(&http::chunk_bytes(&line));
                chunks += 1;
            }
            self.emitted = rows.len();
        }
        if finished {
            let mut line = wire::serialize(&Value::obj(summary_fields(&status))).into_bytes();
            line.push(b'\n');
            bytes.extend_from_slice(&http::chunk_bytes(&line));
            bytes.extend_from_slice(http::terminal_chunk_bytes());
            chunks += 1;
        }
        Ok(StreamPoll {
            bytes,
            chunks,
            done: finished,
        })
    }
}

fn jobs_error_status(e: JobsError) -> (u16, String) {
    let status = match &e {
        JobsError::UnknownJob(_) => 404,
        JobsError::InvalidConfig(_) | JobsError::InvalidTransition { .. } => 400,
        JobsError::Io { .. } | JobsError::Corrupt(_) => 500,
    };
    (status, e.to_string())
}

/// The `POST /v1/*` path: parse JSON → validate → cache lookup →
/// compute → cache fill, with deadline checkpoints around the
/// expensive stages. Pure with respect to the connection; it runs on a
/// compute worker.
pub(crate) fn run_compute(
    request: &Request,
    shared: &Shared,
    began: Instant,
    trace_id: u64,
) -> Outcome {
    let metrics = &shared.metrics;
    let deadline = Duration::from_millis(shared.config.deadline_ms);
    let target = request.target.as_str();
    let body_text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => {
            metrics.rejected_malformed.inc();
            return Outcome::error(400, "body is not valid UTF-8");
        }
    };
    // An empty body means "all defaults" — friendlier than demanding {}.
    let parsed = if body_text.trim().is_empty() {
        Ok(Value::Obj(Vec::new()))
    } else {
        wire::parse(body_text)
    };
    let parsed = match parsed {
        Ok(v) => v,
        Err(e) => {
            metrics.rejected_malformed.inc();
            return Outcome::error(400, &e.to_string());
        }
    };

    // Validate into the canonical request form.
    let canonical = match target {
        "/v1/simulate" => SimulateRequest::from_value(&parsed).map(|r| r.canonical()),
        "/v1/threshold" => ThresholdRequest::from_value(&parsed).map(|r| r.canonical()),
        "/v1/optimize" => OptimizeRequest::from_value(&parsed).map(|r| r.canonical()),
        "/v1/ensemble" => EnsembleRequest::from_value(&parsed).map(|r| r.canonical()),
        _ => unreachable!("routed endpoints are exhaustive"),
    };
    let canonical = match canonical {
        Ok(v) => v,
        Err(e) => return Outcome::error(400, &e.to_string()),
    };
    let key = canonical_key(target, &canonical);

    if let Ok(mut cache) = shared.cache.lock() {
        if let Some(body) = cache.get(&key) {
            metrics.cache_hits.inc();
            return Outcome {
                status: 200,
                content_type: "application/json",
                extra: vec![("X-Cache", "hit".to_string())],
                body: body.to_vec(),
            };
        }
    }
    metrics.cache_misses.inc();

    // Checkpoint 2: don't start an expensive compute we can't finish.
    if began.elapsed() >= deadline {
        metrics.deadline_exceeded.inc();
        return Outcome::error(504, "deadline exceeded before compute");
    }

    // The canonical form re-parses by construction (proptested), so the
    // unwraps here cannot fire on a value we just built.
    let mut compute_span = rumor_obs::span("serve.compute");
    if compute_span.active() {
        compute_span.field("trace", trace_id);
        compute_span.field("target", target);
    }
    let computed = match target {
        "/v1/simulate" => {
            handlers::simulate(&SimulateRequest::from_value(&canonical).expect("canonical"))
        }
        "/v1/threshold" => {
            handlers::threshold(&ThresholdRequest::from_value(&canonical).expect("canonical"))
        }
        "/v1/optimize" => {
            handlers::optimize(&OptimizeRequest::from_value(&canonical).expect("canonical"))
        }
        "/v1/ensemble" => handlers::ensemble(
            &EnsembleRequest::from_value(&canonical).expect("canonical"),
            shared.workers,
        ),
        _ => unreachable!("routed endpoints are exhaustive"),
    };
    drop(compute_span);
    let value = match computed {
        Ok(value) => value,
        Err(HandlerError::BadRequest(m)) => return Outcome::error(400, &m),
        Err(HandlerError::Internal(m)) => return Outcome::error(500, &m),
    };
    let body: Arc<[u8]> = Arc::from(wire::serialize(&value).into_bytes().into_boxed_slice());

    // The result is valid regardless of timing, so cache it either way;
    // checkpoint 3 only decides what this client hears.
    if let Ok(mut cache) = shared.cache.lock() {
        if cache.insert(key, Arc::clone(&body)) {
            metrics.cache_evictions.inc();
        }
    }
    if began.elapsed() >= deadline {
        metrics.deadline_exceeded.inc();
        return Outcome::error(504, "deadline exceeded during compute");
    }
    Outcome {
        status: 200,
        content_type: "application/json",
        extra: vec![("X-Cache", "miss".to_string())],
        body: body.to_vec(),
    }
}
