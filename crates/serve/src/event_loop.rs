//! The connection layer: one event-loop thread owns every socket,
//! workers only run compute.
//!
//! A thousand idle keep-alive pollers cost an epoll registration each,
//! not a thread each: the loop parses requests incrementally
//! ([`crate::http::RequestParser`]), answers cheap endpoints inline, and
//! hands expensive compute to a bounded worker pool. The status
//! contracts (`503` shed, `413` body cap, `408` slowloris sweep, `504`
//! deadline) are pinned byte for byte by the golden responses under
//! `crates/serve/tests/golden/`.
//!
//! Everything is raw syscalls through the glibc symbols std already
//! links (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`) — the
//! vendored-only build has no libc crate, mirroring how
//! [`crate::signal`] reaches `signal(2)`.
//!
//! # Shape
//!
//! * Token `0` is the listener, token `1` the wake eventfd, tokens
//!   `2..` are connections (monotonic, never reused).
//! * All registrations are level-triggered; interest is recomputed
//!   after every state change (`EPOLLIN` only while reading, `EPOLLOUT`
//!   only while output is buffered) so the loop never spins on a
//!   writable socket with nothing to say.
//! * Workers receive `(token, request)` over a bounded channel, run
//!   `server::run_compute` inside the request's
//!   `serve.request` span, and post the outcome back over an
//!   unbounded channel + an eventfd write that wakes `epoll_wait`.
//!   Completions for tokens that died in the meantime are dropped — a
//!   killed client reclaims its slot immediately, the compute result is
//!   simply discarded (and still cached).
//! * A 20 ms tick sweeps slowloris connections (`408` once a partial
//!   request outlives the I/O timeout; idle keep-alive connections are
//!   exempt — parking is their whole point) and pumps job streams. A
//!   shutdown request writes the wake eventfd rather than wait for it.
//! * Every response carrying an `X-Trace-Id` joins one server-side
//!   record: the `serve.request` span (inline answers, rejections, the
//!   `408` sweep, compute) or, for a `503` shed, the `serve.shed` event.

use crate::http::{self, Parsed, ReadError, RequestParser};
use crate::metrics::{endpoint_index, ENDPOINTS};
use crate::server::{route_request, run_compute, JobStream, Outcome, Routed, Shared};
use crate::ServeError;
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw epoll/eventfd glue. Constants and struct layout follow the
/// kernel UAPI; x86_64 is the one ABI where `epoll_event` is packed.
mod sys {
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    pub fn epoll_create() -> std::io::Result<OwnedFd> {
        // SAFETY: epoll_create1 returns a fresh fd (or -1); ownership is
        // transferred to the OwnedFd exactly once.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    pub fn new_eventfd() -> std::io::Result<std::fs::File> {
        // SAFETY: as above; a File over an eventfd supports plain
        // 8-byte reads/writes of the counter.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(unsafe { std::fs::File::from_raw_fd(fd) })
    }

    pub fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        // SAFETY: the buffer is valid for `events.len()` entries.
        let rc = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if rc < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

/// Loop tick: bounds slowloris-sweep latency and stream-pump latency.
const TICK: Duration = Duration::from_millis(20);

/// Tokens below this are the listener (0) and the wake eventfd (1).
const FIRST_CONN_TOKEN: u64 = 2;

/// One compute request in flight to the worker pool.
struct ComputeTask {
    token: u64,
    request: http::Request,
    began: Instant,
    trace_id: u64,
}

/// Per-connection state machine.
enum ConnState {
    /// Accumulating request bytes.
    Reading,
    /// Dispatched to the worker pool; reads are parked (backpressure —
    /// pipelined bytes wait in the kernel buffer).
    Computing,
    /// Chunk-streaming a job's results; pumped on ticks.
    Streaming(JobStream),
    /// Only draining buffered output, then closing.
    Closing,
}

/// Metadata of the request currently being computed or streamed, for
/// the per-endpoint metrics record once it finishes.
struct ReqMeta {
    endpoint: Option<usize>,
    started: Instant,
    keep_alive: bool,
    trace_id: u64,
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    out: Vec<u8>,
    out_pos: usize,
    /// Registered epoll interest (recomputed after every change).
    interest: u32,
    /// Last byte activity, for the slowloris sweep.
    last_activity: Instant,
    /// When the first byte of the in-progress request arrived: its
    /// deadline runs from here, covering read and queue time.
    began: Option<Instant>,
    close_after_write: bool,
    req: Option<ReqMeta>,
}

impl Conn {
    fn new(stream: TcpStream, max_body: usize, now: Instant) -> Conn {
        Conn {
            stream,
            parser: RequestParser::new(max_body),
            state: ConnState::Reading,
            out: Vec::new(),
            out_pos: 0,
            interest: sys::EPOLLIN | sys::EPOLLRDHUP,
            last_activity: now,
            began: None,
            close_after_write: false,
            req: None,
        }
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The interest mask this connection's state wants.
    fn wanted_interest(&self) -> u32 {
        let mut events = sys::EPOLLRDHUP;
        if matches!(self.state, ConnState::Reading) {
            events |= sys::EPOLLIN;
        }
        if self.has_output() {
            events |= sys::EPOLLOUT;
        }
        events
    }
}

/// What handling an event decided about the connection's fate.
enum Fate {
    Keep,
    Close,
}

/// Result of a non-blocking flush attempt.
enum FlushResult {
    /// Output fully drained.
    Drained,
    /// The socket would block; more later.
    Pending,
    /// The peer is gone.
    Dead,
}

/// Starts the event-loop thread plus the compute worker pool. Returns
/// every spawned thread for joining, and the loop's wake eventfd.
pub(crate) fn spawn(
    listener: TcpListener,
    shared: &Arc<Shared>,
    shutdown: &Arc<AtomicBool>,
) -> Result<(Vec<JoinHandle<()>>, Arc<File>), ServeError> {
    let epfd = sys::epoll_create().map_err(ServeError::Io)?;
    let wake = Arc::new(sys::new_eventfd().map_err(ServeError::Io)?);
    let (task_tx, task_rx) =
        std::sync::mpsc::sync_channel::<ComputeTask>(shared.config.queue_depth);
    let task_rx = Arc::new(Mutex::new(task_rx));
    let (done_tx, done_rx) = std::sync::mpsc::channel::<(u64, Outcome)>();

    let mut threads = Vec::with_capacity(shared.workers + 1);
    for worker_id in 0..shared.workers {
        let task_rx = Arc::clone(&task_rx);
        let shared = Arc::clone(shared);
        let done_tx = done_tx.clone();
        let wake = Arc::clone(&wake);
        threads.push(
            std::thread::Builder::new()
                .name(format!("rumor-serve-compute-{worker_id}"))
                .spawn(move || compute_worker(&task_rx, &shared, &done_tx, &wake))
                .map_err(ServeError::Io)?,
        );
    }
    drop(done_tx);

    let event_loop = EventLoop {
        epfd,
        wake: Arc::clone(&wake),
        listener,
        shared: Arc::clone(shared),
        shutdown: Arc::clone(shutdown),
        task_tx,
        done_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        draining: false,
    };
    threads.push(
        std::thread::Builder::new()
            .name("rumor-serve-epoll".to_string())
            .spawn(move || event_loop.run())
            .map_err(ServeError::Io)?,
    );
    Ok((threads, wake))
}

/// A compute worker: dequeue, run, post the outcome, wake the loop.
fn compute_worker(
    rx: &Mutex<Receiver<ComputeTask>>,
    shared: &Shared,
    done: &Sender<(u64, Outcome)>,
    wake: &File,
) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let task = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(task) = task else {
            return; // Queue closed and drained: orderly exit.
        };
        shared.metrics.ready_queue_depth.dec();
        let outcome = {
            let mut sp = request_span(task.trace_id);
            let outcome = run_compute(&task.request, shared, task.began, task.trace_id);
            if sp.active() {
                let endpoint = endpoint_index(&task.request.method, &task.request.target);
                sp.field("endpoint", endpoint_name(endpoint));
                sp.field("status", u64::from(outcome.status));
            }
            outcome
        };
        if done.send((task.token, outcome)).is_err() {
            return;
        }
        // Best-effort wake; EAGAIN on a saturated counter still wakes.
        let _ = (&*wake).write(&1u64.to_ne_bytes());
    }
}

struct EventLoop {
    epfd: std::os::fd::OwnedFd,
    wake: Arc<File>,
    listener: TcpListener,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    task_tx: SyncSender<ComputeTask>,
    done_rx: Receiver<(u64, Outcome)>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let epfd = self.epfd.as_raw_fd();
        if sys::ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            self.listener.as_raw_fd(),
            sys::EPOLLIN,
            0,
        )
        .is_err()
        {
            return;
        }
        if sys::ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            self.wake.as_raw_fd(),
            sys::EPOLLIN,
            1,
        )
        .is_err()
        {
            return;
        }

        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                // Dropping `task_tx` (when this returns) closes the
                // compute queue: workers drain and exit.
                return;
            }
            let n = match sys::wait(epfd, &mut events, TICK.as_millis() as i32) {
                Ok(n) => n,
                Err(_) => return,
            };
            self.shared.metrics.epoll_wakeups.inc();
            for ev in &events[..n] {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    0 => {
                        if !self.draining {
                            self.accept_ready();
                        }
                    }
                    1 => self.drain_wake(),
                    _ => self.conn_event(token, bits),
                }
            }
            self.drain_completions();
            self.sweep();
        }
    }

    /// Accepts until the listener would block, shedding beyond the
    /// connection cap.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.shared.config.max_connections {
                        self.shed_connection(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    let conn = Conn::new(stream, self.shared.config.max_body_bytes, Instant::now());
                    if sys::ctl(
                        self.epfd.as_raw_fd(),
                        sys::EPOLL_CTL_ADD,
                        conn.stream.as_raw_fd(),
                        conn.interest,
                        token,
                    )
                    .is_err()
                    {
                        continue;
                    }
                    self.next_token += 1;
                    self.conns.insert(token, conn);
                    self.shared.metrics.admitted.inc();
                    self.shared.metrics.epoll_connections.inc();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break, // Transient accept failure (e.g. EMFILE).
            }
        }
    }

    /// Best-effort `503` past the connection cap — the same bytes a
    /// full compute queue sheds with.
    fn shed_connection(&self, mut stream: TcpStream) {
        self.shared.metrics.rejected_max_connections.inc();
        let trace_id = rumor_obs::next_trace_id();
        let outcome = Outcome::overloaded();
        let bytes = frame_outcome(&outcome, trace_id, false);
        let _ = stream.set_nonblocking(true);
        let _ = stream.write(&bytes);
        rumor_obs::event("serve.shed", &[("trace", trace_id.into())]);
    }

    /// Drains the eventfd counter so level-triggering quiesces.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 8];
        while (&*self.wake).read(&mut buf).is_ok() {}
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let hangup = bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0;
        let rdhup = bits & sys::EPOLLRDHUP != 0;

        let mut fate = Fate::Keep;
        if bits & sys::EPOLLIN != 0 && matches!(conn.state, ConnState::Reading) {
            fate = self.on_readable(token, &mut conn);
        }
        if matches!(fate, Fate::Keep) && bits & sys::EPOLLOUT != 0 {
            fate = self.after_flush(&mut conn);
        }
        if hangup {
            fate = Fate::Close;
        } else if rdhup && matches!(fate, Fate::Keep) {
            // The peer half-closed. Anything it still wanted to say was
            // consumed by the read above; if we are not mid-response,
            // there is nothing left to deliver.
            if !conn.has_output() && !matches!(conn.state, ConnState::Streaming(_)) {
                fate = Fate::Close;
            }
        }
        self.settle(token, conn, fate);
    }

    /// Re-inserts or closes the connection and syncs epoll interest.
    fn settle(&mut self, token: u64, mut conn: Conn, fate: Fate) {
        match fate {
            Fate::Close => self.close_conn(conn),
            Fate::Keep => {
                let wanted = conn.wanted_interest();
                if wanted != conn.interest {
                    conn.interest = wanted;
                    if sys::ctl(
                        self.epfd.as_raw_fd(),
                        sys::EPOLL_CTL_MOD,
                        conn.stream.as_raw_fd(),
                        wanted,
                        token,
                    )
                    .is_err()
                    {
                        self.close_conn(conn);
                        return;
                    }
                }
                self.conns.insert(token, conn);
            }
        }
    }

    fn close_conn(&mut self, conn: Conn) {
        let _ = sys::ctl(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            conn.stream.as_raw_fd(),
            0,
            0,
        );
        self.shared.metrics.epoll_connections.dec();
        // `conn.stream` drops here, closing the fd and reclaiming the
        // slot; a completion still in flight for this token is dropped
        // in `drain_completions`.
    }

    /// Reads until the socket would block, feeding the incremental
    /// parser and handling every completed request.
    fn on_readable(&mut self, token: u64, conn: &mut Conn) -> Fate {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if !matches!(conn.state, ConnState::Reading) {
                return Fate::Keep; // Dispatched; further bytes wait.
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer finished sending. A half-open client with a
                    // response still buffered gets it; otherwise close.
                    return if conn.has_output() {
                        Fate::Keep
                    } else {
                        Fate::Close
                    };
                }
                Ok(n) => {
                    let now = Instant::now();
                    conn.last_activity = now;
                    if conn.began.is_none() {
                        conn.began = Some(now);
                    }
                    let parsed = conn.parser.feed(&buf[..n]);
                    if let Fate::Close = self.on_parsed(token, conn, parsed) {
                        return Fate::Close;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Fate::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Fate::Close,
            }
        }
    }

    /// Handles one parse step; loops `advance()` for pipelined requests
    /// already buffered.
    fn on_parsed(&mut self, token: u64, conn: &mut Conn, parsed: Parsed) -> Fate {
        let mut parsed = parsed;
        loop {
            match parsed {
                Parsed::NeedMore => {
                    if conn.parser.take_wants_continue() {
                        conn.out.extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                        if let FlushResult::Dead = flush_conn(conn) {
                            return Fate::Close;
                        }
                    }
                    return Fate::Keep;
                }
                Parsed::Failed(e) => return finish(conn, &self.reject_request(&e)),
                Parsed::Ready(request) => {
                    if let Fate::Close = self.handle_request(token, conn, request) {
                        return Fate::Close;
                    }
                    if !matches!(conn.state, ConnState::Reading) {
                        return Fate::Keep;
                    }
                    parsed = conn.parser.advance();
                }
            }
        }
    }

    /// Frames the `400/413/501` answer to a byte stream that can never
    /// become a valid request.
    fn reject_request(&self, e: &ReadError) -> Vec<u8> {
        let metrics = &self.shared.metrics;
        let status = match e {
            ReadError::BodyTooLarge { .. } => {
                metrics.rejected_body_too_large.inc();
                413
            }
            ReadError::Unsupported(_) => {
                metrics.rejected_malformed.inc();
                501
            }
            ReadError::Malformed(_) => {
                metrics.rejected_malformed.inc();
                400
            }
        };
        let trace_id = rumor_obs::next_trace_id();
        let mut sp = request_span(trace_id);
        sp.field("status", u64::from(status));
        let outcome = Outcome::error(status, &e.to_string());
        frame_outcome(&outcome, trace_id, false)
    }

    /// Routes one complete request.
    fn handle_request(&mut self, token: u64, conn: &mut Conn, request: http::Request) -> Fate {
        let trace_id = rumor_obs::next_trace_id();
        let keep_alive = !self.draining && request.keep_alive();
        let endpoint = endpoint_index(&request.method, &request.target);
        let started = Instant::now();
        let began = conn.began.take().unwrap_or(started);

        match route_request(&request, &self.shared) {
            Routed::Done(outcome) => {
                let mut sp = request_span(trace_id);
                if sp.active() {
                    sp.field("endpoint", endpoint_name(endpoint));
                    sp.field("status", u64::from(outcome.status));
                }
                self.enqueue_response(conn, endpoint, started, trace_id, keep_alive, &outcome);
                match flush_conn(conn) {
                    FlushResult::Dead => Fate::Close,
                    FlushResult::Drained if conn.close_after_write => Fate::Close,
                    _ => Fate::Keep,
                }
            }
            Routed::Compute => {
                let task = ComputeTask {
                    token,
                    request,
                    began,
                    trace_id,
                };
                match self.task_tx.try_send(task) {
                    Ok(()) => {
                        conn.state = ConnState::Computing;
                        conn.req = Some(ReqMeta {
                            endpoint,
                            started,
                            keep_alive,
                            trace_id,
                        });
                        self.shared.metrics.in_flight.inc();
                        self.shared.metrics.ready_queue_depth.inc();
                        Fate::Keep
                    }
                    Err(TrySendError::Full(_)) => {
                        self.shared.metrics.rejected_queue_full.inc();
                        rumor_obs::event("serve.shed", &[("trace", trace_id.into())]);
                        let outcome = Outcome::overloaded();
                        self.enqueue_response(
                            conn, endpoint, started, trace_id, keep_alive, &outcome,
                        );
                        match flush_conn(conn) {
                            FlushResult::Dead => Fate::Close,
                            FlushResult::Drained if conn.close_after_write => Fate::Close,
                            _ => Fate::Keep,
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => Fate::Close,
                }
            }
            Routed::Stream { job_id } => {
                conn.out.extend_from_slice(&http::stream_head_bytes(
                    200,
                    http::reason(200),
                    "application/json",
                ));
                conn.state = ConnState::Streaming(JobStream::new(&job_id));
                conn.close_after_write = true; // The stream head says `Connection: close`.
                conn.req = Some(ReqMeta {
                    endpoint,
                    started,
                    keep_alive: false,
                    trace_id,
                });
                self.pump_stream(conn)
            }
        }
    }

    /// Frames a finished outcome onto the connection and records the
    /// endpoint series.
    fn enqueue_response(
        &self,
        conn: &mut Conn,
        endpoint: Option<usize>,
        started: Instant,
        trace_id: u64,
        keep_alive: bool,
        outcome: &Outcome,
    ) {
        conn.out
            .extend_from_slice(&frame_outcome(outcome, trace_id, keep_alive));
        if !keep_alive {
            conn.close_after_write = true;
            conn.state = ConnState::Closing;
        }
        if let Some(idx) = endpoint {
            self.shared
                .metrics
                .record(idx, outcome.status, started.elapsed().as_millis() as u64);
        }
    }

    /// Flush plus the post-drain transitions (close, or resume parsing
    /// pipelined bytes).
    fn after_flush(&mut self, conn: &mut Conn) -> Fate {
        match flush_conn(conn) {
            FlushResult::Dead => Fate::Close,
            FlushResult::Pending => Fate::Keep,
            FlushResult::Drained => {
                if conn.close_after_write && !matches!(conn.state, ConnState::Streaming(_)) {
                    return Fate::Close;
                }
                Fate::Keep
            }
        }
    }

    /// Posts newly-durable chunks of a job stream; closes once the
    /// terminal chunk is fully written.
    fn pump_stream(&mut self, conn: &mut Conn) -> Fate {
        if conn.has_output() {
            // Still draining the previous batch; EPOLLOUT drives it.
            return match flush_conn(conn) {
                FlushResult::Dead => Fate::Close,
                _ => Fate::Keep,
            };
        }
        let ConnState::Streaming(cursor) = &mut conn.state else {
            return Fate::Keep;
        };
        let Some(manager) = &self.shared.jobs else {
            return Fate::Close;
        };
        let done = match cursor.poll(manager) {
            Ok(poll) => {
                if !poll.bytes.is_empty() {
                    self.shared.metrics.stream_chunks.add(poll.chunks);
                    conn.out.extend_from_slice(&poll.bytes);
                }
                poll.done
            }
            Err(_) => {
                conn.out.extend_from_slice(http::terminal_chunk_bytes());
                true
            }
        };
        if done {
            if let Some(meta) = conn.req.take() {
                if let Some(idx) = meta.endpoint {
                    self.shared
                        .metrics
                        .record(idx, 200, meta.started.elapsed().as_millis() as u64);
                }
            }
            conn.state = ConnState::Closing;
        }
        match flush_conn(conn) {
            FlushResult::Dead => Fate::Close,
            FlushResult::Drained if done => Fate::Close,
            _ => Fate::Keep,
        }
    }

    /// Applies compute outcomes posted by the worker pool. Tokens whose
    /// connection died are dropped — the result is already cached, only
    /// the delivery is moot.
    fn drain_completions(&mut self) {
        while let Ok((token, outcome)) = self.done_rx.try_recv() {
            self.shared.metrics.in_flight.dec();
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            let Some(meta) = conn.req.take() else {
                self.close_conn(conn);
                continue;
            };
            conn.state = ConnState::Reading;
            self.enqueue_response(
                &mut conn,
                meta.endpoint,
                meta.started,
                meta.trace_id,
                meta.keep_alive && !self.draining,
                &outcome,
            );
            let fate = match flush_conn(&mut conn) {
                FlushResult::Dead => Fate::Close,
                FlushResult::Drained if conn.close_after_write => Fate::Close,
                FlushResult::Drained => {
                    // Pipelined bytes may already hold the next request.
                    let parsed = conn.parser.advance();
                    self.on_parsed(token, &mut conn, parsed)
                }
                FlushResult::Pending => Fate::Keep,
            };
            self.settle(token, conn, fate);
        }
    }

    /// The periodic tick: `408` stalled partial requests, pump streams.
    fn sweep(&mut self) {
        let io_timeout = Duration::from_millis(self.shared.config.io_timeout_ms);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            let fate = match &conn.state {
                ConnState::Reading
                    if !conn.parser.is_idle() && conn.last_activity.elapsed() >= io_timeout =>
                {
                    // Slowloris: a partial request outlived the I/O
                    // timeout. Idle keep-alive connections (no bytes of
                    // a next request) are exempt.
                    self.shared.metrics.read_timeouts.inc();
                    let trace_id = rumor_obs::next_trace_id();
                    let mut sp = request_span(trace_id);
                    sp.field("status", 408u64);
                    let outcome = Outcome::error(408, "timed out reading the request");
                    finish(&mut conn, &frame_outcome(&outcome, trace_id, false))
                }
                ConnState::Streaming(_) => self.pump_stream(&mut conn),
                ConnState::Closing if !conn.has_output() => Fate::Close,
                _ => Fate::Keep,
            };
            self.settle(token, conn, fate);
        }
    }

    /// Shutdown observed: stop accepting, terminate streams, drop idle
    /// and mid-read connections, and let in-flight compute finish.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = sys::ctl(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            self.listener.as_raw_fd(),
            0,
            0,
        );
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            let fate = match &conn.state {
                // In-flight compute drains; its response closes the
                // connection (`draining` forces `Connection: close`).
                ConnState::Computing => Fate::Keep,
                // End the stream early: the missing summary chunk tells
                // the consumer the stream died.
                ConnState::Streaming(_) => finish(&mut conn, http::terminal_chunk_bytes()),
                _ if conn.has_output() => {
                    conn.close_after_write = true;
                    conn.state = ConnState::Closing;
                    Fate::Keep
                }
                _ => Fate::Close,
            };
            self.settle(token, conn, fate);
        }
    }
}

/// Opens the `serve.request` span that joins a response's
/// `X-Trace-Id` to the server-side trace.
fn request_span(trace_id: u64) -> rumor_obs::Span {
    let mut sp = rumor_obs::span("serve.request");
    sp.field("trace", trace_id);
    sp
}

/// The `endpoint` span field: the metrics series name, or `other`.
fn endpoint_name(endpoint: Option<usize>) -> &'static str {
    endpoint.map_or("other", |idx| ENDPOINTS[idx])
}

/// Renders an [`Outcome`] with the trace header appended last.
fn frame_outcome(outcome: &Outcome, trace_id: u64, keep_alive: bool) -> Vec<u8> {
    let trace = trace_id.to_string();
    let mut headers: Vec<(&str, &str)> = Vec::with_capacity(outcome.extra.len() + 1);
    for (name, value) in &outcome.extra {
        headers.push((name, value.as_str()));
    }
    headers.push(("X-Trace-Id", &trace));
    http::response_bytes(
        outcome.status,
        http::reason(outcome.status),
        outcome.content_type,
        &headers,
        &outcome.body,
        keep_alive,
    )
}

/// Queues a connection's last bytes; it closes once they are written.
fn finish(conn: &mut Conn, last: &[u8]) -> Fate {
    conn.out.extend_from_slice(last);
    conn.state = ConnState::Closing;
    conn.close_after_write = true;
    match flush_conn(conn) {
        FlushResult::Pending => Fate::Keep,
        _ => Fate::Close,
    }
}

/// Writes as much buffered output as the socket accepts right now.
fn flush_conn(conn: &mut Conn) -> FlushResult {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushResult::Dead,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushResult::Pending,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return FlushResult::Dead,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    FlushResult::Drained
}
