//! Load generation: an open loop on a schedule, a closed loop, a
//! fixed-interval prober, and the per-request record they produce.
//!
//! Every latency is timed from the request's due time, so a stall also
//! charges the requests queued behind it; how late the generator itself
//! ran is kept separately as `late`.

use crate::client::{request_bytes, Conn, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Threads and connections the generator may use: the host's cores,
/// at most two.
pub fn max_conns() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One request as the generator saw it. Offsets are from the phase
/// start.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index into the phase's plan.
    pub index: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    /// HTTP status, 0 when no response arrived.
    pub status: u16,
    /// Why the request failed: transport error, non-2xx or a failed
    /// output check.
    pub error: Option<String>,
    pub connect: Option<Duration>,
    pub ttfb: Duration,
    pub bytes_out: usize,
    pub bytes_in: usize,
}

impl Sent {
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// A request ready to send: method, path and body bytes.
#[derive(Debug, Clone)]
pub struct Planned {
    pub method: &'static str,
    pub path: String,
    pub body: Vec<u8>,
}

impl Planned {
    pub fn get(path: impl Into<String>) -> Planned {
        Planned {
            method: "GET",
            path: path.into(),
            body: Vec::new(),
        }
    }

    pub fn post(path: impl Into<String>, body: impl Into<Vec<u8>>) -> Planned {
        Planned {
            method: "POST",
            path: path.into(),
            body: body.into(),
        }
    }

    /// The request as it goes on the wire.
    pub fn bytes(&self) -> Vec<u8> {
        request_bytes(self.method, &self.path, &self.body)
    }
}

/// Sends one planned request on `conn` and records it. `check` turns a
/// wrong answer into a failed request.
pub fn send_one(
    conn: &mut Conn,
    start: Instant,
    index: usize,
    due: Duration,
    req: &Planned,
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> Sent {
    let sent = start.elapsed();
    let bytes = req.bytes();
    let result = conn.exchange(&bytes);
    let done = start.elapsed();
    match result {
        Ok(resp) => {
            let error = if (200..300).contains(&resp.status) {
                check(index, &resp).err()
            } else {
                Some(format!(
                    "{} {} -> {}: {}",
                    req.method,
                    req.path,
                    resp.status,
                    resp.body_text().chars().take(160).collect::<String>()
                ))
            };
            Sent {
                index,
                due,
                sent,
                done,
                status: resp.status,
                error,
                connect: resp.connect,
                ttfb: resp.ttfb,
                bytes_out: resp.bytes_out,
                bytes_in: resp.bytes_in,
            }
        }
        Err(e) => Sent {
            index,
            due,
            sent,
            done,
            status: 0,
            error: Some(format!("{} {}: {e}", req.method, req.path)),
            connect: None,
            ttfb: Duration::ZERO,
            bytes_out: bytes.len(),
            bytes_in: 0,
        },
    }
}

/// Open loop: request `i` is due at `due[i]` after the phase start.
/// Up to `conns` threads, each owning one connection, take the next
/// unsent request in due order, wait for its due time and send it; when
/// every connection is busy the request waits and is counted late.
/// Returns the records in plan order, with the connections opened.
pub fn open_loop(
    addr: SocketAddr,
    due: &[Duration],
    plan: &[Planned],
    conns: usize,
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> (Vec<Sent>, u64) {
    assert_eq!(due.len(), plan.len());
    run_loop(addr, Some(due), plan, conns, check)
}

/// Closed loop: `conns` threads, each owning one connection, send the
/// next unsent request as soon as their previous one is answered, so
/// the server alone sets the pace. A request is due when it is sent.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &[Planned],
    conns: usize,
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> (Vec<Sent>, u64) {
    run_loop(addr, None, plan, conns, check)
}

fn run_loop(
    addr: SocketAddr,
    due: Option<&[Duration]>,
    plan: &[Planned],
    conns: usize,
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> (Vec<Sent>, u64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    let opened = AtomicUsize::new(0);
    // Start a little in the future so every thread is ready at t = 0.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                std::thread::sleep(start.saturating_duration_since(Instant::now()));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= plan.len() {
                        break;
                    }
                    let due_i = match due {
                        Some(due) => {
                            std::thread::sleep(
                                (start + due[i]).saturating_duration_since(Instant::now()),
                            );
                            due[i]
                        }
                        None => start.elapsed(),
                    };
                    mine.push(send_one(&mut conn, start, i, due_i, &plan[i], check));
                }
                opened.fetch_add(conn.opened as usize, Ordering::Relaxed);
                out.lock()
                    .expect("no generator thread panics holding it")
                    .extend(mine);
            });
        }
    });
    let mut records = out.into_inner().expect("generator threads joined");
    records.sort_by_key(|r| r.index);
    (records, opened.into_inner() as u64)
}

/// Fixed-interval prober on one connection: request `k` is due at
/// `k * interval` and cycles through `plan`, until `stop` is raised.
pub fn probe_until(
    addr: SocketAddr,
    interval: Duration,
    plan: &dyn Fn(usize) -> Planned,
    stop: &AtomicBool,
    check: &(dyn Fn(usize, &Response) -> Result<(), String> + Sync),
) -> (Vec<Sent>, u64) {
    let mut conn = Conn::new(addr);
    let start = Instant::now();
    let mut out = Vec::new();
    for k in 0.. {
        let due = interval * k as u32;
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        out.push(send_one(&mut conn, start, k, due, &plan(k), check));
    }
    (out, conn.opened)
}
