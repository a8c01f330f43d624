//! Load/soak harness for the serving layer — std-only, no HTTP client
//! crate, so CI exercises the exact byte protocol a operator's probe
//! would.
//!
//! The workload models the paper's operator console under load: one
//! long throttled campaign, a wall of keep-alive status pollers (each
//! an established connection for the whole run — the event loop's
//! reason to exist), and a few streaming consumers following the
//! campaign's chunked results. The harness then gates on service
//! health:
//!
//! * **No 5xx besides sheds** — `503` is admission control doing its
//!   job; any other 5xx fails the run.
//! * **p99 latency bound** — over every poller request.
//! * **fd stability** — the server's `/proc/<pid>/fd` count may not
//!   grow across the soak (leaked connections would).
//!
//! ```text
//! loadgen --addr 127.0.0.1:8080 [--connections 1000] [--threads 32]
//!         [--streams 4] [--duration-secs 15] [--poll-interval-ms 100]
//!         [--p99-ms 250] [--server-pid PID] [--max-fd-growth 16]
//! ```
//!
//! Exits 0 on pass, 1 on a failed gate, 2 on usage errors.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Config {
    addr: String,
    connections: usize,
    threads: usize,
    streams: usize,
    duration: Duration,
    poll_interval: Duration,
    p99_ms: u64,
    server_pid: Option<u32>,
    max_fd_growth: i64,
}

impl Config {
    fn parse() -> Result<Config, String> {
        let mut config = Config {
            addr: String::new(),
            connections: 1000,
            threads: 32,
            streams: 4,
            duration: Duration::from_secs(15),
            poll_interval: Duration::from_millis(100),
            p99_ms: 250,
            server_pid: None,
            max_fd_growth: 16,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("missing value for {name}"))
            };
            match arg.as_str() {
                "--addr" => config.addr = value("--addr")?,
                "--connections" => {
                    config.connections = value("--connections")?
                        .parse()
                        .map_err(|e| format!("bad --connections: {e}"))?;
                }
                "--threads" => {
                    config.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?;
                }
                "--streams" => {
                    config.streams = value("--streams")?
                        .parse()
                        .map_err(|e| format!("bad --streams: {e}"))?;
                }
                "--duration-secs" => {
                    config.duration = Duration::from_secs(
                        value("--duration-secs")?
                            .parse()
                            .map_err(|e| format!("bad --duration-secs: {e}"))?,
                    );
                }
                "--poll-interval-ms" => {
                    config.poll_interval = Duration::from_millis(
                        value("--poll-interval-ms")?
                            .parse()
                            .map_err(|e| format!("bad --poll-interval-ms: {e}"))?,
                    );
                }
                "--p99-ms" => {
                    config.p99_ms = value("--p99-ms")?
                        .parse()
                        .map_err(|e| format!("bad --p99-ms: {e}"))?;
                }
                "--server-pid" => {
                    config.server_pid = Some(
                        value("--server-pid")?
                            .parse()
                            .map_err(|e| format!("bad --server-pid: {e}"))?,
                    );
                }
                "--max-fd-growth" => {
                    config.max_fd_growth = value("--max-fd-growth")?
                        .parse()
                        .map_err(|e| format!("bad --max-fd-growth: {e}"))?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if config.addr.is_empty() {
            return Err("--addr is required".to_string());
        }
        if config.threads == 0 || config.connections == 0 {
            return Err("--threads and --connections must be at least 1".to_string());
        }
        Ok(config)
    }
}

/// Tallies shared across the fleet; latencies stay thread-local and
/// are merged at join time.
#[derive(Default)]
struct Tally {
    requests: AtomicU64,
    sheds: AtomicU64,
    other_5xx: AtomicU64,
    non_200: AtomicU64,
    reconnects: AtomicU64,
    stream_bytes: AtomicU64,
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One keep-alive exchange: request, then a `Content-Length`-framed
/// response. Returns the status code.
fn exchange(stream: &mut TcpStream, method: &str, path: &str, body: &str) -> std::io::Result<u16> {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes())?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-response",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 head"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no content-length"))?;
    let mut have = buf.len() - head_end - 4;
    while have < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed mid-body",
            ));
        }
        have += n;
    }
    Ok(status)
}

/// One-shot request returning the full body (for submit/cancel).
fn oneshot(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut buf = Vec::new();
    stream
        .read_to_end(&mut buf)
        .map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad response from {path}: {text}"))?;
    let body_text = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body_text))
}

fn record_status(tally: &Tally, status: u16) {
    tally.requests.fetch_add(1, Ordering::Relaxed);
    if status == 503 {
        tally.sheds.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        tally.other_5xx.fetch_add(1, Ordering::Relaxed);
    } else if status != 200 {
        tally.non_200.fetch_add(1, Ordering::Relaxed);
    }
}

/// A poller thread: owns a slice of the keep-alive connection fleet
/// and round-robins status polls over it until the deadline.
#[allow(clippy::too_many_arguments)]
fn poller(
    addr: &str,
    path: &str,
    conns: usize,
    poll_interval: Duration,
    deadline: Instant,
    stop: &AtomicBool,
    tally: &Tally,
) -> Vec<u64> {
    let mut fleet: Vec<Option<TcpStream>> = (0..conns).map(|_| connect(addr).ok()).collect();
    let mut latencies_us = Vec::new();
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        let round_started = Instant::now();
        for slot in &mut fleet {
            if slot.is_none() {
                tally.reconnects.fetch_add(1, Ordering::Relaxed);
                *slot = connect(addr).ok();
            }
            let Some(stream) = slot else { continue };
            let started = Instant::now();
            match exchange(stream, "GET", path, "") {
                Ok(status) => {
                    latencies_us.push(started.elapsed().as_micros() as u64);
                    record_status(tally, status);
                    if status == 503 {
                        *slot = None; // Shed responses close the connection.
                    }
                }
                Err(_) => {
                    *slot = None;
                }
            }
        }
        // Pace the fleet: one poll per connection per interval.
        let elapsed = round_started.elapsed();
        if elapsed < poll_interval {
            std::thread::sleep(poll_interval - elapsed);
        }
    }
    latencies_us
}

/// A streaming consumer: follows the campaign's chunked results until
/// the stream ends or the soak deadline passes.
fn stream_consumer(addr: &str, path: &str, deadline: Instant, stop: &AtomicBool, tally: &Tally) {
    let Ok(mut stream) = connect(addr) else {
        return;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let raw = format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n");
    if stream.write_all(raw.as_bytes()).is_err() {
        return;
    }
    let mut chunk = [0u8; 4096];
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        match stream.read(&mut chunk) {
            Ok(0) => return, // Stream finished.
            Ok(n) => {
                tally.stream_bytes.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
    // Deadline hit mid-stream: drop abruptly — the server must reclaim
    // the slot (the e2e suite pins this; the soak exercises it at scale).
}

fn server_fd_count(pid: u32) -> Option<usize> {
    std::fs::read_dir(format!("/proc/{pid}/fd"))
        .ok()
        .map(|entries| entries.count())
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

fn main() {
    let config = match Config::parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // One long throttled campaign spans the soak: ~20 points/s, with
    // enough points to outlive the run (it is cancelled afterwards).
    let points = config.duration.as_secs() * 20 + 100;
    let submit_body = format!(
        r#"{{"kind": "threshold_sweep", "points": {points}, "throttle_ms": 50,
            "base": {{"network": {{"nodes": 300, "k_max": 25, "mean_degree": 4}}}}}}"#
    );
    let (status, body) = match oneshot(&config.addr, "POST", "/v1/jobs", &submit_body) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: submit failed: {e}");
            std::process::exit(2);
        }
    };
    if status != 200 {
        eprintln!("loadgen: submit answered {status}: {body}");
        std::process::exit(2);
    }
    let job_id = body
        .split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_default()
        .to_string();
    if job_id.is_empty() {
        eprintln!("loadgen: no job id in submit response: {body}");
        std::process::exit(2);
    }
    println!(
        "loadgen: soaking {} for {:?}: {} pollers x {} threads, {} streams, job {job_id}",
        config.addr, config.duration, config.connections, config.threads, config.streams
    );

    let fd_before = config.server_pid.and_then(server_fd_count);
    let tally = Arc::new(Tally::default());
    let stop = Arc::new(AtomicBool::new(false));
    let deadline = Instant::now() + config.duration;

    let mut stream_threads = Vec::new();
    for _ in 0..config.streams {
        let addr = config.addr.clone();
        let path = format!("/v1/jobs/{job_id}/stream");
        let tally = Arc::clone(&tally);
        let stop = Arc::clone(&stop);
        stream_threads.push(std::thread::spawn(move || {
            stream_consumer(&addr, &path, deadline, &stop, &tally);
        }));
    }

    let per_thread = config.connections.div_ceil(config.threads);
    let mut poller_threads = Vec::new();
    let mut remaining = config.connections;
    for _ in 0..config.threads {
        let conns = per_thread.min(remaining);
        remaining -= conns;
        if conns == 0 {
            break;
        }
        let addr = config.addr.clone();
        let path = format!("/v1/jobs/{job_id}");
        let interval = config.poll_interval;
        let tally = Arc::clone(&tally);
        let stop = Arc::clone(&stop);
        poller_threads.push(std::thread::spawn(move || {
            poller(&addr, &path, conns, interval, deadline, &stop, &tally)
        }));
    }

    let mut latencies_us: Vec<u64> = Vec::new();
    for handle in poller_threads {
        if let Ok(thread_latencies) = handle.join() {
            latencies_us.extend(thread_latencies);
        }
    }
    stop.store(true, Ordering::Relaxed);
    for handle in stream_threads {
        let _ = handle.join();
    }

    // Quiesce before the fd check: closed client sockets take a loop
    // tick to be reaped server-side.
    std::thread::sleep(Duration::from_millis(500));
    let fd_after = config.server_pid.and_then(server_fd_count);
    let _ = oneshot(
        &config.addr,
        "POST",
        &format!("/v1/jobs/{job_id}/cancel"),
        "",
    );

    latencies_us.sort_unstable();
    let requests = tally.requests.load(Ordering::Relaxed);
    let sheds = tally.sheds.load(Ordering::Relaxed);
    let other_5xx = tally.other_5xx.load(Ordering::Relaxed);
    let non_200 = tally.non_200.load(Ordering::Relaxed);
    let reconnects = tally.reconnects.load(Ordering::Relaxed);
    let stream_bytes = tally.stream_bytes.load(Ordering::Relaxed);
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let max = latencies_us.last().copied().unwrap_or(0);

    println!("loadgen: requests={requests} sheds={sheds} other_5xx={other_5xx} non_200={non_200} reconnects={reconnects}");
    println!("loadgen: latency_us p50={p50} p99={p99} max={max}; stream_bytes={stream_bytes}");
    if let (Some(before), Some(after)) = (fd_before, fd_after) {
        println!("loadgen: server_fds before={before} after={after}");
    }

    let mut failures = Vec::new();
    if requests == 0 {
        failures.push("no poller request completed".to_string());
    }
    if other_5xx > 0 {
        failures.push(format!("{other_5xx} non-shed 5xx responses"));
    }
    if non_200 > 0 {
        failures.push(format!("{non_200} unexpected non-200 responses"));
    }
    let p99_ms = p99 / 1000;
    if p99_ms > config.p99_ms {
        failures.push(format!("p99 {p99_ms}ms exceeds bound {}ms", config.p99_ms));
    }
    if let (Some(before), Some(after)) = (fd_before, fd_after) {
        let growth = after as i64 - before as i64;
        if growth > config.max_fd_growth {
            failures.push(format!(
                "server fd count grew by {growth} (bound {})",
                config.max_fd_growth
            ));
        }
    }

    if failures.is_empty() {
        println!("LOADGEN PASS");
    } else {
        for failure in &failures {
            eprintln!("loadgen: FAIL: {failure}");
        }
        println!("LOADGEN FAIL");
        std::process::exit(1);
    }
}
