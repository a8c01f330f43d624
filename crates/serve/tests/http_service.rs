//! End-to-end tests of the HTTP service over real sockets.
//!
//! A server is bound on an ephemeral port and driven with a raw
//! `std::net::TcpStream` client — no HTTP library on either side — so
//! these tests exercise the exact byte-level protocol a curl user sees:
//! liveness, the compute endpoints, exact cache hits, golden response
//! bytes, the body cap, admission sheds (`503` at the connection cap and
//! the compute queue), the `408` slowloris sweep, deadlines, keep-alive
//! and HTTP/1.0 connection handling, fragmented request delivery, job
//! campaigns and their chunked result streams, and graceful shutdown.

#![cfg(target_os = "linux")]

use rumor_serve::api::{EnsembleRequest, OptimizeRequest, SimulateRequest};
use rumor_serve::{handlers, serve, wire, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// A parsed raw response.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn start(config: ServeConfig) -> Server {
    serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind ephemeral server")
}

fn small_sim_body() -> &'static str {
    r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}, "tf": 10, "n_out": 41}"#
}

/// A compute request that keeps a worker busy for a while (~0.2 s in
/// release builds, seconds in debug builds).
fn slow_optimize_body() -> &'static str {
    r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}, "tf": 20, "max_iters": 40}"#
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// The raw bytes of one HTTP/1.1 request. `close` picks the
/// `Connection:` header.
fn raw_request(method: &str, path: &str, body: &str, close: bool) -> String {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Writes one request on an open connection.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let raw = raw_request(method, path, body, close);
    stream.write_all(raw.as_bytes()).expect("send request");
}

/// Splits a response head into its status code and headers.
fn parse_head(head: &[u8]) -> (u16, Vec<(String, String)>) {
    let head = std::str::from_utf8(head).expect("utf8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .map(|line| {
            let (k, v) = line.split_once(':').expect("header line");
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect();
    (status, headers)
}

/// Parses a whole response read to EOF.
fn parse_response(buf: &[u8]) -> Response {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete header block");
    let (status, headers) = parse_head(&buf[..head_end]);
    Response {
        status,
        headers,
        body: buf[head_end + 4..].to_vec(),
    }
}

/// Reads exactly one `Content-Length`-framed response off an open
/// (possibly keep-alive) connection.
fn read_response(stream: &mut TcpStream) -> Response {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-head: {buf:?}");
        buf.extend_from_slice(&chunk[..n]);
    };
    let (status, headers) = parse_head(&buf[..head_end]);
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .expect("content-length header");
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Response {
        status,
        headers,
        body,
    }
}

/// One-shot request on a fresh connection (`Connection: close`).
fn request(server: &Server, method: &str, path: &str, body: &str) -> Response {
    let mut stream = connect(server);
    send_request(&mut stream, method, path, body, true);
    read_response(&mut stream)
}

/// Sends raw bytes on a fresh connection and reads until the server
/// closes it.
fn exchange(server: &Server, raw: &[u8]) -> Vec<u8> {
    let mut stream = connect(server);
    stream.write_all(raw).expect("send request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    buf
}

/// Decodes a chunked transfer body into its chunk payloads.
fn decode_chunks(mut raw: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    loop {
        let line_end = raw
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..line_end]).expect("utf8 chunk size"),
            16,
        )
        .expect("hex chunk size");
        raw = &raw[line_end + 2..];
        if size == 0 {
            return chunks;
        }
        chunks.push(raw[..size].to_vec());
        assert_eq!(&raw[size..size + 2], b"\r\n", "chunk terminator");
        raw = &raw[size + 2..];
    }
}

/// Reads one unlabelled series off the metrics page.
fn metric(page: &str, series: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from {page}"))
}

/// Starts a slow compute on a fresh connection and waits until the
/// worker has taken it off the queue, so with one worker every later
/// compute request waits in (or is shed from) the queue behind it.
fn occupy_worker(server: &Server) -> TcpStream {
    let mut busy = connect(server);
    send_request(
        &mut busy,
        "POST",
        "/v1/optimize",
        slow_optimize_body(),
        true,
    );
    let started = Instant::now();
    loop {
        let page = request(server, "GET", "/metrics", "").body_text();
        if metric(&page, "rumor_serve_in_flight") == 1
            && metric(&page, "rumor_serve_ready_queue_depth") == 0
        {
            return busy;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the worker never started the slow compute: {page}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A unique, freshly created jobs directory for one test.
fn temp_jobs_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rumor-serve-jobs-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create jobs dir");
    dir
}

fn submit_job(server: &Server, body: &str) -> String {
    let submitted = request(server, "POST", "/v1/jobs", body);
    assert_eq!(submitted.status, 200, "body: {}", submitted.body_text());
    let text = submitted.body_text();
    assert!(text.contains("\"state\":\"queued\""), "body: {text}");
    text.split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("job id in response")
        .to_string()
}

/// Polls a job's status endpoint until it reaches a finished state.
fn wait_for_finish(server: &Server, id: &str, timeout: Duration) -> String {
    let started = Instant::now();
    loop {
        let status = request(server, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status.status, 200, "body: {}", status.body_text());
        let text = status.body_text();
        for state in ["\"done\"", "\"partial\"", "\"failed\"", "\"cancelled\""] {
            if text.contains(&format!("\"state\":{state}")) {
                return text;
            }
        }
        assert!(
            started.elapsed() < timeout,
            "job {id} did not finish in {timeout:?}: {text}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The golden responses: raw bytes captured from the thread-per-
/// connection backend this service used to ship beside the event loop,
/// every request sent with `Connection: close`. `X-Trace-Id` values are
/// masked as `<trace>`. The two simulate files hold only the head, with
/// `Content-Length` masked as `<len>`: their bodies are checked against
/// an in-process compute instead, so the goldens do not freeze engine
/// numerics. The `*.json` files are the exception: whole response
/// bodies, computed in-process and checked byte for byte — the two
/// paper-kind optimize bodies by
/// `paper_optimize_bodies_are_reproduced_byte_for_byte`, the simulate
/// and ensemble bodies by `simulate_and_ensemble_bodies_are_reproduced_byte_for_byte`.
const GOLDEN_FILES: [&str; 16] = [
    "body_too_large.http",
    "ensemble_small.json",
    "healthz.http",
    "malformed_json.http",
    "method_not_allowed.http",
    "not_found.http",
    "optimize_paper_converged.json",
    "optimize_paper_degraded.json",
    "overloaded.http",
    "simulate_cold.head",
    "simulate_hit.head",
    "simulate_paper.json",
    "simulate_paper_blocking.json",
    "simulate_tie_strength.json",
    "simulate_two_rumor.json",
    "slowloris.http",
];

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Replaces the `X-Trace-Id` header value with `<trace>`.
fn mask_trace(raw: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(raw);
    let start = text.find("X-Trace-Id: ").expect("X-Trace-Id header") + "X-Trace-Id: ".len();
    let end = start + text[start..].find("\r\n").expect("header line end");
    assert!(
        text[start..end].parse::<u64>().is_ok(),
        "numeric trace id: {text}"
    );
    format!("{}<trace>{}", &text[..start], &text[end..]).into_bytes()
}

fn assert_golden(expected: &[u8], raw: &[u8], name: &str) {
    let actual = mask_trace(raw);
    assert!(
        actual == expected,
        "{name} differs from its golden bytes\n got: {:?}\nwant: {:?}",
        String::from_utf8_lossy(&actual),
        String::from_utf8_lossy(expected)
    );
}

/// Checks one simulate response: the golden head (with the body's
/// length filled in) and a body equal to the in-process compute.
fn assert_golden_simulate(raw: &[u8], head_file: &str, expected_body: &[u8]) {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete header block")
        + 4;
    let head = String::from_utf8_lossy(&golden(head_file))
        .replace("<len>", &expected_body.len().to_string())
        .into_bytes();
    assert_golden(&head, &raw[..head_end], head_file);
    assert!(
        raw[head_end..] == *expected_body,
        "{head_file}: body differs from the in-process compute"
    );
}

#[test]
fn every_golden_response_is_reproduced_byte_for_byte() {
    let mut on_disk: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"))
            .expect("golden directory")
            .map(|entry| entry.expect("golden entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .filter(|name| !name.starts_with('.'))
            .collect();
    on_disk.sort();
    assert_eq!(on_disk, GOLDEN_FILES, "every golden file is checked");

    let server = start(ServeConfig {
        io_timeout_ms: 200,
        max_connections: 2,
        ..ServeConfig::default()
    });
    let cases = [
        ("healthz.http", raw_request("GET", "/healthz", "", true)),
        ("not_found.http", raw_request("GET", "/nope", "", true)),
        (
            "method_not_allowed.http",
            raw_request("POST", "/healthz", "", true),
        ),
        (
            "malformed_json.http",
            raw_request("POST", "/v1/simulate", "{not json", true),
        ),
        // Head only: a 2 MiB body is refused against the default 1 MiB
        // cap before any of it is sent.
        (
            "body_too_large.http",
            "POST /v1/simulate HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 2097152\r\n\r\n"
                .to_string(),
        ),
        // A partial request that stalls past the I/O timeout.
        ("slowloris.http", "GET /hea".to_string()),
    ];
    for (name, raw) in &cases {
        assert_golden(&golden(name), &exchange(&server, raw.as_bytes()), name);
    }

    // Cold, then a cache hit under a reordered body.
    let reordered =
        r#"{ "n_out": 41, "tf": 10, "network": {"mean_degree": 4, "nodes": 300, "k_max": 25} }"#;
    let parsed = wire::parse(small_sim_body()).expect("valid body");
    let computed =
        handlers::simulate(&SimulateRequest::from_value(&parsed).expect("valid request"))
            .expect("simulate");
    let expected_body = wire::serialize(&computed).into_bytes();
    let cold = exchange(
        &server,
        raw_request("POST", "/v1/simulate", small_sim_body(), true).as_bytes(),
    );
    assert_golden_simulate(&cold, "simulate_cold.head", &expected_body);
    let hit = exchange(
        &server,
        raw_request("POST", "/v1/simulate", reordered, true).as_bytes(),
    );
    assert_golden_simulate(&hit, "simulate_hit.head", &expected_body);

    // Two parked keep-alive connections fill the cap, so the next one is
    // shed at accept, before any request byte is read: send none, since
    // closing over unread bytes would reset the connection.
    let mut held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = connect(&server);
            send_request(&mut stream, "GET", "/healthz", "", false);
            assert_eq!(read_response(&mut stream).status, 200);
            stream
        })
        .collect();
    assert_golden(
        &golden("overloaded.http"),
        &exchange(&server, b""),
        "overloaded.http",
    );
    held.clear();
    server.shutdown_and_join();
}

/// The paper-kind optimize bodies, captured when the paper model still
/// had its own dedicated sweep and frozen since: the generic sweep that
/// replaced it must answer byte for byte. One request converges (27
/// iterations); the same request at `max_iters: 3` fails four watchdog
/// attempts and returns the best checkpoint, flagged degraded.
#[test]
fn paper_optimize_bodies_are_reproduced_byte_for_byte() {
    let converged = r#"{"network":{"nodes":300,"k_max":50,"mean_degree":8,"seed":104},"model":{"lambda0":0.021,"kind":"paper"},"tf":50,"eps_max":0.08}"#;
    let degraded = r#"{"network":{"nodes":300,"k_max":50,"mean_degree":8,"seed":104},"model":{"lambda0":0.021,"kind":"paper"},"tf":50,"eps_max":0.08,"max_iters":3}"#;
    for (name, body) in [
        ("optimize_paper_converged.json", converged),
        ("optimize_paper_degraded.json", degraded),
    ] {
        let req = OptimizeRequest::from_value(&wire::parse(body).expect("valid body"))
            .expect("valid request");
        let computed = wire::serialize(&handlers::optimize(&req).expect("optimize"));
        assert_golden_body(&computed, name);
    }
}

/// Checks an in-process response body against its golden file.
fn assert_golden_body(computed: &str, name: &str) {
    let expected = golden(name);
    assert!(
        computed.as_bytes() == expected.as_slice(),
        "{name} differs from its golden bytes\n got: {computed}\nwant: {}",
        String::from_utf8_lossy(&expected)
    );
}

/// The simulate bodies of every model kind and a small ensemble body,
/// captured when the paper kind still had its own simulator: one path now
/// serves every kind, and it must answer byte for byte. The ensemble's
/// `max_deviation_vs_ode` comes from the mean-field reference, which runs
/// on that same path.
#[test]
fn simulate_and_ensemble_bodies_are_reproduced_byte_for_byte() {
    let net = r#""network":{"nodes":300,"k_max":50,"mean_degree":8,"seed":104}"#;
    let simulate = |model: &str, extra: &str| {
        format!(
            r#"{{{net},"model":{{"lambda0":0.021,"kind":"{model}"}},"tf":50,"n_out":41{extra}}}"#
        )
    };
    for (name, body) in [
        ("simulate_paper.json", simulate("paper", "")),
        (
            "simulate_paper_blocking.json",
            simulate("paper", r#","eps1":0.05,"eps2":0.3"#),
        ),
        ("simulate_tie_strength.json", simulate("tie_strength", "")),
        ("simulate_two_rumor.json", simulate("two_rumor", "")),
    ] {
        let req = SimulateRequest::from_value(&wire::parse(&body).expect("valid body"))
            .expect("valid request");
        let computed = wire::serialize(&handlers::simulate(&req).expect("simulate"));
        assert_golden_body(&computed, name);
    }
    let body = r#"{"network":{"nodes":200,"k_max":20,"mean_degree":4},"tf":3,"runs":2}"#;
    let req = EnsembleRequest::from_value(&wire::parse(body).expect("valid body"))
        .expect("valid request");
    let computed = wire::serialize(&handlers::ensemble(&req, 1).expect("ensemble"));
    assert_golden_body(&computed, "ensemble_small.json");
}

#[test]
fn healthz_and_metrics_respond() {
    let server = start(ServeConfig::default());
    let health = request(&server, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body_text(), r#"{"status":"ok"}"#);

    let metrics = request(&server, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_text().contains("rumor_serve_admitted_total"));
    server.shutdown_and_join();
}

#[test]
fn simulate_computes_and_repeats_from_cache_byte_identically() {
    let server = start(ServeConfig::default());
    let cold = request(&server, "POST", "/v1/simulate", small_sim_body());
    assert_eq!(cold.status, 200, "body: {}", cold.body_text());
    assert_eq!(cold.header("X-Cache"), Some("miss"));
    let text = cold.body_text();
    assert!(text.contains("\"times\""), "body: {text}");
    assert!(text.contains("\"r0\""), "body: {text}");

    // Same request, different field order and whitespace: the canonical
    // key must match and the cached body must be byte-identical.
    let reordered =
        r#"{ "n_out": 41, "tf": 10, "network": {"mean_degree": 4, "nodes": 300, "k_max": 25} }"#;
    let hit = request(&server, "POST", "/v1/simulate", reordered);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("X-Cache"), Some("hit"));
    assert_eq!(hit.body, cold.body, "cache hit must be byte-identical");

    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(
        metrics.contains("rumor_serve_cache_hits_total 1"),
        "metrics: {metrics}"
    );
    assert!(metrics.contains("rumor_serve_cache_misses_total 1"));
    server.shutdown_and_join();
}

#[test]
fn threshold_optimize_and_ensemble_answer() {
    let server = start(ServeConfig::default());
    let net = r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}"#;

    let threshold = request(&server, "POST", "/v1/threshold", &format!("{net}}}"));
    assert_eq!(threshold.status, 200, "body: {}", threshold.body_text());
    let text = threshold.body_text();
    assert!(text.contains("\"r0\""));
    assert!(text.contains("\"consistent_with_r0\":true"), "body: {text}");

    let optimize = request(
        &server,
        "POST",
        "/v1/optimize",
        &format!("{net}, \"tf\": 20, \"max_iters\": 40}}"),
    );
    assert_eq!(optimize.status, 200, "body: {}", optimize.body_text());
    let text = optimize.body_text();
    assert!(text.contains("\"schedule\""), "body: {text}");
    assert!(text.contains("\"cost\""), "body: {text}");

    let ensemble = request(
        &server,
        "POST",
        "/v1/ensemble",
        r#"{"network": {"nodes": 200, "k_max": 20, "mean_degree": 4}, "tf": 3, "runs": 2}"#,
    );
    assert_eq!(ensemble.status, 200, "body: {}", ensemble.body_text());
    let text = ensemble.body_text();
    assert!(text.contains("\"i_mean\""), "body: {text}");
    assert!(text.contains("\"max_deviation_vs_ode\""), "body: {text}");
    server.shutdown_and_join();
}

#[test]
fn two_rumor_and_tie_strength_kinds_answer_and_cache() {
    let server = start(ServeConfig::default());

    // Two-rumor simulate: compartment series under the model's own
    // names, served through the same canonical-form cache.
    let two_body = r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4},
        "model": {"kind": "two_rumor", "gamma1": 0.1}, "tf": 10, "n_out": 41}"#;
    let cold = request(&server, "POST", "/v1/simulate", two_body);
    assert_eq!(cold.status, 200, "body: {}", cold.body_text());
    assert_eq!(cold.header("X-Cache"), Some("miss"));
    let text = cold.body_text();
    assert!(text.contains("\"kind\":\"two_rumor\""), "body: {text}");
    assert!(text.contains("\"mean_i1\""), "body: {text}");
    assert!(text.contains("\"mean_i2\""), "body: {text}");

    // Same request, reordered fields: byte-identical cache hit.
    let reordered = r#"{"n_out": 41, "tf": 10,
        "model": {"gamma1": 0.1, "kind": "two_rumor"},
        "network": {"mean_degree": 4, "k_max": 25, "nodes": 300}}"#;
    let hit = request(&server, "POST", "/v1/simulate", reordered);
    assert_eq!(hit.status, 200);
    assert_eq!(hit.header("X-Cache"), Some("hit"));
    assert_eq!(hit.body, cold.body, "cache hit must be byte-identical");

    // Tie-strength simulate keeps the paper's S/I/R shape.
    let tied = request(
        &server,
        "POST",
        "/v1/simulate",
        r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4},
            "model": {"kind": "tie_strength", "beta": 0.5}, "tf": 10, "n_out": 41}"#,
    );
    assert_eq!(tied.status, 200, "body: {}", tied.body_text());
    let text = tied.body_text();
    assert!(text.contains("\"kind\":\"tie_strength\""), "body: {text}");
    assert!(text.contains("\"mean_i\""), "body: {text}");

    // Two-rumor optimize: the multi-control sweep's schedule carries
    // the model's channel names.
    let optimized = request(
        &server,
        "POST",
        "/v1/optimize",
        r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4},
            "model": {"kind": "two_rumor"},
            "tf": 15, "eps_max": 0.2, "max_iters": 60}"#,
    );
    assert_eq!(optimized.status, 200, "body: {}", optimized.body_text());
    let text = optimized.body_text();
    assert!(text.contains("\"source\":\"multi_fbsm\""), "body: {text}");
    assert!(text.contains("\"truth\""), "body: {text}");
    assert!(text.contains("\"blocking\""), "body: {text}");

    // The threshold theory and the ABM only speak the paper model.
    let refused = request(
        &server,
        "POST",
        "/v1/threshold",
        r#"{"model": {"kind": "two_rumor"},
            "network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}"#,
    );
    assert_eq!(refused.status, 400, "body: {}", refused.body_text());
    assert!(refused.body_text().contains("paper"));
    server.shutdown_and_join();
}

#[test]
fn malformed_and_unknown_requests_get_4xx() {
    let server = start(ServeConfig::default());
    assert_eq!(
        request(&server, "POST", "/v1/simulate", "{not json").status,
        400
    );
    assert_eq!(
        request(&server, "POST", "/v1/simulate", r#"{"tf": -5}"#).status,
        400
    );
    assert_eq!(
        request(&server, "POST", "/v1/simulate", r#"{"bogus_field": 1}"#).status,
        400
    );
    assert_eq!(request(&server, "GET", "/nope", "").status, 404);
    assert_eq!(request(&server, "POST", "/healthz", "").status, 405);
    assert_eq!(request(&server, "GET", "/v1/simulate", "").status, 405);
    let garbage = parse_response(&exchange(&server, b"NOT A REQUEST\r\n\r\n"));
    assert_eq!(garbage.status, 400);
    server.shutdown_and_join();
}

#[test]
fn oversized_body_is_rejected_with_413_before_upload() {
    let server = start(ServeConfig {
        max_body_bytes: 4 * 1024,
        ..ServeConfig::default()
    });
    // Declare 2 MiB but send none of it: the server must refuse from
    // the header alone.
    let raw = "POST /v1/simulate HTTP/1.1\r\nHost: test\r\nContent-Length: 2097152\r\n\r\n";
    let response = parse_response(&exchange(&server, raw.as_bytes()));
    assert_eq!(response.status, 413);
    assert!(response.body_text().contains("exceeds the 4096-byte cap"));

    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(metrics.contains("rumor_serve_rejected_total{reason=\"body_too_large\"} 1"));
    server.shutdown_and_join();
}

#[test]
fn full_compute_queue_sheds_with_503_and_recovers() {
    // One worker, queue depth one: with a slow compute running, one of
    // the next two uncached computes waits in the queue and the other
    // is shed.
    let server = start(ServeConfig {
        threads: Some(1),
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let mut busy = occupy_worker(&server);
    let mut clients: Vec<TcpStream> = [41, 42]
        .iter()
        .map(|n_out| {
            let body = format!(
                r#"{{"network": {{"nodes": 300, "k_max": 25, "mean_degree": 4}}, "tf": 10, "n_out": {n_out}}}"#
            );
            let mut stream = connect(&server);
            send_request(&mut stream, "POST", "/v1/simulate", &body, true);
            stream
        })
        .collect();
    let answers: Vec<Vec<u8>> = clients
        .iter_mut()
        .map(|stream| {
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).expect("read response");
            raw
        })
        .collect();
    let statuses: Vec<u16> = answers
        .iter()
        .map(|raw| parse_response(raw).status)
        .collect();
    let shed: Vec<&Vec<u8>> = answers
        .iter()
        .filter(|raw| parse_response(raw).status == 503)
        .collect();
    assert_eq!(shed.len(), 1, "exactly one shed: {statuses:?}");
    assert!(
        statuses.contains(&200),
        "the queued compute answers: {statuses:?}"
    );
    // `503` + `Retry-After: 1`, the same bytes as the connection-cap shed.
    assert_golden(&golden("overloaded.http"), shed[0], "queue-full shed");
    assert_eq!(read_response(&mut busy).status, 200);

    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(
        metrics.contains("rumor_serve_rejected_total{reason=\"queue_full\"} 1"),
        "metrics: {metrics}"
    );
    assert_eq!(request(&server, "GET", "/healthz", "").status, 200);
    server.shutdown_and_join();
}

#[test]
fn compute_queued_past_its_deadline_answers_504() {
    let server = start(ServeConfig {
        threads: Some(1),
        deadline_ms: 20,
        ..ServeConfig::default()
    });
    // The next compute waits behind the slow one far past its 20 ms
    // deadline, so the worker refuses to start it.
    let busy = occupy_worker(&server);
    let late = request(&server, "POST", "/v1/simulate", small_sim_body());
    assert_eq!(late.status, 504, "body: {}", late.body_text());
    assert_eq!(
        late.body_text(),
        r#"{"error":"deadline exceeded before compute"}"#
    );
    drop(busy);

    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(metrics.contains("rumor_serve_deadline_exceeded_total"));
    server.shutdown_and_join();
}

#[test]
fn deadline_covers_request_read_time_with_504() {
    let server = start(ServeConfig {
        deadline_ms: 100,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);
    let body = small_sim_body();
    let head = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    // Stall past the deadline before delivering the body; the deadline
    // clock started at the first request byte.
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(body.as_bytes()).expect("send body");
    let response = read_response(&mut stream);
    assert_eq!(response.status, 504, "{}", response.body_text());
    assert!(response.body_text().contains("deadline exceeded"));
    server.shutdown_and_join();
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let server = start(ServeConfig::default());
    let mut stream = connect(&server);
    for _ in 0..3 {
        send_request(&mut stream, "GET", "/healthz", "", false);
        let response = read_response(&mut stream);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Connection"), Some("keep-alive"));
        assert_eq!(response.body_text(), r#"{"status":"ok"}"#);
    }
    // The whole sequence used one connection: one admission.
    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(
        metrics.contains("rumor_serve_requests_total{endpoint=\"healthz\"} 3"),
        "{metrics}"
    );
    server.shutdown_and_join();
}

#[test]
fn http10_connections_close_unless_keep_alive_is_requested() {
    let server = start(ServeConfig::default());
    // No `Connection` header: HTTP/1.0 clients read to EOF, so the
    // server must close after the response.
    let response = parse_response(&exchange(&server, b"GET /healthz HTTP/1.0\r\n\r\n"));
    assert_eq!(response.status, 200);
    assert_eq!(response.header("Connection"), Some("close"));
    assert_eq!(response.body_text(), r#"{"status":"ok"}"#);
    // `Connection: keep-alive` opts in: the connection serves another.
    let mut stream = connect(&server);
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .expect("send request");
        let response = read_response(&mut stream);
        assert_eq!(response.status, 200);
        assert_eq!(response.header("Connection"), Some("keep-alive"));
    }
    server.shutdown_and_join();
}

#[test]
fn fragmented_request_bytes_reassemble() {
    let server = start(ServeConfig::default());
    let mut stream = connect(&server);
    // Header split mid-line, blank line split between CR and LF, body
    // split mid-byte: the incremental parser must reassemble all of it.
    let body = small_sim_body();
    let head = format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r",
        body.len()
    );
    let (head_a, head_b) = head.split_at(17);
    let (body_a, body_b) = body.split_at(body.len() / 2);
    for fragment in [head_a, head_b, "\n", body_a, body_b] {
        stream
            .write_all(fragment.as_bytes())
            .expect("send fragment");
        std::thread::sleep(Duration::from_millis(30));
    }
    let response = read_response(&mut stream);
    assert_eq!(response.status, 200, "{}", response.body_text());
    server.shutdown_and_join();
}

#[test]
fn connection_cap_sheds_with_503() {
    let server = start(ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    });
    // Two keep-alive connections occupy the whole cap...
    let mut held_a = connect(&server);
    send_request(&mut held_a, "GET", "/healthz", "", false);
    assert_eq!(read_response(&mut held_a).status, 200);
    let mut held_b = connect(&server);
    send_request(&mut held_b, "GET", "/healthz", "", false);
    assert_eq!(read_response(&mut held_b).status, 200);
    // ...so the third is shed at accept with the standard 503.
    let mut shed = connect(&server);
    let response = read_response(&mut shed);
    assert_eq!(response.status, 503);
    assert_eq!(response.header("Retry-After"), Some("1"));
    assert!(response.body_text().contains("at capacity"));
    drop(shed);

    // Releasing a held slot readmits new connections.
    drop(held_a);
    let released = Instant::now();
    loop {
        let mut retry = connect(&server);
        send_request(&mut retry, "GET", "/healthz", "", true);
        if read_response(&mut retry).status == 200 {
            break;
        }
        assert!(
            released.elapsed() < Duration::from_secs(5),
            "slot was not reclaimed"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown_and_join();
}

#[test]
fn slowloris_partial_request_answers_408() {
    let server = start(ServeConfig {
        io_timeout_ms: 200,
        ..ServeConfig::default()
    });
    let mut stream = connect(&server);
    stream.write_all(b"GET /hea").expect("send partial");
    let response = read_response(&mut stream);
    assert_eq!(response.status, 408);
    assert!(response.body_text().contains("timed out"));
    // An *idle* keep-alive connection is exempt from the sweep: park
    // one well past the I/O timeout, then use it.
    let mut parked = connect(&server);
    send_request(&mut parked, "GET", "/healthz", "", false);
    assert_eq!(read_response(&mut parked).status, 200);
    std::thread::sleep(Duration::from_millis(600));
    send_request(&mut parked, "GET", "/healthz", "", false);
    assert_eq!(read_response(&mut parked).status, 200);
    server.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    assert_eq!(request(&server, "GET", "/healthz", "").status, 200);
    server.shutdown_and_join();
    // The listener is gone: connections now fail outright (or are
    // reset before a response arrives).
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = Vec::new();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            match stream.read_to_end(&mut buf) {
                Ok(0) => true,
                Ok(_) => false,
                Err(_) => true,
            }
        }
    };
    assert!(refused, "server must stop answering after shutdown");
}

#[test]
fn shutdown_with_parked_keep_alive_connections_does_not_hang() {
    let server = start(ServeConfig::default());
    let mut parked = connect(&server);
    send_request(&mut parked, "GET", "/healthz", "", false);
    assert_eq!(read_response(&mut parked).status, 200);
    // The connection stays open and idle; drain must close it rather
    // than wait for it.
    server.shutdown_and_join();
}

#[test]
fn worker_count_resolution_is_shared_with_rumor_par() {
    // The service resolves its pool through the same public function
    // the CLI and ensemble layer use — no private re-implementation.
    let server = start(ServeConfig {
        threads: Some(3),
        ..ServeConfig::default()
    });
    assert_eq!(server.workers(), rumor_par::resolve_threads(Some(3)));
    assert_eq!(server.workers(), 3);
    server.shutdown_and_join();
}

#[test]
fn jobs_endpoints_answer_503_when_disabled() {
    let server = start(ServeConfig::default());
    let refused = request(&server, "POST", "/v1/jobs", "{}");
    assert_eq!(refused.status, 503, "body: {}", refused.body_text());
    assert!(refused.body_text().contains("not enabled"));
    assert_eq!(request(&server, "GET", "/v1/jobs", "").status, 503);
    // Method/path hygiene is independent of the manager.
    assert_eq!(request(&server, "DELETE", "/v1/jobs", "").status, 405);
    server.shutdown_and_join();
}

#[test]
fn job_campaign_runs_retries_and_quarantines_over_http() {
    let dir = temp_jobs_dir("campaign");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });

    // Point 1 fails once (retry succeeds); point 3 is poison and must
    // quarantine, leaving the campaign `partial` with a manifest.
    let id = submit_job(
        &server,
        r#"{"kind": "threshold_sweep", "points": 5,
            "sweep": {"from": 0.02, "to": 0.03},
            "inject": {"transient": [1], "persistent": [3]},
            "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );

    let finished = wait_for_finish(&server, &id, Duration::from_secs(60));
    assert!(finished.contains("\"state\":\"partial\""), "{finished}");
    assert!(finished.contains("\"quarantined\":[3]"), "{finished}");
    assert!(finished.contains("\"completed\":4"), "{finished}");

    let results = request(&server, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert_eq!(results.status, 200);
    let body = results.body_text();
    assert!(body.contains("\"quarantined\":[3]"), "{body}");
    assert!(body.contains("\"lambda0\":0.02"), "{body}");
    assert!(body.contains("\"r0\""), "{body}");
    // Four durable point results, none for the quarantined index.
    assert_eq!(body.matches("\"point\":").count(), 4, "{body}");
    assert!(!body.contains("\"point\":3"), "{body}");

    // The job list and the metrics page both see the campaign.
    let listed = request(&server, "GET", "/v1/jobs", "").body_text();
    assert!(listed.contains(&id), "{listed}");
    let metrics = request(&server, "GET", "/metrics", "").body_text();
    assert!(
        metrics.contains("rumor_jobs_submitted_total 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("rumor_jobs_finished_total{state=\"partial\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("rumor_jobs_points_quarantined_total 1"),
        "{metrics}"
    );

    // Unknown jobs and illegal transitions map to clean statuses.
    assert_eq!(
        request(&server, "GET", "/v1/jobs/job-999999", "").status,
        404
    );
    assert_eq!(
        request(&server, "POST", &format!("/v1/jobs/{id}/bogus"), "").status,
        404
    );

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_rumor_optimize_campaign_round_trips_through_the_jobs_journal() {
    let dir = temp_jobs_dir("two-rumor");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });

    // A two-point multi-control campaign: point 1 warm-starts from
    // point 0's RCP2 checkpoint through the durable journal.
    let id = submit_job(
        &server,
        r#"{"kind": "optimize_sweep", "points": 2,
            "sweep": {"from": 0.02, "to": 0.022},
            "base": {"tf": 15, "max_iters": 60, "eps_max": 0.2,
                     "model": {"kind": "two_rumor"},
                     "network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );

    let finished = wait_for_finish(&server, &id, Duration::from_secs(120));
    assert!(finished.contains("\"state\":\"done\""), "{finished}");
    assert!(finished.contains("\"completed\":2"), "{finished}");

    let results = request(&server, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert_eq!(results.status, 200);
    let body = results.body_text();
    assert_eq!(body.matches("\"point\":").count(), 2, "{body}");
    assert!(body.contains("\"kind\":\"two_rumor\""), "{body}");
    assert!(body.contains("\"truth\""), "{body}");
    assert!(body.contains("\"blocking\""), "{body}");

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_resumes_and_completes_without_rerunning_points() {
    let dir = temp_jobs_dir("resume");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });

    // Throttled so cancel lands mid-campaign.
    let id = submit_job(
        &server,
        r#"{"kind": "threshold_sweep", "points": 40, "throttle_ms": 25,
            "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );

    std::thread::sleep(Duration::from_millis(200));
    let cancel = request(&server, "POST", &format!("/v1/jobs/{id}/cancel"), "");
    assert_eq!(cancel.status, 200, "body: {}", cancel.body_text());
    let finished = wait_for_finish(&server, &id, Duration::from_secs(30));
    assert!(finished.contains("\"state\":\"cancelled\""), "{finished}");

    let resume = request(&server, "POST", &format!("/v1/jobs/{id}/resume"), "");
    assert_eq!(resume.status, 200, "body: {}", resume.body_text());
    let finished = wait_for_finish(&server, &id, Duration::from_secs(60));
    assert!(finished.contains("\"state\":\"done\""), "{finished}");
    assert!(finished.contains("\"completed\":40"), "{finished}");

    // Resuming a done job is an illegal transition -> 400.
    assert_eq!(
        request(&server, "POST", &format!("/v1/jobs/{id}/resume"), "").status,
        400
    );

    let results = request(&server, "GET", &format!("/v1/jobs/{id}/results"), "");
    let body = results.body_text();
    assert_eq!(body.matches("\"point\":").count(), 40, "{body}");

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_stream_delivers_points_then_the_results_summary() {
    let dir = temp_jobs_dir("stream");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let id = submit_job(
        &server,
        r#"{"kind": "threshold_sweep", "points": 3, "throttle_ms": 50,
            "sweep": {"from": 0.02, "to": 0.03},
            "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );

    // Open the stream while the job is still running.
    let mut stream = connect(&server);
    send_request(
        &mut stream,
        "GET",
        &format!("/v1/jobs/{id}/stream"),
        "",
        false,
    );
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read whole stream");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "stream head: {text}"
    );
    assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");

    let body_start = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("stream head end")
        + 4;
    let chunks = decode_chunks(&raw[body_start..]);
    // Three point chunks plus the terminal summary chunk.
    assert_eq!(chunks.len(), 4, "{text}");
    for (i, chunk) in chunks[..3].iter().enumerate() {
        let line = String::from_utf8_lossy(chunk);
        assert!(line.ends_with('\n'), "chunk is a line: {line:?}");
        assert!(line.contains(&format!("\"point\":{i}")), "{line}");
    }
    let summary = String::from_utf8_lossy(&chunks[3]);
    assert!(summary.contains("\"state\":\"done\""), "{summary}");
    assert!(summary.contains("\"completed\":3"), "{summary}");
    assert!(summary.contains("\"manifest\":[]"), "{summary}");

    // Every streamed line also appears verbatim in the refetched
    // results body: a stream consumer and a later poller agree.
    let results = request(&server, "GET", &format!("/v1/jobs/{id}/results"), "");
    assert_eq!(results.status, 200);
    let results_body = results.body_text();
    for chunk in &chunks[..3] {
        let row = String::from_utf8_lossy(chunk);
        assert!(results_body.contains(row.trim_end()), "{results_body}");
    }
    assert!(
        results_body.starts_with(summary.trim_end().trim_end_matches('}')),
        "terminal summary is a prefix of the results body:\n{summary}\n{results_body}"
    );

    // An unknown job answers a plain 404, not a dead stream.
    assert_eq!(
        request(&server, "GET", "/v1/jobs/job-999999/stream", "").status,
        404
    );

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_job_stream_summary_carries_the_quarantine_manifest() {
    let dir = temp_jobs_dir("stream-partial");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    // Point 1 is poison: the campaign finishes partial with a manifest.
    let id = submit_job(
        &server,
        r#"{"kind": "threshold_sweep", "points": 3,
            "sweep": {"from": 0.02, "to": 0.03},
            "inject": {"persistent": [1]},
            "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );
    let mut stream = connect(&server);
    send_request(
        &mut stream,
        "GET",
        &format!("/v1/jobs/{id}/stream"),
        "",
        false,
    );
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read whole stream");
    let body_start = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("stream head end")
        + 4;
    let chunks = decode_chunks(&raw[body_start..]);
    let summary = String::from_utf8_lossy(chunks.last().expect("summary chunk"));
    assert!(summary.contains("\"state\":\"partial\""), "{summary}");
    assert!(summary.contains("\"quarantined\":[1]"), "{summary}");
    assert!(summary.contains("\"index\":1"), "{summary}");
    assert!(summary.contains("\"attempts\":"), "{summary}");
    // The refetched results body carries the identical manifest.
    let results_body = request(&server, "GET", &format!("/v1/jobs/{id}/results"), "").body_text();
    let manifest = summary
        .split("\"manifest\":")
        .nth(1)
        .and_then(|rest| rest.split(",\"missing\"").next())
        .expect("manifest in summary");
    assert!(results_body.contains(manifest), "{results_body}");
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_stream_client_frees_its_slot() {
    let dir = temp_jobs_dir("stream-kill");
    let server = start(ServeConfig {
        jobs_dir: Some(dir.to_string_lossy().into_owned()),
        max_connections: 2,
        ..ServeConfig::default()
    });
    // A slow campaign keeps the stream alive for several seconds.
    let id = submit_job(
        &server,
        r#"{"kind": "threshold_sweep", "points": 40, "throttle_ms": 100,
            "base": {"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}}}"#,
    );
    let mut stream = connect(&server);
    send_request(
        &mut stream,
        "GET",
        &format!("/v1/jobs/{id}/stream"),
        "",
        false,
    );
    // Read the head plus a first chunk, then vanish mid-stream.
    let mut first = [0u8; 256];
    let n = stream.read(&mut first).expect("read stream head");
    assert!(n > 0);
    drop(stream);

    // The loop notices on its next chunk write and reclaims the slot:
    // with the cap at 2, new one-shot requests must keep succeeding.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = request(&server, "GET", "/healthz", "");
        if health.status == 200 {
            let metrics = request(&server, "GET", "/metrics", "").body_text();
            // Only the /metrics connection itself is registered.
            if metrics.contains("rumor_serve_epoll_connections 1") {
                break;
            }
        }
        assert!(Instant::now() < deadline, "stream slot was never reclaimed");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Stop the campaign so shutdown does not wait out 40 throttled points.
    assert_eq!(
        request(&server, "POST", &format!("/v1/jobs/{id}/cancel"), "").status,
        200
    );
    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
