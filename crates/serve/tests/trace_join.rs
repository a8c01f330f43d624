//! Every `X-Trace-Id` a client receives joins exactly one server-side
//! trace record: the `serve.request` span of the request (with its
//! status), or the `serve.shed` event of a `503` shed. A test binary of
//! its own because the trace sink is process-global.

#![cfg(target_os = "linux")]

use rumor_serve::wire::{self, Value};
use rumor_serve::{serve, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A trace sink the test can read back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("sink buffer lock")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
}

/// Sends raw bytes, reads until the server closes, and returns the
/// status and `X-Trace-Id` of the response.
fn exchange(stream: &mut TcpStream, raw: &[u8]) -> (u16, u64) {
    stream.write_all(raw).expect("send request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("status line: {text}"));
    let trace = text
        .split("X-Trace-Id: ")
        .nth(1)
        .and_then(|rest| rest.split("\r\n").next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("X-Trace-Id header: {text}"));
    (status, trace)
}

fn close_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn field(record: &Value, key: &str) -> Option<f64> {
    record.get(key).and_then(Value::as_f64)
}

#[test]
fn every_trace_id_joins_one_server_record_with_its_status() {
    let sink = SharedBuf::default();
    rumor_obs::init(rumor_obs::LogFormat::Json, Some(Box::new(sink.clone())));
    let server = serve(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_body_bytes: 1024,
        io_timeout_ms: 200,
        max_connections: 2,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");

    let sim =
        r#"{"network": {"nodes": 300, "k_max": 25, "mean_degree": 4}, "tf": 10, "n_out": 41}"#;
    let requests: Vec<(&str, Vec<u8>)> = vec![
        ("inline", close_request("GET", "/healthz", "").into_bytes()),
        ("inline 404", close_request("GET", "/nope", "").into_bytes()),
        (
            "inline 503",
            close_request("POST", "/v1/jobs", "{}").into_bytes(),
        ),
        (
            "compute miss",
            close_request("POST", "/v1/simulate", sim).into_bytes(),
        ),
        (
            "compute hit",
            close_request("POST", "/v1/simulate", sim).into_bytes(),
        ),
        (
            "compute 400",
            close_request("POST", "/v1/simulate", "{not json").into_bytes(),
        ),
        ("parse 400", b"NOT A REQUEST\r\n\r\n".to_vec()),
        (
            "parse 413",
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 4096\r\n\r\n".to_vec(),
        ),
        ("sweep 408", b"GET /hea".to_vec()),
    ];
    let mut answers: Vec<(&str, u16, u64)> = requests
        .iter()
        .map(|(kind, raw)| {
            let (status, trace) = exchange(&mut connect(&server), raw);
            (*kind, status, trace)
        })
        .collect();

    // Two parked keep-alive connections fill the cap, so the next
    // connection is shed at accept.
    let held: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = connect(&server);
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("send request");
            let mut first = [0u8; 512];
            assert!(stream.read(&mut first).expect("read response") > 0);
            stream
        })
        .collect();
    let (status, trace) = exchange(&mut connect(&server), b"");
    answers.push(("shed", status, trace));
    drop(held);
    // Joining the server's threads means every span has been emitted.
    server.shutdown_and_join();
    rumor_obs::shutdown();

    let text =
        String::from_utf8(sink.0.lock().expect("sink buffer lock").clone()).expect("utf8 trace");
    let records: Vec<Value> = text
        .lines()
        .map(|line| wire::parse(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    let named = |name: &'static str| {
        records
            .iter()
            .filter(move |r| r.get("name").and_then(Value::as_str) == Some(name))
    };
    let expected = [200, 404, 503, 200, 200, 400, 400, 413, 408, 503];
    let statuses: Vec<u16> = answers.iter().map(|(_, status, _)| *status).collect();
    assert_eq!(statuses, expected, "{answers:?}");

    for (kind, status, trace) in &answers {
        let trace = *trace as f64;
        let spans: Vec<&Value> = named("serve.request")
            .filter(|r| field(r, "trace") == Some(trace))
            .collect();
        let sheds = named("serve.shed")
            .filter(|r| field(r, "trace") == Some(trace))
            .count();
        if *kind == "shed" {
            assert_eq!((spans.len(), sheds), (0, 1), "{kind}: {text}");
            continue;
        }
        assert_eq!((spans.len(), sheds), (1, 0), "{kind}: {text}");
        assert_eq!(
            field(spans[0], "status"),
            Some(f64::from(*status)),
            "{kind}: {text}"
        );
    }

    // The cold compute's engine span nests under its request span.
    let (_, _, miss_trace) = answers[3];
    let request_span = named("serve.request")
        .find(|r| field(r, "trace") == Some(miss_trace as f64))
        .expect("request span of the cold compute");
    assert_eq!(
        request_span.get("endpoint").and_then(Value::as_str),
        Some("simulate")
    );
    let compute = named("serve.compute")
        .find(|r| field(r, "trace") == Some(miss_trace as f64))
        .expect("compute span of the cold compute");
    assert_eq!(field(compute, "parent"), field(request_span, "id"));
}
