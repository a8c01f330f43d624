//! A small HTTP/1.1 client that measures what a caller sees.
//!
//! One [`Conn`] is one client connection slot. It reuses its socket
//! while the server answers `Connection: keep-alive` and opens a new one
//! when the server closes, so both connection layers are driven the
//! same way and `connections_per_req` shows which one a server has.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Generous enough for the slowest analyst request, short of the
/// server's own deadline plus slack.
const READ_TIMEOUT: Duration = Duration::from_secs(90);

/// One parsed response, with the client-side timings of its exchange.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// The body; empty for a chunked response, whose payload is in
    /// `chunks`.
    pub body: Vec<u8>,
    /// Chunk payloads and their arrival offsets from the request start
    /// (chunked responses only).
    pub chunks: Vec<(Duration, Vec<u8>)>,
    /// Time spent opening a new connection, if this request opened one.
    pub connect: Option<Duration>,
    /// From the request's first byte written to the response's first
    /// byte read.
    pub ttfb: Duration,
    pub bytes_out: usize,
    pub bytes_in: usize,
}

impl Response {
    pub fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Why an exchange produced no response.
#[derive(Debug)]
pub enum ClientError {
    Connect(std::io::Error),
    /// The socket failed before any response byte arrived.
    Closed(std::io::Error),
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Closed(e) => write!(f, "closed before a response: {e}"),
            ClientError::Io(e) => write!(f, "i/o failed: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
        }
    }
}

/// Renders a request. `Connection` is left to the HTTP/1.1 default
/// (keep-alive), so the server decides whether the socket survives.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n").into_bytes();
    if method == "POST" {
        out.extend_from_slice(
            format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// A client connection slot.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Sockets this slot has opened.
    pub opened: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            opened: 0,
        }
    }

    /// Sends one request and reads its whole response.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        self.exchange(&request_bytes(method, path, body))
    }

    /// Sends pre-rendered request bytes and reads the whole response.
    pub fn exchange(&mut self, request: &[u8]) -> Result<Response, ClientError> {
        let reused = self.stream.is_some();
        match self.try_exchange(request) {
            // A kept-alive socket the server has since closed fails
            // before any response byte: retry once on a fresh socket.
            Err(ClientError::Closed(_)) if reused => {
                self.stream = None;
                self.try_exchange(request)
            }
            other => other,
        }
    }

    fn try_exchange(&mut self, request: &[u8]) -> Result<Response, ClientError> {
        let mut connect = None;
        if self.stream.is_none() {
            let t0 = Instant::now();
            let stream = TcpStream::connect(self.addr).map_err(ClientError::Connect)?;
            connect = Some(t0.elapsed());
            stream.set_nodelay(true).map_err(ClientError::Io)?;
            stream
                .set_read_timeout(Some(READ_TIMEOUT))
                .map_err(ClientError::Io)?;
            self.stream = Some(stream);
            self.opened += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        let start = Instant::now();
        if let Err(e) = stream.write_all(request) {
            self.stream = None;
            return Err(ClientError::Closed(e));
        }
        let result = read_response(stream, start);
        match result {
            Ok((mut response, keep)) => {
                if !keep {
                    self.stream = None;
                }
                response.connect = connect;
                response.bytes_out = request.len();
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Buffered reader over one socket for one response.
struct Reader<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    pos: usize,
    total: usize,
    first_byte: Option<Instant>,
}

impl Reader<'_> {
    fn fill(&mut self) -> Result<(), ClientError> {
        let mut tmp = [0u8; 16 * 1024];
        let fail = |total: usize, e: std::io::Error| {
            if total == 0 {
                ClientError::Closed(e)
            } else {
                ClientError::Io(e)
            }
        };
        let n = self
            .stream
            .read(&mut tmp)
            .map_err(|e| fail(self.total, e))?;
        if n == 0 {
            let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed");
            return Err(fail(self.total, eof));
        }
        self.first_byte.get_or_insert_with(Instant::now);
        self.total += n;
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Bytes up to (excluding) the next `delim`, consuming the delimiter.
    fn until(&mut self, delim: &[u8]) -> Result<Vec<u8>, ClientError> {
        loop {
            if let Some(at) = self.buf[self.pos..]
                .windows(delim.len())
                .position(|w| w == delim)
            {
                let out = self.buf[self.pos..self.pos + at].to_vec();
                self.pos += at + delim.len();
                return Ok(out);
            }
            self.fill()?;
        }
    }

    fn exact(&mut self, n: usize) -> Result<Vec<u8>, ClientError> {
        while self.buf.len() - self.pos < n {
            self.fill()?;
        }
        let out = self.buf[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }
}

fn read_response(stream: &mut TcpStream, start: Instant) -> Result<(Response, bool), ClientError> {
    let mut r = Reader {
        stream,
        buf: Vec::new(),
        pos: 0,
        total: 0,
        first_byte: None,
    };
    let head = r.until(b"\r\n\r\n")?;
    let head = String::from_utf8(head).map_err(|_| ClientError::Malformed("head".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::Malformed(format!("status line {status_line:?}")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.clone())
    };
    let keep = find("connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    let mut chunks = Vec::new();
    let body = if find("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            let size_line = r.until(b"\r\n")?;
            let size = std::str::from_utf8(&size_line)
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                .ok_or_else(|| ClientError::Malformed("chunk size".into()))?;
            if size == 0 {
                r.until(b"\r\n")?;
                break;
            }
            let payload = r.exact(size)?;
            r.exact(2)?;
            chunks.push((start.elapsed(), payload));
        }
        Vec::new()
    } else {
        let len = find("content-length")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ClientError::Malformed("no content-length".into()))?;
        r.exact(len)?
    };
    let ttfb = r.first_byte.map_or(Duration::ZERO, |t| t - start);
    let bytes_in = r.total;
    Ok((
        Response {
            status,
            body,
            chunks,
            connect: None,
            ttfb,
            bytes_out: 0,
            bytes_in,
        },
        keep,
    ))
}
