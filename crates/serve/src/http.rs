//! Minimal HTTP/1.1 framing for the event loop.
//!
//! Only what the service needs: an incremental request parser
//! ([`RequestParser`]) with `Content-Length` bodies under a hard cap
//! (checked **before** the body is read, so an oversized upload costs
//! one header parse, not 1 MiB of buffering), `Expect: 100-continue`
//! detection for curl-style clients, and response framing in two
//! flavours:
//!
//! * `Content-Length`-framed ([`response_bytes`]) — `Connection:
//!   keep-alive` when the client may reuse the connection (so idle
//!   pollers cost an epoll slot, not a handshake per poll), `close`
//!   otherwise; every other byte is the same either way;
//! * chunked (`Transfer-Encoding: chunked`) — job streams emit each
//!   campaign point as its own chunk the moment it is durable.

/// Maximum bytes of request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (path only; the service ignores queries).
    pub target: String,
    /// `true` for an `HTTP/1.0` request line, whose connection closes
    /// after the response unless the client asks to keep it alive.
    pub http10: bool,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may stay open after this exchange (RFC
    /// 9112 §9.3): HTTP/1.1 persists unless the client sends
    /// `Connection: close`, HTTP/1.0 only when it sends `Connection:
    /// keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let connection_has = |token: &str| {
            self.header("connection")
                .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
        };
        if self.http10 {
            connection_has("keep-alive")
        } else {
            !connection_has("close")
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically invalid request (HTTP 400).
    Malformed(String),
    /// Declared body exceeds the configured cap (HTTP 413).
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// Unsupported framing, e.g. chunked transfer (HTTP 501).
    Unsupported(String),
}

/// The message the client receives in the error body.
impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Malformed(m) | ReadError::Unsupported(m) => f.write_str(m),
            ReadError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte cap")
            }
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a request head (request line + header lines, **without** the
/// terminating blank line) into a body-less [`Request`].
///
/// # Errors
///
/// [`ReadError::Malformed`] for a syntactically invalid head.
pub fn parse_head(head: &[u8]) -> Result<Request, ReadError> {
    let head = std::str::from_utf8(head)
        .map_err(|_| ReadError::Malformed("non-UTF-8 header block".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        http10: version == "HTTP/1.0",
        headers,
        body: Vec::new(),
    })
}

/// Validates the framing headers and returns the declared body length.
///
/// # Errors
///
/// [`ReadError::Unsupported`] for chunked uploads,
/// [`ReadError::Malformed`] for a bad `Content-Length`, and
/// [`ReadError::BodyTooLarge`] beyond the cap — decided from the head
/// alone, before any body byte is read.
pub fn declared_body_len(request: &Request, max_body: usize) -> Result<usize, ReadError> {
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::Unsupported(
            "chunked transfer encoding is not supported; send Content-Length".to_string(),
        ));
    }
    let declared = match request.header("content-length") {
        None => 0,
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed(format!("bad Content-Length {raw:?}")))?,
    };
    if declared > max_body {
        return Err(ReadError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    Ok(declared)
}

/// What an incremental parse step produced.
#[derive(Debug)]
pub enum Parsed {
    /// The buffered bytes do not yet hold a complete request.
    NeedMore,
    /// One complete request; its bytes were consumed from the buffer
    /// (pipelined bytes for the next request remain buffered).
    Ready(Request),
    /// The byte stream can never become a valid request.
    Failed(ReadError),
}

/// Incremental request parser for the event loop: bytes arrive
/// in arbitrary fragments (header split mid-line, body split mid-byte)
/// and are buffered until a full request is present. One parser lives
/// per connection and survives across keep-alive requests.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_body: usize,
    /// Head already parsed for the in-progress request, plus its body
    /// span: `(request, body_start, declared_len)`.
    pending: Option<(Request, usize, usize)>,
    /// Set once when an `Expect: 100-continue` head has been parsed but
    /// the body has not fully arrived; the event loop answers with an
    /// interim `100 Continue` and clears it.
    wants_continue: bool,
}

impl RequestParser {
    /// A fresh parser enforcing the given body cap.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            max_body,
            pending: None,
            wants_continue: false,
        }
    }

    /// `true` while no byte of the next request has arrived (the
    /// connection is idle at a request boundary — keep-alive parked).
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none()
    }

    /// Takes the one-shot `100 Continue` request, if the last feed
    /// parsed an `Expect: 100-continue` head with an incomplete body.
    pub fn take_wants_continue(&mut self) -> bool {
        std::mem::take(&mut self.wants_continue)
    }

    /// Appends bytes and attempts to complete a request.
    pub fn feed(&mut self, bytes: &[u8]) -> Parsed {
        self.buf.extend_from_slice(bytes);
        self.advance()
    }

    /// Re-attempts a parse on already-buffered bytes (used after a
    /// response is flushed, to pick up a pipelined next request).
    pub fn advance(&mut self) -> Parsed {
        if self.pending.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Parsed::Failed(ReadError::Malformed(format!(
                        "header block exceeds {MAX_HEAD_BYTES} bytes"
                    )));
                }
                return Parsed::NeedMore;
            };
            let request = match parse_head(&self.buf[..head_end]) {
                Ok(r) => r,
                Err(e) => return Parsed::Failed(e),
            };
            let declared = match declared_body_len(&request, self.max_body) {
                Ok(n) => n,
                Err(e) => return Parsed::Failed(e),
            };
            self.pending = Some((request, head_end + 4, declared));
        }
        let (_, body_start, declared) = *self.pending.as_ref().expect("pending set above");
        if self.buf.len() < body_start + declared {
            let (request, _, _) = self.pending.as_ref().expect("pending set above");
            if request.header("expect").is_some_and(|v| v.contains("100")) {
                self.wants_continue = true;
            }
            return Parsed::NeedMore;
        }
        let (mut request, body_start, declared) = self.pending.take().expect("pending set above");
        request.body = self.buf[body_start..body_start + declared].to_vec();
        self.buf.drain(..body_start + declared);
        self.wants_continue = false;
        Parsed::Ready(request)
    }
}

/// Renders a complete `Content-Length`-framed response into a buffer.
/// `keep_alive` selects the `Connection:` token; every other byte is
/// the same either way.
pub fn response_bytes(
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Renders the head of a chunked-streaming response. The body follows
/// as [`chunk_bytes`] frames and ends with [`terminal_chunk_bytes`];
/// the connection closes after the terminal chunk.
pub fn stream_head_bytes(status: u16, reason: &str, content_type: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// Frames one payload as a single HTTP chunk (hex length, CRLF
/// delimiters). Empty payloads are skipped — a zero-length chunk would
/// terminate the stream.
pub fn chunk_bytes(payload: &[u8]) -> Vec<u8> {
    if payload.is_empty() {
        return Vec::new();
    }
    let mut out = format!("{:x}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// The zero-length chunk that terminates a chunked stream.
pub fn terminal_chunk_bytes() -> &'static [u8] {
    b"0\r\n\r\n"
}

/// The standard reason phrase for the statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(parsed: Parsed) -> Request {
        match parsed {
            Parsed::Ready(r) => r,
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    fn assert_need_more(parsed: &Parsed) {
        assert!(matches!(parsed, Parsed::NeedMore), "expected NeedMore");
    }

    #[test]
    fn whole_request_in_one_feed() {
        let mut p = RequestParser::new(1024);
        let r = ready(p.feed(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"));
        assert_eq!(r.method, "POST");
        assert_eq!(r.target, "/v1/simulate");
        assert_eq!(r.body, b"{}");
        assert!(p.is_idle());
    }

    #[test]
    fn header_split_mid_line() {
        let mut p = RequestParser::new(1024);
        // Split inside the request line, inside a header name, and
        // between the CR and LF of the terminating blank line.
        assert_need_more(&p.feed(b"GET /hea"));
        assert_need_more(&p.feed(b"lthz HTTP/1.1\r\nHo"));
        assert_need_more(&p.feed(b"st: x\r\n\r"));
        let r = ready(p.feed(b"\n"));
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn version_decides_keep_alive() {
        let parse = |raw: &[u8]| ready(RequestParser::new(1024).feed(raw));
        let old = parse(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(old.http10);
        assert!(!old.keep_alive(), "HTTP/1.0 closes by default");
        let old_alive = parse(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        assert!(old_alive.keep_alive());
        let new = parse(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(!new.http10);
        assert!(new.keep_alive(), "HTTP/1.1 persists by default");
        let new_close = parse(b"GET /healthz HTTP/1.1\r\nConnection: TE, close\r\n\r\n");
        assert!(!new_close.keep_alive());
    }

    #[test]
    fn body_split_mid_byte() {
        let mut p = RequestParser::new(1024);
        assert_need_more(&p.feed(b"POST /v1/threshold HTTP/1.1\r\nContent-Length: 9\r\n\r\n"));
        assert_need_more(&p.feed(b"{\"a\""));
        let r = ready(p.feed(b":true}"));
        assert_eq!(r.body, b"{\"a\":true}"[..9].to_vec());
        // One over-delivered byte? No: 4 + 6 = 10 > 9, so the tenth
        // byte stays buffered as the start of a pipelined request.
        assert!(!p.is_idle());
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let mut p = RequestParser::new(1024);
        let r1 = ready(p.feed(b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n"));
        assert_eq!(r1.target, "/healthz");
        let r2 = ready(p.advance());
        assert_eq!(r2.target, "/metrics");
        assert!(p.is_idle());
    }

    #[test]
    fn body_too_large_rejected_from_head_alone() {
        let mut p = RequestParser::new(8);
        let parsed = p.feed(b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 99\r\n\r\n");
        match parsed {
            Parsed::Failed(ReadError::BodyTooLarge { declared, limit }) => {
                assert_eq!((declared, limit), (99, 8));
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn chunked_upload_rejected() {
        let mut p = RequestParser::new(1024);
        let parsed = p.feed(b"POST /v1/simulate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(parsed, Parsed::Failed(ReadError::Unsupported(_))));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut p = RequestParser::new(1024);
        let filler = vec![b'a'; MAX_HEAD_BYTES + 8];
        assert!(matches!(
            p.feed(&filler),
            Parsed::Failed(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn expect_continue_flagged_until_body_arrives() {
        let mut p = RequestParser::new(1024);
        assert_need_more(&p.feed(
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n",
        ));
        assert!(p.take_wants_continue());
        assert!(!p.take_wants_continue(), "one-shot flag must clear");
        let r = ready(p.feed(b"{}"));
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn response_bytes_matches_one_shot_framing() {
        let close = response_bytes(200, "OK", "application/json", &[], b"{}", false);
        let text = String::from_utf8(close).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        let alive = response_bytes(200, "OK", "application/json", &[], b"{}", true);
        let text = String::from_utf8(alive).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
    }

    #[test]
    fn chunk_framing_round_trips() {
        assert_eq!(chunk_bytes(b"hello\n"), b"6\r\nhello\n\r\n");
        assert!(chunk_bytes(b"").is_empty());
        assert_eq!(terminal_chunk_bytes(), b"0\r\n\r\n");
        let head = String::from_utf8(stream_head_bytes(200, "OK", "application/json")).unwrap();
        assert!(head.contains("Transfer-Encoding: chunked\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
    }
}
