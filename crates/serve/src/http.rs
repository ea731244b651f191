//! Minimal HTTP/1.1 on `std::net` — exactly what the solve service needs
//! and nothing more: request parsing with bounded header/body sizes,
//! percent-decoded query strings, keep-alive, and response writing.
//!
//! The parser is **incremental**: [`try_parse`] inspects a byte slice and
//! either produces a complete [`Request`] plus the number of bytes it
//! consumed, or reports that more bytes are needed — no blocking reads, no
//! per-line temporary strings. Connections feed it from a [`RecvBuffer`],
//! a ring-style buffer whose allocation is recycled across every request
//! on the connection, so steady-state keep-alive traffic parses without
//! per-request buffer allocation. The same parser serves both the epoll
//! reactor (non-blocking) and the `--legacy-blocking` path (via
//! [`read_request_buffered`]), which is what makes their responses
//! byte-identical by construction.
//!
//! The client side is one bounded reader, [`read_response`], shared by the
//! load generator's [`Client`](crate::loadgen::Client) and the cluster
//! proxy.
//!
//! Not a general web server: no chunked transfer encoding, no multipart,
//! no TLS. Clients that need those get a clean 4xx, not undefined behavior.

use std::io::{BufRead, Read, Write};

/// Upper bound on the request line + headers block (and on a response's
/// status line + headers block in [`read_response`]).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default upper bound on a request body (instances beyond this are absurd
/// for small-diameter graphs and would only stall a worker). Overridable
/// per server via `--max-body-bytes`.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path without the query string, e.g. `/solve`.
    pub path: String,
    /// The raw request target (path + query, still percent-encoded), kept
    /// verbatim so a cluster proxy can forward the request byte-exactly.
    pub target: String,
    /// Percent-decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Minor HTTP version from the request line (`0` for HTTP/1.0, `1`
    /// for HTTP/1.1). Decides the keep-alive default.
    pub version_minor: u8,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value (name matched case-insensitively at parse time).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }

    /// Does the client ask to keep the connection open? HTTP/1.1 defaults
    /// to keep-alive unless `Connection: close`; HTTP/1.0 defaults to
    /// close unless `Connection: keep-alive` — a 1.0 client without that
    /// header would otherwise hang waiting for EOF.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version_minor >= 1,
        }
    }
}

/// Why a request could not be parsed. `ConnectionClosed` is the clean
/// end-of-keep-alive case, not an error to report.
#[derive(Debug)]
pub enum ParseError {
    ConnectionClosed,
    Io(std::io::Error),
    /// Malformed request; the `&'static str` is a safe-to-echo reason.
    Bad(&'static str),
    /// Head or body over the fixed limits (→ 431/413).
    TooLarge(&'static str),
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// A growable ring-style receive buffer: bytes are committed at the tail,
/// consumed from the head, and the allocation is recycled — when the head
/// catches the tail the indices snap back to zero, and when the tail hits
/// the end the live bytes slide to the front. Steady-state keep-alive
/// traffic therefore reuses one allocation for every request on the
/// connection instead of allocating per request.
#[derive(Debug)]
pub struct RecvBuffer {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Default for RecvBuffer {
    fn default() -> Self {
        RecvBuffer::with_capacity(4096)
    }
}

impl RecvBuffer {
    pub fn with_capacity(cap: usize) -> RecvBuffer {
        RecvBuffer {
            buf: vec![0u8; cap.max(64)],
            head: 0,
            tail: 0,
        }
    }

    /// The unconsumed bytes, oldest first.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Drop `n` consumed bytes from the head. Fully drained buffers snap
    /// their indices back to the start so the next request reuses the
    /// whole allocation without any copying.
    pub fn consume(&mut self, n: usize) {
        self.head += n.min(self.tail - self.head);
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
    }

    /// A writable tail slice of at least `min` bytes; slides live bytes to
    /// the front (ring wrap) before growing the allocation.
    pub fn spare(&mut self, min: usize) -> &mut [u8] {
        if self.buf.len() - self.tail < min {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.buf.len() - self.tail < min {
                let want = (self.tail + min).max(self.buf.len() * 2);
                self.buf.resize(want.next_power_of_two(), 0);
            }
        }
        &mut self.buf[self.tail..]
    }

    /// Mark `n` bytes (just written into [`RecvBuffer::spare`]) as live.
    pub fn commit(&mut self, n: usize) {
        self.tail += n;
        debug_assert!(self.tail <= self.buf.len());
    }
}

/// Incrementally parse one request from `data`.
///
/// * `Ok(Some((request, consumed)))` — a complete request; the caller must
///   consume `consumed` bytes.
/// * `Ok(None)` — the bytes so far are a valid prefix; read more.
/// * `Err(..)` — malformed or over-limit; the connection should answer an
///   error and close.
///
/// The head is parsed in place from the slice (no intermediate line
/// buffers); only the final `Request` fields are materialized.
pub fn try_parse(
    data: &[u8],
    max_head: usize,
    max_body: usize,
) -> Result<Option<(Request, usize)>, ParseError> {
    let Some((mut request, head_end)) = parse_head(data, max_head)? else {
        return Ok(None);
    };
    if request
        .headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ParseError::Bad("transfer-encoding not supported"));
    }
    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Bad("bad content-length"))?,
        None => 0,
    };
    // Reject an oversized body from the Content-Length declaration alone —
    // before buffering a single body byte (→ 413, connection closes).
    if content_length > max_body {
        return Err(ParseError::TooLarge("body too large"));
    }
    if data.len() < head_end + content_length {
        return Ok(None);
    }
    request.body = data[head_end..head_end + content_length].to_vec();
    Ok(Some((request, head_end + content_length)))
}

/// The interim response that releases a client waiting on
/// `Expect: 100-continue`.
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// `true` when `data` starts with a complete HTTP/1.1 head carrying
/// `Expect: 100-continue` (value matched case-insensitively). Such a
/// client (curl, for bodies over 1 MiB) holds its body back until it reads
/// [`CONTINUE`] or a timeout passes. Meaningful only while [`try_parse`]
/// still reports the request incomplete, i.e. the body has not all arrived.
pub(crate) fn expects_continue(data: &[u8]) -> bool {
    matches!(
        parse_head(data, MAX_HEAD_BYTES),
        Ok(Some((req, _))) if req.version_minor == 1
            && req.header("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    )
}

/// Parse the request line and headers at the front of `data`. `Ok(None)`
/// until the blank line ending the head has arrived; otherwise the request
/// with an empty body, and the head's length in bytes.
fn parse_head(data: &[u8], max_head: usize) -> Result<Option<(Request, usize)>, ParseError> {
    // Locate the end of the head: the first empty line ("\r\n" or "\n").
    let mut head_end = None; // byte offset one past the blank line
    let mut line_start = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let line = &data[line_start..i];
        let line = if line.last() == Some(&b'\r') {
            &line[..line.len() - 1]
        } else {
            line
        };
        if line.is_empty() && line_start > 0 {
            head_end = Some(i + 1);
            break;
        }
        line_start = i + 1;
        if line_start > max_head {
            return Err(ParseError::TooLarge("header block too large"));
        }
    }
    let Some(head_end) = head_end else {
        if data.len() > max_head {
            return Err(ParseError::TooLarge("header block too large"));
        }
        return Ok(None);
    };
    if head_end > max_head {
        return Err(ParseError::TooLarge("header block too large"));
    }

    let head = std::str::from_utf8(&data[..head_end])
        .map_err(|_| ParseError::Bad("non-UTF-8 header bytes"))?;
    let mut lines = head.lines();
    let first_line = lines.next().ok_or(ParseError::Bad("empty request line"))?;
    let mut parts = first_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::Bad("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(ParseError::Bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Bad("missing HTTP version"))?;
    let version_minor = match version {
        "HTTP/1.0" => 0,
        "HTTP/1.1" => 1,
        _ => return Err(ParseError::Bad("unsupported HTTP version")),
    };

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(path_raw).ok_or(ParseError::Bad("bad percent-encoding in path"))?;
    let query = match query_raw {
        Some(q) => parse_query(q).ok_or(ParseError::Bad("bad percent-encoding in query"))?,
        None => Vec::new(),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the blank terminator
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Bad("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    Ok(Some((
        Request {
            method,
            path,
            target: target.to_string(),
            query,
            headers,
            body: Vec::new(),
            version_minor,
        },
        head_end,
    )))
}

/// Blocking companion to [`try_parse`] for the `--legacy-blocking` path
/// and tests: read from `stream` into `rb` until one complete request
/// parses (honoring the stream's read timeout). Returns
/// `ConnectionClosed` on EOF before any byte of a new request.
pub fn read_request_buffered(
    stream: &mut impl Read,
    rb: &mut RecvBuffer,
    max_body: usize,
) -> Result<Request, ParseError> {
    loop {
        if let Some((req, consumed)) = try_parse(rb.data(), MAX_HEAD_BYTES, max_body)? {
            rb.consume(consumed);
            return Ok(req);
        }
        let spare = rb.spare(4096);
        let n = stream.read(spare)?;
        if n == 0 {
            return Err(if rb.is_empty() {
                ParseError::ConnectionClosed
            } else {
                ParseError::Bad("truncated request")
            });
        }
        rb.commit(n);
    }
}

/// Parse `a=1&b=x%20y` (missing `=` means empty value).
fn parse_query(q: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = match pair.split_once('=') {
            Some((k, v)) => (k, v),
            None => (pair, ""),
        };
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// Decode `%XX` escapes and `+`-as-space. Returns `None` on malformed
/// escapes or non-UTF-8 results.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A response as a client reads it.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    /// Header value (name matched case-insensitively at parse time).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }
}

/// Read one `content-length`-framed response. Both limits hold before
/// anything is allocated for them: the head may not exceed
/// [`MAX_HEAD_BYTES`] and the declared body may not exceed
/// [`MAX_BODY_BYTES`], so a broken or hostile peer costs an `InvalidData`
/// error, never an unbounded allocation. EOF before the first byte is
/// `UnexpectedEof`; reading stops exactly at the body's end, so a
/// keep-alive connection stays aligned on the next response.
pub fn read_response(reader: &mut impl BufRead) -> std::io::Result<Response> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut head = String::new();
    let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64);
    loop {
        let start = head.len();
        if limited.read_line(&mut head)? == 0 {
            return Err(if head.is_empty() {
                std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
            } else {
                bad("truncated or oversized response head")
            });
        }
        if matches!(&head[start..], "\r\n" | "\n") {
            break;
        }
    }
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines.take_while(|line| !line.is_empty()) {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut response = Response {
        status,
        headers,
        body: String::new(),
    };
    let len: usize = response
        .header("content-length")
        .ok_or_else(|| bad("missing content-length"))?
        .parse()
        .map_err(|_| bad("bad content-length"))?;
    if len > MAX_BODY_BYTES {
        return Err(bad(&format!(
            "response body of {len} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    let mut body = vec![0; len];
    reader.read_exact(&mut body)?;
    response.body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(response)
}

/// Canonical reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Render one response to bytes. `extra_headers` are `(name, value)` pairs
/// appended after the standard set. The default `content-type` is
/// `application/json`; an `extra_headers` entry named `content-type`
/// (case-insensitive) **replaces** the default instead of duplicating it,
/// so non-JSON endpoints (Prometheus `/metrics`) can declare themselves.
///
/// Both serve paths (epoll reactor and `--legacy-blocking`) emit responses
/// through this one function, which is what pins them byte-identical.
pub fn render_response(
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let caller_sets_content_type = extra_headers
        .iter()
        .any(|(k, _)| k.eq_ignore_ascii_case("content-type"));
    let mut out = Vec::with_capacity(256 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", status, reason(status)).as_bytes());
    if !caller_sets_content_type {
        out.extend_from_slice(b"content-type: application/json\r\n");
    }
    out.extend_from_slice(
        format!(
            "content-length: {}\r\nconnection: {}\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    for (k, v) in extra_headers {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Write one response (blocking). See [`render_response`].
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&render_response(status, extra_headers, body, keep_alive))?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c").as_deref(), Some("a b c"));
        assert_eq!(percent_decode("2%2C1").as_deref(), Some("2,1"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert!(percent_decode("bad%zz").is_none());
        assert!(percent_decode("trunc%2").is_none());
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("p=2%2C1&strategy=auto&flag").unwrap();
        assert_eq!(
            q,
            vec![
                ("p".into(), "2,1".into()),
                ("strategy".into(), "auto".into()),
                ("flag".into(), "".into()),
            ]
        );
    }

    #[test]
    fn reasons_cover_served_codes() {
        for code in [200, 400, 404, 405, 413, 422, 431, 500, 502, 503] {
            assert!(!reason(code).is_empty(), "{code}");
        }
    }

    #[test]
    fn keep_alive_defaults_follow_http_version() {
        let req = |version_minor, connection: Option<&str>| Request {
            method: "GET".into(),
            path: "/healthz".into(),
            target: "/healthz".into(),
            query: vec![],
            headers: connection
                .map(|v| vec![("connection".to_string(), v.to_string())])
                .unwrap_or_default(),
            body: vec![],
            version_minor,
        };
        // HTTP/1.1: keep-alive unless told otherwise.
        assert!(req(1, None).keep_alive());
        assert!(!req(1, Some("close")).keep_alive());
        // HTTP/1.0: close unless the client opts in.
        assert!(!req(0, None).keep_alive());
        assert!(req(0, Some("keep-alive")).keep_alive());
        assert!(req(0, Some("Keep-Alive")).keep_alive());
        assert!(!req(0, Some("close")).keep_alive());
    }

    fn parse_all(bytes: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        try_parse(bytes, MAX_HEAD_BYTES, MAX_BODY_BYTES)
    }

    #[test]
    fn incremental_prefixes_are_incomplete_never_errors() {
        let full = b"POST /solve?p=2,1 HTTP/1.1\r\nhost: x\r\ncontent-length: 4\r\n\r\nBODY";
        // Every strict prefix parses to "need more bytes".
        for cut in 0..full.len() {
            let r = parse_all(&full[..cut]);
            assert!(matches!(r, Ok(None)), "prefix of {cut} bytes gave {r:?}");
        }
        let (req, consumed) = parse_all(full).unwrap().expect("complete");
        assert_eq!(consumed, full.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.target, "/solve?p=2,1");
        assert_eq!(req.query_param("p"), Some("2,1"));
        assert_eq!(req.body, b"BODY");
        assert_eq!(req.version_minor, 1);
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let (first, used) = parse_all(two).unwrap().expect("first");
        assert_eq!(first.path, "/healthz");
        let (second, used2) = parse_all(&two[used..]).unwrap().expect("second");
        assert_eq!(second.path, "/metrics");
        assert_eq!(used + used2, two.len());
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let (req, _) = parse_all(b"GET /healthz HTTP/1.0\nhost: x\n\n")
            .unwrap()
            .expect("complete");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.version_minor, 0);
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn oversized_declared_body_rejected_before_body_bytes_arrive() {
        // Content-Length over the cap errors immediately — no body bytes
        // present yet, so the shed costs nothing.
        let head = b"POST /solve HTTP/1.1\r\ncontent-length: 999999\r\n\r\n";
        let r = try_parse(head, MAX_HEAD_BYTES, 1024);
        assert!(
            matches!(r, Err(ParseError::TooLarge("body too large"))),
            "{r:?}"
        );
    }

    #[test]
    fn expects_continue_needs_a_complete_http11_head() {
        let head = b"POST /solve HTTP/1.1\r\nExpect: 100-Continue\r\ncontent-length: 4\r\n\r\n";
        assert!(expects_continue(head));
        assert!(
            !expects_continue(&head[..head.len() - 2]),
            "head incomplete"
        );
        assert!(!expects_continue(
            b"POST /solve HTTP/1.0\r\nexpect: 100-continue\r\ncontent-length: 4\r\n\r\n"
        ));
        assert!(!expects_continue(
            b"POST /solve HTTP/1.1\r\ncontent-length: 4\r\n\r\n"
        ));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        let r = parse_all(&head);
        assert!(matches!(r, Err(ParseError::TooLarge(reason)) if reason.contains("header")));
    }

    #[test]
    fn malformed_requests_are_bad() {
        assert!(matches!(
            parse_all(b"GARBAGE\r\n\r\n"),
            Err(ParseError::Bad("missing request target"))
        ));
        assert!(matches!(
            parse_all(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(ParseError::Bad("unsupported HTTP version"))
        ));
        assert!(matches!(
            parse_all(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::Bad("malformed header line"))
        ));
        assert!(matches!(
            parse_all(b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(ParseError::Bad("transfer-encoding not supported"))
        ));
    }

    #[test]
    fn recv_buffer_recycles_one_allocation_across_requests() {
        let mut rb = RecvBuffer::with_capacity(64);
        let req = b"GET /healthz HTTP/1.1\r\n\r\n";
        for _ in 0..100 {
            let spare = rb.spare(req.len());
            spare[..req.len()].copy_from_slice(req);
            rb.commit(req.len());
            let (parsed, used) = try_parse(rb.data(), MAX_HEAD_BYTES, MAX_BODY_BYTES)
                .unwrap()
                .expect("complete");
            assert_eq!(parsed.path, "/healthz");
            rb.consume(used);
        }
        // Fully-drained buffer snapped back: no growth ever needed.
        assert!(rb.is_empty());
        assert!(rb.buf.len() <= 64, "buffer grew to {}", rb.buf.len());
    }

    #[test]
    fn recv_buffer_slides_partial_bytes_on_wrap() {
        let mut rb = RecvBuffer::with_capacity(64);
        // Leave a partial request stuck at a high offset, then demand space.
        let junk = b"GET /healthz HTTP/1.1\r\n\r\n";
        let spare = rb.spare(junk.len());
        spare[..junk.len()].copy_from_slice(junk);
        rb.commit(junk.len());
        rb.consume(junk.len() - 4); // 4 live bytes near the end
        let _ = rb.spare(60); // must slide, not grow past need
        assert_eq!(rb.len(), 4);
        assert_eq!(rb.data(), &junk[junk.len() - 4..]);
    }

    #[test]
    fn blocking_reader_handles_eof_and_dribble() {
        // EOF before any byte → clean ConnectionClosed.
        let mut empty: &[u8] = b"";
        let mut rb = RecvBuffer::default();
        assert!(matches!(
            read_request_buffered(&mut empty, &mut rb, MAX_BODY_BYTES),
            Err(ParseError::ConnectionClosed)
        ));
        // EOF mid-request → Bad, never a phantom complete request.
        let mut trunc: &[u8] = b"GET /healthz HT";
        let mut rb = RecvBuffer::default();
        assert!(matches!(
            read_request_buffered(&mut trunc, &mut rb, MAX_BODY_BYTES),
            Err(ParseError::Bad("truncated request"))
        ));
        // A whole request followed by EOF parses fine.
        let mut ok: &[u8] = b"GET /healthz?x=1 HTTP/1.0\r\nhost: x\r\n\r\n";
        let mut rb = RecvBuffer::default();
        let req = read_request_buffered(&mut ok, &mut rb, MAX_BODY_BYTES).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.version_minor, 0);
        assert!(!req.keep_alive());
    }

    #[test]
    fn response_reader_handles_split_reads_and_truncation() {
        // A reader that returns one byte at a time exercises the head/body
        // accumulation paths.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let Some((&b, rest)) = self.0.split_first() else {
                    return Ok(0);
                };
                buf[0] = b;
                self.0 = rest;
                Ok(1)
            }
        }
        let read = |raw: &[u8]| read_response(&mut std::io::BufReader::new(OneByte(raw)));
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nX-Dclab-Cache: hit\r\n\r\nhello";
        let resp = read(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-dclab-cache"), Some("hit"));
        assert_eq!(resp.body, "hello");
        // Truncated upstream is an error, not a phantom success.
        assert!(read(b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhe").is_err());
        assert!(read(b"HTTP/1.1 200 OK\r\ncontent-").is_err());
        assert!(
            read(b"HTTP/1.1 200 OK\r\n\r\n").is_err(),
            "no content-length"
        );
        let eof = read(b"").unwrap_err();
        assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn response_reader_bounds_head_and_declared_body() {
        let huge = b"HTTP/1.1 200 OK\r\ncontent-length: 1000000000000\r\n\r\n";
        let err = read_response(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A head that never ends is cut off at the cap, not buffered whole.
        let mut endless = b"HTTP/1.1 200 OK\r\nx: ".to_vec();
        endless.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES * 2));
        let err = read_response(&mut &endless[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Keep-alive: the reader stops at the body's end.
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let mut r = &two[..];
        assert_eq!(read_response(&mut r).unwrap().body, "ok");
        assert_eq!(read_response(&mut r).unwrap().status, 404);
    }

    #[test]
    fn render_response_shape() {
        let bytes = render_response(200, &[("x-extra", "1")], b"{}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-extra: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        // Caller-supplied content-type replaces the default.
        let prom = render_response(200, &[("content-type", "text/plain")], b"x", false);
        let prom = String::from_utf8(prom).unwrap();
        assert_eq!(prom.matches("content-type").count(), 1);
        assert!(prom.contains("connection: close\r\n"));
    }
}
