//! Minimal HTTP/1.1 wire handling over `std::net` — request parsing
//! with hard caps on every dimension an untrusted peer controls, and
//! response assembly with explicit framing (`Content-Length` always,
//! no chunked encoding in either direction).
//!
//! The parser is deliberately small: one request at a time, no
//! pipelining (bytes past the declared body are discarded), no
//! `Transfer-Encoding` (typed `400`). Everything hostile maps to a
//! typed [`ParseError`] the connection loop turns into a status code.

use std::io::{Read, Write};

/// Hard cap on the request line + headers. Anything larger is either
/// hostile or lost; `431` and close.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method token as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target as received: path plus optional `?query`.
    pub target: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First header named `name` (give it lowercased), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target with any `?query` stripped.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The raw value of `?key=value` in the target, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        let (_, qs) = self.target.split_once('?')?;
        qs.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read off the socket.
#[derive(Debug)]
pub enum ParseError {
    /// Clean EOF before the first byte — a keep-alive peer left.
    Closed,
    /// A socket read or write timed out (slow-loris cut).
    TimedOut,
    /// Any other socket error; the connection is unusable.
    Io(std::io::Error),
    /// Malformed request line, header, or framing → `400`.
    BadRequest(String),
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`] → `431`.
    HeadersTooLarge,
    /// Declared `Content-Length` exceeded the body cap → `413`.
    BodyTooLarge,
}

/// Fold socket errors into the timeout/other split the caller cares
/// about. Read timeouts surface as `WouldBlock` on Unix and `TimedOut`
/// on Windows.
fn map_io(e: std::io::Error) -> ParseError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ParseError::TimedOut,
        _ => ParseError::Io(e),
    }
}

/// One `read` into `chunk`, retried while a signal interrupts it: a
/// socket with a receive timeout is not restarted after a signal
/// handler runs (`SA_RESTART` does not cover it), and `sama serve`
/// handles SIGTERM/SIGINT, so a drain signal must not cut a request in
/// half.
fn read_chunk(stream: &mut impl Read, chunk: &mut [u8]) -> Result<usize, ParseError> {
    loop {
        match stream.read(chunk) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            result => return result.map_err(map_io),
        }
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read and parse one request from `stream`, enforcing
/// [`MAX_HEAD_BYTES`] on the head and `max_body` on the declared body
/// length — an oversized `Content-Length` is rejected *before* any
/// body byte is buffered.
///
/// The head, its `\r\n\r\n` included, may be at most
/// [`MAX_HEAD_BYTES`] long however the peer splits it across reads.
/// Each read searches only its own bytes (plus the 3 before them, where
/// a terminator may have started) and only below the cap.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, ParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                ParseError::Closed
            } else {
                ParseError::BadRequest("connection closed mid-request".into())
            });
        }
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let searched = &buf[from..buf.len().min(MAX_HEAD_BYTES)];
        if let Some(pos) = head_end(searched) {
            break from + pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
    };

    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| ParseError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest(format!(
            "malformed request line {request_line:?}"
        )));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadRequest(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(ParseError::BadRequest(
            "transfer-encoding is not supported; send a content-length".into(),
        ));
    }
    let keep_alive = match find("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    // Repeated `Content-Length` headers must agree (RFC 9112 §6.3): a
    // disagreement is a framing error no later byte can be trusted after.
    let mut content_length = None;
    for (_, raw) in headers.iter().filter(|(n, _)| n == "content-length") {
        let declared = raw
            .parse::<usize>()
            .map_err(|_| ParseError::BadRequest(format!("bad content-length {raw:?}")))?;
        if content_length.is_some_and(|first| first != declared) {
            return Err(ParseError::BadRequest(
                "content-length headers disagree".into(),
            ));
        }
        content_length = Some(declared);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::BodyTooLarge);
    }

    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err(ParseError::BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length); // no pipelining: drop trailing bytes

    Ok(Request {
        method,
        target,
        headers,
        body,
        keep_alive,
    })
}

/// An HTTP response under assembly.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    extra: Vec<(String, String)>,
    close: bool,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.as_bytes().to_vec(),
            extra: Vec::new(),
            close: false,
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra: Vec::new(),
            close: false,
        }
    }

    /// A Prometheus text-exposition response.
    pub fn prometheus(body: String) -> Self {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: body.into_bytes(),
            extra: Vec::new(),
            close: false,
        }
    }

    /// Append an extra header line.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra.push((name.to_string(), value.into()));
        self
    }

    /// Force `Connection: close` regardless of what the client asked.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Whether this response insists on closing the connection.
    pub fn wants_close(&self) -> bool {
        self.close
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serialize onto `stream` in one `write_all`: status line,
    /// headers and body go out as one buffer, so a `TCP_NODELAY`
    /// socket does not send the head in a segment of its own and the
    /// peer wakes once. `keep_alive` is what the connection loop decided
    /// (client wish ∧ not [`Response::wants_close`] ∧ not draining) and
    /// is advertised back in the `Connection` header.
    pub fn write_to(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        // Every head this server sends fits in 256 bytes.
        let mut wire = Vec::with_capacity(256 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.extra {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        stream.write_all(&wire)
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run the parser against raw bytes written from a peer thread.
    fn parse(raw: &'static [u8], max_body: usize) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw).expect("write");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let parsed = read_request(&mut stream, max_body);
        writer.join().expect("writer");
        parsed
    }

    /// A reader that fails with `Interrupted` before every chunk it
    /// hands out, the way a socket read does when a signal lands.
    struct Interrupting<'a> {
        chunks: std::slice::Iter<'a, &'a [u8]>,
        interrupt: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let Some(chunk) = self.chunks.next() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let chunks: [&[u8]; 4] = [
            b"POST /query HTTP/1.1\r\n",
            b"Content-Length: 5\r\n",
            b"\r\nhe",
            b"llo",
        ];
        let mut reader = Interrupting {
            chunks: chunks.iter(),
            interrupt: false,
        };
        let req = read_request(&mut reader, 64).expect("interrupts are retried");
        assert_eq!(req.path(), "/query");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_a_post_with_body_and_params() {
        let req = parse(
            b"POST /query?k=3 HTTP/1.1\r\nHost: x\r\nX-Sama-Deadline-Ms: 250\r\nContent-Length: 5\r\n\r\nhello",
            64,
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/query");
        assert_eq!(req.query_param("k"), Some("3"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.header("x-sama-deadline-ms"), Some("250"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 0).expect("parse");
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\n\r\n", 0).expect("parse");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_buffering() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n", 16).unwrap_err();
        assert!(matches!(err, ParseError::BodyTooLarge));
    }

    #[test]
    fn hostile_framing_is_typed() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 16).unwrap_err(),
            ParseError::BadRequest(_)
        ));
        assert!(matches!(
            parse(b"nonsense\r\n\r\n", 16).unwrap_err(),
            ParseError::BadRequest(_)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 16).unwrap_err(),
            ParseError::BadRequest(_)
        ));
        assert!(matches!(
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nSELECT",
                64
            )
            .unwrap_err(),
            ParseError::BadRequest(_)
        ));
        let agreeing = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello",
            64,
        )
        .expect("repeats with one value are accepted");
        assert_eq!(agreeing.body, b"hello");
        assert!(matches!(parse(b"", 16).unwrap_err(), ParseError::Closed));
        assert!(matches!(
            parse(b"GET / HT", 16).unwrap_err(),
            ParseError::BadRequest(_)
        ));
    }

    /// Hands `raw` to the reader at most `step` bytes a read.
    struct Trickle {
        raw: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.step).min(self.raw.len() - self.at);
            buf[..n].copy_from_slice(&self.raw[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// A `GET` carrying `headers` whose head, `\r\n\r\n` included, is
    /// `len` bytes long.
    fn head_of(len: usize, headers: &str) -> Vec<u8> {
        let head = |pad: &str| format!("GET /healthz HTTP/1.1\r\n{headers}X-Pad: {pad}\r\n\r\n");
        let head = head(&"a".repeat(len - head("").len()));
        assert_eq!(head.len(), len);
        head.into_bytes()
    }

    #[test]
    fn the_head_cap_holds_however_the_head_is_split() {
        for step in [1, 3, 4, 7, 1000, 4093, 4096, usize::MAX] {
            let read = |raw: Vec<u8>| read_request(&mut Trickle { raw, at: 0, step }, 64);
            let at_cap = read(head_of(MAX_HEAD_BYTES, "")).expect("a head at the cap is read");
            assert_eq!(at_cap.path(), "/healthz", "step {step}");
            assert!(
                matches!(
                    read(head_of(MAX_HEAD_BYTES + 1, "")),
                    Err(ParseError::HeadersTooLarge)
                ),
                "step {step}: one byte over the cap"
            );
            // Body bytes that arrive in the read that completes the head
            // are the body's, not the head's.
            let mut raw = head_of(MAX_HEAD_BYTES, "Content-Length: 5\r\n");
            raw.extend_from_slice(b"hello");
            let with_body = read(raw).expect("a head at the cap with a body");
            assert_eq!(with_body.body, b"hello", "step {step}");
        }
    }

    /// Counts `write` calls and keeps what it was given, taking at most
    /// `limit` bytes a call.
    struct Recorder {
        writes: usize,
        limit: usize,
        bytes: Vec<u8>,
    }

    impl Recorder {
        fn taking(limit: usize) -> Self {
            Recorder {
                writes: 0,
                limit,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(self.limit);
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The serialization `write_to` replaced — the head, then the body,
    /// as two writes — kept as the reference for the bytes on the wire.
    fn two_part_reference(response: &Response, keep_alive: bool) -> Vec<u8> {
        use std::fmt::Write;
        use std::io::Write as IoWrite;
        let mut head = String::with_capacity(128);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            response.status,
            status_reason(response.status),
            response.content_type,
            response.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &response.extra {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str("\r\n");
        let mut wire = Vec::new();
        IoWrite::write_all(&mut wire, head.as_bytes()).expect("write to a Vec");
        IoWrite::write_all(&mut wire, &response.body).expect("write to a Vec");
        wire
    }

    /// One of each response shape the server sends, with the
    /// keep-alive it is sent with.
    fn response_shapes() -> Vec<(&'static str, Response, bool)> {
        let error = |status, message: &str, id: u64| {
            Response::json(
                status,
                format!("{{\"error\":\"{message}\",\"query_id\":{id}}}\n"),
            )
            .header("X-Sama-Query-Id", id.to_string())
        };
        vec![
            (
                "200 query",
                Response::json(200, "{\"answers\":[],\"truncated\":false}\n".into())
                    .header("X-Sama-Query-Id", "7"),
                true,
            ),
            (
                "64 KB body",
                Response::json(200, "x".repeat(64 * 1024)).header("X-Sama-Query-Id", "8"),
                true,
            ),
            (
                "503 shed",
                error(
                    503,
                    "connection shed by admission control (server at capacity)",
                    9,
                )
                .header("Retry-After", "1")
                .closing(),
                false,
            ),
            (
                "408 timeout",
                error(408, "request not received within the read timeout", 10).closing(),
                false,
            ),
            (
                "405 with Allow",
                Response::text(405, "method not allowed\n").header("Allow", "GET"),
                true,
            ),
            ("metrics", Response::prometheus("sama_up 1\n".into()), true),
            ("health", Response::text(200, "ok\n"), false),
        ]
    }

    #[test]
    fn every_response_is_one_write() {
        for (shape, response, keep_alive) in response_shapes() {
            let mut sink = Recorder::taking(usize::MAX);
            response.write_to(&mut sink, keep_alive).expect("write");
            assert_eq!(sink.writes, 1, "{shape}");
        }
    }

    #[test]
    fn the_bytes_are_the_two_part_serializations() {
        for (shape, response, keep_alive) in response_shapes() {
            // Short writes exercise `write_all`'s resumption.
            let mut sink = Recorder::taking(7);
            response.write_to(&mut sink, keep_alive).expect("write");
            assert_eq!(
                sink.bytes,
                two_part_reference(&response, keep_alive),
                "{shape}"
            );
        }
    }
}
