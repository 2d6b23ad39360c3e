//! Robustness of the HTTP reader, the one boundary any peer on the
//! network can write to: whatever bytes arrive, `read_request` returns a
//! request within its caps or a typed [`ParseError`] — never a panic,
//! and never later than the socket's read timeout allows.

use proptest::prelude::*;
use sama_serve::http::{read_request, ParseError, Request};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const MAX_BODY: usize = 64;
const READ_TIMEOUT: Duration = Duration::from_millis(30);

/// Run the reader against `raw` written from a peer thread over
/// loopback. A peer that `hangs_on` keeps its end open after writing, so
/// an incomplete request has to end in the read timeout, not in EOF.
/// An `Err` is a [`ParseError`] by type; a request that was accepted has
/// to be inside the caps.
fn reads_or_refuses(raw: Vec<u8>, hangs_on: bool) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        // The reader may refuse early and close: a failed write is fine.
        let _ = s.write_all(&raw);
        if hangs_on {
            let _ = wait.recv();
        }
    });
    let (mut stream, _) = listener.accept().expect("accept");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("timeout");
    let started = Instant::now();
    let result: Result<Request, ParseError> = read_request(&mut stream, MAX_BODY);
    let took = started.elapsed();
    drop(done);
    peer.join().expect("peer");
    assert!(took < Duration::from_secs(2), "reader took {took:?}");
    if let Ok(request) = result {
        assert!(!request.method.is_empty() && !request.target.is_empty());
        assert!(request.body.len() <= MAX_BODY);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any bytes at all, UTF-8 or not.
    #[test]
    fn reader_never_panics_on_byte_soup(
        raw in proptest::collection::vec(0u8..=255, 0..300),
        hangs_on in 0u8..2,
    ) {
        reads_or_refuses(raw, hangs_on == 1);
    }

    /// Structured garbage in the shape of a request — a request line, a
    /// few header lines, the blank line, a body, each good, bad or
    /// missing — reaches the states byte soup does not: header parsing,
    /// the framing headers with bad and huge values, the 16 KB head cap,
    /// the body cap, the body read.
    #[test]
    fn reader_never_panics_on_tokenish_garbage(
        request_line in prop_oneof![
            Just(&b"POST /query?k=3 HTTP/1.1\r\n"[..]),
            Just(&b"GET / HTTP/1.0\r\n"[..]),
            Just(&b"GET / HTTP/2\r\n"[..]),
            Just(&b"GET  HTTP/1.1\r\n"[..]),
            Just(&b"POST /query HTTP/1.1\n"[..]),
            Just(&b"\xff\xfe / HTTP/1.1\r\n"[..]),
            Just(&b""[..]),
        ],
        headers in proptest::collection::vec(
            prop_oneof![
                Just(b"Host: x\r\n".to_vec()),
                Just(b"Content-Length: 5\r\n".to_vec()),
                Just(b"Content-Length: 65\r\n".to_vec()),
                Just(b"Content-Length: -1\r\n".to_vec()),
                Just(b"Content-Length: 99999999999999999999999\r\n".to_vec()),
                Just(b"Transfer-Encoding: chunked\r\n".to_vec()),
                Just(b"Connection: close\r\n".to_vec()),
                Just(b"no colon here\r\n".to_vec()),
                Just(b": no name\r\n".to_vec()),
                Just(b"Nul: \0\r\n".to_vec()),
                Just([&b"Long: "[..], &[b'a'; 17 * 1024], b"\r\n"].concat()),
            ],
            0..4,
        ),
        // Present in half the cases, so the body states are reached.
        blank_line in prop_oneof![Just(&b"\r\n"[..]), Just(&b"\r\n"[..]), Just(&b"\n"[..]), Just(&b""[..])],
        body in proptest::collection::vec(0u8..=255, 0..80),
        hangs_on in 0u8..2,
    ) {
        let raw = [request_line, &headers.concat(), blank_line, &body].concat();
        reads_or_refuses(raw, hangs_on == 1);
    }
}
