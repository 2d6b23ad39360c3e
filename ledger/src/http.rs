//! A minimal HTTP/1.1 client for the loopback load: one blocking
//! keep-alive connection, `Content-Length` bodies only (all `sama
//! serve` ever sends).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The bytes of a `POST /query` carrying `body`.
pub fn query_request(addr: SocketAddr, body: &str, close: bool) -> Vec<u8> {
    format!(
        "POST /query HTTP/1.1\r\nHost: {addr}\r\n{}Content-Length: {}\r\n\r\n{body}",
        if close { "Connection: close\r\n" } else { "" },
        body.len()
    )
    .into_bytes()
}

/// The bytes of a `GET <path>`.
pub fn get_request(addr: SocketAddr, path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").into_bytes()
}

/// One connection and its reusable read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a read timeout, so a hung server
    /// fails the run instead of hanging it.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Send `request`, read the whole response; returns the status and
    /// the body (borrowed from the connection's buffer).
    pub fn round_trip(&mut self, request: &[u8]) -> Result<(u16, &[u8]), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write failed: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("no status line")?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or("no Content-Length")?;
        while self.buf.len() < head_end + length {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, &self.buf[head_end..head_end + length]))
    }
}

/// The value of an un-labelled series in Prometheus text exposition.
pub fn prometheus_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (name, value) = l.split_once(' ')?;
        (name == series).then(|| value.trim().parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn round_trip_reads_exactly_one_response_per_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 1024];
            // Two requests, answered in two writes each to exercise the
            // partial-read path.
            for body in ["first", "second-longer"] {
                while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut chunk).unwrap();
                    seen.extend_from_slice(&chunk[..n]);
                }
                seen.clear();
                let head = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", body.len());
                s.write_all(head.as_bytes()).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(body.as_bytes()).unwrap();
            }
        });
        let mut conn = Conn::open(addr).unwrap();
        let get = get_request(addr, "/x");
        assert_eq!(conn.round_trip(&get).unwrap(), (200, &b"first"[..]));
        assert_eq!(conn.round_trip(&get).unwrap(), (200, &b"second-longer"[..]));
        server.join().unwrap();
        assert!(conn.round_trip(&get).is_err(), "closed peer is an error");
    }

    #[test]
    fn scrapes_unlabelled_series() {
        let text = "# HELP x\nsama_serve_requests_total 42\nsama_serve_shed_total 0\n";
        assert_eq!(
            prometheus_value(text, "sama_serve_requests_total"),
            Some(42.0)
        );
        assert_eq!(prometheus_value(text, "sama_serve_shed_total"), Some(0.0));
        assert_eq!(prometheus_value(text, "absent"), None);
    }
}
