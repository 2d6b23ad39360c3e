//! Integration tests driving a real [`sama_serve::Server`] over
//! loopback sockets: routing, deadline propagation, overload shedding,
//! slow-loris cuts, injected handler panics, graceful drain, and a soak
//! that checks threads and descriptors return to their baseline.
//!
//! Fault plans and the metrics registry are process-global, so every
//! test serializes behind one mutex (the same pattern as the fault
//! harness's own tests).

use rdf_model::DataGraph;
use sama_core::SamaEngine;
use sama_obs::fault::{install, FaultAction, FaultPlan};
use sama_serve::http::MAX_HEAD_BYTES;
use sama_serve::{DrainReport, ServeConfig, Server, ShutdownHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

const QUERY: &str = "SELECT ?v1 ?v2 WHERE {\n\
    <CarlaBunes> <sponsor> ?v1 .\n\
    ?v1 <aTo> ?v2 .\n\
    ?v2 <subject> \"Health Care\" .\n}\n";

fn demo_engine() -> SamaEngine {
    let mut b = DataGraph::builder();
    b.triple_str("CarlaBunes", "sponsor", "A0056").unwrap();
    b.triple_str("A0056", "aTo", "B1432").unwrap();
    b.triple_str("B1432", "subject", "\"Health Care\"").unwrap();
    b.triple_str("CarlaBunes", "contributedTo", "C99").unwrap();
    b.triple_str("C99", "region", "\"Midwest\"").unwrap();
    SamaEngine::new(b.build())
}

/// Bind a server over the demo data on a free port and run it on a
/// background thread.
fn start(
    config: ServeConfig,
) -> (
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<DrainReport>,
) {
    let server = Server::bind(
        demo_engine(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// A parsed response: status, headers (lowercased names), body.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One `read` off `stream`, retried while a signal interrupts it (as
/// `read_exact` and `read_to_end` do).
fn read_some(stream: &mut impl std::io::Read, chunk: &mut [u8], what: &str) -> usize {
    loop {
        match stream.read(chunk) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            result => return result.unwrap_or_else(|e| panic!("{what}: {e}")),
        }
    }
}

/// Read exactly one response off `stream` (head, then Content-Length
/// bytes of body) so keep-alive connections can be reused.
fn read_reply(stream: &mut TcpStream) -> Reply {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = read_some(stream, &mut chunk, "read response head");
        assert!(n > 0, "connection closed before a full response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_len].to_vec()).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse().expect("content-length"))
        .unwrap_or(0);
    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, "read response body");
        assert!(n > 0, "connection closed mid-body");
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Reply {
        status,
        headers,
        body: String::from_utf8(body).expect("UTF-8 body"),
    }
}

/// Send one request on a fresh connection and read the reply.
fn send(addr: SocketAddr, raw: String) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).expect("write request");
    read_reply(&mut stream)
}

fn post(path: &str, body: &str, extra_headers: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: sama\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: sama\r\n\r\n")
}

fn drain(handle: &ShutdownHandle, join: std::thread::JoinHandle<DrainReport>) -> DrainReport {
    handle.shutdown();
    join.join().expect("server thread")
}

#[test]
fn health_ready_metrics_and_routing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    let reply = send(addr, get("/healthz"));
    assert_eq!((reply.status, reply.body.as_str()), (200, "ok\n"));
    let reply = send(addr, get("/readyz"));
    assert_eq!((reply.status, reply.body.as_str()), (200, "ready\n"));

    let reply = send(addr, get("/metrics"));
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("sama_serve_requests_total"));
    assert!(reply.body.contains("sama_serve_active_connections"));

    let reply = send(addr, get("/nope"));
    assert_eq!(reply.status, 404);
    let reply = send(addr, post("/metrics", "", ""));
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("GET"));
    let reply = send(addr, get("/query"));
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("POST"));

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn query_answers_with_engine_json_and_query_id() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    let reply = send(addr, post("/query?k=3", QUERY, ""));
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    let id: u64 = reply
        .header("x-sama-query-id")
        .expect("query id header")
        .parse()
        .expect("numeric query id");
    assert!(id > 0);
    assert!(reply.body.starts_with("{\"answers\":[{\"rank\":0,"));
    assert!(reply.body.contains("\"exact\":true"));
    assert!(reply.body.ends_with("}\n"), "newline-terminated document");

    assert!(drain(&handle, join).is_clean());
}

/// Serving an index — readiness self-probe, a query, its rendered
/// body, the metrics page — never asks it for the data graph.
#[test]
fn index_is_served_without_materializing_its_graph() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let materialized = || sama_obs::metrics::INDEX_MATERIALIZE_NS.snapshot().count();
    let before = materialized();
    let (addr, handle, join) = start(ServeConfig::default());

    let reply = send(addr, get("/readyz"));
    assert_eq!((reply.status, reply.body.as_str()), (200, "ready\n"));
    let reply = send(addr, post("/query", QUERY, ""));
    assert_eq!(reply.status, 200, "{}", reply.body);
    let parsed = rdf_model::parse_sparql(QUERY).unwrap();
    let local = demo_engine();
    let result = local.answer(&parsed.graph, ServeConfig::default().k);
    assert_eq!(
        reply.body,
        sama_core::render_result_json(local.index(), &parsed.graph, &result),
        "served and in-process bodies are the same bytes"
    );
    assert!(reply.body.contains("CarlaBunes sponsor A0056"));
    let reply = send(addr, get("/metrics"));
    assert_eq!(reply.status, 200);

    // Every test in this binary holds `SERIAL`, so nothing else moves
    // the process-global histogram meanwhile.
    assert_eq!(materialized(), before);
    assert!(drain(&handle, join).is_clean());
}

#[test]
fn error_paths_are_typed_with_correlatable_ids() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig {
        max_body_bytes: 256,
        ..ServeConfig::default()
    });

    // Unparseable SPARQL → 400 with a query_id in body and header.
    let reply = send(addr, post("/query", "this is not sparql", ""));
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("\"error\":"));
    assert!(reply.body.contains("\"query_id\":"));
    assert!(reply.header("x-sama-query-id").is_some());

    // Bad ?k= → 400.
    let reply = send(addr, post("/query?k=many", QUERY, ""));
    assert_eq!(reply.status, 400);

    // Declared body beyond the cap → 413 without reading the payload.
    let big = "x".repeat(1024);
    let reply = send(addr, post("/query", &big, ""));
    assert_eq!(reply.status, 413);

    assert!(drain(&handle, join).is_clean());
}

/// A GET of `/healthz` whose head, `\r\n\r\n` included, is `len` bytes.
fn healthz_head_of(len: usize) -> String {
    let head = |pad: &str| format!("GET /healthz HTTP/1.1\r\nHost: sama\r\nX-Pad: {pad}\r\n\r\n");
    let head = head(&"a".repeat(len - head("").len()));
    assert_eq!(head.len(), len);
    head
}

#[test]
fn a_head_one_byte_past_the_cap_is_refused() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    let reply = send(addr, healthz_head_of(MAX_HEAD_BYTES));
    assert_eq!((reply.status, reply.body.as_str()), (200, "ok\n"));
    let reply = send(addr, healthz_head_of(MAX_HEAD_BYTES + 1));
    assert_eq!(reply.status, 431);
    assert_eq!(reply.header("connection"), Some("close"));

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn deadline_header_becomes_the_query_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    // Deadline 0 expires immediately: flagged empty result, not an
    // error (the engine's expired-budget contract).
    let reply = send(addr, post("/query", QUERY, "X-Sama-Deadline-Ms: 0\r\n"));
    assert_eq!(reply.status, 200);
    assert!(reply.body.starts_with("{\"answers\":[]"));
    assert!(reply.body.contains("\"truncated\":true"));

    // A roomy deadline answers normally.
    let reply = send(addr, post("/query", QUERY, "X-Sama-Deadline-Ms: 30000\r\n"));
    assert_eq!(reply.status, 200);
    assert!(reply.body.contains("\"exact\":true"));

    // A malformed value is a client error, not a default.
    let reply = send(addr, post("/query", QUERY, "X-Sama-Deadline-Ms: soon\r\n"));
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("X-Sama-Deadline-Ms"));

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..3 {
        stream
            .write_all(post("/query", QUERY, "").as_bytes())
            .expect("write");
        let reply = read_reply(&mut stream);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }
    // `Connection: close` is honored: reply says close, then EOF.
    stream
        .write_all(post("/query", QUERY, "Connection: close\r\n").as_bytes())
        .expect("write");
    let reply = read_reply(&mut stream);
    assert_eq!(reply.header("connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty());

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn batch_endpoint_answers_per_slot() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());

    let body = format!(
        "{QUERY};;\nSELECT ?r WHERE {{ <CarlaBunes> <contributedTo> ?c . ?c <region> ?r . }}\n"
    );
    let reply = send(addr, post("/batch?k=2", &body, ""));
    assert_eq!(reply.status, 200);
    assert!(reply.body.starts_with("{\"queries\":[{\"index\":0,"));
    assert!(reply.body.contains("{\"index\":1,"));
    assert!(reply.body.contains("\"stats\":{\"queries\":2,"));

    let reply = send(addr, post("/batch", "\n;;\n", ""));
    assert_eq!(reply.status, 400, "empty batch is a client error");

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn admission_control_sheds_beyond_the_connection_cap() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });

    // Occupy the only slot with an idle connection (its worker blocks
    // in read_request until the read timeout).
    let held = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    let reply = send(addr, post("/query", QUERY, ""));
    assert_eq!(reply.status, 503);
    assert_eq!(reply.header("retry-after"), Some("1"));
    assert!(reply.body.contains("admission control"));

    // Release the slot (the worker sees EOF) before draining so the
    // drain does not have to wait out the read timeout.
    drop(held);
    assert!(drain(&handle, join).is_clean());
}

#[test]
fn slow_loris_clients_are_cut_by_the_read_timeout() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig {
        read_timeout: Duration::from_millis(120),
        ..ServeConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Half a request head, then stall: the server must cut us, not
    // hold the worker hostage.
    stream.write_all(b"POST /query HTT").expect("write");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("server closes");
    let text = String::from_utf8_lossy(&rest);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "timeout reply, got {text:?}"
    );

    // The cut is visible in the metrics.
    let reply = send(addr, get("/metrics"));
    let timeouts: u64 = reply
        .body
        .lines()
        .find(|l| l.starts_with("sama_serve_timeouts_total"))
        .and_then(|l| l.split(' ').next_back())
        .and_then(|v| v.parse().ok())
        .expect("timeouts counter");
    assert!(timeouts >= 1);

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn handler_panics_kill_one_connection_never_the_listener() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Every second handler invocation panics.
    install(FaultPlan::single("serve.handler", FaultAction::Panic, 2));
    let (addr, handle, join) = start(ServeConfig::default());

    let reply = send(addr, post("/query", QUERY, ""));
    assert_eq!(reply.status, 200, "first request is fine");

    let reply = send(addr, post("/query", QUERY, ""));
    assert_eq!(reply.status, 500, "second request hits the panic");
    assert!(reply.body.contains("injected fault: serve.handler"));
    assert_eq!(
        reply.header("connection"),
        Some("close"),
        "a panicked connection is not reused"
    );

    let reply = send(addr, post("/query", QUERY, ""));
    assert_eq!(reply.status, 200, "the listener survived the panic");

    install(FaultPlan::none());
    assert!(drain(&handle, join).is_clean());
}

#[test]
fn drain_finishes_in_flight_queries_and_stops_accepting() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Park every handler for a while so a query is reliably in flight
    // when the drain starts.
    install(FaultPlan::single(
        "serve.handler",
        FaultAction::Delay(Duration::from_millis(300)),
        1,
    ));
    let (addr, handle, join) = start(ServeConfig::default());

    let in_flight = std::thread::spawn(move || send(addr, post("/query", QUERY, "")));
    std::thread::sleep(Duration::from_millis(100));

    let report = drain(&handle, join);
    assert!(report.in_flight_at_shutdown >= 1, "query was in flight");
    assert!(report.is_clean(), "zero dropped in-flight queries");

    let reply = in_flight.join().expect("client thread");
    assert_eq!(reply.status, 200, "in-flight query completed with data");
    assert!(reply.body.contains("\"exact\":true"));

    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err());

    install(FaultPlan::none());
}

/// A connection is accepted when it arrives, not when the accept loop
/// next wakes: fifty one-request connections in a row take well under
/// the 5 ms a connection a timer-driven loop would add.
#[test]
fn fresh_connections_are_accepted_on_arrival() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (addr, handle, join) = start(ServeConfig::default());
    let request = "GET /healthz HTTP/1.1\r\nHost: sama\r\nConnection: close\r\n\r\n";
    // The first connection pays the worker's first spawn.
    assert_eq!(send(addr, request.to_string()).status, 200);

    let started = Instant::now();
    for _ in 0..50 {
        let reply = send(addr, request.to_string());
        assert_eq!((reply.status, reply.body.as_str()), (200, "ok\n"));
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(125),
        "50 fresh connections took {took:?}"
    );

    assert!(drain(&handle, join).is_clean());
}

#[test]
fn an_idle_server_shuts_down_at_once() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let (_addr, handle, join) = start(ServeConfig::default());
    // Let the accept loop settle into its wait.
    std::thread::sleep(Duration::from_millis(20));

    let started = Instant::now();
    let report = drain(&handle, join);
    let took = started.elapsed();
    assert!(report.is_clean());
    assert!(
        took < Duration::from_millis(50),
        "run() returned {took:?} after shutdown()"
    );
}

/// `(live threads, open descriptors)` of this process, sampled until
/// three reads 10 ms apart agree — workers of an earlier test, and the
/// harness's own test threads, may still be starting or exiting.
#[cfg(target_os = "linux")]
fn settled_resources() -> (usize, usize) {
    let entries = |dir: &str| {
        std::fs::read_dir(format!("/proc/self/{dir}"))
            .expect("procfs")
            .count()
    };
    let mut last = (entries("task"), entries("fd"));
    let mut agreed = 0;
    while agreed < 2 {
        std::thread::sleep(Duration::from_millis(10));
        let now = (entries("task"), entries("fd"));
        agreed = if now == last { agreed + 1 } else { 0 };
        last = now;
    }
    last
}

/// A few hundred requests through every way a connection can end —
/// answered, panicked, shed, timed out, refused — leave no thread, no
/// descriptor and no counted connection behind.
#[cfg(target_os = "linux")]
#[test]
fn resources_return_to_baseline_after_faults() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    install(FaultPlan::none());
    let active = &sama_obs::metrics::SERVE_ACTIVE_CONNECTIONS;
    let (threads, fds) = settled_resources();
    let connections = active.get();

    install(FaultPlan::parse("serve.handler:panic:every=3,serve.read:delay=1").expect("plan"));
    let config = ServeConfig {
        max_connections: 16,
        max_body_bytes: 4096,
        read_timeout: Duration::from_secs(1),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = start(config.clone());
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };

    // Three keep-alive clients and one that reconnects per request, at
    // once. A panicked handler answers 500 and closes its connection.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let mut stream = None;
                for _ in 0..60 {
                    let s = stream.get_or_insert_with(connect);
                    s.write_all(post("/query", QUERY, "").as_bytes())
                        .expect("write");
                    let reply = read_reply(s);
                    assert!(matches!(reply.status, 200 | 500), "{}", reply.status);
                    if reply.header("connection") == Some("close") {
                        stream = None;
                    }
                }
            });
        }
        scope.spawn(|| {
            for i in 0..120 {
                let (request, expect): (_, &[u16]) = match i % 10 {
                    0 => (post("/query", "not sparql", ""), &[400]),
                    5 => (
                        post("/batch", &format!("{QUERY};;\n{QUERY}"), ""),
                        &[200, 500],
                    ),
                    _ => (post("/query", QUERY, ""), &[200, 500]),
                };
                let status = send(addr, request).status;
                assert!(expect.contains(&status), "request {i}: {status}");
            }
        });
    });

    // A body over the cap, refused from its declared length.
    let reply = send(addr, post("/query", &"x".repeat(8192), ""));
    assert_eq!(reply.status, 413);

    // A slow-loris: half a head, then silence until the server cuts it.
    let mut loris = connect();
    loris.write_all(b"POST /query HTT").expect("write");
    let mut cut = Vec::new();
    loris.read_to_end(&mut cut).expect("server closes");
    assert!(cut.starts_with(b"HTTP/1.1 408"));
    drop(loris);

    // A burst past the cap: idle connections fill every slot, the next
    // ones are shed.
    let held: Vec<TcpStream> = (0..config.max_connections).map(|_| connect()).collect();
    std::thread::sleep(Duration::from_millis(100));
    let shed = (0..6)
        .filter(|_| send(addr, post("/query", QUERY, "")).status == 503)
        .count();
    assert!(shed >= 1, "nothing shed past max_connections");
    drop(held);

    install(FaultPlan::none());
    assert!(drain(&handle, join).is_clean());
    assert_eq!(active.get(), connections, "serve.active_connections");
    // A worker frees its slot before its thread is gone: give the last
    // ones a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let now = settled_resources();
        if now.0 <= threads && now.1 <= fds {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "(threads, fds) {now:?} did not return to {:?}",
            (threads, fds)
        );
    }
}
