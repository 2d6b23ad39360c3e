//! The listener, connection lifecycle, and request routing.
//!
//! One accepting thread drives a non-blocking listener. When no
//! connection is pending it waits in `poll(2)` for the next one, at most
//! `POLL_INTERVAL` (5 ms) at a time, so a fresh connection is taken the
//! moment it arrives and the drain flags are still checked between
//! accepts. Each admitted connection gets its own worker thread wrapped
//! in `catch_unwind`, so a handler panic (organic or injected via
//! `SAMA_FAULTS=serve.handler:panic`) costs exactly one connection.
//! Admission control is a plain connection count: the accept beyond
//! [`crate::ServeConfig::max_connections`] is answered `503` +
//! `Retry-After` and closed without spawning.

use crate::http::{read_request, ParseError, Request, Response};
use crate::ServeConfig;
use path_index::{IndexLike, PathId};
use rdf_model::{parse_sparql, QueryGraph, Term, Triple};
use sama_core::{
    json_escape, next_query_id, render_result_json, BatchConfig, QueryBudget, QueryError,
    SamaEngine,
};
use sama_obs as obs;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest the accept loop waits for a connection before it
/// re-checks the drain flags, and how often a drain re-checks the
/// in-flight count.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Flags and counters shared between the accept loop, the connection
/// workers, and any [`ShutdownHandle`].
#[derive(Debug, Default)]
struct ServerState {
    shutdown: AtomicBool,
    ready: AtomicBool,
    active: AtomicUsize,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || crate::signal::requested()
    }
}

/// Decrement the in-flight count and republish the gauge. Runs from
/// [`ActiveGuard::drop`] so it executes even while a worker unwinds.
fn release(state: &ServerState) {
    let now = state.active.fetch_sub(1, Ordering::SeqCst) - 1;
    obs::metrics::SERVE_ACTIVE_CONNECTIONS.set(now as i64);
}

/// Drop guard owning one slot of the connection count.
struct ActiveGuard(Arc<ServerState>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        release(&self.0);
    }
}

/// Requests a graceful drain of a running [`Server`] from another
/// thread — the programmatic equivalent of SIGTERM.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Stop accepting; [`Server::run`] returns after the drain.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What the drain observed, returned by [`Server::run`].
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Connections in flight the moment the drain began.
    pub in_flight_at_shutdown: usize,
    /// Connections still running when the grace period expired (their
    /// threads keep winding down detached, but the process may exit).
    pub aborted: usize,
    /// Wall-clock time the drain waited.
    pub waited: Duration,
}

impl DrainReport {
    /// `true` when every in-flight connection finished inside the
    /// grace period — the "zero dropped queries" criterion.
    pub fn is_clean(&self) -> bool {
        self.aborted == 0
    }
}

/// The HTTP front door: a bound listener wrapping a shared
/// [`SamaEngine`]. Construct with [`Server::bind`], then call
/// [`Server::run`] (it blocks until drain).
pub struct Server<I: IndexLike + Send + Sync + 'static> {
    engine: Arc<SamaEngine<I>>,
    config: ServeConfig,
    state: Arc<ServerState>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl<I: IndexLike + Send + Sync + 'static> Server<I> {
    /// Bind the configured address and run the readiness self-probe
    /// (answer one trivial query so `/readyz` only flips after the
    /// index demonstrably works).
    pub fn bind(engine: SamaEngine<I>, config: ServeConfig) -> Result<Self, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot make listener non-blocking: {e}"))?;
        let server = Server {
            engine: Arc::new(engine),
            config,
            state: Arc::new(ServerState::default()),
            listener,
            local_addr,
        };
        server.self_probe()?;
        server.state.ready.store(true, Ordering::SeqCst);
        Ok(server)
    }

    /// Answer a one-triple query built from the first indexed edge (an
    /// index whose paths have no edges is trivially ready). This
    /// exercises index access, decomposition, clustering, and search
    /// once before `/readyz` reports ready. The triple is read through
    /// the index's label accessors: asking for `data()` here would make
    /// every server process over a mapped index rebuild the graph.
    fn self_probe(&self) -> Result<(), String> {
        let index = self.engine.index();
        let first_edge = (0..index.total_paths() as u32)
            .find_map(|i| index.path_edges(PathId(i)).first().copied());
        let Some(edge) = first_edge else {
            return Ok(());
        };
        let (s, p, o) = index.edge_labels(edge);
        let term = |label| Term::from_parts(index.label_kind(label), index.label_lexical(label));
        let triple = Triple::new(term(s), term(p), term(o));
        let query = QueryGraph::from_triples([&triple])
            .map_err(|e| format!("readiness self-probe query: {e}"))?;
        self.engine
            .try_answer(&query, 1)
            .map_err(|e| format!("readiness self-probe failed: {e}"))?;
        Ok(())
    }

    /// The bound address — the actual port when `addr` asked for `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that triggers a graceful drain from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept until a drain is requested (SIGTERM/SIGINT via
    /// [`crate::signal`], or a [`ShutdownHandle`]), then stop
    /// accepting, wait out in-flight connections up to the grace
    /// period, and return what the drain saw.
    pub fn run(self) -> DrainReport {
        loop {
            if self.state.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.dispatch(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, POLL_INTERVAL);
                }
                // Transient accept errors (ECONNABORTED, EMFILE…):
                // back off and keep listening.
                Err(_) => std::thread::sleep(POLL_INTERVAL),
            }
        }
        self.drain()
    }

    /// Admission-check one accepted connection and hand it to a worker
    /// thread. Shedding happens *here*, before a thread is spawned, so
    /// overload costs one socket write.
    fn dispatch(&self, stream: TcpStream) {
        // The injected-accept fault is caught so a panic at this site
        // costs the connection being accepted, never the listener.
        if catch_unwind(|| obs::fault::point("serve.accept")).is_err() {
            return;
        }
        let active = self.state.active.fetch_add(1, Ordering::SeqCst) + 1;
        obs::metrics::SERVE_ACTIVE_CONNECTIONS.set(active as i64);
        if active > self.config.max_connections {
            obs::metrics::SERVE_SHED_TOTAL.add(1);
            let mut stream = stream;
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_write_timeout(Some(self.config.write_timeout));
            let _ = error_response(
                503,
                "connection shed by admission control (server at capacity)",
            )
            .header("Retry-After", "1")
            .closing()
            .write_to(&mut stream, false);
            release(&self.state);
            return;
        }
        let engine = Arc::clone(&self.engine);
        let state = Arc::clone(&self.state);
        let config = self.config.clone();
        let spawned = std::thread::Builder::new()
            .name("sama-serve-conn".into())
            .spawn(move || {
                let _slot = ActiveGuard(Arc::clone(&state));
                // Panic isolation: an unwinding worker takes down its
                // own connection (the stream drops, the peer sees a
                // reset) and nothing else.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    handle_connection(stream, &engine, &config, &state);
                }));
            });
        if spawned.is_err() {
            release(&self.state);
        }
    }

    /// Stop advertising readiness and wait for in-flight connections.
    fn drain(&self) -> DrainReport {
        self.state.ready.store(false, Ordering::SeqCst);
        let in_flight = self.state.active.load(Ordering::SeqCst);
        let started = Instant::now();
        while self.state.active.load(Ordering::SeqCst) > 0
            && started.elapsed() < self.config.drain_grace
        {
            std::thread::sleep(POLL_INTERVAL);
        }
        DrainReport {
            in_flight_at_shutdown: in_flight,
            aborted: self.state.active.load(Ordering::SeqCst),
            waited: started.elapsed(),
        }
    }
}

/// Block until `listener` has a connection to accept, `timeout`
/// passes, or a signal (SIGTERM, SIGINT) interrupts the wait with
/// `EINTR` — whichever comes first. The caller re-checks the drain
/// flags and retries `accept` either way.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short};
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    // The same value on Linux, macOS and the BSDs.
    const POLLIN: c_short = 0x1;

    let mut entry = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `entry` is one initialised `pollfd` that outlives the
    // call and `nfds` is 1, so the kernel reads and writes that struct
    // only; its descriptor is the listener's, open for as long as the
    // borrow of `listener` lasts.
    let ready = unsafe { poll(&mut entry, 1, millis) };
    // A failure other than a signal (ENOMEM, …) would return at once
    // and spin the accept loop: wait out the timeout instead.
    if ready < 0 && std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
        std::thread::sleep(timeout);
    }
}

/// No `poll(2)` off Unix: sleep the interval and retry.
#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Serve requests off one accepted connection until the peer leaves,
/// an error or timeout cuts it, or a drain begins.
fn handle_connection<I: IndexLike + Send + Sync>(
    mut stream: TcpStream,
    engine: &SamaEngine<I>,
    config: &ServeConfig,
    state: &ServerState,
) {
    // Accepted sockets can inherit the listener's non-blocking mode;
    // the workers want blocking reads bounded by timeouts instead.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        obs::fault::point("serve.read");
        let request = match read_request(&mut stream, config.max_body_bytes) {
            Ok(request) => request,
            Err(ParseError::Closed) | Err(ParseError::Io(_)) => return,
            Err(ParseError::TimedOut) => {
                // Slow-loris cut: the peer held the socket without
                // completing a request inside the read timeout.
                obs::metrics::SERVE_TIMEOUTS_TOTAL.add(1);
                let _ = error_response(408, "request not received within the read timeout")
                    .closing()
                    .write_to(&mut stream, false);
                return;
            }
            Err(ParseError::HeadersTooLarge) => {
                let _ = error_response(431, "request headers too large")
                    .closing()
                    .write_to(&mut stream, false);
                return;
            }
            Err(ParseError::BodyTooLarge) => {
                let _ = error_response(413, "request body exceeds the configured limit")
                    .closing()
                    .write_to(&mut stream, false);
                return;
            }
            Err(ParseError::BadRequest(reason)) => {
                let _ = error_response(400, &reason)
                    .closing()
                    .write_to(&mut stream, false);
                return;
            }
        };
        let started = Instant::now();
        let draining = state.draining();
        let response = if draining {
            // In-flight requests finish; *new* requests during a drain
            // are turned away so the connection count reaches zero.
            error_response(503, "server is draining").closing()
        } else {
            route(&request, engine, config, state)
        };
        obs::metrics::SERVE_REQUESTS_TOTAL.add(1);
        obs::metrics::SERVE_REQUEST_TOTAL_NS_ROLLING.record_duration(started.elapsed());
        let keep_alive = request.keep_alive && !response.wants_close() && !state.draining();
        obs::fault::point("serve.write");
        match response.write_to(&mut stream, keep_alive) {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                obs::metrics::SERVE_TIMEOUTS_TOTAL.add(1);
                return;
            }
            Err(_) => return,
        }
        if !keep_alive {
            return;
        }
    }
}

/// Map a parsed request to its handler.
fn route<I: IndexLike + Send + Sync>(
    request: &Request,
    engine: &SamaEngine<I>,
    config: &ServeConfig,
    state: &ServerState,
) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.ready.load(Ordering::SeqCst) {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "starting\n")
            }
        }
        ("GET", "/metrics") => Response::prometheus(obs::export::prometheus()),
        ("POST", "/query") => handle_query(request, engine, config),
        ("POST", "/batch") => handle_batch(request, engine, config),
        (_, "/healthz" | "/readyz" | "/metrics") => {
            Response::text(405, "method not allowed\n").header("Allow", "GET")
        }
        (_, "/query" | "/batch") => {
            Response::text(405, "method not allowed\n").header("Allow", "POST")
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// `POST /query`: SPARQL body in, the engine's canonical JSON document
/// out — rendered by the same [`render_result_json`] the CLI uses, so
/// the bytes match `sama query --json` exactly.
fn handle_query<I: IndexLike + Send + Sync>(
    request: &Request,
    engine: &SamaEngine<I>,
    config: &ServeConfig,
) -> Response {
    let k = match parse_k(request, config.k) {
        Ok(k) => k,
        Err(response) => return *response,
    };
    let budget = match parse_deadline(request, engine) {
        Ok(budget) => budget,
        Err(response) => return *response,
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "request body is not UTF-8"),
    };
    let query = match parse_sparql(text) {
        Ok(query) => query,
        Err(e) => return error_response(400, &format!("cannot parse query: {e}")),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        obs::fault::point("serve.handler");
        engine.try_answer_with_budget(&query.graph, k, &budget)
    }));
    match outcome {
        Ok(Ok(result)) => {
            let body = render_result_json(engine.index(), &query.graph, &result);
            Response::json(200, body).header("X-Sama-Query-Id", result.query_id.to_string())
        }
        Ok(Err(error)) => query_error_response(&error),
        // The worker panicked mid-query: answer like the batch pool's
        // per-slot isolation would, and close — this connection's
        // stream position is no longer trustworthy.
        Err(payload) => query_error_response(&QueryError::Panicked(panic_text(payload))).closing(),
    }
}

/// `POST /batch`: queries separated by lines containing exactly `;;`,
/// answered on the engine's batch pool with per-slot error isolation.
fn handle_batch<I: IndexLike + Send + Sync>(
    request: &Request,
    engine: &SamaEngine<I>,
    config: &ServeConfig,
) -> Response {
    use std::fmt::Write;
    let k = match parse_k(request, config.k) {
        Ok(k) => k,
        Err(response) => return *response,
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "request body is not UTF-8"),
    };
    let mut graphs = Vec::new();
    for (i, part) in split_batch(text).iter().enumerate() {
        if part.trim().is_empty() {
            continue;
        }
        match parse_sparql(part) {
            Ok(query) => graphs.push(query.graph),
            Err(e) => return error_response(400, &format!("cannot parse batch query #{i}: {e}")),
        }
    }
    if graphs.is_empty() {
        return error_response(400, "batch body holds no queries");
    }
    let batch_config = BatchConfig {
        k,
        threads: config.batch_threads,
        max_queue_depth: config.max_queue_depth,
    };
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        obs::fault::point("serve.handler");
        engine.answer_batch(&graphs, &batch_config)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            return query_error_response(&QueryError::Panicked(panic_text(payload))).closing()
        }
    };
    let mut body = String::from("{\"queries\":[");
    for (i, slot) in outcome.results.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match slot {
            Ok(result) => {
                let _ = write!(
                    body,
                    "{{\"index\":{i},\"query_id\":{},\"answers\":{},\"truncated\":{}}}",
                    result.query_id,
                    result.answers.len(),
                    result.truncated
                );
            }
            Err(error) => {
                let _ = write!(
                    body,
                    "{{\"index\":{i},\"error\":\"{}\"}}",
                    json_escape(&error.to_string())
                );
            }
        }
    }
    let stats = &outcome.stats;
    let _ = writeln!(
        body,
        "],\"stats\":{{\"queries\":{},\"threads\":{},\"failed\":{},\"shed\":{},\"degraded\":{},\"queries_per_sec\":{:.1}}}}}",
        stats.queries, stats.threads, stats.failed, stats.shed, stats.degraded, stats.queries_per_sec
    );
    Response::json(200, body)
}

/// Split a batch body on separator lines containing exactly `;;`
/// (modulo surrounding whitespace) — the same convention as a file of
/// queries for `sama batch`.
fn split_batch(text: &str) -> Vec<String> {
    let mut parts = vec![String::new()];
    for line in text.lines() {
        if line.trim() == ";;" {
            parts.push(String::new());
        } else {
            let part = parts.last_mut().expect("parts is never empty");
            part.push_str(line);
            part.push('\n');
        }
    }
    parts
}

/// The effective top-k: `?k=N` or the configured default. Boxed error
/// response keeps the hot Ok(usize) path allocation-free.
fn parse_k(request: &Request, default: usize) -> Result<usize, Box<Response>> {
    match request.query_param("k") {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| Box::new(error_response(400, &format!("bad k value {raw:?}")))),
    }
}

/// The request's query budget: `X-Sama-Deadline-Ms` when present
/// (including `0`, which deadline-expires immediately into a flagged
/// empty result), else the engine's configured default.
fn parse_deadline<I: IndexLike + Sync>(
    request: &Request,
    engine: &SamaEngine<I>,
) -> Result<QueryBudget, Box<Response>> {
    match request.header("x-sama-deadline-ms") {
        None => Ok(engine.default_budget()),
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => Ok(QueryBudget::deadline(Duration::from_millis(ms))),
            Err(_) => Err(Box::new(error_response(
                400,
                &format!("bad X-Sama-Deadline-Ms value {raw:?}"),
            ))),
        },
    }
}

/// Map a typed engine error to its HTTP shape. `Shed` advertises a
/// retry; `Panicked` does not close here — the caller decides.
fn query_error_response(error: &QueryError) -> Response {
    let status = match error {
        QueryError::InvalidQuery(_) => 400,
        QueryError::Panicked(_) => 500,
        QueryError::DeadlineExceeded => 504,
        QueryError::Cancelled | QueryError::Shed => 503,
    };
    let response = error_response(status, &error.to_string());
    if matches!(error, QueryError::Shed) {
        response.header("Retry-After", "1")
    } else {
        response
    }
}

/// A JSON error body carrying a fresh process-unique `query_id`, also
/// stamped into the `X-Sama-Query-Id` header — failures stay
/// correlatable with the slowlog from the client side.
fn error_response(status: u16, message: &str) -> Response {
    let query_id = next_query_id();
    Response::json(
        status,
        format!(
            "{{\"error\":\"{}\",\"query_id\":{query_id}}}\n",
            json_escape(message)
        ),
    )
    .header("X-Sama-Query-Id", query_id.to_string())
}

/// Best-effort text of a panic payload (panics carry `&str` or
/// `String`; anything else gets a placeholder).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_bodies_split_on_double_semicolon_lines() {
        let parts = split_batch("SELECT A\n;;\nSELECT B\n ;; \nSELECT C");
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], "SELECT A\n");
        assert_eq!(parts[1], "SELECT B\n");
        assert_eq!(parts[2], "SELECT C\n");
        assert_eq!(split_batch("").len(), 1);
    }

    #[test]
    fn typed_errors_map_to_their_status_codes() {
        let cases = [
            (QueryError::InvalidQuery("x".into()), 400),
            (QueryError::Panicked("x".into()), 500),
            (QueryError::DeadlineExceeded, 504),
            (QueryError::Cancelled, 503),
            (QueryError::Shed, 503),
        ];
        for (error, status) in cases {
            assert_eq!(query_error_response(&error).status(), status, "{error:?}");
        }
    }

    #[test]
    fn panic_payload_text_is_extracted() {
        assert_eq!(panic_text(Box::new("static")), "static");
        assert_eq!(panic_text(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_text(Box::new(42_u32)), "opaque panic payload");
    }
}
