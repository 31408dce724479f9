//! The daemon: an acceptor, a connection thread per client, a bounded
//! in-flight query gate for backpressure, and graceful drain on shutdown.
//!
//! ```text
//!  clients ──TCP──▶ acceptor ──▶ connection threads (≤ max_connections)
//!                                   │  parse request (http.rs)
//!                                   ▼
//!                             in-flight gate (≤ queue_depth)
//!                  full → 503 OVERLOADED       draining → 503 SHUTTING_DOWN
//!                                   │
//!                                   ▼
//!                          fleet.get(session) ──▶ lock slot ──▶ Solver
//!                          (per-session serialization; cross-session
//!                           parallelism across threads)
//! ```
//!
//! Shutdown ([`ServerHandle::shutdown`]) stops the acceptor, flips the
//! drain flag (new requests get `SHUTTING_DOWN`), waits for every
//! in-flight query to finish, then joins the connection threads.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use minex_algo::solver::{AlgoError, Query, Solver};
use minex_algo::wire::{
    self, error_to_wire, http_status, obj, parts_strategy_from_wire, FromWire, JsonValue, ToWire,
    WireError, CODE_BAD_REQUEST, CODE_NOT_FOUND, CODE_OVERLOADED, CODE_SHUTTING_DOWN, WIRE_VERSION,
};
use minex_congest::CongestConfig;
use minex_graphs::{EdgeMutation, Graph, NodeId, WeightedGraph};

use crate::fleet::{format_session_id, parse_session_id, Fleet, SessionSpec};
use crate::http::{read_request, write_response, Request};

/// How often parked keep-alive connections poll the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Maximum concurrently executing queries; one more is shed with
    /// `OVERLOADED`.
    pub queue_depth: usize,
    /// Maximum resident sessions (LRU beyond this).
    pub fleet_capacity: usize,
    /// Maximum concurrent connections; excess connections are refused
    /// with `OVERLOADED` and closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 64,
            fleet_capacity: 32,
            max_connections: 128,
        }
    }
}

/// Bounded in-flight work counter with drain support — the backpressure
/// primitive: `try_enter` refuses (instead of queueing unboundedly) when
/// `queue_depth` queries are already executing.
#[derive(Debug)]
struct Gate {
    limit: usize,
    inflight: Mutex<usize>,
    drained: Condvar,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Gate {
            limit: limit.max(1),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    fn try_enter(&self) -> bool {
        let mut n = self.inflight.lock().expect("gate lock");
        if *n >= self.limit {
            return false;
        }
        *n += 1;
        true
    }

    fn exit(&self) {
        let mut n = self.inflight.lock().expect("gate lock");
        *n -= 1;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    fn wait_drained(&self) {
        let mut n = self.inflight.lock().expect("gate lock");
        while *n > 0 {
            n = self.drained.wait(n).expect("gate lock");
        }
    }
}

/// RAII guard for one in-flight query.
struct InFlight<'a>(&'a Gate);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

#[derive(Debug)]
struct Shared {
    fleet: Fleet,
    gate: Gate,
    draining: AtomicBool,
    max_connections: usize,
    conns: Mutex<usize>,
}

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) aborts ungracefully (threads are
/// detached); call `shutdown` to drain.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

/// Starts the daemon.
///
/// # Errors
///
/// IO errors from binding the listener.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        fleet: Fleet::new(config.fleet_capacity),
        gate: Gate::new(config.queue_depth),
        draining: AtomicBool::new(false),
        max_connections: config.max_connections.max(1),
        conns: Mutex::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("minex-serve-accept".to_string())
        .spawn(move || accept_loop(listener, accept_shared))?;
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of resident sessions.
    pub fn sessions(&self) -> usize {
        self.shared.fleet.len()
    }

    /// Graceful shutdown: stop accepting, refuse new queries with
    /// `SHUTTING_DOWN`, wait for in-flight queries to drain, join every
    /// connection thread.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(handles) = acceptor.join() {
                for h in handles {
                    let _ = h.join();
                }
            }
        }
        self.shared.gate.wait_drained();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client) during drain.
            let _ = refuse(stream, CODE_SHUTTING_DOWN, "server is draining");
            break;
        }
        let Some(slot) = ConnSlot::claim(&shared) else {
            let _ = refuse(stream, CODE_OVERLOADED, "connection limit reached");
            continue;
        };
        handles.retain(|h| !h.is_finished());
        // The slot moves into the thread's closure: it comes back when the
        // connection ends, when its handler panics, and, since a failed
        // spawn drops the closure, when no thread starts.
        if let Ok(handle) = std::thread::Builder::new()
            .name("minex-serve-conn".to_string())
            .spawn(move || connection_loop(stream, slot.shared()))
        {
            handles.push(handle);
        }
    }
    handles
}

/// One connection's claim on `max_connections`, given back on drop.
struct ConnSlot(Arc<Shared>);

impl ConnSlot {
    /// Takes a slot, or `None` when all `max_connections` are taken.
    fn claim(shared: &Arc<Shared>) -> Option<ConnSlot> {
        let mut conns = shared.conns.lock().expect("conns lock");
        if *conns >= shared.max_connections {
            return None;
        }
        *conns += 1;
        Some(ConnSlot(Arc::clone(shared)))
    }

    fn shared(&self) -> &Shared {
        &self.0
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        // No code panics while holding `conns`, but a drop that runs during
        // an unwind must not panic on a poisoned lock either.
        let mut conns = self.0.conns.lock().unwrap_or_else(PoisonError::into_inner);
        *conns -= 1;
    }
}

fn refuse(mut stream: TcpStream, code: &str, message: &str) -> io::Result<()> {
    let body = error_body(code, message);
    write_response(
        &mut stream,
        http_status(code),
        "application/json",
        body.as_bytes(),
        false,
    )
}

fn error_body(code: &str, message: &str) -> String {
    obj([
        ("code", JsonValue::Str(code.to_string())),
        ("message", JsonValue::Str(message.to_string())),
    ])
    .to_string()
}

/// Reads one request line, polling the shutdown flag while the connection
/// idles. `Ok(None)` means the peer closed (or the server is draining and
/// the connection is idle).
fn read_request_line(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
) -> io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {
                if line.ends_with('\n') {
                    return Ok(Some(line));
                }
                // Timed out mid-line on a previous pass; keep accumulating.
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // `read_line` keeps what it read in `line`; only park the
                // connection if it is idle and the daemon is draining.
                if line.is_empty() && shared.draining.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Per-connection socket set-up: `TCP_NODELAY`, since each response is
/// already one write, so Nagle's algorithm has nothing to coalesce and
/// would only hold a response's last segment for the client's delayed
/// ACK; and the idle-poll read timeout.
fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_POLL))
}

fn connection_loop(stream: TcpStream, shared: &Shared) {
    if configure(&stream).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let first_line = match read_request_line(&mut reader, shared) {
            Ok(Some(line)) => line,
            Ok(None) | Err(_) => return,
        };
        // The head arrived; finish the request in blocking mode so a slow
        // body can't be mistaken for an idle connection.
        let _ = reader.get_ref().set_read_timeout(None);
        let request = match read_request(&mut reader, &first_line) {
            Ok(r) => r,
            Err(_) => {
                let body = error_body(CODE_BAD_REQUEST, "malformed request");
                let _ = write_response(
                    &mut writer,
                    http_status(CODE_BAD_REQUEST),
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
        };
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        let keep_alive = request.keep_alive && !shared.draining.load(Ordering::SeqCst);
        let (status, content_type, body) = respond(shared, &request);
        if write_response(
            &mut writer,
            status,
            content_type,
            body.as_bytes(),
            keep_alive,
        )
        .is_err()
            || !keep_alive
        {
            return;
        }
    }
}

/// Routes one request. Every outcome is a `(status, content_type, body)`
/// triple; errors are wire error bodies with their fixed status.
fn respond(shared: &Shared, req: &Request) -> (u16, &'static str, String) {
    let json = |status: u16, body: String| (status, "application/json", body);
    let fail = |code: &str, message: &str| json(http_status(code), error_body(code, message));
    if shared.draining.load(Ordering::SeqCst) {
        return fail(CODE_SHUTTING_DOWN, "server is draining");
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["v1", "health"]) => json(
            200,
            obj([
                ("status", JsonValue::Str("ok".into())),
                ("wire_version", JsonValue::UInt(WIRE_VERSION as u64)),
                ("sessions", JsonValue::UInt(shared.fleet.len() as u64)),
            ])
            .to_string(),
        ),
        ("GET", ["v1", "sessions"]) => {
            let ids = shared.fleet.ids();
            json(
                200,
                obj([(
                    "sessions",
                    JsonValue::Array(
                        ids.into_iter()
                            .map(|id| JsonValue::Str(format_session_id(id)))
                            .collect(),
                    ),
                )])
                .to_string(),
            )
        }
        ("POST", ["v1", "sessions"]) => {
            // Session creation counts as in-flight work: it parses a whole
            // graph upload and belongs under the backpressure gate.
            let Some(_guard) = enter(shared) else {
                return fail(CODE_OVERLOADED, "request queue is full");
            };
            match create_session(shared, &req.body) {
                Ok(body) => json(200, body),
                Err((code, message)) => fail(code, &message),
            }
        }
        ("DELETE", ["v1", "sessions", id]) => match parse_session_id(id) {
            Some(id) if shared.fleet.remove(id) => {
                json(200, obj([("deleted", JsonValue::Bool(true))]).to_string())
            }
            Some(_) | None => fail(CODE_NOT_FOUND, "no such session"),
        },
        ("GET", ["v1", "sessions", id, "trace"]) => {
            match parse_session_id(id).and_then(|id| shared.fleet.get(id)) {
                None => fail(CODE_NOT_FOUND, "no such session"),
                Some(slot) => {
                    let solver = slot.solver.lock().expect("session lock");
                    match solver.trace() {
                        Some(trace) => (200, "application/x-ndjson", trace.to_jsonl()),
                        None => fail(CODE_NOT_FOUND, "session tracing is disabled"),
                    }
                }
            }
        }
        ("POST", ["v1", "sessions", id, "query"]) => {
            let Some(slot) = parse_session_id(id).and_then(|id| shared.fleet.get(id)) else {
                return fail(CODE_NOT_FOUND, "no such session");
            };
            let Some(_guard) = enter(shared) else {
                return fail(CODE_OVERLOADED, "request queue is full");
            };
            let query = match parse_body(&req.body) {
                Ok(q) => q,
                Err(e) => return fail(CODE_BAD_REQUEST, &e.to_string()),
            };
            let mut solver = slot.solver.lock().expect("session lock");
            match run_query(&mut solver, &query) {
                Ok(body) => json(200, body.to_string()),
                Err(QueryError::Algo(e)) => json(
                    http_status(wire::error_code(&e)),
                    error_to_wire(&e).to_string(),
                ),
                Err(QueryError::Bad(msg)) => fail(CODE_BAD_REQUEST, &msg),
            }
        }
        ("POST", ["v1", "sessions", id, "batch"]) => {
            let Some(slot) = parse_session_id(id).and_then(|id| shared.fleet.get(id)) else {
                return fail(CODE_NOT_FOUND, "no such session");
            };
            // A batch is one admission-control unit and one lock
            // acquisition: the whole batch runs back-to-back on the
            // session, interleaved with no other client.
            let Some(_guard) = enter(shared) else {
                return fail(CODE_OVERLOADED, "request queue is full");
            };
            let parsed = parse_body(&req.body).and_then(|v| {
                v.get("queries")
                    .and_then(|q| q.as_array().map(<[JsonValue]>::to_vec))
                    .ok_or_else(|| WireError::new("missing field \"queries\""))
            });
            let queries = match parsed {
                Ok(q) => q,
                Err(e) => return fail(CODE_BAD_REQUEST, &e.to_string()),
            };
            let mut solver = slot.solver.lock().expect("session lock");
            let results: Vec<JsonValue> = queries
                .iter()
                .map(|q| match run_query(&mut solver, q) {
                    Ok(body) => obj([("ok", body)]),
                    Err(QueryError::Algo(e)) => obj([("error", error_to_wire(&e))]),
                    Err(QueryError::Bad(msg)) => obj([(
                        "error",
                        obj([
                            ("code", JsonValue::Str(CODE_BAD_REQUEST.into())),
                            ("message", JsonValue::Str(msg)),
                        ]),
                    )]),
                })
                .collect();
            json(
                200,
                obj([("results", JsonValue::Array(results))]).to_string(),
            )
        }
        (_, ["v1", ..]) => fail(CODE_NOT_FOUND, "no such route"),
        _ => fail(CODE_NOT_FOUND, "unknown path (the API lives under /v1)"),
    }
}

fn enter(shared: &Shared) -> Option<InFlight<'_>> {
    shared.gate.try_enter().then(|| InFlight(&shared.gate))
}

fn parse_body(body: &[u8]) -> Result<JsonValue, WireError> {
    let text = std::str::from_utf8(body).map_err(|_| WireError::new("body is not UTF-8"))?;
    JsonValue::parse(text)
}

/// Parses a `POST /v1/sessions` body into a [`SessionSpec`], builds the
/// session, and registers it with the fleet.
fn create_session(shared: &Shared, body: &[u8]) -> Result<String, (&'static str, String)> {
    let bad = |e: WireError| (CODE_BAD_REQUEST, e.to_string());
    let v = parse_body(body).map_err(bad)?;
    let graph = v
        .get("graph")
        .ok_or_else(|| bad(WireError::new("missing field \"graph\"")))?;
    let n = graph
        .get("n")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| bad(WireError::new("graph.n must be a non-negative integer")))?;
    let edges_json = graph
        .get("edges")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad(WireError::new("graph.edges must be an array")))?;
    let mut edges: Vec<(NodeId, NodeId, u64)> = Vec::with_capacity(edges_json.len());
    for e in edges_json {
        let triple = e
            .as_array()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| bad(WireError::new("each edge must be [u, v, weight]")))?;
        let u = triple[0]
            .as_usize()
            .ok_or_else(|| bad(WireError::new("edge endpoints must be node ids")))?;
        let w_v = triple[1]
            .as_usize()
            .ok_or_else(|| bad(WireError::new("edge endpoints must be node ids")))?;
        let w = triple[2]
            .as_u64()
            .ok_or_else(|| bad(WireError::new("edge weights must be u64")))?;
        edges.push((u, w_v, w));
    }
    // Streaming CSR construction: the edge list is consumed in place, no
    // intermediate adjacency list.
    let g = Graph::from_edge_stream(n, || edges.iter().map(|&(u, v, _)| (u, v)))
        .map_err(|e| bad(WireError::new(format!("bad graph: {e}"))))?;
    let mut weights = vec![0u64; g.m()];
    for &(u, v, w) in &edges {
        let eid = g.edge_between(u, v).expect("edge was just inserted");
        weights[eid] = w;
    }
    let wg = Arc::new(WeightedGraph::new(g, weights));

    let mut spec = SessionSpec::new(Arc::clone(&wg));
    if let Some(parts) = v.get("parts") {
        spec.parts = parts_strategy_from_wire(wg.graph(), parts).map_err(bad)?;
    }
    if let Some(builder) = v.get("builder") {
        spec.builder = builder
            .as_str()
            .ok_or_else(|| bad(WireError::new("builder must be a string")))?
            .to_string();
    }
    let mut config = CongestConfig::for_nodes(n);
    if let Some(b) = v.get("bandwidth") {
        config = config.with_bandwidth(
            b.as_usize()
                .ok_or_else(|| bad(WireError::new("bandwidth must be a positive integer")))?,
        );
    }
    if let Some(r) = v.get("max_rounds") {
        config = config.with_max_rounds(
            r.as_usize()
                .ok_or_else(|| bad(WireError::new("max_rounds must be a positive integer")))?,
        );
    }
    // A `threads` field, which older clients send, is ignored like any
    // unknown field: one engine runs every query on its connection thread.
    spec.config = config;
    if let Some(t) = v.get("trace") {
        spec.trace = t
            .as_bool()
            .ok_or_else(|| bad(WireError::new("trace must be a boolean")))?;
    }

    let id = spec.session_id();
    let (_, created, evicted) = shared
        .fleet
        .get_or_insert(id, || spec.build())
        .map_err(bad)?;
    Ok(obj([
        ("session", JsonValue::Str(format_session_id(id))),
        ("created", JsonValue::Bool(created)),
        ("nodes", JsonValue::UInt(wg.graph().n() as u64)),
        ("edges", JsonValue::UInt(wg.graph().m() as u64)),
        (
            "evicted",
            JsonValue::Array(
                evicted
                    .into_iter()
                    .map(|e| JsonValue::Str(format_session_id(e)))
                    .collect(),
            ),
        ),
    ])
    .to_string())
}

enum QueryError {
    /// A structured solver error — maps to its stable wire code.
    Algo(AlgoError),
    /// A malformed query body — maps to `BAD_REQUEST`.
    Bad(String),
}

impl From<WireError> for QueryError {
    fn from(e: WireError) -> Self {
        QueryError::Bad(e.to_string())
    }
}

impl From<AlgoError> for QueryError {
    fn from(e: AlgoError) -> Self {
        QueryError::Algo(e)
    }
}

/// Executes one wire query against a locked session: an `apply` body
/// mutates the session, every other body decodes to a [`Query`].
fn run_query(solver: &mut Solver, q: &JsonValue) -> Result<JsonValue, QueryError> {
    if q.get("query").and_then(JsonValue::as_str) != Some("apply") {
        return Ok(solver.run(&Query::from_wire(q)?)?.to_wire());
    }
    let mutations = q
        .get("mutations")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| QueryError::Bad("apply needs \"mutations\"".to_string()))?
        .iter()
        .map(EdgeMutation::from_wire)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(solver.apply(&mutations)?.to_wire())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, CreateSession, ServeError};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread;

    fn upload(n: usize) -> CreateSession {
        CreateSession::from_weighted(&WeightedGraph::unit(minex_graphs::generators::cycle(n)))
    }

    #[test]
    fn connection_slots_come_back_after_a_panic_or_an_unstarted_thread() {
        let shared = Arc::new(Shared {
            fleet: Fleet::new(1),
            gate: Gate::new(1),
            draining: AtomicBool::new(false),
            max_connections: 2,
            conns: Mutex::new(0),
        });
        let taken = || *shared.conns.lock().unwrap();

        // A handler that panics unwinds through the slot its thread owns.
        let slot = ConnSlot::claim(&shared).expect("a free slot");
        assert_eq!(taken(), 1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _slot = slot;
            panic!("a connection handler panics");
        }));
        assert!(unwound.is_err());
        assert_eq!(taken(), 0, "an unwound handler leaked its slot");

        // A spawn that fails drops its closure, and the slot in it, unrun.
        let slot = ConnSlot::claim(&shared).expect("a free slot");
        let body = move || slot.shared().draining.load(Ordering::SeqCst);
        drop(body);
        assert_eq!(taken(), 0, "an unstarted thread leaked its slot");

        // The cap is intact: exactly `max_connections` slots can be held.
        let held = [ConnSlot::claim(&shared), ConnSlot::claim(&shared)];
        assert!(held.iter().all(Option::is_some));
        assert!(ConnSlot::claim(&shared).is_none());
        drop(held);
        assert_eq!(taken(), 0);
    }

    #[test]
    fn accepted_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        configure(&stream).unwrap();
        assert!(stream.nodelay().unwrap());
        assert!(stream.read_timeout().unwrap().is_some());
    }

    #[test]
    fn a_held_admission_slot_sheds_queries_and_creates() {
        let server = start(ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).unwrap();
        let session = client.create_session(&upload(6)).unwrap();

        let held = enter(&server.shared).expect("the gate starts empty");
        for refused in [
            client.mst(&session).map(drop),
            client.create_session(&upload(7)).map(drop),
        ] {
            match refused {
                Err(ServeError::Server { status, code, .. }) => {
                    assert_eq!((status, code.as_str()), (503, CODE_OVERLOADED));
                }
                other => panic!("expected 503 OVERLOADED while the slot is held, got {other:?}"),
            }
        }

        drop(held);
        client
            .mst(&session)
            .expect("service resumes once the slot frees");
        client
            .create_session(&upload(7))
            .expect("creates resume too");
        server.shutdown();
    }

    #[test]
    fn shutdown_waits_for_a_held_admission_slot() {
        let server = start(ServerConfig::default()).expect("bind");
        let addr = server.addr();
        let shared = Arc::clone(&server.shared);
        let held = enter(&shared).expect("the gate starts empty");

        let (done, finished) = mpsc::channel();
        let shutter = thread::spawn(move || {
            server.shutdown();
            done.send(()).unwrap();
        });
        assert_eq!(
            finished.recv_timeout(Duration::from_millis(200)),
            Err(RecvTimeoutError::Timeout),
            "shutdown returned while a query held the gate"
        );
        assert!(shared.draining.load(Ordering::SeqCst));

        drop(held);
        finished
            .recv()
            .expect("shutdown returns once the slot frees");
        shutter.join().unwrap();
        // The daemon is gone: new connections fail outright or are refused.
        if let Ok(mut late) = Client::connect(addr) {
            assert!(
                late.health().is_err(),
                "daemon still serving after shutdown"
            );
        }
    }
}
