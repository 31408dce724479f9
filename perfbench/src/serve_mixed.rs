//! `serve-mixed`: a closed loop of two client connections against a daemon
//! started in-process on loopback.
//!
//! Each connection works through its own seeded sequence of sessions. A
//! session uploads a tri-grid, k-tree or maze graph (144–196 nodes) with
//! Voronoi parts, sends a seeded shuffle of thirteen queries — exact and
//! shortcut SSSP from fresh sources, part-wise MIN with fresh values, and
//! two each of `mst`, `components` and `min_cut(1)` (the second is a memo
//! hit) — and deletes the session. After the timed phase every served
//! query is replayed on an in-process twin session: the bodies must be
//! byte-identical and the answers must pass the oracles.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use minex_algo::mincut::{greedy_tree_packing, min_two_respecting_cut, stoer_wagner};
use minex_algo::solver::{PartsStrategy, Tier};
use minex_algo::wire::{obj, JsonValue};
use minex_congest::CongestConfig;
use minex_core::construct::{AutoCappedBuilder, ShortcutBuilder};
use minex_core::{measure_quality, RootedTree, ShortcutPlan};
use minex_graphs::{generators, NodeId, WeightModel, WeightedGraph};
use minex_serve::{
    format_session_id, start, Client, CreateSession, ServerConfig, ServerHandle, SessionSpec,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngExt, SeedableRng};

use crate::common::{check, graph_from_upload, Answer, Opts, Outcome, Query};
use crate::oracle::same_body;
use crate::stats::{derive_seed, fnv64};
use crate::trace::Tracer;

/// Client connections (one thread each).
const CONNECTIONS: usize = 2;

/// Sessions each connection runs per round.
const ROUND_SESSIONS: u64 = 12;

/// Operations per session: create, thirteen queries, delete.
const SESSION_OPS: usize = 15;

/// Index of the warm-up session that set-up runs on each connection.
const WARMUP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
enum Family {
    TriGrid(usize),
    KTree(usize, usize),
    Maze(usize),
}

/// Session graphs, cycled in order (each connection starts at its own
/// offset), so every run sees the same mix of shapes and sizes.
const SCHEDULE: [Family; 6] = [
    Family::TriGrid(12),
    Family::KTree(160, 3),
    Family::Maze(12),
    Family::TriGrid(14),
    Family::KTree(196, 2),
    Family::Maze(14),
];

/// One seeded session: the upload and the queries sent to it.
struct Script {
    upload: CreateSession,
    parts: PartsStrategy,
    queries: Vec<Query>,
}

/// Op index of the session's closing `DELETE` (create is op 0).
fn delete_op(s: &Script) -> usize {
    s.queries.len() + 1
}

fn script(seed: u64, conn: usize, index: u64, tr: &mut Tracer) -> Script {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[1, conn as u64, index]));
    let family = SCHEDULE[(index as usize).wrapping_add(3 * conn) % SCHEDULE.len()];
    let wg: WeightedGraph = tr.span("graphs", "graphs.build", || {
        let uniform = WeightModel::Uniform { lo: 1, hi: 1000 };
        match family {
            Family::TriGrid(side) => {
                uniform.apply(&generators::triangulated_grid(side, side), &mut rng)
            }
            Family::KTree(n, k) => {
                let (g, _) = generators::k_tree(n, k, &mut rng);
                uniform.apply(&g, &mut rng)
            }
            Family::Maze(side) => WeightModel::Bimodal {
                light: 64,
                heavy: 8192,
                heavy_permille: 450,
            }
            .apply(&generators::grid(side, side), &mut rng),
        }
    });
    let n = wg.graph().n();
    let part_count = rng.random_range(8..=12usize);
    let parts = PartsStrategy::Voronoi {
        parts: part_count,
        seed: rng.next_u64(),
    };
    let mut nodes: Vec<NodeId> = (0..n).collect();
    nodes.shuffle(&mut rng);
    // A budget of `n` phases always reaches the fixpoint (the relax rounds
    // alone are Bellman–Ford), where the `(1+ε)` bound holds; the loop
    // stops there. `parts + 2` does not always suffice on these graphs.
    let shortcut = Tier::Shortcut {
        epsilon: 0.25,
        max_phases: n,
    };
    let mut values = || {
        (0..n)
            .map(|_| rng.random_range(0..1u64 << 16))
            .collect::<Vec<_>>()
    };
    let mut queries = vec![
        Query::Sssp(nodes[0], Tier::Exact),
        Query::Sssp(nodes[1], Tier::Exact),
        Query::Sssp(nodes[2], Tier::Exact),
        Query::Sssp(nodes[3], shortcut),
        Query::Sssp(nodes[4], shortcut),
        Query::PartwiseMin(values()),
        Query::PartwiseMin(values()),
        Query::Mst,
        Query::Mst,
        Query::Components,
        Query::Components,
        Query::MinCut,
        Query::MinCut,
    ];
    queries.shuffle(&mut rng);
    let mut upload = CreateSession::from_weighted(&wg);
    upload.parts = Some(parts.clone());
    upload.threads = Some(1);
    Script {
        upload,
        parts,
        queries,
    }
}

/// One served operation, kept for the replay. Bodies are kept as hashes.
#[derive(Debug, Clone, Copy)]
struct Served {
    session: u64,
    op: usize,
    body_hash: u64,
    rtt_ns: u64,
    request: u64,
}

/// Per-connection state of the timed phase.
struct Conn {
    client: Client,
    tr: Tracer,
    out: Outcome,
    log: Vec<Served>,
}

impl Conn {
    /// One client call: encode, round trip, decode. Returns the body of a
    /// 200 answer that `decode` accepted.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        session: u64,
        op: usize,
        span: &'static str,
        method: &str,
        path: &str,
        body: impl FnOnce() -> Option<JsonValue>,
        decode: impl FnOnce(&str) -> Result<(), String>,
    ) -> Option<String> {
        let tr = &mut self.tr;
        self.out.attempted += 1;
        let request = tr.begin_request();
        let t0 = Instant::now();
        let root = tr.enter("bench", "op");
        let enc = tr.enter("wire", "wire.encode");
        let body = body();
        let request_bytes = body.as_ref().map_or(0, |b| b.to_string().len());
        tr.exit(enc);
        let call = tr.enter("serve", span);
        let res = self.client.request_raw(method, path, body.as_ref());
        let rtt_ns = tr.exit(call);
        let result = match res {
            Ok((200, text)) => {
                let dec = tr.enter("wire", "wire.decode");
                let decoded = decode(&text);
                tr.exit(dec);
                decoded.map(|()| text)
            }
            Ok((status, text)) => {
                if text.contains("\"OVERLOADED\"") {
                    tr.count("serve.overloaded", 1.0);
                }
                Err(format!("status {status}: {text}"))
            }
            Err(e) => Err(e.to_string()),
        };
        tr.exit(root);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(text) => {
                tr.count("wire.requests", 1.0);
                tr.count("wire.request_bytes", request_bytes as f64);
                tr.count("wire.response_bytes", text.len() as f64);
                let body_hash = fnv64(text.as_bytes());
                let slot = session as usize * SESSION_OPS + op;
                self.out.record(0, slot, latency_ms, body_hash);
                if self.out.rounds == 0 {
                    self.log.push(Served {
                        session,
                        op,
                        body_hash,
                        rtt_ns,
                        request,
                    });
                }
                Some(text)
            }
            Err(e) => {
                self.out.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }
}

fn parse_session(text: &str) -> Result<String, String> {
    JsonValue::parse(text)
        .map_err(|e| e.to_string())?
        .get("session")
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| "response has no session id".to_string())
}

/// The timed loop of one connection: rounds over the same sessions, until
/// `seconds` have passed (at least one full round).
fn client_loop(conn: &mut Conn, seed: u64, index_of: usize, start: Instant, seconds: f64) {
    loop {
        for index in 0..ROUND_SESSIONS {
            if conn.out.rounds > 0 && start.elapsed().as_secs_f64() >= seconds {
                return;
            }
            let s = script(seed, index_of, index, &mut conn.tr);
            session(conn, &s, index);
        }
        conn.out.rounds += 1;
    }
}

/// One session: upload, the queries, delete.
fn session(conn: &mut Conn, s: &Script, index: u64) {
    let upload = &s.upload;
    let Some(created) = conn.call(
        index,
        0,
        "serve.create_session",
        "POST",
        "/v1/sessions",
        || Some(upload.to_body()),
        |text| parse_session(text).map(|_| ()),
    ) else {
        return;
    };
    let id = parse_session(&created).expect("decode accepted it");
    let path = format!("/v1/sessions/{id}/query");
    for (j, q) in s.queries.iter().enumerate() {
        conn.call(
            index,
            j + 1,
            "serve.query",
            "POST",
            &path,
            || Some(q.to_request()),
            |text| Answer::decode(q, text).map(|_| ()),
        );
    }
    conn.call(
        index,
        delete_op(s),
        "serve.delete_session",
        "DELETE",
        &format!("/v1/sessions/{id}"),
        || None,
        |text| {
            JsonValue::parse(text)
                .map(|_| ())
                .map_err(|e| e.to_string())
        },
    );
}

/// Starts the daemon, connects the clients, and runs one warm-up session
/// per connection (upload, plan via `mst`, delete).
fn set_up(seed: u64) -> (ServerHandle, Vec<Client>) {
    let handle = start(ServerConfig::default()).expect("daemon binds loopback");
    let addr: SocketAddr = handle.addr();
    let mut off = Tracer::new(false, Instant::now(), 0);
    let clients = (0..CONNECTIONS)
        .map(|conn| {
            let mut client = Client::connect(addr).expect("client connects");
            let s = script(seed, conn, WARMUP, &mut off);
            let id = client.create_session(&s.upload).expect("warm-up upload");
            client.mst(&id).expect("warm-up mst");
            client.delete_session(&id).expect("warm-up delete");
            client
        })
        .collect();
    (handle, clients)
}

/// Runs the workload: set-up (repeated), the timed closed loop, then the
/// replay and oracles.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut kept = None;
    for rep in 0..opts.setup_reps {
        let t0 = Instant::now();
        let (handle, clients) = set_up(opts.seed);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < opts.setup_reps {
            drop(clients);
            handle.shutdown();
        } else {
            kept = Some((handle, clients));
        }
    }
    let (handle, clients) = kept.expect("at least one set-up");

    let start = Instant::now();
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let (seed, seconds) = (opts.seed, opts.seconds);
                let tr = tr.child(10 + i as u64);
                scope.spawn(move || {
                    let mut conn = Conn {
                        client,
                        tr,
                        out: Outcome::default(),
                        log: Vec::new(),
                    };
                    client_loop(&mut conn, seed, i, start, seconds);
                    conn
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    handle.shutdown();

    let mut logs = Vec::new();
    out.rounds = usize::MAX;
    for mut c in conns {
        out.best_ms.append(&mut c.out.best_ms);
        out.attempted += c.out.attempted;
        out.rounds = out.rounds.min(c.out.rounds);
        out.absorb_failures(&mut c.out);
        tr.absorb(c.tr);
        logs.push(c.log);
    }
    for (conn, log) in logs.iter().enumerate() {
        replay(opts, conn, log, tr, &mut out);
    }
    out
}

/// Replays one connection's first round on in-process twin sessions,
/// checks the served bytes and answers, and adds the round's model cost.
fn replay(opts: &Opts, conn: usize, log: &[Served], tr: &mut Tracer, out: &mut Outcome) {
    let mut rest = log;
    for index in 0..ROUND_SESSIONS {
        let split = rest.iter().take_while(|s| s.session == index).count();
        let (served, tail) = rest.split_at(split);
        rest = tail;
        let served_op = |op: usize| served.iter().find(|s| s.op == op);
        let s = script(opts.seed, conn, index, tr);

        // The twin: the same upload built the way the daemon builds it.
        tr.begin_request();
        let wg = tr.span("graphs", "graphs.build", || {
            graph_from_upload(s.upload.n, &s.upload.edges)
        });
        let n = wg.graph().n();
        let mut spec = SessionSpec::new(Arc::new(wg));
        spec.parts = s.parts.clone();
        spec.config = CongestConfig::for_nodes(n).with_threads(1);
        let id = format_session_id(spec.session_id());
        spec.trace = tr.on();
        let mut twin = match spec.build() {
            Ok(t) => t,
            Err(e) => {
                out.fail(format!("twin session {index}: {e}"));
                continue;
            }
        };
        let wg = twin.shared_graph();
        let parts = twin.parts().parts().to_vec();
        if let Some(c) = served_op(0) {
            let body = obj([
                ("session", JsonValue::Str(id)),
                ("created", JsonValue::Bool(true)),
                ("nodes", JsonValue::UInt(n as u64)),
                ("edges", JsonValue::UInt(wg.graph().m() as u64)),
                ("evicted", JsonValue::Array(Vec::new())),
            ])
            .to_string();
            if let Err(e) = same_body(c.body_hash, &body) {
                out.fail(format!("create session {index}: {e}"));
            }
        }

        let mut exact_cut: Option<u64> = None;
        for (j, q) in s.queries.iter().enumerate() {
            let served = served_op(j + 1);
            match served {
                Some(c) => tr.resume_request(c.request),
                None => {
                    tr.begin_request();
                }
            }
            let root = tr.enter("bench", "twin");
            let text = q.to_request().to_string();
            let dec = tr.enter("wire", "wire.decode");
            let decoded = Query::from_request(&text);
            let dec_ns = tr.exit(dec);
            let answer = match decoded {
                Err(e) => Err(e),
                Ok(d) => {
                    let sol = tr.enter("solver", d.span_name());
                    let a = d.run(&mut twin);
                    let sol_ns = tr.exit(sol);
                    match a {
                        Err(e) => Err(e.to_string()),
                        Ok(a) => {
                            let enc = tr.enter("wire", "wire.encode");
                            let body = a.to_body();
                            let enc_ns = tr.exit(enc);
                            Ok((a, body, dec_ns + sol_ns + enc_ns))
                        }
                    }
                }
            };
            tr.exit(root);
            let (answer, body, work_ns) = match answer {
                Ok(x) => x,
                Err(e) => {
                    out.fail(format!("twin {q:?} on session {index}: {e}"));
                    continue;
                }
            };
            out.model_rounds += answer.stats().total_rounds() as u64;
            out.model_messages += answer.stats().aggregate().messages;
            let Some(c) = served else { continue };
            if let Err(e) = same_body(c.body_hash, &body) {
                out.fail(format!("{q:?} on session {index}: {e}"));
                continue;
            }
            if matches!(q, Query::MinCut) && exact_cut.is_none() {
                exact_cut = Some(tr.span("mincut", "mincut.stoer_wagner", || stoer_wagner(&wg)));
            }
            if let Err(e) = check(q, &answer, &wg, &parts, exact_cut) {
                out.fail(format!("{q:?} on session {index}: {e}"));
            }
            if tr.on() {
                out.transport_ms
                    .push(c.rtt_ns.saturating_sub(work_ns) as f64 / 1e6);
            }
        }
        if let Some(c) = served_op(delete_op(&s)) {
            let body = obj([("deleted", JsonValue::Bool(true))]).to_string();
            if let Err(e) = same_body(c.body_hash, &body) {
                out.fail(format!("delete session {index}: {e}"));
            }
        }

        if tr.on() {
            if let Some(t) = twin.trace() {
                tr.count("solver.queries", t.counters.queries as f64);
                tr.count("solver.memo_hits", t.counters.memo_hits as f64);
            }
            probe_layers(tr, &wg, twin.parts());
        }
    }
}

/// Direct calls into `core` and `mincut` on a session graph, each in its
/// own span (traced runs only).
fn probe_layers(tr: &mut Tracer, wg: &WeightedGraph, parts: &minex_core::Partition) {
    let g = wg.graph();
    tr.begin_request();
    let tree = tr.span("core", "core.bfs_tree", || RootedTree::bfs(g, 0));
    let shortcut = tr.span("core", "core.shortcut_build", || {
        AutoCappedBuilder.build(g, &tree, parts)
    });
    tr.span("core", "core.measure_quality", || {
        measure_quality(g, &tree, parts, &shortcut)
    });
    tr.span("core", "core.plan_build", || {
        ShortcutPlan::build(g, 0, parts.clone(), &AutoCappedBuilder)
    });
    tr.begin_request();
    let packing = tr.span("mincut", "mincut.packing", || greedy_tree_packing(wg, 1));
    tr.span("mincut", "mincut.two_respecting", || {
        min_two_respecting_cut(wg, &packing[0])
    });
}
