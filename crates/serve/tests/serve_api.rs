//! End-to-end tests for the `minex-serve` daemon: wire-level determinism
//! against an in-process reference solver, LRU eviction, and the stable
//! error-code mapping. Admission shedding and drain are tested without
//! timing races inside `server.rs`, which can hold a gate slot directly.

use std::sync::Arc;
use std::thread;

use proptest::prelude::*;

use minex_algo::solver::{PartsStrategy, Solver, Tier};
use minex_algo::wire::{obj, JsonValue, ToWire};
use minex_congest::CongestConfig;
use minex_core::construct::AutoCappedBuilder;
use minex_graphs::{generators, EdgeMutation, WeightedGraph};
use minex_serve::{start, Client, CreateSession, ServeError, ServerConfig, ServerHandle};

/// The shared test network: a triangulated grid under seeded weights.
fn grid(rows: usize, cols: usize, seed: u64) -> Arc<WeightedGraph> {
    let g = generators::triangulated_grid(rows, cols);
    let weights: Vec<u64> = (0..g.m() as u64)
        .map(|e| 1 + (e.wrapping_mul(2654435761) ^ seed) % 1000)
        .collect();
    Arc::new(WeightedGraph::new(g, weights))
}

fn default_server() -> ServerHandle {
    start(ServerConfig::default()).expect("bind")
}

/// One query of the deterministic mix, in its wire form.
fn mix_query(kind: usize, n: usize) -> JsonValue {
    match kind {
        0 => obj([("query", JsonValue::Str("mst".into()))]),
        1 => obj([("query", JsonValue::Str("components".into()))]),
        2 => obj([
            ("query", JsonValue::Str("partwise_min".into())),
            (
                "values",
                JsonValue::Array((0..n as u64).map(JsonValue::UInt).collect()),
            ),
            ("value_bits", JsonValue::UInt(32)),
        ]),
        _ => obj([
            ("query", JsonValue::Str("sssp".into())),
            ("source", JsonValue::UInt(0)),
            ("tier", Tier::Exact.to_wire()),
        ]),
    }
}

/// The in-process reference: the same query mix against a single-threaded
/// owned solver, reports rendered to their wire form.
fn reference_reports(wg: &Arc<WeightedGraph>, mix: &[usize]) -> Vec<String> {
    let n = wg.graph().n();
    let mut solver = Solver::from_arc(Arc::clone(wg))
        .parts(PartsStrategy::Singletons)
        .shortcut_builder(AutoCappedBuilder)
        .config(CongestConfig::for_nodes(n))
        .build()
        .expect("reference solver");
    let values: Vec<u64> = (0..n as u64).collect();
    mix.iter()
        .map(|&kind| match kind {
            0 => solver.mst().unwrap().to_wire().to_string(),
            1 => solver.components().unwrap().to_wire().to_string(),
            2 => solver
                .partwise_min(&values, 32)
                .unwrap()
                .to_wire()
                .to_string(),
            _ => solver.sssp(0, Tier::Exact).unwrap().to_wire().to_string(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline determinism contract: N interleaved clients issuing
    /// the same query mix against one fleet session get responses
    /// byte-identical to a single-threaded in-process [`Solver`].
    #[test]
    fn interleaved_clients_match_the_in_process_solver(
        seed in 0u64..1_000,
        mix in proptest::collection::vec(0usize..4, 1..6),
    ) {
        let wg = grid(4, 4, seed);
        let expected = reference_reports(&wg, &mix);
        let server = default_server();
        let addr = server.addr();
        let clients: Vec<_> = (0..3)
            .map(|_| {
                let wg = Arc::clone(&wg);
                let mix = mix.clone();
                thread::spawn(move || -> Result<Vec<String>, ServeError> {
                    let mut client = Client::connect(addr)?;
                    let session = client.create_session(&CreateSession::from_weighted(&wg))?;
                    let n = wg.graph().n();
                    mix.iter()
                        .map(|&kind| {
                            client
                                .query(&session, &mix_query(kind, n))
                                .map(|v| v.to_string())
                        })
                        .collect()
                })
            })
            .collect();
        for c in clients {
            let got = c.join().expect("client thread").expect("client request");
            prop_assert_eq!(&got, &expected);
        }
        // All three clients uploaded the same graph + options: one session.
        prop_assert_eq!(server.sessions(), 1);
        server.shutdown();
    }
}

#[test]
fn batches_run_back_to_back_and_match_the_reference() {
    let wg = grid(4, 4, 7);
    let mix = [0usize, 1, 2, 3];
    let expected = reference_reports(&wg, &mix);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client
        .create_session(&CreateSession::from_weighted(&wg))
        .unwrap();
    let n = wg.graph().n();
    let mut queries: Vec<JsonValue> = mix.iter().map(|&k| mix_query(k, n)).collect();
    // A malformed query mid-batch must not poison its neighbours.
    queries.insert(2, obj([("query", JsonValue::Str("frobnicate".into()))]));
    let body = obj([("queries", JsonValue::Array(queries))]);
    let v = client
        .request(
            "POST",
            &format!("/v1/sessions/{session}/batch"),
            Some(&body),
        )
        .unwrap();
    let results = v.get("results").and_then(JsonValue::as_array).unwrap();
    assert_eq!(results.len(), 5);
    let ok: Vec<String> = results
        .iter()
        .filter_map(|r| r.get("ok").map(|v| v.to_string()))
        .collect();
    assert_eq!(ok, expected);
    let err = results[2].get("error").unwrap();
    assert_eq!(
        err.get("code").and_then(JsonValue::as_str),
        Some("BAD_REQUEST")
    );
    server.shutdown();
}

#[test]
fn a_four_mib_string_body_is_answered_in_linear_time() {
    // A string parses in one validation pass per run of plain bytes. A
    // parser that rescans the rest of the input for every character needs
    // hours for this body, so the loose bound cannot flake.
    let server = default_server();
    let addr = server.addr();
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let body = JsonValue::Str("a".repeat(4 << 20));
        let answer = client.request_raw("POST", "/v1/sessions", Some(&body));
        tx.send(answer.map_err(|e| e.to_string())).unwrap();
    });
    let (status, text) = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("a 4 MiB string body is answered within 60 s")
        .unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        JsonValue::parse(&text)
            .unwrap()
            .get("code")
            .and_then(JsonValue::as_str),
        Some("BAD_REQUEST")
    );
    server.shutdown();
}

#[test]
fn error_codes_map_stably_over_the_wire() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    // A disconnected upload builds a session (singleton parts tolerate
    // it), but connectivity-requiring queries fail with DISCONNECTED/422.
    let disconnected = CreateSession {
        n: 4,
        edges: vec![(0, 1, 5), (2, 3, 9)],
        parts: None,
        builder: None,
        bandwidth: None,
        max_rounds: None,
        threads: None,
        trace: false,
    };
    let session = client.create_session(&disconnected).unwrap();
    match client.mst(&session) {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (422, "DISCONNECTED"));
        }
        other => panic!("expected DISCONNECTED, got {other:?}"),
    }

    // Solver-rejected query arguments -> BAD_QUERY/400.
    match client.sssp(&session, 999, Tier::Exact) {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (400, "BAD_QUERY"));
        }
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }
    // So is a min-cut over a zero-weight edge: its ratio would have no
    // finite value. Queries that allow zero weights still answer.
    let zero_edge = CreateSession {
        n: 3,
        edges: vec![(0, 1, 0), (1, 2, 1)],
        ..disconnected
    };
    let zero_session = client.create_session(&zero_edge).unwrap();
    match client.min_cut(&zero_session, 1) {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (400, "BAD_QUERY"));
        }
        other => panic!("expected BAD_QUERY, got {other:?}"),
    }
    assert_eq!(client.mst(&zero_session).unwrap().value.total_weight, 1);

    // Malformed request bodies -> BAD_REQUEST/400.
    match client.query(
        &session,
        &obj([("query", JsonValue::Str("frobnicate".into()))]),
    ) {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (400, "BAD_REQUEST"));
        }
        other => panic!("expected BAD_REQUEST, got {other:?}"),
    }

    // Unknown sessions and unknown routes -> NOT_FOUND/404.
    match client.mst("00000000deadbeef") {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (404, "NOT_FOUND"));
        }
        other => panic!("expected NOT_FOUND, got {other:?}"),
    }
    match client.request("GET", "/v1/nope", None) {
        Err(ServeError::Server { status, code, .. }) => {
            assert_eq!((status, code.as_str()), (404, "NOT_FOUND"));
        }
        other => panic!("expected NOT_FOUND, got {other:?}"),
    }

    // Tracing disabled -> NOT_FOUND with a pointed message.
    match client.trace_jsonl(&session) {
        Err(ServeError::Server { code, message, .. }) => {
            assert_eq!(code, "NOT_FOUND");
            assert!(message.contains("tracing"));
        }
        other => panic!("expected NOT_FOUND, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn a_node_count_past_the_id_range_is_a_bad_request() {
    // 2^40 nodes would have the CSR constructor allocate 4 TiB of row
    // offsets, which aborts the process; the constructor refuses it first.
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let body = JsonValue::parse(r#"{"graph":{"n":1099511627776,"edges":[]}}"#).unwrap();
    let (status, text) = client
        .request_raw("POST", "/v1/sessions", Some(&body))
        .unwrap();
    assert_eq!(status, 400, "{text}");
    assert_eq!(
        JsonValue::parse(&text)
            .unwrap()
            .get("code")
            .and_then(JsonValue::as_str),
        Some("BAD_REQUEST")
    );
    let mut fresh = Client::connect(server.addr()).unwrap();
    assert!(fresh.health().is_ok(), "the daemon stopped answering");
    server.shutdown();
}

#[test]
fn a_zero_bandwidth_or_round_limit_is_a_bad_request() {
    // Either zero would build a session whose every simulated query fails:
    // no round runs under `max_rounds` 0, and no message fits 0 bits.
    let wg = grid(3, 3, 2);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let zero_bandwidth = CreateSession {
        bandwidth: Some(0),
        ..CreateSession::from_weighted(&wg)
    };
    let zero_rounds = CreateSession {
        max_rounds: Some(0),
        ..CreateSession::from_weighted(&wg)
    };
    for (upload, field) in [(zero_bandwidth, "bandwidth"), (zero_rounds, "max_rounds")] {
        match client.create_session(&upload) {
            Err(ServeError::Server {
                status,
                code,
                message,
            }) => {
                assert_eq!((status, code.as_str()), (400, "BAD_REQUEST"));
                assert_eq!(message, format!("{field} must be a positive integer"));
            }
            other => panic!("{field} 0: expected BAD_REQUEST, got {other:?}"),
        }
    }
    assert_eq!(server.sessions(), 0);
    // The smallest positive values still build a session.
    let ones = CreateSession {
        bandwidth: Some(1),
        max_rounds: Some(1),
        ..CreateSession::from_weighted(&wg)
    };
    client.create_session(&ones).unwrap();
    assert_eq!(server.sessions(), 1);
    server.shutdown();
}

#[test]
fn oversized_min_cut_trees_is_a_bad_query() {
    // The packing would allocate one spanning tree per requested tree, so
    // a count above n is refused up front; the session, the connection
    // slot and the daemon all keep serving.
    let wg = grid(4, 4, 5);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let session = client
        .create_session(&CreateSession::from_weighted(&wg))
        .unwrap();
    for trees in [17u64, 1 << 40, u64::MAX] {
        let query = obj([
            ("query", JsonValue::Str("min_cut".into())),
            ("trees", JsonValue::UInt(trees)),
        ]);
        match client.query(&session, &query) {
            Err(ServeError::Server { status, code, .. }) => {
                assert_eq!((status, code.as_str()), (400, "BAD_QUERY"), "trees={trees}");
            }
            other => panic!("trees={trees}: expected BAD_QUERY, got {other:?}"),
        }
    }
    assert!(client.health().is_ok());
    let cut = client.min_cut(&session, 16).unwrap();
    assert_eq!(cut.value.trees, 16);
    server.shutdown();
}

#[test]
fn a_threads_field_in_an_upload_is_ignored() {
    // Older clients send `threads`; the daemon ignores it like any unknown
    // field, so the session id and the served bodies do not depend on it.
    let wg = grid(3, 3, 4);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let plain = CreateSession::from_weighted(&wg).to_body();
    let session = client
        .create_session(&CreateSession::from_weighted(&wg))
        .unwrap();
    for threads in [JsonValue::UInt(4), JsonValue::Str("many".into())] {
        let JsonValue::Object(mut fields) = plain.clone() else {
            unreachable!("an upload body is an object");
        };
        fields.push(("threads".to_string(), threads));
        let created = client
            .request("POST", "/v1/sessions", Some(&JsonValue::Object(fields)))
            .unwrap();
        assert_eq!(
            created.get("session").and_then(JsonValue::as_str),
            Some(session.as_str())
        );
        assert_eq!(
            created.get("created").and_then(JsonValue::as_bool),
            Some(false)
        );
    }
    assert_eq!(server.sessions(), 1);
    server.shutdown();
}

#[test]
fn apply_and_trace_work_end_to_end() {
    let wg = grid(4, 4, 11);
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut req = CreateSession::from_weighted(&wg);
    req.trace = true;
    let session = client.create_session(&req).unwrap();

    let before = client.mst(&session).unwrap();
    let mutations = [
        EdgeMutation::Insert {
            u: 0,
            v: 2,
            weight: 1,
        },
        EdgeMutation::Delete { u: 0, v: 1 },
    ];
    let stats = client.apply(&session, &mutations).unwrap();
    assert_eq!(stats.inserted, 1);
    assert_eq!(stats.deleted, 1);
    let after = client.mst(&session).unwrap();

    // The in-process reference agrees byte-for-byte across the mutation.
    let mut solver = Solver::from_arc(Arc::clone(&wg))
        .parts(PartsStrategy::Singletons)
        .shortcut_builder(AutoCappedBuilder)
        .config(CongestConfig::for_nodes(wg.graph().n()))
        .trace(true)
        .build()
        .unwrap();
    assert_eq!(
        before.to_wire().to_string(),
        solver.mst().unwrap().to_wire().to_string()
    );
    assert_eq!(
        stats.to_wire().to_string(),
        solver.apply(&mutations).unwrap().to_wire().to_string()
    );
    assert_eq!(
        after.to_wire().to_string(),
        solver.mst().unwrap().to_wire().to_string()
    );

    let jsonl = client.trace_jsonl(&session).unwrap();
    assert!(!jsonl.is_empty());
    assert!(jsonl.lines().next().unwrap().contains("\"queries\""));
    server.shutdown();
}

#[test]
fn lru_evicts_the_coldest_session_over_http() {
    let server = start(ServerConfig {
        fleet_capacity: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Client::connect(server.addr()).unwrap();
    let sessions: Vec<String> = (0..2)
        .map(|seed| {
            client
                .create_session(&CreateSession::from_weighted(&grid(3, 3, seed)))
                .unwrap()
        })
        .collect();
    // Keep session 0 warm so session 1 is the LRU victim.
    client.mst(&sessions[0]).unwrap();
    let third = client
        .request(
            "POST",
            "/v1/sessions",
            Some(&CreateSession::from_weighted(&grid(3, 3, 99)).to_body()),
        )
        .unwrap();
    let evicted = third.get("evicted").and_then(JsonValue::as_array).unwrap();
    assert_eq!(evicted.len(), 1);
    assert_eq!(evicted[0].as_str(), Some(sessions[1].as_str()));
    assert_eq!(server.sessions(), 2);
    match client.mst(&sessions[1]) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, "NOT_FOUND"),
        other => panic!("expected NOT_FOUND for the evicted session, got {other:?}"),
    }
    // Re-uploading the evicted graph rebuilds it under the same id.
    let again = client
        .create_session(&CreateSession::from_weighted(&grid(3, 3, 1)))
        .unwrap();
    assert_eq!(again, sessions[1]);
    server.shutdown();
}
