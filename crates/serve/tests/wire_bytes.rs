//! Byte pins for wire schema v2: one fixed value of every wire type,
//! encoded and compared with the bytes recorded when the schema's codec
//! was last changed, plus the error envelopes a live daemon writes.
//!
//! perfbench's served-vs-twin check runs the same encoder on both sides,
//! so it cannot see an encoder change; these pins can. A failure here
//! means the bytes clients read have changed: that is a schema change,
//! not a refactor.

use minex_algo::solver::{
    Components, MinCut, Mst, PartsStrategy, PartwiseMin, PhaseRun, Query, RepairStats, Report,
    ReportStats, SessionCounters, Sssp, SsspDetail, Tier,
};
use minex_algo::wire::{JsonValue, ToWire};
use minex_congest::{PhaseLabel, RunStats};
use minex_core::{Partition, PlanRepairStats};
use minex_graphs::{generators, EdgeMutation};
use minex_serve::{start, Client, ServerConfig};

const UNREACHED: u64 = u64::MAX;

fn stats() -> ReportStats {
    ReportStats {
        simulated_rounds: 17,
        charged_construction_rounds: 30,
        runs: vec![
            PhaseRun {
                tags: PhaseLabel {
                    phase: "mst".into(),
                    subphase: "candidate".into(),
                    attempt: Some(2),
                },
                stats: RunStats {
                    rounds: 5,
                    messages: 99,
                    max_message_bits: 64,
                    total_bits: 6336,
                },
                repeats: 3,
            },
            PhaseRun {
                tags: PhaseLabel {
                    phase: "esc \"q\" \\b\n\t\u{1} é".into(),
                    subphase: "flood".into(),
                    attempt: None,
                },
                stats: RunStats {
                    rounds: 12,
                    messages: u64::MAX,
                    max_message_bits: 1,
                    total_bits: 0,
                },
                repeats: 1,
            },
        ],
    }
}

/// A report with empty stats: the MST report carries the full stats.
fn report<T>(value: T) -> Report<T> {
    Report {
        value,
        stats: ReportStats::default(),
    }
}

fn shortcut_tier() -> Tier {
    Tier::Shortcut {
        epsilon: 0.25,
        max_phases: 40,
    }
}

/// Every wire type, one fixed value each, in its encoded form.
fn encodings() -> Vec<(&'static str, String)> {
    let g = generators::path(4);
    let explicit = Partition::new(&g, vec![vec![0, 1], vec![2, 3]]).expect("a valid partition");
    vec![
        (
            "mst",
            Report {
                value: Mst {
                    edges: vec![0, 5, 2],
                    total_weight: 1 << 60,
                    boruvka_phases: 3,
                },
                stats: stats(),
            }
            .to_wire_string(),
        ),
        (
            "min_cut",
            report(MinCut {
                approx_value: 6,
                exact_value: 4,
                ratio: 1.5,
                trees: 2,
            })
            .to_wire_string(),
        ),
        (
            "sssp_exact",
            report(Sssp {
                dist: vec![0, 1, UNREACHED, UNREACHED],
                detail: SsspDetail::Exact {
                    parent: vec![None, Some(0), None, None],
                },
            })
            .to_wire_string(),
        ),
        (
            "sssp_scaled",
            report(Sssp {
                dist: vec![UNREACHED, 0, 8],
                detail: SsspDetail::Scaled {
                    scale: 8,
                    hop_budget: 12,
                },
            })
            .to_wire_string(),
        ),
        (
            "sssp_shortcut",
            report(Sssp {
                dist: vec![0, u64::MAX - 1],
                detail: SsspDetail::Shortcut {
                    scale: 4,
                    phases: 3,
                    converged: false,
                    shortcut_quality: 11,
                },
            })
            .to_wire_string(),
        ),
        (
            "components",
            report(Components {
                label: vec![0, 0, 2, 2],
                forest_edges: vec![1, 4],
                boruvka_phases: 1,
            })
            .to_wire_string(),
        ),
        (
            "partwise_min",
            report(PartwiseMin {
                minima: vec![3, UNREACHED, 0],
            })
            .to_wire_string(),
        ),
        ("query_mst", Query::Mst.to_wire_string()),
        (
            "query_min_cut",
            Query::MinCut {
                trees: 3,
                two_respecting: false,
            }
            .to_wire_string(),
        ),
        (
            "query_sssp_exact",
            Query::Sssp {
                source: 0,
                tier: Tier::Exact,
            }
            .to_wire_string(),
        ),
        (
            "query_sssp_scaled",
            Query::Sssp {
                source: 7,
                tier: Tier::Scaled { epsilon: 0.5 },
            }
            .to_wire_string(),
        ),
        (
            "query_sssp_shortcut",
            Query::Sssp {
                source: 4,
                tier: shortcut_tier(),
            }
            .to_wire_string(),
        ),
        ("query_components", Query::Components.to_wire_string()),
        (
            "query_partwise_min",
            Query::PartwiseMin {
                values: vec![5, UNREACHED, 0],
                value_bits: 16,
            }
            .to_wire_string(),
        ),
        ("tier_exact", Tier::Exact.to_wire_string()),
        (
            "tier_scaled",
            Tier::Scaled { epsilon: 1e-7 }.to_wire_string(),
        ),
        ("tier_shortcut", shortcut_tier().to_wire_string()),
        (
            "parts_singletons",
            PartsStrategy::Singletons.to_wire_string(),
        ),
        ("parts_whole", PartsStrategy::Whole.to_wire_string()),
        (
            "parts_voronoi",
            PartsStrategy::Voronoi {
                parts: 8,
                seed: u64::MAX,
            }
            .to_wire_string(),
        ),
        (
            "parts_explicit",
            PartsStrategy::Explicit(explicit).to_wire_string(),
        ),
        (
            "mutation_insert",
            EdgeMutation::Insert {
                u: 3,
                v: 9,
                weight: u64::MAX,
            }
            .to_wire_string(),
        ),
        (
            "mutation_delete",
            EdgeMutation::Delete { u: 0, v: 1 }.to_wire_string(),
        ),
        (
            "repair_stats",
            RepairStats {
                inserted: 2,
                deleted: 1,
                noop: false,
                connected: true,
                partition_changed: true,
                plan_repaired: false,
                plan: PlanRepairStats {
                    partition_changed: true,
                    full_rebuild: true,
                    parts_total: 8,
                    parts_rebuilt: 8,
                    parts_reused: 0,
                    tree_changed_nodes: 5,
                },
                memos_dropped: 4,
            }
            .to_wire_string(),
        ),
        (
            "session_counters",
            SessionCounters {
                queries: 9,
                memo_hits: 2,
                memo_misses: 7,
                plans_built: 1,
                plan_repairs: 3,
                parts_rebuilt: 4,
                parts_reused: 5,
                memos_dropped: 6,
            }
            .to_wire_string(),
        ),
    ]
}

const EXPECTED: &[(&str, &str)] = &[
    (
        "mst",
        r#"{"value":{"edges":[0,5,2],"total_weight":1152921504606846976,"boruvka_phases":3},"stats":{"simulated_rounds":17,"charged_construction_rounds":30,"runs":[{"tags":{"phase":"mst","subphase":"candidate","attempt":2},"stats":{"rounds":5,"messages":99,"max_message_bits":64,"total_bits":6336},"repeats":3},{"tags":{"phase":"esc \"q\" \\b\n\t\u0001 é","subphase":"flood","attempt":null},"stats":{"rounds":12,"messages":18446744073709551615,"max_message_bits":1,"total_bits":0},"repeats":1}]}}"#,
    ),
    (
        "min_cut",
        r#"{"value":{"approx_value":6,"exact_value":4,"ratio":1.5,"trees":2},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    (
        "sssp_exact",
        r#"{"value":{"dist":[0,1,null,null],"detail":{"tier":"exact","parent":[null,0,null,null]}},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    (
        "sssp_scaled",
        r#"{"value":{"dist":[null,0,8],"detail":{"tier":"scaled","scale":8,"hop_budget":12}},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    (
        "sssp_shortcut",
        r#"{"value":{"dist":[0,18446744073709551614],"detail":{"tier":"shortcut","scale":4,"phases":3,"converged":false,"shortcut_quality":11}},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    (
        "components",
        r#"{"value":{"label":[0,0,2,2],"forest_edges":[1,4],"boruvka_phases":1},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    (
        "partwise_min",
        r#"{"value":{"minima":[3,null,0]},"stats":{"simulated_rounds":0,"charged_construction_rounds":0,"runs":[]}}"#,
    ),
    ("query_mst", r#"{"query":"mst"}"#),
    (
        "query_min_cut",
        r#"{"query":"min_cut","trees":3,"two_respecting":false}"#,
    ),
    (
        "query_sssp_exact",
        r#"{"query":"sssp","source":0,"tier":{"tier":"exact"}}"#,
    ),
    (
        "query_sssp_scaled",
        r#"{"query":"sssp","source":7,"tier":{"tier":"scaled","epsilon":0.5}}"#,
    ),
    (
        "query_sssp_shortcut",
        r#"{"query":"sssp","source":4,"tier":{"tier":"shortcut","epsilon":0.25,"max_phases":40}}"#,
    ),
    ("query_components", r#"{"query":"components"}"#),
    (
        "query_partwise_min",
        r#"{"query":"partwise_min","values":[5,null,0],"value_bits":16}"#,
    ),
    ("tier_exact", r#"{"tier":"exact"}"#),
    ("tier_scaled", r#"{"tier":"scaled","epsilon":1e-7}"#),
    (
        "tier_shortcut",
        r#"{"tier":"shortcut","epsilon":0.25,"max_phases":40}"#,
    ),
    ("parts_singletons", r#"{"strategy":"singletons"}"#),
    ("parts_whole", r#"{"strategy":"whole"}"#),
    (
        "parts_voronoi",
        r#"{"strategy":"voronoi","parts":8,"seed":18446744073709551615}"#,
    ),
    (
        "parts_explicit",
        r#"{"strategy":"explicit","parts":[[0,1],[2,3]]}"#,
    ),
    (
        "mutation_insert",
        r#"{"op":"insert","u":3,"v":9,"weight":18446744073709551615}"#,
    ),
    ("mutation_delete", r#"{"op":"delete","u":0,"v":1}"#),
    (
        "repair_stats",
        r#"{"inserted":2,"deleted":1,"noop":false,"connected":true,"partition_changed":true,"plan_repaired":false,"plan":{"partition_changed":true,"full_rebuild":true,"parts_total":8,"parts_rebuilt":8,"parts_reused":0,"tree_changed_nodes":5},"memos_dropped":4}"#,
    ),
    (
        "session_counters",
        r#"{"queries":9,"memo_hits":2,"memo_misses":7,"plans_built":1,"plan_repairs":3,"parts_rebuilt":4,"parts_reused":5,"memos_dropped":6}"#,
    ),
];

#[test]
fn every_wire_type_encodes_to_its_pinned_bytes() {
    let got = encodings();
    let names: Vec<&str> = got.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = EXPECTED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "the pinned value list changed");
    for ((name, bytes), (_, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(bytes, want, "{name} encodes to different bytes");
    }
}

/// The error envelopes a daemon writes: a solver error, a malformed query
/// (its message quotes the query name, so it is escaped), a missing
/// session, and a batch whose entries are all errors.
#[test]
fn served_error_bodies_keep_their_bytes() {
    let server = start(ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let split = r#"{"graph":{"n":4,"edges":[[0,1,1],[2,3,1]]}}"#;
    let created = client
        .request(
            "POST",
            "/v1/sessions",
            Some(&JsonValue::parse(split).unwrap()),
        )
        .expect("create");
    let session = created.get("session").and_then(JsonValue::as_str).unwrap();
    let mut raw = |method: &str, path: String, body: &str| {
        let body = JsonValue::parse(body).unwrap();
        client.request_raw(method, &path, Some(&body)).unwrap()
    };
    let query = format!("/v1/sessions/{session}/query");
    let got = [
        raw("POST", query.clone(), r#"{"query":"mst"}"#),
        raw("POST", query, r#"{"query":"frobnicate"}"#),
        raw(
            "POST",
            "/v1/sessions/0123456789abcdef/query".into(),
            r#"{"query":"mst"}"#,
        ),
        raw(
            "POST",
            format!("/v1/sessions/{session}/batch"),
            r#"{"queries":[{"query":"frobnicate"},{"query":"mst"}]}"#,
        ),
    ];
    let want = [
        (
            422,
            r#"{"code":"DISCONNECTED","message":"graph must be connected"}"#,
        ),
        (
            400,
            r#"{"code":"BAD_REQUEST","message":"unknown query \"frobnicate\""}"#,
        ),
        (404, r#"{"code":"NOT_FOUND","message":"no such session"}"#),
        (
            200,
            r#"{"results":[{"error":{"code":"BAD_REQUEST","message":"unknown query \"frobnicate\""}},{"error":{"code":"DISCONNECTED","message":"graph must be connected"}}]}"#,
        ),
    ];
    assert_eq!(
        got.iter()
            .map(|(status, body)| (*status, body.as_str()))
            .collect::<Vec<_>>(),
        want
    );
    server.shutdown();
}
