//! Differential property battery: the CSR [`Graph`] against the nested-Vec
//! [`AdjListGraph`] reference on random edge lists.
//!
//! The reference implementation (`minex_graphs::reference`) is the seed's
//! adjacency-list representation, kept in-tree as an executable
//! specification. Every accessor the rest of the workspace consumes —
//! `n`/`m`/`degree`/`neighbors`/`edge_between`/`has_edge`/`endpoints`/
//! `induced_subgraph` — must agree between the two on arbitrary inputs,
//! including duplicate-heavy and out-of-order edge lists, and the streaming
//! constructor must agree with the buffered builder in every input order
//! and report the same errors.

use std::collections::BTreeMap;

use proptest::prelude::*;

use minex_graphs::reference::AdjListGraph;
use minex_graphs::{Graph, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random edge list over `n` nodes: `raw` pairs drawn uniformly, so it
/// contains duplicates (both orders) and self-loop candidates get skipped
/// at generation. Roughly `dup_factor` of the pairs repeat earlier ones.
fn random_edges(n: usize, raw: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(raw);
    if n < 2 {
        // A simple graph on < 2 nodes has no edges.
        return edges;
    }
    while edges.len() < raw {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v {
            continue;
        }
        edges.push((u, v));
        // Occasionally re-push an earlier edge, sometimes flipped, so dedup
        // and canonicalization are always exercised.
        if !edges.is_empty() && rng.random_bool(0.3) {
            let i = rng.random_range(0..edges.len());
            let (a, b) = edges[i];
            edges.push(if rng.random_bool(0.5) { (a, b) } else { (b, a) });
        }
    }
    edges
}

/// The canonical, sorted, duplicate-free form of `edges`.
fn unique_canonical(edges: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    let mut unique: Vec<(NodeId, NodeId)> =
        edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    unique.sort_unstable();
    unique.dedup();
    unique
}

/// `edges` in a random order, each pair flipped with probability ½.
fn shuffled_and_flipped(edges: &[(NodeId, NodeId)], rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    let mut out = edges.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..=i);
        out.swap(i, j);
    }
    for e in &mut out {
        if rng.random_bool(0.5) {
            *e = (e.1, e.0);
        }
    }
    out
}

/// Unique edges in a random order and orientation, with `dups` extra copies
/// of random members (each flipped or not) planted at random positions.
fn with_planted_duplicates(n: usize, raw: usize, seed: u64, dups: usize) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD0B1E);
    let mut edges = shuffled_and_flipped(&unique_canonical(&random_edges(n, raw, seed)), &mut rng);
    for _ in 0..dups {
        let (u, v) = edges[rng.random_range(0..edges.len())];
        let copy = if rng.random_bool(0.5) { (v, u) } else { (u, v) };
        let at = rng.random_range(0..=edges.len());
        edges.insert(at, copy);
    }
    edges
}

/// Builds both representations from the same list; they accept/reject in
/// lockstep by construction (inputs here are always valid).
fn build_both(n: usize, edges: &[(NodeId, NodeId)]) -> (Graph, AdjListGraph) {
    let g = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
    let r = AdjListGraph::from_edges(n, edges.iter().copied()).expect("valid edges");
    (g, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counts_and_degrees_agree(n in 1usize..80, raw in 0usize..300, seed in 0u64..10_000) {
        let edges = random_edges(n, raw, seed);
        let (g, r) = build_both(n, &edges);
        prop_assert_eq!(g.n(), r.n());
        prop_assert_eq!(g.m(), r.m());
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
        for v in 0..n {
            prop_assert_eq!(g.degree(v), r.degree(v), "degree({v})");
        }
    }

    #[test]
    fn neighbors_agree_sorted(n in 1usize..60, raw in 0usize..250, seed in 0u64..10_000) {
        let edges = random_edges(n, raw, seed);
        let (g, r) = build_both(n, &edges);
        for v in 0..n {
            let csr: Vec<(NodeId, usize)> = g.neighbors(v).collect();
            let reference: Vec<(NodeId, usize)> = r.neighbors(v).collect();
            prop_assert_eq!(&csr, &reference, "neighbors({v})");
            // The slice accessors are the same row again.
            let slices: Vec<NodeId> =
                g.neighbor_targets(v).iter().map(|&w| w as NodeId).collect();
            let iter_targets: Vec<NodeId> = csr.iter().map(|&(w, _)| w).collect();
            prop_assert_eq!(slices, iter_targets);
            prop_assert_eq!(g.neighbor_edge_ids(v).len(), g.degree(v));
        }
    }

    #[test]
    fn edge_queries_agree(n in 2usize..50, raw in 0usize..200, seed in 0u64..10_000) {
        let edges = random_edges(n, raw, seed);
        let (g, r) = build_both(n, &edges);
        // Exhaustive pair check, including out-of-range probes.
        for u in 0..n + 2 {
            for v in 0..n + 2 {
                prop_assert_eq!(g.edge_between(u, v), r.edge_between(u, v), "({u},{v})");
                prop_assert_eq!(g.has_edge(u, v), r.has_edge(u, v));
            }
        }
        for e in 0..g.m() {
            prop_assert_eq!(g.endpoints(e), r.endpoints(e), "endpoints({e})");
            let (u, v) = g.endpoints(e);
            prop_assert_eq!(g.other_endpoint(e, u), v);
            prop_assert_eq!(g.other_endpoint(e, v), u);
        }
    }

    #[test]
    fn induced_subgraphs_agree(n in 1usize..50, raw in 0usize..200, seed in 0u64..10_000) {
        let edges = random_edges(n, raw, seed);
        let (g, r) = build_both(n, &edges);
        // Keep a random subset, with duplicates in the keep list.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut keep: Vec<NodeId> = (0..n).filter(|_| rng.random_bool(0.6)).collect();
        if !keep.is_empty() && rng.random_bool(0.5) {
            let i = rng.random_range(0..keep.len());
            keep.push(keep[i]);
        }
        let (gs, gmap) = g.induced_subgraph(&keep);
        let (rs, rmap) = r.induced_subgraph(&keep);
        prop_assert_eq!(&gmap, &rmap);
        prop_assert_eq!(gs.n(), rs.n());
        prop_assert_eq!(gs.m(), rs.m());
        for v in 0..gs.n() {
            let a: Vec<(NodeId, usize)> = gs.neighbors(v).collect();
            let b: Vec<(NodeId, usize)> = rs.neighbors(v).collect();
            prop_assert_eq!(a, b, "sub-neighbors({v})");
        }
        for e in 0..gs.m() {
            prop_assert_eq!(gs.endpoints(e), rs.endpoints(e));
        }
    }

    #[test]
    fn from_edges_of_edges_is_identity(n in 1usize..60, raw in 0usize..250, seed in 0u64..10_000) {
        let edges = random_edges(n, raw, seed);
        let g = Graph::from_edges(n, edges).expect("valid edges");
        // Round-trip: rebuilding from the canonical edge iterator reproduces
        // the graph exactly (ids, rows, everything — `Graph: Eq`).
        let round = Graph::from_edges(g.n(), g.edges().map(|(_, u, v)| (u, v)))
            .expect("canonical edges are valid");
        prop_assert_eq!(&g, &round);
        // And the canonical edge list is sorted and duplicate-free.
        let listed: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        let mut sorted = listed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(listed, sorted);
    }

    #[test]
    fn streaming_constructors_agree_with_builder(
        n in 1usize..60,
        raw in 0usize..250,
        seed in 0u64..10_000,
    ) {
        let edges = random_edges(n, raw, seed);
        let buffered = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
        // The stream rejects duplicates, so it gets the unique edges: sorted
        // (the generators' and snapshots' order), reversed, and shuffled
        // with random endpoint flips.
        let sorted = unique_canonical(&edges);
        let reversed: Vec<(NodeId, NodeId)> = sorted.iter().rev().copied().collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let shuffled = shuffled_and_flipped(&sorted, &mut rng);
        for order in [&sorted, &reversed, &shuffled] {
            let streamed = Graph::from_edge_stream(n, || order.iter().copied())
                .expect("unique edges in any order");
            prop_assert_eq!(&buffered, &streamed);
        }
    }

    #[test]
    fn stream_reports_the_smallest_duplicate(
        n in 2usize..60,
        raw in 1usize..200,
        seed in 0u64..10_000,
        dups in 1usize..=3,
    ) {
        let edges = with_planted_duplicates(n, raw, seed, dups);
        // Reference: an ordered count of the canonical pairs.
        let mut count: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
        for &(u, v) in &edges {
            *count.entry((u.min(v), u.max(v))).or_default() += 1;
        }
        let (&(u, v), _) = count.iter().find(|&(_, &c)| c > 1).expect("a planted duplicate");
        let err = Graph::from_edge_stream(n, || edges.iter().copied()).unwrap_err();
        prop_assert_eq!(err, GraphError::DuplicateEdge { u, v });
    }

    #[test]
    fn stream_reports_an_invalid_edge_before_duplicates(
        n in 2usize..40,
        raw in 1usize..80,
        seed in 0u64..10_000,
        dups in 0usize..=3,
    ) {
        // Whatever the duplicates, the first invalid edge in stream order
        // wins, exactly as in the buffered builder.
        let mut edges = with_planted_duplicates(n, raw, seed, dups);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        for _ in 0..rng.random_range(1..=2) {
            let bad = if rng.random_bool(0.5) {
                let v = rng.random_range(0..n);
                (v, v)
            } else {
                (rng.random_range(0..n), n + rng.random_range(0..5))
            };
            let at = rng.random_range(0..=edges.len());
            edges.insert(at, bad);
        }
        let streamed = Graph::from_edge_stream(n, || edges.iter().copied()).unwrap_err();
        let buffered = Graph::from_edges(n, edges.iter().copied()).unwrap_err();
        prop_assert_eq!(streamed, buffered);
    }

    #[test]
    fn constructors_reject_in_lockstep(n in 1usize..30, raw in 1usize..60, seed in 0u64..10_000) {
        // Corrupt a valid list with either a self-loop or an out-of-range
        // endpoint; both representations must return the identical error.
        let mut edges = random_edges(n, raw, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD);
        let at = rng.random_range(0..=edges.len());
        let bad = if rng.random_bool(0.5) {
            let v = rng.random_range(0..n);
            (v, v)
        } else {
            (rng.random_range(0..n), n + rng.random_range(0..5))
        };
        edges.insert(at.min(edges.len()), bad);
        let g = Graph::from_edges(n, edges.iter().copied());
        let r = AdjListGraph::from_edges(n, edges.iter().copied());
        prop_assert!(g.is_err());
        prop_assert_eq!(g.unwrap_err(), r.unwrap_err());
    }
}

/// Duplicate detection in the unsorted streaming path reports the canonical
/// pair no matter which orders the two copies used.
#[test]
fn stream_duplicate_detection_is_order_insensitive() {
    for dup in [
        [(3usize, 1usize), (1, 3)],
        [(1, 3), (3, 1)],
        [(3, 1), (3, 1)],
    ] {
        let mut edges = vec![(0, 1), (2, 3)];
        edges.extend(dup);
        let err = Graph::from_edge_stream(4, || edges.iter().copied()).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 1, v: 3 }, "{dup:?}");
    }
}
