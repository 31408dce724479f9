//! Property battery for [`traversal::dijkstra`]: on random graphs across
//! three weight regimes it must match a naive Bellman–Ford relaxation:
//!
//! * small positive weights, with dense distance ties so the id-order
//!   tie-break is exercised hard, and parent pointers that realize every
//!   distance;
//! * zero-weight edges, whose relaxations cost nothing;
//! * overflow-adjacent weights near `u64::MAX`, plus the sentinel contract
//!   (saturated real paths clamp to `DIST_MAX` and never collide with
//!   `UNREACHED`).

use proptest::prelude::*;

use minex_graphs::dist::{dist_add, DIST_MAX, UNREACHED};
use minex_graphs::{traversal, Graph, NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random simple graph on `n` nodes from `raw` uniform pairs (self-loops
/// skipped, duplicates deduplicated by the constructor).
fn random_graph(n: usize, raw: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(raw);
    if n >= 2 {
        for _ in 0..raw {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("valid edges")
}

/// Naive O(n·m) Bellman–Ford on the sentinel arithmetic: the
/// implementation-free distance oracle Dijkstra must match.
fn naive_sssp(wg: &WeightedGraph, src: NodeId) -> Vec<u64> {
    let g = wg.graph();
    let mut dist = vec![UNREACHED; g.n()];
    dist[src] = 0;
    for _ in 0..g.n() {
        let mut changed = false;
        for (e, u, v) in g.edges() {
            for (a, b) in [(u, v), (v, u)] {
                let cand = dist_add(dist[a], wg.weight(e));
                if cand < dist[b] {
                    dist[b] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Parent pointers must realize the reported distances edge by edge.
fn assert_tree_consistent(wg: &WeightedGraph, src: NodeId, r: &traversal::DijkstraResult) {
    for v in 0..wg.graph().n() {
        match r.parent[v] {
            Some(p) => {
                let e = wg.graph().edge_between(p, v).expect("tree edge exists");
                assert_eq!(dist_add(r.dist[p], wg.weight(e)), r.dist[v], "node {v}");
            }
            None => assert!(v == src || r.dist[v] == UNREACHED || r.dist[v] == 0),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn small_weights_agree_with_naive(
        n in 2usize..60,
        raw in 1usize..220,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, raw, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x17);
        // Weights in 1..=16: dense ties.
        let weights: Vec<u64> = (0..g.m()).map(|_| rng.random_range(1..=16)).collect();
        let wg = WeightedGraph::new(g, weights);
        let src = rng.random_range(0..n);
        let d = traversal::dijkstra(&wg, src);
        prop_assert_eq!(&d.dist, &naive_sssp(&wg, src));
        assert_tree_consistent(&wg, src, &d);
    }

    #[test]
    fn zero_weight_edges_agree_with_naive(
        n in 2usize..50,
        raw in 1usize..180,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, raw, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2A);
        // ~25% zero weights: 0-cost relaxations.
        let weights: Vec<u64> = (0..g.m())
            .map(|_| if rng.random_bool(0.25) { 0 } else { rng.random_range(1..=8) })
            .collect();
        let wg = WeightedGraph::new(g, weights);
        let src = rng.random_range(0..n);
        let d = traversal::dijkstra(&wg, src);
        prop_assert_eq!(&d.dist, &naive_sssp(&wg, src));
    }

    #[test]
    fn overflow_adjacent_weights_respect_sentinel(
        n in 2usize..40,
        raw in 1usize..120,
        seed in 0u64..10_000,
    ) {
        let g = random_graph(n, raw, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3C);
        // Mix huge and small weights so multi-hop paths saturate.
        let weights: Vec<u64> = (0..g.m())
            .map(|_| {
                if rng.random_bool(0.5) {
                    u64::MAX - rng.random_range(0..4)
                } else {
                    rng.random_range(1..=4)
                }
            })
            .collect();
        let wg = WeightedGraph::new(g, weights);
        let src = rng.random_range(0..n);
        let d = traversal::dijkstra(&wg, src);
        prop_assert_eq!(&d.dist, &naive_sssp(&wg, src));
        // Sentinel contract: every node BFS can reach has a finite (≤
        // DIST_MAX) distance — saturation never manufactures "unreached".
        let bfs = traversal::bfs(wg.graph(), src);
        for v in 0..n {
            prop_assert_eq!(bfs.reached(v), d.reached(v), "node {}", v);
            if d.reached(v) {
                prop_assert!(d.dist[v] <= DIST_MAX);
            }
        }
    }
}
