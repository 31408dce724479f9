//! Part-family workload generators for the experiments, including the
//! weighted path-heavy workloads of the SSSP experiments (E11/E12).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

use minex_core::Partition;
use minex_graphs::{traversal, EdgeMutation, Graph, NodeId, UnionFind, WeightModel, WeightedGraph};

/// Voronoi parts: multi-source BFS from `k` random seeds; every node joins
/// the seed that reaches it first (the concurrent-BFS partition of
/// Section 2.3.3). Covers all nodes; parts are connected by construction.
pub fn voronoi_parts<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Partition {
    assert!(k >= 1, "need at least one seed");
    assert!(g.n() > 0, "graph must be non-empty");
    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    for _ in 0..k {
        seeds.push(rng.random_range(0..g.n()));
    }
    seeds.sort_unstable();
    seeds.dedup();
    let bfs = traversal::multi_source_bfs(g, &seeds);
    let labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
    Partition::from_labels(g, &labels).expect("BFS cells are connected")
}

/// Splits a random spanning tree into `k` connected pieces by deleting
/// `k - 1` random tree edges. Covers all nodes.
pub fn forest_split_parts<R: Rng + ?Sized>(g: &Graph, k: usize, rng: &mut R) -> Partition {
    assert!(k >= 1 && k <= g.n(), "1 ≤ k ≤ n required");
    let bfs = traversal::bfs(g, rng.random_range(0..g.n()));
    assert_eq!(bfs.order.len(), g.n(), "graph must be connected");
    let mut tree_nodes: Vec<NodeId> = (0..g.n()).filter(|&v| bfs.parent[v].is_some()).collect();
    tree_nodes.shuffle(rng);
    let removed: std::collections::HashSet<NodeId> = tree_nodes.into_iter().take(k - 1).collect();
    let mut uf = UnionFind::new(g.n());
    for v in 0..g.n() {
        if let Some(p) = bfs.parent[v] {
            if !removed.contains(&v) {
                uf.union(v, p);
            }
        }
    }
    let (labels, _) = uf.labels();
    let options: Vec<Option<usize>> = labels.into_iter().map(Some).collect();
    Partition::from_labels(g, &options).expect("tree pieces are connected")
}

/// Contiguous rim segments of a wheel graph (hub excluded) — the paper's
/// adversarial example where parts are long and skinny.
pub fn wheel_rim_parts(n: usize, segment: usize) -> (Graph, Partition) {
    assert!(segment >= 1, "segment length must be positive");
    let g = minex_graphs::generators::wheel(n);
    let rim = n - 1;
    let mut parts = Vec::new();
    let mut start = 0;
    while start < rim {
        let end = (start + segment).min(rim);
        parts.push((start..end).collect::<Vec<_>>());
        start = end;
    }
    let p = Partition::new(&g, parts).expect("rim segments are connected");
    (g, p)
}

/// Row parts of a `rows × cols` grid (each row is one part).
pub fn grid_row_parts(rows: usize, cols: usize) -> (Graph, Partition) {
    let g = minex_graphs::generators::grid(rows, cols);
    let parts: Vec<Vec<NodeId>> = (0..rows)
        .map(|r| (0..cols).map(|c| r * cols + c).collect())
        .collect();
    let p = Partition::new(&g, parts).expect("rows are connected");
    (g, p)
}

/// The lower-bound workload: each of the `p` long paths is one part —
/// forcing `Ω̃(√n)` aggregation on general graphs \[SHK+12\].
pub fn lower_bound_path_parts(paths: usize, len: usize) -> (Graph, Partition) {
    let (g, layout) = minex_graphs::generators::lower_bound_family(paths, len);
    let parts = layout.paths.clone();
    let p = Partition::new(&g, parts).expect("paths are connected");
    (g, p)
}

/// Heavy-hub wheel SSSP workload: light rim edges, heavy spokes, contiguous
/// rim segments as parts (the hub stays unassigned). Shortest paths between
/// rim nodes snake around the rim — `Θ(n)` Bellman–Ford hops at hop
/// diameter 2 — which is exactly the gap shortcut-accelerated SSSP closes.
pub fn heavy_hub_wheel(
    n: usize,
    segment: usize,
    light: u64,
    heavy: u64,
) -> (WeightedGraph, Partition) {
    let (g, parts) = wheel_rim_parts(n, segment);
    let hub = n - 1;
    let weights: Vec<u64> = g
        .edges()
        .map(|(_, _, v)| if v == hub { heavy } else { light })
        .collect();
    (WeightedGraph::new(g, weights), parts)
}

/// Heavy-hub outerplanar fan (treewidth 2): the outer cycle path `1..n-1`
/// is light and split into contiguous segment parts; every edge at the fan
/// center (node 0) is heavy. The bounded-treewidth counterpart of
/// [`heavy_hub_wheel`].
pub fn heavy_hub_fan(
    n: usize,
    segment: usize,
    light: u64,
    heavy: u64,
) -> (WeightedGraph, Partition) {
    assert!(segment >= 1, "segment length must be positive");
    let g = minex_graphs::generators::outerplanar_fan(n);
    let weights: Vec<u64> = g
        .edges()
        .map(|(_, u, _)| if u == 0 { heavy } else { light })
        .collect();
    let mut part_sets = Vec::new();
    let mut start = 1;
    while start < n {
        let end = (start + segment).min(n);
        part_sets.push((start..end).collect::<Vec<_>>());
        start = end;
    }
    let parts = Partition::new(&g, part_sets).expect("fan segments are connected");
    (WeightedGraph::new(g, weights), parts)
}

/// Maze grid SSSP workload: a `rows × cols` grid with
/// [`WeightModel::Bimodal`] weights (shortest paths snake around heavy
/// edges) and `k` Voronoi parts.
pub fn maze_grid<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    k: usize,
    rng: &mut R,
) -> (WeightedGraph, Partition) {
    let g = minex_graphs::generators::grid(rows, cols);
    let parts = voronoi_parts(&g, k, rng);
    let wg = WeightModel::Bimodal {
        light: 64,
        heavy: 8192,
        heavy_permille: 450,
    }
    .apply(&g, rng);
    (wg, parts)
}

/// Maze apex grid (Theorem 8's family): a Bimodal-weighted grid plus one
/// apex whose edges are all heavy. The apex collapses the hop diameter to
/// `O(1)` while weighted shortest paths still take grid-scale hops — the
/// strongest separation between hop-limited Bellman–Ford and the shortcut
/// tier. Parts are Voronoi cells of the base grid; the apex stays
/// unassigned.
pub fn maze_apex_grid<R: Rng + ?Sized>(
    side: usize,
    stride: usize,
    k: usize,
    rng: &mut R,
) -> (WeightedGraph, Partition) {
    let (g, apex) = minex_graphs::generators::apex_grid(side, side, stride);
    let base = WeightModel::Bimodal {
        light: 64,
        heavy: 8192,
        heavy_permille: 450,
    }
    .apply(&g, rng);
    let weights: Vec<u64> = g
        .edges()
        .map(|(e, u, v)| {
            if u == apex || v == apex {
                8192
            } else {
                base.weight(e)
            }
        })
        .collect();
    // Voronoi cells over the base grid only (the apex would otherwise make
    // one giant cell); grid nodes keep their ids in the apex graph.
    let grid = minex_graphs::generators::grid(side, side);
    let seeds: Vec<NodeId> = (0..k.max(1))
        .map(|_| rng.random_range(0..grid.n()))
        .collect();
    let bfs = traversal::multi_source_bfs(&grid, &seeds);
    let mut labels: Vec<Option<usize>> = bfs.source_of.iter().map(|&s| Some(s)).collect();
    labels.push(None); // the apex
    let parts = Partition::from_labels(&g, &labels).expect("grid cells stay connected");
    (WeightedGraph::new(g, weights), parts)
}

/// A random churn stream over `g`: `len` edge mutations, each valid on the
/// graph as mutated so far (no duplicate inserts, no deletes of missing
/// edges), so the whole stream applies cleanly in order — e.g. through
/// [`crate::solver::Solver::apply`] or a
/// [`minex_graphs::DeltaGraph`].
///
/// Each step is an insertion with probability `insert_permille`/1000
/// (rejection-sampled absent pair, fresh random weight in `1..=8192`),
/// otherwise a deletion of a uniformly random live edge. Deleted edges may
/// be re-inserted later with new weights. Self loops are never produced;
/// steps that cannot proceed (no absent pair found, or no live edge left)
/// fall back to the other kind.
///
/// A pair's presence is looked up in `g`'s adjacency, overridden by the
/// stream's own earlier steps, so a call copies the edge list once and
/// then makes `O(len)` lookups; it hashes no edge of `g`.
pub fn churn_stream<R: Rng + ?Sized>(
    g: &Graph,
    len: usize,
    insert_permille: u32,
    rng: &mut R,
) -> Vec<EdgeMutation> {
    assert!(g.n() >= 2, "churn needs at least two nodes");
    assert!(insert_permille <= 1000, "permille is out of range");
    let mut live: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    // Whether a pair is present: the last insert or delete of it in this
    // stream, else whether `g` has it.
    let mut touched: HashMap<(NodeId, NodeId), bool> = HashMap::new();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let want_insert = rng.random_range(0..1000) < insert_permille;
        // Rejection-sample an absent pair; dense graphs may exhaust the
        // attempt budget, in which case the step degrades to a deletion.
        let mut sampled = None;
        if want_insert || live.is_empty() {
            for _ in 0..64 {
                let u = rng.random_range(0..g.n());
                let v = rng.random_range(0..g.n());
                if u == v {
                    continue;
                }
                let pair = (u.min(v), u.max(v));
                let present = touched
                    .get(&pair)
                    .copied()
                    .unwrap_or_else(|| g.has_edge(u, v));
                if !present {
                    sampled = Some(pair);
                    break;
                }
            }
        }
        match sampled {
            Some((u, v)) => {
                touched.insert((u, v), true);
                live.push((u, v));
                out.push(EdgeMutation::Insert {
                    u,
                    v,
                    weight: rng.random_range(1..=8192),
                });
            }
            None => {
                if live.is_empty() {
                    break; // nothing left to delete and nothing to insert
                }
                let i = rng.random_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                touched.insert((u, v), false);
                out.push(EdgeMutation::Delete { u, v });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_graphs::generators;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn voronoi_covers_everything() {
        let g = generators::triangulated_grid(9, 9);
        let mut rng = StdRng::seed_from_u64(5);
        let parts = voronoi_parts(&g, 7, &mut rng);
        let covered: usize = parts.parts().iter().map(Vec::len).sum();
        assert_eq!(covered, g.n());
        assert!(parts.len() <= 7);
    }

    #[test]
    fn forest_split_yields_k_parts() {
        let g = generators::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(6);
        let parts = forest_split_parts(&g, 5, &mut rng);
        assert_eq!(parts.len(), 5);
        let covered: usize = parts.parts().iter().map(Vec::len).sum();
        assert_eq!(covered, g.n());
    }

    #[test]
    fn wheel_rim_segments() {
        let (g, parts) = wheel_rim_parts(17, 4);
        assert_eq!(g.n(), 17);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.part_of(16), None); // hub unassigned
    }

    #[test]
    fn grid_rows() {
        let (_, parts) = grid_row_parts(4, 7);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.part(2).len(), 7);
    }

    #[test]
    fn heavy_hub_wheel_weights_and_parts() {
        let (wg, parts) = heavy_hub_wheel(65, 8, 64, 4096);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.part_of(64), None); // hub unassigned
        let g = wg.graph();
        for (e, u, v) in g.edges() {
            let expect = if u == 64 || v == 64 { 4096 } else { 64 };
            assert_eq!(wg.weight(e), expect);
        }
    }

    #[test]
    fn heavy_hub_fan_weights_and_parts() {
        let (wg, parts) = heavy_hub_fan(50, 7, 64, 4096);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.part_of(0), None); // fan center unassigned
        let covered: usize = parts.parts().iter().map(Vec::len).sum();
        assert_eq!(covered, 49);
        let g = wg.graph();
        for (e, u, v) in g.edges() {
            let expect = if u == 0 || v == 0 { 4096 } else { 64 };
            assert_eq!(wg.weight(e), expect);
        }
    }

    #[test]
    fn maze_grid_covers_and_is_bimodal() {
        let mut rng = StdRng::seed_from_u64(2);
        let (wg, parts) = maze_grid(8, 8, 5, &mut rng);
        let covered: usize = parts.parts().iter().map(Vec::len).sum();
        assert_eq!(covered, 64);
        assert!(wg.weights().iter().all(|&w| w == 64 || w == 8192));
    }

    #[test]
    fn maze_apex_grid_isolates_the_apex() {
        let mut rng = StdRng::seed_from_u64(3);
        let (wg, parts) = maze_apex_grid(8, 4, 5, &mut rng);
        let g = wg.graph();
        let apex = g.n() - 1;
        assert_eq!(parts.part_of(apex), None);
        let covered: usize = parts.parts().iter().map(Vec::len).sum();
        assert_eq!(covered, 64);
        // Every apex edge is heavy.
        for (e, u, v) in g.edges() {
            if u == apex || v == apex {
                assert_eq!(wg.weight(e), 8192);
            }
        }
    }

    #[test]
    fn lower_bound_parts_are_paths() {
        let (g, parts) = lower_bound_path_parts(4, 8);
        assert_eq!(parts.len(), 4);
        assert!(parts.parts().iter().all(|p| p.len() == 8));
        assert!(g.n() > 32);
    }

    #[test]
    fn churn_stream_applies_cleanly_in_order() {
        let g = generators::grid(8, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let stream = churn_stream(&g, 200, 500, &mut rng);
        assert_eq!(stream.len(), 200);
        let mut dg = minex_graphs::DeltaGraph::new(g);
        for m in &stream {
            dg.apply_mutation(m).expect("every churn step is valid");
        }
        assert!(stream
            .iter()
            .any(|m| matches!(m, EdgeMutation::Insert { .. })));
        assert!(stream
            .iter()
            .any(|m| matches!(m, EdgeMutation::Delete { .. })));
    }

    #[test]
    fn churn_stream_insert_only_and_delete_only() {
        let g = generators::cycle(16);
        let mut rng = StdRng::seed_from_u64(10);
        let inserts = churn_stream(&g, 50, 1000, &mut rng);
        assert!(inserts
            .iter()
            .all(|m| matches!(m, EdgeMutation::Insert { .. })));
        let deletes = churn_stream(&g, 10, 0, &mut rng);
        assert!(deletes
            .iter()
            .all(|m| matches!(m, EdgeMutation::Delete { .. })));
    }

    /// The stream as first written, with a hash set of every edge of `g`:
    /// the byte-identity reference for [`churn_stream`].
    fn churn_stream_reference<R: Rng + ?Sized>(
        g: &Graph,
        len: usize,
        insert_permille: u32,
        rng: &mut R,
    ) -> Vec<EdgeMutation> {
        assert!(g.n() >= 2, "churn needs at least two nodes");
        assert!(insert_permille <= 1000, "permille is out of range");
        let mut live: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
        let mut present: std::collections::HashSet<(NodeId, NodeId)> =
            live.iter().copied().collect();
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let want_insert = rng.random_range(0..1000) < insert_permille;
            // Rejection-sample an absent pair; dense graphs may exhaust the
            // attempt budget, in which case the step degrades to a deletion.
            let mut sampled = None;
            if want_insert || live.is_empty() {
                for _ in 0..64 {
                    let u = rng.random_range(0..g.n());
                    let v = rng.random_range(0..g.n());
                    if u == v {
                        continue;
                    }
                    let pair = (u.min(v), u.max(v));
                    if !present.contains(&pair) {
                        sampled = Some(pair);
                        break;
                    }
                }
            }
            match sampled {
                Some((u, v)) => {
                    present.insert((u, v));
                    live.push((u, v));
                    out.push(EdgeMutation::Insert {
                        u,
                        v,
                        weight: rng.random_range(1..=8192),
                    });
                }
                None => {
                    if live.is_empty() {
                        break; // nothing left to delete and nothing to insert
                    }
                    let i = rng.random_range(0..live.len());
                    let (u, v) = live.swap_remove(i);
                    present.remove(&(u, v));
                    out.push(EdgeMutation::Delete { u, v });
                }
            }
        }
        out
    }

    /// Runs both streams from one seed and compares the mutations and the
    /// generators' states afterwards.
    fn assert_same_stream(g: &Graph, len: usize, permille: u32, seed: u64) {
        let mut fast = StdRng::seed_from_u64(seed);
        let mut slow = StdRng::seed_from_u64(seed);
        assert_eq!(
            churn_stream(g, len, permille, &mut fast),
            churn_stream_reference(g, len, permille, &mut slow),
            "seed {seed}, permille {permille}"
        );
        assert_eq!(fast.next_u64(), slow.next_u64(), "rng drift at seed {seed}");
    }

    #[test]
    fn churn_stream_matches_the_hash_set_reference() {
        let grid = generators::grid(32, 32);
        for seed in 0..1_000 {
            for permille in [0, 500, 1000] {
                assert_same_stream(&grid, 16 + (seed as usize % 48), permille, seed);
            }
        }
        // K6 has no absent pair: every insert attempt falls back to a
        // deletion until one frees a pair up.
        let k6 = generators::complete(6);
        for seed in 0..200 {
            for permille in [500, 1000] {
                assert_same_stream(&k6, 40, permille, seed);
            }
        }
    }
}
