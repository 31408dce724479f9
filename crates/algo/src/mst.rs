//! The centralized minimum-spanning-tree reference: Kruskal's algorithm.
//!
//! The distributed MST — Borůvka driven by part-wise aggregation, the
//! Theorem 1 / Corollary 1 algorithm — is the session's
//! [`Solver::mst`](crate::solver::Solver::mst) (the private
//! `Solver::boruvka_mst` runs it). Each Borůvka phase treats the current
//! fragments as parts, builds a tree-restricted shortcut for them, and
//! runs two part-wise aggregations: one to find each fragment's minimum
//! outgoing edge, one to flood the merged fragments' new labels.
//! `O(log n)` phases suffice, so the total round count is `Õ(q(D))` with
//! `q` the shortcut quality the builder achieves — `Õ(D²)` on
//! excluded-minor families by Theorem 6. The shortcut *construction* cost
//! is charged analytically (Theorem 1 cites \[HIZ16a\]: `Õ(q)` rounds) and
//! reported in a separate field, exactly like the paper treats it. The
//! tests below check the session's MST against [`kruskal`].

use minex_graphs::{EdgeId, UnionFind, WeightedGraph};

/// Kruskal's algorithm — the centralized correctness reference.
pub fn kruskal(wg: &WeightedGraph) -> (Vec<EdgeId>, u64) {
    let g = wg.graph();
    let mut order: Vec<EdgeId> = (0..g.m()).collect();
    order.sort_by_key(|&e| (wg.weight(e), e));
    let mut uf = UnionFind::new(g.n());
    let mut edges = Vec::new();
    let mut total = 0;
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u, v) {
            edges.push(e);
            total += wg.weight(e);
        }
    }
    edges.sort_unstable();
    (edges, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Mst, Report, Solver};
    use minex_congest::CongestConfig;
    use minex_core::construct::{AutoCappedBuilder, ShortcutBuilder, SteinerBuilder};
    use minex_graphs::{generators, WeightModel};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(160)
            .with_max_rounds(200_000)
    }

    /// One-shot session MST: a fresh Solver per call, mirroring what the
    /// removed `boruvka_mst` shim used to do.
    fn session_mst<B: ShortcutBuilder + Send + 'static>(wg: &WeightedGraph, b: B) -> Report<Mst> {
        Solver::builder(wg)
            .shortcut_builder(b)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap()
            .mst()
            .unwrap()
    }

    #[test]
    fn matches_kruskal_on_grid() {
        let g = generators::triangulated_grid(6, 6);
        let mut rng = StdRng::seed_from_u64(42);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let out = session_mst(&wg, SteinerBuilder);
        let (kedges, kweight) = kruskal(&wg);
        assert_eq!(out.value.total_weight, kweight);
        assert_eq!(out.value.edges, kedges);
        assert_eq!(out.value.edges.len(), g.n() - 1);
        assert!(
            out.value.boruvka_phases <= 7,
            "phases={}",
            out.value.boruvka_phases
        );
    }

    #[test]
    fn matches_kruskal_with_duplicate_weights() {
        // Unit weights: MST weight is n-1; edge choice may differ from
        // Kruskal's but the weight must match.
        let g = generators::grid(5, 5);
        let wg = WeightedGraph::unit(g.clone());
        let out = session_mst(&wg, SteinerBuilder);
        assert_eq!(out.value.total_weight, (g.n() - 1) as u64);
        assert_eq!(out.value.edges.len(), g.n() - 1);
    }

    #[test]
    fn works_on_random_graphs_with_auto_capped() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::random_connected(60, 60, &mut rng);
        let wg = WeightModel::Uniform { lo: 1, hi: 50 }.apply(&g, &mut rng);
        let out = session_mst(&wg, AutoCappedBuilder);
        let (_, kweight) = kruskal(&wg);
        assert_eq!(out.value.total_weight, kweight);
    }

    #[test]
    fn wheel_mst_is_fast_with_shortcuts() {
        let n = 64;
        let g = generators::wheel(n);
        let mut rng = StdRng::seed_from_u64(3);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let with = session_mst(&wg, AutoCappedBuilder);
        let without = session_mst(&wg, crate::baselines::NoShortcutBuilder);
        assert_eq!(with.value.total_weight, without.value.total_weight);
        assert!(
            with.stats.simulated_rounds < without.stats.simulated_rounds,
            "with={} without={}",
            with.stats.simulated_rounds,
            without.stats.simulated_rounds
        );
    }

    #[test]
    fn single_node_and_single_edge() {
        let g1 = generators::path(1);
        let out = session_mst(&WeightedGraph::unit(g1), SteinerBuilder);
        assert!(out.value.edges.is_empty());
        assert_eq!(out.value.boruvka_phases, 0);
        let g2 = generators::path(2);
        let out = session_mst(&WeightedGraph::unit(g2), SteinerBuilder);
        assert_eq!(out.value.edges.len(), 1);
    }

    #[test]
    fn kruskal_basics() {
        let g = generators::cycle(4);
        let wg = WeightedGraph::new(g, vec![4, 1, 2, 3]);
        let (edges, total) = kruskal(&wg);
        assert_eq!(edges.len(), 3);
        assert_eq!(total, 1 + 2 + 3);
    }

    #[test]
    fn fresh_sessions_are_deterministic() {
        // Two independently-built sessions over the same graph agree
        // byte-for-byte — the invariant the removed one-shot shim relied on.
        let g = generators::triangulated_grid(5, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let a = session_mst(&wg, SteinerBuilder);
        let b = session_mst(&wg, SteinerBuilder);
        assert_eq!(a.value.edges, b.value.edges);
        assert_eq!(a.value.total_weight, b.value.total_weight);
        assert_eq!(a.stats.simulated_rounds, b.stats.simulated_rounds);
        assert_eq!(
            a.stats.charged_construction_rounds,
            b.stats.charged_construction_rounds
        );
    }
}
