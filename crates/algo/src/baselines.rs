//! MST baselines: the shortcut-free Borůvka (the "naive solution" of
//! Section 1.3.3) and a Garay–Kutten–Peleg-style `Õ(D + √n)` two-phase
//! algorithm [GKP98, KP08] — the incumbents the paper's `Õ(D²)` result is
//! measured against in E6/E7.

use minex_congest::{bits_for, CongestConfig, SimError};
use minex_core::construct::ShortcutBuilder;
use minex_core::{Partition, RootedTree, Shortcut};
use minex_graphs::{EdgeId, Graph, UnionFind, WeightedGraph};

use crate::partwise::partwise_min_impl;
use crate::pipeline::{pipelined_broadcast, pipelined_convergecast};
use crate::solver::{into_sim, Mst, Report, Solver};

/// A builder that never assigns shortcut edges — parts communicate over
/// `G[P_i]` alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoShortcutBuilder;

impl ShortcutBuilder for NoShortcutBuilder {
    fn name(&self) -> &'static str {
        "no-shortcut"
    }

    fn build(&self, _g: &Graph, _tree: &RootedTree, parts: &Partition) -> Shortcut {
        Shortcut::empty(parts.len())
    }
}

/// Borůvka without shortcuts: each phase costs the fragments' own
/// diameters, `Θ(n)` in the worst case.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn mst_without_shortcuts(
    wg: &WeightedGraph,
    config: CongestConfig,
) -> Result<Report<Mst>, SimError> {
    let mut solver = into_sim(
        Solver::builder(wg)
            .shortcut_builder(NoShortcutBuilder)
            .config(config)
            .build(),
    )?;
    into_sim(solver.mst())
}

/// Outcome of the two-phase `Õ(D + √n)` algorithm.
#[derive(Debug, Clone)]
pub struct GkpOutcome {
    /// The chosen MST edges.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub total_weight: u64,
    /// Simulated rounds of the fragment-growing phase.
    pub phase1_rounds: usize,
    /// Simulated rounds of the pipelined centralized phase.
    pub phase2_rounds: usize,
    /// Number of fragments at the phase switch.
    pub fragments_at_switch: usize,
}

impl GkpOutcome {
    /// Total simulated rounds.
    pub fn total_rounds(&self) -> usize {
        self.phase1_rounds + self.phase2_rounds
    }
}

/// Garay–Kutten–Peleg-style MST: grow fragments Borůvka-style (without
/// shortcuts) until they reach `√n` nodes, then finish by pipelining each
/// fragment's minimum outgoing edge up a BFS tree, merging at the root
/// (local computation is free in CONGEST), and broadcasting the merge list
/// back down. Runs in `Õ(D + √n)` rounds.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if the graph is empty or disconnected.
pub fn gkp_mst(wg: &WeightedGraph, config: CongestConfig) -> Result<GkpOutcome, SimError> {
    let g = wg.graph();
    assert!(g.n() > 0, "graph must be non-empty");
    assert!(
        minex_graphs::traversal::is_connected(g),
        "graph must be connected"
    );
    let n = g.n();
    let m = g.m().max(1) as u64;
    let limit = (n as f64).sqrt().ceil() as usize;
    let max_w = wg.weights().iter().copied().max().unwrap_or(0);
    let value_bits = bits_for((max_w + 1) as usize) + bits_for(g.m().max(2));
    let mut uf = UnionFind::new(n);
    let mut size = vec![1usize; n];
    let mut chosen: Vec<EdgeId> = Vec::new();
    let mut phase1_rounds = 0usize;
    // ---- Phase 1: controlled Borůvka growth, no shortcuts.
    loop {
        // Only fragments below the size limit propose.
        let (labels, _) = uf.labels();
        let mut proposing: Vec<Option<usize>> = vec![None; n];
        for v in 0..n {
            let root = uf.find(v);
            if size[root] < limit {
                proposing[v] = Some(labels[v]);
            }
        }
        let parts = match Partition::from_labels(g, &proposing) {
            Ok(p) if !p.is_empty() => p,
            _ => break,
        };
        let mut values = vec![u64::MAX; n];
        for v in 0..n {
            if proposing[v].is_none() {
                continue;
            }
            for (w, e) in g.neighbors(v) {
                if uf.find(v) != uf.find(w) {
                    let enc = wg.weight(e) * m + e as u64;
                    if enc < values[v] {
                        values[v] = enc;
                    }
                }
            }
        }
        let shortcut = Shortcut::empty(parts.len());
        let agg = partwise_min_impl(g, &parts, &shortcut, &values, value_bits, config)?;
        phase1_rounds += agg.stats.rounds;
        let mut merged = false;
        for &best in &agg.minima {
            if best == u64::MAX {
                continue;
            }
            let e = (best % m) as EdgeId;
            let (u, v) = g.endpoints(e);
            let (ru, rv) = (uf.find(u), uf.find(v));
            if ru != rv {
                let s = size[ru] + size[rv];
                uf.union(u, v);
                size[uf.find(u)] = s;
                chosen.push(e);
                merged = true;
            }
        }
        if !merged {
            break;
        }
        if uf.count() == 1 {
            break;
        }
    }
    let fragments_at_switch = uf.count();
    // ---- Phase 2: pipelined centralized Borůvka over the BFS tree.
    let bfs = minex_graphs::traversal::bfs(g, 0);
    let mut phase2_rounds = 0usize;
    let item_bits = bits_for(n.max(2)) + value_bits;
    while uf.count() > 1 {
        let (labels, _) = uf.labels();
        // Each node proposes its fragment's candidate through the pipeline.
        let mut items: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for v in 0..n {
            let mut best = u64::MAX;
            for (w, e) in g.neighbors(v) {
                if uf.find(v) != uf.find(w) {
                    best = best.min(wg.weight(e) * m + e as u64);
                }
            }
            if best != u64::MAX {
                items[v].push((labels[v] as u64, best));
            }
        }
        let (collected, up_stats) =
            pipelined_convergecast(g, &bfs.parent, items, item_bits, config)?;
        phase2_rounds += up_stats.rounds;
        // Root merges locally and broadcasts the chosen edges.
        let mut merge_items: Vec<(u64, u64)> = Vec::new();
        let mut round_chosen: Vec<EdgeId> = Vec::new();
        for (_, best) in collected {
            if best == u64::MAX {
                continue;
            }
            let e = (best % m) as EdgeId;
            let (u, v) = g.endpoints(e);
            if uf.union(u, v) {
                chosen.push(e);
                round_chosen.push(e);
            }
        }
        for (i, &e) in round_chosen.iter().enumerate() {
            merge_items.push((i as u64, e as u64));
        }
        if merge_items.is_empty() {
            break;
        }
        let (_, down_stats) = pipelined_broadcast(g, &bfs.parent, &merge_items, item_bits, config)?;
        phase2_rounds += down_stats.rounds;
    }
    chosen.sort_unstable();
    chosen.dedup();
    let total_weight = chosen.iter().map(|&e| wg.weight(e)).sum();
    Ok(GkpOutcome {
        edges: chosen,
        total_weight,
        phase1_rounds,
        phase2_rounds,
        fragments_at_switch,
    })
}

/// Convenience: rounds of all three MST algorithms on one input, for the
/// E6/E7 comparison tables.
#[derive(Debug, Clone)]
pub struct MstComparison {
    /// Shortcut-driven Borůvka (simulated + charged construction).
    pub shortcut_rounds: usize,
    /// The analytic construction charge included for transparency.
    pub shortcut_charged: usize,
    /// The `Õ(D + √n)` baseline.
    pub gkp_rounds: usize,
    /// The shortcut-free Borůvka.
    pub naive_rounds: usize,
}

/// Runs all three algorithms and cross-checks their MST weights.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn compare_mst<B: ShortcutBuilder + Send + 'static>(
    wg: &WeightedGraph,
    builder: B,
    config: CongestConfig,
) -> Result<MstComparison, SimError> {
    let mut solver = into_sim(
        Solver::builder(wg)
            .shortcut_builder(builder)
            .config(config)
            .build(),
    )?;
    let with = into_sim(solver.mst())?;
    let gkp = gkp_mst(wg, config)?;
    let naive = mst_without_shortcuts(wg, config)?;
    assert_eq!(
        with.value.total_weight, gkp.total_weight,
        "MST weight mismatch"
    );
    assert_eq!(
        with.value.total_weight, naive.value.total_weight,
        "MST weight mismatch"
    );
    Ok(MstComparison {
        shortcut_rounds: with.stats.simulated_rounds,
        shortcut_charged: with.stats.charged_construction_rounds,
        gkp_rounds: gkp.total_rounds(),
        naive_rounds: naive.stats.simulated_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::kruskal;
    use minex_graphs::{generators, WeightModel};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(192)
            .with_max_rounds(500_000)
    }

    #[test]
    fn gkp_matches_kruskal() {
        let g = generators::triangulated_grid(7, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let out = gkp_mst(&wg, cfg(g.n())).unwrap();
        let (kedges, kweight) = kruskal(&wg);
        assert_eq!(out.total_weight, kweight);
        assert_eq!(out.edges, kedges);
    }

    #[test]
    fn gkp_on_lower_bound_family() {
        let (g, _) = generators::lower_bound_family(5, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let out = gkp_mst(&wg, cfg(g.n())).unwrap();
        let (_, kweight) = kruskal(&wg);
        assert_eq!(out.total_weight, kweight);
        assert!(out.fragments_at_switch >= 1);
    }

    #[test]
    fn naive_matches_kruskal() {
        let g = generators::cycle(20);
        let mut rng = StdRng::seed_from_u64(3);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let out = mst_without_shortcuts(&wg, cfg(20)).unwrap();
        let (_, kweight) = kruskal(&wg);
        assert_eq!(out.value.total_weight, kweight);
    }

    #[test]
    fn comparison_cross_checks() {
        let g = generators::grid(5, 8);
        let mut rng = StdRng::seed_from_u64(4);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let cmp = compare_mst(&wg, minex_core::construct::AutoCappedBuilder, cfg(g.n())).unwrap();
        assert!(cmp.shortcut_rounds > 0);
        assert!(cmp.gkp_rounds > 0);
        assert!(cmp.naive_rounds > 0);
    }

    #[test]
    fn single_node_gkp() {
        let g = generators::path(1);
        let out = gkp_mst(&WeightedGraph::unit(g), cfg(1)).unwrap();
        assert!(out.edges.is_empty());
        assert_eq!(out.total_rounds(), 0);
    }
}
