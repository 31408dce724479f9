//! Single-source shortest paths in the CONGEST simulator — the third payoff
//! problem the paper's abstract names (after MST and min-cut).
//!
//! Three tiers, each validated against the sequential Dijkstra reference in
//! [`minex_graphs::traversal::dijkstra`]:
//!
//! 1. [`bellman_ford_sssp`] — exact distributed Bellman–Ford (the
//!    shortcut-free baseline). Rounds track the maximum *hop length* of a
//!    shortest path, which can far exceed the hop diameter when weights make
//!    shortest paths snake (heavy-hub wheels, mazes).
//! 2. [`scaled_sssp`] — BFS-tree-scaled `(1+ε)`-approximate Bellman–Ford:
//!    weights are rounded up to multiples of `k = ⌊ε·w_min⌋`, and the flood
//!    is hop-bounded by a budget certified from the BFS tree. At
//!    convergence the estimate is provably within `(1+ε)` (see
//!    [`scale_for`]).
//! 3. the shortcut-accelerated tier
//!    (`Solver::sssp(source, Tier::Shortcut { .. })`). A one-time
//!    part-wise *center-distance flood* over each part's augmented subgraph
//!    `G[P_i] + H_i` computes center potentials `ρ`, then each overlay phase
//!    runs the part-wise minimum
//!    aggregation on `D(v) + ρ(v)` (short-circuiting long-range distance
//!    propagation through the shortcut edges) followed by a single
//!    [`distance_broadcast_round`](minex_congest::primitives::distance_broadcast_round)
//!    that stitches parts together. Every
//!    update is a real path bound, so estimates are always sound upper
//!    bounds; on reaching the fixpoint the scaled distances are exact and
//!    the `(1+ε)` scaling bound applies. Truncating the phase budget trades
//!    the leftover error for rounds — the E12 ablation measures exactly
//!    this trade.
//!
//! The shortcut construction itself is charged analytically at
//! `quality · ⌈log₂ n⌉` rounds per \[HIZ16a\], mirroring [`crate::mst`].

use minex_congest::primitives::{build_bfs_tree, weighted_distance_flood};
use minex_congest::{bits_for, CongestConfig, RunStats, SimError};
use minex_core::construct::ShortcutBuilder;
use minex_core::Partition;
use minex_graphs::dist::{dist_mul, UNREACHED};
use minex_graphs::{traversal, Graph, NodeId, WeightedGraph};

use crate::solver::{into_sim, PartsStrategy, Solver, Tier};

/// Honest bit width for distance values on `wg`: enough for the total graph
/// weight (the coarsest a-priori distance bound), floored at one byte.
pub(crate) fn dist_value_bits(wg: &WeightedGraph) -> usize {
    let total = wg.total_weight().min(usize::MAX as u64 - 1) as usize;
    bits_for(total + 1).max(8)
}

/// The weight scale realizing a `(1+ε)` guarantee: `k = max(1, ⌊ε·w_min⌋)`.
///
/// Rounding weights up to multiples of `k` (`w' = ⌈w/k⌉`) keeps every path
/// estimate an upper bound, and overshoots a shortest path with `h` hops by
/// at most `k·h ≤ ε·w_min·h ≤ ε·dist`, so the rescaled exact distance on the
/// scaled graph is within `(1+ε)` of the true distance. When `ε·w_min < 1`
/// the scale degenerates to 1 and the computation is exact.
///
/// The floor is computed *exactly*, in integer arithmetic: `ε` is
/// decomposed into its IEEE-754 mantissa/exponent pair `m·2^e` (which
/// represents it with no error) and `⌊m·w_min·2^e⌋` is evaluated in `u128`.
/// Evaluating `ε·w_min` in f64 instead — as this function originally did —
/// rounds `w_min` to 53 bits first, which for `w_min > 2^53` can round *up*
/// across an integer boundary (e.g. `2^60 + 200` becomes `2^60 + 256`) and
/// so overshoot the true `⌊ε·w_min⌋`. A too-large `k` silently voids the
/// `(1+ε)` guarantee; a regression test pins the exact behaviour near
/// `2^60`.
pub fn scale_for(epsilon: f64, min_weight: u64) -> u64 {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    if epsilon == 0.0 || min_weight == 0 {
        return 1;
    }
    if epsilon.is_infinite() {
        return u64::MAX;
    }
    // Exact decomposition: epsilon = mantissa · 2^exp2 (52-bit fraction,
    // subnormals get the denormal exponent and no implicit bit).
    let bits = epsilon.to_bits();
    let raw_exp = ((bits >> 52) & 0x7FF) as i64;
    let fraction = bits & ((1u64 << 52) - 1);
    let (mantissa, exp2) = if raw_exp == 0 {
        (fraction, -1074i64)
    } else {
        (fraction | (1u64 << 52), raw_exp - 1075)
    };
    // mantissa ≤ 2^53 − 1 and min_weight ≤ 2^64 − 1, so the product fits
    // u128 with headroom (≤ 2^117).
    let product = u128::from(mantissa) * u128::from(min_weight);
    let k: u128 = if exp2 >= 0 {
        if (exp2 as u32) >= product.leading_zeros() {
            u128::MAX
        } else {
            product << exp2
        }
    } else {
        let shift = (-exp2) as u32;
        if shift >= 128 {
            0
        } else {
            product >> shift
        }
    };
    if k < 1 {
        1
    } else if k >= u128::from(u64::MAX) {
        u64::MAX
    } else {
        k as u64
    }
}

/// Rounds every weight up to the next multiple of `scale`, in units of
/// `scale` (`w' = ⌈w/scale⌉`).
pub(crate) fn scale_weights(wg: &WeightedGraph, scale: u64) -> WeightedGraph {
    assert!(scale >= 1, "scale must be positive");
    let weights = wg
        .weights()
        .iter()
        .map(|&w| w / scale + u64::from(w % scale != 0))
        .collect();
    WeightedGraph::new(wg.graph().clone(), weights)
}

/// Maps scaled distances back to weight units under the sentinel contract:
/// [`UNREACHED`] stays unreached, finite products saturate at
/// [`DIST_MAX`](minex_graphs::dist::DIST_MAX) so a saturated real path
/// never collides with the sentinel.
pub(crate) fn rescale(dist: &[u64], scale: u64) -> Vec<u64> {
    dist.iter().map(|&d| dist_mul(d, scale)).collect()
}

/// The worst multiplicative overshoot `est[v] / exact[v]` over all nodes.
///
/// Both vectors must mark unreachable nodes as `u64::MAX` in the same
/// places. `0/0` counts as stretch 1.
///
/// # Panics
///
/// Panics on length mismatch, on an estimate below the exact distance
/// (estimates must be sound upper bounds), or when exactly one side marks a
/// node unreachable.
pub fn max_stretch(est: &[u64], exact: &[u64]) -> f64 {
    assert_eq!(est.len(), exact.len(), "length mismatch");
    let mut worst: f64 = 1.0;
    for (v, (&e, &x)) in est.iter().zip(exact.iter()).enumerate() {
        if x == UNREACHED || e == UNREACHED {
            assert_eq!(e, x, "reachability disagrees at node {v}");
            continue;
        }
        assert!(e >= x, "estimate {e} below exact {x} at node {v}");
        if x == 0 {
            assert_eq!(e, 0, "source estimate must be 0");
            continue;
        }
        worst = worst.max(e as f64 / x as f64);
    }
    worst
}

/// Outcome of the exact Bellman–Ford tier.
#[derive(Debug, Clone)]
pub struct SsspOutcome {
    /// Exact weighted distances (`u64::MAX` unreached).
    pub dist: Vec<u64>,
    /// Shortest-path-tree parents.
    pub parent: Vec<Option<NodeId>>,
    /// Simulation statistics; `stats.rounds` is the baseline round count.
    pub stats: RunStats,
}

/// Exact SSSP by distributed Bellman–Ford flooding — the shortcut-free
/// baseline every other tier is measured against (E11).
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if `source >= n`.
pub fn bellman_ford_sssp(
    wg: &WeightedGraph,
    source: NodeId,
    config: CongestConfig,
) -> Result<SsspOutcome, SimError> {
    let flood = weighted_distance_flood(wg, source, dist_value_bits(wg), config)?;
    Ok(SsspOutcome {
        dist: flood.dist,
        parent: flood.parent,
        stats: flood.stats,
    })
}

/// Outcome of the BFS-tree-scaled approximate tier.
#[derive(Debug, Clone)]
pub struct ScaledSsspOutcome {
    /// `(1+ε)` distance upper bounds, in original weight units.
    pub dist: Vec<u64>,
    /// The weight scale used (`1` means the run was exact).
    pub scale: u64,
    /// The certified hop budget (the flood provably settles within it).
    pub hop_budget: usize,
    /// Statistics of the hop-bounded scaled flood.
    pub flood_stats: RunStats,
    /// Statistics of the BFS-tree construction that certifies the hop
    /// budget.
    pub bfs_stats: RunStats,
}

/// `(1+ε)`-approximate SSSP by hop-bounded Bellman–Ford on `k`-scaled
/// weights (tier 2).
///
/// First builds a BFS tree from `source` (simulated, rounds counted): its
/// eccentricity `R` certifies the hop budget `R · w'_max + 2` for the scaled
/// flood — every scaled shortest path has weight at most `R · w'_max` (the
/// BFS-tree path bound) and each hop costs at least one unit, so the flood
/// provably settles within the budget. Then floods the `⌈w/k⌉`-scaled
/// weights with `k =`[`scale_for`]`(ε, w_min)` and rescales, which
/// guarantees `dist ≤ est ≤ (1+ε)·dist`.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if the graph is empty or disconnected, if `source` is out of
/// range, or if any weight is zero (positive weights underpin the hop-budget
/// certificate).
pub fn scaled_sssp(
    wg: &WeightedGraph,
    source: NodeId,
    epsilon: f64,
    config: CongestConfig,
) -> Result<ScaledSsspOutcome, SimError> {
    let g = wg.graph();
    assert!(g.n() > 0, "graph must be non-empty");
    assert!(
        traversal::is_connected(g),
        "scaled SSSP requires a connected graph"
    );
    let w_min = wg.weights().iter().copied().min().unwrap_or(1);
    assert!(w_min >= 1, "positive weights required");
    let scale = scale_for(epsilon, w_min);
    let scaled = scale_weights(wg, scale);
    let bfs = build_bfs_tree(g, source, config)?;
    let radius = bfs
        .dist
        .iter()
        .copied()
        .filter(|&d| d != usize::MAX)
        .max()
        .unwrap_or(0);
    let w_max_scaled = scaled.weights().iter().copied().max().unwrap_or(1) as usize;
    let hop_budget = radius.saturating_mul(w_max_scaled).saturating_add(2);
    let flood_config = config.with_max_rounds(config.max_rounds.min(hop_budget));
    let flood = weighted_distance_flood(&scaled, source, dist_value_bits(&scaled), flood_config)?;
    Ok(ScaledSsspOutcome {
        dist: rescale(&flood.dist, scale),
        scale,
        hop_budget,
        flood_stats: flood.stats,
        bfs_stats: bfs.stats,
    })
}

/// Per-part centers: the node of minimum hop eccentricity within the
/// induced part subgraph (ties to the smallest id), except that the part
/// containing `source` is centered at `source` itself so near-source
/// potentials are exact.
pub(crate) fn part_centers(g: &Graph, parts: &Partition, source: NodeId) -> Vec<NodeId> {
    parts
        .parts()
        .iter()
        .map(|part| {
            if part.contains(&source) {
                return source;
            }
            let (sub, map) = g.induced_subgraph(part);
            let mut sorted: Vec<NodeId> = part.clone();
            sorted.sort_unstable();
            let mut best = (usize::MAX, usize::MAX);
            for (local, &global) in sorted.iter().enumerate() {
                let ecc = traversal::bfs(&sub, local).eccentricity();
                if (ecc, global) < best {
                    best = (ecc, global);
                }
                debug_assert_eq!(map[global], Some(local));
            }
            best.1
        })
        .collect()
}

/// Round counts and measured approximation quality of all three tiers on
/// one input, cross-checked against Dijkstra — the E11 row generator.
#[derive(Debug, Clone)]
pub struct SsspComparison {
    /// Exact Bellman–Ford rounds (the baseline).
    pub exact_rounds: usize,
    /// Scaled-tier rounds (BFS + hop-bounded flood).
    pub scaled_rounds: usize,
    /// Measured worst-case stretch of the scaled tier.
    pub scaled_stretch: f64,
    /// Shortcut-tier rounds (ρ flood + phases).
    pub shortcut_rounds: usize,
    /// The analytic construction charge of the shortcut tier.
    pub shortcut_charged: usize,
    /// Measured worst-case stretch of the shortcut tier.
    pub shortcut_stretch: f64,
    /// Phases the shortcut tier used.
    pub shortcut_phases: usize,
    /// Whether the shortcut tier converged within its budget.
    pub shortcut_converged: bool,
}

/// Runs all three tiers plus Dijkstra and cross-checks them: the exact tier
/// must match Dijkstra node for node, and both approximate tiers must stay
/// sound upper bounds.
///
/// # Errors
///
/// Propagates [`SimError`].
///
/// # Panics
///
/// Panics if the exact tier disagrees with Dijkstra or an approximate tier
/// undercuts it (via [`max_stretch`]). The same check also fires when
/// `max_phases` is too small for the shortcut tier's estimates to reach
/// every node Dijkstra reaches: an unreached node shows up as a
/// reachability disagreement.
///
/// The shortcut tier stops at its fixpoint, where the `(1+ε)` bound holds.
/// A run that exhausts `max_phases` first reports
/// `shortcut_converged == false`, and its estimates are then sound upper
/// bounds only: `parts.len() + 2` phases do not always suffice. A budget of
/// `n` always converges, because every phase ends in a Bellman–Ford relax
/// round.
pub fn compare_sssp<B: ShortcutBuilder + Send + 'static>(
    wg: &WeightedGraph,
    source: NodeId,
    parts: &Partition,
    builder: B,
    epsilon: f64,
    max_phases: usize,
    config: CongestConfig,
) -> Result<SsspComparison, SimError> {
    let reference = traversal::dijkstra(wg, source);
    // One session serves all three tiers — the E11 row is itself a
    // plan-once / query-many workload.
    let mut solver = into_sim(
        Solver::builder(wg)
            .parts(PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(builder)
            .config(config)
            .build(),
    )?;
    let exact = into_sim(solver.sssp(source, Tier::Exact))?;
    assert_eq!(
        exact.value.dist, reference.dist,
        "exact tier must match Dijkstra"
    );
    let scaled = into_sim(solver.sssp(source, Tier::Scaled { epsilon }))?;
    let shortcut = into_sim(solver.sssp(
        source,
        Tier::Shortcut {
            epsilon,
            max_phases,
        },
    ))?;
    let (shortcut_phases, shortcut_converged) = match shortcut.value.detail {
        crate::solver::SsspDetail::Shortcut {
            phases, converged, ..
        } => (phases, converged),
        _ => unreachable!("shortcut tier returns shortcut detail"),
    };
    Ok(SsspComparison {
        exact_rounds: exact.stats.simulated_rounds,
        scaled_rounds: scaled.stats.simulated_rounds,
        scaled_stretch: max_stretch(&scaled.value.dist, &reference.dist),
        shortcut_rounds: shortcut.stats.simulated_rounds,
        shortcut_charged: shortcut.stats.charged_construction_rounds,
        shortcut_stretch: max_stretch(&shortcut.value.dist, &reference.dist),
        shortcut_phases,
        shortcut_converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partwise::AggTopology;
    use crate::solver::{PartsStrategy, Solver, Sssp, SsspDetail, Tier};
    use crate::workloads;
    use minex_core::construct::{AutoCappedBuilder, WholeTreeBuilder};
    use minex_core::Shortcut;
    use minex_graphs::{generators, WeightModel};
    use rand::{rngs::StdRng, SeedableRng};

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(192)
            .with_max_rounds(500_000)
    }

    /// One-shot session shortcut-tier SSSP: a fresh Solver per call,
    /// mirroring what the removed `shortcut_sssp` shim used to do.
    fn session_shortcut_sssp<B: ShortcutBuilder + Send + 'static>(
        wg: &WeightedGraph,
        source: NodeId,
        parts: &Partition,
        builder: B,
        epsilon: f64,
        max_phases: usize,
    ) -> Sssp {
        Solver::builder(wg)
            .parts(PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(builder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap()
            .sssp(
                source,
                Tier::Shortcut {
                    epsilon,
                    max_phases,
                },
            )
            .unwrap()
            .value
    }

    #[test]
    fn bellman_ford_matches_dijkstra() {
        let g = generators::triangulated_grid(7, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        let out = bellman_ford_sssp(&wg, 3, cfg(g.n())).unwrap();
        let d = traversal::dijkstra(&wg, 3);
        assert_eq!(out.dist, d.dist);
        assert!(out.stats.rounds > 0);
    }

    #[test]
    fn scale_for_boundaries() {
        assert_eq!(scale_for(0.0, 64), 1);
        assert_eq!(scale_for(0.001, 64), 1);
        assert_eq!(scale_for(0.25, 64), 16);
        assert_eq!(scale_for(1.0, 64), 64);
        assert_eq!(scale_for(0.5, 1), 1);
    }

    #[test]
    fn scale_for_is_exact_beyond_f64_precision() {
        // w_min = 2^60 + 200 is not representable in f64 (the ulp at 2^60
        // is 256): the old `(epsilon * min_weight as f64).floor()` rounded
        // it up to 2^60 + 256 and returned a too-large scale, silently
        // voiding the (1+ε) guarantee. The integer floor is exact.
        let w = (1u64 << 60) + 200;
        assert_eq!(scale_for(1.0, w), w);
        assert_eq!(scale_for(0.5, w), w / 2);
        assert_eq!(scale_for(0.25, w), w / 4);
        // Small-ε precision at the same magnitude: ⌊2^-60 · (2^60+200)⌋ = 1.
        assert_eq!(scale_for((0.5f64).powi(60), w), 1);
        // Clamps at the extremes.
        assert_eq!(scale_for(1e18, u64::MAX), u64::MAX);
        assert_eq!(scale_for(f64::INFINITY, 7), u64::MAX);
        assert_eq!(scale_for(f64::MIN_POSITIVE, u64::MAX), 1);
    }

    #[test]
    fn overflow_adjacent_weights_agree_across_tiers() {
        use minex_graphs::dist::{is_reached, DIST_MAX};
        // A two-hop path whose total weight overflows u64: under the
        // sentinel contract every tier reports the same saturated-but-
        // reached distance (DIST_MAX), never the UNREACHED sentinel.
        let g = generators::path(3);
        let wg = WeightedGraph::new(g, vec![u64::MAX / 2 + 10, u64::MAX / 2 + 10]);
        let d = traversal::dijkstra(&wg, 0);
        assert_eq!(d.dist, vec![0, u64::MAX / 2 + 10, DIST_MAX]);
        let out = bellman_ford_sssp(&wg, 0, cfg(3)).unwrap();
        assert_eq!(out.dist, d.dist);
        assert_eq!(out.parent, d.parent);
        assert!(is_reached(out.dist[2]));
        // Rescaling keeps saturated real paths distinguishable from
        // unreached — the disagreement the old saturating_add-to-MAX code
        // produced.
        assert_eq!(
            rescale(&[DIST_MAX, UNREACHED], 1 << 20),
            vec![DIST_MAX, UNREACHED]
        );
    }

    #[test]
    fn scale_weights_rounds_up() {
        let g = generators::path(4);
        let wg = WeightedGraph::new(g, vec![15, 16, 17]);
        let s = scale_weights(&wg, 16);
        assert_eq!(s.weights(), &[1, 1, 2]);
    }

    #[test]
    fn scaled_sssp_respects_epsilon_bound() {
        let g = generators::triangulated_grid(8, 8);
        let mut rng = StdRng::seed_from_u64(5);
        let wg = WeightModel::Uniform { lo: 64, hi: 512 }.apply(&g, &mut rng);
        let d = traversal::dijkstra(&wg, 0);
        for eps in [0.1, 0.25, 0.5, 1.0] {
            let out = scaled_sssp(&wg, 0, eps, cfg(g.n())).unwrap();
            let stretch = max_stretch(&out.dist, &d.dist);
            assert!(stretch <= 1.0 + eps + 1e-9, "eps={eps}: stretch {stretch}");
            assert!(out.flood_stats.rounds <= out.hop_budget);
        }
        // With epsilon 0 the tier degenerates to exact.
        let out = scaled_sssp(&wg, 0, 0.0, cfg(g.n())).unwrap();
        assert_eq!(out.scale, 1);
        assert_eq!(out.dist, d.dist);
    }

    #[test]
    fn channel_flood_whole_graph_part_is_exact() {
        // One part covering everything: the channel subgraph is all of G, so
        // the flood from a 0-seed computes plain SSSP.
        let g = generators::triangulated_grid(5, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let wg = WeightModel::Uniform { lo: 1, hi: 30 }.apply(&g, &mut rng);
        let parts = Partition::new(&g, vec![(0..g.n()).collect()]).unwrap();
        let shortcut = Shortcut::empty(1);
        let topo = AggTopology::compile(&g, &parts, &shortcut);
        let flood = topo
            .distance_flood(
                &mut minex_congest::Simulator::new(),
                &wg,
                &[(4, 0, 0)],
                24,
                cfg(g.n()),
            )
            .unwrap();
        let d = traversal::dijkstra(&wg, 4);
        for v in 0..g.n() {
            assert_eq!(flood.value(v, 0), Some(d.dist[v]), "node {v}");
        }
        assert!(flood.stats.rounds > 0);
    }

    #[test]
    fn part_centers_prefer_source_and_middles() {
        let g = generators::path(9);
        let parts = Partition::new(&g, vec![(0..4).collect(), (4..9).collect()]).unwrap();
        let centers = part_centers(&g, &parts, 0);
        // Source part centered at the source, the other at its midpoint.
        assert_eq!(centers[0], 0);
        assert_eq!(centers[1], 6);
    }

    #[test]
    fn shortcut_sssp_converges_exactly_on_small_grid() {
        let g = generators::grid(5, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let wg = WeightModel::Uniform { lo: 64, hi: 256 }.apply(&g, &mut rng);
        let parts = workloads::voronoi_parts(&g, 4, &mut rng);
        let d = traversal::dijkstra(&wg, 0);
        // Epsilon 0: exact at convergence.
        let out = session_shortcut_sssp(&wg, 0, &parts, AutoCappedBuilder, 0.0, 40);
        let SsspDetail::Shortcut {
            scale, converged, ..
        } = out.detail
        else {
            panic!("shortcut tier detail");
        };
        assert!(converged, "small grid must converge in 40 phases");
        assert_eq!(scale, 1);
        assert_eq!(out.dist, d.dist);
    }

    #[test]
    fn shortcut_sssp_beats_bellman_ford_on_heavy_hub_wheel() {
        let (wg, parts) = workloads::heavy_hub_wheel(192, 16, 64, 8192);
        let cmp = compare_sssp(
            &wg,
            0,
            &parts,
            minex_core::construct::SteinerBuilder,
            0.5,
            parts.len() + 2,
            cfg(wg.graph().n()),
        )
        .unwrap();
        assert!(
            cmp.shortcut_rounds < cmp.exact_rounds,
            "shortcut {} vs exact {}",
            cmp.shortcut_rounds,
            cmp.exact_rounds
        );
        assert!(
            cmp.shortcut_stretch <= 1.5 + 1e-9,
            "stretch {}",
            cmp.shortcut_stretch
        );
    }

    #[test]
    fn shortcut_sssp_upper_bounds_even_when_truncated() {
        // One phase only: far nodes keep crude (but sound) estimates.
        let (wg, parts) = workloads::heavy_hub_wheel(96, 8, 64, 4096);
        let d = traversal::dijkstra(&wg, 0);
        let out = session_shortcut_sssp(&wg, 0, &parts, WholeTreeBuilder, 0.25, 1);
        let SsspDetail::Shortcut { converged, .. } = out.detail else {
            panic!("shortcut tier detail");
        };
        assert!(!converged);
        for v in 0..wg.graph().n() {
            if out.dist[v] != u64::MAX {
                assert!(out.dist[v] >= d.dist[v], "node {v}");
            }
        }
    }

    #[test]
    fn parts_plus_two_phases_can_stop_short_of_the_fixpoint() {
        // A seeded maze session where `parts + 2` overlay phases end before
        // the fixpoint: the estimates stay sound upper bounds (max_stretch
        // checks them against Dijkstra) but leave the (1+ε) band. A budget
        // of `n` phases reaches the fixpoint, and with it the bound.
        let mut rng = StdRng::seed_from_u64(13);
        let wg = WeightModel::Bimodal {
            light: 64,
            heavy: 8192,
            heavy_permille: 450,
        }
        .apply(&generators::grid(8, 8), &mut rng);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi {
                parts: 4,
                seed: 113,
            })
            .shortcut_builder(minex_core::construct::SteinerBuilder)
            .build()
            .unwrap();
        let d = traversal::dijkstra(&wg, 0);
        let epsilon = 0.25;
        let budget = solver.parts().len() + 2;
        let mut run = |max_phases| {
            let tier = Tier::Shortcut {
                epsilon,
                max_phases,
            };
            let out = solver.sssp(0, tier).unwrap().value;
            let SsspDetail::Shortcut { converged, .. } = out.detail else {
                panic!("shortcut tier detail");
            };
            (converged, max_stretch(&out.dist, &d.dist))
        };
        let (converged, stretch) = run(budget);
        assert!(!converged, "{budget} phases must stop short here");
        assert!(stretch > 1.0 + epsilon, "stretch {stretch}");
        let (converged, stretch) = run(wg.graph().n());
        assert!(converged);
        assert!(stretch <= 1.0 + epsilon + 1e-9, "stretch {stretch}");
    }

    #[test]
    fn single_node_sssp() {
        let g = generators::path(1);
        let wg = WeightedGraph::unit(g.clone());
        let out = bellman_ford_sssp(&wg, 0, cfg(1)).unwrap();
        assert_eq!(out.dist, vec![0]);
        let out = scaled_sssp(&wg, 0, 0.5, cfg(1)).unwrap();
        assert_eq!(out.dist, vec![0]);
        let parts = Partition::new(&g, vec![vec![0]]).unwrap();
        let out = session_shortcut_sssp(&wg, 0, &parts, WholeTreeBuilder, 0.5, 3);
        assert_eq!(out.dist, vec![0]);
        assert!(matches!(
            out.detail,
            SsspDetail::Shortcut {
                converged: true,
                ..
            }
        ));
    }

    #[test]
    fn max_stretch_basics() {
        assert_eq!(max_stretch(&[0, 10, u64::MAX], &[0, 10, u64::MAX]), 1.0);
        assert!((max_stretch(&[0, 15], &[0, 10]) - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "below exact")]
    fn max_stretch_rejects_undercuts() {
        let _ = max_stretch(&[0, 5], &[0, 10]);
    }
}
