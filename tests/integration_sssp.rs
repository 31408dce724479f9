//! Integration tests of the SSSP subsystem (E11/E12 acceptance):
//!
//! * the exact tier matches the sequential Dijkstra reference on every
//!   experiment family;
//! * the approximate tiers are sound `(1+ε)` upper bounds;
//! * the shortcut-accelerated tier beats the Bellman–Ford baseline's round
//!   count on planar (wheel) and bounded-treewidth (fan) inputs while
//!   staying within the configured `(1+ε)` distance bound;
//! * round counts are deterministic.

use minex::algo::sssp::{bellman_ford_sssp, compare_sssp, max_stretch, scaled_sssp};
use minex::algo::workloads;
use minex::congest::CongestConfig;
use minex::core::construct::{AutoCappedBuilder, SteinerBuilder};
use minex::graphs::{generators, traversal, WeightModel, WeightedGraph};
use minex::{PartsStrategy, Solver, SsspDetail, Tier};
use rand::{rngs::StdRng, SeedableRng};

fn cfg(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(1_000_000)
}

/// Every experiment family as a weighted SSSP instance.
fn families() -> Vec<(String, WeightedGraph, usize)> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut v: Vec<(String, WeightedGraph, usize)> = Vec::new();
    let g = generators::triangulated_grid(9, 9);
    v.push((
        "tri-grid".into(),
        WeightModel::DistinctShuffled.apply(&g, &mut rng),
        0,
    ));
    let (wg, _) = workloads::maze_grid(10, 10, 5, &mut rng);
    v.push(("maze-grid".into(), wg, 3));
    let (wg, _) = workloads::heavy_hub_wheel(96, 8, 64, 4096);
    v.push(("wheel".into(), wg, 0));
    let (wg, _) = workloads::heavy_hub_fan(96, 8, 64, 4096);
    v.push(("fan".into(), wg, 1));
    let (wg, _) = workloads::maze_apex_grid(8, 4, 4, &mut rng);
    v.push(("apex".into(), wg, 0));
    let g = generators::comb(8, 5);
    v.push((
        "comb".into(),
        WeightModel::Uniform { lo: 64, hi: 512 }.apply(&g, &mut rng),
        2,
    ));
    let (g, _) = generators::k_tree(120, 3, &mut rng);
    v.push((
        "k-tree".into(),
        WeightModel::Uniform { lo: 64, hi: 1024 }.apply(&g, &mut rng),
        7,
    ));
    let comps = vec![generators::triangulated_grid(3, 3), generators::complete(4)];
    let (g, _) = generators::random_clique_sum(&comps, 20, 3, &mut rng);
    v.push((
        "clique-sum".into(),
        WeightModel::Uniform { lo: 64, hi: 1024 }.apply(&g, &mut rng),
        1,
    ));
    v
}

#[test]
fn exact_tier_matches_dijkstra_on_every_family() {
    for (name, wg, src) in families() {
        let out = bellman_ford_sssp(&wg, src, cfg(wg.graph().n())).unwrap();
        let d = traversal::dijkstra(&wg, src);
        assert_eq!(out.dist, d.dist, "family {name}");
    }
}

#[test]
fn scaled_tier_is_within_epsilon_on_every_family() {
    for eps in [0.25, 0.5] {
        for (name, wg, src) in families() {
            let out = scaled_sssp(&wg, src, eps, cfg(wg.graph().n())).unwrap();
            let d = traversal::dijkstra(&wg, src);
            let stretch = max_stretch(&out.dist, &d.dist);
            assert!(
                stretch <= 1.0 + eps + 1e-9,
                "family {name}: stretch {stretch} vs eps {eps}"
            );
            assert!(out.flood_stats.rounds <= out.hop_budget, "family {name}");
        }
    }
}

#[test]
fn shortcut_tier_beats_bellman_ford_on_planar_wheel() {
    // Planar input: the heavy-hub wheel, the paper's own motivating shape.
    let eps = 0.5;
    for (n, seg) in [(192usize, 16usize), (256, 16)] {
        let (wg, parts) = workloads::heavy_hub_wheel(n, seg, 64, 8192);
        let cmp =
            compare_sssp(&wg, 0, &parts, SteinerBuilder, eps, parts.len() + 2, cfg(n)).unwrap();
        assert!(
            cmp.shortcut_rounds < cmp.exact_rounds,
            "wheel({n},{seg}): shortcut {} vs bellman-ford {}",
            cmp.shortcut_rounds,
            cmp.exact_rounds
        );
        assert!(
            cmp.shortcut_stretch <= 1.0 + eps + 1e-9,
            "wheel({n},{seg}): stretch {} vs eps {eps}",
            cmp.shortcut_stretch
        );
    }
}

#[test]
fn shortcut_tier_beats_bellman_ford_on_bounded_treewidth_fan() {
    // Bounded-treewidth input: the outerplanar fan has treewidth 2.
    let eps = 0.5;
    for (n, seg) in [(192usize, 16usize), (256, 16)] {
        let (wg, parts) = workloads::heavy_hub_fan(n, seg, 64, 8192);
        let cmp =
            compare_sssp(&wg, 1, &parts, SteinerBuilder, eps, parts.len() + 2, cfg(n)).unwrap();
        assert!(
            cmp.shortcut_rounds < cmp.exact_rounds,
            "fan({n},{seg}): shortcut {} vs bellman-ford {}",
            cmp.shortcut_rounds,
            cmp.exact_rounds
        );
        assert!(
            cmp.shortcut_stretch <= 1.0 + eps + 1e-9,
            "fan({n},{seg}): stretch {} vs eps {eps}",
            cmp.shortcut_stretch
        );
    }
}

#[test]
fn shortcut_tier_converges_to_exact_distances_with_generous_budget() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::grid(7, 7);
    let wg = WeightModel::Uniform { lo: 64, hi: 640 }.apply(&g, &mut rng);
    let parts = workloads::voronoi_parts(&g, 5, &mut rng);
    let out = Solver::builder(&wg)
        .parts(PartsStrategy::Explicit(parts))
        .shortcut_builder(AutoCappedBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap()
        .sssp(
            0,
            Tier::Shortcut {
                epsilon: 0.0,
                max_phases: 4 * g.n(),
            },
        )
        .unwrap();
    assert!(matches!(
        out.value.detail,
        SsspDetail::Shortcut {
            converged: true,
            ..
        }
    ));
    let d = traversal::dijkstra(&wg, 0);
    assert_eq!(
        out.value.dist, d.dist,
        "epsilon 0 + convergence means exact"
    );
}

#[test]
fn round_counts_are_deterministic_across_runs() {
    let (wg, parts) = workloads::heavy_hub_wheel(128, 16, 64, 8192);
    let run = || {
        compare_sssp(
            &wg,
            0,
            &parts,
            SteinerBuilder,
            0.5,
            parts.len() + 2,
            cfg(128),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.exact_rounds, b.exact_rounds);
    assert_eq!(a.scaled_rounds, b.scaled_rounds);
    assert_eq!(a.shortcut_rounds, b.shortcut_rounds);
    assert_eq!(a.shortcut_phases, b.shortcut_phases);
    assert!(a.shortcut_stretch == b.shortcut_stretch);
}

#[test]
fn facade_exposes_the_sssp_surface() {
    // The facade path works end to end, including the new workloads and the
    // root-level `minex::Solver` re-export.
    let g = minex::graphs::generators::comb(4, 3);
    let wg = minex::graphs::WeightedGraph::unit(g.clone());
    let out = minex::Solver::builder(&wg)
        .parts(minex::PartsStrategy::Whole)
        .shortcut_builder(SteinerBuilder)
        .config(CongestConfig::for_nodes(g.n()))
        .build()
        .unwrap()
        .sssp(
            0,
            minex::Tier::Shortcut {
                epsilon: 0.5,
                max_phases: 8,
            },
        )
        .unwrap();
    let d = minex::graphs::traversal::dijkstra(&wg, 0);
    assert!(matches!(
        out.value.detail,
        minex::SsspDetail::Shortcut {
            converged: true,
            ..
        }
    ));
    assert_eq!(out.value.dist, d.dist, "unit weights: scale 1, exact");
}
