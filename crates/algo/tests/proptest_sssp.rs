//! Property tests of the SSSP tiers on randomized instances: the exact tier
//! must match Dijkstra node for node, the approximate tiers must stay sound
//! `(1+ε)` upper bounds, and round counts must be deterministic.

use proptest::prelude::*;

use minex_algo::solver::{PartsStrategy, Solver, SsspDetail, Tier};
use minex_algo::sssp::{bellman_ford_sssp, compare_sssp, max_stretch, scaled_sssp};
use minex_algo::workloads;
use minex_congest::CongestConfig;
use minex_core::construct::{AutoCappedBuilder, SteinerBuilder};
use minex_graphs::{generators, traversal, WeightModel};
use rand::{rngs::StdRng, SeedableRng};

fn cfg(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(1_000_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exact_tier_matches_dijkstra(n in 8usize..60, extra in 0usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng);
        let wg = WeightModel::Uniform { lo: 1, hi: 900 }.apply(&g, &mut rng);
        let src = (seed as usize) % n;
        let out = bellman_ford_sssp(&wg, src, cfg(n)).unwrap();
        let d = traversal::dijkstra(&wg, src);
        prop_assert_eq!(out.dist, d.dist);
    }

    #[test]
    fn scaled_tier_respects_epsilon(n in 8usize..50, seed in 0u64..500, eps_c in 1usize..8) {
        let eps = eps_c as f64 / 4.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, n / 2, &mut rng);
        let wg = WeightModel::Uniform { lo: 32, hi: 4096 }.apply(&g, &mut rng);
        let src = (seed as usize) % n;
        let out = scaled_sssp(&wg, src, eps, cfg(n)).unwrap();
        let d = traversal::dijkstra(&wg, src);
        // max_stretch panics if an estimate undercuts the exact distance.
        let stretch = max_stretch(&out.dist, &d.dist);
        prop_assert!(stretch <= 1.0 + eps + 1e-9, "stretch {} for eps {}", stretch, eps);
        prop_assert!(out.flood_stats.rounds <= out.hop_budget);
    }

    #[test]
    fn shortcut_tier_is_sound_and_converges_to_epsilon(
        side in 4usize..8, k in 2usize..6, seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::grid(side, side);
        let wg = WeightModel::Uniform { lo: 32, hi: 1024 }.apply(&g, &mut rng);
        let parts = workloads::voronoi_parts(&g, k, &mut rng);
        let src = (seed as usize) % g.n();
        let eps = 0.25;
        // A generous budget so small grids reach the fixpoint.
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Explicit(parts))
            .shortcut_builder(AutoCappedBuilder)
            .config(cfg(g.n()))
            .build()
            .unwrap();
        let out = solver
            .sssp(src, Tier::Shortcut { epsilon: eps, max_phases: 4 * g.n() })
            .unwrap();
        let d = traversal::dijkstra(&wg, src);
        let stretch = max_stretch(&out.value.dist, &d.dist);
        let converged = matches!(out.value.detail, SsspDetail::Shortcut { converged: true, .. });
        prop_assert!(converged, "grid {}x{} must converge", side, side);
        // Converged means scaled-exact, so the scaling bound applies.
        prop_assert!(stretch <= 1.0 + eps + 1e-9, "stretch {}", stretch);
    }

    #[test]
    fn round_counts_are_deterministic(n in 64usize..200, seed in 0u64..300) {
        let seg = 8 + (seed as usize) % 8;
        let (wg, parts) = workloads::heavy_hub_wheel(n, seg, 64, 4096);
        let src = (seed as usize) % (n - 1);
        let run = || {
            compare_sssp(
                &wg,
                src,
                &parts,
                SteinerBuilder,
                0.5,
                parts.len() + 2,
                cfg(n),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.exact_rounds, b.exact_rounds);
        prop_assert_eq!(a.scaled_rounds, b.scaled_rounds);
        prop_assert_eq!(a.shortcut_rounds, b.shortcut_rounds);
        prop_assert_eq!(a.shortcut_phases, b.shortcut_phases);
        prop_assert!(a.scaled_stretch == b.scaled_stretch);
        prop_assert!(a.shortcut_stretch == b.shortcut_stretch);
    }
}
