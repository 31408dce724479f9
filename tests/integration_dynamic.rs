//! Dynamic-graph oracle suite (the PR-6 acceptance gate): after any batch
//! of edge mutations, a repaired [`Solver`] session must produce `Report`s
//! **byte-identical** to a Solver built from scratch on the mutated
//! weighted graph — same outputs, same `RunStats`-derived counters, same
//! round counts — for `mst` / `sssp` / `components` / `min_cut`.
//!
//! Also pins the disconnection semantics: deleting a bridge splits the
//! graph, `components()` reflects the split immediately (no stale memos),
//! and plan-dependent queries report [`AlgoError::Disconnected`].

use minex::algo::workloads;
use minex::congest::CongestConfig;
use minex::core::construct::{AutoCappedBuilder, SteinerBuilder};
use minex::graphs::{generators, WeightModel};
use minex::{AlgoError, EdgeMutation, PartsStrategy, Solver, Tier};
use rand::{rngs::StdRng, SeedableRng};

fn cfg(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(2_000_000)
}

/// The oracle: a mutated session and a from-scratch session on the mutated
/// weighted graph must be report-for-report identical.
fn assert_oracle(mutated: &mut Solver, strategy: PartsStrategy, case: &str) {
    let wg = mutated.weighted_graph().clone();
    let mut fresh = Solver::builder(&wg)
        .parts(strategy)
        .shortcut_builder(SteinerBuilder)
        .config(mutated.config())
        .build()
        .unwrap();
    assert_eq!(
        mutated.is_connected(),
        fresh.is_connected(),
        "{case}: connectivity"
    );
    assert_eq!(
        mutated.components().unwrap(),
        fresh.components().unwrap(),
        "{case}: components report"
    );
    if !mutated.is_connected() {
        assert!(matches!(mutated.mst(), Err(AlgoError::Disconnected)));
        return;
    }
    assert_eq!(
        mutated.mst().unwrap(),
        fresh.mst().unwrap(),
        "{case}: mst report"
    );
    assert_eq!(
        mutated.min_cut_with(2, false).unwrap(),
        fresh.min_cut_with(2, false).unwrap(),
        "{case}: min-cut report"
    );
    for source in [0, wg.graph().n() / 2] {
        assert_eq!(
            mutated.sssp(source, Tier::Exact).unwrap(),
            fresh.sssp(source, Tier::Exact).unwrap(),
            "{case}: exact sssp from {source}"
        );
        assert_eq!(
            mutated
                .sssp(
                    source,
                    Tier::Shortcut {
                        epsilon: 0.5,
                        max_phases: 16,
                    },
                )
                .unwrap(),
            fresh
                .sssp(
                    source,
                    Tier::Shortcut {
                        epsilon: 0.5,
                        max_phases: 16,
                    },
                )
                .unwrap(),
            "{case}: shortcut sssp from {source}"
        );
    }
}

#[test]
fn churned_session_reports_match_fresh_solver_across_engines() {
    let g = generators::triangulated_grid(7, 7);
    let mut rng = StdRng::seed_from_u64(21);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let strategy = PartsStrategy::Voronoi { parts: 5, seed: 3 };
    for churn_seed in [1u64, 4] {
        let mut solver = Solver::builder(&wg)
            .parts(strategy.clone())
            .shortcut_builder(SteinerBuilder)
            .config(cfg(g.n()))
            .build()
            .unwrap();
        // Warm every cache the mutation must invalidate.
        solver.plan().unwrap();
        solver.mst().unwrap();
        solver.sssp(0, Tier::Exact).unwrap();
        solver.components().unwrap();
        let mut churn_rng = StdRng::seed_from_u64(churn_seed);
        let stream = workloads::churn_stream(solver.graph(), 24, 500, &mut churn_rng);
        let stats = solver.apply(&stream).unwrap();
        assert_eq!(stats.inserted + stats.deleted, 24);
        assert!(stats.memos_dropped > 0, "warmed memos must be invalidated");
        assert_oracle(
            &mut solver,
            strategy.clone(),
            &format!("churn seed {churn_seed}"),
        );
    }
}

#[test]
fn repair_applies_incrementally_batch_by_batch() {
    // Many small batches through one long-lived session: after each batch
    // the session must still match a fresh build (repair composes).
    let g = generators::grid(9, 9);
    let mut rng = StdRng::seed_from_u64(8);
    let wg = WeightModel::Bimodal {
        light: 64,
        heavy: 8192,
        heavy_permille: 450,
    }
    .apply(&g, &mut rng);
    let strategy = PartsStrategy::Voronoi { parts: 6, seed: 1 };
    let mut solver = Solver::builder(&wg)
        .parts(strategy.clone())
        .shortcut_builder(SteinerBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap();
    solver.plan().unwrap();
    let mut churn_rng = StdRng::seed_from_u64(99);
    for round in 0..6 {
        let stream = workloads::churn_stream(solver.graph(), 4, 500, &mut churn_rng);
        let stats = solver.apply(&stream).unwrap();
        assert!(
            stats.noop || stats.plan_repaired || !stats.connected,
            "round {round}: a cached plan must be repaired, not silently dropped"
        );
        if solver.is_connected() {
            // Steiner repair should mostly reuse parts on sparse churn.
            if stats.plan_repaired && !stats.plan.full_rebuild {
                assert_eq!(
                    stats.plan.parts_rebuilt + stats.plan.parts_reused,
                    stats.plan.parts_total,
                    "round {round}: every part is either rebuilt or reused"
                );
            }
        }
        assert_oracle(&mut solver, strategy.clone(), &format!("round {round}"));
    }
}

#[test]
fn deleting_a_bridge_disconnects_queries_and_reinsert_heals() {
    // A path is all bridges: delete one, the session must immediately
    // report the split (no stale cached results), then heal on re-insert.
    let g = generators::path(12);
    let mut solver = Solver::for_graph(&g)
        .shortcut_builder(AutoCappedBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap();
    // Warm the memos that must NOT survive the cut.
    let connected_components_before = solver.components().unwrap();
    solver.mst().unwrap();
    let stats = solver
        .apply(&[EdgeMutation::Delete { u: 5, v: 6 }])
        .unwrap();
    assert!(!stats.connected);
    assert!(stats.memos_dropped > 0);
    assert!(!solver.is_connected());
    let split = solver.components().unwrap();
    assert_ne!(split, connected_components_before, "stale memo served");
    let labels: std::collections::HashSet<usize> = split.value.label.iter().copied().collect();
    assert_eq!(labels.len(), 2, "split into two");
    assert!(matches!(solver.mst(), Err(AlgoError::Disconnected)));
    assert!(matches!(
        solver.sssp(
            0,
            Tier::Shortcut {
                epsilon: 0.5,
                max_phases: 16
            }
        ),
        Err(AlgoError::Disconnected)
    ));
    // Exact SSSP floods per component: the far side must be unreached.
    let exact = solver.sssp(0, Tier::Exact).unwrap();
    assert!(
        exact.value.dist[6] > exact.value.dist[5],
        "far side beyond the cut"
    );
    // Healing: re-inserting the bridge restores full service.
    let stats = solver
        .apply(&[EdgeMutation::Insert {
            u: 5,
            v: 6,
            weight: 1,
        }])
        .unwrap();
    assert!(stats.connected);
    assert_eq!(
        solver.components().unwrap(),
        connected_components_before,
        "healed graph equals the original"
    );
    solver.mst().unwrap();
}

#[test]
fn explicit_partition_survives_cross_part_churn_and_rejects_part_splits() {
    let g = generators::grid(6, 6);
    let mut rng = StdRng::seed_from_u64(4);
    let parts = workloads::voronoi_parts(&g, 4, &mut rng);
    let strategy = PartsStrategy::Explicit(parts);
    let mut solver = Solver::for_graph(&g)
        .parts(strategy.clone())
        .shortcut_builder(SteinerBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap();
    solver.plan().unwrap();
    // Insert a long chord: endpoints 0 and n-1 are (almost surely) in
    // different parts, so the explicit partition is reused verbatim.
    let stats = solver
        .apply(&[EdgeMutation::Insert {
            u: 0,
            v: g.n() - 1,
            weight: 7,
        }])
        .unwrap();
    assert!(!stats.partition_changed);
    assert_oracle(&mut solver, strategy.clone(), "chord");
}

#[test]
fn churn_over_ktree_family_matches_fresh_solver() {
    let mut gen_rng = StdRng::seed_from_u64(17);
    let (g, _) = generators::partial_k_tree(160, 3, 0.7, &mut gen_rng);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut gen_rng);
    let strategy = PartsStrategy::Voronoi { parts: 8, seed: 2 };
    let mut solver = Solver::builder(&wg)
        .parts(strategy.clone())
        .shortcut_builder(SteinerBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap();
    solver.plan().unwrap();
    let mut churn_rng = StdRng::seed_from_u64(5);
    let stream = workloads::churn_stream(solver.graph(), 16, 600, &mut churn_rng);
    solver.apply(&stream).unwrap();
    assert_oracle(&mut solver, strategy, "k-tree churn");
}
