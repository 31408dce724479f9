//! Solver session-reuse equivalence suite (the PR-4 acceptance gate,
//! re-anchored after the legacy shims were removed): every query served
//! from a warm session's cached plan must be **byte-identical** — same
//! outputs, same `RunStats`-derived counters, same round counts — to the
//! same query on a session built fresh for it, and repeated queries on one
//! session must return identical reports (plan reuse and result
//! memoization must never change results). The SSSP exact/scaled tiers are additionally pinned to
//! their standalone reference implementations (`bellman_ford_sssp`,
//! `scaled_sssp`), which remain public non-session entry points.

use minex::algo::mincut::stoer_wagner;
use minex::algo::sssp::{bellman_ford_sssp, scaled_sssp};
use minex::algo::workloads;
use minex::congest::CongestConfig;
use minex::core::construct::{AutoCappedBuilder, SteinerBuilder};
use minex::graphs::{generators, Graph, GraphBuilder, WeightModel, WeightedGraph};
use minex::{AlgoError, PartsStrategy, Solver, SsspDetail, Tier};
use rand::{rngs::StdRng, SeedableRng};

fn cfg(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(2_000_000)
}

#[test]
fn mst_is_byte_identical_to_a_fresh_session_across_engines_and_repeats() {
    let g = generators::triangulated_grid(8, 8);
    let mut rng = StdRng::seed_from_u64(7);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let config = cfg(g.n());
    let build = || {
        Solver::builder(&wg)
            .shortcut_builder(AutoCappedBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let fresh = build().mst().unwrap();
    let mut solver = build();
    let first = solver.mst().unwrap();
    let second = solver.mst().unwrap();
    assert_eq!(first, second, "repeat must be identical");
    assert_eq!(first, fresh, "warm ≡ fresh");
    assert_eq!(first.value.edges.len(), g.n() - 1);
    // Per-run accounting keeps the per-phase candidate/relabel split.
    let candidate_rounds: Vec<usize> = first
        .stats
        .runs
        .iter()
        .filter(|r| r.tags.subphase == "candidate")
        .map(|r| r.stats.rounds)
        .collect();
    assert_eq!(candidate_rounds.len(), first.value.boruvka_phases);
    assert_eq!(
        candidate_rounds.iter().sum::<usize>()
            + first
                .stats
                .runs
                .iter()
                .filter(|r| r.tags.subphase != "candidate")
                .map(|r| r.stats.rounds)
                .sum::<usize>(),
        first.stats.simulated_rounds
    );
}

#[test]
fn partwise_min_is_byte_identical_to_a_fresh_session_across_engines_and_repeats() {
    let (g, parts) = workloads::wheel_rim_parts(65, 8);
    let values: Vec<u64> = (0..g.n() as u64).rev().collect();
    let config = cfg(g.n());
    let build = || {
        Solver::for_graph(&g)
            .parts(PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let fresh = build().partwise_min(&values, 32).unwrap();
    let mut solver = build();
    // Both sessions must have planned the identical shortcut.
    assert_eq!(
        solver.plan().unwrap().shortcut(),
        build().plan().unwrap().shortcut()
    );
    let first = solver.partwise_min(&values, 32).unwrap();
    let second = solver.partwise_min(&values, 32).unwrap();
    assert_eq!(first, second, "repeat must be identical");
    assert_eq!(first, fresh, "warm ≡ fresh");
    assert_eq!(first.stats.runs.len(), 1);
    assert_eq!(
        first.stats.runs[0].stats.rounds,
        first.stats.simulated_rounds
    );
}

#[test]
fn sssp_tiers_are_byte_identical_to_references_across_engines_and_repeats() {
    let (wg, parts) = workloads::heavy_hub_wheel(128, 16, 64, 8192);
    let n = wg.graph().n();
    let budget = parts.len() + 2;
    let config = cfg(n);
    let build = || {
        Solver::builder(&wg)
            .parts(PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let mut solver = build();

    // Exact tier ≡ the standalone Bellman–Ford reference.
    let reference = bellman_ford_sssp(&wg, 0, config).unwrap();
    let exact = solver.sssp(0, Tier::Exact).unwrap();
    assert_eq!(exact, solver.sssp(0, Tier::Exact).unwrap());
    assert_eq!(exact.value.dist, reference.dist);
    assert_eq!(
        exact.value.detail,
        SsspDetail::Exact {
            parent: reference.parent.clone()
        }
    );
    assert_eq!(exact.stats.simulated_rounds, reference.stats.rounds);
    assert_eq!(exact.stats.runs[0].stats, reference.stats);

    // Scaled tier ≡ the standalone scaled reference.
    let reference = scaled_sssp(&wg, 0, 0.5, config).unwrap();
    let scaled = solver.sssp(0, Tier::Scaled { epsilon: 0.5 }).unwrap();
    assert_eq!(
        scaled,
        solver.sssp(0, Tier::Scaled { epsilon: 0.5 }).unwrap()
    );
    assert_eq!(scaled.value.dist, reference.dist);
    assert_eq!(
        scaled.value.detail,
        SsspDetail::Scaled {
            scale: reference.scale,
            hop_budget: reference.hop_budget
        }
    );
    assert_eq!(
        scaled.stats.simulated_rounds,
        reference.bfs_stats.rounds + reference.flood_stats.rounds
    );
    assert_eq!(scaled.stats.runs[0].stats, reference.bfs_stats);
    assert_eq!(scaled.stats.runs[1].stats, reference.flood_stats);

    // Shortcut tier ≡ the same query on a session built fresh for it.
    let tier = Tier::Shortcut {
        epsilon: 0.5,
        max_phases: budget,
    };
    let fresh = build().sssp(0, tier).unwrap();
    let short = solver.sssp(0, tier).unwrap();
    assert_eq!(short, solver.sssp(0, tier).unwrap());
    assert_eq!(short, fresh, "warm ≡ fresh");
    assert!(
        matches!(short.value.detail, SsspDetail::Shortcut { .. }),
        "shortcut tier must report shortcut detail, got {:?}",
        short.value.detail
    );
}

#[test]
fn min_cut_is_byte_identical_to_a_fresh_session_across_engines_and_repeats() {
    let g = generators::toroidal_grid(5, 5);
    let wg = WeightedGraph::unit(g);
    let n = wg.graph().n();
    let config = cfg(n);
    let build = || {
        Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let fresh = build().min_cut(4).unwrap();
    let mut solver = build();
    let first = solver.min_cut(4).unwrap();
    let second = solver.min_cut(4).unwrap();
    assert_eq!(first, second, "repeat must be identical");
    assert_eq!(first, fresh, "warm ≡ fresh");
    assert!(first.value.approx_value >= first.value.exact_value);
    assert_eq!(first.value.exact_value, stoer_wagner(&wg));
    assert_eq!(first.value.trees, 4);
}

/// Tier-2 scale leg (`#[ignore]`; the scheduled scale job runs it with
/// `cargo test --release -q -- --ignored`): a fresh min-cut's exact value
/// at n = 44,944, where a dense `n × n` weight matrix would need 16 GB.
/// Bringing one back into the query path fails this test rather than
/// slowing it down.
#[test]
#[ignore = "tier-2 scale leg (seconds in release); run with cargo test --release -- --ignored"]
fn fresh_min_cut_on_a_45k_node_tri_grid_needs_no_dense_matrix() {
    let g = generators::triangulated_grid(212, 212);
    assert_eq!(g.n(), 44_944);
    let cut = Solver::for_graph(&g)
        .shortcut_builder(SteinerBuilder)
        .config(cfg(g.n()))
        .build()
        .unwrap()
        .min_cut_with(1, false)
        .unwrap()
        .value;
    assert_eq!((cut.exact_value, cut.approx_value), (2, 2));
}

/// Tier-2 scale leg (`#[ignore]`; the scheduled scale job runs it with
/// `cargo test --release -q -- --ignored`): the CSR graph core carries a
/// **million-node** planar instance end to end through the session API.
///
/// Shortcut-SSSP runs at `n = 10⁶` (triangulated grid built by the
/// streaming CSR constructor, BFS spanning tree, Steiner shortcuts over 64
/// block parts, ρ-potential flood, capped relax phases — every layer of
/// the stack touches the million-node graph), and its distances are sound
/// upper bounds on Dijkstra's. Borůvka MST rides at `128×128`: its
/// singleton opening phase is inherently `Θ(n)` *simulated rounds*, so a
/// million-node MST measures the simulated algorithm's round complexity,
/// not the graph core.
#[test]
#[ignore = "tier-2 scale leg (~minutes in release); run with cargo test --release -- --ignored"]
fn million_node_tri_grid_sssp_is_sound() {
    use minex::graphs::traversal;
    use rand::RngExt;

    let side = 1000usize;
    let g = generators::triangulated_grid(side, side);
    assert_eq!(g.n(), 1_000_000);
    let mut rng = StdRng::seed_from_u64(42);
    let weights: Vec<u64> = (0..g.m()).map(|_| 1 + rng.random_range(0..64u64)).collect();
    let wg = WeightedGraph::new(g, weights);
    let g = wg.graph();
    // 64 square block parts of side 32, spread over an 8×8 macro-lattice.
    // Blocks are connected, disjoint, and deliberately non-covering: the
    // part machinery tolerates unassigned nodes, and partial coverage keeps
    // the Steiner construction linear in covered nodes.
    let blocks: Vec<Vec<usize>> = (0..64)
        .map(|b| {
            let (r0, c0) = ((b % 8) * 124, (b / 8) * 124);
            (0..32)
                .flat_map(|dr| (0..32).map(move |dc| (r0 + dr) * side + c0 + dc))
                .collect()
        })
        .collect();
    let n = g.n();
    // The graph-core acceptance bar: at 10⁶ nodes the nested-Vec baseline
    // is fully out of cache and the CSR neighbor sweep must win ≥ 2×
    // (measured ~3.6× here; quick-mode E15 rows assert softer floors at
    // cache-boundary sizes).
    let speedup = minex_bench::neighbor_sweep_speedup(g, 3);
    assert!(speedup >= 2.0, "million-node CSR sweep speedup {speedup}");
    let sssp = Solver::builder(&wg)
        .parts(PartsStrategy::Explicit(
            minex::core::Partition::new(g, blocks).expect("blocks are connected"),
        ))
        .shortcut_builder(SteinerBuilder)
        .config(cfg(n))
        .build()
        .unwrap()
        .sssp(
            0,
            Tier::Shortcut {
                epsilon: 0.5,
                max_phases: 3,
            },
        )
        .unwrap();
    assert!(sssp.stats.simulated_rounds > 0);
    // Soundness against sequential Dijkstra: the shortcut tier produces
    // upper bounds, exact at the source.
    let exact = traversal::dijkstra(&wg, 0);
    assert_eq!(sssp.value.dist[0], 0);
    for v in 0..n {
        assert!(
            sssp.value.dist[v] >= exact.dist[v],
            "node {v}: {} < exact {}",
            sssp.value.dist[v],
            exact.dist[v]
        );
    }

    // MST leg at 128×128.
    let g2 = generators::triangulated_grid(128, 128);
    let mut rng = StdRng::seed_from_u64(7);
    let wg2 = WeightModel::DistinctShuffled.apply(&g2, &mut rng);
    let mst = Solver::builder(&wg2)
        .shortcut_builder(SteinerBuilder)
        .config(cfg(g2.n()))
        .build()
        .unwrap()
        .mst()
        .unwrap();
    assert_eq!(mst.value.edges.len(), g2.n() - 1);
}

/// Nightly guard (`#[ignore]`; the scheduled scale job runs it with
/// `cargo test --release -q -- --ignored`): the default builder's sweep
/// must stay cheap next to a plain Steiner build. A fresh-session MST on a
/// 64 × 64 tri-grid (uniform weights 1–1,000, 16 Voronoi parts) with
/// `AutoCappedBuilder` returns the same MST as with `SteinerBuilder` and
/// takes at most 1.5× its time: best of 3 each, up to three attempts.
/// Rebuilding the Steiner shortcut, load table and quality for every cap
/// of the sweep took 1.7–2.0× on a 2-vCPU host. The timing is skipped on
/// debug builds and under `MINEX_SKIP_TIMING_ASSERTS`.
#[test]
#[ignore = "nightly timing guard (~1 s in release); run with cargo test --release -- --ignored"]
fn fresh_auto_capped_mst_stays_within_1_5x_of_steiner() {
    use minex::core::construct::ShortcutBuilder;
    use minex::Mst;
    use std::time::Instant;

    fn fresh_mst<B: ShortcutBuilder + Send + 'static>(
        wg: &WeightedGraph,
        builder: B,
    ) -> (Mst, f64) {
        // minex-lint: allow(D002) timing the two builders is this guard's purpose
        let start = Instant::now();
        let mst = Solver::builder(wg)
            .parts(PartsStrategy::Voronoi { parts: 16, seed: 4 })
            .shortcut_builder(builder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap()
            .mst()
            .unwrap();
        (mst.value, start.elapsed().as_secs_f64())
    }

    let g = generators::triangulated_grid(64, 64);
    let mut rng = StdRng::seed_from_u64(4);
    let wg = WeightModel::Uniform { lo: 1, hi: 1_000 }.apply(&g, &mut rng);
    let (auto, _) = fresh_mst(&wg, AutoCappedBuilder);
    let (steiner, _) = fresh_mst(&wg, SteinerBuilder);
    assert_eq!(auto, steiner, "the builder must not change the MST");
    assert_eq!(auto.edges.len(), g.n() - 1);
    if std::env::var_os("MINEX_SKIP_TIMING_ASSERTS").is_some() || cfg!(debug_assertions) {
        return;
    }
    let best_of_3 = |time: &dyn Fn() -> f64| (0..3).map(|_| time()).fold(f64::INFINITY, f64::min);
    let attempt = || {
        let auto = best_of_3(&|| fresh_mst(&wg, AutoCappedBuilder).1);
        let steiner = best_of_3(&|| fresh_mst(&wg, SteinerBuilder).1);
        eprintln!("fresh MST: auto-capped {auto:.3} s, steiner {steiner:.3} s");
        auto <= 1.5 * steiner
    };
    assert!(
        attempt() || attempt() || attempt(),
        "AutoCapped MST over 1.5x the Steiner MST in three attempts"
    );
}

#[test]
fn components_are_byte_identical_to_a_fresh_session_across_engines_and_repeats() {
    // Two cycles + an isolated node: the disconnected case the session
    // must serve without a panic.
    let mut b = GraphBuilder::new(11);
    for i in 0..5 {
        b.add_edge(i, (i + 1) % 5).unwrap();
    }
    for i in 0..5 {
        b.add_edge(5 + i, 5 + (i + 1) % 5).unwrap();
    }
    let g = b.build();
    let config = cfg(g.n());
    let build = || {
        Solver::for_graph(&g)
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let fresh = build().components().unwrap();
    let mut solver = build();
    let first = solver.components().unwrap();
    let second = solver.components().unwrap();
    assert_eq!(first, second, "repeat must be identical");
    assert_eq!(first, fresh, "warm ≡ fresh");
    // Agrees with the centralized component labelling.
    let (comp, _) = minex::graphs::traversal::components(&g);
    for v in 0..g.n() {
        for w in 0..g.n() {
            assert_eq!(
                comp[v] == comp[w],
                first.value.label[v] == first.value.label[w]
            );
        }
    }
}

#[test]
fn interleaved_queries_do_not_perturb_each_other() {
    // Plan reuse across *mixed* queries: interleaving MST, SSSP, min-cut,
    // and aggregations must give the same answers as asking each alone.
    let g = generators::triangulated_grid(7, 7);
    let mut rng = StdRng::seed_from_u64(12);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let config = cfg(g.n());
    let build = || {
        Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 6, seed: 3 })
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .unwrap()
    };
    let values: Vec<u64> = (0..g.n() as u64).map(|v| v * 13 % 997).collect();
    // Fresh session per query type…
    let mst_alone = build().mst().unwrap();
    let cut_alone = build().min_cut(2).unwrap();
    let sssp_alone = build()
        .sssp(
            5,
            Tier::Shortcut {
                epsilon: 0.25,
                max_phases: 40,
            },
        )
        .unwrap();
    let agg_alone = build().partwise_min(&values, 32).unwrap();
    // …versus one session serving everything, twice over.
    let mut session = build();
    for _ in 0..2 {
        assert_eq!(session.mst().unwrap(), mst_alone);
        assert_eq!(session.min_cut(2).unwrap(), cut_alone);
        assert_eq!(
            session
                .sssp(
                    5,
                    Tier::Shortcut {
                        epsilon: 0.25,
                        max_phases: 40
                    }
                )
                .unwrap(),
            sssp_alone
        );
        assert_eq!(session.partwise_min(&values, 32).unwrap(), agg_alone);
    }
}

#[test]
fn structural_errors_are_values_through_the_facade() {
    let empty = Graph::from_edges(0, std::iter::empty()).unwrap();
    let mut s = Solver::for_graph(&empty).build().unwrap();
    assert_eq!(s.mst().unwrap_err(), AlgoError::EmptyGraph);

    let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
    let mut s = Solver::for_graph(&disconnected).build().unwrap();
    assert_eq!(s.mst().unwrap_err(), AlgoError::Disconnected);
    assert_eq!(s.min_cut(1).unwrap_err(), AlgoError::Disconnected);
    assert_eq!(
        s.sssp(0, Tier::Scaled { epsilon: 0.5 }).unwrap_err(),
        AlgoError::Disconnected
    );
    // Errors display and chain like proper std errors.
    let err = s.mst().unwrap_err();
    assert_eq!(err.to_string(), "graph must be connected");
    assert!(std::error::Error::source(&err).is_none());
}
