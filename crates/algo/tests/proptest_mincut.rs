//! Differential test of the exact min-cut: Nagamochi–Ono–Ibaraki
//! contraction (`exact_min_cut`) must equal the Stoer–Wagner reference on
//! random, k-tree, two-cluster and structured graphs under every weight
//! model.

use proptest::prelude::*;

use minex_algo::mincut::{exact_min_cut, stoer_wagner};
use minex_graphs::{generators, Graph, GraphBuilder, WeightModel};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Unit weights (many tied cuts), narrow and wide uniform ranges, all
/// distinct, and the maze's light/heavy mix.
const MODELS: [WeightModel; 5] = [
    WeightModel::Unit,
    WeightModel::Uniform { lo: 1, hi: 3 },
    WeightModel::Uniform { lo: 1, hi: 1000 },
    WeightModel::DistinctShuffled,
    WeightModel::Bimodal {
        light: 64,
        heavy: 8192,
        heavy_permille: 450,
    },
];

/// Asserts the two exact algorithms agree on `g` under every model.
fn check_all_models(g: &Graph, rng: &mut StdRng) {
    for model in MODELS {
        let wg = model.apply(g, rng);
        assert_eq!(
            exact_min_cut(&wg),
            stoer_wagner(&wg),
            "n={} m={} {model:?} weights={:?}",
            g.n(),
            g.m(),
            wg.weights()
        );
    }
}

/// Two random connected clusters joined by `bridges` random edges. On most
/// of these the minimum cut splits the clusters rather than cutting off one
/// node, so a contraction that merges across a light cut shows.
fn two_clusters(a: usize, b: usize, bridges: usize, rng: &mut StdRng) -> Graph {
    let left = generators::random_connected(a, 3 * a, rng);
    let right = generators::random_connected(b, 3 * b, rng);
    let mut builder = GraphBuilder::new(a + b);
    let halves = left.edges().map(|(_, u, v)| (u, v));
    let halves = halves.chain(right.edges().map(|(_, u, v)| (a + u, a + v)));
    for (u, v) in halves.collect::<Vec<_>>() {
        builder.add_edge(u, v).expect("edges join distinct nodes");
    }
    for _ in 0..bridges {
        let (u, v) = (rng.random_range(0..a), a + rng.random_range(0..b));
        builder.add_edge(u, v).expect("edges join distinct nodes");
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_stoer_wagner_on_random_connected_graphs(
        n in 2usize..40, extra in 0usize..120, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra % (3 * n), &mut rng);
        check_all_models(&g, &mut rng);
    }

    #[test]
    fn matches_stoer_wagner_on_two_clusters(
        a in 3usize..20, b in 3usize..20, bridges in 1usize..6, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = two_clusters(a, b, bridges, &mut rng);
        check_all_models(&g, &mut rng);
    }

    #[test]
    fn matches_stoer_wagner_on_k_trees(
        k in 2usize..9, extra in 1usize..32, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::k_tree(k + extra, k, &mut rng);
        check_all_models(&g, &mut rng);
    }
}

#[test]
fn matches_stoer_wagner_on_structured_graphs() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut graphs = vec![generators::path(2)];
    for side in 2..8 {
        graphs.push(generators::grid(side, side + 1));
        graphs.push(generators::triangulated_grid(side, side));
    }
    for n in [3, 4, 7, 16, 33] {
        graphs.push(generators::cycle(n));
        graphs.push(generators::complete(n.min(12)));
        graphs.push(generators::path(n));
    }
    for g in &graphs {
        check_all_models(g, &mut rng);
    }
}
