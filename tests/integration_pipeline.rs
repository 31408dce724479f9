//! End-to-end pipelines across all crates: generate a family with its
//! structure witness, validate the witness, build shortcuts (both
//! witness-based and structure-oblivious), aggregate, and run MST.

use minex::algo::mst::kruskal;
use minex::algo::partwise::partwise_min_reference;
use minex::algo::workloads;
use minex::congest::CongestConfig;
use minex::core::construct::{
    AutoCappedBuilder, CliqueSumShortcutBuilder, SteinerBuilder, TreewidthBuilder,
};
use minex::core::validate_tree_restricted;
use minex::decomp::{CliqueSumTree, TreeDecomposition};
use minex::graphs::generators::{self, CliqueSumBuilder};
use minex::graphs::{NodeId, WeightModel};
use minex::{PartsStrategy, ShortcutPlan, Solver};
use rand::{rngs::StdRng, SeedableRng};

fn config(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(1_000_000)
}

#[test]
fn planar_pipeline() {
    let g = generators::triangulated_grid(10, 10);
    let mut rng = StdRng::seed_from_u64(1);
    let parts = workloads::voronoi_parts(&g, 10, &mut rng);
    // One session: plan built once, then aggregation and MST served off it.
    let mut session = Solver::for_graph(&g)
        .parts(PartsStrategy::Explicit(parts.clone()))
        .shortcut_builder(AutoCappedBuilder)
        .config(config(g.n()))
        .build()
        .unwrap();
    {
        let plan = session.plan().unwrap();
        validate_tree_restricted(plan.shortcut(), plan.tree()).unwrap();
        let q = plan.quality();
        assert!(
            q.quality <= 4 * q.tree_diameter,
            "quality {} too high",
            q.quality
        );
    }
    // Aggregation agrees with the centralized reference.
    let values: Vec<u64> = (0..g.n() as u64).map(|v| v * 17 % 101).collect();
    let agg = session.partwise_min(&values, 32).unwrap();
    assert_eq!(agg.value.minima, partwise_min_reference(&parts, &values));
    // MST matches Kruskal.
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let mut wsession = Solver::builder(&wg)
        .shortcut_builder(AutoCappedBuilder)
        .config(config(g.n()))
        .build()
        .unwrap();
    let out = wsession.mst().unwrap();
    assert_eq!(out.value.total_weight, kruskal(&wg).1);
}

#[test]
fn clique_sum_pipeline_with_witness() {
    // Chain of Apollonian pieces glued on triangles.
    let mut rng = StdRng::seed_from_u64(9);
    let (piece, _) = generators::apollonian(20, &mut rng);
    let mut builder = CliqueSumBuilder::new(&piece, 3);
    let mut last: Vec<NodeId> = (0..piece.n()).collect();
    for _ in 1..12 {
        let tri = generators::find_cliques(&piece, 3)[0].clone();
        let host: Vec<NodeId> = tri.iter().map(|&i| last[i]).collect();
        last = builder.glue(&piece, &host, &tri).unwrap();
    }
    let (g, record) = builder.build();
    let cst = CliqueSumTree::new(record).unwrap();
    cst.validate(&g).unwrap();
    let folded = cst.fold();
    folded.validate(&cst).unwrap();
    let parts = workloads::voronoi_parts(&g, 12, &mut rng);
    let mut session = Solver::for_graph(&g)
        .parts(PartsStrategy::Explicit(parts.clone()))
        .shortcut_builder(CliqueSumShortcutBuilder::folded(cst, SteinerBuilder))
        .config(config(g.n()))
        .build()
        .unwrap();
    {
        let plan = session.plan().unwrap();
        validate_tree_restricted(plan.shortcut(), plan.tree()).unwrap();
    }
    let values: Vec<u64> = (0..g.n() as u64).rev().collect();
    let agg = session.partwise_min(&values, 32).unwrap();
    assert_eq!(agg.value.minima, partwise_min_reference(&parts, &values));
}

#[test]
fn treewidth_pipeline_with_witness() {
    let mut rng = StdRng::seed_from_u64(5);
    let (g, rec) = generators::partial_k_tree(150, 3, 0.7, &mut rng);
    let td = TreeDecomposition::from_k_tree(g.n(), &rec);
    td.validate(&g).unwrap();
    let builder = TreewidthBuilder::new(&td);
    let parts = workloads::forest_split_parts(&g, 10, &mut rng);
    let plan = ShortcutPlan::build(&g, 0, parts, &builder);
    // (the builder moves into the session below)
    validate_tree_restricted(plan.shortcut(), plan.tree()).unwrap();
    let q = plan.quality();
    // Theorem 5 shape: block O(k) with a generous constant.
    assert!(q.block <= 8 * 4, "block={}", q.block);
    // MST on the same graph via the witness builder.
    let wg = WeightModel::Uniform { lo: 1, hi: 100 }.apply(&g, &mut rng);
    let mut session = Solver::builder(&wg)
        .shortcut_builder(builder)
        .config(config(g.n()))
        .build()
        .unwrap();
    let out = session.mst().unwrap();
    assert_eq!(out.value.total_weight, kruskal(&wg).1);
}

#[test]
fn genus_vortex_pipeline() {
    // Torus + vortex, Lemma 2 splice, shortcuts, aggregation.
    let base = generators::toroidal_grid(5, 10);
    let mut rng = StdRng::seed_from_u64(3);
    let cycle: Vec<NodeId> = (0..10).collect();
    let (g, vortex) = generators::add_vortex(&base, &cycle, 4, 2, &mut rng).unwrap();
    let td = TreeDecomposition::of_toroidal_grid(5, 10).reinsert_vortex(&vortex, None);
    td.validate(&g).unwrap();
    let builder = TreewidthBuilder::new(&td);
    let parts = workloads::voronoi_parts(&g, 8, &mut rng);
    let mut session = Solver::for_graph(&g)
        .parts(PartsStrategy::Explicit(parts.clone()))
        .shortcut_builder(builder)
        .config(config(g.n()))
        .build()
        .unwrap();
    {
        let plan = session.plan().unwrap();
        validate_tree_restricted(plan.shortcut(), plan.tree()).unwrap();
    }
    let values: Vec<u64> = (0..g.n() as u64).collect();
    let agg = session.partwise_min(&values, 32).unwrap();
    assert_eq!(agg.value.minima, partwise_min_reference(&parts, &values));
}

#[test]
fn apex_pipeline() {
    use minex::core::construct::ApexBuilder;
    let base = generators::grid(12, 12);
    let mut rng = StdRng::seed_from_u64(8);
    let (g, apices) = generators::add_random_apices(&base, 2, 0.1, &mut rng);
    let root = apices[0];
    let parts = workloads::forest_split_parts(&g, 9, &mut rng);
    let mut session = Solver::for_graph(&g)
        .parts(PartsStrategy::Explicit(parts.clone()))
        .shortcut_builder(ApexBuilder::new(apices, SteinerBuilder))
        .config(config(g.n()))
        .root(root)
        .build()
        .unwrap();
    {
        let plan = session.plan().unwrap();
        validate_tree_restricted(plan.shortcut(), plan.tree()).unwrap();
    }
    let values: Vec<u64> = (0..g.n() as u64).map(|v| (v * 31) % 997).collect();
    let agg = session.partwise_min(&values, 32).unwrap();
    assert_eq!(agg.value.minima, partwise_min_reference(&parts, &values));
}

#[test]
fn mst_cross_algorithm_agreement() {
    use minex::algo::baselines::{gkp_mst, mst_without_shortcuts};
    let g = generators::cylinder(5, 12);
    let mut rng = StdRng::seed_from_u64(2);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let a = Solver::builder(&wg)
        .shortcut_builder(AutoCappedBuilder)
        .config(config(g.n()))
        .build()
        .unwrap()
        .mst()
        .unwrap();
    let b = gkp_mst(&wg, config(g.n())).unwrap();
    let c = mst_without_shortcuts(&wg, config(g.n())).unwrap();
    let (kedges, kweight) = kruskal(&wg);
    assert_eq!(a.value.total_weight, kweight);
    assert_eq!(b.total_weight, kweight);
    assert_eq!(c.value.total_weight, kweight);
    // Distinct weights: the MST is unique, so the edge sets agree exactly.
    assert_eq!(a.value.edges, kedges);
    assert_eq!(b.edges, kedges);
    assert_eq!(c.value.edges, kedges);
}
