//! Churn leg of the differential property battery: a [`DeltaGraph`]
//! staging set driven by random mutation sequences against a plain sorted
//! edge-set model.
//!
//! A random mix of valid inserts, valid deletes, and *invalid* operations
//! (duplicate inserts, deletes of missing edges — which must error and
//! leave the staged set unchanged) runs on both. After every step `m()`
//! must equal the model's size and [`DeltaGraph::snapshot`] must equal
//! `Graph::from_edges` on the model byte for byte (same edge ids).

use std::collections::BTreeSet;

use proptest::prelude::*;

use minex_graphs::{DeltaGraph, EdgeMutation, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Random initial edge list over `n` nodes (canonicalized, deduplicated).
fn seed_edges(n: usize, raw: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    let mut set = BTreeSet::new();
    if n < 2 {
        return Vec::new();
    }
    for _ in 0..raw {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            set.insert((u.min(v), u.max(v)));
        }
    }
    set.into_iter().collect()
}

/// One random churn step against model + staging set, keeping them in
/// lockstep. Roughly a third of the steps attempt an *invalid* operation
/// and assert the staging set rejects it without changing.
fn churn_step(dg: &mut DeltaGraph, model: &mut BTreeSet<(NodeId, NodeId)>, rng: &mut StdRng) {
    let n = dg.n();
    let pick_pair = |rng: &mut StdRng| {
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n);
        if u == v {
            v = (v + 1) % n;
        }
        (u.min(v), u.max(v))
    };
    match rng.random_range(0..6u32) {
        // Valid insert of an absent pair (rejection-sampled; give up and
        // skip the step if the graph is locally dense).
        0 | 1 => {
            for _ in 0..32 {
                let (u, v) = pick_pair(rng);
                if !model.contains(&(u, v)) {
                    dg.insert_edge(u, v).expect("absent pair inserts");
                    model.insert((u, v));
                    break;
                }
            }
        }
        // Valid delete of a live edge.
        2 | 3 => {
            if !model.is_empty() {
                let i = rng.random_range(0..model.len());
                let &(u, v) = model.iter().nth(i).expect("index in range");
                dg.delete_edge(u, v).expect("live edge deletes");
                model.remove(&(u, v));
            }
        }
        // Invalid insert: a pair that is already live must be rejected
        // and leave the staged set untouched.
        4 => {
            if !model.is_empty() {
                let i = rng.random_range(0..model.len());
                let &(u, v) = model.iter().nth(i).expect("index in range");
                let before = dg.snapshot();
                assert!(dg.insert_edge(v, u).is_err(), "duplicate insert must fail");
                assert_eq!(dg.snapshot(), before, "failed insert must not stage");
            }
        }
        // Invalid delete: an absent pair must be rejected.
        _ => {
            for _ in 0..32 {
                let (u, v) = pick_pair(rng);
                if !model.contains(&(u, v)) {
                    let before = dg.snapshot();
                    assert!(dg.delete_edge(u, v).is_err(), "missing delete must fail");
                    assert_eq!(dg.snapshot(), before, "failed delete must not stage");
                    break;
                }
            }
        }
    }
}

/// The staging set agrees with the model: same live edge count, and the
/// snapshot is the canonical CSR of the model's edge set.
fn assert_agrees(dg: &DeltaGraph, model: &BTreeSet<(NodeId, NodeId)>) {
    assert_eq!(dg.m(), model.len(), "live edge count");
    let rebuilt = Graph::from_edges(dg.n(), model.iter().copied()).expect("model is valid");
    assert_eq!(dg.snapshot(), rebuilt, "snapshot == from-scratch rebuild");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random mutation sequences: the staging set agrees with the model
    /// after every mutation, across tombstoned, resurrected and buffered
    /// edges.
    #[test]
    fn churn_agrees_with_reference(n in 2usize..40, raw in 0usize..120,
                                   steps in 1usize..60, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = seed_edges(n, raw, &mut rng);
        let base = Graph::from_edges(n, edges.iter().copied()).expect("valid seed");
        let mut model: BTreeSet<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut dg = DeltaGraph::new(base);
        for _ in 0..steps {
            churn_step(&mut dg, &mut model, &mut rng);
            assert_agrees(&dg, &model);
        }
    }

    /// Mutation batches expressed as [`EdgeMutation`] values apply through
    /// `apply_mutation` exactly like the direct calls.
    #[test]
    fn apply_mutation_matches_direct_calls(n in 2usize..30, seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2 << 40));
        let edges = seed_edges(n, 40, &mut rng);
        let base = Graph::from_edges(n, edges.iter().copied()).expect("valid seed");
        let mut a = DeltaGraph::new(base.clone());
        let mut b = DeltaGraph::new(base.clone());
        let mut model: BTreeSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        for _ in 0..30 {
            churn_step(&mut a, &mut model, &mut rng);
        }
        // Replay a's net effect on b as a mutation batch: drop the seed
        // edges a deleted, add the edges a inserted.
        let snap = a.snapshot();
        for &(u, v) in &edges {
            if !snap.has_edge(u, v) {
                b.apply_mutation(&EdgeMutation::Delete { u, v }).expect("valid");
            }
        }
        for (_, u, v) in snap.edges() {
            if !base.has_edge(u, v) {
                b.apply_mutation(&EdgeMutation::Insert { u, v, weight: 1 }).expect("valid");
            }
        }
        prop_assert_eq!(b.snapshot(), snap);
    }
}
