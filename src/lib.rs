//! # minex
//!
//! Facade crate for the `minex` reproduction of *“Minor Excluded Network
//! Families Admit Fast Distributed Algorithms”* (Haeupler, Li, Zuzic;
//! PODC 2018): low-congestion shortcuts for excluded-minor network families
//! and the `Õ(D²)`-round CONGEST algorithms they enable.
//!
//! Re-exports the workspace crates under stable names:
//!
//! * [`graphs`] — graph substrate and family generators;
//! * [`congest`] — the CONGEST-model simulator;
//! * [`decomp`] — tree decompositions, clique-sum trees, folding;
//! * [`core`] — the shortcut framework and constructions;
//! * [`algo`] — part-wise aggregation, MST, min-cut, SSSP, baselines,
//!   and the [`wire`] schema-v2 codecs;
//! * [`serve`] — solver-as-a-service: the `minex-serve` daemon, its
//!   session [`Fleet`](serve::Fleet), and the blocking
//!   [`Client`](serve::Client).
//!
//! The **front door** is the plan-once / query-many session API,
//! re-exported at the crate root: [`Solver`] computes one [`ShortcutPlan`]
//! (BFS tree, partition, shortcut, quality) per session and answers
//! repeated [`Query`] values — `mst` / `min_cut` / `sssp` / `components` /
//! `partwise_min` — through one path, [`Solver::run`], each with a unified
//! [`Report`].
//!
//! ```
//! use minex::{PartsStrategy, Solver, Tier};
//! use minex::core::construct::SteinerBuilder;
//! use minex::graphs::{generators, WeightedGraph};
//!
//! let wg = WeightedGraph::unit(generators::triangulated_grid(4, 4));
//! let mut solver = Solver::builder(&wg)
//!     .parts(PartsStrategy::Voronoi { parts: 3, seed: 1 })
//!     .shortcut_builder(SteinerBuilder)
//!     .build()?;
//! let mst = solver.mst()?;
//! let sssp = solver.sssp(0, Tier::Exact)?;
//! assert_eq!(mst.value.edges.len(), 15);
//! assert_eq!(sssp.value.dist[15], 3); // unit weights; diagonals cut the corner
//! # Ok::<(), minex::AlgoError>(())
//! ```
//!
//! See `examples/quickstart.rs` for a guided tour.

pub use minex_algo as algo;
pub use minex_algo::wire;
pub use minex_congest as congest;
pub use minex_core as core;
pub use minex_decomp as decomp;
pub use minex_graphs as graphs;
pub use minex_serve as serve;

pub use minex_algo::solver::{
    AlgoError, Answer, Components, MinCut, Mst, PartsStrategy, PartwiseMin, PhaseRun, Query,
    QuerySpan, RepairStats, Report, ReportStats, SessionCounters, SessionTrace, Solver,
    SolverBuilder, Sssp, SsspDetail, Tier,
};
pub use minex_congest::{CongestionProfile, PhaseLabel, Sink};
pub use minex_core::{PlanRepairStats, ShortcutPlan};
pub use minex_graphs::{DeltaGraph, EdgeMutation};
