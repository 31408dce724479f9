//! # minex-algo
//!
//! Distributed CONGEST algorithms built on low-congestion shortcuts — the
//! algorithmic payoff of Haeupler–Li–Zuzic (PODC 2018):
//!
//! * [`solver`] — **the front door**: the plan-once / query-many
//!   [`Solver`](solver::Solver) session API. One builder-configured session
//!   computes the shortcut plan (tree, partition, shortcut, quality) once
//!   and answers repeated [`Query`](solver::Query) values — `mst` /
//!   `min_cut` / `sssp` / `components` / `partwise_min` — through
//!   [`Solver::run`](solver::Solver::run), each with a unified
//!   [`Report`](solver::Report);
//! * [`partwise`] — the part-wise MIN aggregation primitive (Theorem 1's
//!   engine), simulated faithfully with per-edge queueing so that measured
//!   rounds reflect `O(b·d_T + c)`;
//! * [`mst`] — Kruskal, the correctness reference for the Borůvka MST
//!   driven by shortcut aggregations (Corollary 1) that
//!   [`Solver::mst`](solver::Solver::mst) runs;
//! * [`baselines`] — the shortcut-free Borůvka and a
//!   Garay–Kutten–Peleg-style `Õ(D + √n)` algorithm for the E6/E7
//!   comparisons;
//! * [`mincut`] — `(1+ε)`-approximate min-cut via greedy tree packing and
//!   tree-respecting cuts, with the exact value from Nagamochi–Ono–Ibaraki
//!   contraction and Stoer–Wagner as the test reference;
//! * [`sssp`] — single-source shortest paths in three tiers (E11/E12):
//!   exact Bellman–Ford, BFS-tree-scaled `(1+ε)` Bellman–Ford, and
//!   shortcut-accelerated overlay SSSP via part-wise aggregation, all
//!   validated against a sequential Dijkstra reference;
//! * [`pipeline`] — pipelined `O(depth + k)` convergecast/broadcast;
//! * [`wire`] — wire schema v2: a dependency-free JSON value model plus
//!   [`ToWire`](wire::ToWire)/[`FromWire`](wire::FromWire) codecs for every
//!   query-surface type, shared by `minex-serve` and its clients;
//! * [`workloads`] — part-family and weighted-workload generators for the
//!   experiments.
//!
//! ## Example
//!
//! ```
//! use minex_algo::mst::kruskal;
//! use minex_algo::solver::Solver;
//! use minex_congest::CongestConfig;
//! use minex_core::construct::AutoCappedBuilder;
//! use minex_graphs::{generators, WeightModel};
//! use rand::SeedableRng;
//!
//! let g = generators::triangulated_grid(5, 5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
//! let config = CongestConfig::for_nodes(g.n()).with_bandwidth(128);
//! let mut solver = Solver::builder(&wg)
//!     .shortcut_builder(AutoCappedBuilder)
//!     .config(config)
//!     .build()?;
//! let mst = solver.mst()?;
//! assert_eq!(mst.value.total_weight, kruskal(&wg).1);
//! # Ok::<(), minex_algo::solver::AlgoError>(())
//! ```
//!
//! ## Observability
//!
//! Sessions can record a [`SessionTrace`](solver::SessionTrace): lifetime
//! counters (memo hits/misses, plans built/repaired), one span per query,
//! and a wire-level `CongestionProfile` fed by the simulator's telemetry
//! sinks. The whole record is deterministic — a function of the session's
//! graph, options and queries alone — and exports as JSON Lines via
//! [`SessionTrace::to_jsonl`](solver::SessionTrace::to_jsonl):
//!
//! ```
//! use minex_algo::solver::{PartsStrategy, Solver, Tier};
//! use minex_core::construct::SteinerBuilder;
//! use minex_graphs::generators;
//!
//! let g = generators::triangulated_grid(5, 5);
//! let mut solver = Solver::for_graph(&g)
//!     .parts(PartsStrategy::Voronoi { parts: 4, seed: 7 })
//!     .shortcut_builder(SteinerBuilder)
//!     .trace(true) // install the session recorder
//!     .build()?;
//! solver.mst()?;
//! solver.sssp(0, Tier::Exact)?;
//! solver.sssp(0, Tier::Exact)?; // served from the memo: no new traffic
//!
//! let trace = solver.take_trace().expect("tracing is on");
//! assert_eq!(trace.counters.queries, 3);
//! assert_eq!(trace.counters.memo_hits, 1);
//! // Observed per-edge congestion, hottest link first.
//! let (edge, load) = trace.profile.hot_links(1)[0];
//! assert!(load.messages >= 1 && edge < g.m());
//! // Per-phase attribution carries structured labels, not parsed strings.
//! assert!(trace.profile.phases().iter().any(|s| s.label.phase == "mst"));
//! assert!(trace.to_jsonl().lines().all(|l| l.starts_with("{\"type\":")));
//! # Ok::<(), minex_algo::solver::AlgoError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod components;
pub mod mincut;
pub mod mst;
pub mod partwise;
pub mod pipeline;
pub mod solver;
pub mod sssp;
pub mod wire;
pub mod workloads;
