//! # minex-congest
//!
//! A deterministic, synchronous simulator of the **CONGEST model**
//! (Section 1.3.1 of Haeupler–Li–Zuzic, PODC 2018): communication proceeds
//! in rounds; per round, each node may send one `O(log n)`-bit message to
//! each neighbor; local computation is free.
//!
//! The simulator enforces the model exactly — message sizes are accounted in
//! bits and per-edge-per-round uniqueness is checked — so the *round counts*
//! it reports are the model's true cost measure.
//!
//! One engine runs every simulation, on the calling thread. Its round loop
//! visits only the *active* nodes — every node in round 0, and afterwards
//! the ones that were not done after their last round or have mail — in
//! ascending id order, so a round costs O(n/4096 + active nodes +
//! messages): the work the paper counts, not `n` per round. That rests on
//! one contract, documented on [`NodeProgram::is_done`]: a node's `is_done`
//! changes only inside its own `on_round`. Runs are deterministic —
//! [`RunStats`], program outputs, and the error *selection* on failing
//! runs (see [`run`]) depend only on the graph, the programs and the
//! config.
//!
//! The engine is a value, [`Simulator`], that owns the round loop's
//! buffers (inboxes, active sets, outbox, send validator) and keeps their
//! capacity between runs. A driver that runs many short simulations on
//! one graph holds one `Simulator` and pays the set-up once; each run
//! still starts from empty mailboxes, so a warm engine returns exactly
//! what a fresh one does. [`run`] and [`run_with_sink`] are one-shot
//! engines.
//!
//! The round loop is instrumented with the zero-cost-when-off
//! [`telemetry`] layer: a [`Sink`] receives per-round, per-send,
//! per-delivery, and rejection events, and the [`CongestionProfile`]
//! recorder turns them into per-edge congestion maps, per-round
//! histograms, and phase attribution. The default [`NoopSink`]
//! monomorphizes every hook away.
//!
//! ## Example
//!
//! ```
//! use minex_congest::{primitives, CongestConfig};
//! use minex_graphs::generators;
//!
//! let g = generators::grid(8, 8);
//! let tree = primitives::build_bfs_tree(&g, 0, CongestConfig::for_nodes(g.n()))?;
//! assert_eq!(tree.dist[63], 14); // opposite corner of the grid
//! # Ok::<(), minex_congest::SimError>(())
//! ```
//!
//! ## Recording a congestion profile
//!
//! [`telemetry::record`] scopes a recorder over unmodified [`run`] call
//! sites; [`run_with_sink`] passes one explicitly:
//!
//! ```
//! use minex_congest::telemetry::{self, CongestionProfile};
//! use minex_congest::{primitives, CongestConfig};
//! use minex_graphs::generators;
//!
//! let g = generators::grid(8, 8);
//! let mut profile = CongestionProfile::new();
//! let tree = telemetry::record(&mut profile, || {
//!     primitives::build_bfs_tree(&g, 0, CongestConfig::for_nodes(g.n()))
//! })?;
//! assert_eq!(profile.total_messages(), tree.stats.messages);
//! let (hottest_edge, load) = profile.hot_links(1)[0];
//! assert!(load.messages >= 1 && hottest_edge < g.m());
//! # Ok::<(), minex_congest::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod message;
pub mod primitives;
mod program;
mod runtime;
mod soa;
pub mod telemetry;

pub use message::{bits_for, Payload};
pub use program::{Ctx, NodeProgram};
pub use runtime::{run, run_with_sink, CongestConfig, RunStats, SimError, Simulator};
pub use telemetry::{CongestionProfile, NoopSink, PhaseLabel, Sink};
