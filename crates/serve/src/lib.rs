//! # minex-serve
//!
//! Solver-as-a-service for minex: a daemon that owns a fleet of
//! [`Solver`](minex_algo::solver::Solver) sessions and serves the
//! plan-once / query-many API over **wire schema v2**
//! ([`minex_algo::wire`]) — HTTP/1.1 + JSON over blocking sockets and a
//! thread-per-connection pool (the container vendors no async runtime,
//! and the solver's queries are CPU-bound anyway).
//!
//! ## Architecture
//!
//! ```text
//!             TCP accept loop (one thread)
//!                  │  refuses when draining (SHUTTING_DOWN)
//!                  │  or at the connection cap (OVERLOADED)
//!                  ▼
//!    connection threads (≤ max_connections, keep-alive HTTP/1.1)
//!                  │
//!                  ▼
//!        admission gate (≤ queue_depth in-flight queries;
//!        excess is shed with 503 OVERLOADED — backpressure is
//!        explicit, never an unbounded queue)
//!                  │
//!                  ▼
//!   Fleet ──────────────────────────────────────────────────────
//!   │ session id = fingerprint(graph) ⊕ options                │
//!   │ ┌────────────┐ ┌────────────┐ ┌────────────┐             │
//!   │ │ SessionSlot│ │ SessionSlot│ │ SessionSlot│  LRU evict  │
//!   │ │ Mutex<     │ │ Mutex<     │ │ Mutex<     │  beyond     │
//!   │ │  Solver>   │ │  Solver>   │ │  Solver>   │  capacity   │
//!   │ └────────────┘ └────────────┘ └────────────┘             │
//!   └───────────────────────────────────────────────────────────
//!        queries on ONE session serialize behind its lock
//!        (queries take `&mut Solver` — they reuse the cached
//!        ShortcutPlan and memos); DIFFERENT sessions run in
//!        parallel on their own connection threads.
//! ```
//!
//! ## Session lifecycle
//!
//! 1. `POST /v1/sessions` uploads a graph (streamed into CSR) plus
//!    options; the fleet fingerprints it — re-uploading the same graph
//!    under the same options lands in the *existing* session and reuses
//!    its plan (`"created": false`).
//! 2. Queries (`mst`, `min_cut`, `sssp`, `components`, `partwise_min`,
//!    `apply`) run against the session until it is deleted or LRU-evicted.
//!    Eviction only forgets the slot: in-flight queries complete on their
//!    own handle.
//! 3. `ServerHandle::shutdown` stops accepting, refuses new work with
//!    `SHUTTING_DOWN`, then **drains**: every admitted query completes and
//!    its response is written before the daemon exits.
//!
//! ## Example
//!
//! Start an in-process daemon on an ephemeral port, upload a triangle,
//! and query its MST:
//!
//! ```
//! use minex_serve::{start, Client, CreateSession, ServerConfig};
//!
//! let handle = start(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! let mut req = CreateSession {
//!     n: 3,
//!     edges: vec![(0, 1, 5), (1, 2, 7), (0, 2, 20)],
//!     parts: None,
//!     builder: None,
//!     bandwidth: None,
//!     max_rounds: None,
//!     threads: None,
//!     trace: false,
//! };
//! let session = client.create_session(&req).unwrap();
//!
//! let mst = client.mst(&session).unwrap();
//! assert_eq!(mst.value.total_weight, 12); // edges (0,1) and (1,2)
//! assert!(mst.stats.simulated_rounds > 0);
//!
//! // Same graph + options → same session, plan reused.
//! req.trace = false;
//! assert_eq!(client.create_session(&req).unwrap(), session);
//!
//! handle.shutdown(); // drains in-flight queries, then exits
//! ```
//!
//! Binaries: `minex-serve` (the daemon CLI) and `minex-loadgen` (the
//! closed-loop load generator behind experiment E18 and the CI smoke
//! run).

#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod http;
pub mod server;

pub use client::{Client, CreateSession, ServeError};
pub use fleet::{
    builder_by_name, format_session_id, graph_fingerprint, parse_session_id, Fleet, SessionSlot,
    SessionSpec,
};
pub use server::{start, ServerConfig, ServerHandle};
