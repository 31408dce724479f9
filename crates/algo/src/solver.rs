//! Plan-once / query-many: the unified [`Solver`] session API.
//!
//! The paper's central point is that **one** structural object — a
//! low-congestion shortcut over a partition of a minor-free network —
//! simultaneously accelerates MST (Corollary 1), min-cut, shortest paths,
//! and every other part-wise aggregation problem. A [`Solver`] session
//! computes its [`ShortcutPlan`] — BFS tree, partition, shortcut, quality
//! measurement — **once**, caches it, and serves repeated queries. The
//! shortcut SSSP tier roots its own shortcut at the query's source, so it
//! builds that shortcut (and its center potentials) on every fresh query.
//!
//! Every question a session answers is a [`Query`], and [`Solver::run`]
//! is the one path that answers it: it returns a [`Report`] of an
//! [`Answer`] — the typed result plus [`ReportStats`] aggregating
//! per-phase [`RunStats`] and the analytically charged construction rounds
//! under one roof. The per-kind methods ([`Solver::mst`],
//! [`Solver::sssp`], …) wrap `run` and return the typed report.
//!
//! **Determinism contract:** a report is a pure function of the session
//! graph, its configuration, and the query — the same outputs, `RunStats`
//! and round counts on a warm session as on a fresh one — and repeated
//! queries on one session return identical reports (plan
//! reuse skips rebuilding, never re-deciding).
//!
//! **Result memoization:** the simulator has no randomness or hidden
//! state, so the session also memoizes full reports in one memo keyed by
//! the [`Query`]. An identical repeated query — the common case when
//! serving many users over one network — returns the cached report
//! instantly; the reported rounds and statistics are exactly those of the
//! original run (the CONGEST *model* cost is unchanged; only wall-clock
//! time is saved). The memo holds at most 256 reports — past that, new
//! queries are answered without being stored — and [`Solver::apply`]
//! drops it whenever the graph changes. It is the session's only cache
//! besides the plan.
//!
//! ```
//! use minex_algo::solver::{Answer, PartsStrategy, Query, Solver, Tier};
//! use minex_core::construct::SteinerBuilder;
//! use minex_graphs::{generators, WeightModel};
//! use rand::SeedableRng;
//!
//! let g = generators::triangulated_grid(5, 5);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
//! let mut solver = Solver::builder(&wg)
//!     .parts(PartsStrategy::Voronoi { parts: 4, seed: 7 })
//!     .shortcut_builder(SteinerBuilder)
//!     .build()?;
//! let mst = solver.mst()?;
//! let again = solver.mst()?; // served from the cached plan
//! assert_eq!(mst, again);
//! let sssp = solver.sssp(0, Tier::Exact)?;
//! assert_eq!(sssp.value.dist[0], 0);
//! let minima = solver.partwise_min(&vec![7; g.n()], 16)?;
//! assert!(minima.value.minima.iter().all(|&m| m == 7));
//! // The same questions as `Query` values, answered by the one path.
//! let answered = solver.run(&Query::Mst)?; // a memo hit
//! assert_eq!(answered.value, Answer::Mst(mst.value));
//! # Ok::<(), minex_algo::solver::AlgoError>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use minex_congest::telemetry;
use minex_congest::{
    bits_for, primitives, CongestConfig, CongestionProfile, PhaseLabel, RunStats, SimError,
    Simulator, Sink,
};
use minex_core::construct::ShortcutBuilder;
use minex_core::{
    measure_quality, Partition, PartitionError, PlanRepairStats, RootedTree, Shortcut, ShortcutPlan,
};
use minex_graphs::dist::{dist_add, UNREACHED};
use minex_graphs::{
    traversal, DeltaGraph, EdgeId, EdgeMutation, Graph, NodeId, UnionFind, WeightedGraph,
};

use crate::components::build_per_component;
use crate::mincut::{
    exact_min_cut, greedy_tree_packing, min_two_respecting_cut, one_respecting_cuts,
};
use crate::partwise::{partwise_min_impl, AggTopology};
use crate::sssp::{
    bellman_ford_sssp, dist_value_bits, part_centers, rescale, scale_for, scale_weights,
    scaled_sssp,
};
use crate::wire::{obj, JsonValue, ToWire};

/// Structured errors of the session API. A serving process must never panic
/// on a bad query: empty or disconnected inputs and malformed parameters
/// come back as values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgoError {
    /// The query requires a non-empty graph.
    EmptyGraph,
    /// The query requires a connected graph.
    Disconnected,
    /// A query parameter is invalid (message explains which).
    BadQuery(String),
    /// The CONGEST simulation itself failed (bandwidth, round guard, …).
    Sim(SimError),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::EmptyGraph => write!(f, "graph must be non-empty"),
            AlgoError::Disconnected => write!(f, "graph must be connected"),
            AlgoError::BadQuery(msg) => write!(f, "{msg}"),
            AlgoError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for AlgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AlgoError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for AlgoError {
    fn from(e: SimError) -> Self {
        AlgoError::Sim(e)
    }
}

/// Converts a session result into the `Result<_, SimError>` shape the
/// comparison drivers ([`crate::baselines::compare_mst`],
/// [`crate::sssp::compare_sssp`]) expose, panicking on structural errors
/// (those drivers are posed on connected, non-empty inputs).
pub(crate) fn into_sim<T>(r: Result<T, AlgoError>) -> Result<T, SimError> {
    match r {
        Ok(v) => Ok(v),
        Err(AlgoError::Sim(e)) => Err(e),
        Err(AlgoError::EmptyGraph) => panic!("graph must be non-empty"),
        Err(AlgoError::Disconnected) => panic!("graph must be connected"),
        Err(AlgoError::BadQuery(msg)) => panic!("{msg}"),
    }
}

/// SSSP tier selector for [`Solver::sssp`], mirroring the three-tier design
/// of [`crate::sssp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// Exact distributed Bellman–Ford (the shortcut-free baseline).
    Exact,
    /// BFS-tree-scaled `(1+ε)` Bellman–Ford.
    Scaled {
        /// The approximation parameter (`0.0` degenerates to exact).
        epsilon: f64,
    },
    /// Shortcut-accelerated overlay SSSP over the session partition.
    Shortcut {
        /// The approximation parameter of the weight scaling.
        epsilon: f64,
        /// Overlay phase budget. The loop stops early at its fixpoint,
        /// where the `(1+ε)` bound holds. A run that exhausts the budget
        /// first reports `converged == false`, and its estimates are then
        /// sound upper bounds only — `parts + 2` phases do not always
        /// suffice. A budget of `n` always converges: every phase ends in
        /// a Bellman–Ford relax round.
        max_phases: usize,
    },
}

/// How the session partitions the network into parts.
#[derive(Debug, Clone)]
pub enum PartsStrategy {
    /// One part per node (the Borůvka starting point; the default).
    Singletons,
    /// A single part covering the whole graph.
    Whole,
    /// BFS-Voronoi cells around `parts` random seeds (deterministic in
    /// `seed`), as in [`crate::workloads::voronoi_parts`].
    Voronoi {
        /// Number of Voronoi seeds (clamped to `n`).
        parts: usize,
        /// RNG seed: the same seed always yields the same partition.
        seed: u64,
    },
    /// An explicit, caller-constructed partition.
    Explicit(Partition),
}

/// One simulator run inside a query, with its full [`RunStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRun {
    /// What this run computed, in structured form (`phase`, `subphase`,
    /// `attempt`); its `Display` renders e.g. `mst/candidate#3`.
    pub tags: PhaseLabel,
    /// The run's statistics.
    pub stats: RunStats,
    /// How many times this run is charged (tree packing charges one MST
    /// profile per packed tree; subtree sums charge two convergecasts).
    pub repeats: usize,
}

/// Round and message accounting of one query, aggregating every simulator
/// run and the analytic construction charge under one type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReportStats {
    /// Total simulated CONGEST rounds (`Σ runs stats.rounds · repeats`).
    pub simulated_rounds: usize,
    /// Analytic charge for distributed shortcut constructions
    /// (`quality · ⌈log₂ n⌉` per \[HIZ16a\]), as the paper treats it.
    pub charged_construction_rounds: usize,
    /// Every simulator run of the query, in execution order.
    pub runs: Vec<PhaseRun>,
}

impl ReportStats {
    fn from_runs(charged_construction_rounds: usize, runs: Vec<PhaseRun>) -> Self {
        ReportStats {
            simulated_rounds: runs.iter().map(|r| r.stats.rounds * r.repeats).sum(),
            charged_construction_rounds,
            runs,
        }
    }

    /// Simulated plus charged rounds — the paper's end-to-end figure.
    pub fn total_rounds(&self) -> usize {
        self.simulated_rounds + self.charged_construction_rounds
    }

    /// Aggregates all runs (with their repeat factors) into one
    /// [`RunStats`].
    pub fn aggregate(&self) -> RunStats {
        let mut total = RunStats::default();
        for run in &self.runs {
            total.absorb(run.stats.repeated(run.repeats));
        }
        total
    }
}

/// The unified query result: a typed value plus [`ReportStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report<T> {
    /// The query's output.
    pub value: T,
    /// Round and message accounting.
    pub stats: ReportStats,
}

/// Session-lifetime counters of a traced [`Solver`], accumulated across
/// queries and [`Solver::apply`] batches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Successful queries answered.
    pub queries: usize,
    /// Queries served from the result memo (no simulation ran).
    pub memo_hits: usize,
    /// Queries that computed fresh (and joined the memo while it was under
    /// its cap).
    pub memo_misses: usize,
    /// Shortcut plans constructed: the session plan, plus the
    /// source-rooted shortcut every fresh shortcut-tier SSSP builds.
    pub plans_built: usize,
    /// Cached plans carried through [`ShortcutPlan::repair_parts`] by `apply`.
    pub plan_repairs: usize,
    /// Parts whose shortcut edges were recomputed during repairs.
    pub parts_rebuilt: usize,
    /// Parts whose shortcut edges were reused (remapped) during repairs.
    pub parts_reused: usize,
    /// Memoized reports dropped by `apply`.
    pub memos_dropped: usize,
}

/// One traced query (or mutation batch) of a [`Solver`] session.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpan {
    /// The query kind (`"mst"`, `"sssp"`, `"partwise_min"`, `"apply"`, …).
    pub label: String,
    /// Tier / argument rendering for parameterized queries.
    pub tier: Option<String>,
    /// Whether the result came from a session memo (no simulation ran).
    pub cache_hit: bool,
    /// Simulated CONGEST rounds reported by the query.
    pub simulated_rounds: usize,
    /// Analytically charged construction rounds reported by the query.
    pub charged_rounds: usize,
    /// Aggregated messages across the query's runs (with repeat factors).
    pub messages: u64,
    /// Aggregated bits across the query's runs (with repeat factors).
    pub bits: u64,
    /// For `apply` spans: what the mutation batch did.
    pub repair: Option<RepairStats>,
}

/// The observability record of a traced [`Solver`] session: lifetime
/// [`SessionCounters`], one [`QuerySpan`] per query, and a
/// [`CongestionProfile`] recording every simulator run the session actually
/// executed (memo-served queries add a span but no wire traffic).
///
/// Enable with [`SolverBuilder::trace`]; read
/// with [`Solver::trace`] or drain with [`Solver::take_trace`]. The whole
/// record is deterministic: a function of the session's graph, options and
/// query sequence alone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTrace {
    /// Session-lifetime counters.
    pub counters: SessionCounters,
    /// Every traced query, in execution order.
    pub queries: Vec<QuerySpan>,
    /// Wire-level congestion recorded from the session's simulator runs.
    pub profile: CongestionProfile,
}

impl SessionTrace {
    /// Exports the trace as JSON Lines, one object per line, each tagged
    /// with a `"type"` field. The schema (documented in the repository
    /// README under *Observability*):
    ///
    /// * `counters` — the [`SessionCounters`] fields, once.
    /// * `query` — one per [`QuerySpan`]: `label`, `tier` (string or
    ///   null), `cache_hit`, `simulated_rounds`, `charged_rounds`,
    ///   `messages`, `bits`, `repair` (object or null).
    /// * `phase` — one per closed profile span: structured `phase` /
    ///   `subphase` / `attempt` plus the display `label`, `rounds`,
    ///   `messages`, `bits`, `wire_messages`, `wire_bits`, `repeats`.
    /// * `edge` — one per edge that carried traffic: `edge`, `messages`,
    ///   `bits`.
    /// * `round` — one per round index with traffic: `round`, `messages`,
    ///   `bits`.
    /// * `hot` — the top-10 busiest links: `rank`, `edge`, `messages`,
    ///   `bits`.
    /// * `reject` — one per recorded validator rejection: `message`.
    /// * `summary` — profile totals, once (last line).
    ///
    /// The output is deterministic and diffable — the CI telemetry step
    /// compares it byte-for-byte with the committed
    /// `expected/trace.jsonl`.
    pub fn to_jsonl(&self) -> String {
        use JsonValue::{Bool, Null, Str, UInt};
        let uint = |x: usize| UInt(x as u64);
        let mut out = String::new();
        // One line: the `"type"` tag, then the fields of `body`.
        let mut line = |kind: &str, body: JsonValue| {
            let JsonValue::Object(fields) = body else {
                unreachable!("trace lines are objects");
            };
            let tag = ("type".to_string(), Str(kind.to_string()));
            JsonValue::Object(std::iter::once(tag).chain(fields).collect()).write(&mut out);
            out.push('\n');
        };
        line("counters", self.counters.to_wire());
        for q in &self.queries {
            let repair = q.repair.map_or(Null, |r| {
                obj([
                    ("inserted", uint(r.inserted)),
                    ("deleted", uint(r.deleted)),
                    ("noop", Bool(r.noop)),
                    ("connected", Bool(r.connected)),
                    ("partition_changed", Bool(r.partition_changed)),
                    ("plan_repaired", Bool(r.plan_repaired)),
                    ("parts_rebuilt", uint(r.plan.parts_rebuilt)),
                    ("parts_reused", uint(r.plan.parts_reused)),
                    ("memos_dropped", uint(r.memos_dropped)),
                ])
            });
            let query = obj([
                ("label", Str(q.label.clone())),
                ("tier", q.tier.clone().map_or(Null, Str)),
                ("cache_hit", Bool(q.cache_hit)),
                ("simulated_rounds", uint(q.simulated_rounds)),
                ("charged_rounds", uint(q.charged_rounds)),
                ("messages", UInt(q.messages)),
                ("bits", UInt(q.bits)),
                ("repair", repair),
            ]);
            line("query", query);
        }
        for span in self.profile.phases() {
            let phase = obj([
                ("phase", Str(span.label.phase.clone())),
                ("subphase", Str(span.label.subphase.clone())),
                ("attempt", span.label.attempt.map_or(Null, uint)),
                ("label", Str(span.label.to_string())),
                ("rounds", uint(span.stats.rounds)),
                ("messages", UInt(span.stats.messages)),
                ("bits", UInt(span.stats.total_bits)),
                ("wire_messages", UInt(span.wire_messages)),
                ("wire_bits", UInt(span.wire_bits)),
                ("repeats", uint(span.repeats)),
            ]);
            line("phase", phase);
        }
        for (e, load) in self.profile.edge_loads().iter().enumerate() {
            if load.messages > 0 {
                let edge = [("messages", UInt(load.messages)), ("bits", UInt(load.bits))];
                line("edge", obj([("edge", uint(e))].into_iter().chain(edge)));
            }
        }
        for (r, load) in self.profile.round_loads().iter().enumerate() {
            if load.messages > 0 {
                let round = [("messages", UInt(load.messages)), ("bits", UInt(load.bits))];
                line("round", obj([("round", uint(r))].into_iter().chain(round)));
            }
        }
        for (rank, (edge, load)) in self.profile.hot_links(10).into_iter().enumerate() {
            let hot = obj([
                ("rank", uint(rank)),
                ("edge", uint(edge)),
                ("messages", UInt(load.messages)),
                ("bits", UInt(load.bits)),
            ]);
            line("hot", hot);
        }
        for r in self.profile.rejections() {
            line("reject", obj([("message", Str(r.clone()))]));
        }
        let summary = obj([
            ("messages", UInt(self.profile.total_messages())),
            ("bits", UInt(self.profile.total_bits())),
            ("max_message_bits", uint(self.profile.max_message_bits())),
            ("max_edge_messages", UInt(self.profile.max_edge_messages())),
            ("delivered", UInt(self.profile.delivered())),
            ("rounds_started", UInt(self.profile.rounds_started())),
        ]);
        line("summary", summary);
        out
    }
}

/// The runs of one fresh query, in execution order. Every simulator-backed
/// phase goes through [`Ledger::run`], which traces it and records its
/// [`PhaseRun`], so a report and a trace see the same runs. The one
/// exception is min-cut's tree packing, which charges the memoized MST
/// report's runs once per tree without re-running them.
struct Ledger<'t> {
    trace: &'t mut Option<SessionTrace>,
    runs: Vec<PhaseRun>,
}

impl<'t> Ledger<'t> {
    fn new(trace: &'t mut Option<SessionTrace>) -> Self {
        Ledger {
            trace,
            runs: Vec::new(),
        }
    }

    /// Runs one phase as a traced span and records it as one run.
    fn run<T, E>(
        &mut self,
        tags: PhaseLabel,
        repeats: usize,
        f: impl FnOnce() -> Result<T, E>,
        stats_of: impl Fn(&T) -> RunStats,
    ) -> Result<T, E> {
        let out = self.span(&tags, repeats, f, &stats_of)?;
        self.runs.push(PhaseRun {
            tags,
            stats: stats_of(&out),
            repeats,
        });
        Ok(out)
    }

    /// Runs `f` as one span of the trace profile without recording a run.
    /// When the session is traced, the call is bracketed with
    /// [`Sink::on_phase_enter`] / [`Sink::on_phase_exit`] and every
    /// `minex_congest::run` inside `f` records into the profile (via
    /// [`telemetry::record`]); untraced sessions pay nothing but the
    /// `Option` check.
    fn span<T, E>(
        &mut self,
        label: &PhaseLabel,
        repeats: usize,
        f: impl FnOnce() -> Result<T, E>,
        stats_of: impl FnOnce(&T) -> RunStats,
    ) -> Result<T, E> {
        let Some(tr) = self.trace.as_mut() else {
            return f();
        };
        tr.profile.on_phase_enter(label);
        let result = telemetry::record(&mut tr.profile, f);
        // Failed phases close their span with zero stats; the engine
        // already recorded the rejection event into the profile.
        let stats = result.as_ref().map(stats_of).unwrap_or_default();
        tr.profile.on_phase_exit(label, stats, repeats);
        result
    }

    /// The report of `value` over the recorded runs.
    fn report<T>(self, value: T, charged_construction_rounds: usize) -> Report<T> {
        Report {
            value,
            stats: ReportStats::from_runs(charged_construction_rounds, self.runs),
        }
    }
}

/// Output of [`Solver::mst`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mst {
    /// The chosen edges (a spanning tree — inputs must be connected).
    pub edges: Vec<EdgeId>,
    /// Total weight of the chosen edges.
    pub total_weight: u64,
    /// Number of Borůvka phases.
    pub boruvka_phases: usize,
}

/// Output of [`Solver::min_cut`].
#[derive(Debug, Clone, PartialEq)]
pub struct MinCut {
    /// Best cut value found over the tree packing.
    pub approx_value: u64,
    /// Exact global minimum cut ([`exact_min_cut`], tested against the
    /// Stoer–Wagner reference).
    pub exact_value: u64,
    /// `approx / exact`.
    pub ratio: f64,
    /// Number of packed trees.
    pub trees: usize,
}

/// Output of [`Solver::sssp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sssp {
    /// Distance estimates in original weight units (`u64::MAX` unreached);
    /// exact for [`Tier::Exact`], sound `(1+ε)` upper bounds otherwise.
    pub dist: Vec<u64>,
    /// Tier-specific detail.
    pub detail: SsspDetail,
}

/// Tier-specific detail of a [`Sssp`] result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsspDetail {
    /// Exact tier: the shortest-path-tree parents.
    Exact {
        /// `parent[v]` on the shortest-path tree (`None` at the source and
        /// unreached nodes).
        parent: Vec<Option<NodeId>>,
    },
    /// Scaled tier bookkeeping.
    Scaled {
        /// The weight scale used (`1` means the run was exact).
        scale: u64,
        /// The certified hop budget of the scaled flood.
        hop_budget: usize,
    },
    /// Shortcut tier bookkeeping.
    Shortcut {
        /// The weight scale used.
        scale: u64,
        /// Overlay phases executed.
        phases: usize,
        /// Whether the overlay reached its fixpoint within the budget.
        converged: bool,
        /// Measured quality of the shortcut used.
        shortcut_quality: usize,
    },
}

/// Output of [`Solver::components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component label per node (the minimum node id of its component).
    pub label: Vec<usize>,
    /// A spanning forest (one tree per component).
    pub forest_edges: Vec<EdgeId>,
    /// Borůvka phases executed.
    pub boruvka_phases: usize,
}

/// Output of [`Solver::partwise_min`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartwiseMin {
    /// The aggregated minimum per part of the session partition.
    pub minima: Vec<u64>,
}

/// One question to a session — the input of [`Solver::run`] and of a wire
/// `query` body.
///
/// Queries compare and hash with `ε` by bit pattern: two queries are equal
/// exactly when they ask the same question, which makes a `Query` the key
/// of the session's result memo.
#[derive(Debug, Clone)]
pub enum Query {
    /// Minimum spanning tree ([`Solver::mst`]).
    Mst,
    /// Approximate minimum cut ([`Solver::min_cut_with`]).
    MinCut {
        /// Number of packed trees.
        trees: usize,
        /// Whether 2-respecting cuts are evaluated too.
        two_respecting: bool,
    },
    /// Single-source shortest paths ([`Solver::sssp`]).
    Sssp {
        /// The source node.
        source: NodeId,
        /// The tier to answer in.
        tier: Tier,
    },
    /// Connected components ([`Solver::components`]).
    Components,
    /// Part-wise MIN over the session partition ([`Solver::partwise_min`]).
    PartwiseMin {
        /// One value per node.
        values: Vec<u64>,
        /// The honest encoding width of the values.
        value_bits: usize,
    },
}

impl Query {
    /// The query kind: `"mst"`, `"min_cut"`, `"sssp"`, `"components"` or
    /// `"partwise_min"` — the wire `query` field and the trace span label.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Query::Mst => "mst",
            Query::MinCut { .. } => "min_cut",
            Query::Sssp { .. } => "sssp",
            Query::Components => "components",
            Query::PartwiseMin { .. } => "partwise_min",
        }
    }

    /// The argument rendering a trace span records as its `tier`.
    fn trace_tier(&self) -> Option<String> {
        match self {
            Query::Mst | Query::Components => None,
            Query::MinCut {
                trees,
                two_respecting,
            } => Some(format!("trees={trees} two_respecting={two_respecting}")),
            Query::Sssp { source, tier } => Some(match tier {
                Tier::Exact => format!("exact source={source}"),
                Tier::Scaled { epsilon } => format!("scaled source={source} epsilon={epsilon}"),
                Tier::Shortcut {
                    epsilon,
                    max_phases,
                } => format!("shortcut source={source} epsilon={epsilon} max_phases={max_phases}"),
            }),
            Query::PartwiseMin { value_bits, .. } => Some(format!("value_bits={value_bits}")),
        }
    }

    /// What queries are compared and hashed by: the kind, the scalar
    /// arguments with `ε` as its bit pattern, and the part-wise values.
    fn identity(&self) -> (&'static str, [u64; 4], &[u64]) {
        let scalars = match *self {
            Query::Mst | Query::Components => [0; 4],
            Query::MinCut {
                trees,
                two_respecting,
            } => [trees as u64, u64::from(two_respecting), 0, 0],
            Query::Sssp { source, tier } => match tier {
                Tier::Exact => [source as u64, 0, 0, 0],
                Tier::Scaled { epsilon } => [source as u64, 1, epsilon.to_bits(), 0],
                Tier::Shortcut {
                    epsilon,
                    max_phases,
                } => [source as u64, 2, epsilon.to_bits(), max_phases as u64],
            },
            Query::PartwiseMin { value_bits, .. } => [value_bits as u64, 0, 0, 0],
        };
        let values = match self {
            Query::PartwiseMin { values, .. } => values.as_slice(),
            _ => &[],
        };
        (self.kind(), scalars, values)
    }
}

impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for Query {}

impl Hash for Query {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

/// The value of an answered [`Query`]: one variant per query kind, holding
/// that kind's typed result.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answer to [`Query::Mst`].
    Mst(Mst),
    /// Answer to [`Query::MinCut`].
    MinCut(MinCut),
    /// Answer to [`Query::Sssp`].
    Sssp(Sssp),
    /// Answer to [`Query::Components`].
    Components(Components),
    /// Answer to [`Query::PartwiseMin`].
    PartwiseMin(PartwiseMin),
}

/// `TryFrom<Answer>` for each typed result: unwraps the matching variant
/// and hands any other back unchanged.
macro_rules! answer_kinds {
    ($($kind:ident),*) => {$(
        impl TryFrom<Answer> for $kind {
            type Error = Answer;

            fn try_from(answer: Answer) -> Result<Self, Answer> {
                match answer {
                    Answer::$kind(value) => Ok(value),
                    other => Err(other),
                }
            }
        }
    )*};
}

answer_kinds!(Mst, MinCut, Sssp, Components, PartwiseMin);

impl<T> Report<T> {
    /// The same report with `f` applied to its value.
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Report<U> {
        Report {
            value: f(self.value),
            stats: self.stats,
        }
    }
}

impl Report<Answer> {
    /// The typed report of an answer [`Solver::run`] gave to a query of
    /// kind `T`.
    fn typed<T: TryFrom<Answer>>(self) -> Report<T> {
        self.map(|answer| {
            T::try_from(answer).unwrap_or_else(|_| {
                unreachable!("Solver::run answers each query with its own kind")
            })
        })
    }
}

/// Configures and constructs a [`Solver`] session.
#[derive(Debug)]
pub struct SolverBuilder {
    wg: Arc<WeightedGraph>,
    parts: PartsStrategy,
    builder: Box<dyn ShortcutBuilder + Send + 'static>,
    config: Option<CongestConfig>,
    root: NodeId,
    trace: bool,
}

impl SolverBuilder {
    fn new(wg: Arc<WeightedGraph>) -> Self {
        SolverBuilder {
            wg,
            parts: PartsStrategy::Singletons,
            builder: Box::new(minex_core::construct::AutoCappedBuilder),
            config: None,
            root: 0,
            trace: false,
        }
    }

    /// Sets the session partition strategy (default:
    /// [`PartsStrategy::Singletons`]).
    pub fn parts(mut self, strategy: PartsStrategy) -> Self {
        self.parts = strategy;
        self
    }

    /// Sets the shortcut construction (default
    /// [`minex_core::construct::AutoCappedBuilder`]). Accepts any owned
    /// [`ShortcutBuilder`], including already boxed
    /// `Box<dyn ShortcutBuilder + Send>` values — the session stores it
    /// dyn-erased. The `Send + 'static` bound is what lets a built
    /// [`Solver`] move across threads (the `minex-serve` fleet keeps one
    /// session per graph fingerprint behind a mutex); builders that used to
    /// be passed by reference are passed by value (they are cheap: unit
    /// structs or small precomputed records).
    pub fn shortcut_builder<B: ShortcutBuilder + Send + 'static>(mut self, builder: B) -> Self {
        self.builder = Box::new(builder);
        self
    }

    /// Sets the simulator configuration (default
    /// [`CongestConfig::for_nodes`] for the graph's size).
    pub fn config(mut self, config: CongestConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// A no-op, kept so that callers written against the former
    /// multi-threaded engine still compile: every session simulates on the
    /// thread that runs its query. Returns `self` unchanged.
    pub fn threads(self, threads: usize) -> Self {
        let _ = threads;
        self
    }

    /// Sets the root of the session's BFS spanning tree (default `0`).
    pub fn root(mut self, root: NodeId) -> Self {
        self.root = root;
        self
    }

    /// Enables session tracing: the solver records a [`SessionTrace`]
    /// (counters, per-query spans, and a wire-level [`CongestionProfile`])
    /// across its lifetime. Off by default — untraced sessions skip all
    /// instrumentation.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Validates the configuration and constructs the session.
    ///
    /// The session **owns** its network: [`Solver::builder`] and
    /// [`Solver::for_graph`] clone the borrowed graph into the session's
    /// `Arc<WeightedGraph>` ([`Solver::from_arc`] shares an existing
    /// allocation instead), so the built `Solver` is `'static` and `Send`
    /// — it can outlive the graph binding it was configured from and move
    /// across threads.
    ///
    /// The heavy plan pieces (BFS tree, shortcut, quality) are computed
    /// lazily on the first query that needs them, then cached — so a
    /// one-shot session costs exactly what a fresh-plan run costs.
    ///
    /// # Errors
    ///
    /// [`AlgoError::BadQuery`] on malformed configuration (out-of-range
    /// root, a partition strategy that does not fit the graph). Empty or
    /// disconnected graphs are *not* build errors — queries that need
    /// connectivity report it per query, and [`Solver::components`] works
    /// regardless.
    pub fn build(self) -> Result<Solver, AlgoError> {
        let wg = self.wg;
        let n = wg.graph().n();
        if n > 0 && self.root >= n {
            return Err(AlgoError::BadQuery(format!(
                "root {} out of range for {n} nodes",
                self.root
            )));
        }
        let connected = n > 0 && traversal::is_connected(wg.graph());
        let strategy = self.parts.clone();
        let parts = resolve_parts(wg.graph(), self.parts, connected)?;
        let config = self.config.unwrap_or_else(|| CongestConfig::for_nodes(n));
        Ok(Solver {
            wg,
            parts,
            strategy,
            builder: self.builder,
            config,
            root: self.root,
            connected,
            tree: None,
            plan: None,
            memo: HashMap::new(),
            trace: self.trace.then(SessionTrace::default),
        })
    }
}

fn resolve_parts(
    g: &Graph,
    strategy: PartsStrategy,
    connected: bool,
) -> Result<Partition, AlgoError> {
    let n = g.n();
    let parts = match strategy {
        PartsStrategy::Singletons => (0..n).map(|v| vec![v]).collect(),
        PartsStrategy::Whole => {
            if n == 0 {
                Vec::new()
            } else if !connected {
                return Err(AlgoError::BadQuery(
                    "a whole-graph part requires a connected graph".into(),
                ));
            } else {
                vec![(0..n).collect()]
            }
        }
        PartsStrategy::Voronoi { parts, seed } => {
            if n == 0 {
                Vec::new()
            } else if !connected {
                return Err(AlgoError::BadQuery(
                    "voronoi parts require a connected graph".into(),
                ));
            } else if parts == 0 {
                // voronoi_parts asserts on zero seeds — a server must get a
                // value back instead.
                return Err(AlgoError::BadQuery(
                    "voronoi parts require at least one seed".into(),
                ));
            } else {
                let mut rng = StdRng::seed_from_u64(seed);
                return Ok(crate::workloads::voronoi_parts(g, parts.min(n), &mut rng));
            }
        }
        PartsStrategy::Explicit(p) => {
            // Re-validate against *this* graph: the caller may have built
            // the partition for a different graph with the same node count,
            // where "connected part" meant something else. Re-wrapping an
            // already-valid partition is the identity (parts are kept
            // sorted), so byte-equivalence with legacy callers holds.
            return Partition::new(g, p.parts().to_vec()).map_err(|e| {
                AlgoError::BadQuery(format!("explicit partition invalid for this graph: {e}"))
            });
        }
    };
    Partition::new(g, parts)
        .map_err(|e| AlgoError::BadQuery(format!("partition strategy failed: {e:?}")))
}

/// Cap on the result memo: an entry can own `O(n)` vectors (a part-wise
/// values key, distances, minima), so a long-lived session serving many
/// *distinct* queries must not grow without bound. Past the cap new
/// reports are computed without being stored — correctness is unaffected,
/// and repeats of the stored queries stay fast.
const MEMO_CAP: usize = 256;

/// What [`Solver::apply`] did to the session: how the mutation batch
/// decomposed, whether the cached plan was repaired incrementally, and how
/// much cached state the batch invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Edges inserted by the batch.
    pub inserted: usize,
    /// Edges deleted by the batch.
    pub deleted: usize,
    /// The batch cancelled out (same edge set, same weights): the session —
    /// including its plan and memo — was left untouched.
    pub noop: bool,
    /// Whether the session graph is connected after the batch.
    pub connected: bool,
    /// The session partition changed under the batch.
    pub partition_changed: bool,
    /// A plan was already cached, the graph stayed connected, the
    /// partition held and the builder is part-local, so the plan was
    /// carried through [`ShortcutPlan::repair_parts`]. Otherwise a `noop`
    /// batch keeps the plan as it was, and any other batch leaves the
    /// session without one, to be built on the next query that needs it:
    /// a moved partition, or a builder that is not
    /// [part-local](ShortcutBuilder::part_local), drops the cached plan
    /// instead of rebuilding it.
    pub plan_repaired: bool,
    /// Plan-level repair statistics (all zero unless `plan_repaired`).
    /// Its `partition_changed` and `full_rebuild` are always `false`: a
    /// repair that would rebuild every part drops the plan instead.
    pub plan: PlanRepairStats,
    /// Memoized reports dropped.
    pub memos_dropped: usize,
}

/// A plan-once / query-many session over one network.
///
/// Construct with [`Solver::builder`] (weighted), [`Solver::for_graph`]
/// (unit weights), or [`Solver::from_arc`] (shared ownership — the serving
/// path); see the [module docs](self) for the full contract.
///
/// Sessions **own** their network (`Arc<WeightedGraph>`) and their
/// dyn-erased builder (`Box<dyn ShortcutBuilder + Send + 'static>`), so a
/// `Solver` is `'static` and `Send`: it can outlive the request handler
/// that configured it and move between threads — the property the
/// `minex-serve` daemon's session fleet is built on. A `Solver` is *not*
/// `Sync` by design: queries take `&mut self` (they fill the plan and the
/// memo), so concurrent callers must serialize through a lock, which
/// is exactly the per-session request serialization the wire API
/// documents.
#[derive(Debug)]
pub struct Solver {
    wg: Arc<WeightedGraph>,
    parts: Partition,
    /// The strategy `parts` was resolved from, kept so [`Solver::apply`]
    /// can re-resolve it on the mutated graph.
    strategy: PartsStrategy,
    builder: Box<dyn ShortcutBuilder + Send + 'static>,
    config: CongestConfig,
    root: NodeId,
    connected: bool,
    tree: Option<RootedTree>,
    plan: Option<ShortcutPlan>,
    /// Query reports, bounded by [`MEMO_CAP`]. Every query is a
    /// deterministic pure function of (plan, query): the simulator has no
    /// hidden state and no randomness, so serving a repeated query from
    /// the memo is byte-identical to re-running it — only the wall clock
    /// changes.
    memo: HashMap<Query, Report<Answer>>,
    trace: Option<SessionTrace>,
}

/// One part per node — the Borůvka starting fragmentation.
fn singleton_partition(g: &Graph) -> Partition {
    Partition::new(g, (0..g.n()).map(|v| vec![v]).collect())
        .expect("singletons are trivially valid")
}

/// Packs `(weight, edge id)` into an order-preserving `u64`.
fn encode(weight: u64, edge: EdgeId, m: u64) -> u64 {
    weight * m + edge as u64
}

/// Checks that every Borůvka candidate [`encode`]s below `u64::MAX`, the
/// "no candidate" sentinel: `max_weight·m + (m − 1) < u64::MAX`. The same
/// bound keeps min-cut's sums of edge weights in range.
fn check_encodable(wg: &WeightedGraph) -> Result<(), AlgoError> {
    let m = wg.graph().m().max(1) as u64;
    let max_w = wg.weights().iter().copied().max().unwrap_or(0);
    match max_w.checked_mul(m).and_then(|top| top.checked_add(m - 1)) {
        Some(top) if top < u64::MAX => Ok(()),
        _ => Err(AlgoError::BadQuery(format!(
            "edge weight {max_w} is too large: with {m} edges, weights must be at most {}",
            u64::MAX / m - 1
        ))),
    }
}

impl Solver {
    /// Starts configuring a session over a weighted network. The graph is
    /// **cloned** into the session; use [`Solver::from_arc`] to share one
    /// allocation across sessions.
    pub fn builder(wg: &WeightedGraph) -> SolverBuilder {
        SolverBuilder::new(Arc::new(wg.clone()))
    }

    /// Starts configuring a session over an unweighted network (unit
    /// weights; build a [`WeightedGraph`] and use [`Solver::builder`] for
    /// real ones). The graph is **cloned** into the session.
    pub fn for_graph(g: &Graph) -> SolverBuilder {
        SolverBuilder::new(Arc::new(WeightedGraph::unit(g.clone())))
    }

    /// Starts configuring a session that **shares** an already-owned
    /// network: the session keeps the `Arc` (no graph clone), so a fleet
    /// of sessions — or a server and its request handlers — can reference
    /// one upload. This is the zero-copy entry point of the serving path.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use minex_algo::solver::Solver;
    /// use minex_graphs::{generators, WeightedGraph};
    ///
    /// let wg = Arc::new(WeightedGraph::unit(generators::triangulated_grid(4, 4)));
    /// let mut session = Solver::from_arc(Arc::clone(&wg)).build()?;
    /// let mst = session.mst()?;
    /// assert_eq!(mst.value.edges.len(), wg.graph().n() - 1);
    /// # Ok::<(), minex_algo::solver::AlgoError>(())
    /// ```
    pub fn from_arc(wg: Arc<WeightedGraph>) -> SolverBuilder {
        SolverBuilder::new(wg)
    }

    /// The session's network.
    pub fn graph(&self) -> &Graph {
        self.wg.graph()
    }

    /// The session's weighted network.
    pub fn weighted_graph(&self) -> &WeightedGraph {
        self.wg.as_ref()
    }

    /// The session's shared handle on its network — cheap to clone, and
    /// stays valid across [`Solver::apply`] batches (which swap the
    /// session onto a new graph, leaving old handles on the old one).
    pub fn shared_graph(&self) -> Arc<WeightedGraph> {
        Arc::clone(&self.wg)
    }

    /// The session partition.
    pub fn parts(&self) -> &Partition {
        &self.parts
    }

    /// The session simulator configuration.
    pub fn config(&self) -> CongestConfig {
        self.config
    }

    /// The name of the session's shortcut construction.
    pub fn builder_name(&self) -> &'static str {
        self.builder.name()
    }

    /// Whether the session graph is connected.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// The session trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&SessionTrace> {
        self.trace.as_ref()
    }

    /// Drains the session trace, leaving a fresh empty one in place so
    /// tracing stays enabled. Returns `None` on untraced sessions.
    pub fn take_trace(&mut self) -> Option<SessionTrace> {
        self.trace.as_mut().map(std::mem::take)
    }

    /// Records one answered query into the trace. `cache` is `Some(hit)`
    /// for memoizable queries (bumping the hit/miss counters) and `None`
    /// for `apply` batches.
    fn note_query(
        &mut self,
        label: &str,
        tier: Option<String>,
        cache: Option<bool>,
        stats: &ReportStats,
        repair: Option<RepairStats>,
    ) {
        let Some(tr) = self.trace.as_mut() else {
            return;
        };
        tr.counters.queries += 1;
        match cache {
            Some(true) => tr.counters.memo_hits += 1,
            Some(false) => tr.counters.memo_misses += 1,
            None => {}
        }
        if let Some(r) = &repair {
            if r.plan_repaired {
                tr.counters.plan_repairs += 1;
            }
            tr.counters.parts_rebuilt += r.plan.parts_rebuilt;
            tr.counters.parts_reused += r.plan.parts_reused;
            tr.counters.memos_dropped += r.memos_dropped;
        }
        let agg = stats.aggregate();
        tr.queries.push(QuerySpan {
            label: label.to_string(),
            tier,
            cache_hit: cache == Some(true),
            simulated_rounds: stats.simulated_rounds,
            charged_rounds: stats.charged_construction_rounds,
            messages: agg.messages,
            bits: agg.total_bits,
            repair,
        });
    }

    /// The session's [`ShortcutPlan`] (built on first use, then cached):
    /// BFS tree rooted at the configured root, the session partition, the
    /// constructed shortcut, and its measured quality.
    ///
    /// # Errors
    ///
    /// [`AlgoError::EmptyGraph`] / [`AlgoError::Disconnected`] when no
    /// spanning tree exists.
    pub fn plan(&mut self) -> Result<&ShortcutPlan, AlgoError> {
        self.ensure_plan()?;
        Ok(self.plan.as_ref().expect("ensure_plan filled the plan"))
    }

    /// The analytic construction charge of the session plan:
    /// `quality · ⌈log₂ n⌉` rounds per \[HIZ16a\]. No report includes it:
    /// `partwise_min`, the one query that reads the plan, charges 0. The
    /// plan is built once per graph and partition, so a session whose
    /// `apply` batches move its partition builds it again on the first
    /// plan read after each such batch.
    ///
    /// # Errors
    ///
    /// As [`Solver::plan`].
    pub fn plan_charge(&mut self) -> Result<usize, AlgoError> {
        let n = self.wg.graph().n();
        let quality = self.plan()?.quality().quality;
        Ok(quality * bits_for(n.max(2)))
    }

    fn ensure_tree(&mut self) -> Result<(), AlgoError> {
        if self.wg.graph().n() == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        if !self.connected {
            return Err(AlgoError::Disconnected);
        }
        if self.tree.is_none() {
            self.tree = Some(RootedTree::bfs(self.wg.graph(), self.root));
        }
        Ok(())
    }

    fn ensure_plan(&mut self) -> Result<(), AlgoError> {
        if self.plan.is_some() {
            return Ok(());
        }
        self.ensure_tree()?;
        let tree = self.tree.clone().expect("ensure_tree filled the tree");
        self.plan = Some(ShortcutPlan::with_tree(
            self.wg.graph(),
            tree,
            self.parts.clone(),
            &self.builder,
        ));
        self.note_plan_built();
        Ok(())
    }

    fn note_plan_built(&mut self) {
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.plans_built += 1;
        }
    }

    // ------------------------------------------------------------------
    // Dynamic updates
    // ------------------------------------------------------------------

    /// Applies a batch of edge mutations to the session graph, repairing
    /// the cached [`ShortcutPlan`] incrementally instead of tearing the
    /// session down and rebuilding it.
    ///
    /// The batch is staged on a [`DeltaGraph`] over a clone of the session
    /// graph, so any invalid mutation (duplicate insert, deleting
    /// a missing edge, exceeding the edge-count limit) returns
    /// [`AlgoError::BadQuery`] and leaves the session **unchanged**. On
    /// success the session commits atomically: graph and weights swap,
    /// connectivity and partition are refreshed (the configured
    /// [`PartsStrategy`] is re-resolved against the mutated graph), and the
    /// memo is dropped. A cached plan is kept only where
    /// [`ShortcutPlan::repair_parts`] repairs it part by part. When the
    /// partition changed (Voronoi cells moved) or the builder is not
    /// [part-local](ShortcutBuilder::part_local) (the default
    /// `AutoCappedBuilder`), repairing means a full build, so the plan and
    /// its tree are dropped instead,
    /// and the first query that reads the plan ([`Solver::partwise_min`],
    /// [`Solver::plan`], [`Solver::plan_charge`]) builds them again. The
    /// answer then says `plan_repaired: false` with an all-zero `plan`.
    /// A mutated session answers every query byte-identically to a fresh
    /// session built on the mutated graph.
    ///
    /// Surviving edges keep their weights (edge ids are renumbered
    /// internally); inserted edges take the weight from their
    /// [`EdgeMutation::Insert`], and deleting then re-inserting an edge in
    /// one batch gives it the new weight.
    ///
    /// ```
    /// use minex_algo::solver::{PartsStrategy, Solver};
    /// use minex_core::construct::SteinerBuilder;
    /// use minex_graphs::{generators, EdgeMutation};
    ///
    /// let g = generators::triangulated_grid(4, 4);
    /// let mut solver = Solver::for_graph(&g)
    ///     .parts(PartsStrategy::Voronoi { parts: 3, seed: 7 })
    ///     .shortcut_builder(SteinerBuilder)
    ///     .build()?;
    /// let before = solver.mst()?;
    /// let stats = solver.apply(&[
    ///     EdgeMutation::Delete { u: 0, v: 1 },
    ///     EdgeMutation::Insert { u: 0, v: 10, weight: 1 },
    /// ])?;
    /// assert_eq!((stats.inserted, stats.deleted), (1, 1));
    /// assert!(solver.graph().has_edge(0, 10));
    /// let after = solver.mst()?; // recomputed on the mutated graph
    /// assert_eq!(after.value.edges.len(), before.value.edges.len());
    /// # Ok::<(), minex_algo::solver::AlgoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`AlgoError::BadQuery`] when a mutation is invalid on the graph as
    /// mutated so far, or when the session's partition strategy no longer
    /// fits the mutated graph (an explicit part disconnected by a
    /// deletion, a Voronoi/whole strategy on a graph the batch
    /// disconnected). In every error case the session is untouched.
    pub fn apply(&mut self, mutations: &[EdgeMutation]) -> Result<RepairStats, AlgoError> {
        let mut stats = RepairStats {
            connected: self.connected,
            ..RepairStats::default()
        };
        if mutations.is_empty() {
            stats.noop = true;
            self.note_query("apply", None, None, &ReportStats::default(), Some(stats));
            return Ok(stats);
        }
        // Stage the whole batch on a clone: every error path
        // below returns before the session is touched.
        let old = self.wg.graph();
        let mut dg = DeltaGraph::new(old.clone());
        let mut pending: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
        let mut touched: Vec<NodeId> = Vec::with_capacity(2 * mutations.len());
        let mut deleted_pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for mutation in mutations {
            match *mutation {
                EdgeMutation::Insert { u, v, weight } => {
                    dg.insert_edge(u, v)
                        .map_err(|e| AlgoError::BadQuery(format!("insert {{{u}, {v}}}: {e}")))?;
                    pending.insert((u.min(v), u.max(v)), weight);
                    stats.inserted += 1;
                    touched.push(u);
                    touched.push(v);
                }
                EdgeMutation::Delete { u, v } => {
                    dg.delete_edge(u, v)
                        .map_err(|e| AlgoError::BadQuery(format!("delete {{{u}, {v}}}: {e}")))?;
                    pending.remove(&(u.min(v), u.max(v)));
                    stats.deleted += 1;
                    deleted_pairs.push((u.min(v), u.max(v)));
                    touched.push(u);
                    touched.push(v);
                }
            }
        }
        let new_g = dg.snapshot();
        // Old edge ids → new edge ids. Both id spaces are lexicographic
        // ranks of their edge lists, so one merge pass remaps the
        // survivors.
        let mut remap: Vec<Option<EdgeId>> = vec![None; old.m()];
        {
            let mut new_edges = new_g.edges().peekable();
            for (e, u, v) in old.edges() {
                while new_edges
                    .peek()
                    .is_some_and(|&(_, nu, nv)| (nu, nv) < (u, v))
                {
                    new_edges.next();
                }
                if let Some(&(ne, nu, nv)) = new_edges.peek() {
                    if (nu, nv) == (u, v) {
                        remap[e] = Some(ne);
                    }
                }
            }
        }
        // New weights: every new edge either survived (remap hits it) or
        // was inserted by this batch (its pair is pending); pending
        // overrides survivors so delete-then-reinsert takes the new weight.
        let mut new_weights = vec![0u64; new_g.m()];
        for (e, _, _) in old.edges() {
            if let Some(ne) = remap[e] {
                new_weights[ne] = self.wg.weight(e);
            }
        }
        for (&(u, v), &w) in &pending {
            let ne = new_g
                .edge_between(u, v)
                .expect("a pending insert is an edge of the snapshot");
            new_weights[ne] = w;
        }
        if new_g == *old && new_weights == self.wg.weights() {
            // The batch cancelled out. Nothing is invalidated — keep the
            // plan and every memo.
            stats.noop = true;
            self.note_query("apply", None, None, &ReportStats::default(), Some(stats));
            return Ok(stats);
        }
        let connected = new_g.n() > 0 && traversal::is_connected(&new_g);
        let parts = self.repartition(&new_g, connected, &deleted_pairs)?;
        stats.partition_changed = parts.parts() != self.parts.parts();
        stats.connected = connected;
        touched.sort_unstable();
        touched.dedup();
        // Keep the cached plan only if it repairs part by part: the graph
        // stayed connected, the partition held and the builder is
        // part-local. Any other repair would be a full build, and only
        // plan readers need one, so the plan and its tree are dropped and
        // `ensure_plan` builds them on first use, as in a planless session.
        // The result is deterministically identical either way.
        let repaired = match (&self.plan, connected) {
            (Some(prev), true) if !stats.partition_changed => prev.repair_parts(
                &new_g,
                self.root,
                parts.clone(),
                &self.builder,
                &remap,
                &touched,
            ),
            _ => None,
        };
        let (tree, plan) = match repaired {
            Some((plan, pstats)) => {
                stats.plan_repaired = true;
                stats.plan = pstats;
                (Some(plan.tree().clone()), Some(plan))
            }
            None => (None, None),
        };
        // Commit.
        stats.memos_dropped = std::mem::take(&mut self.memo).len();
        self.wg = Arc::new(WeightedGraph::new(new_g, new_weights));
        self.parts = parts;
        self.connected = connected;
        self.tree = tree;
        self.plan = plan;
        self.note_query("apply", None, None, &ReportStats::default(), Some(stats));
        Ok(stats)
    }

    /// Re-resolves the session's [`PartsStrategy`] on the mutated graph.
    ///
    /// `Singletons` and `Explicit` partitions depend on the edge set only
    /// through each part's induced connectivity, so they skip resolving
    /// from scratch (one `O(n + m)` [`Partition::new`] pass over every
    /// part): singletons are reused verbatim, and explicit parts are
    /// revalidated only where a **deletion** landed with
    /// both endpoints inside one part (insertions cannot disconnect a
    /// part, and an edge between two parts belongs to neither's induced
    /// subgraph). `Whole` and `Voronoi` re-resolve from scratch, exactly
    /// as a fresh session would.
    fn repartition(
        &self,
        new_g: &Graph,
        connected: bool,
        deleted_pairs: &[(NodeId, NodeId)],
    ) -> Result<Partition, AlgoError> {
        match &self.strategy {
            PartsStrategy::Singletons => Ok(self.parts.clone()),
            PartsStrategy::Explicit(_) => {
                let mut dirty: Vec<usize> = deleted_pairs
                    .iter()
                    .filter_map(
                        |&(u, v)| match (self.parts.part_of(u), self.parts.part_of(v)) {
                            (Some(a), Some(b)) if a == b => Some(a),
                            _ => None,
                        },
                    )
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                for &i in &dirty {
                    if !traversal::is_connected_subset(new_g, self.parts.part(i)) {
                        // The same error a fresh `resolve_parts` reports.
                        // Untouched parts stay valid, so the first invalid
                        // dirty index is the overall first invalid index.
                        let e = PartitionError::PartDisconnected { part: i };
                        return Err(AlgoError::BadQuery(format!(
                            "explicit partition invalid for this graph: {e}"
                        )));
                    }
                }
                Ok(self.parts.clone())
            }
            _ => resolve_parts(new_g, self.strategy.clone(), connected),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Answers one [`Query`] — the one path every query kind takes.
    ///
    /// A query already in the session memo is answered with its stored
    /// report; any other runs on the cached plan, and its report is
    /// memoized while the memo holds fewer than 256 reports. A traced
    /// session records one [`QuerySpan`] per successful call.
    ///
    /// # Errors
    ///
    /// Those of the per-kind wrapper of the query: [`Solver::mst`],
    /// [`Solver::min_cut_with`], [`Solver::sssp`], [`Solver::components`]
    /// or [`Solver::partwise_min`].
    pub fn run(&mut self, query: &Query) -> Result<Report<Answer>, AlgoError> {
        let (report, hit) = self.memoized(query)?;
        self.note_query(
            query.kind(),
            query.trace_tier(),
            Some(hit),
            &report.stats,
            None,
        );
        Ok(report)
    }

    /// The body of [`Solver::run`] without its trace span: the memoized
    /// report of `query`, and whether it was a memo hit. Min-cut calls it
    /// for its inner MST.
    fn memoized(&mut self, query: &Query) -> Result<(Report<Answer>, bool), AlgoError> {
        if let Some(report) = self.memo.get(query) {
            return Ok((report.clone(), true));
        }
        let report = match *query {
            Query::Mst => self.boruvka_mst()?.map(Answer::Mst),
            Query::MinCut {
                trees,
                two_respecting,
            } => self
                .packed_min_cut(trees, two_respecting)?
                .map(Answer::MinCut),
            Query::Sssp { source, tier } => {
                self.check_source(source)?;
                match tier {
                    Tier::Exact => self.exact_sssp(source),
                    Tier::Scaled { epsilon } => self.scaled_sssp(source, epsilon),
                    Tier::Shortcut {
                        epsilon,
                        max_phases,
                    } => self.overlay_sssp(source, epsilon, max_phases),
                }?
                .map(Answer::Sssp)
            }
            Query::Components => self.boruvka_components()?.map(Answer::Components),
            Query::PartwiseMin {
                ref values,
                value_bits,
            } => self
                .plan_partwise_min(values, value_bits)?
                .map(Answer::PartwiseMin),
        };
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(query.clone(), report.clone());
        }
        Ok((report, false))
    }

    /// Minimum spanning tree via shortcut-driven Borůvka (Corollary 1).
    ///
    /// The report is memoized, so repeated `mst()` queries — and the tree
    /// packing of [`Solver::min_cut`] — reuse it instead of re-running the
    /// drive.
    ///
    /// # Errors
    ///
    /// [`AlgoError::EmptyGraph`] / [`AlgoError::Disconnected`] on
    /// structurally unfit inputs, [`AlgoError::BadQuery`] when a weight is
    /// too large for the candidate encoding `weight·m + edge` (every weight
    /// must satisfy `weight·m + (m − 1) < u64::MAX`), [`AlgoError::Sim`] on
    /// simulator failures.
    pub fn mst(&mut self) -> Result<Report<Mst>, AlgoError> {
        Ok(self.run(&Query::Mst)?.typed())
    }

    /// `(1+ε)`-approximate minimum cut via greedy tree packing
    /// (Corollary 1), with 2-respecting cuts enabled.
    ///
    /// # Errors
    ///
    /// As [`Solver::mst`] (including its weight bound), plus
    /// [`AlgoError::BadQuery`] when `trees == 0`, the graph has fewer
    /// than two nodes, `trees` exceeds the node count `n` (the packing
    /// holds one spanning tree per requested tree, so `trees` is bounded
    /// before anything is allocated for it), or an edge weighs 0 (a
    /// zero-weight cut has no finite `ratio`).
    pub fn min_cut(&mut self, trees: usize) -> Result<Report<MinCut>, AlgoError> {
        self.min_cut_with(trees, true)
    }

    /// Like [`Solver::min_cut`] with an explicit 2-respecting-cuts toggle
    /// (evaluating them is `O(n²)` per tree centrally).
    ///
    /// # Errors
    ///
    /// As [`Solver::min_cut`].
    pub fn min_cut_with(
        &mut self,
        trees: usize,
        use_two_respecting: bool,
    ) -> Result<Report<MinCut>, AlgoError> {
        let query = Query::MinCut {
            trees,
            two_respecting: use_two_respecting,
        };
        Ok(self.run(&query)?.typed())
    }

    /// Single-source shortest paths in the selected [`Tier`].
    ///
    /// The shortcut tier runs over the session partition. A query that
    /// misses the memo builds its source-rooted tree and shortcut, floods
    /// the center potentials ρ, and runs its phases; only the memo skips
    /// that work for a repeated query.
    ///
    /// # Errors
    ///
    /// [`AlgoError::EmptyGraph`] on empty inputs; [`AlgoError::BadQuery`]
    /// on an out-of-range source, non-positive `epsilon`-scaled weights, or
    /// a zero phase budget; [`AlgoError::Disconnected`] for the scaled and
    /// shortcut tiers (the exact tier marks unreached nodes instead);
    /// [`AlgoError::Sim`] on simulator failures.
    pub fn sssp(&mut self, source: NodeId, tier: Tier) -> Result<Report<Sssp>, AlgoError> {
        Ok(self.run(&Query::Sssp { source, tier })?.typed())
    }

    /// Connected components / spanning forest by shortcut-driven Borůvka
    /// merging. Works on empty and disconnected graphs — this is the one
    /// query that must not assume connectivity.
    ///
    /// # Errors
    ///
    /// [`AlgoError::Sim`] on simulator failures.
    pub fn components(&mut self) -> Result<Report<Components>, AlgoError> {
        Ok(self.run(&Query::Components)?.typed())
    }

    /// Part-wise MIN aggregation of `values` over the session plan
    /// (`G[P_i] + H_i` per part), the Theorem 1 primitive. `value_bits` is
    /// the honest encoding width of the values.
    ///
    /// # Errors
    ///
    /// [`AlgoError::BadQuery`] when `values.len() != n`; otherwise as
    /// [`Solver::plan`] and [`AlgoError::Sim`].
    pub fn partwise_min(
        &mut self,
        values: &[u64],
        value_bits: usize,
    ) -> Result<Report<PartwiseMin>, AlgoError> {
        let query = Query::PartwiseMin {
            values: values.to_vec(),
            value_bits,
        };
        Ok(self.run(&query)?.typed())
    }

    // ------------------------------------------------------------------
    // MST
    // ------------------------------------------------------------------

    fn boruvka_mst(&mut self) -> Result<Report<Mst>, AlgoError> {
        self.ensure_tree()?;
        check_encodable(&self.wg)?;
        let Solver {
            ref wg,
            ref tree,
            ref builder,
            config,
            ref mut trace,
            ..
        } = *self;
        let wg: &WeightedGraph = wg.as_ref();
        let g = wg.graph();
        let tree = tree.as_ref().expect("ensure_tree filled the tree");
        let n = g.n();
        let m = g.m().max(1) as u64;
        let max_w = wg.weights().iter().copied().max().unwrap_or(0);
        let value_bits = bits_for((max_w + 1) as usize) + bits_for(g.m().max(2));
        let mut uf = UnionFind::new(n);
        let mut chosen: Vec<EdgeId> = Vec::new();
        let mut phases = 0;
        let mut ledger = Ledger::new(trace);
        let mut charged = 0usize;
        // Shortcut for the current partition; singleton fragments need none.
        // A phase's relabel flood and the next phase's candidate flood run
        // on the same partition, so they share one compiled topology. Each
        // phase is charged the quality of the shortcut the phase before it
        // built, which the builder hands back with the shortcut.
        let parts = singleton_partition(g);
        let shortcut = Shortcut::empty(parts.len());
        let mut quality = measure_quality(g, tree, &parts, &shortcut).quality;
        let mut topo = AggTopology::compile(g, &parts, &shortcut);
        // Every flood of the query runs on one engine.
        let mut sim = Simulator::new();
        let log_n = bits_for(n.max(2));
        // Relabel ids are the identity column every phase.
        let ids: Vec<u64> = (0..n as u64).collect();
        while uf.count() > 1 {
            let phase = phases;
            charged += quality * log_n;
            // Per-node candidate: lightest incident edge leaving the fragment.
            let mut values = vec![u64::MAX; n];
            for (v, value) in values.iter_mut().enumerate() {
                for (w, e) in g.neighbors(v) {
                    if uf.find(v) != uf.find(w) {
                        let enc = encode(wg.weight(e), e, m);
                        if enc < *value {
                            *value = enc;
                        }
                    }
                }
            }
            let agg = ledger.run(
                PhaseLabel::new("mst", "candidate").with_attempt(phase),
                1,
                || topo.partwise_min(&mut sim, g, &values, value_bits, config),
                |a| a.stats,
            )?;
            // Merge along the chosen edges.
            let mut merged_any = false;
            for &best in &agg.minima {
                if best == u64::MAX {
                    continue;
                }
                let e = (best % m) as EdgeId;
                let (u, v) = g.endpoints(e);
                if uf.union(u, v) {
                    chosen.push(e);
                    merged_any = true;
                }
            }
            assert!(merged_any, "connected graph must always merge");
            // New partition + its shortcut; flood new labels (relabel step).
            let (labels, _) = uf.labels();
            let label_options: Vec<Option<usize>> = labels.iter().map(|&l| Some(l)).collect();
            let new_parts = Partition::from_labels(g, &label_options)
                .expect("fragments are connected by construction");
            let (new_shortcut, report) = builder.build_measured(g, tree, &new_parts);
            topo = AggTopology::compile(g, &new_parts, &new_shortcut);
            ledger.run(
                PhaseLabel::new("mst", "relabel").with_attempt(phase),
                1,
                || topo.partwise_min(&mut sim, g, &ids, log_n, config),
                |a| a.stats,
            )?;
            phases += 1;
            quality = report.quality;
        }
        chosen.sort_unstable();
        chosen.dedup();
        let total_weight = chosen.iter().map(|&e| wg.weight(e)).sum();
        let mst = Mst {
            edges: chosen,
            total_weight,
            boruvka_phases: phases,
        };
        Ok(ledger.report(mst, charged))
    }

    // ------------------------------------------------------------------
    // Min-cut
    // ------------------------------------------------------------------

    fn packed_min_cut(
        &mut self,
        trees: usize,
        use_two_respecting: bool,
    ) -> Result<Report<MinCut>, AlgoError> {
        if trees < 1 {
            return Err(AlgoError::BadQuery("need at least one packed tree".into()));
        }
        let g = self.wg.graph();
        if g.n() == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        if g.n() < 2 {
            return Err(AlgoError::BadQuery(
                "min cut needs at least two nodes".into(),
            ));
        }
        if trees > g.n() {
            return Err(AlgoError::BadQuery(format!(
                "{trees} packed trees exceed the node count {}",
                g.n()
            )));
        }
        if !self.connected {
            return Err(AlgoError::Disconnected);
        }
        check_encodable(&self.wg)?;
        self.check_positive_weights()?;
        let exact = exact_min_cut(self.wg.as_ref());
        let packing = greedy_tree_packing(self.wg.as_ref(), trees);
        // Distributed cost of the packing: one Borůvka MST per tree. The
        // load re-weighting does not change the round profile, so simulate
        // the MST once (memoized!) and charge it per tree.
        let mst: Report<Mst> = self.memoized(&Query::Mst)?.0.typed();
        let charged = mst.stats.charged_construction_rounds * trees;
        let mut ledger = Ledger::new(&mut self.trace);
        ledger.runs.extend(mst.stats.runs.into_iter().map(|mut r| {
            r.tags.phase = format!("packing-{}", r.tags.phase);
            r.repeats *= trees;
            r
        }));
        let config = self.config;
        let wg = self.wg.as_ref();
        let g = wg.graph();
        let mut best = u64::MAX;
        for (t, tree) in packing.iter().enumerate() {
            for (_, cut) in one_respecting_cuts(wg, tree) {
                best = best.min(cut);
            }
            if use_two_respecting && g.n() >= 3 {
                best = best.min(min_two_respecting_cut(wg, tree));
            }
            // Subtree-sum aggregation cost: two convergecasts over the tree.
            ledger.run(
                PhaseLabel::new("mincut", "convergecast").with_attempt(t),
                2,
                || primitives::convergecast_sum(g, tree.tree.parents(), &vec![1u64; g.n()], config),
                |r| r.1,
            )?;
        }
        let cut = MinCut {
            approx_value: best,
            exact_value: exact,
            ratio: best as f64 / exact as f64,
            trees,
        };
        Ok(ledger.report(cut, charged))
    }

    // ------------------------------------------------------------------
    // SSSP
    // ------------------------------------------------------------------

    fn check_source(&self, source: NodeId) -> Result<(), AlgoError> {
        if self.wg.graph().n() == 0 {
            return Err(AlgoError::EmptyGraph);
        }
        if source >= self.wg.graph().n() {
            return Err(AlgoError::BadQuery("source out of range".into()));
        }
        Ok(())
    }

    fn check_positive_weights(&self) -> Result<u64, AlgoError> {
        let w_min = self.wg.weights().iter().copied().min().unwrap_or(1);
        if w_min < 1 {
            return Err(AlgoError::BadQuery("positive weights required".into()));
        }
        Ok(w_min)
    }

    fn exact_sssp(&mut self, source: NodeId) -> Result<Report<Sssp>, AlgoError> {
        let config = self.config;
        let mut ledger = Ledger::new(&mut self.trace);
        let out = ledger.run(
            PhaseLabel::new("sssp-exact", "flood"),
            1,
            || bellman_ford_sssp(self.wg.as_ref(), source, config),
            |o| o.stats,
        )?;
        let detail = SsspDetail::Exact { parent: out.parent };
        Ok(ledger.report(
            Sssp {
                dist: out.dist,
                detail,
            },
            0,
        ))
    }

    fn scaled_sssp(&mut self, source: NodeId, epsilon: f64) -> Result<Report<Sssp>, AlgoError> {
        if !self.connected {
            return Err(AlgoError::Disconnected);
        }
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(AlgoError::BadQuery("epsilon must be non-negative".into()));
        }
        self.check_positive_weights()?;
        let config = self.config;
        let mut ledger = Ledger::new(&mut self.trace);
        // One span covers both internal runs (certificate + flood): their
        // sends interleave under a single simulator driver call.
        let out = ledger.span(
            &PhaseLabel::new("sssp-scaled", "certificate+flood"),
            1,
            || scaled_sssp(self.wg.as_ref(), source, epsilon, config),
            |o| {
                let mut s = o.bfs_stats;
                s.absorb(o.flood_stats);
                s
            },
        )?;
        for (subphase, stats) in [("certificate", out.bfs_stats), ("flood", out.flood_stats)] {
            ledger.runs.push(PhaseRun {
                tags: PhaseLabel::new("sssp-scaled", subphase),
                stats,
                repeats: 1,
            });
        }
        let detail = SsspDetail::Scaled {
            scale: out.scale,
            hop_budget: out.hop_budget,
        };
        Ok(ledger.report(
            Sssp {
                dist: out.dist,
                detail,
            },
            0,
        ))
    }

    /// The shortcut tier: a shortcut rooted at `source` over the session
    /// partition, a flood of the center potentials ρ, then phases of
    /// part-wise aggregation of `D + ρ` over that shortcut, each followed
    /// by one relax round, until the fixpoint or the phase budget.
    fn overlay_sssp(
        &mut self,
        source: NodeId,
        epsilon: f64,
        max_phases: usize,
    ) -> Result<Report<Sssp>, AlgoError> {
        if !self.connected {
            return Err(AlgoError::Disconnected);
        }
        if max_phases < 1 {
            return Err(AlgoError::BadQuery("need at least one phase".into()));
        }
        if epsilon.is_nan() || epsilon < 0.0 {
            return Err(AlgoError::BadQuery("epsilon must be non-negative".into()));
        }
        let w_min = self.check_positive_weights()?;
        let scale = scale_for(epsilon, w_min);
        self.note_plan_built();
        let Solver {
            ref wg,
            ref parts,
            ref builder,
            config,
            ref mut trace,
            ..
        } = *self;
        let g = wg.graph();
        let n = g.n();
        let tree = RootedTree::bfs(g, source);
        let (shortcut, report) = builder.build_measured(g, &tree, parts);
        let quality = report.quality;
        // One topology serves the ρ flood and every phase, and so does one
        // engine; the relax rounds, whose messages differ, share another.
        let topo = AggTopology::compile(g, parts, &shortcut);
        let mut agg_sim = Simulator::new();
        let mut relax_sim = Simulator::new();
        let scaled = scale_weights(wg, scale);
        let value_bits = dist_value_bits(&scaled) + 1;
        let mut ledger = Ledger::new(trace);
        // Center potentials ρ: distance from the part center inside the
        // augmented part, all parts concurrently.
        let seeds: Vec<(NodeId, u32, u64)> = part_centers(g, parts, source)
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32, 0))
            .collect();
        let flood = ledger.run(
            PhaseLabel::new("sssp-shortcut", "rho"),
            1,
            || topo.distance_flood(&mut agg_sim, &scaled, &seeds, value_bits, config),
            |r| r.stats,
        )?;
        let rho: Vec<u64> = (0..n)
            .map(|v| match parts.part_of(v) {
                Some(i) => flood
                    .value(v, i)
                    .expect("part is connected, so its flood reaches every node"),
                None => u64::MAX,
            })
            .collect();

        let mut dist = vec![u64::MAX; n];
        dist[source] = 0;
        let mut phases = 0;
        let mut converged = false;
        for phase in 0..max_phases {
            let before = dist.clone();
            // Overlay aggregation: part minima of D + ρ, through the shortcut.
            // UNREACHED on either side means "no value for this part yet";
            // finite sums saturate below the sentinel.
            let values: Vec<u64> = dist
                .iter()
                .zip(&rho)
                .map(|(&d, &r)| {
                    if r == UNREACHED {
                        UNREACHED
                    } else {
                        dist_add(d, r)
                    }
                })
                .collect();
            let agg = ledger.run(
                PhaseLabel::new("sssp-shortcut", "aggregate").with_attempt(phase),
                1,
                || topo.partwise_min(&mut agg_sim, g, &values, value_bits, config),
                |a| a.stats,
            )?;
            for (i, part) in parts.parts().iter().enumerate() {
                let m = agg.minima[i];
                if m == u64::MAX {
                    continue;
                }
                for &v in part {
                    if rho[v] == UNREACHED {
                        continue;
                    }
                    let cand = dist_add(m, rho[v]);
                    if cand < dist[v] {
                        dist[v] = cand;
                    }
                }
            }
            // Boundary stitch: one global relaxation round.
            (dist, _) = ledger.run(
                PhaseLabel::new("sssp-shortcut", "relax").with_attempt(phase),
                1,
                || {
                    primitives::distance_broadcast_round(
                        &mut relax_sim,
                        &scaled,
                        &dist,
                        value_bits,
                        config,
                    )
                },
                |r| r.1,
            )?;
            phases += 1;
            if dist == before {
                converged = true;
                break;
            }
        }
        let detail = SsspDetail::Shortcut {
            scale,
            phases,
            converged,
            shortcut_quality: quality,
        };
        let charged = quality * bits_for(n.max(2));
        Ok(ledger.report(
            Sssp {
                dist: rescale(&dist, scale),
                detail,
            },
            charged,
        ))
    }

    // ------------------------------------------------------------------
    // Connected components
    // ------------------------------------------------------------------

    fn boruvka_components(&mut self) -> Result<Report<Components>, AlgoError> {
        let Solver {
            ref wg,
            ref builder,
            config,
            ref mut trace,
            ..
        } = *self;
        let g = wg.graph();
        let n = g.n();
        let mut ledger = Ledger::new(trace);
        if n == 0 {
            let empty = Components {
                label: Vec::new(),
                forest_edges: Vec::new(),
                boruvka_phases: 0,
            };
            return Ok(ledger.report(empty, 0));
        }
        let m = g.m().max(1) as u64;
        let (comp_of, comp_count) = traversal::components(g);
        let mut uf = UnionFind::new(n);
        let mut forest: Vec<EdgeId> = Vec::new();
        let mut phases = 0;
        // Every aggregation of the query runs on one engine.
        let mut sim = Simulator::new();
        loop {
            // Fragment partition (within components).
            let (labels, _) = uf.labels();
            let options: Vec<Option<usize>> = labels.iter().map(|&l| Some(l)).collect();
            let parts = Partition::from_labels(g, &options).expect("fragments connected");
            let shortcut = build_per_component(g, &comp_of, comp_count, builder, &parts);
            let topo = AggTopology::compile(g, &parts, &shortcut);
            if parts.len() == comp_count {
                // One fragment per component: done. Final labels = min node
                // id, flooded once more for the output.
                let ids: Vec<u64> = (0..n as u64).collect();
                let agg = ledger.run(
                    PhaseLabel::new("components", "final-labels"),
                    1,
                    || topo.partwise_min(&mut sim, g, &ids, bits_for(n.max(2)), config),
                    |a| a.stats,
                )?;
                let mut label = vec![0usize; n];
                for (v, slot) in label.iter_mut().enumerate() {
                    let p = parts.part_of(v).expect("all nodes in fragments");
                    *slot = agg.minima[p] as usize;
                }
                forest.sort_unstable();
                forest.dedup();
                let components = Components {
                    label,
                    forest_edges: forest,
                    boruvka_phases: phases,
                };
                return Ok(ledger.report(components, 0));
            }
            phases += 1;
            // Candidate: minimum-id incident edge leaving the fragment.
            let mut values = vec![u64::MAX; n];
            for (v, value) in values.iter_mut().enumerate() {
                for (w, e) in g.neighbors(v) {
                    if uf.find(v) != uf.find(w) {
                        *value = (*value).min(e as u64);
                    }
                }
            }
            let value_bits = bits_for(g.m().max(2));
            let agg = ledger.run(
                PhaseLabel::new("components", "candidate").with_attempt(phases - 1),
                1,
                || topo.partwise_min(&mut sim, g, &values, value_bits, config),
                |a| a.stats,
            )?;
            for &best in &agg.minima {
                if best == u64::MAX {
                    continue;
                }
                let e = (best % m) as EdgeId;
                let (u, v) = g.endpoints(e);
                if uf.union(u, v) {
                    forest.push(e);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Part-wise aggregation
    // ------------------------------------------------------------------

    fn plan_partwise_min(
        &mut self,
        values: &[u64],
        value_bits: usize,
    ) -> Result<Report<PartwiseMin>, AlgoError> {
        if values.len() != self.wg.graph().n() {
            return Err(AlgoError::BadQuery("one value per node required".into()));
        }
        self.ensure_plan()?;
        let plan = self.plan.as_ref().expect("ensure_plan filled the plan");
        let g = self.wg.graph();
        let config = self.config;
        let mut ledger = Ledger::new(&mut self.trace);
        let agg = ledger.run(
            PhaseLabel::new("partwise", "min"),
            1,
            || partwise_min_impl(g, plan.parts(), plan.shortcut(), values, value_bits, config),
            |a| a.stats,
        )?;
        Ok(ledger.report(PartwiseMin { minima: agg.minima }, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minex_core::construct::{AutoCappedBuilder, SteinerBuilder};
    use minex_graphs::{generators, WeightModel};
    use std::collections::HashSet;

    fn cfg(n: usize) -> CongestConfig {
        CongestConfig::for_nodes(n)
            .with_bandwidth(192)
            .with_max_rounds(500_000)
    }

    fn weighted(seed: u64) -> WeightedGraph {
        let g = generators::triangulated_grid(6, 6);
        let mut rng = StdRng::seed_from_u64(seed);
        WeightModel::DistinctShuffled.apply(&g, &mut rng)
    }

    #[test]
    fn repeated_queries_are_identical() {
        let wg = weighted(3);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 5, seed: 9 })
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let a = solver.mst().unwrap();
        let b = solver.mst().unwrap();
        assert_eq!(a, b);
        let s1 = solver
            .sssp(
                0,
                Tier::Shortcut {
                    epsilon: 0.5,
                    max_phases: 16,
                },
            )
            .unwrap();
        let s2 = solver
            .sssp(
                0,
                Tier::Shortcut {
                    epsilon: 0.5,
                    max_phases: 16,
                },
            )
            .unwrap();
        assert_eq!(s1, s2);
        let values: Vec<u64> = (0..wg.graph().n() as u64).rev().collect();
        let p1 = solver.partwise_min(&values, 32).unwrap();
        let p2 = solver.partwise_min(&values, 32).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_graph_is_a_value_not_a_panic() {
        let g = Graph::from_edges(0, std::iter::empty()).unwrap();
        let mut solver = Solver::for_graph(&g).build().unwrap();
        assert_eq!(solver.mst().unwrap_err(), AlgoError::EmptyGraph);
        assert_eq!(
            solver.sssp(0, Tier::Exact).unwrap_err(),
            AlgoError::EmptyGraph
        );
        assert_eq!(solver.min_cut(2).unwrap_err(), AlgoError::EmptyGraph);
        // Components still work: an empty answer.
        let comps = solver.components().unwrap();
        assert!(comps.value.label.is_empty());
        assert_eq!(comps.stats.simulated_rounds, 0);
    }

    #[test]
    fn disconnected_graph_is_a_value_not_a_panic() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let mut solver = Solver::for_graph(&g)
            .shortcut_builder(SteinerBuilder)
            .build()
            .unwrap();
        assert_eq!(solver.mst().unwrap_err(), AlgoError::Disconnected);
        assert_eq!(
            solver.sssp(0, Tier::Scaled { epsilon: 0.5 }).unwrap_err(),
            AlgoError::Disconnected
        );
        assert_eq!(solver.min_cut(1).unwrap_err(), AlgoError::Disconnected);
        // The exact tier degrades gracefully (unreached = MAX) …
        let exact = solver.sssp(0, Tier::Exact).unwrap();
        assert_eq!(exact.value.dist, vec![0, 1, u64::MAX, u64::MAX]);
        // … and components label both halves.
        let comps = solver.components().unwrap();
        assert_eq!(comps.value.label, vec![0, 0, 2, 2]);
    }

    #[test]
    fn bad_queries_are_values() {
        let wg = weighted(5);
        let mut solver = Solver::builder(&wg).config(cfg(36)).build().unwrap();
        assert!(matches!(
            solver.sssp(10_000, Tier::Exact).unwrap_err(),
            AlgoError::BadQuery(_)
        ));
        assert!(matches!(
            solver.min_cut(0).unwrap_err(),
            AlgoError::BadQuery(_)
        ));
        assert!(matches!(
            solver
                .sssp(
                    0,
                    Tier::Shortcut {
                        epsilon: 0.5,
                        max_phases: 0
                    }
                )
                .unwrap_err(),
            AlgoError::BadQuery(_)
        ));
        assert!(matches!(
            solver.partwise_min(&[1, 2, 3], 8).unwrap_err(),
            AlgoError::BadQuery(_)
        ));
        assert!(matches!(
            solver.sssp(0, Tier::Scaled { epsilon: -1.0 }).unwrap_err(),
            AlgoError::BadQuery(_)
        ));
    }

    #[test]
    fn builder_validation() {
        let g = generators::path(4);
        let err = Solver::for_graph(&g).root(9).build().unwrap_err();
        assert!(matches!(err, AlgoError::BadQuery(_)));
        let err = Solver::for_graph(&g)
            .parts(PartsStrategy::Voronoi { parts: 0, seed: 1 })
            .build()
            .unwrap_err();
        assert!(matches!(err, AlgoError::BadQuery(_)));
        // An explicit partition built for a different graph (same node
        // count, different edges) is rejected, not planned over.
        let other = generators::cycle(4);
        let disconnected_in_path = Partition::new(&other, vec![vec![0, 3]]).unwrap();
        let err = Solver::for_graph(&g)
            .parts(PartsStrategy::Explicit(disconnected_in_path))
            .build()
            .unwrap_err();
        assert!(matches!(err, AlgoError::BadQuery(_)));
        let wg = WeightedGraph::new(g, vec![5, 6, 7]);
        let solver = Solver::builder(&wg).build().unwrap();
        assert_eq!(solver.weighted_graph().weights(), &[5, 6, 7]);
    }

    #[test]
    fn plan_is_exposed_and_stable() {
        let wg = weighted(8);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 4, seed: 2 })
            .shortcut_builder(AutoCappedBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let quality = solver.plan().unwrap().quality().clone();
        let charge = solver.plan_charge().unwrap();
        assert_eq!(charge, quality.quality * bits_for(36));
        // Queries do not perturb the plan.
        let _ = solver.mst().unwrap();
        assert_eq!(solver.plan().unwrap().quality(), &quality);
        assert_eq!(solver.builder_name(), "auto-capped");
    }

    #[test]
    fn report_stats_add_up() {
        let wg = weighted(11);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 4, seed: 1 })
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        for report_stats in [
            solver.mst().unwrap().stats,
            solver.min_cut(2).unwrap().stats,
            solver.sssp(3, Tier::Exact).unwrap().stats,
            solver
                .sssp(3, Tier::Scaled { epsilon: 0.25 })
                .unwrap()
                .stats,
            solver
                .sssp(
                    3,
                    Tier::Shortcut {
                        epsilon: 0.25,
                        max_phases: 24,
                    },
                )
                .unwrap()
                .stats,
            solver.components().unwrap().stats,
        ] {
            let sum: usize = report_stats
                .runs
                .iter()
                .map(|r| r.stats.rounds * r.repeats)
                .sum();
            assert_eq!(report_stats.simulated_rounds, sum);
            assert_eq!(
                report_stats.aggregate().rounds,
                report_stats.simulated_rounds
            );
            assert_eq!(
                report_stats.total_rounds(),
                report_stats.simulated_rounds + report_stats.charged_construction_rounds
            );
        }
    }

    #[test]
    fn encode_orders_by_weight_then_edge() {
        assert!(encode(2, 5, 100) < encode(3, 0, 100));
        assert!(encode(2, 5, 100) > encode(2, 4, 100));
        assert_eq!((encode(7, 42, 100) % 100) as EdgeId, 42);
    }

    /// A 4-cycle whose edge 0 weighs `heavy`; the MST is edges 1..=3. The
    /// bandwidth fits 64-bit candidates, so only the encoding can fail.
    fn heavy_cycle(heavy: u64) -> Solver {
        let g = generators::cycle(4);
        assert_eq!(g.endpoints(0), (0, 1));
        Solver::builder(&WeightedGraph::new(g, vec![heavy, 5, 6, 7]))
            .config(CongestConfig::for_nodes(4).with_bandwidth(128))
            .build()
            .unwrap()
    }

    #[test]
    fn mst_and_min_cut_reject_weights_that_overflow_the_encoding() {
        // 2^62·4 wraps to 0 in u64: unchecked, edge 0 would look lightest
        // and the MST would come back as [0, 1, 2].
        let mut solver = heavy_cycle(1 << 62);
        assert!(matches!(solver.mst(), Err(AlgoError::BadQuery(_))));
        assert!(matches!(solver.min_cut(1), Err(AlgoError::BadQuery(_))));
        // One above the bound: (2^62 − 1)·4 + 3 = u64::MAX, the sentinel.
        let mut solver = heavy_cycle((1 << 62) - 1);
        assert!(matches!(solver.mst(), Err(AlgoError::BadQuery(_))));
    }

    #[test]
    fn min_cut_sums_largest_admitted_weights_without_overflow() {
        // Subtree sums of weighted degrees pass u64::MAX on the cycle (up
        // to 8·w), and the doubled LCA weight does on the path (2·w): both
        // are exact in u128.
        let heavy = (1u64 << 62) - 2;
        let cycle = WeightedGraph::new(generators::cycle(4), vec![heavy; 4]);
        let path = WeightedGraph::new(generators::path(2), vec![u64::MAX - 1]);
        for (wg, want) in [(cycle, 2 * heavy), (path, u64::MAX - 1)] {
            let mut solver = Solver::builder(&wg)
                .config(CongestConfig::for_nodes(wg.graph().n()).with_bandwidth(128))
                .build()
                .unwrap();
            let cut = solver.min_cut(1).unwrap().value;
            assert_eq!((cut.approx_value, cut.exact_value), (want, want));
        }
    }

    #[test]
    fn min_cut_rejects_zero_weight_edges() {
        // A zero cut has no finite ratio, and the 2-respecting kernel skips
        // zero cuts: the cycle would answer approx 5 against exact 0.
        for (g, weights) in [
            (generators::path(3), vec![0, 1]),
            (generators::cycle(4), vec![0, 0, 5, 5]),
        ] {
            let wg = WeightedGraph::new(g, weights);
            let mut solver = Solver::builder(&wg).build().unwrap();
            assert!(matches!(
                solver.min_cut(1),
                Err(AlgoError::BadQuery(m)) if m.contains("positive weights")
            ));
        }
    }

    #[test]
    fn min_cut_bounds_trees_by_node_count() {
        // One packed tree per requested tree: a count above n is refused
        // before the packing allocates anything for it.
        let g = generators::cycle(6);
        let mut solver = Solver::for_graph(&g).build().unwrap();
        for trees in [7, 1 << 40, usize::MAX] {
            assert!(matches!(
                solver.min_cut(trees),
                Err(AlgoError::BadQuery(m)) if m.contains("exceed the node count 6")
            ));
        }
        assert_eq!(solver.min_cut(6).unwrap().value.approx_value, 2);
        // The empty-graph and node-count checks still come first.
        let empty = Graph::from_edges(0, std::iter::empty()).unwrap();
        let mut solver = Solver::for_graph(&empty).build().unwrap();
        assert_eq!(solver.min_cut(5).unwrap_err(), AlgoError::EmptyGraph);
        let single = Graph::from_edges(1, std::iter::empty()).unwrap();
        let mut solver = Solver::for_graph(&single).build().unwrap();
        assert!(matches!(
            solver.min_cut(5),
            Err(AlgoError::BadQuery(m)) if m.contains("at least two nodes")
        ));
    }

    #[test]
    fn weights_at_the_encoding_bound_are_answered_exactly() {
        // (2^62 − 2)·4 + 3 = u64::MAX − 4: the largest weight m = 4 allows.
        let heavy = (1u64 << 62) - 2;
        let mut solver = heavy_cycle(heavy);
        let mst = solver.mst().unwrap().value;
        assert_eq!(mst.edges, vec![1, 2, 3]);
        assert_eq!(mst.total_weight, 18);
        let cut = solver.min_cut(2).unwrap().value;
        assert_eq!((cut.approx_value, cut.exact_value), (11, 11));
    }

    #[test]
    fn whole_and_explicit_strategies() {
        let g = generators::cycle(12);
        let mut whole = Solver::for_graph(&g)
            .parts(PartsStrategy::Whole)
            .shortcut_builder(SteinerBuilder)
            .build()
            .unwrap();
        let values: Vec<u64> = (0..12u64).map(|v| v ^ 5).collect();
        let got = whole.partwise_min(&values, 16).unwrap();
        assert_eq!(
            got.value.minima,
            vec![values.iter().copied().min().unwrap()]
        );

        let parts = Partition::new(&g, vec![vec![0, 1], vec![6, 7]]).unwrap();
        let mut explicit = Solver::for_graph(&g)
            .parts(PartsStrategy::Explicit(parts))
            .shortcut_builder(SteinerBuilder)
            .build()
            .unwrap();
        let got = explicit.partwise_min(&values, 16).unwrap();
        assert_eq!(got.value.minima.len(), 2);
    }

    // ------------------------------------------------------------------
    // Dynamic updates
    // ------------------------------------------------------------------

    /// A mutated session must be indistinguishable from a session built
    /// fresh on the mutated weighted graph: same plan bytes, same reports.
    fn assert_matches_fresh<B: ShortcutBuilder + Send + Copy + 'static>(
        solver: &mut Solver,
        strategy: PartsStrategy,
        builder: B,
    ) {
        let wg = solver.weighted_graph().clone();
        let mut fresh = Solver::builder(&wg)
            .parts(strategy)
            .shortcut_builder(builder)
            .config(solver.config())
            .build()
            .unwrap();
        assert_eq!(solver.parts().parts(), fresh.parts().parts());
        assert_eq!(solver.is_connected(), fresh.is_connected());
        if solver.is_connected() {
            {
                let a = solver.plan().unwrap();
                let b = fresh.plan().unwrap();
                assert_eq!(a.shortcut(), b.shortcut());
                assert_eq!(a.quality(), b.quality());
                for v in 0..wg.graph().n() {
                    assert_eq!(a.tree().parent(v), b.tree().parent(v));
                }
            }
            assert_eq!(solver.mst().unwrap(), fresh.mst().unwrap());
            assert_eq!(
                solver.sssp(0, Tier::Exact).unwrap(),
                fresh.sssp(0, Tier::Exact).unwrap()
            );
        }
        assert_eq!(solver.components().unwrap(), fresh.components().unwrap());
    }

    #[test]
    fn apply_empty_batch_is_a_noop() {
        let wg = weighted(11);
        let mut solver = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let before = solver.mst().unwrap();
        let stats = solver.apply(&[]).unwrap();
        assert!(stats.noop);
        assert_eq!(stats.memos_dropped, 0);
        assert_eq!(solver.mst().unwrap(), before);
    }

    #[test]
    fn apply_cancelling_batch_keeps_memos() {
        let wg = weighted(12);
        let (_, u, v) = wg.graph().edges().next().unwrap();
        let w = wg.weight(0);
        let mut solver = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        solver.mst().unwrap();
        let stats = solver
            .apply(&[
                EdgeMutation::Delete { u, v },
                EdgeMutation::Insert { u, v, weight: w },
            ])
            .unwrap();
        assert!(stats.noop);
        assert_eq!((stats.inserted, stats.deleted), (1, 1));
        assert_eq!(stats.memos_dropped, 0);
        assert!(solver.memo.contains_key(&Query::Mst));
        // The other staging path: a buffered insert deleted again.
        let (a, b) = (0, (wg.graph().n() - 1) as NodeId);
        assert!(!wg.graph().has_edge(a, b));
        let stats = solver
            .apply(&[
                EdgeMutation::Insert {
                    u: a,
                    v: b,
                    weight: 1,
                },
                EdgeMutation::Delete { u: b, v: a },
            ])
            .unwrap();
        assert!(stats.noop);
        assert_eq!((stats.inserted, stats.deleted), (1, 1));
        assert_eq!(stats.memos_dropped, 0);
        assert!(solver.memo.contains_key(&Query::Mst));
    }

    #[test]
    fn apply_delete_then_reinsert_takes_the_new_weight() {
        let wg = weighted(12);
        let mut solver = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let before = solver.mst().unwrap();
        // Re-insert an MST edge as the unique heaviest edge: the graph has
        // no bridges, so the new MST must leave it out.
        let e = before.value.edges[0];
        let (u, v) = wg.graph().endpoints(e);
        let heavy = wg.weights().iter().max().unwrap() + 1;
        let stats = solver
            .apply(&[
                EdgeMutation::Delete { u, v },
                EdgeMutation::Insert {
                    u: v,
                    v: u,
                    weight: heavy,
                },
            ])
            .unwrap();
        assert!(!stats.noop);
        assert_eq!((stats.inserted, stats.deleted), (1, 1));
        assert_eq!(solver.graph(), wg.graph());
        assert_eq!(solver.weighted_graph().weight(e), heavy);
        assert!(stats.memos_dropped > 0);
        assert!(solver.memo.is_empty());
        let mut weights = wg.weights().to_vec();
        weights[e] = heavy;
        let reweighted = WeightedGraph::new(wg.graph().clone(), weights);
        let mut fresh = Solver::builder(&reweighted)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let after = solver.mst().unwrap();
        assert!(!after.value.edges.contains(&e));
        assert_eq!(after, fresh.mst().unwrap());
    }

    #[test]
    fn apply_repairs_plan_and_matches_fresh_session() {
        let wg = weighted(13);
        let g = wg.graph().clone();
        let strategy = PartsStrategy::Voronoi { parts: 5, seed: 4 };
        let mut solver = Solver::builder(&wg)
            .parts(strategy.clone())
            .shortcut_builder(SteinerBuilder)
            .config(cfg(g.n()))
            .build()
            .unwrap();
        solver.plan().unwrap(); // materialize the session plan
        solver.mst().unwrap(); // populate the memo

        // A new weight keeps the edge set, so the cells hold and the cached
        // plan is repaired.
        let (e, a, b) = g.edges().next().unwrap();
        let heavy = wg.weights().iter().max().unwrap() + 1;
        let stats = solver
            .apply(&[
                EdgeMutation::Delete { u: a, v: b },
                EdgeMutation::Insert {
                    u: a,
                    v: b,
                    weight: heavy,
                },
            ])
            .unwrap();
        assert!(!stats.noop && stats.connected);
        assert!(!stats.partition_changed);
        assert!(stats.plan_repaired);
        assert!(!stats.plan.partition_changed && !stats.plan.full_rebuild);
        assert_eq!(stats.plan.parts_total, solver.parts().len());
        assert!(stats.memos_dropped > 0);
        assert!(solver.plan.is_some() && solver.tree.is_some());
        assert_eq!(solver.weighted_graph().weight(e), heavy);
        assert_matches_fresh(&mut solver, strategy.clone(), SteinerBuilder);
        // A long chord moves the cells: the cached plan is dropped, not
        // rebuilt, and the next plan read builds it.
        let (u, v) = (0, (g.n() - 1) as NodeId);
        assert!(!g.has_edge(u, v));
        assert!(solver.plan.is_some());
        let stats = solver
            .apply(&[EdgeMutation::Insert { u, v, weight: 1 }])
            .unwrap();
        assert!(!stats.noop && stats.connected);
        assert!(stats.partition_changed);
        assert!(!stats.plan_repaired);
        assert_eq!(stats.plan, PlanRepairStats::default());
        assert!(stats.memos_dropped > 0);
        assert!(solver.plan.is_none() && solver.tree.is_none());
        assert!(solver.graph().has_edge(u, v));
        assert_matches_fresh(&mut solver, strategy, SteinerBuilder);
    }

    #[test]
    fn a_moved_partition_defers_the_plan_build_to_the_first_plan_read() {
        let wg = weighted(13);
        let n = wg.graph().n();
        let build = |strategy: PartsStrategy| {
            let mut solver = Solver::builder(&wg)
                .parts(strategy)
                .shortcut_builder(SteinerBuilder)
                .config(cfg(n))
                .trace(true)
                .build()
                .unwrap();
            solver.plan().unwrap();
            solver
        };
        let builds = |solver: &Solver| {
            let c = solver.trace().unwrap().counters;
            (c.plans_built, c.plan_repairs)
        };
        let chord = [EdgeMutation::Insert {
            u: 0,
            v: (n - 1) as NodeId,
            weight: 1,
        }];
        let mut solver = build(PartsStrategy::Voronoi { parts: 5, seed: 4 });
        let cells = solver.parts().clone();
        assert_eq!(builds(&solver), (1, 0));
        let stats = solver.apply(&chord).unwrap();
        assert!(stats.partition_changed && !stats.plan_repaired);
        assert_eq!(builds(&solver), (1, 0), "apply built or repaired a plan");
        // Reads that do not use the plan build nothing.
        solver.components().unwrap();
        solver.sssp(0, Tier::Exact).unwrap();
        solver.sssp(0, Tier::Scaled { epsilon: 0.25 }).unwrap();
        assert_eq!(builds(&solver), (1, 0), "a planless read built a plan");
        // The first plan read builds it once; later ones reuse it.
        let values: Vec<u64> = (0..n as u64).collect();
        solver.partwise_min(&values, 16).unwrap();
        assert_eq!(builds(&solver), (2, 0));
        let reversed: Vec<u64> = values.iter().rev().copied().collect();
        solver.partwise_min(&reversed, 16).unwrap();
        assert_eq!(builds(&solver), (2, 0));
        // The same batch on the same cells, held explicitly: the partition
        // holds, so the plan is repaired in place.
        let mut explicit = build(PartsStrategy::Explicit(cells));
        let stats = explicit.apply(&chord).unwrap();
        assert!(!stats.partition_changed);
        assert!(stats.plan_repaired && !stats.plan.full_rebuild);
        assert_eq!(builds(&explicit), (1, 1));
    }

    #[test]
    fn a_builder_that_declines_part_wise_rebuilds_drops_the_plan_on_apply() {
        // The default session: singletons under `AutoCappedBuilder`, whose
        // cap sweep couples the parts. Its repair would rebuild all 144
        // parts inside the write, so `apply` drops the plan instead.
        let g = generators::grid(12, 12);
        let mut solver = Solver::for_graph(&g).trace(true).build().unwrap();
        solver.plan().unwrap();
        let stats = solver
            .apply(&[EdgeMutation::Insert {
                u: 0,
                v: 13,
                weight: 1,
            }])
            .unwrap();
        assert!(stats.connected && !stats.partition_changed);
        assert!(!stats.plan_repaired);
        assert_eq!(stats.plan, PlanRepairStats::default());
        assert!(solver.plan.is_none() && solver.tree.is_none());
        let c = solver.trace().unwrap().counters;
        assert_eq!((c.plans_built, c.plan_repairs), (1, 0));
        assert_matches_fresh(&mut solver, PartsStrategy::Singletons, AutoCappedBuilder);
        let c = solver.trace().unwrap().counters;
        assert_eq!(c.plans_built, 2, "the first plan read builds it again");
    }

    #[test]
    fn apply_invalid_mutation_leaves_session_untouched() {
        let wg = weighted(14);
        let mut solver = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let before = solver.mst().unwrap();
        // Second mutation is invalid: the edge was already deleted.
        let (_, u, v) = wg.graph().edges().next().unwrap();
        let err = solver
            .apply(&[EdgeMutation::Delete { u, v }, EdgeMutation::Delete { u, v }])
            .unwrap_err();
        assert!(matches!(err, AlgoError::BadQuery(_)), "{err:?}");
        assert_eq!(solver.graph(), wg.graph());
        assert_eq!(solver.mst().unwrap(), before);
    }

    #[test]
    fn apply_explicit_partition_fast_path_and_failure() {
        // Path 0-1-2-3-4-5 with explicit parts {0,1,2} and {3,4,5}.
        let g = generators::path(6);
        let parts = Partition::new(&g, vec![vec![0, 1, 2], vec![3, 4, 5]]).unwrap();
        let strategy = PartsStrategy::Explicit(parts);
        let mut solver = Solver::for_graph(&g)
            .parts(strategy.clone())
            .shortcut_builder(SteinerBuilder)
            .build()
            .unwrap();
        solver.plan().unwrap();
        // Cross-part churn: delete {2,3} (disconnects the graph), then a
        // batch that also bridges it back elsewhere keeps it connected.
        let stats = solver
            .apply(&[
                EdgeMutation::Delete { u: 2, v: 3 },
                EdgeMutation::Insert {
                    u: 0,
                    v: 5,
                    weight: 1,
                },
            ])
            .unwrap();
        assert!(stats.connected);
        assert!(!stats.partition_changed);
        assert_matches_fresh(&mut solver, strategy, SteinerBuilder);
        // Deleting {1,2} disconnects part 0's induced subgraph: the same
        // BadQuery a fresh build would report, and the session stays
        // usable on the unmutated graph.
        let err = solver
            .apply(&[EdgeMutation::Delete { u: 1, v: 2 }])
            .unwrap_err();
        assert!(
            matches!(&err, AlgoError::BadQuery(m) if m.contains("part 0 does not induce")),
            "{err:?}"
        );
        assert!(solver.graph().has_edge(1, 2)); // untouched
    }

    #[test]
    fn apply_disconnection_clears_plan_and_components_reflect_split() {
        let g = generators::path(6);
        let mut solver = Solver::for_graph(&g)
            .shortcut_builder(AutoCappedBuilder)
            .build()
            .unwrap();
        solver.plan().unwrap();
        let stats = solver
            .apply(&[EdgeMutation::Delete { u: 2, v: 3 }])
            .unwrap();
        assert!(!stats.connected);
        assert!(!stats.plan_repaired);
        assert!(!solver.is_connected());
        assert!(matches!(solver.mst(), Err(AlgoError::Disconnected)));
        // The shortcut tier needs the session plan, hence connectivity;
        // exact SSSP floods per component and still works, like a fresh
        // session's would.
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
        let comps = solver.components().unwrap();
        let distinct: HashSet<usize> = comps.value.label.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
        // Reconnect: the session becomes fully functional again.
        let stats = solver
            .apply(&[EdgeMutation::Insert {
                u: 2,
                v: 3,
                weight: 1,
            }])
            .unwrap();
        assert!(stats.connected);
        assert_matches_fresh(&mut solver, PartsStrategy::Singletons, AutoCappedBuilder);
    }

    // ------------------------------------------------------------------
    // Session tracing
    // ------------------------------------------------------------------

    /// Drives one traced session through every query kind plus a mutation
    /// batch and returns the drained trace.
    fn traced_session_run() -> SessionTrace {
        let wg = weighted(21);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 5, seed: 3 })
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .trace(true)
            .build()
            .unwrap();
        solver.mst().unwrap();
        solver.mst().unwrap(); // memo hit
        solver.min_cut(2).unwrap();
        solver.sssp(0, Tier::Exact).unwrap();
        solver.sssp(0, Tier::Scaled { epsilon: 0.25 }).unwrap();
        solver
            .sssp(
                0,
                Tier::Shortcut {
                    epsilon: 0.25,
                    max_phases: 24,
                },
            )
            .unwrap();
        solver.components().unwrap();
        let values: Vec<u64> = (0..wg.graph().n() as u64).rev().collect();
        solver.partwise_min(&values, 32).unwrap();
        solver
            .apply(&[EdgeMutation::Insert {
                u: 0,
                v: 35,
                weight: 1,
            }])
            .unwrap();
        solver.mst().unwrap(); // recompute on the mutated graph
        let trace = solver.take_trace().expect("session is traced");
        // Draining leaves tracing enabled with a fresh record.
        assert_eq!(solver.trace().expect("still traced").counters.queries, 0);
        trace
    }

    #[test]
    fn session_trace_is_engine_independent_and_reconciles() {
        // Two identical sessions record identical traces.
        let seq = traced_session_run();
        let again = traced_session_run();
        assert_eq!(seq, again);
        assert_eq!(seq.to_jsonl(), again.to_jsonl());
        assert_eq!(seq.profile, again.profile);

        // Counters: 10 successful calls; the second mst() is the only hit.
        assert_eq!(seq.counters.queries, 10);
        assert_eq!(seq.counters.memo_hits, 1);
        assert_eq!(seq.counters.memo_misses, 8); // apply is neither
        assert!(seq.counters.plans_built >= 1);
        assert_eq!(seq.counters.plan_repairs, 1);
        assert!(seq.counters.memos_dropped > 0);

        // The profile's wire totals cover exactly the simulated (not
        // memo-replayed, not analytically charged) runs: every phase span
        // recorded its own wire traffic, and spans partition the total.
        let span_msgs: u64 = seq.profile.phases().iter().map(|s| s.wire_messages).sum();
        assert_eq!(span_msgs, seq.profile.total_messages());
        assert!(seq.profile.max_edge_messages() > 0);

        // Query spans: the memo-hit mst reports the same rounds as the
        // fresh one while the profile saw no new traffic for it.
        let mst_spans: Vec<&QuerySpan> = seq.queries.iter().filter(|q| q.label == "mst").collect();
        assert_eq!(mst_spans.len(), 3);
        assert!(!mst_spans[0].cache_hit && mst_spans[1].cache_hit);
        assert_eq!(mst_spans[0].simulated_rounds, mst_spans[1].simulated_rounds);
        let apply_span = seq
            .queries
            .iter()
            .find(|q| q.label == "apply")
            .expect("apply span recorded");
        assert_eq!(apply_span.repair.unwrap().inserted, 1);

        // JSONL: every line is tagged, starts with counters, ends with the
        // summary.
        let jsonl = seq.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"counters\""));
        assert!(lines.last().unwrap().starts_with("{\"type\":\"summary\""));
        assert!(lines.iter().all(|l| l.starts_with("{\"type\":\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"phase\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"edge\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"hot\"")));
    }

    #[test]
    fn untraced_sessions_report_identically_to_traced_ones() {
        let wg = weighted(22);
        let build = |trace: bool| {
            Solver::builder(&wg)
                .parts(PartsStrategy::Voronoi { parts: 4, seed: 6 })
                .shortcut_builder(SteinerBuilder)
                .config(cfg(wg.graph().n()))
                .trace(trace)
                .build()
                .unwrap()
        };
        let mut plain = build(false);
        let mut traced = build(true);
        assert_eq!(plain.mst().unwrap(), traced.mst().unwrap());
        assert_eq!(
            plain.sssp(2, Tier::Exact).unwrap(),
            traced.sssp(2, Tier::Exact).unwrap()
        );
        assert_eq!(plain.trace(), None);
        let tr = traced.trace().unwrap();
        assert_eq!(tr.counters.queries, 2);
        // Profile totals equal the sum of the reports' aggregates (nothing
        // was memo-served, so wire == reported).
        let reported: u64 = [
            plain.mst().unwrap().stats,
            plain.sssp(2, Tier::Exact).unwrap().stats,
        ]
        .iter()
        .map(|s| s.aggregate().messages)
        .sum();
        assert_eq!(tr.profile.total_messages(), reported);
    }

    #[test]
    fn memo_misses_simulate_every_run_they_report() {
        // One source at several budgets and ε values: every query is a memo
        // miss on the same source and weight scale, so each one must
        // simulate (and trace) its own shortcut, ρ flood and phases.
        let wg = weighted(26);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 4, seed: 8 })
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .trace(true)
            .build()
            .unwrap();
        let mut reported = 0;
        let mut runs = 0;
        for epsilon in [0.25, 0.5] {
            for max_phases in [2, 5, 36] {
                let tier = Tier::Shortcut {
                    epsilon,
                    max_phases,
                };
                reported += solver.sssp(0, tier).unwrap().stats.aggregate().messages;
                runs += 1;
            }
        }
        let tr = solver.trace().unwrap();
        assert_eq!(tr.counters.memo_misses, runs);
        assert_eq!(tr.profile.total_messages(), reported);
        assert_eq!(tr.counters.plans_built, runs);
    }

    #[test]
    fn phase_run_tags_mirror_display_labels() {
        let wg = weighted(24);
        let mut solver = Solver::builder(&wg)
            .parts(PartsStrategy::Voronoi { parts: 4, seed: 2 })
            .shortcut_builder(SteinerBuilder)
            .config(cfg(wg.graph().n()))
            .build()
            .unwrap();
        let mst = solver.mst().unwrap();
        for run in &mst.stats.runs {
            assert_eq!(run.tags.phase, "mst");
            assert!(matches!(
                run.tags.subphase.as_str(),
                "candidate" | "relabel"
            ));
            // The display label renders from the structured tags.
            let attempt = run.tags.attempt.expect("mst runs carry their phase");
            assert_eq!(
                run.tags.to_string(),
                format!("mst/{}#{attempt}", run.tags.subphase)
            );
        }
        let cut = solver.min_cut(2).unwrap();
        assert!(cut.stats.runs.iter().any(|r| r.tags.phase == "packing-mst"));
        assert!(cut
            .stats
            .runs
            .iter()
            .any(|r| r.tags.phase == "mincut" && r.tags.subphase == "convergecast"));
        let sssp = solver
            .sssp(
                1,
                Tier::Shortcut {
                    epsilon: 0.5,
                    max_phases: 16,
                },
            )
            .unwrap();
        assert_eq!(
            sssp.stats.runs[0].tags,
            PhaseLabel::new("sssp-shortcut", "rho")
        );
        assert!(sssp
            .stats
            .runs
            .iter()
            .any(|r| r.tags.subphase == "aggregate" && r.tags.attempt == Some(0)));
    }

    #[test]
    fn queries_compare_epsilon_by_bit_pattern() {
        let scaled = |epsilon: f64| Query::Sssp {
            source: 0,
            tier: Tier::Scaled { epsilon },
        };
        assert_eq!(scaled(f64::NAN), scaled(f64::NAN));
        assert_ne!(scaled(0.0), scaled(-0.0));
        let shortcut = Query::Sssp {
            source: 0,
            tier: Tier::Shortcut {
                epsilon: 0.0,
                max_phases: 0,
            },
        };
        assert_ne!(scaled(0.0), shortcut);
        let mut memo = HashSet::new();
        assert!(memo.insert(scaled(0.25)));
        assert!(!memo.insert(scaled(0.25)));
    }

    #[test]
    fn the_memo_stays_bounded() {
        let g = generators::triangulated_grid(4, 4);
        let build = || {
            Solver::for_graph(&g)
                .parts(PartsStrategy::Voronoi { parts: 3, seed: 5 })
                .shortcut_builder(SteinerBuilder)
                .trace(true)
                .build()
                .unwrap()
        };
        let values = |i: usize| -> Vec<u64> { (0..g.n()).map(|v| (v * 7 + i) as u64).collect() };
        let mut solver = build();
        for i in 0..MEMO_CAP {
            solver.partwise_min(&values(i), 16).unwrap();
            assert!(solver.memo.len() <= MEMO_CAP);
        }
        // The overflow query is answered, not stored, and matches a fresh
        // session's report.
        let overflow = solver.partwise_min(&values(MEMO_CAP), 16).unwrap();
        assert_eq!(solver.memo.len(), MEMO_CAP);
        assert_eq!(
            overflow,
            build().partwise_min(&values(MEMO_CAP), 16).unwrap()
        );
        // An early query is still memoized: a hit, not a recomputation.
        solver.partwise_min(&values(0), 16).unwrap();
        let counters = solver.trace().unwrap().counters;
        assert_eq!(counters.queries, MEMO_CAP + 2);
        assert_eq!(counters.memo_hits, 1);
        assert_eq!(counters.memo_misses, MEMO_CAP + 1);
    }

    #[test]
    fn run_answers_match_the_typed_reports_on_the_wire() {
        let wg = weighted(25);
        let build = || {
            Solver::builder(&wg)
                .parts(PartsStrategy::Voronoi { parts: 4, seed: 3 })
                .shortcut_builder(SteinerBuilder)
                .config(cfg(wg.graph().n()))
                .build()
                .unwrap()
        };
        let values: Vec<u64> = (0..wg.graph().n() as u64).map(|v| v % 5).collect();
        let shortcut = Tier::Shortcut {
            epsilon: 0.5,
            max_phases: 36,
        };
        let mut typed = build();
        let wires = [
            typed.mst().unwrap().to_wire_string(),
            typed.min_cut(2).unwrap().to_wire_string(),
            typed.sssp(1, shortcut).unwrap().to_wire_string(),
            typed.components().unwrap().to_wire_string(),
            typed.partwise_min(&values, 8).unwrap().to_wire_string(),
        ];
        let queries = [
            Query::Mst,
            Query::MinCut {
                trees: 2,
                two_respecting: true,
            },
            Query::Sssp {
                source: 1,
                tier: shortcut,
            },
            Query::Components,
            Query::PartwiseMin {
                values: values.clone(),
                value_bits: 8,
            },
        ];
        let mut untyped = build();
        for (query, wire) in queries.iter().zip(&wires) {
            assert_eq!(&untyped.run(query).unwrap().to_wire_string(), wire);
        }
    }
}
