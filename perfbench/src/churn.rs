//! `churn`: one long in-process session on a seeded maze (a grid with
//! bimodal weights) with Voronoi parts and the Steiner construction.
//! Writes (`Solver::apply` batches) alternate with cheap reads
//! (`components`, `partwise_min`, exact- and scaled-tier `sssp`). Every write repairs
//! the plan and drops the memos, so every read misses.
//!
//! The writes model flapping links: a batch drawn from
//! `workloads::churn_stream`, one read, then the batch that undoes it —
//! two writes per read. The session keeps the maze's shape, so a round's
//! cost depends on the seed's weights and parts, not on how far the
//! random stream has drifted the graph.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use minex_algo::solver::{PartsStrategy, Solver, Tier};
use minex_algo::sssp::bellman_ford_sssp;
use minex_algo::wire::ToWire;
use minex_algo::workloads::churn_stream;
use minex_core::construct::SteinerBuilder;
use minex_core::ShortcutPlan;
use minex_graphs::{
    generators, traversal, DeltaGraph, EdgeId, EdgeMutation, Graph, NodeId, WeightModel,
    WeightedGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::common::{another_round, check, run_traced, Opts, Outcome, Query};
use crate::stats::{derive_seed, fnv64};
use crate::trace::Tracer;

const SIDE: usize = 32;
const PARTS: usize = 16;
/// Mutations per `apply` batch.
const BATCH: usize = 16;
/// Share of insertions in a drawn batch, per mille.
const INSERT_PERMILLE: u32 = 500;
/// Operations in one round: write, read, write (the undo), repeated.
const ROUND_OPS: usize = 240;

/// The graph the session should hold, kept independently of the solver:
/// edge `(u, v)` with `u < v` → weight.
struct Expected {
    n: usize,
    edges: BTreeMap<(NodeId, NodeId), u64>,
}

impl Expected {
    fn new(wg: &WeightedGraph) -> Self {
        let g = wg.graph();
        Expected {
            n: g.n(),
            edges: g.edges().map(|(e, u, v)| ((u, v), wg.weight(e))).collect(),
        }
    }

    fn apply(&mut self, batch: &[EdgeMutation]) {
        for m in batch {
            match *m {
                EdgeMutation::Insert { u, v, weight } => {
                    self.edges.insert((u.min(v), u.max(v)), weight);
                }
                EdgeMutation::Delete { u, v } => {
                    self.edges.remove(&(u.min(v), u.max(v)));
                }
            }
        }
    }

    /// Edge ids are lexicographic ranks, which is the map's order.
    fn weighted(&self) -> WeightedGraph {
        let g = Graph::from_edge_stream(self.n, || self.edges.keys().copied())
            .expect("the expected edge set is simple");
        WeightedGraph::new(g, self.edges.values().copied().collect())
    }
}

/// Draws the next batch from `churn_stream`, replaying it on a
/// `DeltaGraph` and redrawing while it would disconnect the graph (the
/// session's Voronoi parts need a connected graph). Insert-only draws
/// come after 32 tries, and those never disconnect.
fn next_batch(g: &Graph, rng: &mut StdRng, tr: &mut Tracer) -> Vec<EdgeMutation> {
    for attempt in 0.. {
        let permille = if attempt < 32 { INSERT_PERMILLE } else { 1000 };
        let batch = churn_stream(g, BATCH, permille, rng);
        let mut dg = DeltaGraph::new(g.clone());
        let open = tr.enter("graphs", "graphs.delta_apply");
        for m in &batch {
            dg.apply_mutation(m)
                .expect("churn_stream steps apply in order");
        }
        tr.exit(open);
        tr.count("graphs.delta_mutations", batch.len() as f64);
        if traversal::is_connected(&dg.snapshot()) {
            return batch;
        }
    }
    unreachable!("insert-only batches keep the graph connected")
}

/// The seeded maze and a fresh session on it, its plan built.
fn session(seed: u64, traced: bool) -> (Solver, WeightedGraph) {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[3, 0]));
    let wg = WeightModel::Bimodal {
        light: 64,
        heavy: 8192,
        heavy_permille: 450,
    }
    .apply(&generators::grid(SIDE, SIDE), &mut rng);
    let mut solver = Solver::builder(&wg)
        .parts(PartsStrategy::Voronoi {
            parts: PARTS,
            seed: rng.next_u64(),
        })
        .shortcut_builder(SteinerBuilder)
        .threads(1)
        .trace(traced)
        .build()
        .expect("grids are connected");
    solver.plan().expect("grids are connected");
    (solver, wg)
}

/// The round script: write, read, undo, repeated. Every forward batch is
/// drawn on the maze itself, because the undo before it restored it.
fn script(seed: u64, maze: &WeightedGraph, tr: &mut Tracer) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[3, 1]));
    let n = maze.graph().n();
    let mut flap_back = None;
    (0..ROUND_OPS)
        .map(|step| {
            if step % 3 == 1 {
                Step::Read(match (step / 3) % 4 {
                    0 => Query::Components,
                    1 => Query::PartwiseMin(
                        (0..n).map(|_| rng.random_range(0..1u64 << 16)).collect(),
                    ),
                    2 => Query::Sssp(rng.random_range(0..n), Tier::Exact),
                    _ => Query::Sssp(rng.random_range(0..n), Tier::Scaled { epsilon: 0.25 }),
                })
            } else if let Some(back) = flap_back.take() {
                Step::Apply(back)
            } else {
                let batch = next_batch(maze.graph(), &mut rng, tr);
                flap_back = Some(undo(&batch, maze));
                Step::Apply(batch)
            }
        })
        .collect()
}

/// The batch that reverts `batch` when applied after it: the inverse of
/// each mutation, in reverse order. A deleted edge comes back with the
/// weight it had when it was deleted.
fn undo(batch: &[EdgeMutation], before: &WeightedGraph) -> Vec<EdgeMutation> {
    let g = before.graph();
    let mut inserted: HashMap<(NodeId, NodeId), u64> = HashMap::new();
    let mut inverse: Vec<EdgeMutation> = batch
        .iter()
        .map(|m| match *m {
            EdgeMutation::Insert { u, v, weight } => {
                inserted.insert((u.min(v), u.max(v)), weight);
                EdgeMutation::Delete { u, v }
            }
            EdgeMutation::Delete { u, v } => {
                let weight = inserted.remove(&(u.min(v), u.max(v))).unwrap_or_else(|| {
                    before.weight(g.edge_between(u, v).expect("a deleted edge existed"))
                });
                EdgeMutation::Insert { u, v, weight }
            }
        })
        .collect();
    inverse.reverse();
    inverse
}

/// One operation of the round script.
enum Step {
    Apply(Vec<EdgeMutation>),
    Read(Query),
}

/// Runs the workload: set-up (repeated; it draws the script), then rounds
/// that replay the script on a fresh session until `--seconds` have
/// passed. Round 0 checks every answer with the clock stopped; later
/// rounds must repeat its answers byte for byte.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..opts.setup_reps {
        let t0 = Instant::now();
        let (solver, maze) = session(opts.seed, tr.on());
        let steps = script(opts.seed, &maze, tr);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((solver, maze, steps));
    }
    let (mut solver, maze, script) = kept.expect("at least one set-up");
    let mut expected = Expected::new(&maze);
    let mut current = maze;
    let mut probe_plan = tr.on().then(|| {
        tr.begin_request();
        tr.span("core", "core.plan_build", || {
            ShortcutPlan::build(current.graph(), 0, solver.parts().clone(), &SteinerBuilder)
        })
    });

    let start = Instant::now();
    while another_round(out.rounds, start, opts.seconds) {
        let first = out.rounds == 0;
        if !first {
            solver = session(opts.seed, tr.on()).0;
        }
        for (step, op) in script.iter().enumerate() {
            out.attempted += 1;
            tr.begin_request();
            let root = tr.enter("bench", "op");
            let t0 = Instant::now();
            match op {
                Step::Apply(batch) => {
                    let res = tr.span("solver", "solver.apply", || solver.apply(batch));
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    tr.exit(root);
                    let stats = match res {
                        Ok(stats) => stats,
                        Err(e) => {
                            out.fail(format!("apply at step {step}: {e}"));
                            continue;
                        }
                    };
                    out.record(0, step, ms, fnv64(stats.to_wire_string().as_bytes()));
                    if !first {
                        continue;
                    }
                    let before = std::mem::replace(&mut current, {
                        expected.apply(batch);
                        expected.weighted()
                    });
                    if solver.graph() != current.graph()
                        || solver.weighted_graph().weights() != current.weights()
                    {
                        out.fail(format!(
                            "apply at step {step}: session graph differs from the replayed edge set"
                        ));
                    }
                    if stats.plan_repaired {
                        tr.count("core.parts_rebuilt", stats.plan.parts_rebuilt as f64);
                        tr.count("core.parts_total", stats.plan.parts_total as f64);
                        tr.count(
                            "core.full_rebuilds",
                            u64::from(stats.plan.full_rebuild) as f64,
                        );
                    }
                    if let Some(plan) = probe_plan.as_mut() {
                        *plan =
                            probe_repair(tr, plan, before.graph(), current.graph(), batch, &solver);
                    }
                }
                Step::Read(q) => {
                    let answer = run_traced(tr, &mut solver, q);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    tr.exit(root);
                    let answer = match answer {
                        Ok(a) => a,
                        Err(e) => {
                            out.fail(format!("{q:?} at step {step}: {e}"));
                            continue;
                        }
                    };
                    out.record(0, step, ms, fnv64(answer.to_body().as_bytes()));
                    if first {
                        out.model_rounds += answer.stats().total_rounds() as u64;
                        out.model_messages += answer.stats().aggregate().messages;
                        if let Err(e) = check(q, &answer, &current, solver.parts().parts(), None) {
                            out.fail(format!("{q:?} at step {step}: {e}"));
                        }
                        if let (Query::Sssp(source, Tier::Exact), true) = (q, tr.on()) {
                            probe_congest(tr, &current, *source, &solver);
                        }
                    }
                }
            }
        }
        if let Some(t) = solver.trace().filter(|_| first) {
            tr.count("solver.queries", t.counters.queries as f64);
            tr.count("solver.memo_hits", t.counters.memo_hits as f64);
        }
        out.rounds += 1;
    }
    out
}

/// A direct `bellman_ford_sssp` call from a read's source (traced runs
/// only): the round loop alone, without the session around it.
fn probe_congest(tr: &mut Tracer, wg: &WeightedGraph, source: NodeId, solver: &Solver) {
    tr.begin_request();
    let run = tr.span("congest", "congest.run", || {
        bellman_ford_sssp(wg, source, solver.config())
    });
    if let Ok(run) = run {
        let n = wg.graph().n() as f64;
        tr.count("congest.rounds", run.stats.rounds as f64);
        tr.count("congest.messages", run.stats.messages as f64);
        tr.count("congest.node_rounds", run.stats.rounds as f64 * n);
    }
}

/// A direct `ShortcutPlan::repair` for one batch, on the session's new
/// partition (traced runs only).
fn probe_repair(
    tr: &mut Tracer,
    plan: &ShortcutPlan,
    old: &Graph,
    new: &Graph,
    batch: &[EdgeMutation],
    solver: &Solver,
) -> ShortcutPlan {
    let remap: Vec<Option<EdgeId>> = old
        .edges()
        .map(|(_, u, v)| new.edge_between(u, v))
        .collect();
    let mut touched: Vec<NodeId> = batch
        .iter()
        .flat_map(|m| match *m {
            EdgeMutation::Insert { u, v, .. } | EdgeMutation::Delete { u, v } => [u, v],
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    tr.begin_request();
    let (repaired, _) = tr.span("core", "core.repair", || {
        plan.repair(
            new,
            0,
            solver.parts().clone(),
            &SteinerBuilder,
            &remap,
            &touched,
        )
    });
    repaired
}
