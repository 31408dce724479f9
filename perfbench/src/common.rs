//! Pieces shared by the workloads: the query model, its wire form, the
//! oracle dispatch, and the per-run outcome.

use minex_algo::solver::{
    AlgoError, Components, MinCut, Mst, PartwiseMin, Report, ReportStats, Solver, Sssp, Tier,
};
use minex_algo::wire::{obj, FromWire, JsonValue, ToWire};
use minex_graphs::{Graph, NodeId, WeightedGraph};

use crate::oracle::{self, Verdict};
use crate::trace::Tracer;

/// Width of the part-wise values the benchmark sends.
pub const VALUE_BITS: usize = 16;

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// How many times set-up runs (the median is reported).
    pub setup_reps: usize,
}

/// What one workload run measured.
///
/// A run repeats one seeded *round* of operations until `--seconds` have
/// passed. Each operation of the round keeps its fastest latency over the
/// repeats: on a shared host, interference only ever adds time, so the
/// minimum is the steady figure. Operations are grouped in streams (one per
/// client connection; in-process workloads have one).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Fastest latency (ms) of each operation of the round, per stream;
    /// infinite until the operation first completes.
    pub best_ms: Vec<Vec<f64>>,
    /// Rounds run (the last may be partial).
    pub rounds: usize,
    /// Operations attempted, over all rounds.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Model cost (total rounds) of one round's answers.
    pub model_rounds: u64,
    /// Model cost (messages) of one round's answers.
    pub model_messages: u64,
    /// Round-trip minus replayed solve and wire time, per served query, ms.
    pub transport_ms: Vec<f64>,
    /// Body hash of each operation's first answer, per stream.
    first_hash: Vec<Vec<Option<u64>>>,
}

impl Outcome {
    /// Records a failed, refused, or wrong operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Takes over `other`'s failure count and messages.
    pub fn absorb_failures(&mut self, other: &mut Outcome) {
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.drain(..).take(room));
    }

    /// Records one completed operation: its latency, and its answer body
    /// hash, which must repeat in every round (answers are deterministic).
    pub fn record(&mut self, stream: usize, op: usize, ms: f64, body_hash: u64) {
        if self.best_ms.len() <= stream {
            self.best_ms.resize(stream + 1, Vec::new());
            self.first_hash.resize(stream + 1, Vec::new());
        }
        let best = &mut self.best_ms[stream];
        if best.len() <= op {
            best.resize(op + 1, f64::INFINITY);
            self.first_hash[stream].resize(op + 1, None);
        }
        best[op] = best[op].min(ms);
        match self.first_hash[stream][op] {
            None => self.first_hash[stream][op] = Some(body_hash),
            Some(h) if h != body_hash => {
                self.fail(format!(
                    "stream {stream} op {op}: answer differs between rounds"
                ));
            }
            Some(_) => {}
        }
    }

    /// The fastest latency of every completed operation, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.best_ms
            .iter()
            .flatten()
            .copied()
            .filter(|ms| ms.is_finite())
            .collect()
    }

    /// Summed fastest latencies, seconds: one round's busy time.
    pub fn busy_s(&self) -> f64 {
        self.latencies_ms().iter().sum::<f64>() / 1e3
    }

    /// Completed operations per second: each stream runs its operations
    /// back to back, so its rate is its operation count over its summed
    /// fastest latencies; concurrent streams add up.
    pub fn ops_per_s(&self) -> f64 {
        self.best_ms
            .iter()
            .map(|ops| {
                let done: Vec<f64> = ops.iter().copied().filter(|ms| ms.is_finite()).collect();
                let secs = done.iter().sum::<f64>() / 1e3;
                if secs > 0.0 {
                    done.len() as f64 / secs
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// Whether another round should start: at least one full round, then
/// until `seconds` have passed since `start`.
pub fn another_round(rounds_done: usize, start: std::time::Instant, seconds: f64) -> bool {
    rounds_done == 0 || start.elapsed().as_secs_f64() < seconds
}

/// One query of the session API.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// SSSP from `source` at `tier`.
    Sssp(NodeId, Tier),
    /// Part-wise MIN over the session partition.
    PartwiseMin(Vec<u64>),
    /// Minimum spanning tree.
    Mst,
    /// Connected components.
    Components,
    /// `min_cut(1)`.
    MinCut,
}

/// A typed answer.
#[derive(Debug, Clone)]
pub enum Answer {
    /// SSSP report.
    Sssp(Report<Sssp>),
    /// Part-wise MIN report.
    PartwiseMin(Report<PartwiseMin>),
    /// MST report.
    Mst(Report<Mst>),
    /// Components report.
    Components(Report<Components>),
    /// Min-cut report.
    MinCut(Report<MinCut>),
}

impl Query {
    /// The span (and per-layer metric) name of this query kind.
    pub fn span_name(&self) -> &'static str {
        match self {
            Query::Sssp(_, Tier::Exact) => "solver.sssp_exact",
            Query::Sssp(_, Tier::Scaled { .. }) => "solver.sssp_scaled",
            Query::Sssp(_, Tier::Shortcut { .. }) => "solver.sssp_shortcut",
            Query::PartwiseMin(_) => "solver.partwise_min",
            Query::Mst => "solver.mst",
            Query::Components => "solver.components",
            Query::MinCut => "solver.min_cut",
        }
    }

    /// Runs the query on an in-process session.
    pub fn run(&self, s: &mut Solver) -> Result<Answer, AlgoError> {
        Ok(match self {
            Query::Sssp(source, tier) => Answer::Sssp(s.sssp(*source, *tier)?),
            Query::PartwiseMin(values) => Answer::PartwiseMin(s.partwise_min(values, VALUE_BITS)?),
            Query::Mst => Answer::Mst(s.mst()?),
            Query::Components => Answer::Components(s.components()?),
            Query::MinCut => Answer::MinCut(s.min_cut(1)?),
        })
    }

    /// The `POST /v1/sessions/{id}/query` body, as `Client` builds it.
    pub fn to_request(&self) -> JsonValue {
        let kind = |k: &str| ("query", JsonValue::Str(k.to_string()));
        match self {
            Query::Sssp(source, tier) => obj([
                kind("sssp"),
                ("source", JsonValue::UInt(*source as u64)),
                ("tier", tier.to_wire()),
            ]),
            Query::PartwiseMin(values) => obj([
                kind("partwise_min"),
                (
                    "values",
                    JsonValue::Array(values.iter().map(|&v| JsonValue::UInt(v)).collect()),
                ),
                ("value_bits", JsonValue::UInt(VALUE_BITS as u64)),
            ]),
            Query::Mst => obj([kind("mst")]),
            Query::Components => obj([kind("components")]),
            Query::MinCut => obj([kind("min_cut"), ("trees", JsonValue::UInt(1))]),
        }
    }

    /// Decodes a request body the way the daemon does (used by the
    /// in-process twin, so its wire time matches the served path).
    pub fn from_request(text: &str) -> Result<Query, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing {k:?}"));
        match field("query")?.as_str() {
            Some("sssp") => {
                let source = field("source")?.as_usize().ok_or("bad source")?;
                let tier = Tier::from_wire(field("tier")?).map_err(|e| e.to_string())?;
                Ok(Query::Sssp(source, tier))
            }
            Some("partwise_min") => {
                let values = field("values")?
                    .as_array()
                    .ok_or("bad values")?
                    .iter()
                    .map(JsonValue::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or("bad values")?;
                Ok(Query::PartwiseMin(values))
            }
            Some("mst") => Ok(Query::Mst),
            Some("components") => Ok(Query::Components),
            Some("min_cut") => Ok(Query::MinCut),
            other => Err(format!("unknown query {other:?}")),
        }
    }
}

impl Answer {
    /// Decodes a served body as the answer to `q`.
    pub fn decode(q: &Query, text: &str) -> Result<Answer, String> {
        fn typed<T: FromWire>(v: &JsonValue) -> Result<Report<T>, String> {
            Report::<T>::from_wire(v).map_err(|e| e.to_string())
        }
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        Ok(match q {
            Query::Sssp(..) => Answer::Sssp(typed(&v)?),
            Query::PartwiseMin(_) => Answer::PartwiseMin(typed(&v)?),
            Query::Mst => Answer::Mst(typed(&v)?),
            Query::Components => Answer::Components(typed(&v)?),
            Query::MinCut => Answer::MinCut(typed(&v)?),
        })
    }

    /// Round and message accounting of the answer.
    pub fn stats(&self) -> &ReportStats {
        match self {
            Answer::Sssp(r) => &r.stats,
            Answer::PartwiseMin(r) => &r.stats,
            Answer::Mst(r) => &r.stats,
            Answer::Components(r) => &r.stats,
            Answer::MinCut(r) => &r.stats,
        }
    }

    /// The response body the daemon writes for this answer.
    pub fn to_body(&self) -> String {
        match self {
            Answer::Sssp(r) => r.to_wire_string(),
            Answer::PartwiseMin(r) => r.to_wire_string(),
            Answer::Mst(r) => r.to_wire_string(),
            Answer::Components(r) => r.to_wire_string(),
            Answer::MinCut(r) => r.to_wire_string(),
        }
    }
}

/// Runs `q` on `s` inside its solver span.
pub fn run_traced(tr: &mut Tracer, s: &mut Solver, q: &Query) -> Result<Answer, AlgoError> {
    let open = tr.enter("solver", q.span_name());
    let out = q.run(s);
    tr.exit(open);
    out
}

/// Checks `answer` to `q` against the sequential references. `parts` is
/// the session partition; `stoer_wagner` is the exact min cut (needed for
/// min-cut answers only).
pub fn check(
    q: &Query,
    answer: &Answer,
    wg: &WeightedGraph,
    parts: &[Vec<NodeId>],
    stoer_wagner: Option<u64>,
) -> Verdict {
    match (q, answer) {
        (Query::Sssp(source, Tier::Exact), Answer::Sssp(r)) => {
            oracle::sssp_exact(wg, *source, &r.value.dist)
        }
        (Query::Sssp(source, Tier::Scaled { epsilon }), Answer::Sssp(r))
        | (Query::Sssp(source, Tier::Shortcut { epsilon, .. }), Answer::Sssp(r)) => {
            oracle::sssp_approx(wg, *source, &r.value.dist, *epsilon)
                .map_err(|e| format!("{e} ({:?})", r.value.detail))
        }
        (Query::PartwiseMin(values), Answer::PartwiseMin(r)) => {
            oracle::partwise_min(parts, values, &r.value.minima)
        }
        (Query::Mst, Answer::Mst(r)) => oracle::mst(wg, &r.value),
        (Query::Components, Answer::Components(r)) => {
            oracle::components(wg.graph(), &r.value.label)
        }
        (Query::MinCut, Answer::MinCut(r)) => match stoer_wagner {
            Some(exact) => oracle::min_cut(exact, &r.value),
            None => Err("min-cut answer checked without a Stoer-Wagner value".to_string()),
        },
        _ => Err(format!("answer kind does not match query {q:?}")),
    }
}

/// Builds a weighted graph from an `(u, v, weight)` edge list the way the
/// daemon builds an upload: streaming CSR construction, then one weight
/// per edge id.
pub fn graph_from_upload(n: usize, edges: &[(NodeId, NodeId, u64)]) -> WeightedGraph {
    let g = Graph::from_edge_stream(n, || edges.iter().map(|&(u, v, _)| (u, v)))
        .expect("generated edge lists are simple");
    let mut weights = vec![0u64; g.m()];
    for &(u, v, w) in edges {
        weights[g.edge_between(u, v).expect("edge was just inserted")] = w;
    }
    WeightedGraph::new(g, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_keeps_the_fastest_repeat_and_adds_streams() {
        let mut out = Outcome::default();
        out.record(0, 0, 4.0, 7);
        out.record(0, 1, 6.0, 8);
        out.record(0, 0, 2.0, 7);
        out.record(1, 0, 10.0, 9);
        assert_eq!(out.best_ms, vec![vec![2.0, 6.0], vec![10.0]]);
        // Stream 0: 2 ops in 8 ms; stream 1: 1 op in 10 ms.
        assert!((out.ops_per_s() - (250.0 + 100.0)).abs() < 1e-9);
        assert!((out.busy_s() - 0.018).abs() < 1e-12);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn outcome_flags_an_answer_that_changes_between_rounds() {
        let mut out = Outcome::default();
        out.record(0, 3, 1.0, 42);
        out.record(0, 3, 1.0, 43);
        assert_eq!(out.failed, 1);
        // The op never completed at slots 0..3: they stay out of the rate.
        assert_eq!(out.latencies_ms(), vec![1.0]);
    }

    #[test]
    fn queries_round_trip_through_the_request_decoder() {
        let queries = [
            Query::Sssp(3, Tier::Exact),
            Query::Sssp(
                4,
                Tier::Shortcut {
                    epsilon: 0.25,
                    max_phases: 9,
                },
            ),
            Query::PartwiseMin(vec![5, 1, 9]),
            Query::Mst,
            Query::Components,
            Query::MinCut,
        ];
        for q in queries {
            assert_eq!(Query::from_request(&q.to_request().to_string()), Ok(q));
        }
    }
}
