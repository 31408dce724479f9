//! The deterministic multi-threaded execution engine.
//!
//! CONGEST rounds are embarrassingly parallel by construction: within a
//! round every node reads only its own inbox and writes only its own
//! outbox. This engine shards the node loop over contiguous node-id ranges:
//! shard 0 runs on the coordinating thread, shards 1.. on persistent worker
//! threads spawned once per run inside a [`std::thread::scope`] (no
//! dependencies). Per round the coordinator mails each worker its
//! deliveries, every shard executes its nodes with its own
//! outbox/validation scratch, and the coordinator merges the shard send
//! buffers into the next round's delivery buckets **in node-id order** — so
//! inbox contents, [`RunStats`], every program output, and every reported
//! error are byte-identical to the sequential engine's. All round-trip
//! buffers are recycled through the channels, so the steady-state loop
//! performs no allocation (matching the sequential engine's warm buffers),
//! and no threads are spawned after round 0.
//!
//! Determinism argument, piece by piece:
//!
//! * **Inbox order.** The sequential engine delivers into `next_inboxes[v]`
//!   while scanning senders in ascending id order, so each inbox is sorted
//!   by sender id (at most one message per sender-edge per round). Shards
//!   cover ascending contiguous ranges and their send buffers are merged in
//!   shard order, each buffer already in ascending sender order — the same
//!   global order.
//! * **Stats.** `messages`/`total_bits` are sums and `max_message_bits` is
//!   a max — order-free reductions of per-shard partials.
//! * **Telemetry.** Each shard records its send/deliver events into its own
//!   fork of the caller's [`Sink`] ([`Sink::fork_shard`]); the forks
//!   ping-pong through the round-task channels and the coordinator folds
//!   them back ([`Sink::merge_shard`]) in ascending node-id shard order on
//!   every exit path. Round-boundary and rejection events fire only on the
//!   root sink. A [`CongestionProfile`](crate::telemetry::CongestionProfile)
//!   therefore accumulates exactly the sequential engine's counters.
//! * **Quiescence.** `all_done` is the AND and `any_message` the OR of
//!   per-shard flags, evaluated at the same point of the round as the
//!   sequential engine (after every `on_round` of the round returned).
//! * **Errors.** Validation of one sender's outbox depends only on that
//!   sender's own sends, never on another node's, so each violation is a
//!   node-local fact. Every shard stops at its first violation in (node id,
//!   outbox position) order; the coordinator scans shard reports in
//!   ascending node-range order and reports the first violation found —
//!   exactly the one the sequential engine would have hit first. (The
//!   engines do differ in one way after an `Err`: here, nodes *after* the
//!   offender still executed their `on_round` for the failing round, so
//!   post-error program state — and post-error telemetry totals — are
//!   engine-dependent; [`crate::run`]'s docs restrict program inspection to
//!   successful runs. A worker-side program panic likewise reaches the
//!   caller re-wrapped by the coordinator.)

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

use minex_graphs::{Graph, NodeId};

use crate::message::Payload;
use crate::program::{Ctx, NodeProgram};
use crate::runtime::{CongestConfig, RunStats, SendValidator, SimError};
use crate::soa::{DeliveryColumns, Outbox, SendColumns};
use crate::telemetry::Sink;

/// Per-shard scratch, allocated once per run and reused every round.
struct ShardScratch<M> {
    /// Validated sends of this shard's round, in (sender, outbox) order.
    sends: SendColumns<M>,
    /// The outbox handed to `Ctx`, reused across nodes.
    outbox: Outbox<M>,
    validator: SendValidator,
}

impl<M> ShardScratch<M> {
    fn new(n: usize) -> Self {
        ShardScratch {
            sends: SendColumns::new(),
            outbox: Outbox::new(),
            validator: SendValidator::new(n),
        }
    }
}

/// One round of work mailed to a worker shard.
struct RoundTask<M, S> {
    round: usize,
    /// This shard's deliveries as (local node index, sender, payload)
    /// columns, in global ascending-sender order.
    deliveries: DeliveryColumns<M>,
    /// The shard's own (drained) send buffer from last round, returned for
    /// reuse.
    recycled: SendColumns<M>,
    /// The shard's telemetry fork, ping-ponged so the coordinator can merge
    /// on any exit path.
    sink: S,
}

/// What one shard reports back to the coordinator each round.
struct ShardDone<M, S> {
    /// Validated sends in (sender, outbox) order, for the coordinator to
    /// merge; drained there and recycled back next round.
    sends: SendColumns<M>,
    /// The (drained) delivery buffer, recycled into the coordinator's
    /// bucket for this shard.
    recycled: DeliveryColumns<M>,
    /// The shard's telemetry fork, handed back after the shard's events
    /// (`None` until the worker loop re-attaches it).
    sink: Option<S>,
    messages: u64,
    total_bits: u64,
    max_message_bits: usize,
    all_done: bool,
    /// First CONGEST violation in this shard, in (node id, outbox) order.
    error: Option<SimError>,
}

/// A worker's communication endpoints as held by the coordinator.
type WorkerLink<M, S> = (Sender<RoundTask<M, S>>, Receiver<ShardDone<M, S>>);

/// Runs the multi-threaded engine. `threads >= 2` and `graph.n() >= threads`
/// (the dispatcher in [`crate::run`] guarantees both).
pub(crate) fn run_parallel<P, S>(
    graph: &Graph,
    programs: &mut [P],
    config: CongestConfig,
    threads: usize,
    sink: &mut S,
) -> Result<RunStats, SimError>
where
    P: NodeProgram + Send,
    P::Msg: Send,
    S: Sink,
{
    let n = graph.n();
    debug_assert!(threads >= 2 && threads <= n);
    // Contiguous shards of ceil(n/threads) nodes: shard s owns node ids
    // [s·chunk, min((s+1)·chunk, n)). Contiguity in ascending id order is
    // what makes the in-order merge reproduce the sequential delivery order.
    let chunk = n.div_ceil(threads);
    thread::scope(|scope| {
        let mut chunks = programs.chunks_mut(chunk);
        let shard0_programs = chunks.next().expect("dispatcher guarantees n >= 1");
        // Workers own shards 1.. for the whole run; dropping the task
        // senders (on any return or panic) is their shutdown signal.
        let mut workers: Vec<WorkerLink<P::Msg, S>> = Vec::new();
        for (w, shard_programs) in chunks.enumerate() {
            let (task_tx, task_rx) = channel::<RoundTask<P::Msg, S>>();
            let (done_tx, done_rx) = channel::<ShardDone<P::Msg, S>>();
            let lo = (w + 1) * chunk;
            scope.spawn(move || worker_loop(graph, config, lo, shard_programs, task_rx, done_tx));
            workers.push((task_tx, done_rx));
        }
        // Shard 0 state lives on the coordinator; its telemetry fork and the
        // workers' forks are merged back into the root sink — shard 0 first,
        // then shards 1.. — on every exit path below.
        let mut shard0_inboxes: Vec<Vec<(NodeId, P::Msg)>> =
            vec![Vec::new(); shard0_programs.len()];
        let mut shard0_scratch: ShardScratch<P::Msg> = ShardScratch::new(n);
        let mut shard0_bucket: DeliveryColumns<P::Msg> = DeliveryColumns::new();
        let mut shard0_sink = sink.fork_shard();
        // Next-round delivery buckets, recycled send buffers, and parked
        // telemetry forks, one per worker shard; all ping-pong through the
        // channels.
        let mut worker_buckets: Vec<DeliveryColumns<P::Msg>> =
            (0..workers.len()).map(|_| DeliveryColumns::new()).collect();
        let mut worker_recycled: Vec<SendColumns<P::Msg>> =
            (0..workers.len()).map(|_| SendColumns::new()).collect();
        let mut worker_sinks: Vec<Option<S>> =
            workers.iter().map(|_| Some(sink.fork_shard())).collect();
        let merge_sinks = |sink: &mut S, shard0_sink: S, worker_sinks: Vec<Option<S>>| {
            sink.merge_shard(shard0_sink);
            for shard_sink in worker_sinks.into_iter().flatten() {
                sink.merge_shard(shard_sink);
            }
        };
        let mut stats = RunStats::default();
        for round in 0..config.max_rounds {
            sink.on_round_start(round);
            for (w, (task_tx, _)) in workers.iter().enumerate() {
                let task = RoundTask {
                    round,
                    deliveries: std::mem::take(&mut worker_buckets[w]),
                    recycled: std::mem::take(&mut worker_recycled[w]),
                    sink: worker_sinks[w].take().expect("sink parked between rounds"),
                };
                // A send only fails if the worker panicked; the recv below
                // then panics the coordinator and the scope re-raises.
                let _ = task_tx.send(task);
            }
            // The coordinator works shard 0 while the workers run theirs.
            // Delivery drain: walk the id columns, move only the payloads.
            for ((&local, &from), msg) in shard0_bucket
                .locals
                .iter()
                .zip(&shard0_bucket.srcs)
                .zip(shard0_bucket.payloads.drain(..))
            {
                shard0_sink.on_deliver(round, from as NodeId, local as usize, msg.bit_size());
                shard0_inboxes[local as usize].push((from as NodeId, msg));
            }
            shard0_bucket.clear();
            let mut dones: Vec<ShardDone<P::Msg, S>> = Vec::with_capacity(workers.len() + 1);
            let mut shard0_done = run_shard(
                graph,
                &config,
                round,
                0,
                shard0_programs,
                &mut shard0_inboxes,
                &mut shard0_scratch,
                &mut shard0_sink,
            );
            for (_, done_rx) in &workers {
                dones.push(done_rx.recv().expect("engine worker panicked"));
            }
            // Reduce the reports; shard order == ascending node-id order, so
            // keeping the first error seen is the deterministic selection.
            let mut all_done = shard0_done.all_done;
            let mut any_message = shard0_done.messages > 0;
            let mut first_error: Option<SimError> = shard0_done.error.take();
            stats.messages += shard0_done.messages;
            stats.total_bits += shard0_done.total_bits;
            stats.max_message_bits = stats.max_message_bits.max(shard0_done.max_message_bits);
            let mut sends_in_order: Vec<SendColumns<P::Msg>> =
                Vec::with_capacity(workers.len() + 1);
            sends_in_order.push(std::mem::take(&mut shard0_done.sends));
            for (w, done) in dones.into_iter().enumerate() {
                if first_error.is_none() {
                    first_error = done.error;
                }
                all_done &= done.all_done;
                any_message |= done.messages > 0;
                stats.messages += done.messages;
                stats.total_bits += done.total_bits;
                stats.max_message_bits = stats.max_message_bits.max(done.max_message_bits);
                // The worker's drained delivery buffer becomes its next
                // bucket (empty but warm), and its telemetry fork parks
                // until the next round (or the final merge).
                worker_buckets[w] = done.recycled;
                worker_sinks[w] = done.sink;
                sends_in_order.push(done.sends);
            }
            if let Some(err) = first_error {
                merge_sinks(sink, shard0_sink, worker_sinks);
                return Err(err);
            }
            // Merge into next-round buckets in shard (== ascending sender
            // id) order, then hand the drained buffers back. The sweep
            // reads only the id columns; payloads move untouched.
            for (s, mut sends) in sends_in_order.into_iter().enumerate() {
                for ((&from, &to), msg) in sends
                    .srcs
                    .iter()
                    .zip(&sends.dsts)
                    .zip(sends.payloads.drain(..))
                {
                    let (from, to) = (from as NodeId, to as NodeId);
                    let dest = to / chunk;
                    if dest == 0 {
                        shard0_bucket.push(to, from, msg);
                    } else {
                        worker_buckets[dest - 1].push(to % chunk, from, msg);
                    }
                }
                sends.clear();
                if s == 0 {
                    shard0_scratch.sends = sends;
                } else {
                    worker_recycled[s - 1] = sends;
                }
            }
            sink.on_round_end(round);
            if all_done && !any_message {
                stats.rounds = round;
                merge_sinks(sink, shard0_sink, worker_sinks);
                return Ok(stats);
            }
            stats.rounds = round + 1;
        }
        merge_sinks(sink, shard0_sink, worker_sinks);
        Err(SimError::MaxRoundsExceeded {
            limit: config.max_rounds,
        })
    })
}

/// A worker's whole-run loop: receive a round task, deliver the mail into
/// the shard's inboxes, execute the shard, report back. Exits when the
/// coordinator hangs up (run over, error, or coordinator panic).
fn worker_loop<P: NodeProgram, S: Sink>(
    graph: &Graph,
    config: CongestConfig,
    lo: NodeId,
    programs: &mut [P],
    tasks: Receiver<RoundTask<P::Msg, S>>,
    dones: Sender<ShardDone<P::Msg, S>>,
) {
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); programs.len()];
    let mut scratch: ShardScratch<P::Msg> = ShardScratch::new(graph.n());
    while let Ok(RoundTask {
        round,
        mut deliveries,
        recycled,
        mut sink,
    }) = tasks.recv()
    {
        scratch.sends = recycled;
        // Deliveries arrive in global ascending-sender order; pushing in
        // arrival order preserves it per inbox, as the sequential engine.
        for ((&local, &from), msg) in deliveries
            .locals
            .iter()
            .zip(&deliveries.srcs)
            .zip(deliveries.payloads.drain(..))
        {
            sink.on_deliver(round, from as NodeId, lo + local as usize, msg.bit_size());
            inboxes[local as usize].push((from as NodeId, msg));
        }
        deliveries.clear();
        let mut done = run_shard(
            graph,
            &config,
            round,
            lo,
            programs,
            &mut inboxes,
            &mut scratch,
            &mut sink,
        );
        done.recycled = deliveries;
        done.sink = Some(sink);
        if dones.send(done).is_err() {
            break;
        }
    }
}

/// Runs the nodes `lo..lo + programs.len()` for one round. `inboxes[i]` is
/// node `lo + i`'s inbox; validated sends move to the report in (sender,
/// outbox position) order. Stops at the shard's first CONGEST violation.
#[allow(clippy::too_many_arguments)]
fn run_shard<P: NodeProgram, S: Sink>(
    graph: &Graph,
    config: &CongestConfig,
    round: usize,
    lo: NodeId,
    programs: &mut [P],
    inboxes: &mut [Vec<(NodeId, P::Msg)>],
    scratch: &mut ShardScratch<P::Msg>,
    sink: &mut S,
) -> ShardDone<P::Msg, S> {
    let mut report = ShardDone {
        sends: SendColumns::new(),
        recycled: DeliveryColumns::new(),
        sink: None,
        messages: 0,
        total_bits: 0,
        max_message_bits: 0,
        all_done: true,
        error: None,
    };
    scratch.sends.clear();
    for (i, program) in programs.iter_mut().enumerate() {
        let v = lo + i;
        // Quiescence fast path, identical to the sequential engine's.
        if round > 0 && inboxes[i].is_empty() && program.is_done() {
            continue;
        }
        scratch.outbox.clear();
        {
            let mut ctx = Ctx::new(graph, v, round, &inboxes[i], &mut scratch.outbox);
            program.on_round(&mut ctx);
        }
        inboxes[i].clear();
        // Validation sweep over the id/hint columns (payloads untouched
        // except for `bit_size`), mirroring the sequential engine.
        for j in 0..scratch.outbox.len() {
            let to = scratch.outbox.dsts[j] as NodeId;
            let bits = scratch.outbox.payloads[j].bit_size();
            match scratch
                .validator
                .check(graph, config, v, to, scratch.outbox.hints[j], bits)
            {
                Ok(edge) => sink.on_send(round, v, to, edge, bits),
                Err(err) => {
                    // `check` left per-sender state dirty, and this node's
                    // already-validated sends never reach `sends` — but an
                    // error aborts the whole run, so neither is observable.
                    report.error = Some(err);
                    report.sends = std::mem::take(&mut scratch.sends);
                    return report;
                }
            }
            report.messages += 1;
            report.total_bits += bits as u64;
            report.max_message_bits = report.max_message_bits.max(bits);
        }
        scratch.validator.finish_sender();
        // Whole-outbox bulk append: the sender column is a constant run,
        // the destination column a memcpy, the payload column one move.
        scratch
            .sends
            .srcs
            .extend(std::iter::repeat(v as u32).take(scratch.outbox.len()));
        scratch.sends.dsts.extend_from_slice(&scratch.outbox.dsts);
        scratch.sends.payloads.append(&mut scratch.outbox.payloads);
    }
    report.all_done = programs.iter().all(|p| p.is_done());
    report.sends = std::mem::take(&mut scratch.sends);
    report
}
