//! The minex benchmark.
//!
//! ```text
//! minex-perfbench --workload <serve-mixed|churn> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload untraced and prints the
//! end-to-end metrics. With `--trace 1` it runs the named workload once
//! untraced and once traced on the same inputs (the tracing overhead),
//! then the other workload traced, so each layer gets spans, and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod churn;
mod common;
mod oracle;
mod serve_mixed;
mod stats;
mod trace;

use std::time::Instant;

use common::{Opts, Outcome};
use stats::{beyond, failed_ratio, median, peak_rss_mb, percentile};
use trace::Tracer;

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["serve-mixed", "churn"];

/// Set-up repetitions of an untraced run (the median is reported).
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, opts: &Opts, tr: &mut Tracer) -> Outcome {
    let out = match name {
        "serve-mixed" => serve_mixed::run(opts, tr),
        "churn" => churn::run(opts, tr),
        _ => unreachable!("workload names are checked when parsing"),
    };
    let latencies = out.latencies_ms();
    eprintln!(
        "{name}{}: {} rounds, {} attempted, {} failed, {} distinct ops ({} beyond p95), \
         busy {:.3} s per round",
        if tr.on() { " (traced)" } else { "" },
        out.rounds,
        out.attempted,
        out.failed,
        latencies.len(),
        beyond(&latencies, 95.0),
        out.busy_s(),
    );
    for f in &out.failures {
        eprintln!("  failure: {f}");
    }
    out
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let latencies = out.latencies_ms();
    vec![
        ("setup_s", median(&out.setup_s), "s"),
        ("ops_per_s", out.ops_per_s(), "1/s"),
        ("latency_p50_ms", percentile(&latencies, 50.0), "ms"),
        ("latency_p95_ms", percentile(&latencies, 95.0), "ms"),
        ("sim_rounds", out.model_rounds as f64, "count"),
        ("sim_messages", out.model_messages as f64, "count"),
        (
            "sim_krounds_per_s",
            out.model_rounds as f64 / out.busy_s().max(f64::MIN_POSITIVE) / 1e3,
            "krounds/s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The layers, in the order of their `<layer>.self_ms` metrics.
const LAYERS: [&str; 7] = [
    "serve", "wire", "solver", "mincut", "core", "congest", "graphs",
];

/// Per-layer metrics of a traced run. `runs[0]` and `runs[1]` are the named
/// workload untraced and traced on the same inputs.
fn per_layer(tr: &Tracer, runs: &[Outcome]) -> Vec<Metric> {
    let (untraced, traced) = (&runs[0], &runs[1]);
    let ms = |name: &str| tr.mean_ms(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let rtt: Vec<f64> = [
        "serve.create_session",
        "serve.query",
        "serve.delete_session",
    ]
    .iter()
    .flat_map(|n| tr.durations(n))
    .map(|ns| ns as f64 / 1e6)
    .collect();
    let creates: Vec<f64> = tr
        .durations("serve.create_session")
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect();
    let transport: Vec<f64> = runs
        .iter()
        .flat_map(|o| o.transport_ms.iter().copied())
        .collect();
    let mean_us = |name: &str| {
        let d = tr.durations(name);
        ratio(d.iter().sum::<u64>() as f64 / 1e3, d.len() as f64)
    };
    let congest_ns = tr.durations("congest.run").iter().sum::<u64>() as f64;
    let delta_ns = tr.durations("graphs.delta_apply").iter().sum::<u64>() as f64;
    let attempted: u64 = runs.iter().map(|o| o.attempted).sum();
    let failed: u64 = runs.iter().map(|o| o.failed).sum();
    let layers = tr.layer_self_times();
    let self_ms = |layer: &str| layers.get(layer).map_or(0.0, |t| t.self_ns as f64 / 1e6);

    let mut m: Vec<Metric> = vec![
        ("serve.rtt_ms", percentile(&rtt, 50.0), "ms"),
        ("serve.rtt_p95_ms", percentile(&rtt, 95.0), "ms"),
        ("serve.transport_ms", median(&transport), "ms"),
        ("serve.create_session_ms", median(&creates), "ms"),
        ("serve.overloaded", tr.counter("serve.overloaded"), "count"),
        ("wire.encode_us", mean_us("wire.encode"), "us"),
        ("wire.decode_us", mean_us("wire.decode"), "us"),
        (
            "wire.request_bytes",
            ratio(
                tr.counter("wire.request_bytes"),
                tr.counter("wire.requests"),
            ),
            "bytes",
        ),
        (
            "wire.response_bytes",
            ratio(
                tr.counter("wire.response_bytes"),
                tr.counter("wire.requests"),
            ),
            "bytes",
        ),
        ("solver.mst_ms", ms("solver.mst"), "ms"),
        ("solver.min_cut_ms", ms("solver.min_cut"), "ms"),
        ("solver.sssp_exact_ms", ms("solver.sssp_exact"), "ms"),
        ("solver.sssp_scaled_ms", ms("solver.sssp_scaled"), "ms"),
        ("solver.sssp_shortcut_ms", ms("solver.sssp_shortcut"), "ms"),
        ("solver.components_ms", ms("solver.components"), "ms"),
        ("solver.partwise_min_ms", ms("solver.partwise_min"), "ms"),
        ("solver.apply_ms", ms("solver.apply"), "ms"),
        (
            "solver.memo_hit_ratio",
            ratio(tr.counter("solver.memo_hits"), tr.counter("solver.queries")),
            "ratio",
        ),
        ("mincut.stoer_wagner_ms", ms("mincut.stoer_wagner"), "ms"),
        ("mincut.packing_ms", ms("mincut.packing"), "ms"),
        (
            "mincut.two_respecting_ms",
            ms("mincut.two_respecting"),
            "ms",
        ),
        ("core.plan_build_ms", ms("core.plan_build"), "ms"),
        ("core.bfs_tree_ms", ms("core.bfs_tree"), "ms"),
        ("core.shortcut_build_ms", ms("core.shortcut_build"), "ms"),
        ("core.measure_quality_ms", ms("core.measure_quality"), "ms"),
        ("core.repair_ms", ms("core.repair"), "ms"),
        (
            "core.parts_rebuilt_ratio",
            ratio(
                tr.counter("core.parts_rebuilt"),
                tr.counter("core.parts_total"),
            ),
            "ratio",
        ),
        (
            "core.full_rebuilds",
            tr.counter("core.full_rebuilds"),
            "count",
        ),
        ("congest.run_ms", ms("congest.run"), "ms"),
        (
            "congest.us_per_round",
            ratio(congest_ns / 1e3, tr.counter("congest.rounds")),
            "us",
        ),
        (
            "congest.ns_per_message",
            ratio(congest_ns, tr.counter("congest.messages")),
            "ns",
        ),
        (
            "congest.messages_per_node_round",
            ratio(
                tr.counter("congest.messages"),
                tr.counter("congest.node_rounds"),
            ),
            "ratio",
        ),
        ("graphs.build_ms", ms("graphs.build"), "ms"),
        (
            "graphs.delta_apply_us",
            ratio(delta_ns / 1e3, tr.counter("graphs.delta_mutations")),
            "us",
        ),
        ("failed_ratio", failed_ratio(failed, attempted), "ratio"),
        ("trace.ops_per_s_untraced", untraced.ops_per_s(), "1/s"),
        ("trace.ops_per_s_traced", traced.ops_per_s(), "1/s"),
        (
            "trace.overhead_ratio",
            ratio(untraced.ops_per_s(), traced.ops_per_s()),
            "ratio",
        ),
    ];
    let self_names = [
        "serve.self_ms",
        "wire.self_ms",
        "solver.self_ms",
        "mincut.self_ms",
        "core.self_ms",
        "congest.self_ms",
        "graphs.self_ms",
    ];
    for (name, layer) in self_names.into_iter().zip(LAYERS) {
        m.push((name, self_ms(layer), "ms"));
    }
    m
}

fn print_layer_table(tr: &Tracer) {
    let layers = tr.layer_self_times();
    println!("{:<8} {:>12} {:>8}", "layer", "self_ms", "spans");
    for (layer, t) in &layers {
        println!("{layer:<8} {:>12.3} {:>8}", t.self_ns as f64 / 1e6, t.spans);
    }
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{workload}-{seed}.jsonl");
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => eprintln!("spans: {} written to {path}", tr.spans().len()),
        Err(e) => eprintln!("spans: could not write {path}: {e}"),
    }
}

fn to_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: minex-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let (runs, metrics) = if !args.trace {
        let opts = Opts {
            seed: args.seed,
            seconds: args.seconds,
            setup_reps: SETUP_REPS,
        };
        let mut off = Tracer::new(false, epoch, 0);
        let out = run_workload(&args.workload, &opts, &mut off);
        let metrics = end_to_end(&out);
        (vec![out], metrics)
    } else {
        let slice = Opts {
            seed: args.seed,
            seconds: args.seconds / 3.0,
            setup_reps: 1,
        };
        let mut off = Tracer::new(false, epoch, 0);
        let mut tr = Tracer::new(true, epoch, 1);
        let mut runs = vec![
            run_workload(&args.workload, &slice, &mut off),
            run_workload(&args.workload, &slice, &mut tr),
        ];
        for w in WORKLOADS.iter().filter(|&&w| w != args.workload) {
            runs.push(run_workload(w, &slice, &mut tr));
        }
        let metrics = per_layer(&tr, &runs);
        print_layer_table(&tr);
        write_spans(&tr, &args.workload, args.seed);
        (runs, metrics)
    };
    let attempted: u64 = runs.iter().map(|o| o.attempted).sum();
    let failed: u64 = runs.iter().map(|o| o.failed).sum();
    println!(
        "{}",
        to_json(failed == 0, attempted.max(1), failed, &metrics)
    );
}
