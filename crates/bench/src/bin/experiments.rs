//! Prints every experiment table (E1–E18; the README's *Building and
//! testing* section lists them). Pass `--full` for the larger
//! sweeps; name ids (e.g. `E6 E7`) to run a
//! subset (an unknown id exits 2 before anything runs); pass
//! `--csv <dir>` to also dump each table as `<dir>/<id>.csv`
//! so bench trajectories can be tracked across PRs;
//! `--perf-json <file>` writes a machine-readable wall-time summary
//! (`BENCH_pr.json` in CI), including a `plan_reuse` section with E14's
//! solver-vs-legacy amortization figures, an `engine_scaling` section with
//! E13's rounds/sec rows (the hot-path throughput the nightly perf floor
//! locks via `scripts/check-perf-floor.sh`), a `scale` section with E15's
//! CSR-vs-nested-Vec memory and iteration figures, a `dynamic` section
//! with E16's incremental-repair-vs-rebuild figures, a `serve` section
//! with E18's queries/sec-vs-concurrent-clients figures, and a
//! `telemetry` section with E17's observed-congestion rows plus the
//! noop-sink dispatch-overhead sample; `--trace <file>` (or `MINEX_TRACE=<file>`)
//! writes the deterministic traced-session JSONL export the CI telemetry
//! gate validates and byte-compares with `expected/trace.jsonl`.
//!
//! Tables go to stdout; progress chatter goes to stderr through the
//! `MINEX_LOG`-leveled logger, so `experiments > tables.md` captures
//! exactly the rendered tables.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Extracts the value following `--flag`, erroring out if it is missing or
/// looks like another flag.
fn flag_value(args: &[String], pos: usize, flag: &str) -> String {
    match args.get(pos + 1).filter(|a| !a.starts_with('-')) {
        Some(v) => v.clone(),
        None => {
            minex_bench::error!("{flag} requires an argument");
            std::process::exit(2);
        }
    }
}

/// Everything one sweep produces besides stdout: per-experiment wall
/// times, the tables feeding `BENCH_pr.json` sections, and the optional
/// traced-session JSONL export.
struct SweepOutput {
    perf: Vec<(&'static str, f64)>,
    engine_scaling: Option<minex_bench::Table>,
    plan_reuse: Option<minex_bench::Table>,
    scale: Option<minex_bench::Table>,
    dynamic: Option<minex_bench::Table>,
    serve: Option<minex_bench::Table>,
    telemetry: Option<minex_bench::Table>,
    sink_overhead: Option<(f64, f64)>,
    trace: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let csv_pos = args.iter().position(|a| a == "--csv");
    let csv_dir: Option<PathBuf> = csv_pos.map(|i| PathBuf::from(flag_value(&args, i, "--csv")));
    let perf_pos = args.iter().position(|a| a == "--perf-json");
    let perf_path: Option<PathBuf> =
        perf_pos.map(|i| PathBuf::from(flag_value(&args, i, "--perf-json")));
    let trace_pos = args.iter().position(|a| a == "--trace");
    let trace_path: Option<PathBuf> = trace_pos
        .map(|i| PathBuf::from(flag_value(&args, i, "--trace")))
        .or_else(|| std::env::var_os("MINEX_TRACE").map(PathBuf::from));
    let value_positions: Vec<usize> = [csv_pos, perf_pos, trace_pos]
        .iter()
        .flatten()
        .map(|p| p + 1)
        .collect();
    let selected: Vec<&String> = args
        .iter()
        .enumerate()
        // Tokens after --csv/--perf-json/--trace are values, never ids.
        .filter(|(i, _)| !value_positions.contains(i))
        .map(|(_, a)| a)
        .filter(|a| a.starts_with('E') && a[1..].chars().all(|c| c.is_ascii_digit()))
        .collect();
    let known: Vec<&str> = minex_bench::experiments()
        .iter()
        .map(|(id, _)| *id)
        .collect();
    if let Some(id) = selected.iter().find(|id| !known.contains(&id.as_str())) {
        minex_bench::error!("unknown experiment id {id}; known ids: {}", known.join(" "));
        std::process::exit(2);
    }
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            minex_bench::error!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        });
    }
    // Fail on an unwritable output path now, not after the whole sweep ran.
    for path in [&perf_path, &trace_path].into_iter().flatten() {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).unwrap_or_else(|e| {
                minex_bench::error!("cannot create {}: {e}", parent.display());
                std::process::exit(2);
            });
        }
    }
    println!(
        "# minex experiments ({} sweep)\n",
        if full { "full" } else { "quick" },
    );
    let mut out = SweepOutput {
        perf: Vec::new(),
        engine_scaling: None,
        plan_reuse: None,
        scale: None,
        dynamic: None,
        serve: None,
        telemetry: None,
        sink_overhead: None,
        trace: None,
    };
    for (id, runner) in minex_bench::experiments() {
        if !selected.is_empty() && !selected.iter().any(|s| *s == id) {
            continue;
        }
        minex_bench::debug!("running {id}");
        let start = Instant::now();
        let table = runner(full);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        println!("{}", table.render());
        minex_bench::info!("{id} computed in {wall_ms:.1}ms");
        out.perf.push((id, wall_ms));
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{id}.csv"));
            std::fs::write(&path, table.to_csv()).unwrap_or_else(|e| {
                minex_bench::error!("cannot write {}: {e}", path.display());
                std::process::exit(2);
            });
        }
        match id {
            "E13" => out.engine_scaling = Some(table),
            "E14" => out.plan_reuse = Some(table),
            "E15" => out.scale = Some(table),
            "E16" => out.dynamic = Some(table),
            "E17" => out.telemetry = Some(table),
            "E18" => out.serve = Some(table),
            _ => {}
        }
    }
    if trace_path.is_some() {
        minex_bench::debug!("exporting the traced-session JSONL");
        out.trace = Some(minex_bench::trace_session_jsonl());
    }
    if perf_path.is_some() {
        minex_bench::debug!("sampling noop-sink dispatch overhead");
        out.sink_overhead = Some(minex_bench::sink_overhead_ms(5));
    }
    if let (Some(path), Some(trace)) = (&trace_path, &out.trace) {
        std::fs::write(path, trace).unwrap_or_else(|e| {
            minex_bench::error!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
        minex_bench::info!("trace written to {}", path.display());
    }
    if let Some(path) = &perf_path {
        let mut json = String::from("{\n");
        let _ = writeln!(
            json,
            "  \"mode\": \"{}\",",
            if full { "full" } else { "quick" }
        );
        // Debug builds distort every wall-clock figure (no vectorization,
        // overflow checks on the hot loops); consumers like
        // `scripts/check-perf-floor.sh` use this flag to skip timing
        // comparisons, consistent with `MINEX_SKIP_TIMING_ASSERTS`.
        let _ = writeln!(json, "  \"debug\": {},", cfg!(debug_assertions));
        let total: f64 = out.perf.iter().map(|(_, ms)| ms).sum();
        let _ = writeln!(json, "  \"total_wall_ms\": {total:.1},");
        json.push_str("  \"experiments\": [\n");
        for (i, (id, ms)) in out.perf.iter().enumerate() {
            let comma = if i + 1 < out.perf.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"id\": \"{id}\", \"wall_ms\": {ms:.1}}}{comma}"
            );
        }
        json.push_str("  ],\n");
        // E13's engine-throughput rows: rounds/sec of the CONGEST round
        // loop per family. These are the hot-path numbers the nightly
        // scale job locks against `expected/perf-floor.json`.
        json.push_str("  \"engine_scaling\": [\n");
        if let Some(table) = &out.engine_scaling {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "    {{\"family\": \"{}\", \"n\": {}, \"workload\": \"{}\", \"rounds\": {}, \"messages\": {}, \"wall_ms\": {}, \"krounds_per_sec\": {}}}{comma}",
                    row[0], row[1], row[2], row[3], row[4], row[5], row[6]
                );
            }
        }
        json.push_str("  ],\n");
        // E14's amortization rows: plan-once/query-many vs N legacy calls.
        json.push_str("  \"plan_reuse\": [\n");
        if let Some(table) = &out.plan_reuse {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "    {{\"workload\": \"{}\", \"queries\": {}, \"legacy_ms\": {}, \"solver_ms\": {}, \"speedup\": {}}}{comma}",
                    row[0], row[1], row[2], row[3], row[4]
                );
            }
        }
        json.push_str("  ],\n");
        // E15's graph-core rows: CSR memory and iteration vs the nested-Vec
        // baseline, the trajectory numbers for the scale roadmap.
        json.push_str("  \"scale\": [\n");
        if let Some(table) = &out.scale {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"build_ms\": {}, \"csr_bytes_per_edge\": {}, \"adj_bytes_per_edge\": {}, \"mem_ratio\": {}, \"iter_speedup\": {}, \"krounds_per_sec\": {}}}{comma}",
                    row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[9], row[10]
                );
            }
        }
        json.push_str("  ],\n");
        // E16's dynamic rows: Solver::apply repair vs a from-scratch
        // rebuild under single-edge churn, the regression bar for the
        // incremental-repair path.
        json.push_str("  \"dynamic\": [\n");
        if let Some(table) = &out.dynamic {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "    {{\"family\": \"{}\", \"n\": {}, \"m\": {}, \"parts\": {}, \"repair_ms\": {}, \"rebuild_ms\": {}, \"speedup\": {}, \"parts_rebuilt\": {}}}{comma}",
                    row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7]
                );
            }
        }
        json.push_str("  ],\n");
        // E18's serving rows: aggregate queries/sec against the
        // `minex-serve` daemon as concurrent clients grow, each client on
        // its own session (cross-session parallelism).
        json.push_str("  \"serve\": [\n");
        if let Some(table) = &out.serve {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "    {{\"workload\": \"{}\", \"clients\": {}, \"queries\": {}, \"elapsed_ms\": {}, \"qps\": {}, \"speedup\": {}, \"identical\": \"{}\"}}{comma}",
                    row[0], row[1], row[2], row[3], row[4], row[5], row[6]
                );
            }
        }
        json.push_str("  ],\n");
        // E17's congestion rows (observed max edge traffic vs the analytic
        // bound) plus the sink-dispatch overhead sample backing the
        // zero-cost-when-off guard (the <2% assertion itself lives in
        // minex-congest's sink_overhead test).
        json.push_str("  \"telemetry\": {\n");
        let (run_ms, direct_ms) = out.sink_overhead.unwrap_or((f64::NAN, f64::NAN));
        let _ = writeln!(json, "    \"sink_noop_ms\": {run_ms:.3},");
        let _ = writeln!(json, "    \"sink_direct_ms\": {direct_ms:.3},");
        let _ = writeln!(
            json,
            "    \"sink_overhead\": {:.4},",
            run_ms / direct_ms.max(1e-9)
        );
        json.push_str("    \"congestion\": [\n");
        if let Some(table) = &out.telemetry {
            for (i, row) in table.rows.iter().enumerate() {
                let comma = if i + 1 < table.rows.len() { "," } else { "" };
                let _ = writeln!(
                    json,
                    "      {{\"family\": \"{}\", \"n\": {}, \"parts\": {}, \"quality\": {}, \"rounds\": {}, \"round_budget\": {}, \"observed_max_edge_messages\": {}, \"bound\": {}, \"ratio\": {}}}{comma}",
                    row[0], row[1], row[3], row[4], row[5], row[6], row[7], row[8], row[9]
                );
            }
        }
        json.push_str("    ]\n  }\n}\n");
        std::fs::write(path, json).unwrap_or_else(|e| {
            minex_bench::error!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        });
    }
}
