//! Prints every experiment table (E1–E18; the README's *Building and
//! testing* section lists them). Pass `--full` for the larger
//! sweeps; name ids (e.g. `E6 E7`) to run a
//! subset (an unknown id exits 2 before anything runs); pass
//! `--csv <dir>` to also dump each table as `<dir>/<id>.csv`
//! so bench trajectories can be tracked across PRs;
//! `--perf-json <file>` writes a machine-readable summary (`BENCH_pr.json`
//! in CI): `mode`, `debug`, `total_wall_ms`, each experiment's wall time
//! under `experiments`, every table that ran under its id (one object per
//! row, see [`minex_bench::Table::to_json`]; `scripts/check-perf-floor.sh`
//! reads `E13` and `E15`), and the noop-sink dispatch-overhead sample
//! under `sink_overhead`; `--trace <file>` writes the deterministic
//! traced-session JSONL export the CI telemetry gate validates and
//! byte-compares with `expected/trace.jsonl`.
//!
//! Tables go to stdout; progress chatter goes to stderr through the
//! `MINEX_LOG`-leveled logger, so `experiments > tables.md` captures
//! exactly the rendered tables.

use std::path::PathBuf;
use std::time::Instant;

use minex_algo::wire::{obj, JsonValue};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let csv_pos = args.iter().position(|a| a == "--csv");
    let csv_dir: Option<PathBuf> = csv_pos.map(|i| PathBuf::from(flag_value(&args, i, "--csv")));
    let perf_pos = args.iter().position(|a| a == "--perf-json");
    let perf_path: Option<PathBuf> =
        perf_pos.map(|i| PathBuf::from(flag_value(&args, i, "--perf-json")));
    let trace_pos = args.iter().position(|a| a == "--trace");
    let trace_path: Option<PathBuf> =
        trace_pos.map(|i| PathBuf::from(flag_value(&args, i, "--trace")));
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
    // Each table that ran with its wall time, for the `--perf-json` summary.
    let mut ran: Vec<(minex_bench::Table, f64)> = Vec::new();
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
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{id}.csv"));
            write_or_exit(&path, &table.to_csv());
        }
        if perf_path.is_some() {
            ran.push((table, wall_ms));
        }
    }
    if let Some(path) = &trace_path {
        minex_bench::debug!("exporting the traced-session JSONL");
        write_or_exit(path, &minex_bench::trace_session_jsonl());
        minex_bench::info!("trace written to {}", path.display());
    }
    if let Some(path) = &perf_path {
        minex_bench::debug!("sampling noop-sink dispatch overhead");
        let (noop_ms, direct_ms) = minex_bench::sink_overhead_ms(5);
        let total_ms: f64 = ran.iter().map(|(_, ms)| ms).sum();
        let experiments = ran
            .iter()
            .map(|(t, ms)| {
                obj([
                    ("id", JsonValue::Str(t.id.into())),
                    ("wall_ms", millis(*ms)),
                ])
            })
            .collect();
        let mut summary = vec![
            (
                "mode",
                JsonValue::Str(if full { "full" } else { "quick" }.into()),
            ),
            // Debug builds distort every wall-clock figure (no
            // vectorization, overflow checks on the hot loops);
            // `scripts/check-perf-floor.sh` skips its comparisons on them,
            // consistent with `MINEX_SKIP_TIMING_ASSERTS`.
            ("debug", JsonValue::Bool(cfg!(debug_assertions))),
            ("total_wall_ms", millis(total_ms)),
            ("experiments", JsonValue::Array(experiments)),
        ];
        summary.extend(ran.iter().map(|(t, _)| (t.id, t.to_json())));
        // The zero-cost-when-off guard's figures; the <2% assertion itself
        // lives in minex-congest's sink_overhead test.
        let sink = obj([
            ("noop_ms", millis(noop_ms)),
            ("direct_ms", millis(direct_ms)),
            ("ratio", JsonValue::Float(noop_ms / direct_ms.max(1e-9))),
        ]);
        summary.push(("sink_overhead", sink));
        write_or_exit(path, &format!("{}\n", obj(summary)));
    }
}

/// A millisecond figure rounded to the microsecond.
fn millis(ms: f64) -> JsonValue {
    JsonValue::Float((ms * 1e3).round() / 1e3)
}

/// Writes `contents` to `path`, exiting 2 with an error line on failure.
fn write_or_exit(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        minex_bench::error!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    });
}
