//! `minex-loadgen`: a closed-loop load generator for `minex-serve`.
//!
//! ```text
//! minex-loadgen --addr HOST:PORT [--clients N] [--queries N]
//!               [--rows N] [--cols N] [--scenario throughput|overload]
//! ```
//!
//! * `throughput` — each client uploads its *own* weighted copy of a
//!   triangulated grid (distinct weights → distinct sessions → cross-
//!   session parallelism) and issues a deterministic `mst` / `components`
//!   / `partwise_min` mix back-to-back. Reports aggregate queries/sec.
//! * `overload` — every client hammers the *same* session (one lock, so
//!   service is serialized) as fast as it can; run against a daemon with
//!   a small `--queue-depth` this drives the admission gate into
//!   `OVERLOADED` shedding, which the run counts.
//!
//! Output is a single JSON line on stdout, e.g.
//! `{"scenario":"throughput","clients":8,"ok":800,"overloaded":0,
//! "errors":0,"elapsed_s":0.41,"qps":1951.2}` — CI's serve job checks it
//! with `jq`.

use std::process::exit;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use minex_graphs::generators;
use minex_serve::{Client, CreateSession, ServeError};

struct Args {
    addr: String,
    clients: usize,
    queries: usize,
    rows: usize,
    cols: usize,
    scenario: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: minex-loadgen --addr HOST:PORT [--clients N] [--queries N] \
         [--rows N] [--cols N] [--scenario throughput|overload]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        clients: 4,
        queries: 32,
        rows: 8,
        cols: 8,
        scenario: "throughput".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("minex-loadgen: {name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => out.addr = value("--addr"),
            "--clients" => out.clients = value("--clients").parse().unwrap_or_else(|_| usage()),
            "--queries" => out.queries = value("--queries").parse().unwrap_or_else(|_| usage()),
            "--rows" => out.rows = value("--rows").parse().unwrap_or_else(|_| usage()),
            "--cols" => out.cols = value("--cols").parse().unwrap_or_else(|_| usage()),
            "--scenario" => out.scenario = value("--scenario"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("minex-loadgen: unknown argument {other:?}");
                usage();
            }
        }
    }
    if out.addr.is_empty() {
        eprintln!("minex-loadgen: --addr is required");
        usage();
    }
    out
}

/// The upload for client `seed`: the same grid under client-distinct
/// weights, so each client gets (and keeps) its own session.
fn upload_for(rows: usize, cols: usize, seed: u64) -> CreateSession {
    let g = generators::triangulated_grid(rows, cols);
    CreateSession {
        n: g.n(),
        edges: g
            .edges()
            .map(|(e, u, v)| {
                (
                    u,
                    v,
                    1 + ((e as u64).wrapping_mul(2654435761) ^ seed) % 1000,
                )
            })
            .collect(),
        parts: None,
        builder: None,
        bandwidth: None,
        max_rounds: None,
        threads: None,
        trace: false,
    }
}

struct Tally {
    ok: usize,
    overloaded: usize,
    errors: usize,
}

fn run_client(args: &Args, client_id: usize) -> Result<Tally, ServeError> {
    let mut tally = Tally {
        ok: 0,
        overloaded: 0,
        errors: 0,
    };
    let mut client = Client::connect(&*args.addr)?;
    // Overload clients share one session (seed 0); throughput clients
    // each own one.
    let seed = if args.scenario == "overload" {
        0
    } else {
        client_id as u64 + 1
    };
    let upload = upload_for(args.rows, args.cols, seed);
    let n = upload.n;
    let session = loop {
        match client.create_session(&upload) {
            Ok(s) => break s,
            // Session creation itself can be shed; retry until admitted.
            Err(e) if e.code() == Some("OVERLOADED") => {
                tally.overloaded += 1;
                thread::yield_now();
            }
            Err(e) => return Err(e),
        }
    };
    let values: Vec<u64> = (0..n as u64).collect();
    for i in 0..args.queries {
        let result = match i % 3 {
            0 => client.mst(&session).map(|_| ()),
            1 => client.components(&session).map(|_| ()),
            _ => client.partwise_min(&session, &values, 32).map(|_| ()),
        };
        match result {
            Ok(()) => tally.ok += 1,
            Err(e) if e.code() == Some("OVERLOADED") => tally.overloaded += 1,
            Err(ServeError::Server { .. }) => tally.errors += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(tally)
}

fn main() {
    let args = Arc::new(parse_args());
    if args.scenario != "throughput" && args.scenario != "overload" {
        eprintln!("minex-loadgen: unknown scenario {:?}", args.scenario);
        usage();
    }

    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let args = Arc::clone(&args);
            thread::spawn(move || run_client(&args, c))
        })
        .collect();

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    let mut errors = 0usize;
    let mut failed = false;
    for w in workers {
        match w.join().expect("client thread panicked") {
            Ok(t) => {
                ok += t.ok;
                overloaded += t.overloaded;
                errors += t.errors;
            }
            Err(e) => {
                eprintln!("minex-loadgen: client failed: {e}");
                failed = true;
            }
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let qps = if elapsed > 0.0 {
        ok as f64 / elapsed
    } else {
        0.0
    };
    println!(
        "{{\"scenario\":{:?},\"clients\":{},\"queries_per_client\":{},\"ok\":{ok},\
         \"overloaded\":{overloaded},\"errors\":{errors},\"elapsed_s\":{elapsed:.4},\
         \"qps\":{qps:.2}}}",
        args.scenario, args.clients, args.queries,
    );
    if failed {
        exit(1);
    }
}
