//! # minex-bench
//!
//! Experiment harness regenerating every experiment of the `minex`
//! reproduction (the paper is pure theory, so each theorem becomes a
//! measured table — see `DESIGN.md` §4 for the mapping).
//!
//! Every simulation-backed experiment runs through the plan-once /
//! query-many [`Solver`] session API (or the [`ShortcutPlan`] type for
//! pure quality measurements) — the golden-CSV gate verifies the migrated
//! tables stay byte-identical to the legacy free-function path.
//!
//! Run `cargo run -p minex-bench --bin experiments --release` to print all
//! tables; pass `--full` for the larger parameter sweeps.

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use minex_algo::baselines::{compare_mst, NoShortcutBuilder};
use minex_algo::solver::{PartsStrategy, Solver, SsspDetail, Tier};
use minex_algo::sssp::compare_sssp;
use minex_algo::workloads;
use minex_congest::CongestConfig;
use minex_core::cells::{assign_cells, CellPartition};
use minex_core::construct::{
    ApexBuilder, AutoCappedBuilder, CliqueSumShortcutBuilder, ShortcutBuilder, SteinerBuilder,
    TreewidthBuilder,
};
use minex_core::gates::{planar_gates, validate_gates};
use minex_core::{Partition, ShortcutPlan};
use minex_decomp::{CliqueSumTree, TreeDecomposition};
use minex_graphs::generators::{self, CliqueSumBuilder};
use minex_graphs::{traversal, EdgeMutation, Graph, NodeId, WeightModel, WeightedGraph};

/// A rendered experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (E1..E18).
    pub id: &'static str,
    /// Human title, naming the theorem being exercised.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders as CSV (header row first). Fields containing commas, quotes,
    /// or newlines are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders as a Markdown table with a heading.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Leveled stderr logging for the experiment binaries, env-controlled via
/// `MINEX_LOG` (`off`, `error`, `warn`, `info`, `debug`; default `info`).
///
/// Progress chatter goes to stderr so stdout stays pure table output —
/// `experiments … > tables.md` captures exactly the rendered tables, and
/// `MINEX_LOG=off` silences the chatter entirely. Use through the
/// [`error!`](crate::error), [`warn!`](crate::warn), [`info!`](crate::info),
/// and [`debug!`](crate::debug) macros.
pub mod logging {
    use std::sync::OnceLock;

    /// Log severity, most severe first; `MINEX_LOG` sets the threshold.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Level {
        /// Must-see problems (suppressed only by `MINEX_LOG=off`).
        Error,
        /// Suspicious but non-fatal conditions.
        Warn,
        /// Progress chatter (the default threshold).
        Info,
        /// Per-step detail.
        Debug,
    }

    impl Level {
        fn tag(self) -> &'static str {
            match self {
                Level::Error => "error",
                Level::Warn => "warn",
                Level::Info => "info",
                Level::Debug => "debug",
            }
        }
    }

    /// The `MINEX_LOG` threshold: `None` silences everything, otherwise
    /// the most verbose level still printed. Unset or unrecognized values
    /// fall back to `info`.
    fn threshold() -> Option<Level> {
        static THRESHOLD: OnceLock<Option<Level>> = OnceLock::new();
        *THRESHOLD.get_or_init(|| match std::env::var("MINEX_LOG").ok().as_deref() {
            Some("off") | Some("none") | Some("0") => None,
            Some("error") => Some(Level::Error),
            Some("warn") => Some(Level::Warn),
            Some("debug") | Some("trace") => Some(Level::Debug),
            _ => Some(Level::Info),
        })
    }

    /// Whether a message at `level` would currently be printed.
    pub fn enabled(level: Level) -> bool {
        threshold().is_some_and(|t| level <= t)
    }

    /// Prints `args` to stderr as `[minex <level>] …` when `level` clears
    /// the `MINEX_LOG` threshold.
    pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
        if enabled(level) {
            eprintln!("[minex {}] {args}", level.tag());
        }
    }
}

/// Logs to stderr at [`logging::Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Error, format_args!($($arg)*))
    };
}

/// Logs to stderr at [`logging::Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Warn, format_args!($($arg)*))
    };
}

/// Logs to stderr at [`logging::Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Info, format_args!($($arg)*))
    };
}

/// Logs to stderr at [`logging::Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::logging::log($crate::logging::Level::Debug, format_args!($($arg)*))
    };
}

fn config(n: usize) -> CongestConfig {
    CongestConfig::for_nodes(n)
        .with_bandwidth(192)
        .with_max_rounds(2_000_000)
}

fn diameter(g: &Graph) -> usize {
    traversal::diameter_double_sweep(g).expect("connected")
}

/// E1 — planar shortcut quality (Theorem 4 shape: `b=O(log d)`,
/// `c=O(d log d)`).
pub fn e1_planar_quality(full: bool) -> Table {
    let sides: &[usize] = if full { &[8, 16, 32, 64] } else { &[8, 16, 32] };
    let mut rows = Vec::new();
    for &side in sides {
        for family in ["grid", "tri-grid", "apollonian"] {
            let mut rng = StdRng::seed_from_u64(side as u64);
            let g = match family {
                "grid" => generators::grid(side, side),
                "tri-grid" => generators::triangulated_grid(side, side),
                _ => generators::apollonian(side * side, &mut rng).0,
            };
            let parts = workloads::voronoi_parts(&g, side, &mut rng);
            let plan = ShortcutPlan::build(&g, 0, parts, &AutoCappedBuilder);
            let q = plan.quality();
            rows.push(vec![
                family.to_string(),
                g.n().to_string(),
                plan.parts().len().to_string(),
                q.tree_diameter.to_string(),
                q.block.to_string(),
                q.congestion.to_string(),
                q.quality.to_string(),
                format!("{:.2}", q.quality as f64 / q.tree_diameter.max(1) as f64),
            ]);
        }
    }
    Table {
        id: "E1",
        title: "Planar shortcut quality (Theorem 4: b=O(log d), c=O(d log d))".into(),
        headers: [
            "family",
            "n",
            "parts",
            "d_T",
            "block",
            "congestion",
            "quality",
            "q/d_T",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E2 — treewidth shortcuts (Theorem 5 shape: `b=O(k)`, `c=O(k log n)`).
pub fn e2_treewidth(full: bool) -> Table {
    let ns: &[usize] = if full { &[200, 800, 3200] } else { &[200, 800] };
    let mut rows = Vec::new();
    for &n in ns {
        for k in [2usize, 3, 4] {
            let mut rng = StdRng::seed_from_u64((n + k) as u64);
            let (g, rec) = generators::k_tree(n, k, &mut rng);
            let td = TreeDecomposition::from_k_tree(g.n(), &rec);
            let builder = TreewidthBuilder::new(&td);
            let parts = workloads::voronoi_parts(&g, (n as f64).sqrt() as usize, &mut rng);
            let plan = ShortcutPlan::build(&g, 0, parts, &builder);
            let q = plan.quality();
            let log_n = (n as f64).log2();
            rows.push(vec![
                n.to_string(),
                k.to_string(),
                plan.parts().len().to_string(),
                q.block.to_string(),
                format!("{:.2}", q.block as f64 / k as f64),
                q.congestion.to_string(),
                format!("{:.2}", q.congestion as f64 / (k as f64 * log_n)),
                q.quality.to_string(),
            ]);
        }
    }
    Table {
        id: "E2",
        title: "Treewidth-k shortcuts (Theorem 5: b=O(k), c=O(k log n))".into(),
        headers: [
            "n",
            "k",
            "parts",
            "block",
            "block/k",
            "congestion",
            "c/(k·log n)",
            "quality",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// Chain of triangulated grids glued along edges — a deep clique-sum.
fn grid_chain(len: usize, side: usize) -> (Graph, CliqueSumTree) {
    let comp = generators::triangulated_grid(side, side);
    let corner = side * side - 1;
    let mut builder = CliqueSumBuilder::new(&comp, 2);
    let mut last: Vec<NodeId> = (0..comp.n()).collect();
    for _ in 1..len {
        let host = vec![last[corner - 1], last[corner]];
        last = builder.glue(&comp, &host, &[0, 1]).expect("chain glue");
    }
    let (g, rec) = builder.build();
    let tree = CliqueSumTree::new(rec).expect("chain record");
    (g, tree)
}

/// Bushy random clique-sum of small pieces — low diameter, minor-free.
fn bushy_clique_sum(bags: usize, seed: u64) -> (Graph, CliqueSumTree) {
    let comps = vec![
        generators::triangulated_grid(3, 3),
        generators::complete(4),
        generators::apollonian(12, &mut StdRng::seed_from_u64(seed)).0,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let (g, rec) = generators::random_clique_sum(&comps, bags, 3, &mut rng);
    let tree = CliqueSumTree::new(rec).expect("random record");
    (g, tree)
}

/// E3 — clique-sum composition (Theorem 7 shape: block `+2k`, congestion
/// `+O(k log² n)`).
pub fn e3_clique_sum(full: bool) -> Table {
    let shapes: &[(&str, usize)] = if full {
        &[("chain", 8), ("chain", 32), ("bushy", 16), ("bushy", 64)]
    } else {
        &[("chain", 8), ("bushy", 16)]
    };
    let mut rows = Vec::new();
    for &(shape, bags) in shapes {
        let (g, cst) = if shape == "chain" {
            grid_chain(bags, 4)
        } else {
            bushy_clique_sum(bags, 3)
        };
        cst.validate(&g).expect("witness valid");
        let mut rng = StdRng::seed_from_u64(bags as u64);
        let parts = workloads::voronoi_parts(&g, bags, &mut rng);
        let builder = CliqueSumShortcutBuilder::folded(cst.clone(), SteinerBuilder);
        let plan = ShortcutPlan::build(&g, 0, parts, &builder);
        let q = plan.quality();
        rows.push(vec![
            shape.to_string(),
            bags.to_string(),
            g.n().to_string(),
            cst.max_depth().to_string(),
            cst.fold().max_depth().to_string(),
            q.block.to_string(),
            q.congestion.to_string(),
            q.quality.to_string(),
        ]);
    }
    Table {
        id: "E3",
        title: "Clique-sum shortcuts (Theorem 7: b ≤ 2k+O(b_F), c ≤ O(k log² n)+c_F)".into(),
        headers: [
            "shape",
            "bags",
            "n",
            "depth",
            "folded depth",
            "block",
            "congestion",
            "quality",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E4 — Genus+Vortex treewidth and shortcuts (Lemmas 2–3 / Theorem 9).
pub fn e4_genus_vortex(full: bool) -> Table {
    let sizes: &[(usize, usize)] = if full {
        &[(6, 12), (8, 24), (10, 40)]
    } else {
        &[(6, 12), (8, 24)]
    };
    let mut rows = Vec::new();
    for &(r, c) in sizes {
        for vortices in [0usize, 1, 2] {
            let base = generators::toroidal_grid(r, c);
            let mut rng = StdRng::seed_from_u64((r * c + vortices) as u64);
            let mut g = base.clone();
            let mut records = Vec::new();
            for vi in 0..vortices {
                // Rows 0 and r/2 are disjoint cycles of the torus.
                let row = if vi == 0 { 0 } else { r / 2 };
                let cycle: Vec<NodeId> = (0..c).map(|j| row * c + j).collect();
                let (g2, rec) =
                    generators::add_vortex(&g, &cycle, 4, 2, &mut rng).expect("vortex fits");
                g = g2;
                records.push(rec);
            }
            // Witness decomposition: torus TD + Lemma 2 splicing per vortex.
            let mut td = TreeDecomposition::of_toroidal_grid(r, c);
            for rec in &records {
                td = td.reinsert_vortex(rec, None);
            }
            td.validate(&g).expect("Lemma 2 splice is valid");
            let builder = TreewidthBuilder::new(&td);
            let parts = workloads::voronoi_parts(&g, r + c, &mut rng);
            let plan = ShortcutPlan::build(&g, 0, parts, &builder);
            let q = plan.quality();
            let d = diameter(&g);
            rows.push(vec![
                format!("{r}x{c}"),
                vortices.to_string(),
                g.n().to_string(),
                d.to_string(),
                td.width().to_string(),
                // Lemma 3 bound O((g+1)·k·ℓ·D) with g=1, k=2 (+1 star slack).
                format!("{}", 2 * 3 * vortices.max(1) * d),
                q.block.to_string(),
                q.quality.to_string(),
            ]);
        }
    }
    Table {
        id: "E4",
        title: "Genus+Vortex treewidth (Lemmas 2-3: tw = O((g+1)kℓD)) and shortcuts".into(),
        headers: [
            "torus", "vortices", "n", "D", "width", "bound", "block", "quality",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E5 — apex graphs: diameter collapses, shortcut quality survives
/// (Lemma 9 / Theorem 8); gates machine-checked (Lemma 7).
pub fn e5_apex(full: bool) -> Table {
    let sides: &[usize] = if full { &[8, 16, 32] } else { &[8, 16] };
    let mut rows = Vec::new();
    for &side in sides {
        for stride in [1usize, 4] {
            let (g, apex) = generators::apex_grid(side, side, stride);
            let d = diameter(&g);
            let cols: Vec<Vec<NodeId>> = (0..side)
                .map(|c| (0..side).map(|r2| r2 * side + c).collect())
                .collect();
            let parts = Partition::new(&g, cols).expect("columns connected");
            let apex_builder = ApexBuilder::new(vec![apex], SteinerBuilder);
            let qa = ShortcutPlan::build(&g, apex, parts.clone(), &apex_builder)
                .quality()
                .clone();
            let qs = ShortcutPlan::build(&g, apex, parts, &SteinerBuilder)
                .quality()
                .clone();
            // Gates on the apex-free base grid with concurrent-BFS cells.
            let (base, emb) = generators::grid_embedded(side, side);
            let attach: Vec<NodeId> = (0..base.n()).step_by(stride.max(side)).collect();
            let bfs = traversal::multi_source_bfs(&base, &attach);
            let mut cell_sets: Vec<Vec<NodeId>> = vec![Vec::new(); attach.len()];
            for v in 0..base.n() {
                cell_sets[bfs.source_of[v]].push(v);
            }
            cell_sets.retain(|s| !s.is_empty());
            let cells = CellPartition::new(&base, cell_sets);
            let gate_s = planar_gates(&base, &emb, &cells)
                .ok()
                .and_then(|col| validate_gates(&base, &cells, &col).ok());
            let base_parts = Partition::new(
                &base,
                (0..side)
                    .map(|c| (0..side).map(|r2| r2 * side + c).collect())
                    .collect(),
            )
            .expect("columns connected");
            let beta = assign_cells(&cells, &base_parts).beta;
            rows.push(vec![
                format!("{side}x{side}+apex/{stride}"),
                d.to_string(),
                qa.tree_diameter.to_string(),
                qa.block.to_string(),
                qa.quality.to_string(),
                qs.quality.to_string(),
                gate_s.map_or("-".into(), |s| format!("{s:.1}")),
                beta.to_string(),
            ]);
        }
    }
    Table {
        id: "E5",
        title: "Apex graphs (Lemma 9/Thm 8): quality survives diameter collapse; gates (Lemma 7)"
            .into(),
        headers: [
            "graph",
            "D",
            "d_T",
            "block",
            "apex quality",
            "steiner quality",
            "gate s",
            "β",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E6 — MST round complexity on minor-free families (Corollary 1 shape:
/// `Õ(D²)` vs `Õ(D+√n)` vs naive).
pub fn e6_mst_rounds(full: bool) -> Table {
    let mut rows = Vec::new();
    let sides: &[usize] = if full { &[8, 12, 16, 24] } else { &[8, 12] };
    for &side in sides {
        let g = generators::triangulated_grid(side, side);
        rows.push(e6_row("tri-grid", g, side as u64));
    }
    let bags: &[usize] = if full { &[8, 24, 48] } else { &[8, 16] };
    for &b in bags {
        let (g, _) = bushy_clique_sum(b, b as u64);
        rows.push(e6_row("clique-sum", g, b as u64));
    }
    Table {
        id: "E6",
        title: "MST rounds (Corollary 1: Õ(D²) via shortcuts vs Õ(D+√n) vs naive)".into(),
        headers: [
            "family",
            "n",
            "D",
            "shortcut rounds",
            "charged constr.",
            "GKP rounds",
            "naive rounds",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

fn e6_row(family: &str, g: Graph, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let d = diameter(&g);
    let cmp = compare_mst(&wg, AutoCappedBuilder, config(g.n())).expect("mst comparison");
    vec![
        family.to_string(),
        g.n().to_string(),
        d.to_string(),
        cmp.shortcut_rounds.to_string(),
        cmp.shortcut_charged.to_string(),
        cmp.gkp_rounds.to_string(),
        cmp.naive_rounds.to_string(),
    ]
}

/// E7 — the `Ω̃(√n)` separation: aggregation on the lower-bound family vs
/// planar graphs of the same size.
pub fn e7_lower_bound(full: bool) -> Table {
    let sizes: &[usize] = if full { &[8, 16, 24, 32] } else { &[8, 16] };
    let mut rows = Vec::new();
    for &s in sizes {
        // Lower-bound family Γ(s, s): n ≈ s² + tree, D = O(log s).
        let (g, parts) = workloads::lower_bound_path_parts(s, s);
        let mut session = Solver::for_graph(&g)
            .parts(PartsStrategy::Explicit(parts))
            .shortcut_builder(AutoCappedBuilder)
            .config(config(g.n()))
            .root(g.n() - 1)
            .build()
            .expect("session");
        let q = session.plan().expect("connected").quality().clone();
        let values: Vec<u64> = (0..g.n() as u64).collect();
        let agg = session.partwise_min(&values, 32).expect("aggregation");
        let d = diameter(&g);
        rows.push(vec![
            format!("Γ({s},{s})"),
            g.n().to_string(),
            d.to_string(),
            q.quality.to_string(),
            agg.stats.simulated_rounds.to_string(),
            format!("{:.2}", agg.stats.simulated_rounds as f64 / (s as f64)),
            format!("{:.2}", agg.stats.simulated_rounds as f64 / d.max(1) as f64),
        ]);
        // Planar control of comparable size: grid s×s with row parts.
        let (cg, cparts) = workloads::grid_row_parts(s, s);
        let mut csession = Solver::for_graph(&cg)
            .parts(PartsStrategy::Explicit(cparts))
            .shortcut_builder(AutoCappedBuilder)
            .config(config(cg.n()))
            .build()
            .expect("session");
        let cq = csession.plan().expect("connected").quality().clone();
        let cvalues: Vec<u64> = (0..cg.n() as u64).collect();
        let cagg = csession.partwise_min(&cvalues, 32).expect("aggregation");
        let cd = diameter(&cg);
        rows.push(vec![
            format!("grid({s},{s})"),
            cg.n().to_string(),
            cd.to_string(),
            cq.quality.to_string(),
            cagg.stats.simulated_rounds.to_string(),
            format!("{:.2}", cagg.stats.simulated_rounds as f64 / (s as f64)),
            format!(
                "{:.2}",
                cagg.stats.simulated_rounds as f64 / cd.max(1) as f64
            ),
        ]);
    }
    Table {
        id: "E7",
        title: "Lower-bound family vs planar control ([SHK+12]: Ω̃(√n) despite D=O(log n))".into(),
        headers: [
            "graph",
            "n",
            "D",
            "quality",
            "agg rounds",
            "rounds/√n",
            "rounds/D",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E8 — aggregation rounds track shortcut quality (Theorem 1's mechanism).
pub fn e8_aggregation(full: bool) -> Table {
    let mut rows = Vec::new();
    let cases: Vec<(String, Graph, Partition)> = {
        let mut v: Vec<(String, Graph, Partition)> = Vec::new();
        let (wg, wp) = workloads::wheel_rim_parts(129, 16);
        v.push(("wheel-rim".into(), wg, wp));
        let g = generators::triangulated_grid(16, 16);
        let mut rng = StdRng::seed_from_u64(1);
        let p = workloads::voronoi_parts(&g, 16, &mut rng);
        v.push(("tri-grid voronoi".into(), g, p));
        let g2 = generators::grid(8, 32);
        let p2 = workloads::forest_split_parts(&g2, 12, &mut rng);
        v.push(("grid forest-split".into(), g2, p2));
        if full {
            let g3 = generators::triangulated_grid(24, 24);
            let p3 = workloads::voronoi_parts(&g3, 24, &mut rng);
            v.push(("tri-grid 24".into(), g3, p3));
        }
        v
    };
    for (name, g, parts) in cases {
        let builders: [(&str, Box<dyn ShortcutBuilder + Send>); 3] = [
            ("none", Box::new(NoShortcutBuilder)),
            ("steiner", Box::new(SteinerBuilder)),
            ("auto-capped", Box::new(AutoCappedBuilder)),
        ];
        for (bname, builder) in builders {
            // One session per (workload, builder): the plan is built once,
            // quality read off it, and the aggregation served from it.
            let mut session = Solver::for_graph(&g)
                .parts(PartsStrategy::Explicit(parts.clone()))
                .shortcut_builder(builder)
                .config(config(g.n()))
                .build()
                .expect("session");
            let q = session.plan().expect("connected").quality().clone();
            let values: Vec<u64> = (0..g.n() as u64).rev().collect();
            let agg = session.partwise_min(&values, 32).expect("aggregation");
            rows.push(vec![
                name.clone(),
                bname.to_string(),
                q.quality.to_string(),
                agg.stats.simulated_rounds.to_string(),
                format!(
                    "{:.2}",
                    agg.stats.simulated_rounds as f64 / q.quality.max(1) as f64
                ),
            ]);
        }
    }
    Table {
        id: "E8",
        title: "Part-wise aggregation rounds vs quality (Theorem 1: rounds = Õ(q))".into(),
        headers: ["workload", "shortcut", "quality", "agg rounds", "rounds/q"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E9 — `(1+ε)` min-cut via tree packing (Corollary 1).
pub fn e9_mincut(full: bool) -> Table {
    let mut rows = Vec::new();
    let mut cases: Vec<(String, WeightedGraph)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(4);
    let g1 = generators::triangulated_grid(6, 6);
    cases.push((
        "tri-grid 6x6".into(),
        WeightModel::Uniform { lo: 1, hi: 8 }.apply(&g1, &mut rng),
    ));
    let g2 = generators::toroidal_grid(5, 5);
    cases.push(("torus 5x5".into(), WeightedGraph::unit(g2)));
    if full {
        let (g3, _) = bushy_clique_sum(12, 9);
        cases.push(("clique-sum".into(), WeightedGraph::unit(g3)));
    }
    for (name, wg) in cases {
        // One session per graph: the three packing sizes share the cached
        // Borůvka plan, so only the first row pays for shortcut builds.
        let mut session = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(config(wg.graph().n()))
            .build()
            .expect("session");
        for trees in [1usize, 4, 8] {
            let out = session.min_cut(trees).expect("min cut");
            rows.push(vec![
                name.clone(),
                trees.to_string(),
                out.value.exact_value.to_string(),
                out.value.approx_value.to_string(),
                format!("{:.3}", out.value.ratio),
                out.stats.simulated_rounds.to_string(),
            ]);
        }
    }
    Table {
        id: "E9",
        title: "(1+ε)-approximate min-cut via tree packing (Corollary 1)".into(),
        headers: ["graph", "trees", "exact", "approx", "ratio", "sim rounds"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// E10 — folding ablation (Lemma 1 vs Theorem 7): congestion `k·d_DT` vs
/// `O(k log² n)`.
pub fn e10_folding_ablation(full: bool) -> Table {
    let lens: &[usize] = if full {
        &[8, 16, 32, 64, 128]
    } else {
        &[8, 16, 32]
    };
    let mut rows = Vec::new();
    for &len in lens {
        let (g, cst) = grid_chain(len, 3);
        let mut rng = StdRng::seed_from_u64(len as u64);
        let parts = workloads::voronoi_parts(&g, len, &mut rng);
        let unfolded = CliqueSumShortcutBuilder::unfolded(cst.clone(), SteinerBuilder);
        let folded = CliqueSumShortcutBuilder::folded(cst.clone(), SteinerBuilder);
        let qu = ShortcutPlan::build(&g, 0, parts.clone(), &unfolded)
            .quality()
            .clone();
        let qf = ShortcutPlan::build(&g, 0, parts, &folded).quality().clone();
        rows.push(vec![
            len.to_string(),
            cst.max_depth().to_string(),
            cst.fold().max_depth().to_string(),
            qu.congestion.to_string(),
            qf.congestion.to_string(),
            qu.block.to_string(),
            qf.block.to_string(),
        ]);
    }
    Table {
        id: "E10",
        title: "Folding ablation (Lemma 1 congestion ~ depth vs Theorem 7 polylog)".into(),
        headers: [
            "chain bags",
            "depth",
            "folded depth",
            "congestion unfolded",
            "congestion folded",
            "block unfolded",
            "block folded",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// One E11 row: runs all three SSSP tiers via [`compare_sssp`] and formats
/// the comparison.
fn e11_row<B: ShortcutBuilder + Send + 'static>(
    family: &str,
    wg: &WeightedGraph,
    parts: &Partition,
    builder: B,
    source: NodeId,
    epsilon: f64,
    max_phases: usize,
) -> Vec<String> {
    let g = wg.graph();
    let cmp = compare_sssp(
        wg,
        source,
        parts,
        builder,
        epsilon,
        max_phases,
        config(g.n()),
    )
    .expect("sssp comparison");
    vec![
        family.to_string(),
        g.n().to_string(),
        diameter(g).to_string(),
        cmp.exact_rounds.to_string(),
        cmp.scaled_rounds.to_string(),
        format!("{:.3}", cmp.scaled_stretch),
        cmp.shortcut_rounds.to_string(),
        format!("{:.3}", cmp.shortcut_stretch),
        cmp.shortcut_phases.to_string(),
        if cmp.shortcut_converged { "yes" } else { "no" }.to_string(),
    ]
}

/// Comb workload for E11: each tooth (plus its spine node) is one part.
fn comb_parts(teeth: usize, tooth_len: usize) -> (Graph, Partition) {
    let g = generators::comb(teeth, tooth_len);
    let parts: Vec<Vec<NodeId>> = (0..teeth)
        .map(|i| {
            let mut p = vec![i];
            p.extend(teeth + i * tooth_len..teeth + (i + 1) * tooth_len);
            p
        })
        .collect();
    let p = Partition::new(&g, parts).expect("tooth parts are connected");
    (g, p)
}

/// E11 — SSSP rounds vs the Bellman–Ford baseline across families
/// (the paper's third payoff problem). Heavy-hub wheels (planar) and fans
/// (treewidth 2) are where shortest paths take `Θ(n)` hops at hop diameter
/// 2 and the shortcut tier wins outright; maze grids, apex grids, and combs
/// are the controls where Bellman–Ford is already hop-optimal.
pub fn e11_sssp_rounds(full: bool) -> Table {
    let eps = 0.5;
    let mut rows = Vec::new();
    // Planar heavy-hub wheels.
    let wheels: &[(usize, usize)] = if full {
        &[(192, 16), (256, 16), (384, 32)]
    } else {
        &[(192, 16), (256, 16)]
    };
    for &(n, seg) in wheels {
        let (wg, parts) = workloads::heavy_hub_wheel(n, seg, 64, 8192);
        let budget = parts.len() + 2;
        rows.push(e11_row(
            &format!("wheel({n},{seg})"),
            &wg,
            &parts,
            SteinerBuilder,
            0,
            eps,
            budget,
        ));
    }
    // Bounded-treewidth heavy-hub fans (treewidth 2).
    let fans: &[(usize, usize)] = if full {
        &[(192, 16), (256, 16), (320, 20)]
    } else {
        &[(192, 16)]
    };
    for &(n, seg) in fans {
        let (wg, parts) = workloads::heavy_hub_fan(n, seg, 64, 8192);
        let budget = parts.len() + 2;
        rows.push(e11_row(
            &format!("fan({n},{seg})"),
            &wg,
            &parts,
            SteinerBuilder,
            1,
            eps,
            budget,
        ));
    }
    // Controls: maze grid, maze apex grid, comb — Bellman–Ford rounds are
    // already near the hop diameter there.
    let mut rng = StdRng::seed_from_u64(11);
    let (wg, parts) = workloads::maze_grid(12, 12, 6, &mut rng);
    let budget = parts.len() + 2;
    rows.push(e11_row(
        "maze-grid(12x12)",
        &wg,
        &parts,
        AutoCappedBuilder,
        0,
        eps,
        budget,
    ));
    if full {
        let (wg, parts) = workloads::maze_apex_grid(16, 4, 8, &mut rng);
        let budget = parts.len() + 2;
        rows.push(e11_row(
            "maze-apex(16x16)",
            &wg,
            &parts,
            AutoCappedBuilder,
            0,
            eps,
            budget,
        ));
    }
    let (comb, parts) = comb_parts(12, 6);
    let wg = WeightModel::Uniform { lo: 64, hi: 512 }.apply(&comb, &mut rng);
    let budget = parts.len() + 2;
    rows.push(e11_row(
        "comb(12,6)",
        &wg,
        &parts,
        SteinerBuilder,
        0,
        eps,
        budget,
    ));
    Table {
        id: "E11",
        title: "SSSP rounds vs Bellman-Ford baseline (ε=0.5; wheels/fans: SP hops ≫ D)".into(),
        headers: [
            "family",
            "n",
            "D",
            "bf rounds",
            "scaled rounds",
            "scaled str",
            "shortcut rounds",
            "shortcut str",
            "phases",
            "conv",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E12 — approximation quality vs ε: the scaled tier's provable `(1+ε)`
/// bound and the shortcut tier's measured stretch under tight and generous
/// phase budgets.
pub fn e12_sssp_quality(full: bool) -> Table {
    let epsilons: &[f64] = if full {
        &[0.05, 0.1, 0.25, 0.5, 1.0]
    } else {
        &[0.1, 0.5, 1.0]
    };
    let mut rows = Vec::new();
    let cases: Vec<(String, WeightedGraph, Partition, NodeId)> = {
        let mut v = Vec::new();
        let (wg, parts) = workloads::heavy_hub_wheel(256, 16, 64, 8192);
        v.push(("wheel(256,16)".to_string(), wg, parts, 0));
        if full {
            let (wg, parts) = workloads::heavy_hub_fan(256, 16, 64, 8192);
            v.push(("fan(256,16)".to_string(), wg, parts, 1));
        }
        v
    };
    for (name, wg, parts, src) in cases {
        let reference = traversal::dijkstra(&wg, src);
        // One session per graph serves the whole ε × budget sweep. Every
        // query is distinct, so each builds its source-rooted shortcut and
        // ρ flood afresh.
        let n_parts = parts.len();
        let mut session = Solver::builder(&wg)
            .parts(PartsStrategy::Explicit(parts))
            .shortcut_builder(SteinerBuilder)
            .config(config(wg.graph().n()))
            .build()
            .expect("session");
        for &eps in epsilons {
            let scaled = session
                .sssp(src, Tier::Scaled { epsilon: eps })
                .expect("scaled sssp");
            let scale = match scaled.value.detail {
                SsspDetail::Scaled { scale, .. } => scale,
                _ => unreachable!("scaled tier"),
            };
            let scaled_stretch = minex_algo::sssp::max_stretch(&scaled.value.dist, &reference.dist);
            for budget in [n_parts / 2 + 1, n_parts + 2] {
                let out = session
                    .sssp(
                        src,
                        Tier::Shortcut {
                            epsilon: eps,
                            max_phases: budget,
                        },
                    )
                    .expect("shortcut sssp");
                let converged = match out.value.detail {
                    SsspDetail::Shortcut { converged, .. } => converged,
                    _ => unreachable!("shortcut tier"),
                };
                let stretch = minex_algo::sssp::max_stretch(&out.value.dist, &reference.dist);
                rows.push(vec![
                    name.clone(),
                    format!("{eps:.2}"),
                    scale.to_string(),
                    budget.to_string(),
                    scaled.stats.simulated_rounds.to_string(),
                    format!("{scaled_stretch:.4}"),
                    out.stats.simulated_rounds.to_string(),
                    format!("{stretch:.4}"),
                    format!("{:.2}", 1.0 + eps),
                    if converged { "yes" } else { "no" }.to_string(),
                ]);
            }
        }
    }
    Table {
        id: "E12",
        title: "SSSP approximation quality vs ε (scaled tier provable, shortcut tier measured)"
            .into(),
        headers: [
            "graph",
            "eps",
            "scale",
            "budget",
            "scaled rounds",
            "scaled str",
            "shortcut rounds",
            "shortcut str",
            "1+eps",
            "conv",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E13 — engine throughput: wall-clock rounds/sec of the CONGEST round
/// loop on the largest benchmarked families (planar triangulated grid,
/// k-tree, maze grid, each running exact SSSP), on a long path (exact
/// SSSP: one active node pair per round for 40,000 rounds), and, with
/// `--full`, on a BFS-tree flood over a 10⁶-node triangulated grid (a
/// thin wavefront per round). Those two show that a round costs the
/// active nodes and messages, not `n`. A last row runs 1,000 one-round
/// relaxations on a 14 × 14 triangulated grid through one
/// [`Simulator`](minex_congest::Simulator): its krounds/s is the rate of
/// whole short runs, which falls if a run's set-up (the round loop's
/// mailboxes, per-node link tables) comes back.
///
/// The timing columns are machine-dependent, so E13 is **excluded from the
/// golden-CSV regression gate** (`expected/` holds E1–E12 and E17); the
/// nightly scale job checks its krounds/s against
/// `expected/perf-floor.json` instead.
pub fn e13_engine_scaling(full: bool) -> Table {
    let mut rng = StdRng::seed_from_u64(13);
    let mut cases: Vec<(String, WeightedGraph)> = Vec::new();
    let side = if full { 96 } else { 64 };
    cases.push((
        format!("tri-grid {side}x{side}"),
        WeightModel::DistinctShuffled.apply(&generators::triangulated_grid(side, side), &mut rng),
    ));
    let kn = if full { 8192 } else { 4096 };
    let (kt, _) = generators::k_tree(kn, 3, &mut rng);
    cases.push((
        format!("k-tree({kn},3)"),
        WeightModel::DistinctShuffled.apply(&kt, &mut rng),
    ));
    let mside = if full { 64 } else { 32 };
    let (mg, _) = workloads::maze_grid(mside, mside, 8, &mut rng);
    cases.push((format!("maze {mside}x{mside}"), mg));
    cases.push((
        "path 40000".into(),
        WeightedGraph::unit(generators::path(40_000)),
    ));
    let mut rows = Vec::new();
    let mut row =
        |family: String, n: usize, workload: &str, stats: minex_congest::RunStats, secs: f64| {
            rows.push(vec![
                family,
                n.to_string(),
                workload.to_string(),
                stats.rounds.to_string(),
                stats.messages.to_string(),
                format!("{:.1}", secs * 1e3),
                format!("{:.1}", stats.rounds as f64 / secs / 1e3),
            ]);
        };
    for (family, wg) in cases {
        let n = wg.graph().n();
        let start = Instant::now();
        let out = minex_algo::sssp::bellman_ford_sssp(&wg, 0, config(n)).expect("bellman-ford");
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        row(family, n, "exact sssp", out.stats, secs);
    }
    // Many short runs through one engine, as the shortcut-SSSP tier makes
    // them: 1,000 one-round relaxations on a small grid where every node
    // holds a finite distance, so each run's set-up weighs as much as its
    // ~1,100 messages. They run as ten batches of 100; interference only
    // adds time, so the row reports ten times the fastest batch.
    let wg = WeightModel::DistinctShuffled.apply(&generators::triangulated_grid(14, 14), &mut rng);
    let n = wg.graph().n();
    let dist = traversal::dijkstra(&wg, 0).dist;
    let value_bits = minex_congest::bits_for(wg.total_weight() as usize + 1);
    let mut sim = minex_congest::Simulator::new();
    let mut stats = minex_congest::RunStats::default();
    let mut fastest = f64::INFINITY;
    for _ in 0..10 {
        let start = Instant::now();
        for _ in 0..100 {
            let (_, run) = minex_congest::primitives::distance_broadcast_round(
                &mut sim,
                &wg,
                &dist,
                value_bits,
                config(n),
            )
            .expect("relax round");
            stats.absorb(run);
        }
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    let secs = (10.0 * fastest).max(1e-9);
    row("tri-grid 14x14".into(), n, "1000 relax rounds", stats, secs);
    if full {
        let g = generators::triangulated_grid(1000, 1000);
        let start = Instant::now();
        let tree = minex_congest::primitives::build_bfs_tree(&g, 0, config(g.n())).expect("bfs");
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        row(
            "tri-grid 1000x1000".into(),
            g.n(),
            "bfs tree",
            tree.stats,
            secs,
        );
    }
    Table {
        id: "E13",
        title: "Engine throughput: rounds/sec of the active-set round loop".into(),
        headers: [
            "family",
            "n",
            "workload",
            "rounds",
            "messages",
            "wall ms",
            "krounds/s",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E14 — plan-once / query-many amortization: wall time of **one**
/// [`Solver`] session serving `N` mixed queries versus `N` independent
/// legacy-style calls. The queries cycle through a 4-query working set —
/// shortcut SSSP, MST, and two distinct part-wise MIN aggregations — the
/// serving pattern the session API exists for: many users asking a bounded
/// set of questions about one network. The legacy side re-plans (tree,
/// shortcut, ρ flood) *and* re-simulates every call; the session side
/// builds one plan and serves repeats from its deterministic result memo.
/// Outputs are asserted identical pairwise on every row — reuse must never
/// change results.
///
/// The timing columns are machine-dependent, so E14 (like E13) is
/// **excluded from the golden-CSV regression gate**; its rows also feed the
/// `plan_reuse` section of `BENCH_pr.json`.
// The baseline half of the measurement builds a fresh one-shot session per
// query — the re-planning cost the session API amortizes away (what the
// removed legacy free functions did on every call).
pub fn e14_plan_reuse(full: bool) -> Table {
    let (n, seg) = if full { (192, 16) } else { (96, 8) };
    let (wg, parts) = workloads::heavy_hub_wheel(n, seg, 64, 4096);
    let g = wg.graph();
    let budget = parts.len() + 2;
    let cfg = config(g.n());
    let eps = 0.5;
    let values_for = |i: usize| -> Vec<u64> {
        (0..g.n() as u64)
            .map(|v| (v * 31 + i as u64 * 17) % 4096)
            .collect()
    };
    let mut rows = Vec::new();
    for &queries in &[1usize, 8, 64] {
        // Baseline: every query builds a fresh session — the plan (tree,
        // shortcut, ρ flood for SSSP) is recomputed call after call, and
        // every repeat re-simulates.
        let fresh_session = || {
            Solver::builder(&wg)
                .parts(PartsStrategy::Explicit(parts.clone()))
                .shortcut_builder(SteinerBuilder)
                .config(cfg)
                .build()
                .expect("session")
        };
        let mut legacy_out: Vec<Vec<u64>> = Vec::new();
        let start = Instant::now();
        for i in 0..queries {
            match i % 4 {
                0 => {
                    let out = fresh_session()
                        .sssp(
                            0,
                            Tier::Shortcut {
                                epsilon: eps,
                                max_phases: budget,
                            },
                        )
                        .expect("fresh sssp");
                    legacy_out.push(out.value.dist);
                }
                1 => {
                    let out = fresh_session().mst().expect("fresh mst");
                    legacy_out.push(out.value.edges.iter().map(|&e| e as u64).collect());
                }
                k => {
                    let agg = fresh_session()
                        .partwise_min(&values_for(k), 32)
                        .expect("fresh partwise");
                    legacy_out.push(agg.value.minima);
                }
            }
        }
        let legacy_secs = start.elapsed().as_secs_f64();
        // Session: one plan, N queries, repeats served from the memo.
        let mut solver_out: Vec<Vec<u64>> = Vec::new();
        let start = Instant::now();
        let mut session = Solver::builder(&wg)
            .parts(PartsStrategy::Explicit(parts.clone()))
            .shortcut_builder(SteinerBuilder)
            .config(cfg)
            .build()
            .expect("session");
        for i in 0..queries {
            match i % 4 {
                0 => {
                    let out = session
                        .sssp(
                            0,
                            Tier::Shortcut {
                                epsilon: eps,
                                max_phases: budget,
                            },
                        )
                        .expect("session sssp");
                    solver_out.push(out.value.dist);
                }
                1 => {
                    let out = session.mst().expect("session mst");
                    solver_out.push(out.value.edges.iter().map(|&e| e as u64).collect());
                }
                k => {
                    let agg = session
                        .partwise_min(&values_for(k), 32)
                        .expect("session partwise");
                    solver_out.push(agg.value.minima);
                }
            }
        }
        let solver_secs = start.elapsed().as_secs_f64().max(1e-9);
        let agree = legacy_out == solver_out;
        assert!(agree, "plan reuse must not change results (N={queries})");
        rows.push(vec![
            format!("wheel({n},{seg})"),
            queries.to_string(),
            format!("{:.1}", legacy_secs * 1e3),
            format!("{:.1}", solver_secs * 1e3),
            format!("{:.2}", legacy_secs / solver_secs),
            if agree { "yes" } else { "no" }.to_string(),
        ]);
    }
    Table {
        id: "E14",
        title: "Plan reuse: 1 session serving N mixed queries vs N independent legacy calls".into(),
        headers: [
            "workload",
            "queries",
            "legacy ms",
            "solver ms",
            "speedup",
            "agree",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// A `rounds`-round broadcast storm: every node broadcasts every round
/// until its budget runs out. Exercises the engine's full per-round
/// node/message machinery with a *predictable* round count, so E15 can
/// measure rounds/sec on million-node graphs without waiting for a
/// diameter-long flood to quiesce.
#[derive(Debug, Clone)]
struct BoundedStorm {
    rounds_left: usize,
}

impl minex_congest::NodeProgram for BoundedStorm {
    type Msg = u32;
    fn on_round(&mut self, ctx: &mut minex_congest::Ctx<'_, Self::Msg>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.broadcast(ctx.node() as u32 & 0xFFFF);
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Peak resident set size in megabytes (`VmHWM`), or `None` off Linux.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Best-effort reset of the `VmHWM` high-water mark (Linux: writing `5` to
/// `/proc/self/clear_refs`), so each E15 row's "peak rss" reflects *that
/// row's* build + measurement instead of the whole sweep's monotone
/// maximum. Failure is fine — the column then degrades to the process-wide
/// high-water mark.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// How many back-to-back sweeps to run inside one timed block so the
/// measurement is not sub-millisecond noise: aim for ~4M adjacency entries
/// per block.
fn sweep_iters(m: usize) -> usize {
    (4_000_000 / (2 * m).max(1)).max(1)
}

/// Times full neighbor-iteration sweeps — every node's neighbor ids
/// accumulated in node-id order, exactly the per-round walk the CONGEST
/// engine's node loop performs — and returns the best seconds per sweep.
/// The accumulator is `u32` so the packed CSR rows can vectorize; the
/// nested-Vec baseline's strided `(usize, usize)` pairs cannot, which *is*
/// the layout advantage being measured. Inputs pass through
/// [`std::hint::black_box`] every repetition so the optimizer can neither
/// hoist the sweep out of the timing loop nor dead-code it.
fn sweep_csr(g: &Graph, reps: usize) -> f64 {
    let iters = sweep_iters(g.m());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            let g = std::hint::black_box(g);
            let mut acc = 0u32;
            for v in g.nodes() {
                for &w in g.neighbor_targets(v) {
                    acc = acc.wrapping_add(w);
                }
            }
            std::hint::black_box(acc);
        }
        let per_sweep = start.elapsed().as_secs_f64().max(1e-9) / iters as f64;
        best = best.min(per_sweep);
    }
    best
}

/// Measured speedup of the CSR neighbor-iteration sweep over the same
/// sweep on a freshly materialized nested-Vec copy of `g` (best-of-`reps`
/// each). This is E15's "iter x" column as a reusable primitive, exported
/// so the tier-2 scale test can assert the ≥2× acceptance bar directly on
/// the million-node instance it has already built.
pub fn neighbor_sweep_speedup(g: &Graph, reps: usize) -> f64 {
    let csr = sweep_csr(g, reps);
    let r = minex_graphs::reference::AdjListGraph::from(g);
    sweep_reference(&r, reps) / csr
}

/// The same node-id-order sweep over the nested-Vec reference.
fn sweep_reference(r: &minex_graphs::reference::AdjListGraph, reps: usize) -> f64 {
    let iters = sweep_iters(r.m());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            let r = std::hint::black_box(r);
            let mut acc = 0u32;
            for v in 0..r.n() {
                for (w, _) in r.neighbors(v) {
                    acc = acc.wrapping_add(w as u32);
                }
            }
            std::hint::black_box(acc);
        }
        let per_sweep = start.elapsed().as_secs_f64().max(1e-9) / iters as f64;
        best = best.min(per_sweep);
    }
    best
}

/// Untimed cross-representation consistency check: the full
/// `(neighbor, edge id)` stream must be identical on both sides.
fn sweep_checksum_csr(g: &Graph) -> u64 {
    let mut acc = 0u64;
    for v in g.nodes() {
        for (&w, &e) in g.neighbor_targets(v).iter().zip(g.neighbor_edge_ids(v)) {
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(w as u64 ^ (e as u64) << 32);
        }
    }
    acc
}

/// Reference-side counterpart of [`sweep_checksum_csr`].
fn sweep_checksum_reference(r: &minex_graphs::reference::AdjListGraph) -> u64 {
    let mut acc = 0u64;
    for v in 0..r.n() {
        for (w, e) in r.neighbors(v) {
            acc = acc
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(w as u64 ^ (e as u64) << 32);
        }
    }
    acc
}

/// E15 — graph-core scale: the CSR representation against the pre-CSR
/// nested-Vec baseline ([`minex_graphs::reference`]) on the two families
/// the scale roadmap names, planar triangulated grids and k-trees, with
/// `n` growing toward `10⁶` (`--full` includes the million-node rows).
///
/// Per row: generator build time (streamed straight into CSR), exact heap
/// bytes per edge of both representations, a full neighbor-iteration sweep
/// on each (the microbench behind the "≥ 2× faster" acceptance bar), the
/// engine's measured rounds/sec driving a bounded broadcast storm over the
/// CSR graph, and the process's peak RSS.
///
/// Wall-clock columns are machine-dependent, so E15 is **excluded from the
/// golden-CSV gate** (like E13/E14); its rows also feed the `scale`
/// section of `BENCH_pr.json`.
pub fn e15_scale(full: bool) -> Table {
    let storm_rounds = 12usize;
    let reps = 3usize;
    let mut rows = Vec::new();
    // The largest quick-mode instances are sized so the nested-Vec
    // baseline (~56 B/edge) spills out of L3 while the CSR graph
    // (~25 B/edge) stays closer to cache — the regime the graph core is
    // built for; `--full` extends both families to a million nodes.
    let sides: &[usize] = if full {
        &[100, 316, 640, 1000]
    } else {
        &[100, 316, 640]
    };
    let kns: &[usize] = if full {
        &[10_000, 100_000, 400_000, 1_000_000]
    } else {
        &[10_000, 100_000, 400_000]
    };
    // Each case is built, measured, and dropped before the next starts —
    // the sweep's real peak memory is one graph plus its transient
    // baseline, matching the streaming-constructor story, and the per-row
    // RSS column (high-water mark reset at row start) describes that row.
    type CaseBuilder = Box<dyn Fn() -> Graph>;
    let mut cases: Vec<(String, CaseBuilder)> = Vec::new();
    for &side in sides {
        cases.push((
            format!("tri-grid {side}x{side}"),
            Box::new(move || generators::triangulated_grid(side, side)),
        ));
    }
    for &kn in kns {
        cases.push((
            format!("k-tree({kn},3)"),
            Box::new(move || {
                let mut rng = StdRng::seed_from_u64(15);
                generators::k_tree(kn, 3, &mut rng).0
            }),
        ));
    }
    for (family, build) in cases {
        reset_peak_rss();
        let start = Instant::now();
        let g = build();
        let build_secs = start.elapsed().as_secs_f64();
        let (n, m) = (g.n(), g.m());
        let csr_bytes = g.heap_bytes() as f64 / m as f64;
        let csr_secs = sweep_csr(&g, reps);
        // Materialize the pre-CSR representation, measure, and drop it
        // before the engine run so the RSS column reflects the CSR graph.
        let (adj_bytes, adj_secs) = {
            let r = minex_graphs::reference::AdjListGraph::from(&g);
            assert_eq!(
                sweep_checksum_csr(&g),
                sweep_checksum_reference(&r),
                "{family}: adjacency streams diverge across representations"
            );
            (r.heap_bytes() as f64 / m as f64, sweep_reference(&r, reps))
        };
        // The baseline is gone; from here the high-water mark tracks the
        // CSR graph plus the engine's own buffers.
        reset_peak_rss();
        let mut programs = vec![
            BoundedStorm {
                rounds_left: storm_rounds,
            };
            n
        ];
        let start = Instant::now();
        let stats = minex_congest::run(&g, &mut programs, config(n)).expect("storm quiesces");
        let engine_secs = start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(stats.rounds, storm_rounds, "{family}: storm rounds");
        rows.push(vec![
            family,
            n.to_string(),
            m.to_string(),
            format!("{:.1}", build_secs * 1e3),
            format!("{csr_bytes:.1}"),
            format!("{adj_bytes:.1}"),
            format!("{:.2}", adj_bytes / csr_bytes),
            format!("{:.2}", csr_secs * 1e3),
            format!("{:.2}", adj_secs * 1e3),
            format!("{:.2}", adj_secs / csr_secs),
            format!("{:.1}", stats.rounds as f64 / engine_secs / 1e3),
            peak_rss_mb().map_or("-".into(), |mb| format!("{mb:.0}")),
        ]);
    }
    Table {
        id: "E15",
        title: "Graph-core scale: CSR vs nested-Vec baseline toward 10^6 nodes".into(),
        headers: [
            "family",
            "n",
            "m",
            "build ms",
            "csr B/e",
            "adj B/e",
            "mem x",
            "sweep csr ms",
            "sweep adj ms",
            "iter x",
            "krounds/s",
            "peak rss MB",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E16 (dynamic graphs): incremental [`Solver::apply`] repair against a
/// from-scratch session rebuild under single-edge churn.
///
/// Each row takes a family instance with an explicit 64-cell Voronoi
/// partition, materializes a Steiner-builder session plan, then repeatedly
/// deletes and re-inserts one non-tree edge (whose removal provably leaves
/// the BFS tree unchanged, so repair recomputes only the parts the edge
/// touches). The **repair** leg drives the mutation through
/// [`Solver::apply`]; the **rebuild** leg pays what a static deployment
/// pays — a fresh session on the mutated weighted graph plus its plan,
/// including the explicit partition's `O(parts · n)` revalidation and a
/// full shortcut build. A cross-leg oracle asserts the repaired plan's
/// quality equals the rebuilt one's on the mutated graph.
pub fn e16_dynamic_repair(full: bool) -> Table {
    let reps = 3usize;
    let parts_k = 64usize;
    let mut rows = Vec::new();
    // Quick mode covers 10^4 and 10^5 nodes per family; `--full` extends
    // both families to a million nodes for the nightly scale job.
    let sides: &[usize] = if full { &[100, 316, 1000] } else { &[100, 316] };
    let kns: &[usize] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[10_000, 100_000]
    };
    type CaseBuilder = Box<dyn Fn() -> (WeightedGraph, Partition)>;
    let mut cases: Vec<(String, CaseBuilder)> = Vec::new();
    for &side in sides {
        cases.push((
            format!("maze {side}x{side}"),
            Box::new(move || {
                let mut rng = StdRng::seed_from_u64(16);
                workloads::maze_grid(side, side, parts_k, &mut rng)
            }),
        ));
    }
    for &kn in kns {
        cases.push((
            format!("k-tree({kn},3)"),
            Box::new(move || {
                let mut rng = StdRng::seed_from_u64(16);
                let g = generators::k_tree(kn, 3, &mut rng).0;
                let parts = workloads::voronoi_parts(&g, parts_k, &mut rng);
                let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
                (wg, parts)
            }),
        ));
    }
    for (family, build) in cases {
        let (wg, parts) = build();
        let (n, m) = (wg.graph().n(), wg.graph().m());
        let strategy = PartsStrategy::Explicit(parts.clone());
        let config = CongestConfig::for_nodes(n);
        let mut session = Solver::builder(&wg)
            .parts(strategy.clone())
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()
            .expect("valid session");
        session.plan().expect("family instances are connected");
        // The churn target: the first non-tree edge. Deleting it cannot
        // change BFS discovery (both endpoints are found through other
        // edges first), so the repaired tree is the old tree and the
        // dirty region is exactly the parts the edge touches.
        let (e, u, v) = {
            let tree = session.plan().expect("plan cached").tree();
            wg.graph()
                .edges()
                .find(|&(e, _, _)| !tree.is_tree_edge(e))
                .expect("every family instance has a cycle")
        };
        let weight = wg.weight(e);
        // The rebuild leg's input, prepared outside the clock: the session
        // graph minus the churned edge (surviving ids keep their order, so
        // the weight vector just drops slot `e`).
        let deleted = {
            let edges: Vec<(NodeId, NodeId)> = wg
                .graph()
                .edges()
                .filter(|&(ee, _, _)| ee != e)
                .map(|(_, a, b)| (a, b))
                .collect();
            let weights: Vec<u64> = (0..m)
                .filter(|&ee| ee != e)
                .map(|ee| wg.weight(ee))
                .collect();
            let g = Graph::from_edges(n, edges).expect("still valid");
            WeightedGraph::new(g, weights)
        };
        // Pre-clone the strategies the rebuild leg consumes, so the clock
        // measures session construction, not `Partition` copying.
        let mut strategies: Vec<PartsStrategy> = (0..2 * reps).map(|_| strategy.clone()).collect();

        let mut repair_secs = 0.0;
        let mut dirty_parts = 0usize;
        for _ in 0..reps {
            let start = Instant::now();
            let del = session
                .apply(&[EdgeMutation::Delete { u, v }])
                .expect("valid delete");
            session.plan().expect("still connected");
            let ins = session
                .apply(&[EdgeMutation::Insert { u, v, weight }])
                .expect("valid insert");
            session.plan().expect("still connected");
            repair_secs += start.elapsed().as_secs_f64() / 2.0;
            assert!(
                del.plan_repaired && ins.plan_repaired,
                "{family}: plan must repair"
            );
            assert!(
                !del.plan.full_rebuild && !ins.plan.full_rebuild,
                "{family}: steiner repair must stay incremental"
            );
            dirty_parts = del.plan.parts_rebuilt.max(ins.plan.parts_rebuilt);
        }

        let mut rebuild_secs = 0.0;
        let mut rebuilt_quality = 0usize;
        for _ in 0..reps {
            let start = Instant::now();
            let mut after_delete = Solver::builder(&deleted)
                .parts(strategies.pop().expect("pre-cloned"))
                .shortcut_builder(SteinerBuilder)
                .config(config)
                .build()
                .expect("valid session");
            after_delete.plan().expect("still connected");
            let mut after_reinsert = Solver::builder(&wg)
                .parts(strategies.pop().expect("pre-cloned"))
                .shortcut_builder(SteinerBuilder)
                .config(config)
                .build()
                .expect("valid session");
            after_reinsert.plan().expect("still connected");
            rebuild_secs += start.elapsed().as_secs_f64() / 2.0;
            rebuilt_quality = after_delete.plan().expect("cached").quality().quality;
        }
        // Cross-leg oracle: repairing onto the deleted graph must land on
        // the same measured quality the from-scratch rebuild reports.
        session
            .apply(&[EdgeMutation::Delete { u, v }])
            .expect("valid delete");
        assert_eq!(
            session.plan().expect("still connected").quality().quality,
            rebuilt_quality,
            "{family}: repaired plan diverges from a fresh rebuild"
        );
        session
            .apply(&[EdgeMutation::Insert { u, v, weight }])
            .expect("valid insert");

        let repair_ms = repair_secs / reps as f64 * 1e3;
        let rebuild_ms = rebuild_secs / reps as f64 * 1e3;
        rows.push(vec![
            family,
            n.to_string(),
            m.to_string(),
            parts.len().to_string(),
            format!("{repair_ms:.2}"),
            format!("{rebuild_ms:.2}"),
            format!("{:.2}", rebuild_ms / repair_ms.max(1e-9)),
            dirty_parts.to_string(),
        ]);
    }
    Table {
        id: "E16",
        title: "Dynamic repair: Solver::apply vs from-scratch rebuild under single-edge churn"
            .into(),
        headers: [
            "family",
            "n",
            "m",
            "parts",
            "repair ms",
            "rebuild ms",
            "speedup",
            "parts rebuilt",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// E17 (telemetry) — *observed* max edge congestion of a shortcut-served
/// aggregation against the plan's analytic quality bound, across the
/// generator families (planar tri-grid, treewidth-3 k-tree, maze grid,
/// heavy-hub wheel).
///
/// Each row opens a traced [`Solver`] session, serves one part-wise MIN
/// (the Theorem 1 primitive every payoff algorithm reduces to), and reads
/// the busiest link off the session's [`minex_congest::CongestionProfile`].
/// The analytic
/// side is `QualityReport::edge_congestion_bound`: an edge carries at most
/// two messages per round (one per direction), so `2 · quality·⌈log₂ n⌉`
/// rounds bound its traffic. Every row must satisfy observed ≤ bound —
/// asserted by `e17_observed_congestion_within_analytic_bound` — and the
/// whole table is deterministic, so it has a golden CSV
/// (`expected/E17.csv`).
pub fn e17_congestion(full: bool) -> Table {
    let mut cases: Vec<(String, WeightedGraph, Partition, &'static str)> = Vec::new();
    let sides: &[usize] = if full { &[12, 16, 24] } else { &[12, 16] };
    for &side in sides {
        let mut rng = StdRng::seed_from_u64(side as u64);
        let g = generators::triangulated_grid(side, side);
        let parts = workloads::voronoi_parts(&g, side, &mut rng);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        cases.push((format!("tri-grid {side}x{side}"), wg, parts, "auto"));
    }
    let kns: &[usize] = if full { &[512, 2048] } else { &[512] };
    for &kn in kns {
        let mut rng = StdRng::seed_from_u64(kn as u64);
        let (g, _) = generators::k_tree(kn, 3, &mut rng);
        let parts = workloads::voronoi_parts(&g, (kn as f64).sqrt() as usize, &mut rng);
        let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
        cases.push((format!("k-tree({kn},3)"), wg, parts, "auto"));
    }
    let mazes: &[(usize, usize)] = if full {
        &[(12, 6), (16, 8)]
    } else {
        &[(12, 6)]
    };
    for &(side, k) in mazes {
        let mut rng = StdRng::seed_from_u64(17);
        let (wg, parts) = workloads::maze_grid(side, side, k, &mut rng);
        cases.push((format!("maze {side}x{side}"), wg, parts, "auto"));
    }
    let hubs: &[(usize, usize)] = if full {
        &[(192, 16), (256, 16)]
    } else {
        &[(192, 16)]
    };
    for &(n, seg) in hubs {
        let (wg, parts) = workloads::heavy_hub_wheel(n, seg, 64, 8192);
        cases.push((format!("wheel({n},{seg})"), wg, parts, "steiner"));
    }
    let mut rows = Vec::new();
    for (family, wg, parts, builder) in cases {
        let (n, m, n_parts) = (wg.graph().n(), wg.graph().m(), parts.len());
        let builder: Box<dyn ShortcutBuilder + Send> = match builder {
            "steiner" => Box::new(SteinerBuilder),
            _ => Box::new(AutoCappedBuilder),
        };
        let mut session = Solver::builder(&wg)
            .parts(PartsStrategy::Explicit(parts))
            .shortcut_builder(builder)
            .config(config(n))
            .trace(true)
            .build()
            .expect("session");
        let q = session.plan().expect("connected").quality().clone();
        let values: Vec<u64> = (0..n as u64).rev().collect();
        let agg = session.partwise_min(&values, 32).expect("aggregation");
        let trace = session.take_trace().expect("tracing is on");
        let observed = trace.profile.max_edge_messages();
        let budget = q.round_budget(n);
        let bound = q.edge_congestion_bound(n);
        rows.push(vec![
            family,
            n.to_string(),
            m.to_string(),
            n_parts.to_string(),
            q.quality.to_string(),
            agg.stats.simulated_rounds.to_string(),
            budget.to_string(),
            observed.to_string(),
            bound.to_string(),
            format!("{:.3}", observed as f64 / bound.max(1) as f64),
        ]);
    }
    Table {
        id: "E17",
        title: "Observed max edge congestion vs the analytic bound (2·quality·⌈log₂ n⌉)".into(),
        headers: [
            "family",
            "n",
            "m",
            "parts",
            "quality",
            "agg rounds",
            "round budget",
            "max edge msgs",
            "bound",
            "obs/bound",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// **E18 — Solver-as-a-service throughput.** Aggregate queries/sec against
/// an in-process `minex-serve` daemon as concurrent clients grow.
///
/// Each client uploads its own distinctly-weighted copy of a triangulated
/// grid, so the fleet fingerprints it into a *separate* session: the
/// per-session query locks never contend and service parallelism is pure
/// cross-session concurrency (bounded by cores — single-core boxes can
/// only pipeline client-side work against server-side work). Every
/// response body is compared byte-for-byte against a single-threaded
/// in-process [`Solver`] running the identical query mix; the `identical`
/// column (asserted here, unconditionally) is the serving determinism
/// contract.
pub fn e18_serve(full: bool) -> Table {
    use minex_algo::solver::Query;
    use minex_algo::wire::ToWire;
    use minex_serve::{start, Client, CreateSession, ServerConfig};
    use std::sync::Arc;

    let (side, queries) = if full { (8usize, 48usize) } else { (5, 16) };
    let client_counts: &[usize] = if full { &[1, 2, 4, 8] } else { &[1, 2, 8] };
    let grid_for = |seed: u64| -> Arc<WeightedGraph> {
        let g = generators::triangulated_grid(side, side);
        let weights: Vec<u64> = (0..g.m() as u64)
            .map(|e| 1 + (e.wrapping_mul(2654435761) ^ seed) % 4096)
            .collect();
        Arc::new(WeightedGraph::new(g, weights))
    };
    let mix_query = |kind: usize, n: usize| -> Query {
        match kind {
            0 => Query::Mst,
            1 => Query::Components,
            _ => Query::PartwiseMin {
                values: (0..n as u64).collect(),
                value_bits: 32,
            },
        }
    };
    // The reference: the same mix on a single-threaded owned solver,
    // reports rendered to their exact wire bodies.
    let reference = |wg: &Arc<WeightedGraph>| -> Vec<String> {
        let n = wg.graph().n();
        let mut solver = Solver::from_arc(Arc::clone(wg))
            .parts(PartsStrategy::Singletons)
            .shortcut_builder(AutoCappedBuilder)
            .config(CongestConfig::for_nodes(n))
            .build()
            .expect("reference solver");
        (0..queries)
            .map(|i| {
                let report = solver.run(&mix_query(i % 3, n)).expect("query");
                report.to_wire().to_string()
            })
            .collect()
    };

    let mut rows = Vec::new();
    let mut base_qps = 0.0f64;
    for &clients in client_counts {
        let expected: Vec<Vec<String>> = (0..clients)
            .map(|c| reference(&grid_for(c as u64 + 1)))
            .collect();
        let server = start(ServerConfig::default()).expect("bind");
        let addr = server.addr();
        let started = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let wg = grid_for(c as u64 + 1);
                std::thread::spawn(move || -> Vec<String> {
                    let mut client = Client::connect(addr).expect("connect");
                    let session = client
                        .create_session(&CreateSession::from_weighted(&wg))
                        .expect("create session");
                    let n = wg.graph().n();
                    (0..queries)
                        .map(|i| {
                            client
                                .query(&session, &mix_query(i % 3, n).to_wire())
                                .expect("query")
                                .to_string()
                        })
                        .collect()
                })
            })
            .collect();
        let got: Vec<Vec<String>> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        server.shutdown();
        let identical = got == expected;
        assert!(
            identical,
            "served reports must be byte-identical to the in-process solver ({clients} clients)"
        );
        let qps = (clients * queries) as f64 / elapsed;
        if clients == 1 {
            base_qps = qps;
        }
        rows.push(vec![
            format!("grid({side},{side})"),
            clients.to_string(),
            (clients * queries).to_string(),
            format!("{:.1}", elapsed * 1e3),
            format!("{qps:.1}"),
            format!("{:.2}", qps / base_qps.max(1e-9)),
            if identical { "yes" } else { "no" }.to_string(),
        ]);
    }
    Table {
        id: "E18",
        title: "Solver-as-a-service: aggregate queries/sec vs concurrent clients (one session per client)".into(),
        headers: [
            "workload",
            "clients",
            "queries",
            "elapsed ms",
            "qps",
            "speedup",
            "identical",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    }
}

/// The deterministic traced session behind `experiments --trace` (and the
/// `MINEX_TRACE` env var): a fixed 8×8 tri-grid workload serving an MST
/// (twice — the repeat is a memo hit), a part-wise MIN, and an exact SSSP,
/// exported as JSON Lines via `SessionTrace::to_jsonl`.
///
/// The output is deterministic: the CI telemetry step `cmp`s it with the
/// committed golden `expected/trace.jsonl`.
pub fn trace_session_jsonl() -> String {
    let g = generators::triangulated_grid(8, 8);
    let mut rng = StdRng::seed_from_u64(17);
    let wg = WeightModel::DistinctShuffled.apply(&g, &mut rng);
    let parts = workloads::voronoi_parts(&g, 4, &mut rng);
    let mut session = Solver::builder(&wg)
        .parts(PartsStrategy::Explicit(parts))
        .shortcut_builder(SteinerBuilder)
        .config(config(g.n()))
        .trace(true)
        .build()
        .expect("session");
    session.mst().expect("mst");
    session.mst().expect("memo-served mst");
    let values: Vec<u64> = (0..g.n() as u64).collect();
    session.partwise_min(&values, 32).expect("aggregation");
    session.sssp(0, Tier::Exact).expect("exact sssp");
    session.take_trace().expect("tracing is on").to_jsonl()
}

/// Best-of-`reps` wall milliseconds of the dispatching entry point
/// ([`minex_congest::run`], which checks the telemetry slot once and
/// monomorphizes to the `NoopSink` loop) versus calling
/// [`minex_congest::run_with_sink`] with `NoopSink` directly, driving the
/// E15-style bounded broadcast storm on a 48×48 tri-grid.
///
/// Returns `(run_ms, direct_ms)`. The `<2%` overhead *assertion* lives in
/// `minex-congest`'s `sink_overhead` test (with the usual timing-assert
/// escape hatches); this sampler only records the figures, for the
/// `telemetry` section of `BENCH_pr.json`.
pub fn sink_overhead_ms(reps: usize) -> (f64, f64) {
    let g = generators::triangulated_grid(48, 48);
    let cfg = config(g.n());
    let best = |f: &mut dyn FnMut(&mut Vec<BoundedStorm>) -> minex_congest::RunStats| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut programs = vec![BoundedStorm { rounds_left: 24 }; g.n()];
            let start = Instant::now();
            let stats = f(&mut programs);
            best = best.min(start.elapsed().as_secs_f64().max(1e-9));
            assert_eq!(stats.rounds, 24, "storm must quiesce on schedule");
        }
        best * 1e3
    };
    let run_ms = best(&mut |p| minex_congest::run(&g, p, cfg).expect("storm"));
    let direct_ms = best(&mut |p| {
        minex_congest::run_with_sink(&g, p, cfg, &mut minex_congest::NoopSink).expect("storm")
    });
    (run_ms, direct_ms)
}

/// An experiment runner: `full` selects the larger parameter sweep.
pub type ExperimentFn = fn(bool) -> Table;

/// The experiment registry: `(id, runner)` pairs, lazily invocable.
pub fn experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("E1", e1_planar_quality as ExperimentFn),
        ("E2", e2_treewidth),
        ("E3", e3_clique_sum),
        ("E4", e4_genus_vortex),
        ("E5", e5_apex),
        ("E6", e6_mst_rounds),
        ("E7", e7_lower_bound),
        ("E8", e8_aggregation),
        ("E9", e9_mincut),
        ("E10", e10_folding_ablation),
        ("E11", e11_sssp_rounds),
        ("E12", e12_sssp_quality),
        ("E13", e13_engine_scaling),
        ("E14", e14_plan_reuse),
        ("E15", e15_scale),
        ("E16", e16_dynamic_repair),
        ("E17", e17_congestion),
        ("E18", e18_serve),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t = Table {
            id: "E0",
            title: "demo".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        let s = t.render();
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
    }

    #[test]
    fn quick_experiments_smoke() {
        assert!(!e1_planar_quality(false).rows.is_empty());
        assert!(!e10_folding_ablation(false).rows.is_empty());
    }

    #[test]
    fn csv_rendering_escapes() {
        let t = Table {
            id: "E0",
            title: "demo".into(),
            headers: vec!["a".into(), "b,c".into()],
            rows: vec![vec!["plain".into(), "says \"hi\", twice".into()]],
        };
        let csv = t.to_csv();
        assert_eq!(csv, "a,\"b,c\"\nplain,\"says \"\"hi\"\", twice\"\n");
    }

    #[test]
    fn e14_plan_reuse_beats_legacy_for_batched_queries() {
        // The acceptance bar: plan-once/query-many must beat N independent
        // legacy calls on wall time for N ≥ 8. The solver side does a
        // strict subset of the legacy side's work (same simulations, no
        // rebuilt trees/shortcuts/ρ floods), so losing requires scheduler
        // noise to pinch the solver's timing window specifically — rare but
        // possible on a loaded box, hence one retry before declaring a
        // regression real. Output agreement is asserted unconditionally.
        // `MINEX_SKIP_TIMING_ASSERTS=1` keeps only the output-agreement
        // checks, for pathologically loaded or heavily virtualized boxes.
        let timing_asserts = std::env::var_os("MINEX_SKIP_TIMING_ASSERTS").is_none();
        let attempt = || {
            let t = e14_plan_reuse(false);
            assert_eq!(t.rows.len(), 3);
            t.rows.iter().all(|row| {
                let queries: usize = row[1].parse().unwrap();
                let speedup: f64 = row[4].parse().unwrap();
                assert_eq!(row[5], "yes", "outputs must agree (N={queries})");
                !timing_asserts || queries < 8 || speedup > 1.0
            })
        };
        assert!(
            attempt() || attempt() || attempt(),
            "plan reuse slower than N>=8 independent legacy calls in three consecutive runs"
        );
    }

    #[test]
    fn e18_serving_is_deterministic_and_scales_across_sessions() {
        // Byte-identical served reports are asserted inside `e18_serve`
        // unconditionally — that is the serving determinism contract. The
        // throughput bar (≥2× aggregate qps at 8 clients vs 1) measures
        // cross-session parallelism, which needs real cores and an
        // optimized build: a single-core box can only overlap client-side
        // parse/build work with server-side service, so like E14/E15 the
        // wall-clock assertion gets the `MINEX_SKIP_TIMING_ASSERTS`
        // escape hatch, a debug-build skip, a core-count gate, and
        // retries against scheduler noise.
        let timing_asserts = std::env::var_os("MINEX_SKIP_TIMING_ASSERTS").is_none()
            && !cfg!(debug_assertions)
            && std::thread::available_parallelism().is_ok_and(|p| p.get() >= 4);
        let attempt = || {
            let t = e18_serve(false);
            for row in &t.rows {
                assert_eq!(
                    row[6], "yes",
                    "served reports diverged ({} clients)",
                    row[1]
                );
            }
            let row8 = t.rows.iter().find(|r| r[1] == "8").expect("8-client row");
            let speedup: f64 = row8[5].parse().unwrap();
            !timing_asserts || speedup >= 2.0
        };
        assert!(
            attempt() || attempt() || attempt(),
            "8 concurrent clients never reached 2x the 1-client qps in three runs"
        );
    }

    #[test]
    fn e15_csr_beats_nested_vec_baseline() {
        // The graph-core acceptance bars. Memory is deterministic
        // arithmetic over exact heap sizes, so it is always asserted: CSR
        // must cost ≤ 26 bytes/edge (≈24 + the offsets term) and at least
        // halve the nested-Vec baseline. The iteration speedup is
        // wall-clock and can be pinched by a loaded box, so like E14 it
        // gets retries and the `MINEX_SKIP_TIMING_ASSERTS` escape hatch —
        // and it is only meaningful on optimized builds (the CSR advantage
        // is partly auto-vectorization, which debug builds do not
        // perform). When timing is out of scope there is no reason to pay
        // for the full sweep either: the memory bars hold identically on
        // tiny instances, so that path stays in the per-push CI budget.
        let timing_asserts =
            std::env::var_os("MINEX_SKIP_TIMING_ASSERTS").is_none() && !cfg!(debug_assertions);
        if !timing_asserts {
            let mut rng = StdRng::seed_from_u64(15);
            for g in [
                generators::triangulated_grid(32, 32),
                generators::k_tree(2048, 3, &mut rng).0,
            ] {
                let csr_bytes = g.heap_bytes() as f64 / g.m() as f64;
                let r = minex_graphs::reference::AdjListGraph::from(&g);
                let mem_ratio = r.heap_bytes() as f64 / g.heap_bytes() as f64;
                assert!(csr_bytes <= 26.0, "{csr_bytes} B/edge");
                assert!(mem_ratio >= 2.0, "mem ratio {mem_ratio}");
            }
            return;
        }
        let attempt = || {
            let t = e15_scale(false);
            assert_eq!(t.rows.len(), 6);
            for row in &t.rows {
                let csr_bytes: f64 = row[4].parse().unwrap();
                let mem_ratio: f64 = row[6].parse().unwrap();
                assert!(csr_bytes <= 26.0, "{}: {csr_bytes} B/edge", row[0]);
                assert!(mem_ratio >= 2.0, "{}: mem ratio {mem_ratio}", row[0]);
            }
            // Iteration floors for the quick-mode rows. The authoritative
            // ≥2× acceptance bar is asserted on the *million-node*
            // instance (where the baseline is fully out of cache: ~3.6×
            // mesh, ~2.2× k-tree) by the tier-2 scale test via
            // [`neighbor_sweep_speedup`]; the largest quick rows sit right
            // at the cache boundary and get conservative floors instead,
            // small cache-resident rows only parity.
            t.rows.iter().all(|row| {
                let n: usize = row[1].parse().unwrap();
                let mesh = row[0].starts_with("tri-grid");
                let iter_speedup: f64 = row[9].parse().unwrap();
                let bar = match (mesh, n) {
                    (true, 400_000..) => 1.5,
                    (false, 400_000..) => 1.3,
                    _ => 1.0,
                };
                iter_speedup >= bar
            })
        };
        assert!(
            attempt() || attempt() || attempt(),
            "CSR neighbor sweep under 2x the nested-Vec baseline in three consecutive runs"
        );
    }

    #[test]
    fn e16_repair_beats_rebuild() {
        // The dynamic-graph acceptance bar: incremental repair must beat a
        // from-scratch session rebuild under single-edge churn *where the
        // rebuild is actually expensive* — the maze family, whose Voronoi
        // cells carry deep Steiner trees and whose explicit partition costs
        // `O(parts·n)` to revalidate from scratch. On low-diameter k-trees
        // a full build is already near-linear, so both legs degenerate to
        // the same `O(n + m)` traversal passes and the honest expectation
        // is parity, not a win — those rows get a catastrophe floor, not a
        // speedup bar. Like E14 and E15, the timing legs get retries, the
        // `MINEX_SKIP_TIMING_ASSERTS` escape hatch, and a debug-build
        // bypass (the rebuild leg's advantage is partly allocator and
        // memset throughput, which debug builds distort). The correctness
        // oracle — repaired quality equals rebuilt quality — is asserted
        // inside `e16_dynamic_repair` itself on every run; the skip path
        // still exercises it on a small instance.
        let timing_asserts =
            std::env::var_os("MINEX_SKIP_TIMING_ASSERTS").is_none() && !cfg!(debug_assertions);
        if !timing_asserts {
            // Small correctness-only pass: a 20x20 maze through the same
            // repair/rebuild/oracle loop, ignoring the clock.
            let mut rng = StdRng::seed_from_u64(16);
            let (wg, parts) = workloads::maze_grid(20, 20, 8, &mut rng);
            let mut session = Solver::builder(&wg)
                .parts(PartsStrategy::Explicit(parts))
                .shortcut_builder(SteinerBuilder)
                .build()
                .unwrap();
            let q0 = session.plan().unwrap().quality().quality;
            let (_, u, v) = {
                let tree = session.plan().unwrap().tree();
                wg.graph()
                    .edges()
                    .find(|&(e, _, _)| !tree.is_tree_edge(e))
                    .unwrap()
            };
            let del = session.apply(&[EdgeMutation::Delete { u, v }]).unwrap();
            assert!(del.plan_repaired && !del.plan.full_rebuild);
            let ins = session
                .apply(&[EdgeMutation::Insert { u, v, weight: 64 }])
                .unwrap();
            assert!(ins.plan_repaired);
            assert_eq!(session.plan().unwrap().quality().quality, q0);
            return;
        }
        let attempt = || {
            let t = e16_dynamic_repair(false);
            assert_eq!(t.rows.len(), 4);
            t.rows.iter().all(|row| {
                let speedup: f64 = row[6].parse().unwrap();
                let parts_total: usize = row[3].parse().unwrap();
                let dirty: usize = row[7].parse().unwrap();
                assert!(
                    dirty < parts_total,
                    "{}: dirty region must be local",
                    row[0]
                );
                if row[0] == "maze 316x316" {
                    // The headline claim at 1e5 nodes: a clear win.
                    speedup > 1.0
                } else {
                    // Small instances and k-trees: parity is expected;
                    // only a catastrophic repair regression fails.
                    speedup > 0.4
                }
            })
        };
        assert!(
            attempt() || attempt() || attempt(),
            "incremental repair slower than a full rebuild in three consecutive runs"
        );
    }

    #[test]
    #[ignore = "tier-2 scale gate: run with --release on the nightly scale job"]
    fn e16_repair_at_most_half_rebuild_cost_at_1e5() {
        // The PR-6 acceptance bar, pinned on the 10^5-node maze row:
        // single-edge repair must cost at most 0.5x a from-scratch rebuild
        // (i.e. be >= 2x cheaper). Asserted with retries; the nightly scale
        // job treats a third consecutive miss as a regression.
        let attempt = || {
            let t = e16_dynamic_repair(false);
            let row = t
                .rows
                .iter()
                .find(|row| row[0] == "maze 316x316")
                .expect("the 1e5-node maze row exists");
            let repair: f64 = row[4].parse().unwrap();
            let rebuild: f64 = row[5].parse().unwrap();
            repair <= 0.5 * rebuild
        };
        assert!(
            attempt() || attempt() || attempt(),
            "repair cost above half the rebuild cost at 1e5 nodes in three consecutive runs"
        );
    }

    #[test]
    fn e17_observed_congestion_within_analytic_bound() {
        // The acceptance bar: the busiest link a traced session actually
        // observed never exceeds the plan's analytic congestion bound, on
        // every row of every registered family. Also pins the chain the
        // bound is derived through: observed ≤ 2·rounds (one message per
        // direction per round) and rounds ≤ the round budget.
        let t = e17_congestion(false);
        assert_eq!(t.rows.len(), 5, "quick mode covers all four families");
        for row in &t.rows {
            let rounds: usize = row[5].parse().unwrap();
            let budget: usize = row[6].parse().unwrap();
            let observed: usize = row[7].parse().unwrap();
            let bound: usize = row[8].parse().unwrap();
            assert!(observed >= 1, "{}: the aggregation sent traffic", row[0]);
            assert!(observed <= 2 * rounds, "{}: per-round edge cap", row[0]);
            assert!(
                rounds <= budget,
                "{}: {rounds} rounds > budget {budget}",
                row[0]
            );
            assert!(
                observed <= bound,
                "{}: observed {observed} > bound {bound}",
                row[0]
            );
        }
    }

    #[test]
    fn e17_and_trace_export_are_engine_independent() {
        // The determinism contract at the bench surface: the E17 table and
        // the `--trace` JSONL export are byte-identical from run to run.
        let e17 = e17_congestion(false).to_csv();
        assert_eq!(
            e17,
            e17_congestion(false).to_csv(),
            "E17 differs between runs"
        );
        let seq = trace_session_jsonl();
        assert_eq!(
            seq,
            trace_session_jsonl(),
            "trace export differs between runs"
        );
        assert!(seq.lines().all(|l| l.starts_with("{\"type\":\"")));
        assert!(seq.starts_with("{\"type\":\"counters\""));
        assert!(seq
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"type\":\"summary\""));
        // The fixed workload exercises the memo path: 4 queries, 1 hit.
        assert!(seq.contains("\"queries\":4,\"memo_hits\":1,\"memo_misses\":3"));
    }

    #[test]
    fn e11_shortcut_tier_beats_baseline_on_hub_families() {
        let t = e11_sssp_rounds(false);
        assert_eq!(t.headers.len(), 10);
        for row in &t.rows {
            let family = &row[0];
            let bf: usize = row[3].parse().unwrap();
            let shortcut: usize = row[6].parse().unwrap();
            let stretch: f64 = row[7].parse().unwrap();
            assert!(stretch >= 1.0);
            if family.starts_with("wheel") || family.starts_with("fan") {
                assert!(shortcut < bf, "{family}: shortcut {shortcut} vs bf {bf}");
                assert!(stretch <= 1.5, "{family}: stretch {stretch}");
            }
        }
    }
}
