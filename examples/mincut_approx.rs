//! Approximate minimum cut via greedy tree packing (the Corollary 1
//! min-cut). The session's exact value is checked against the independent
//! Stoer–Wagner reference.
//!
//! ```sh
//! cargo run --example mincut_approx --release
//! ```

use minex::algo::mincut::stoer_wagner;
use minex::congest::CongestConfig;
use minex::core::construct::SteinerBuilder;
use minex::graphs::{generators, WeightModel};
use minex::Solver;
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(12);
    let cases = vec![
        ("triangulated grid 7x7", generators::triangulated_grid(7, 7)),
        ("torus 5x6", generators::toroidal_grid(5, 6)),
        ("cylinder 4x10", generators::cylinder(4, 10)),
    ];
    for (name, g) in cases {
        let wg = WeightModel::Uniform { lo: 1, hi: 10 }.apply(&g, &mut rng);
        let config = CongestConfig::for_nodes(g.n())
            .with_bandwidth(192)
            .with_max_rounds(1_000_000);
        println!("{name}: n={} m={}", g.n(), g.m());
        // One session per graph: the three packing sizes share the cached
        // Borůvka plan, so only the first query pays for shortcut builds.
        let mut session = Solver::builder(&wg)
            .shortcut_builder(SteinerBuilder)
            .config(config)
            .build()?;
        let reference = stoer_wagner(&wg);
        for trees in [1, 4, 8] {
            let out = session.min_cut(trees)?;
            assert_eq!(out.value.exact_value, reference);
            println!(
                "  {trees} packed trees: approx={} exact={} ratio={:.3} simulated rounds={}",
                out.value.approx_value,
                out.value.exact_value,
                out.value.ratio,
                out.stats.simulated_rounds
            );
        }
    }
    Ok(())
}
