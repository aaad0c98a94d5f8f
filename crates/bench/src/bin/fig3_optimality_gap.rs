//! Reproduces Figure 3: the difference in cumulative tightness between HYDRA
//! and the optimal (exhaustive) allocation on a 2-core platform with up to 6
//! security tasks.
//!
//! Usage: `cargo run --release -p hydra-bench --bin fig3_optimality_gap
//! [--quick] [--trials N] [--seed S] [--out DIR]`

use hydra_bench::fig3::{run, tightness_table, Fig3Config};
use hydra_bench::{CliFlag, CliOptions};

fn main() {
    let options =
        CliOptions::from_env(&[CliFlag::Quick, CliFlag::Trials, CliFlag::Seed, CliFlag::Out]);
    let mut config = if options.quick {
        Fig3Config::quick()
    } else {
        Fig3Config::default()
    };
    if let Some(trials) = options.trials {
        config.trials = trials;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }

    let points = run(&config);
    let table = tightness_table(&points);
    print!("{}", table.to_console());

    let dir = options.output_dir.unwrap_or_else(|| "results".to_owned());
    let path = table.write_csv_or_exit(&dir, "fig3_optimality_gap");
    println!("\nwrote {}", path.display());
}
