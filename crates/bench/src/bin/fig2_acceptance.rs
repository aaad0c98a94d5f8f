//! Reproduces Figure 2: the improvement in acceptance ratio of HYDRA over
//! SingleCore on synthetic task sets, swept over total utilisation for 2, 4
//! and 8 cores.
//!
//! Usage: `cargo run --release -p hydra-bench --bin fig2_acceptance
//! [--quick] [--trials N] [--cores 2,4,8] [--seed S] [--out DIR]`

use hydra_bench::fig2::{acceptance_table, run, Fig2Config};
use hydra_bench::{CliFlag, CliOptions};

fn main() {
    let options = CliOptions::from_env(&[
        CliFlag::Quick,
        CliFlag::Trials,
        CliFlag::Seed,
        CliFlag::Cores,
        CliFlag::Out,
    ]);
    let mut config = if options.quick {
        Fig2Config::quick()
    } else {
        Fig2Config::default()
    };
    if let Some(trials) = options.trials {
        config.trials = trials;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    if let Some(cores) = options.cores {
        config.cores = cores;
    }

    let points = run(&config);
    let table = acceptance_table(&points);
    print!("{}", table.to_console());

    let dir = options.output_dir.unwrap_or_else(|| "results".to_owned());
    let path = table.write_csv_or_exit(&dir, "fig2_acceptance");
    println!("\nwrote {}", path.display());
}
