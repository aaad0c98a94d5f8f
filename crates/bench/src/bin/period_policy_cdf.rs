//! Compares the fixed / adapt / joint period policies on paired HYDRA
//! allocations and prints the cumulative-tightness CDF per policy (the
//! period-adaptation comparison of the 2019 follow-up paper).
//!
//! Usage: `cargo run --release -p hydra-bench --bin period_policy_cdf
//! [--quick] [--trials N] [--seed S] [--cores A,B] [--out DIR]`

use hydra_bench::period_policy::{cdf_table, run, PeriodPolicyConfig};
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
        PeriodPolicyConfig::quick()
    } else {
        PeriodPolicyConfig::default()
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

    let cdfs = run(&config);
    let table = cdf_table(&cdfs);
    print!("{}", table.to_console());

    let dir = options.output_dir.unwrap_or_else(|| "results".to_owned());
    let path = table.write_csv_or_exit(&dir, "period_policy_cdf");
    println!("\nwrote {}", path.display());
}
