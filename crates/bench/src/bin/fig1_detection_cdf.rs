//! Reproduces Figure 1: the empirical CDF of intrusion-detection time for
//! HYDRA vs SingleCore on the UAV case study with 2, 4 and 8 cores.
//!
//! Usage: `cargo run --release -p hydra-bench --bin fig1_detection_cdf
//! [--quick] [--attacks-per-config via --trials N] [--cores 2,4,8]
//! [--seed S] [--out DIR]`

use hydra_bench::fig1::{cdf_table, improvement_table, run, summary_table, Fig1Config};
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
        Fig1Config::quick()
    } else {
        Fig1Config::default()
    };
    if let Some(trials) = options.trials {
        config.attacks = trials;
    }
    if let Some(seed) = options.seed {
        config.seed = seed;
    }
    if let Some(cores) = options.cores {
        config.cores = cores;
    }

    let result = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("case study could not be allocated: {e}");
            std::process::exit(1);
        }
    };

    let summary = summary_table(&result);
    let cdf = cdf_table(&result, &config);
    let improvement = improvement_table(&result);
    print!("{}", summary.to_console());
    println!();
    print!("{}", improvement.to_console());

    let dir = options.output_dir.unwrap_or_else(|| "results".to_owned());
    for (table, name) in [
        (&summary, "fig1_summary"),
        (&cdf, "fig1_cdf"),
        (&improvement, "fig1_improvement"),
    ] {
        let path = table.write_csv_or_exit(&dir, name);
        println!("wrote {}", path.display());
    }
}
