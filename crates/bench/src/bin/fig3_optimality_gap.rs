//! Reproduces Figure 3: the difference in cumulative tightness between HYDRA
//! and the optimal (exhaustive) allocation on a 2-core platform with up to 6
//! security tasks. `--help` lists the options.

use hydra_bench::fig3::{run, tightness_table, Fig3Config};
use hydra_bench::{args_or_exit, or_exit};
use rt_dse::cli::Args;

const USAGE: &str = "\
fig3_optimality_gap — Figure 3: tightness gap of HYDRA to the optimum (M = 2)

OPTIONS:
    --quick               8 of the 39 utilization points, 10 trials
    --trials N            task sets per utilization point    [default: 100]
    --seed S              base seed                          [default: 2018]
    --out DIR             directory for the CSV              [default: results]
    --help                print this message
";

fn main() {
    let args = args_or_exit(USAGE);
    let config = or_exit(config(&args));
    let table = tightness_table(&run(&config));
    print!("{}", table.to_console());
    let dir = args.value_of("--out").unwrap_or("results");
    let path = table.write_csv_or_exit(dir, "fig3_optimality_gap");
    println!("\nwrote {}", path.display());
}

/// The experiment `args` ask for, refused as `dse sweep` refuses its spec.
fn config(args: &Args) -> Result<Fig3Config, String> {
    let mut config = if args.flag("--quick") {
        Fig3Config::quick()
    } else {
        Fig3Config::default()
    };
    config.trials = args.parsed("--trials")?.unwrap_or(config.trials);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    config.spec().validate()?;
    Ok(config)
}
