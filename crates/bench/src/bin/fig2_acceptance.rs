//! Reproduces Figure 2: the improvement in acceptance ratio of HYDRA over
//! SingleCore on synthetic task sets, swept over total utilisation for 2, 4
//! and 8 cores. `--help` lists the options.

use hydra_bench::fig2::{acceptance_table, run, Fig2Config};
use hydra_bench::{args_or_exit, or_exit};
use rt_dse::cli::Args;

const USAGE: &str = "\
fig2_acceptance — Figure 2: acceptance ratio, HYDRA vs SingleCore

OPTIONS:
    --quick               2 cores, 8 of the 39 utilization points, 20 trials
    --trials N            task sets per utilization point    [default: 250]
    --cores A,B,...       core counts                        [default: 2,4,8]
    --seed S              base seed                          [default: 2018]
    --out DIR             directory for the CSV              [default: results]
    --help                print this message
";

fn main() {
    let args = args_or_exit(USAGE);
    let config = or_exit(config(&args));
    let table = acceptance_table(&run(&config));
    print!("{}", table.to_console());
    let dir = args.value_of("--out").unwrap_or("results");
    let path = table.write_csv_or_exit(dir, "fig2_acceptance");
    println!("\nwrote {}", path.display());
}

/// The experiment `args` ask for, refused as `dse sweep` refuses its spec.
fn config(args: &Args) -> Result<Fig2Config, String> {
    let mut config = if args.flag("--quick") {
        Fig2Config::quick()
    } else {
        Fig2Config::default()
    };
    config.trials = args.parsed("--trials")?.unwrap_or(config.trials);
    config.cores = args.parsed_list("--cores")?.unwrap_or(config.cores);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    config.spec().validate()?;
    Ok(config)
}
