//! Compares the fixed / adapt / joint period policies on paired HYDRA
//! allocations and prints the cumulative-tightness CDF per policy (the
//! period-adaptation comparison of the 2019 follow-up paper). `--help`
//! lists the options.

use hydra_bench::period_policy::{cdf_table, run, PeriodPolicyConfig};
use hydra_bench::{args_or_exit, or_exit};
use rt_dse::cli::Args;

const USAGE: &str = "\
period_policy_cdf — tightness CDF of the fixed, adapt and joint period policies

OPTIONS:
    --quick               2 cores, 8 of the 39 utilization points, 10 trials
    --trials N            task sets per utilization point    [default: 100]
    --cores A,B,...       core counts                        [default: 2,4]
    --seed S              base seed                          [default: 2019]
    --out DIR             directory for the CSV              [default: results]
    --help                print this message
";

fn main() {
    let args = args_or_exit(USAGE);
    let config = or_exit(config(&args));
    let table = cdf_table(&run(&config));
    print!("{}", table.to_console());
    let dir = args.value_of("--out").unwrap_or("results");
    let path = table.write_csv_or_exit(dir, "period_policy_cdf");
    println!("\nwrote {}", path.display());
}

/// The experiment `args` ask for, refused as `dse sweep` refuses its spec.
fn config(args: &Args) -> Result<PeriodPolicyConfig, String> {
    let mut config = if args.flag("--quick") {
        PeriodPolicyConfig::quick()
    } else {
        PeriodPolicyConfig::default()
    };
    config.trials = args.parsed("--trials")?.unwrap_or(config.trials);
    config.cores = args.parsed_list("--cores")?.unwrap_or(config.cores);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    config.spec().validate()?;
    Ok(config)
}
