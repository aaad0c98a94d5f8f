//! Reproduces Figure 1: the empirical CDF of intrusion-detection time for
//! HYDRA vs SingleCore on the UAV case study with 2, 4 and 8 cores.
//! `--help` lists the options.

use hydra_bench::fig1::{cdf_table, improvement_table, run, summary_table, Fig1Config};
use hydra_bench::{args_or_exit, or_exit};
use rt_dse::cli::Args;

const USAGE: &str = "\
fig1_detection_cdf — Figure 1: detection-time CDF, HYDRA vs SingleCore (UAV)

OPTIONS:
    --quick               a 60 s horizon and 60 attacks (full: 500 s, 400)
    --attacks N           attacks per scheme and core count  [default: 400]
    --cores A,B,...       core counts                        [default: 2,4,8]
    --seed S              attack-injection seed              [default: 2018]
    --out DIR             directory for the CSVs             [default: results]
    --help                print this message
";

fn main() {
    let args = args_or_exit(USAGE);
    let config = or_exit(config(&args));
    let result = run(&config).unwrap_or_else(|e| {
        eprintln!("case study could not be allocated: {e}");
        std::process::exit(1)
    });

    let summary = summary_table(&result);
    let cdf = cdf_table(&result, &config);
    let improvement = improvement_table(&result);
    print!("{}", summary.to_console());
    println!();
    print!("{}", improvement.to_console());

    let dir = args.value_of("--out").unwrap_or("results");
    for (table, name) in [
        (&summary, "fig1_summary"),
        (&cdf, "fig1_cdf"),
        (&improvement, "fig1_improvement"),
    ] {
        let path = table.write_csv_or_exit(dir, name);
        println!("wrote {}", path.display());
    }
}

/// The experiment `args` ask for, refused as `dse sweep` refuses its spec.
fn config(args: &Args) -> Result<Fig1Config, String> {
    let mut config = if args.flag("--quick") {
        Fig1Config::quick()
    } else {
        Fig1Config::default()
    };
    config.attacks = args.parsed("--attacks")?.unwrap_or(config.attacks);
    config.cores = args.parsed_list("--cores")?.unwrap_or(config.cores);
    config.seed = args.parsed("--seed")?.unwrap_or(config.seed);
    config.spec().validate()?;
    Ok(config)
}
