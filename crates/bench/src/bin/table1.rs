//! Prints Table I (the security-task catalogue) and writes it to
//! `results/table1.csv`. `--help` lists the options.

use hydra_bench::args_or_exit;
use hydra_bench::table1::build_table;

const USAGE: &str = "\
table1 — Table I: the security-task catalogue

OPTIONS:
    --out DIR             directory for the CSV              [default: results]
    --help                print this message
";

fn main() {
    let args = args_or_exit(USAGE);
    let table = build_table();
    print!("{}", table.to_console());
    let dir = args.value_of("--out").unwrap_or("results");
    let path = table.write_csv_or_exit(dir, "table1");
    println!("\nwrote {}", path.display());
}
