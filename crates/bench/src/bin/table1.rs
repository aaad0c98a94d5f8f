//! Prints Table I (the security-task catalogue) and writes it to
//! `results/table1.csv`.
//!
//! Usage: `cargo run --release -p hydra-bench --bin table1 [--out DIR]`

use hydra_bench::report::ResultTable;
use hydra_bench::table1::build_table;
use hydra_bench::{CliFlag, CliOptions};

fn main() {
    let options = CliOptions::from_env(&[CliFlag::Out]);
    let table: ResultTable = build_table();
    print!("{}", table.to_console());
    let dir = options.output_dir.unwrap_or_else(|| "results".to_owned());
    let path = table.write_csv_or_exit(&dir, "table1");
    println!("\nwrote {}", path.display());
}
