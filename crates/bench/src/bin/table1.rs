//! Regenerates **Table I** of the GRINCH paper: required encryptions to
//! attack the first round over cache line size × probing round.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin table1 [cap]
//! ```

use grinch::experiments::line_size::{measure_cell, Table1Config};
use grinch_bench::{format_cell, WallTimer};
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};

fn main() {
    let cap: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let config = Table1Config {
        max_encryptions: cap,
        ..Table1Config::default()
    };

    let telemetry = bench_telemetry_for("table1");
    println!("Table I — Required encryptions to attack the first round");
    println!("(drop-out cap {cap} encryptions)\n");
    print!("{:>16}", "cache line size");
    for round in &config.probing_rounds {
        print!(" {:>12}", format!("round {round}"));
    }
    println!();
    let timer = WallTimer::start("cells");
    let mut cells = 0u64;
    for &words in &config.line_sizes {
        print!(
            "{:>16}",
            format!("{words} word{}", if words == 1 { "" } else { "s" })
        );
        for &round in &config.probing_rounds {
            let cell = measure_cell(&config, words, round, telemetry.clone());
            cells += 1;
            print!(" {:>12}", format_cell(&cell));
        }
        println!();
    }
    let wall = [timer.stop(cells as f64)];
    println!("\nExpected shape (paper): effort grows sharply with line size and");
    println!("probing round; the widest-line / latest-probe corner drops out.");
    emit_telemetry_report(&telemetry, "table1", &wall);
}
