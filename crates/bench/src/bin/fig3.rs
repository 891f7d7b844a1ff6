//! Regenerates **Fig. 3** of the GRINCH paper: required encryptions to
//! break the first GIFT round versus the cache-probing round, with and
//! without the flush operation.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin fig3 [max_probing_round] [cap]
//! ```

use grinch::experiments::probing_round::{measure_cell, Fig3Config};
use grinch_bench::{format_cell, WallTimer};
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};

fn main() {
    let mut args = std::env::args().skip(1);
    let max_round: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let cap: u64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let config = Fig3Config {
        max_probing_round: max_round,
        max_encryptions: cap,
        ..Fig3Config::default()
    };

    let telemetry = bench_telemetry_for("fig3");
    println!("Fig. 3 — Required encryptions to break 1st GIFT round");
    println!("(32 key bits; drop-out cap {cap} encryptions)\n");
    println!(
        "{:>14} {:>18} {:>18}",
        "probing round", "with flush", "without flush"
    );
    let timer = WallTimer::start("cells");
    for round in 1..=config.max_probing_round {
        let with = measure_cell(&config, round, true, telemetry.clone());
        let without = measure_cell(&config, round, false, telemetry.clone());
        println!(
            "{:>14} {:>18} {:>18}",
            round,
            format_cell(&with),
            format_cell(&without)
        );
    }
    let wall = [timer.stop(2.0 * config.max_probing_round as f64)];
    println!("\nExpected shape (paper): exponential growth with probing round;");
    println!("the flush series sits strictly below the no-flush series.");
    emit_telemetry_report(&telemetry, "fig3", &wall);
}
