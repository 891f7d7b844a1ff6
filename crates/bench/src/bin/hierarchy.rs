//! Memory-hierarchy experiment (the paper's stated future work): GRINCH
//! through a private-L1/shared-L2 stack versus the flat shared L1.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin hierarchy [cap]
//! ```

use gift_cipher::Key;
use grinch::experiments::hierarchy::run;
use grinch_bench::group_thousands;
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};

fn main() {
    let cap: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400_000);
    let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);

    let telemetry = bench_telemetry_for("hierarchy");
    println!("Memory-hierarchy effect on first-round recovery (cap {cap})\n");
    println!(
        "{:>26} {:>10} {:>14}",
        "hierarchy", "recovered", "encryptions"
    );
    for row in run(key, cap, telemetry.clone()) {
        println!(
            "{:>26} {:>10} {:>14}",
            row.setting.to_string(),
            if row.recovered { "YES" } else { "no" },
            group_thousands(row.encryptions)
        );
    }
    println!("\nA coherent flush keeps the channel open at L2-line granularity");
    println!("(wide-line cost); an L2-only flush lets the victim's private L1");
    println!("hide repeats, and the hard-elimination channel collapses.");
    emit_telemetry_report(&telemetry, "hierarchy", &[]);
}
