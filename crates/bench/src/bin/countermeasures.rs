//! Evaluates the two countermeasures §IV-C of the GRINCH paper proposes:
//! the wide-line (8×8-bit) S-box and the masked key schedule.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin countermeasures [cap_per_stage]
//! ```

use grinch::experiments::countermeasures::{run, AblationConfig};
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};

fn main() {
    let cap: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let config = AblationConfig {
        max_encryptions_per_stage: cap,
        ..AblationConfig::default()
    };

    let telemetry = bench_telemetry_for("countermeasures");
    println!("Countermeasure ablation (cap {cap} encryptions/stage)\n");
    println!(
        "{:>22} {:>14} {:>14}",
        "protection", "key recovered", "encryptions"
    );
    for row in run(&config, telemetry.clone()) {
        println!(
            "{:>22} {:>14} {:>14}",
            row.protection.to_string(),
            if row.key_recovered { "YES" } else { "no" },
            row.encryptions
        );
    }
    println!("\nExpected: only the unprotected implementation leaks the key.");
    emit_telemetry_report(&telemetry, "countermeasures", &[]);
}
