//! Noise-sensitivity ablation: attack effort and reliability versus probe
//! noise (false-absence probability), comparing the paper's hard
//! elimination with the noise-robust counting recovery.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin noise [cap]
//! ```

use grinch::experiments::noise::{measure, NoiseConfig, NOISE_LEVELS};
use grinch_bench::group_thousands;
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};

fn main() {
    let cap: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400_000);
    let config = NoiseConfig {
        max_encryptions: cap,
        ..NoiseConfig::default()
    };

    let telemetry = bench_telemetry_for("noise");
    println!("Noise ablation — first-round (32-bit) recovery (cap {cap})\n");
    println!(
        "{:>12} {:>18} {:>18} {:>16}",
        "evict prob", "hard elimination", "robust recovery", "encryptions"
    );
    for p in NOISE_LEVELS {
        let row = measure(&config, p, telemetry.clone());
        println!(
            "{:>12.2} {:>18} {:>18} {:>16}",
            row.evict_probability,
            if row.hard_elimination_correct {
                "correct"
            } else {
                "BROKEN"
            },
            if row.robust_recovered {
                "recovered"
            } else {
                "failed"
            },
            group_thousands(row.robust_encryptions)
        );
    }
    println!("\nHard intersection breaks as soon as true accesses can be evicted;");
    println!("absence counting survives at a growing encryption cost.");
    emit_telemetry_report(&telemetry, "noise", &[]);
}
