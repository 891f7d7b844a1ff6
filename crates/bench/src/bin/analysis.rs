//! Compares the closed-form effort model (`grinch::analysis`) against
//! measured first-round recovery costs — the theory behind Fig. 3 / Table
//! I's shapes.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin analysis [max_round]
//! ```

use gift_cipher::Key;
use grinch::analysis::expected_stage_encryptions;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::stage::{run_stage, StageConfig};
use grinch_bench::group_thousands;
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn measure(
    probing_round: usize,
    flush: bool,
    cap: u64,
    telemetry: grinch_telemetry::Telemetry,
) -> Option<u64> {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.analysis.cell",
        probing_round = probing_round,
        flush = flush
    );
    let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let obs = ObservationConfig::ideal()
        .with_probing_round(probing_round)
        .with_flush(flush);
    let mut oracle = VictimOracle::new(key, obs);
    oracle.set_telemetry(telemetry);
    let cfg = StageConfig::new()
        .with_max_encryptions(cap)
        .with_seed(0xa11a ^ probing_round as u64);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let result = run_stage(&mut oracle, &[], 1, &cfg, &mut rng);
    result.is_resolved().then_some(result.encryptions)
}

fn main() {
    let max_round: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(5);

    let telemetry = bench_telemetry_for("analysis");
    println!("Closed-form effort model vs measured stage-1 recovery\n");
    println!(
        "{:>6} {:>7} {:>14} {:>14} {:>8}",
        "round", "flush", "model", "measured", "ratio"
    );
    for flush in [true, false] {
        for k in 1..=max_round {
            let model = expected_stage_encryptions(k, flush, 1);
            let measured = measure(k, flush, 1_000_000, telemetry.clone());
            match measured {
                Some(m) => println!(
                    "{:>6} {:>7} {:>14} {:>14} {:>8.2}",
                    k,
                    if flush { "yes" } else { "no" },
                    group_thousands(model.round() as u64),
                    group_thousands(m),
                    m as f64 / model
                ),
                None => println!(
                    "{:>6} {:>7} {:>14} {:>14} {:>8}",
                    k,
                    if flush { "yes" } else { "no" },
                    group_thousands(model.round() as u64),
                    ">cap",
                    "-"
                ),
            }
        }
    }
    println!("\nThe geometric absence model explains the exponential growth in the");
    println!("probing round; measured/model ratios near 1 validate the simulator.");
    emit_telemetry_report(&telemetry, "analysis", &[]);
}
