//! End-to-end MPSoC attack demonstration: runs the event-driven platform
//! simulation (7-core mesh NoC, shared L1) to show when the attacker can
//! probe, then mounts the key recovery under the conditions the platform
//! grants — the workflow behind the paper's Table II.
//!
//! ```text
//! cargo run -p grinch --release --example mpsoc_attack
//! ```

use gift_cipher::Key;
use grinch::attack::{recover_full_key, AttackConfig};
use grinch::experiments::practical::probing_round_equivalent;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch_telemetry::Telemetry;
use soc_sim::platform::{PlatformConfig, PlatformKind};
use soc_sim::scenario::{run_mpsoc, run_single_soc};

fn main() {
    let secret = Key::from_u128(0x1357_9bdf_2468_ace0_0f1e_2d3c_4b5a_6978);

    for (kind, label) in [
        (PlatformKind::MpSoc, "MPSoC (7 cores, 3x3 mesh NoC)"),
        (
            PlatformKind::SingleSoc,
            "single-processor SoC (RTOS, 10 ms quantum)",
        ),
    ] {
        println!("== {label} ==");
        for freq in [10_000_000u64, 25_000_000, 50_000_000] {
            let report = match kind {
                PlatformKind::MpSoc => {
                    run_mpsoc(&PlatformConfig::mpsoc(freq), Telemetry::disabled())
                }
                PlatformKind::SingleSoc => {
                    run_single_soc(&PlatformConfig::single_soc(freq), Telemetry::disabled())
                }
            };
            let probed = report.first_probe_round();
            println!(
                "  {:>2} MHz: first probe lands in victim round {:?} ({} probes total)",
                freq / 1_000_000,
                probed,
                report.probes.len()
            );

            // Mount the logical attack at the probing round the platform
            // actually grants. The MPSoC's continuous per-round probing is
            // the ideal with-flush channel; the single SoC sees cumulative
            // accesses without a mid-encryption flush.
            if let Some(round) = probed {
                let k = probing_round_equivalent(round);
                let continuous = kind == PlatformKind::MpSoc;
                let obs = ObservationConfig::ideal()
                    .with_probing_round(k)
                    .with_flush(continuous);
                let mut oracle = VictimOracle::new(secret, obs);
                let mut config = AttackConfig::default();
                config.stage = config.stage.with_max_encryptions(150_000);
                let outcome = recover_full_key(&mut oracle, &config);
                match outcome.key {
                    Some(key) if key == secret => println!(
                        "         key recovered with {} encryptions",
                        outcome.encryptions
                    ),
                    _ => println!(
                        "         key NOT recovered within {} encryptions",
                        outcome.encryptions
                    ),
                }
            }
        }
        println!();
    }
}
