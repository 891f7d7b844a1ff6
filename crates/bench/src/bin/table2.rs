//! Regenerates **Table II** of the GRINCH paper: the victim round during
//! which the attacker's first probe lands, per platform and clock
//! frequency, using the event-driven SoC simulator.
//!
//! ```text
//! cargo run -p grinch-bench --release --bin table2
//! ```

use grinch::experiments::practical::{measure_cell, TABLE2_FREQUENCIES};
use grinch_bench::WallTimer;
use grinch_obs::{bench_telemetry_for, emit_telemetry_report};
use soc_sim::platform::PlatformKind;

fn main() {
    let telemetry = bench_telemetry_for("table2");
    let timer = WallTimer::start("cells");
    let mut cells = 0u64;
    println!("Table II — Attack efficiency (first probed round)\n");
    print!("{:>24}", "platform");
    for freq in TABLE2_FREQUENCIES {
        print!(" {:>10}", format!("{} MHz", freq / 1_000_000));
    }
    println!();
    for (platform, label) in [
        (PlatformKind::SingleSoc, "Single-processing SoC"),
        (PlatformKind::MpSoc, "Multi-processing SoC"),
    ] {
        print!("{label:>24}");
        for freq in TABLE2_FREQUENCIES {
            let cell = measure_cell(platform, freq, telemetry.clone());
            cells += 1;
            match cell.probed_round {
                Some(r) => print!(" {r:>10}"),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }
    println!("\nExpected shape (paper): the single SoC's probed round rises with");
    println!("frequency (2 / 4 / 8); the MPSoC probes round 1 at every frequency.");

    // Extension: quantum sensitivity at 25 MHz (the paper holds the RTOS
    // quantum fixed at 10 ms).
    println!("\nScheduler-quantum sweep (single SoC, 25 MHz):");
    print!("{:>24}", "quantum");
    let quanta = [2_000_000u64, 5_000_000, 10_000_000, 20_000_000];
    for q in quanta {
        print!(" {:>10}", format!("{} ms", q / 1_000_000));
    }
    println!();
    print!("{:>24}", "first probed round");
    for cell in grinch::experiments::practical::quantum_sweep(25_000_000, &quanta) {
        match cell.probed_round {
            Some(r) => print!(" {r:>10}"),
            None => print!(" {:>10}", "-"),
        }
    }
    println!();
    let wall = [timer.stop(cells as f64)];
    emit_telemetry_report(&telemetry, "table2", &wall);
}
