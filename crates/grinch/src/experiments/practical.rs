//! Table II — practical attack analysis: which victim round the attacker
//! first probes on each platform at each clock frequency.
//!
//! This experiment runs the event-driven SoC simulator (`soc-sim`) rather
//! than the idealised observation harness: the single-processor SoC gives
//! the attacker the CPU only at RTOS quantum boundaries, while the MPSoC
//! attacker probes continuously from its own tile over the NoC.

use soc_sim::platform::{PlatformConfig, PlatformKind};
use soc_sim::scenario::{run_mpsoc, run_single_soc};

/// One Table II cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table2Cell {
    /// Platform simulated.
    pub platform: PlatformKind,
    /// Core clock frequency in hertz.
    pub freq_hz: u64,
    /// Victim round (1-based) during which the attacker's first probe
    /// completed, or `None` if no probe landed inside an encryption.
    pub probed_round: Option<usize>,
}

/// The frequencies Table II sweeps.
pub const TABLE2_FREQUENCIES: [u64; 3] = [10_000_000, 25_000_000, 50_000_000];

/// Measures one Table II cell by running the platform co-simulation. The
/// SoC's cache, scheduler and probe metrics land in `telemetry` under an
/// `experiment.table2.cell` span.
pub fn measure_cell(
    platform: PlatformKind,
    freq_hz: u64,
    telemetry: grinch_telemetry::Telemetry,
) -> Table2Cell {
    let _span = grinch_telemetry::span!(telemetry, "experiment.table2.cell", freq_hz = freq_hz);
    let report = match platform {
        PlatformKind::SingleSoc => {
            run_single_soc(&PlatformConfig::single_soc(freq_hz), telemetry.clone())
        }
        PlatformKind::MpSoc => run_mpsoc(&PlatformConfig::mpsoc(freq_hz), telemetry.clone()),
    };
    Table2Cell {
        platform,
        freq_hz,
        probed_round: report.first_probe_round(),
    }
}

/// Runs the full Table II sweep (both platforms × three frequencies), every
/// cell's span nested under an `experiment.table2` root span.
pub fn run(telemetry: grinch_telemetry::Telemetry) -> Vec<Table2Cell> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.table2");
    let mut cells = Vec::new();
    for platform in [PlatformKind::SingleSoc, PlatformKind::MpSoc] {
        for freq in TABLE2_FREQUENCIES {
            cells.push(measure_cell(platform, freq, telemetry.clone()));
        }
    }
    cells
}

/// Maps a probed victim round to the equivalent Fig. 3 "cache probing
/// round" parameter: a probe during victim round `r` has seen the accesses
/// of rounds `1..=r`, i.e. probing round `r - 1` (and round 1 itself means
/// the attacker samples every round — the ideal probing round 1 with
/// per-round resolution).
pub fn probing_round_equivalent(probed_round: usize) -> usize {
    probed_round.saturating_sub(1).max(1)
}

/// One cell of the quantum-sweep extension: the first probed round as a
/// function of the RTOS scheduler quantum (single-processor SoC).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantumCell {
    /// Scheduler quantum in nanoseconds.
    pub quantum_ns: u64,
    /// Victim round the first probe landed in.
    pub probed_round: Option<usize>,
}

/// Sweeps the scheduler quantum on the single-processor SoC at a fixed
/// clock. The RTOS quantum is the attacker's only lever on this platform:
/// shorter quanta preempt the victim earlier and land the probe in an
/// earlier round (an OS-configuration sensitivity the paper's Table II
/// holds fixed at 10 ms).
pub fn quantum_sweep(freq_hz: u64, quanta_ns: &[u64]) -> Vec<QuantumCell> {
    quanta_ns
        .iter()
        .map(|&q| {
            let cfg = PlatformConfig::single_soc(freq_hz).with_quantum_ns(q);
            let report = run_single_soc(&cfg, grinch_telemetry::Telemetry::disabled());
            QuantumCell {
                quantum_ns: q,
                probed_round: report.first_probe_round(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    #[test]
    fn single_soc_row_matches_paper() {
        let expected = [2usize, 4, 8];
        for (freq, want) in TABLE2_FREQUENCIES.iter().zip(expected) {
            let cell = measure_cell(PlatformKind::SingleSoc, *freq, Telemetry::disabled());
            assert_eq!(cell.probed_round, Some(want), "{freq} Hz");
        }
    }

    #[test]
    fn mpsoc_row_matches_paper() {
        for freq in TABLE2_FREQUENCIES {
            let cell = measure_cell(PlatformKind::MpSoc, freq, Telemetry::disabled());
            assert_eq!(cell.probed_round, Some(1), "{freq} Hz");
        }
    }

    #[test]
    fn probing_round_mapping_is_sane() {
        assert_eq!(probing_round_equivalent(1), 1);
        assert_eq!(probing_round_equivalent(2), 1);
        assert_eq!(probing_round_equivalent(8), 7);
    }

    #[test]
    fn full_sweep_has_six_cells() {
        let cells = run(Telemetry::disabled());
        assert_eq!(cells.len(), 6);
    }

    #[test]
    fn shorter_quanta_probe_earlier_rounds() {
        let cells = quantum_sweep(25_000_000, &[2_000_000, 5_000_000, 10_000_000, 20_000_000]);
        let rounds: Vec<usize> = cells
            .iter()
            .map(|c| c.probed_round.expect("probe lands"))
            .collect();
        assert!(
            rounds.windows(2).all(|w| w[0] <= w[1]),
            "probed round must be monotone in the quantum: {rounds:?}"
        );
        assert!(rounds[0] < rounds[3], "sweep must show a real spread");
        // The paper's 10 ms cell at 25 MHz is round 4.
        assert_eq!(rounds[2], 4);
    }
}
