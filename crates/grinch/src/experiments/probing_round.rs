//! Fig. 3 — required encryptions to break the 1st GIFT round as a function
//! of the cache-probing round, with and without the flush operation.

use crate::experiments::CellResult;
use crate::oracle::{ObservationConfig, VictimOracle};
use crate::stage::{run_stage, StageConfig};
use gift_cipher::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One point of the Fig. 3 series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig3Point {
    /// Cache probing round (the figure's horizontal axis, 1-based).
    pub probing_round: usize,
    /// Whether the attacker flushed after round 1 ("Grinch with Flush").
    pub flush: bool,
    /// Encryptions required to recover the first 32 key bits.
    pub result: CellResult,
}

/// Parameters of the Fig. 3 sweep.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Config {
    /// Probing rounds swept (the paper uses 1..=10).
    pub max_probing_round: usize,
    /// Encryption cap per cell (the paper's practicality drop-out).
    pub max_encryptions: u64,
    /// Secret key under attack.
    pub key: Key,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            max_probing_round: 10,
            max_encryptions: 1_000_000,
            key: Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0),
            seed: 0xf163,
        }
    }
}

/// Measures one Fig. 3 cell: a first-round (stage 1) recovery at the given
/// probing round and flush setting, wrapped in an `experiment.fig3.cell`
/// span with the oracle's metrics published into `telemetry`.
pub fn measure_cell(
    config: &Fig3Config,
    probing_round: usize,
    flush: bool,
    telemetry: grinch_telemetry::Telemetry,
) -> CellResult {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.fig3.cell",
        probing_round = probing_round,
        flush = flush
    );
    let obs = ObservationConfig::ideal()
        .with_probing_round(probing_round)
        .with_flush(flush);
    let mut oracle = VictimOracle::new(config.key, obs);
    oracle.set_telemetry(telemetry);
    let stage_cfg = StageConfig::new()
        .with_max_encryptions(config.max_encryptions)
        .with_seed(config.seed ^ (probing_round as u64) ^ (u64::from(flush) << 32));
    let mut rng = StdRng::seed_from_u64(stage_cfg.seed);
    let result = run_stage(&mut oracle, &[], 1, &stage_cfg, &mut rng);
    if result.is_resolved() {
        CellResult::Recovered(result.encryptions)
    } else {
        CellResult::DropOut(result.encryptions)
    }
}

/// Runs the full Fig. 3 sweep: both series over probing rounds
/// `1..=max_probing_round`, every cell's span nested under an
/// `experiment.fig3` root span.
pub fn run(config: &Fig3Config, telemetry: grinch_telemetry::Telemetry) -> Vec<Fig3Point> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.fig3");
    let mut points = Vec::new();
    for flush in [true, false] {
        for probing_round in 1..=config.max_probing_round {
            points.push(Fig3Point {
                probing_round,
                flush,
                result: measure_cell(config, probing_round, flush, telemetry.clone()),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    fn quick_config() -> Fig3Config {
        Fig3Config {
            max_probing_round: 3,
            max_encryptions: 40_000,
            ..Fig3Config::default()
        }
    }

    #[test]
    fn effort_grows_with_probing_round() {
        let cfg = quick_config();
        let r1 = measure_cell(&cfg, 1, true, Telemetry::disabled());
        let r3 = measure_cell(&cfg, 3, true, Telemetry::disabled());
        assert!(r1.is_recovered());
        assert!(r3.is_recovered());
        assert!(
            r3.encryptions() > r1.encryptions(),
            "round 3 ({}) should cost more than round 1 ({})",
            r3.encryptions(),
            r1.encryptions()
        );
    }

    #[test]
    fn flush_reduces_effort() {
        let cfg = quick_config();
        let with_flush = measure_cell(&cfg, 2, true, Telemetry::disabled());
        let without = measure_cell(&cfg, 2, false, Telemetry::disabled());
        assert!(with_flush.is_recovered());
        assert!(
            without.encryptions() > with_flush.encryptions(),
            "without flush ({}) should cost more than with ({})",
            without.encryptions(),
            with_flush.encryptions()
        );
    }

    #[test]
    fn sweep_produces_both_series() {
        let cfg = Fig3Config {
            max_probing_round: 2,
            max_encryptions: 20_000,
            ..Fig3Config::default()
        };
        let points = run(&cfg, Telemetry::disabled());
        assert_eq!(points.len(), 4);
        assert!(points.iter().any(|p| p.flush));
        assert!(points.iter().any(|p| !p.flush));
    }
}
