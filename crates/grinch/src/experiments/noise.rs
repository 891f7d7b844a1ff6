//! Noise sensitivity ablation — quantifying the paper's remark that attack
//! efficiency "depends on the amount of noise (e.g., multiple processes
//! disputing the processor)".
//!
//! Sweeps the false-absence (eviction) probability of the probe channel and
//! measures the encryptions a noise-robust first-round recovery needs, plus
//! whether the paper's hard-elimination rule would have survived.

use crate::craft::craft_plaintext;
use crate::eliminate::CandidateSet;
use crate::noise::{recover_round1_robust, NoiseChannel};
use crate::oracle::{ObservationConfig, VictimOracle};
use crate::target::TargetSpec;
use gift_cipher::bitwise::Gift64;
use gift_cipher::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the noise ablation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseRow {
    /// Per-line false-absence probability of the channel.
    pub evict_probability: f64,
    /// Whether hard elimination (the paper's Step 3) still recovered a
    /// correct segment over a fixed sample.
    pub hard_elimination_correct: bool,
    /// Whether the robust (absence-counting) recovery got the round key.
    pub robust_recovered: bool,
    /// Encryptions the robust recovery consumed.
    pub robust_encryptions: u64,
}

/// Parameters of the noise ablation.
#[derive(Clone, Copy, Debug)]
pub struct NoiseConfig {
    /// Secret key under attack.
    pub key: Key,
    /// Decision margin of the sequential test.
    pub margin: u64,
    /// Encryption cap for the robust recovery.
    pub max_encryptions: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            key: Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0),
            margin: 12,
            max_encryptions: 400_000,
            seed: 0x401c3,
        }
    }
}

/// Whether hard elimination still yields the correct unique hypothesis for
/// one representative segment after 48 noisy observations.
fn hard_elimination_correct(config: &NoiseConfig, p: f64) -> bool {
    let mut oracle = VictimOracle::new(config.key, ObservationConfig::ideal());
    let mut noise = NoiseChannel::new(p, config.seed ^ 0x1111);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x2222);
    let segment = 4;
    let spec = TargetSpec::new(1, segment);
    let truth = Gift64::new(config.key).round_keys()[0];
    let truth_bits = ((truth.v >> segment) & 1 == 1, (truth.u >> segment) & 1 == 1);
    let mut set = CandidateSet::full();
    for _ in 0..48 {
        let pt = craft_plaintext(&[spec], &[], &mut rng).expect("single target");
        let observed = noise.apply(oracle.observe(pt));
        set.eliminate(&oracle, &spec, &observed);
    }
    set.resolved() == Some(truth_bits)
}

/// Measures one noise level, wrapped in an `experiment.noise.cell` span
/// with the robust recovery's oracle metrics published into `telemetry`.
pub fn measure(
    config: &NoiseConfig,
    evict_probability: f64,
    telemetry: grinch_telemetry::Telemetry,
) -> NoiseRow {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.noise.cell",
        evict_probability = evict_probability
    );
    let hard_ok = hard_elimination_correct(config, evict_probability);

    let mut oracle = VictimOracle::new(config.key, ObservationConfig::ideal());
    oracle.set_telemetry(telemetry);
    let mut noise = NoiseChannel::new(evict_probability, config.seed ^ 0x3333);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x4444);
    let truth = Gift64::new(config.key).round_keys()[0];
    let result = recover_round1_robust(
        &mut oracle,
        &mut noise,
        config.margin,
        config.max_encryptions,
        &mut rng,
    );
    NoiseRow {
        evict_probability,
        hard_elimination_correct: hard_ok,
        robust_recovered: result.round_key == Some(truth),
        robust_encryptions: result.encryptions,
    }
}

/// The default sweep of eviction probabilities.
pub const NOISE_LEVELS: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// Runs the full noise sweep, every level's span nested under an
/// `experiment.noise` root span.
pub fn run(config: &NoiseConfig, telemetry: grinch_telemetry::Telemetry) -> Vec<NoiseRow> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.noise");
    NOISE_LEVELS
        .iter()
        .map(|&p| measure(config, p, telemetry.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    #[test]
    fn clean_channel_both_strategies_work() {
        let row = measure(&NoiseConfig::default(), 0.0, Telemetry::disabled());
        assert!(row.hard_elimination_correct);
        assert!(row.robust_recovered);
    }

    #[test]
    fn noisy_channel_robust_survives() {
        let row = measure(&NoiseConfig::default(), 0.10, Telemetry::disabled());
        assert!(
            row.robust_recovered,
            "robust recovery must survive 10% noise"
        );
    }

    #[test]
    fn robust_effort_grows_with_noise() {
        let cfg = NoiseConfig::default();
        let clean = measure(&cfg, 0.0, Telemetry::disabled());
        let noisy = measure(&cfg, 0.10, Telemetry::disabled());
        assert!(
            noisy.robust_encryptions > clean.robust_encryptions,
            "noisy ({}) should cost more than clean ({})",
            noisy.robust_encryptions,
            clean.robust_encryptions
        );
    }
}
