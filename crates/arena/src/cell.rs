//! One cell of the sweep: R Monte-Carlo trials of (defense, attack, noise).
//!
//! Every trial draws a fresh random 128-bit key, a fresh defense key and a
//! fresh cache-replacement seed from the trial's splitmix64 chain, runs the
//! full four-stage recovery under the per-stage encryption cap, and — when
//! the recovery fails — measures what the channel *did* give up by re-running
//! a bounded stage 1 and summing the surviving hypothesis entropy.
//!
//! Where the defense saturates the probe (rekey-64 and the way partition
//! under Prime+Probe, without noise), every observation shows all monitored
//! lines, and each stage — the recovery's and the rerun's — stops as
//! *blind* after its silence window (`grinch::stage::silence_window`, 45
//! observations here) instead of running to the cap. A blind stop keeps
//! every candidate, so such a trial still fails with the full 32 residual
//! bits, and the cell's result is what running to the cap gave.
//!
//! The runner is deliberately single-threaded and self-contained: the
//! workspace telemetry registry is `Rc`-based (not `Send`), so each worker
//! constructs its oracles locally and only the plain [`CellResult`] crosses
//! the thread boundary.

use crate::spec::CampaignConfig;
use cache_sim::splitmix64;
use gift_cipher::Key;
use grinch::attack::{recover_full_key, AttackConfig};
use grinch::noise::NoiseChannel;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::stage::run_stage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Aggregated result of one (defense × attack × noise) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Defense name ([`crate::spec::DefenseSpec::name`]).
    pub defense: String,
    /// Attack name ([`crate::spec::AttackSpec::name`]).
    pub attack: String,
    /// False-absence probability of the observation channel.
    pub noise: f64,
    /// Monte-Carlo trials run.
    pub trials: u64,
    /// Trials that recovered and verified the full 128-bit key.
    pub successes: u64,
    /// `successes / trials`, rounded to 6 decimals.
    pub success_rate: f64,
    /// Mean victim encryptions consumed by the *successful* trials
    /// (`None` when the cell never succeeded).
    pub mean_encryptions_to_success: Option<f64>,
    /// Mean residual entropy (bits) of the stage-1 hypothesis space: 0 for
    /// a success, up to 32 (16 segments × 2 bits) for a channel that gave
    /// up nothing.
    pub mean_residual_entropy_bits: f64,
}

/// Rounds to 6 decimals so the serialized matrix is tidy and the committed
/// baseline compares exactly.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Residual entropy of a stage-1 candidate snapshot, in bits.
///
/// Each of the 16 segments contributes `log2(survivors)`; an *empty* set
/// means the channel's observations were contradictory (noise eliminated
/// the true hypothesis too), so the attacker learned nothing reliable and
/// the segment counts as the full 2 bits.
fn residual_entropy_bits(candidates: &[grinch::eliminate::CandidateSet]) -> f64 {
    candidates
        .iter()
        .map(|set| {
            let survivors = if set.is_empty() { 4 } else { set.len() };
            (survivors as f64).log2()
        })
        .sum()
}

/// Per-trial progress notification passed to [`run_cell_hooked`]'s hook.
///
/// Purely observational: the hook runs outside every RNG draw, so a cell's
/// result is identical with or without one (the live plane's byte-identity
/// guarantee rests on this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrialProgress {
    /// A trial is about to run — the natural heartbeat boundary.
    Started {
        /// Trial index within the cell.
        trial: usize,
    },
    /// A trial finished.
    Done {
        /// Trial index within the cell.
        trial: usize,
        /// Victim encryptions the recovery attempt consumed.
        encryptions: u64,
        /// Whether the full key was recovered and verified.
        success: bool,
    },
}

/// Runs cell `cell_index` of `config` to completion.
pub fn run_cell(config: &CampaignConfig, cell_index: usize) -> CellResult {
    run_cell_hooked(config, cell_index, &mut |_| {})
}

/// [`run_cell`] with a per-trial progress hook (the sweep engine routes
/// these into the live plane's worker events).
pub fn run_cell_hooked(
    config: &CampaignConfig,
    cell_index: usize,
    hook: &mut dyn FnMut(TrialProgress),
) -> CellResult {
    let (d, a, n) = config.cell_coords(cell_index);
    let defense = config.defenses[d];
    let attack = config.attacks[a];
    let noise = config.noise_levels[n];
    let cell_seed = config.cell_seed(cell_index);

    let mut successes = 0u64;
    let mut success_encryptions = 0u64;
    let mut entropy_sum = 0.0;
    for trial in 0..config.trials {
        hook(TrialProgress::Started { trial });
        let trial_seed = splitmix64(cell_seed ^ splitmix64(trial as u64 + 1));
        let mut rng = StdRng::seed_from_u64(trial_seed);
        let secret = Key::from_u128(rng.gen::<u128>());

        let mut obs = ObservationConfig::ideal();
        obs.strategy = attack.strategy();
        obs.cache = defense.apply(obs.cache, rng.gen::<u64>());
        let mut oracle = VictimOracle::new_seeded(secret, obs, rng.gen::<u64>());
        if noise > 0.0 {
            oracle.set_noise(Some(NoiseChannel::new(noise, rng.gen::<u64>())));
        }

        let mut attack_cfg = AttackConfig::new();
        attack_cfg.stage = attack_cfg
            .stage
            .with_max_encryptions(config.max_stage_encryptions)
            .with_seed(rng.gen::<u64>());
        let outcome = recover_full_key(&mut oracle, &attack_cfg);
        let success = outcome.key == Some(secret);
        hook(TrialProgress::Done {
            trial,
            encryptions: outcome.encryptions,
            success,
        });

        if success {
            successes += 1;
            success_encryptions += outcome.encryptions;
            // A verified full key leaves no residual entropy.
        } else {
            // How much did the channel determine anyway? Re-run a bounded
            // stage 1 (same oracle, fresh campaign RNG) and count the
            // surviving hypotheses.
            let mut probe_rng = StdRng::seed_from_u64(splitmix64(trial_seed ^ 0x0b5e));
            let stage = run_stage(&mut oracle, &[], 1, &attack_cfg.stage, &mut probe_rng);
            entropy_sum += residual_entropy_bits(&stage.candidates);
        }
    }

    let trials = config.trials as u64;
    CellResult {
        defense: defense.name(),
        attack: attack.name().to_string(),
        noise: round6(noise),
        trials,
        successes,
        success_rate: round6(successes as f64 / trials as f64),
        mean_encryptions_to_success: (successes > 0)
            .then(|| round6(success_encryptions as f64 / successes as f64)),
        mean_residual_entropy_bits: round6(entropy_sum / trials as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AttackSpec, DefenseSpec};
    use grinch::eliminate::CandidateSet;

    fn tiny(defense: DefenseSpec, attack: AttackSpec) -> CampaignConfig {
        CampaignConfig {
            defenses: vec![defense],
            attacks: vec![attack],
            noise_levels: vec![0.0],
            trials: 2,
            seed: 0xa11e,
            max_stage_encryptions: 2_500,
            jobs: 1,
        }
    }

    #[test]
    fn undefended_flush_reload_always_recovers_the_key() {
        let cell = run_cell(&tiny(DefenseSpec::Baseline, AttackSpec::FlushReload), 0);
        assert_eq!(cell.successes, cell.trials);
        assert_eq!(cell.success_rate, 1.0);
        assert_eq!(cell.mean_residual_entropy_bits, 0.0);
        let mean = cell.mean_encryptions_to_success.expect("succeeded");
        // The paper's headline order of magnitude: hundreds, not thousands.
        assert!(mean < 1_200.0, "mean encryptions {mean}");
    }

    #[test]
    fn way_partition_drives_success_to_zero_with_full_residual_entropy() {
        let cell = run_cell(&tiny(DefenseSpec::WayPartition, AttackSpec::FlushReload), 0);
        assert_eq!(cell.successes, 0);
        assert_eq!(cell.mean_encryptions_to_success, None);
        // Blinded probes eliminate nothing: all 16 segments keep all 4
        // hypotheses = 32 bits.
        assert_eq!(cell.mean_residual_entropy_bits, 32.0);
    }

    #[test]
    fn entropy_counts_empty_sets_as_uninformative() {
        let full: Vec<CandidateSet> = (0..16).map(|_| CandidateSet::full()).collect();
        assert_eq!(residual_entropy_bits(&full), 32.0);
        let mut one_empty = full.clone();
        for h in [(false, false), (false, true), (true, false), (true, true)] {
            one_empty[0].remove(h);
        }
        assert!(one_empty[0].is_empty());
        assert_eq!(residual_entropy_bits(&one_empty), 32.0);
        let mut resolved = full;
        for set in &mut resolved {
            for h in [(false, true), (true, false), (true, true)] {
                set.remove(h);
            }
        }
        assert_eq!(residual_entropy_bits(&resolved), 0.0);
    }

    #[test]
    fn hook_observes_every_trial_without_perturbing_the_result() {
        let cfg = tiny(DefenseSpec::Baseline, AttackSpec::FlushReload);
        let mut events = Vec::new();
        let hooked = run_cell_hooked(&cfg, 0, &mut |p| events.push(p));
        assert_eq!(hooked, run_cell(&cfg, 0), "hook must not change the cell");
        assert_eq!(events.len(), 2 * cfg.trials, "Started + Done per trial");
        assert_eq!(events[0], TrialProgress::Started { trial: 0 });
        match events[1] {
            TrialProgress::Done {
                trial: 0,
                encryptions,
                success: true,
            } => assert!(encryptions > 0),
            other => panic!("expected successful Done for trial 0, got {other:?}"),
        }
    }

    #[test]
    fn same_cell_is_reproducible() {
        let cfg = tiny(DefenseSpec::StaticRemap, AttackSpec::FlushReload);
        assert_eq!(run_cell(&cfg, 0), run_cell(&cfg, 0));
    }
}
