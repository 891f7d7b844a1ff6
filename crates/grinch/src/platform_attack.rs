//! Full-stack attack: GRINCH driven end-to-end by the MPSoC co-simulation.
//!
//! The other attack paths in this crate use the idealised observation
//! harness (matching the paper's RTL-simulation experiments 1–2). This
//! module instead runs every crafted encryption through the *event-driven
//! platform simulator*: the victim executes on its tile, the attacker's
//! tile runs continuous Flush+Reload passes over the NoC, and the
//! observation is assembled from the probe records the platform actually
//! produced — timing, scheduling and all (the paper's experiment 3 setup,
//! carried through to key recovery).
//!
//! Observation assembly: the attacker's passes flush what they read, so a
//! pass carries the lines touched since the previous pass. The union of
//! the passes that complete during victim round `r + 1`, plus the first
//! pass of round `r + 2` (covering the tail of round `r + 1`), is a sound
//! superset of round `r + 1`'s access set: every line the signal round
//! touched appears, and extra lines only ever *add* presence — absence
//! remains proof of innocence, so candidate elimination stays sound.

use crate::oracle::{ObservationConfig, ObservedLines};
use crate::stage::{run_stage, StageConfig, StageVictim};
use crate::target::TargetSpec;
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soc_sim::platform::PlatformConfig;
use soc_sim::scenario::{run_mpsoc_with, ScenarioReport};
use std::collections::BTreeSet;

/// Assembles the attacker's view of round `signal_round`'s accesses from a
/// platform run's probe records (see the module docs for soundness).
pub fn observed_lines_for_round(report: &ScenarioReport, signal_round: usize) -> BTreeSet<u64> {
    let mut observed = BTreeSet::new();
    let mut first_of_next_taken = false;
    for probe in &report.probes {
        match probe.victim_round {
            Some(r) if r == signal_round => {
                observed.extend(probe.hit_lines.iter().copied());
            }
            Some(r) if r == signal_round + 1 && !first_of_next_taken => {
                observed.extend(probe.hit_lines.iter().copied());
                first_of_next_taken = true;
            }
            _ => {}
        }
    }
    observed
}

/// The outcome of a platform-driven stage-1 recovery.
#[derive(Clone, Debug)]
pub struct PlatformStageOutcome {
    /// The recovered first-round key, if every segment resolved.
    pub round_key: Option<RoundKey64>,
    /// Victim encryptions simulated (each is a full platform run).
    pub encryptions: u64,
}

/// The MPSoC co-simulation as a stage victim: every observation is one
/// full platform run, assembled from its probe records.
struct MpsocVictim<'a> {
    config: &'a PlatformConfig,
    key: Key,
    /// The platform's cache geometry and table placement.
    lines: ObservationConfig,
    /// The empty line set over the platform's S-box lines.
    empty_lines: ObservedLines,
}

impl StageVictim for MpsocVictim<'_> {
    type Key = RoundKey64;

    fn observe_stage(&mut self, plaintext: u64, stage_round: usize) -> ObservedLines {
        let report = run_mpsoc_with(self.config, self.key, vec![plaintext]);
        let mut observed = self.empty_lines;
        for addr in observed_lines_for_round(&report, stage_round + 1) {
            observed.insert(addr);
        }
        observed
    }

    fn hypothesis_consistent(
        &self,
        target: &TargetSpec,
        observed: &ObservedLines,
        v_bit: bool,
        u_bit: bool,
    ) -> bool {
        observed.contains(
            &self
                .lines
                .line_addr_of_index(target.expected_index(v_bit, u_bit)),
        )
    }
}

/// Recovers round 1's 32 key bits with every observation produced by a
/// real MPSoC co-simulation run.
///
/// Each crafted plaintext triggers one simulated encryption on the
/// platform (`config`); the attacker tile's probe passes are folded into a
/// round-2 observation and fed to the standard stage loop.
pub fn recover_round1_on_mpsoc(
    config: &PlatformConfig,
    key: Key,
    max_encryptions: u64,
    seed: u64,
) -> PlatformStageOutcome {
    let lines = ObservationConfig {
        cache: config.cache,
        layout: config.layout,
        ..ObservationConfig::ideal()
    };
    let mut victim = MpsocVictim {
        config,
        key,
        empty_lines: ObservedLines::for_config(&lines),
        lines,
    };
    let result = run_stage(
        &mut victim,
        &[],
        1,
        &StageConfig::new().with_max_encryptions(max_encryptions),
        &mut StdRng::seed_from_u64(seed),
    );
    PlatformStageOutcome {
        round_key: result.round_key(),
        encryptions: result.encryptions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gift_cipher::Gift64;

    #[test]
    fn observation_assembly_is_a_sound_superset_of_round2() {
        let key = Key::from_u128(0x1357_9bdf_2468_ace0_0f1e_2d3c_4b5a_6978);
        let config = PlatformConfig::mpsoc(10_000_000);
        let pt = 0x0123_4567_89ab_cdef;
        let report = run_mpsoc_with(&config, key, vec![pt]);
        let observed = observed_lines_for_round(&report, 2);
        // Ground truth round-2 lines.
        let round2_input = Gift64::new(key).encrypt_rounds(pt, 1);
        for seg in 0..16 {
            let nib = gift_cipher::state::segment_64(round2_input, seg);
            let addr = config.layout.sbox_entry_addr(nib);
            assert!(
                observed.contains(&addr),
                "round-2 access {addr:#x} missing from the assembled observation"
            );
        }
    }

    #[test]
    fn full_stack_round1_recovery_on_the_simulated_mpsoc() {
        let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
        let config = PlatformConfig::mpsoc(50_000_000);
        let outcome = recover_round1_on_mpsoc(&config, key, 5_000, 11);
        let truth = Gift64::new(key).round_keys()[0];
        assert_eq!(outcome.round_key, Some(truth));
        assert!(
            outcome.encryptions < 3_000,
            "platform-driven stage used {} encryptions",
            outcome.encryptions
        );
    }
}
