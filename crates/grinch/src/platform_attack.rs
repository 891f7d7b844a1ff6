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

use crate::eliminate::CandidateSet;
use crate::target::{disjoint_batches, TargetSpec};
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::{Key, GIFT64_SEGMENTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Recovers round 1's 32 key bits with every observation produced by a
/// real MPSoC co-simulation run.
///
/// Each crafted plaintext triggers one simulated encryption on the
/// platform (`config`); the attacker tile's probe passes are folded into a
/// round-2 observation and fed to the standard elimination.
pub fn recover_round1_on_mpsoc(
    config: &PlatformConfig,
    key: Key,
    max_encryptions: u64,
    seed: u64,
) -> PlatformStageOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates = [CandidateSet::full(); GIFT64_SEGMENTS];
    let mut encryptions = 0u64;
    let layout = config.layout;
    let line_bytes = config.cache.line_bytes as u64;

    'batches: for batch in disjoint_batches(1) {
        let mut stall_limit = 24u64;
        loop {
            for rotation in 0..16usize {
                if batch.iter().all(|&s| candidates[s].is_resolved()) {
                    break;
                }
                let specs: Vec<TargetSpec> = batch
                    .iter()
                    .map(|&s| {
                        let pattern = if rotation == 0 {
                            0b1111
                        } else {
                            rng.gen_range(0..16u8)
                        };
                        TargetSpec::with_forced_pattern(1, s, pattern)
                    })
                    .collect();
                let mut stall = 0u64;
                while stall < stall_limit {
                    if encryptions >= max_encryptions {
                        break 'batches;
                    }
                    if batch.iter().all(|&s| candidates[s].is_resolved()) {
                        break;
                    }
                    let pt = crate::craft::craft_plaintext(&specs, &[], &mut rng)
                        .expect("disjoint batch");
                    encryptions += 1;
                    // One full platform co-simulation for this encryption.
                    let report = run_mpsoc_with(config, key, vec![pt]);
                    let observed = observed_lines_for_round(&report, 2);
                    let mut progressed = 0usize;
                    for spec in &specs {
                        let set = &mut candidates[spec.segment];
                        progressed += set.retain(|v, u| {
                            let addr = layout.sbox_entry_addr(spec.expected_index(v, u));
                            observed.contains(&(addr / line_bytes * line_bytes))
                        });
                        if set.is_empty() {
                            break 'batches;
                        }
                    }
                    if progressed == 0 {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                }
            }
            if batch.iter().all(|&s| candidates[s].is_resolved()) {
                break;
            }
            stall_limit = stall_limit.saturating_mul(8);
        }
    }

    let round_key = candidates.iter().all(CandidateSet::is_resolved).then(|| {
        let mut v = 0u16;
        let mut u = 0u16;
        for (s, set) in candidates.iter().enumerate() {
            let (vb, ub) = set.resolved().expect("resolved");
            v |= u16::from(vb) << s;
            u |= u16::from(ub) << s;
        }
        RoundKey64 { u, v }
    });
    PlatformStageOutcome {
        round_key,
        encryptions,
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
