//! Probe noise and noise-robust key recovery.
//!
//! The paper notes that "the efficiency of the attack depends on the amount
//! of noise (e.g., multiple processes disputing the processor)". Competing
//! processes perturb the channel in two directions:
//!
//! * **extra presence** — unrelated accesses pull additional lines into the
//!   cache. Harmless to correctness: GRINCH's elimination only acts on
//!   *absence*.
//! * **false absence** — a competing process (or the OS) evicts an S-box
//!   line between the victim's access and the attacker's probe. This breaks
//!   the hard-intersection rule: the *true* hypothesis can be eliminated.
//!
//! [`NoiseChannel`] models false absence as an i.i.d. per-line eviction
//! probability applied to each observation (equivalent to competing cache
//! fills landing in the monitored sets). [`RobustCandidateSet`] replaces
//! hard elimination with absence *counting*: the true hypothesis has the
//! lowest absence rate (only the noise rate), while wrong hypotheses are
//! additionally absent whenever the round's other accesses miss their line.
//! A hypothesis is accepted once it leads every rival by a configurable
//! margin — a sequential hypothesis test that degrades gracefully with
//! noise instead of failing outright.

use crate::craft::craft_plaintext;
use crate::oracle::{ObservedLines, VictimOracle};
use crate::stage::StageVictim;
use crate::target::{disjoint_batches, TargetSpec};
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::GIFT64_SEGMENTS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An i.i.d. false-absence channel: each observed line is dropped with
/// probability `evict_probability` before the attacker sees the set.
#[derive(Clone, Debug)]
pub struct NoiseChannel {
    evict_probability: f64,
    rng: StdRng,
}

impl NoiseChannel {
    /// Creates a channel with the given per-line eviction probability.
    ///
    /// # Panics
    ///
    /// Panics if `evict_probability` is not in `[0, 1]`.
    pub fn new(evict_probability: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&evict_probability),
            "probability must be in [0, 1]"
        );
        Self {
            evict_probability,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured eviction probability.
    pub fn evict_probability(&self) -> f64 {
        self.evict_probability
    }

    /// Applies the channel to one observation.
    ///
    /// Lines are filtered in place, in ascending order, one draw each.
    pub fn apply(&mut self, mut observed: ObservedLines) -> ObservedLines {
        if self.evict_probability == 0.0 {
            return observed;
        }
        let (rng, p) = (&mut self.rng, self.evict_probability);
        observed.retain(|_| rng.gen::<f64>() >= p);
        observed
    }
}

/// Absence counters for the four hypotheses of one segment.
#[derive(Clone, Debug, Default)]
pub struct RobustCandidateSet {
    /// `absences[h]` counts observations in which hypothesis `h`'s
    /// predicted line was absent (hypothesis order: (v,u) as 2-bit value
    /// `v | u << 1`).
    absences: [u64; 4],
    /// Total observations scored.
    observations: u64,
}

impl RobustCandidateSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of observations scored so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Absence count of hypothesis `(v, u)`.
    pub fn absences(&self, v: bool, u: bool) -> u64 {
        self.absences[usize::from(v) | (usize::from(u) << 1)]
    }

    /// Scores one observation under the campaign `spec`.
    pub fn score(&mut self, oracle: &VictimOracle, spec: &TargetSpec, observed: &ObservedLines) {
        self.observations += 1;
        for h in 0..4usize {
            let (v, u) = (h & 1 != 0, h & 2 != 0);
            if !oracle.hypothesis_consistent(spec, observed, v, u) {
                self.absences[h] += 1;
            }
        }
    }

    /// Decides the segment's key bits once the best hypothesis leads every
    /// rival by at least `margin` absences (a sequential test: under noise
    /// rate `p` the true hypothesis accumulates absences at rate `p`, every
    /// rival at `p + (1-p)·q` with `q` the noise-line miss rate).
    pub fn decide(&self, margin: u64) -> Option<(bool, bool)> {
        let mut order: Vec<usize> = (0..4).collect();
        order.sort_by_key(|&h| self.absences[h]);
        let best = order[0];
        let runner_up = order[1];
        (self.absences[runner_up] >= self.absences[best] + margin)
            .then_some((best & 1 != 0, best & 2 != 0))
    }
}

/// Result of a noise-robust first-round recovery.
#[derive(Clone, Debug)]
pub struct RobustStageResult {
    /// The recovered round key, if every segment decided.
    pub round_key: Option<RoundKey64>,
    /// Encryptions consumed.
    pub encryptions: u64,
}

/// Recovers round 1's 32 key bits through a noisy channel using absence
/// counting instead of hard elimination.
///
/// `margin` controls the error/effort trade-off: larger margins tolerate
/// more noise at the cost of more encryptions.
pub fn recover_round1_robust(
    oracle: &mut VictimOracle,
    noise: &mut NoiseChannel,
    margin: u64,
    max_encryptions: u64,
    rng: &mut StdRng,
) -> RobustStageResult {
    let start = oracle.encryptions();
    let mut decided: [Option<(bool, bool)>; GIFT64_SEGMENTS] = [None; GIFT64_SEGMENTS];
    let mut capped = false;

    'batches: for batch in disjoint_batches(1) {
        let mut counters: Vec<RobustCandidateSet> = (0..batch.len())
            .map(|_| RobustCandidateSet::new())
            .collect();
        // Rotate patterns so co-batched constant signals do not bias a
        // rival hypothesis's line into permanent presence.
        let mut rotation = 0usize;
        loop {
            if oracle.encryptions() - start >= max_encryptions {
                capped = true;
                break 'batches;
            }
            let specs: Vec<TargetSpec> = batch
                .iter()
                .map(|&s| {
                    // All-ones first, then randomised (constant co-batched
                    // signals can bias a rival's absence counter under a
                    // fixed pattern schedule; see `crate::stage`).
                    let pattern = if rotation == 0 {
                        0b1111
                    } else {
                        rng.gen_range(0..16u8)
                    };
                    TargetSpec::with_forced_pattern(1, s, pattern)
                })
                .collect();
            // A small burst per pattern keeps the counters balanced across
            // patterns while rotating fast enough to decorrelate.
            for _ in 0..8 {
                if oracle.encryptions() - start >= max_encryptions {
                    capped = true;
                    break 'batches;
                }
                let pt = craft_plaintext(&specs, &[], rng)
                    .expect("batched targets have disjoint sources");
                let observed = noise.apply(oracle.observe(pt));
                for (i, spec) in specs.iter().enumerate() {
                    counters[i].score(oracle, spec, &observed);
                }
            }
            let mut all_decided = true;
            for (i, &seg) in batch.iter().enumerate() {
                match counters[i].decide(margin) {
                    Some(bits) => decided[seg] = Some(bits),
                    None => all_decided = false,
                }
            }
            if all_decided {
                break;
            }
            rotation += 1;
        }
    }

    let round_key = (!capped && decided.iter().all(Option::is_some)).then(|| {
        let mut v = 0u16;
        let mut u = 0u16;
        for (s, bits) in decided.iter().enumerate() {
            let (vb, ub) = bits.expect("all decided");
            v |= u16::from(vb) << s;
            u |= u16::from(ub) << s;
        }
        RoundKey64 { u, v }
    });
    RobustStageResult {
        round_key,
        encryptions: oracle.encryptions() - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eliminate::CandidateSet;
    use crate::oracle::ObservationConfig;
    use gift_cipher::bitwise::Gift64;
    use gift_cipher::Key;

    fn key() -> Key {
        Key::from_u128(0x1f2e_3d4c_5b6a_7988_0011_2233_4455_6677)
    }

    /// The lines of S-box entries `indices` in the ideal geometry.
    fn lines_of(indices: impl IntoIterator<Item = u8>) -> ObservedLines {
        let cfg = ObservationConfig::ideal();
        let mut set = ObservedLines::for_config(&cfg);
        for index in indices {
            set.insert(cfg.line_addr_of_index(index));
        }
        set
    }

    #[test]
    fn noise_channel_zero_probability_is_identity() {
        let mut ch = NoiseChannel::new(0.0, 1);
        let set = lines_of([1, 2, 3]);
        assert_eq!(ch.apply(set), set);
    }

    #[test]
    fn noise_channel_drops_roughly_p_fraction() {
        let mut ch = NoiseChannel::new(0.25, 42);
        let mut kept = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let set = lines_of(0..16);
            total += 16;
            kept += ch.apply(set).len();
        }
        let keep_rate = kept as f64 / total as f64;
        assert!((0.70..0.80).contains(&keep_rate), "keep rate {keep_rate}");
    }

    #[test]
    fn hard_elimination_breaks_under_noise_but_robust_recovery_survives() {
        let secret = key();
        let truth = Gift64::new(secret).round_keys()[0];
        let p = 0.15;

        // Hard elimination: with 15% false absence, ~30 observations are
        // near-certain to eliminate the true hypothesis of some segment.
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let mut noise = NoiseChannel::new(p, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let spec = TargetSpec::new(1, 4);
        let mut hard = CandidateSet::full();
        for _ in 0..40 {
            let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
            let observed = noise.apply(oracle.observe(pt));
            hard.eliminate(&oracle, &spec, &observed);
        }
        let truth_bits = ((truth.v >> 4) & 1 == 1, (truth.u >> 4) & 1 == 1);
        assert!(
            !hard.survivors().contains(&truth_bits) || hard.is_empty() || !hard.is_resolved(),
            "hard elimination should be unreliable under noise"
        );

        // Robust counting: recovers the full 32-bit round key anyway.
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let mut noise = NoiseChannel::new(p, 7);
        let mut rng = StdRng::seed_from_u64(13);
        let result = recover_round1_robust(&mut oracle, &mut noise, 12, 400_000, &mut rng);
        assert_eq!(result.round_key, Some(truth));
    }

    #[test]
    fn robust_recovery_matches_hard_result_without_noise() {
        let secret = key();
        let truth = Gift64::new(secret).round_keys()[0];
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let mut noise = NoiseChannel::new(0.0, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let result = recover_round1_robust(&mut oracle, &mut noise, 6, 200_000, &mut rng);
        assert_eq!(result.round_key, Some(truth));
    }

    #[test]
    fn robust_decide_requires_margin() {
        let mut set = RobustCandidateSet::new();
        // Manually shaped counters: best = h0 with 2 absences, runner-up 6.
        set.absences = [2, 6, 9, 9];
        set.observations = 20;
        assert_eq!(set.decide(4), Some((false, false)));
        assert_eq!(set.decide(5), None);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = NoiseChannel::new(1.5, 0);
    }
}
