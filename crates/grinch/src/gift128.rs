//! GRINCH against **GIFT-128** — the natural extension of the paper's
//! GIFT-64 attack to the larger variant (most NIST-LWC candidates built on
//! GIFT, e.g. GIFT-COFB, use GIFT-128).
//!
//! The structure transfers directly, with two differences that make the
//! attack *cheaper* per stage:
//!
//! * GIFT-128's `AddRoundKey` XORs 64 key bits per round — `V = k1‖k0` into
//!   state bits `4i + 1` and `U = k5‖k4` into bits `4i + 2` — so each stage
//!   recovers 64 bits across the 32 segments, and **two** stages recover
//!   the full 128-bit key (rounds 1 and 2 consume `k5,k4,k1,k0` and
//!   `k7,k6,k3,k2` respectively).
//! * With 32 sources per round, one crafted plaintext can pin **eight**
//!   disjoint-quad targets at once.
//!
//! The key-bit positions differ from GIFT-64 (bits 1 and 2 of each segment
//! instead of 0 and 1), so the crafted-index algebra is re-derived here:
//!
//! ```text
//! index = forced[0]                    (bit 0 — no key)
//!       | forced[1] ⊕ V_t[s]           (bit 1)
//!       | forced[2] ⊕ U_t[s]           (bit 2)
//!       | forced[3] ⊕ rc_bit(t, s)     (bit 3)
//! ```

use crate::eliminate::CandidateSet;
use crate::oracle::{ObservationConfig, ObservedLines, ProbeStrategy, VictimVariant};
use crate::stage::{run_stage, StageConfig, StageKey, StageVictim};
use crate::target::deal_batches;
use cache_sim::{Cache, CacheObserver, Domain};
use gift_cipher::bitwise::{invert_with_round_keys_128, Gift128};
use gift_cipher::constants::ROUND_CONSTANTS;
use gift_cipher::key_schedule::{Key, RoundKey128};
use gift_cipher::permutation::P128_INV;
use gift_cipher::sbox::inputs_with_output_bit;
use gift_cipher::state::with_segment_128;
use gift_cipher::{TableGift128, GIFT128_ROUNDS, GIFT128_SEGMENTS};
use rand::Rng;

/// One campaign target on GIFT-128: segment `segment` (0..32) of the
/// round-`stage_round + 1` S-box layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TargetSpec128 {
    /// 1-based round whose 64 round-key bits are being recovered
    /// (`1..=2` covers the whole key).
    pub stage_round: usize,
    /// Target segment (0..32).
    pub segment: usize,
    /// Forced source output-bit values, index `b` for target index bit `b`.
    pub forced: [bool; 4],
}

impl TargetSpec128 {
    /// Creates a target with the all-ones forcing.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= 32` or `stage_round == 0`.
    pub fn new(stage_round: usize, segment: usize) -> Self {
        Self::with_forced_pattern(stage_round, segment, 0b1111)
    }

    /// Creates a target with forced bits given as a nibble pattern.
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= 16`, `segment >= 32` or `stage_round == 0`.
    pub fn with_forced_pattern(stage_round: usize, segment: usize, pattern: u8) -> Self {
        assert!(stage_round >= 1, "stage rounds are 1-based");
        assert!(segment < GIFT128_SEGMENTS, "GIFT-128 has 32 segments");
        assert!(pattern < 16, "forced pattern is a nibble");
        Self {
            stage_round,
            segment,
            forced: [
                pattern & 1 != 0,
                pattern & 2 != 0,
                pattern & 4 != 0,
                pattern & 8 != 0,
            ],
        }
    }

    /// The four round-*t* input segments feeding this target (its quad).
    pub fn source_segments(&self) -> [usize; 4] {
        core::array::from_fn(|b| P128_INV[4 * self.segment + b] as usize / 4)
    }

    /// The round-constant bit XORed into this target's index bit 3.
    pub fn round_constant_bit(&self) -> bool {
        let rc = ROUND_CONSTANTS[self.stage_round - 1];
        match self.segment {
            s if s < 6 => (rc >> s) & 1 == 1,
            31 => true, // fixed 1 into the state MSB (bit 127)
            _ => false,
        }
    }

    /// The S-box index this campaign produces under the round-key-bit
    /// hypothesis `(v_bit, u_bit)` for this segment.
    pub fn expected_index(&self, v_bit: bool, u_bit: bool) -> u8 {
        let b0 = self.forced[0];
        let b1 = self.forced[1] ^ v_bit;
        let b2 = self.forced[2] ^ u_bit;
        let b3 = self.forced[3] ^ self.round_constant_bit();
        u8::from(b0) | (u8::from(b1) << 1) | (u8::from(b2) << 2) | (u8::from(b3) << 3)
    }

    /// Inverts an observed index into `(v_bit, u_bit)`.
    pub fn key_bits_from_index(&self, index: u8) -> (bool, bool) {
        let v = ((index >> 1) & 1 != 0) ^ self.forced[1];
        let u = ((index >> 2) & 1 != 0) ^ self.forced[2];
        (v, u)
    }
}

/// Splits the 32 targets into four batches of eight with pairwise-disjoint
/// source quads.
pub fn disjoint_batches_128(stage_round: usize) -> [[usize; 8]; 4] {
    deal_batches(|s| TargetSpec128::new(stage_round, s).source_segments())
}

/// Crafts a plaintext pinning every target in `targets` (disjoint quads
/// required) at stage `t`, inverting through the known earlier rounds.
///
/// # Panics
///
/// Panics if targets share a source segment, disagree on the stage, or
/// `known_round_keys.len() != stage_round - 1`.
pub fn craft_plaintext_128<R: Rng + ?Sized>(
    targets: &[TargetSpec128],
    known_round_keys: &[RoundKey128],
    rng: &mut R,
) -> u128 {
    let stage = targets.first().map_or(1, |t| t.stage_round);
    assert!(
        targets.iter().all(|t| t.stage_round == stage),
        "targets span different stages"
    );
    assert_eq!(
        known_round_keys.len(),
        stage - 1,
        "stage {stage} needs {} known round keys",
        stage - 1
    );
    let mut state: u128 = (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>());
    let mut constrained = [false; GIFT128_SEGMENTS];
    for target in targets {
        for (b, &src) in target.source_segments().iter().enumerate() {
            assert!(!constrained[src], "source segment {src} doubly constrained");
            constrained[src] = true;
            let choices = inputs_with_output_bit(b as u8, target.forced[b]);
            let value = choices[rng.gen_range(0..choices.len())];
            state = with_segment_128(state, src, value);
        }
    }
    invert_with_round_keys_128(state, known_round_keys)
}

/// The GIFT-128 victim oracle: Flush+Reload over the shared cache with the
/// same probing-round convention as the GIFT-64 [`crate::oracle`].
pub struct VictimOracle128 {
    cipher: TableGift128,
    cache: Cache,
    config: ObservationConfig,
    encryptions: u64,
    /// Monitored S-box line base addresses.
    probe_addrs: Vec<u64>,
    /// The empty line set over `probe_addrs`.
    empty_lines: ObservedLines,
}

impl VictimOracle128 {
    /// Creates an oracle around a GIFT-128 victim keyed with `key`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid cache configuration or probing round, and on
    /// any probe strategy but Flush+Reload or victim variant but the
    /// lookup table: the oracle implements no other.
    pub fn new(key: Key, config: ObservationConfig) -> Self {
        config
            .cache
            .validate()
            .expect("invalid cache configuration");
        assert!(
            config.probing_round >= 1 && config.probing_round < GIFT128_ROUNDS,
            "probing round must be in 1..40"
        );
        assert_eq!(
            config.strategy,
            ProbeStrategy::FlushReload,
            "the GIFT-128 oracle probes by Flush+Reload only"
        );
        assert_eq!(
            config.variant,
            VictimVariant::Table,
            "the GIFT-128 victim is the lookup-table cipher only"
        );
        Self {
            cipher: TableGift128::new(key, config.layout),
            cache: Cache::new(config.cache),
            probe_addrs: config.probe_line_addrs(),
            empty_lines: ObservedLines::for_config(&config),
            config,
            encryptions: 0,
        }
    }

    /// The observation configuration.
    pub fn config(&self) -> &ObservationConfig {
        &self.config
    }

    /// Total victim encryptions triggered so far.
    pub fn encryptions(&self) -> u64 {
        self.encryptions
    }

    /// One full encryption returning the ciphertext (verification pair).
    pub fn known_pair(&mut self, plaintext: u128) -> u128 {
        self.encryptions += 1;
        let mut obs = gift_cipher::NullObserver;
        self.cipher.encrypt_with(plaintext, &mut obs)
    }
}

impl StageKey for RoundKey128 {
    type Block = u128;
    type Target = TargetSpec128;
    type Candidates = [CandidateSet; GIFT128_SEGMENTS];
    type Batch = [usize; 8];

    fn disjoint_batches(stage_round: usize) -> [[usize; 8]; 4] {
        disjoint_batches_128(stage_round)
    }

    fn target(stage_round: usize, segment: usize, pattern: u8) -> TargetSpec128 {
        TargetSpec128::with_forced_pattern(stage_round, segment, pattern)
    }

    fn craft<R: Rng + ?Sized>(
        targets: &[TargetSpec128],
        known_round_keys: &[RoundKey128],
        rng: &mut R,
    ) -> u128 {
        craft_plaintext_128(targets, known_round_keys, rng)
    }

    fn from_bits(v: u64, u: u64) -> Self {
        Self {
            v: v as u32,
            u: u as u32,
        }
    }
}

impl StageVictim for VictimOracle128 {
    type Key = RoundKey128;

    /// One chosen-plaintext encryption observed up to the probing moment of
    /// a stage-`stage_round` campaign: the probe fires while the victim is
    /// in round `stage_round + probing_round`, and the optional flush
    /// happens right after round `stage_round` (see
    /// the GIFT-64 [`crate::oracle::VictimOracle`]). As there, no flush
    /// phase is needed: every observation ends by flushing each monitored
    /// line right after its reload. The flush and the reload run in the
    /// attacker domain, so a way partition blinds the probe.
    fn observe_stage(&mut self, plaintext: u128, stage_round: usize) -> ObservedLines {
        self.encryptions += 1;
        let rounds = (stage_round + self.config.probing_round).min(GIFT128_ROUNDS);
        let mut state = plaintext;
        for round in 0..rounds {
            if round == stage_round && self.config.flush_after_round1 {
                self.cache.flush_all_from(Domain::Attacker);
            }
            let mut obs = CacheObserver::new(&mut self.cache);
            state = self.cipher.run_single_round(state, round, &mut obs);
        }
        let mut observed = self.empty_lines;
        self.cache
            .reload_and_flush_from(&self.probe_addrs, Domain::Attacker, |a, hit| {
                if hit {
                    observed.insert(a);
                }
            });
        observed
    }

    fn hypothesis_consistent(
        &self,
        target: &TargetSpec128,
        observed: &ObservedLines,
        v_bit: bool,
        u_bit: bool,
    ) -> bool {
        let idx = target.expected_index(v_bit, u_bit);
        observed.contains(&self.config.line_addr_of_index(idx))
    }
}

/// The outcome of a GIFT-128 full-key recovery.
#[derive(Clone, Debug)]
pub struct Attack128Outcome {
    /// The recovered, verified key.
    pub key: Option<Key>,
    /// Total encryptions consumed.
    pub encryptions: u64,
    /// Per-stage encryption counts.
    pub stage_encryptions: Vec<u64>,
}

/// Reassembles the GIFT-128 master key from two recovered round keys.
///
/// Round 1 gives `V1 = k1‖k0`, `U1 = k5‖k4`; round 2 gives `V2 = k3‖k2`,
/// `U2 = k7‖k6`.
pub fn key_from_round_keys_128(r1: RoundKey128, r2: RoundKey128) -> Key {
    Key::from_words([
        (r1.v & 0xffff) as u16,
        (r1.v >> 16) as u16,
        (r2.v & 0xffff) as u16,
        (r2.v >> 16) as u16,
        (r1.u & 0xffff) as u16,
        (r1.u >> 16) as u16,
        (r2.u & 0xffff) as u16,
        (r2.u >> 16) as u16,
    ])
}

/// Runs the complete two-stage GRINCH attack against GIFT-128.
pub fn recover_full_key_128<R: Rng + ?Sized>(
    oracle: &mut VictimOracle128,
    max_encryptions_per_stage: u64,
    rng: &mut R,
) -> Attack128Outcome {
    let verify_pt = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978u128;
    let verify_ct = oracle.known_pair(verify_pt);
    let mut stage_encryptions = Vec::new();
    let config = StageConfig::new().with_max_encryptions(max_encryptions_per_stage);

    let stage1 = run_stage(oracle, &[], 1, &config, rng);
    stage_encryptions.push(stage1.encryptions);
    let Some(rk1) = stage1.round_key() else {
        return Attack128Outcome {
            key: None,
            encryptions: oracle.encryptions(),
            stage_encryptions,
        };
    };

    let stage2 = run_stage(oracle, &[rk1], 2, &config, rng);
    stage_encryptions.push(stage2.encryptions);
    let Some(rk2) = stage2.round_key() else {
        return Attack128Outcome {
            key: None,
            encryptions: oracle.encryptions(),
            stage_encryptions,
        };
    };

    let candidate = key_from_round_keys_128(rk1, rk2);
    let verified = Gift128::new(candidate).encrypt(verify_pt) == verify_ct;
    Attack128Outcome {
        key: verified.then_some(candidate),
        encryptions: oracle.encryptions(),
        stage_encryptions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gift_cipher::key_schedule::expand_128;
    use gift_cipher::state::segment_128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> Key {
        Key::from_u128(0x0bad_c0de_1337_beef_2468_ace0_1357_9bdf)
    }

    #[test]
    fn expected_index_and_key_bits_invert() {
        for seg in 0..32 {
            for pattern in 0..16u8 {
                let spec = TargetSpec128::with_forced_pattern(1, seg, pattern);
                for v in [false, true] {
                    for u in [false, true] {
                        assert_eq!(spec.key_bits_from_index(spec.expected_index(v, u)), (v, u));
                    }
                }
            }
        }
    }

    #[test]
    fn way_partition_blinds_the_gift128_probe() {
        // The flush and the reload are the attacker's: confined to its
        // ways, they neither clear nor find the victim's lines.
        let cfg = ObservationConfig {
            cache: cache_sim::CacheConfig::grinch_default()
                .with_partition(cache_sim::WayPartition::even_split(16)),
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle128::new(key(), cfg);
        for i in 0..8u128 {
            let pt = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834);
            let observed = oracle.observe_stage(pt, 1 + (i % 2) as usize);
            assert!(observed.is_empty(), "observation {i}: {observed:?}");
        }
    }

    #[test]
    fn source_quads_are_distinct_and_partition() {
        for seg in 0..32 {
            let mut sources = TargetSpec128::new(1, seg).source_segments().to_vec();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 4, "target {seg}");
        }
        let batches = disjoint_batches_128(1);
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn batched_crafting_pins_targets() {
        let cipher = Gift128::new(key());
        let rk = cipher.round_keys()[0];
        let mut rng = StdRng::seed_from_u64(1);
        let batch = disjoint_batches_128(1)[0];
        let specs: Vec<TargetSpec128> = batch.iter().map(|&s| TargetSpec128::new(1, s)).collect();
        let pt = craft_plaintext_128(&specs, &[], &mut rng);
        let round2_input = cipher.encrypt_rounds(pt, 1);
        for spec in &specs {
            let v = (rk.v >> spec.segment) & 1 == 1;
            let u = (rk.u >> spec.segment) & 1 == 1;
            assert_eq!(
                segment_128(round2_input, spec.segment),
                spec.expected_index(v, u),
                "segment {}",
                spec.segment
            );
        }
    }

    #[test]
    fn stage2_crafting_inverts_round_one() {
        let cipher = Gift128::new(key());
        let known = &cipher.round_keys()[..1];
        let rk = cipher.round_keys()[1];
        let mut rng = StdRng::seed_from_u64(2);
        for segment in [0usize, 13, 31] {
            let spec = TargetSpec128::new(2, segment);
            let pt = craft_plaintext_128(&[spec], known, &mut rng);
            let round3_input = cipher.encrypt_rounds(pt, 2);
            let v = (rk.v >> segment) & 1 == 1;
            let u = (rk.u >> segment) & 1 == 1;
            assert_eq!(
                segment_128(round3_input, segment),
                spec.expected_index(v, u)
            );
        }
    }

    #[test]
    fn key_reassembly_inverts_schedule_prefix() {
        let k = key();
        let rks = expand_128(k, 2);
        assert_eq!(key_from_round_keys_128(rks[0], rks[1]), k);
    }

    #[test]
    fn full_gift128_key_recovery() {
        let mut oracle = VictimOracle128::new(key(), ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = recover_full_key_128(&mut oracle, 1_000_000, &mut rng);
        assert_eq!(outcome.key, Some(key()));
        assert_eq!(outcome.stage_encryptions.len(), 2);
        // Two stages instead of four: GIFT-128 should need fewer
        // encryptions than twice the GIFT-64 stage cost.
        assert!(
            outcome.encryptions < 1_500,
            "used {} encryptions",
            outcome.encryptions
        );
    }

    #[test]
    #[should_panic(expected = "Flush+Reload only")]
    fn prime_probe_config_is_rejected() {
        let config = ObservationConfig {
            strategy: ProbeStrategy::PrimeProbe,
            ..ObservationConfig::ideal()
        };
        VictimOracle128::new(key(), config);
    }

    #[test]
    #[should_panic(expected = "lookup-table cipher only")]
    fn wide_line_config_is_rejected() {
        let config = ObservationConfig {
            variant: VictimVariant::WideLine,
            ..ObservationConfig::ideal()
        };
        VictimOracle128::new(key(), config);
    }

    #[test]
    fn round_constant_hits_segment_31_msb() {
        assert!(TargetSpec128::new(1, 31).round_constant_bit());
        assert!(!TargetSpec128::new(1, 30).round_constant_bit());
        assert!(TargetSpec128::new(1, 0).round_constant_bit()); // RC1 = 0x01
    }
}
