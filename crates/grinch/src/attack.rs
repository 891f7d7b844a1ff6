//! The full GRINCH attack: four stages, candidate search, verification.
//!
//! Rounds 1–4 of GIFT-64 together consume all eight 16-bit key words
//! (`(k1,k0)`, `(k3,k2)`, `(k5,k4)`, `(k7,k6)`), so recovering four
//! consecutive round keys *is* recovering the 128-bit master key. The
//! attack runs the stages in order, feeding each stage the round keys
//! recovered so far (Step 5); if coarse cache lines leave residual
//! ambiguity, the candidate combinations are searched depth-first and every
//! complete key is checked against one known plaintext/ciphertext pair.

use crate::oracle::VictimOracle;
use crate::stage::{run_stage, StageConfig, StageResult};
use gift_cipher::bitslice::{BitslicedGift64, LANES};
use gift_cipher::bitwise::Gift64;
use gift_cipher::key_schedule::{Key, RoundKey64};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of stages (= rounds attacked = key words / 2).
pub const STAGES: usize = 4;

/// Configuration of a full-key recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackConfig {
    /// Per-stage tuning.
    pub stage: StageConfig,
    /// Maximum number of full-round-key candidates a single stage may leave
    /// for the depth-first search (the paper's "assume all possibilities",
    /// bounded).
    pub max_candidates_per_stage: u64,
    /// Plaintext used for the final known-pair verification.
    pub verification_plaintext: u64,
}

impl AttackConfig {
    /// Defaults matching the paper's ideal setting.
    pub fn new() -> Self {
        Self {
            stage: StageConfig::new(),
            max_candidates_per_stage: 1 << 12,
            verification_plaintext: 0x0123_4567_89ab_cdef,
        }
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of a full-key recovery attempt.
#[derive(Clone, Debug)]
pub struct AttackOutcome {
    /// The recovered and verified 128-bit key, if successful.
    pub key: Option<Key>,
    /// Total victim encryptions consumed (the paper's headline metric:
    /// "the full key could be recovered with less than 400 encryptions").
    pub encryptions: u64,
    /// Encryptions consumed by each stage (first search path).
    pub stage_encryptions: Vec<u64>,
    /// Whether any stage hit its encryption cap.
    pub capped: bool,
}

/// Reassembles the master key from the four recovered round keys.
///
/// Round `t`'s key is `(V, U) = (k_{2t-2}, k_{2t-1})`, so the word vector is
/// `[r1.v, r1.u, r2.v, r2.u, r3.v, r3.u, r4.v, r4.u]`.
pub fn key_from_round_keys(round_keys: &[RoundKey64; STAGES]) -> Key {
    let mut words = [0u16; 8];
    for (t, rk) in round_keys.iter().enumerate() {
        words[2 * t] = rk.v;
        words[2 * t + 1] = rk.u;
    }
    Key::from_words(words)
}

/// Runs the complete four-stage GRINCH attack against `oracle`.
///
/// Returns the verified key (or `None` if the observation channel did not
/// determine it within the configured budgets) together with the encryption
/// counts the paper's experiments report.
pub fn recover_full_key(oracle: &mut VictimOracle, config: &AttackConfig) -> AttackOutcome {
    let telemetry = oracle.telemetry().clone();
    let _span = grinch_telemetry::span!(telemetry, "attack.recover_full_key", stages = STAGES);
    let key_recovered = telemetry.register_gauge("attack.key_recovered");
    let mut rng = StdRng::seed_from_u64(config.stage.seed);
    // One encryption for the verification pair.
    let verify_pt = config.verification_plaintext;
    let verify_ct = oracle.known_pair(verify_pt);

    let mut stage_encryptions = Vec::new();
    let mut capped = false;
    let key = search(
        oracle,
        config,
        &mut rng,
        Vec::new(),
        verify_pt,
        verify_ct,
        &mut stage_encryptions,
        &mut capped,
    );
    telemetry.set(key_recovered, if key.is_some() { 1.0 } else { 0.0 });
    AttackOutcome {
        key,
        encryptions: oracle.encryptions(),
        stage_encryptions,
        capped,
    }
}

/// Depth-first search over residual per-stage candidates.
#[allow(clippy::too_many_arguments)]
fn search(
    oracle: &mut VictimOracle,
    config: &AttackConfig,
    rng: &mut StdRng,
    known: Vec<RoundKey64>,
    verify_pt: u64,
    verify_ct: u64,
    stage_encryptions: &mut Vec<u64>,
    capped: &mut bool,
) -> Option<Key> {
    if known.len() == STAGES {
        let rks: [RoundKey64; STAGES] = [known[0], known[1], known[2], known[3]];
        let candidate = key_from_round_keys(&rks);
        let cipher = Gift64::new(candidate);
        return (cipher.encrypt(verify_pt) == verify_ct).then_some(candidate);
    }
    let stage_round = known.len() + 1;
    let result: StageResult = run_stage(oracle, &known, stage_round, &config.stage, rng);
    if stage_encryptions.len() < stage_round {
        stage_encryptions.push(result.encryptions);
    }
    *capped |= result.capped;
    let candidates = result.enumerate_round_keys(config.max_candidates_per_stage)?;
    if stage_round == STAGES {
        // Final stage: every candidate completes a full key, so instead of
        // recursing once per candidate the whole set is verified against the
        // known pair in bitsliced chunks — one sliced encryption checks up
        // to 64 keys. DFS order is preserved (first verifying candidate
        // wins), so the result is identical to the scalar search.
        return verify_final_candidates(&known, &candidates, verify_pt, verify_ct);
    }
    for rk in candidates {
        let mut next = known.clone();
        next.push(rk);
        if let Some(key) = search(
            oracle,
            config,
            rng,
            next,
            verify_pt,
            verify_ct,
            stage_encryptions,
            capped,
        ) {
            return Some(key);
        }
    }
    None
}

/// Verifies the final-stage candidates against the known pair.
///
/// A single candidate (the common, fully-resolved case) takes the scalar
/// reference path; residual ambiguity is ground through
/// [`BitslicedGift64::per_lane`] in chunks of up to [`LANES`] keys, one
/// sliced encryption per chunk.
fn verify_final_candidates(
    known: &[RoundKey64],
    finals: &[RoundKey64],
    verify_pt: u64,
    verify_ct: u64,
) -> Option<Key> {
    debug_assert_eq!(known.len(), STAGES - 1);
    let full_key = |rk: RoundKey64| key_from_round_keys(&[known[0], known[1], known[2], rk]);
    if let [only] = finals {
        let candidate = full_key(*only);
        return (Gift64::new(candidate).encrypt(verify_pt) == verify_ct).then_some(candidate);
    }
    let mut keys: Vec<Key> = Vec::with_capacity(LANES);
    for chunk in finals.chunks(LANES) {
        keys.clear();
        keys.extend(chunk.iter().map(|&rk| full_key(rk)));
        let sliced = BitslicedGift64::per_lane(&keys);
        let mut blocks = [verify_pt; LANES];
        sliced.encrypt_blocks(&mut blocks);
        if let Some(i) = blocks[..chunk.len()].iter().position(|&ct| ct == verify_ct) {
            return Some(keys[i]);
        }
    }
    None
}

/// Key-schedule redundancy check — verification **without** a known
/// plaintext/ciphertext pair.
///
/// GIFT-64's schedule reuses the round-1 words in round 5 with local
/// rotations: `V₅ = k0 ⋙ 12`, `U₅ = k1 ⋙ 2`. After the four stages an
/// attacker can therefore run a *fifth* stage (crafting through the four
/// now-known rounds) and check the recovered round-5 key against the
/// rotation of the stage-1 result. Agreement confirms the whole recovery
/// using only the side channel itself — useful when no ciphertext ever
/// leaves the device (e.g. a MAC-only deployment).
///
/// Returns `Some(true)` when round 5 was recovered and matches,
/// `Some(false)` on a mismatch, and `None` when the fifth stage did not
/// resolve within its budget.
pub fn redundant_schedule_check(
    oracle: &mut VictimOracle,
    recovered: &[RoundKey64; STAGES],
    config: &AttackConfig,
) -> Option<bool> {
    let mut rng = StdRng::seed_from_u64(config.stage.seed ^ 0x5);
    let result = run_stage(oracle, recovered, STAGES + 1, &config.stage, &mut rng);
    let rk5 = result.round_key()?;
    let expected = RoundKey64 {
        v: recovered[0].v.rotate_right(12),
        u: recovered[0].u.rotate_right(2),
    };
    Some(rk5 == expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ObservationConfig, ProbeStrategy, VictimVariant};
    use gift_cipher::key_schedule::expand_64;

    #[test]
    fn key_reassembly_inverts_key_schedule_prefix() {
        let key = Key::from_u128(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10);
        let rks = expand_64(key, 4);
        let rebuilt = key_from_round_keys(&[rks[0], rks[1], rks[2], rks[3]]);
        assert_eq!(rebuilt, key);
    }

    #[test]
    fn full_key_recovery_in_ideal_setting() {
        let secret = Key::from_u128(0x00ff_11ee_22dd_33cc_44bb_55aa_6699_7788);
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
        assert_eq!(outcome.key, Some(secret));
        assert!(!outcome.capped);
        assert_eq!(outcome.stage_encryptions.len(), 4);
        // The paper's headline: full key in < 400 encryptions at probing
        // round 1. Our implementation should be the same order of magnitude.
        assert!(
            outcome.encryptions < 1_200,
            "used {} encryptions",
            outcome.encryptions
        );
    }

    #[test]
    fn redundant_schedule_check_confirms_a_correct_recovery() {
        let secret = Key::from_u128(0x3141_5926_5358_9793_2384_6264_3383_2795);
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let config = AttackConfig::new();
        let outcome = recover_full_key(&mut oracle, &config);
        assert_eq!(outcome.key, Some(secret));
        let rks = expand_64(secret, 4);
        let recovered = [rks[0], rks[1], rks[2], rks[3]];
        assert_eq!(
            redundant_schedule_check(&mut oracle, &recovered, &config),
            Some(true)
        );
    }

    #[test]
    fn redundant_schedule_check_flags_a_wrong_round_one() {
        let secret = Key::from_u128(0x2718_2818_2845_9045_2353_6028_7471_3527);
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        let mut config = AttackConfig::new();
        // A wrong prefix usually empties the candidate sets quickly; the
        // cap only bounds the pathological stall case.
        config.stage = config.stage.with_max_encryptions(20_000);
        let rks = expand_64(secret, 4);
        let mut wrong = [rks[0], rks[1], rks[2], rks[3]];
        // Flip one recovered stage-1 bit. The fifth stage then crafts
        // through a wrong round-1 key, so its predictions are offset by a
        // constant: it either resolves to a key that mismatches the
        // rotation or fails to resolve, and both reject.
        wrong[0].v ^= 0x0040;
        assert_ne!(
            redundant_schedule_check(&mut oracle, &wrong, &config),
            Some(true)
        );
    }

    #[test]
    fn telemetry_captures_the_whole_recovery() {
        let secret = Key::from_u128(0x00ff_11ee_22dd_33cc_44bb_55aa_6699_7788);
        let tel = grinch_telemetry::Telemetry::new();
        let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
        oracle.set_telemetry(tel.clone());
        let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
        assert_eq!(outcome.key, Some(secret));
        // Counters mirror the oracle's own effort metric.
        assert_eq!(tel.counter("attack.encryptions"), outcome.encryptions);
        assert!(tel.counter("attack.probes") > 0);
        assert!(tel.counter("attack.eliminations") >= 4 * 16 * 3);
        // Entropy gauges end at zero for every resolved stage. The names are
        // rendered once into handles (the same registry slots the stage
        // driver writes through) instead of formatting per read.
        let entropy_gauges: Vec<_> = (1..=STAGES)
            .map(|stage| tel.register_gauge(&format!("attack.entropy_bits.stage{stage}")))
            .collect();
        for (stage, gauge) in entropy_gauges.into_iter().enumerate() {
            assert_eq!(tel.gauge_of(gauge), Some(0.0), "stage {}", stage + 1);
        }
        assert_eq!(
            tel.gauge_of(tel.register_gauge("attack.key_recovered")),
            Some(1.0)
        );
        // The stage spans nest under the root recovery span and close in
        // simulated time.
        let snap = tel.snapshot();
        let root = &snap.spans[0];
        assert_eq!(root.name, "attack.recover_full_key");
        let stages: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "attack.stage")
            .collect();
        assert!(stages.len() >= STAGES);
        for s in &stages {
            assert_eq!(s.parent, Some(root.id));
            assert!(s.end_ns.expect("closed") >= s.start_ns);
        }
        assert!(root.end_ns.expect("closed") > 0);
        // Cache activity from the shared L1 is visible too.
        assert!(tel.counter("cache.l1.hits") > 0);
        assert!(tel.counter("cache.l1.flushes") > 0);
    }

    #[test]
    fn full_key_recovery_with_prime_probe() {
        let secret = Key::from_u128(0xdead_beef_cafe_f00d_0123_4567_89ab_cdef);
        let cfg = ObservationConfig {
            strategy: ProbeStrategy::PrimeProbe,
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(secret, cfg);
        let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
        assert_eq!(outcome.key, Some(secret));
    }

    #[test]
    fn wide_line_countermeasure_defeats_recovery() {
        let secret = Key::from_u128(0x1111_2222_3333_4444_5555_6666_7777_8888);
        let cfg = ObservationConfig {
            layout: gift_cipher::TableLayout::new(0x400),
            cache: cache_sim::CacheConfig::grinch_default().with_words_per_line(8),
            variant: VictimVariant::WideLine,
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(secret, cfg);
        let mut config = AttackConfig::new();
        // Keep the hopeless search bounded.
        config.stage = config.stage.with_max_encryptions(2_000);
        config.max_candidates_per_stage = 16;
        let outcome = recover_full_key(&mut oracle, &config);
        assert_eq!(outcome.key, None, "countermeasure must block recovery");
    }

    #[test]
    fn masked_schedule_countermeasure_defeats_recovery() {
        let secret = Key::from_u128(0x9999_8888_7777_6666_5555_4444_3333_2222);
        let cfg = ObservationConfig {
            variant: VictimVariant::MaskedSchedule,
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(secret, cfg);
        let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
        // The stages recover *masked* round keys; reassembly and
        // verification against the true cipher pair must fail.
        assert_eq!(outcome.key, None);
    }
}
