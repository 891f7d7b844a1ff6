//! One GRINCH stage: recovering the round-key bits of one round.
//!
//! A GIFT-64 stage attacks the 16 target segments of round `t + 1`.
//! Targets whose source quads are disjoint share encryptions (one crafted
//! plaintext can pin four targets at once — see
//! [`crate::target::disjoint_batches`]), so a stage runs four batches of
//! four concurrent campaigns; a GIFT-128 stage runs four batches of eight.
//!
//! [`run_stage`] is the crate's one copy of this schedule. Every victim —
//! the GIFT-64 and GIFT-128 oracles, the MPSoC co-simulation and the
//! two-level hierarchy — implements [`StageVictim`] with only its
//! observation and line test, so an attacker change reaches all of them.
//!
//! Within a batch the forced patterns rotate through all 16 values. With
//! one-word cache lines the first pattern already separates all four
//! hypotheses; with coarser lines each pattern maps the four candidate
//! indices onto lines differently (the 16-byte table is generally not
//! line-aligned, so candidate indices straddle line boundaries), and the
//! *combination* of observations across patterns pins the key bits — the
//! paper's "the attacker can continue … and assume all possibilities"
//! handled constructively. Hypotheses that remain inseparable (e.g. a
//! line-aligned table wider than the index range) are returned as residual
//! candidates for the caller to brute-force against a known pair.
//!
//! Step 3 learns only from absent lines, so a channel that shows every
//! monitored line (a defense saturating the probe) teaches nothing. A
//! victim that can say what a working channel would show
//! ([`StageVictim::silence_model`]) lets the stage stop as *blind* once the
//! observations have stayed silent for longer than a working channel would
//! with probability above 2^-40 ([`silence_window`]); a blind stop keeps
//! every candidate, like the cap.

use crate::craft::craft_plaintext;
use crate::eliminate::CandidateSet;
use crate::oracle::ObservedLines;
use crate::target::{disjoint_batches, TargetSpec};
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::GIFT64_SEGMENTS;
use grinch_telemetry::Telemetry;
use rand::Rng;

/// Consecutive no-progress encryptions after which a batch rotates to its
/// next forced pattern, in the first sweep.
const STALL_LIMIT: u64 = 24;
/// Forced-pattern rotations per sweep.
const PATTERNS_PER_SWEEP: usize = 16;
/// After a sweep over all patterns leaves the batch unresolved, the stall
/// limit is multiplied by this factor and the sweep repeats (until the
/// encryption cap). Coarse cache lines need rare all-miss events to
/// eliminate wide noise lines, so patience must escalate.
const STALL_GROWTH: u64 = 8;
/// The blind stop's false-stop bound, in bits: a working channel stays
/// silent for a whole [`silence_window`] with probability at most
/// `2^-BLIND_STOP_BITS`.
const BLIND_STOP_BITS: f64 = 40.0;

/// The settings of a stage that differ between callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageConfig {
    /// Hard cap on the number of encryptions a stage may spend; beyond it
    /// the stage reports whatever candidates remain (the paper drops out
    /// at 1 M).
    pub max_encryptions: u64,
    /// RNG seed (campaigns are deterministic given the seed).
    pub seed: u64,
}

impl StageConfig {
    /// Defaults for the paper's default platform (probing round 1,
    /// one-word lines).
    pub fn new() -> Self {
        Self {
            max_encryptions: 1_000_000,
            seed: 0x6772_696e_6368, // "grinch"
        }
    }

    /// Sets the encryption cap.
    pub fn with_max_encryptions(mut self, max: u64) -> Self {
        self.max_encryptions = max;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for StageConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The cipher width a stage attacks, named by the round key it recovers:
/// [`RoundKey64`] for GIFT-64 (16 segments, four targets per crafted
/// plaintext) or [`gift_cipher::key_schedule::RoundKey128`] for GIFT-128
/// (32 segments, eight). It supplies Algorithm 2's crafting for that width
/// and assembles a round key from per-segment key bits.
pub trait StageKey: Copy + std::fmt::Debug {
    /// A plaintext block.
    type Block: Copy;
    /// One campaign target.
    type Target;
    /// One candidate set per segment; the default is every set full.
    type Candidates: Copy
        + Default
        + std::fmt::Debug
        + AsRef<[CandidateSet]>
        + AsMut<[CandidateSet]>;
    /// The segments of one batch, whose source quads are pairwise
    /// disjoint.
    type Batch: AsRef<[usize]>;

    /// The four batches covering every segment of stage `stage_round`.
    fn disjoint_batches(stage_round: usize) -> [Self::Batch; 4];

    /// The target for `segment` with the forced bits `pattern`.
    fn target(stage_round: usize, segment: usize, pattern: u8) -> Self::Target;

    /// A plaintext pinning every target of one batch, crafted through the
    /// known earlier round keys.
    fn craft<R: Rng + ?Sized>(
        targets: &[Self::Target],
        known_round_keys: &[Self],
        rng: &mut R,
    ) -> Self::Block;

    /// The round key whose segment-`s` bits are bit `s` of `v` and `u`.
    fn from_bits(v: u64, u: u64) -> Self;
}

impl StageKey for RoundKey64 {
    type Block = u64;
    type Target = TargetSpec;
    type Candidates = [CandidateSet; GIFT64_SEGMENTS];
    type Batch = [usize; 4];

    fn disjoint_batches(stage_round: usize) -> [[usize; 4]; 4] {
        disjoint_batches(stage_round)
    }

    fn target(stage_round: usize, segment: usize, pattern: u8) -> TargetSpec {
        TargetSpec::with_forced_pattern(stage_round, segment, pattern)
    }

    fn craft<R: Rng + ?Sized>(
        targets: &[TargetSpec],
        known_round_keys: &[RoundKey64],
        rng: &mut R,
    ) -> u64 {
        craft_plaintext(targets, known_round_keys, rng)
            .expect("batched targets have disjoint sources")
    }

    fn from_bits(v: u64, u: u64) -> Self {
        Self {
            v: v as u16,
            u: u as u16,
        }
    }
}

/// A victim the stage loop attacks: one chosen-plaintext encryption per
/// observation, and the line test that turns an observation into
/// eliminated hypotheses (paper Steps 2 and 3).
pub trait StageVictim {
    /// The round key a stage recovers, which fixes the cipher width.
    type Key: StageKey;

    /// Encrypts `plaintext` once and returns the monitored S-box lines the
    /// probe found resident, for a stage-`stage_round` campaign (the
    /// signal is round `stage_round + 1`'s lookups).
    fn observe_stage(
        &mut self,
        plaintext: <Self::Key as StageKey>::Block,
        stage_round: usize,
    ) -> ObservedLines;

    /// Whether hypothesis `(v_bit, u_bit)` for `target` is consistent with
    /// `observed`: the line it predicts must be present (absence refutes
    /// it).
    fn hypothesis_consistent(
        &self,
        target: &<Self::Key as StageKey>::Target,
        observed: &ObservedLines,
        v_bit: bool,
        u_bit: bool,
    ) -> bool;

    /// The telemetry a stage publishes its feed into, with the number of
    /// monitored lines the joint (pattern, line) counters span. `None`, the
    /// default, keeps the stage silent, as does a disabled handle.
    fn stage_telemetry(&self) -> Option<(Telemetry, usize)> {
        None
    }

    /// What a working channel would show in a stage-`stage_round`
    /// observation whose crafting forces `forced` accesses, for the blind
    /// stop. `None`, the default, means no model: the stage runs until it
    /// resolves, refutes every hypothesis or hits its cap.
    fn silence_model(&self, stage_round: usize, forced: usize) -> Option<SilenceModel> {
        let _ = (stage_round, forced);
        None
    }
}

/// What a working channel would show, from the victim's observation
/// geometry ([`StageVictim::silence_model`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SilenceModel {
    /// The monitored lines: an observation holding this many is silent.
    pub lines: usize,
    /// A lower bound on the probability that a working channel shows at
    /// least one absent line in one observation (see
    /// [`crate::analysis::forced_batch_absence_bound`]).
    pub absence_floor: f64,
}

/// The number of consecutive silent observations after which a stage stops
/// as blind, for a channel whose observations show an absent line with
/// probability at least `absence_floor`: the least `n` with
/// `(1 − absence_floor)^n ≤ 2^-40`, i.e. `ceil(40·ln2 / −ln(1 − q))`.
///
/// `None` when `absence_floor` is 0: a channel that may stay silent forever
/// gives no window, and the stage never stops as blind.
pub fn silence_window(absence_floor: f64) -> Option<u64> {
    (absence_floor > 0.0).then(|| {
        let window = BLIND_STOP_BITS * std::f64::consts::LN_2 / -(-absence_floor).ln_1p();
        // `as` saturates a window beyond `u64::MAX`.
        (window.ceil() as u64).max(1)
    })
}

/// The result of one stage.
#[derive(Clone, Debug)]
pub struct StageResult<K: StageKey = RoundKey64> {
    /// Per-segment surviving `(v, u)` hypotheses.
    pub candidates: K::Candidates,
    /// Encryptions this stage consumed.
    pub encryptions: u64,
    /// Whether the stage stopped before resolving: at its encryption cap,
    /// with every hypothesis of a segment refuted, or blind.
    pub capped: bool,
    /// Whether the stage stopped because its observations stayed silent
    /// for a whole [`silence_window`]: the channel is blind, not short of
    /// encryptions. Implies `capped`.
    pub blind: bool,
}

impl<K: StageKey> StageResult<K> {
    /// Whether every segment resolved to a single hypothesis.
    pub fn is_resolved(&self) -> bool {
        self.candidates
            .as_ref()
            .iter()
            .all(CandidateSet::is_resolved)
    }

    /// The unique round key, if fully resolved.
    pub fn round_key(&self) -> Option<K> {
        if !self.is_resolved() {
            return None;
        }
        let mut v = 0u64;
        let mut u = 0u64;
        for (s, set) in self.candidates.as_ref().iter().enumerate() {
            let (vb, ub) = set.resolved().expect("resolved");
            v |= u64::from(vb) << s;
            u |= u64::from(ub) << s;
        }
        Some(K::from_bits(v, u))
    }

    /// Total number of round-key candidates (the product of the per-segment
    /// survivor counts), saturating at `u64::MAX`.
    pub fn candidate_count(&self) -> u64 {
        self.candidates
            .as_ref()
            .iter()
            .map(|c| c.len() as u64)
            .try_fold(1u64, |acc, n| acc.checked_mul(n))
            .unwrap_or(u64::MAX)
    }

    /// Enumerates up to `limit` full round-key candidates (cartesian product
    /// of the per-segment survivors, the last segment varying fastest).
    /// Returns `None` if the product exceeds `limit` (too ambiguous to
    /// brute-force).
    pub fn enumerate_round_keys(&self, limit: u64) -> Option<Vec<K>> {
        if self.candidate_count() > limit {
            return None;
        }
        let mut bits = vec![(0u64, 0u64)];
        for (s, set) in self.candidates.as_ref().iter().enumerate() {
            bits = bits
                .iter()
                .flat_map(|&(v, u)| {
                    set.survivors()
                        .iter()
                        .map(move |&(vb, ub)| (v | u64::from(vb) << s, u | u64::from(ub) << s))
                })
                .collect();
        }
        Some(bits.into_iter().map(|(v, u)| K::from_bits(v, u)).collect())
    }
}

/// Runs stage `stage_round` against `oracle`, recovering that round's key
/// bits given the round keys of all earlier rounds.
///
/// This is the one implementation of the batch, forced-pattern-rotation
/// and stall-escalation schedule; every victim of the crate runs it.
///
/// # Panics
///
/// Panics if `known_round_keys.len() != stage_round - 1`.
pub fn run_stage<V: StageVictim, R: Rng + ?Sized>(
    oracle: &mut V,
    known_round_keys: &[V::Key],
    stage_round: usize,
    config: &StageConfig,
    rng: &mut R,
) -> StageResult<V::Key> {
    assert_eq!(
        known_round_keys.len(),
        stage_round - 1,
        "stage {stage_round} needs {} known round keys",
        stage_round - 1
    );
    // Encryptions this stage has spent: one per observation.
    let mut spent = 0u64;
    let (telemetry, lines) = oracle
        .stage_telemetry()
        .unwrap_or_else(|| (Telemetry::disabled(), 0));
    let _span = grinch_telemetry::span!(telemetry, "attack.stage", round = stage_round);
    let entropy_gauge = telemetry.is_enabled().then(|| {
        (
            telemetry.register_gauge(&format!("attack.entropy_bits.stage{stage_round}")),
            telemetry.register_counter("attack.eliminations"),
        )
    });
    // Observability feed for `grinch-obs`: joint (forced pattern, observed
    // line) counts drive the per-stage mutual-information estimate, the
    // elimination histogram the entropy-vs-probe trajectory. All slots are
    // registered (names rendered) once, before the campaign loop.
    let obs_handles = telemetry.is_enabled().then(|| {
        let joint: Vec<Vec<grinch_telemetry::CounterHandle>> = (0..16)
            .map(|p| {
                (0..lines)
                    .map(|l| {
                        telemetry.register_counter(&format!(
                            "attack.stage{stage_round}.joint.p{p:x}.l{l:02}"
                        ))
                    })
                    .collect()
            })
            .collect();
        (
            joint,
            telemetry.register_counter(&format!("attack.stage{stage_round}.eliminations")),
            telemetry.register_histogram(&format!(
                "attack.stage{stage_round}.elimination_encryptions"
            )),
        )
    });
    let batches = V::Key::disjoint_batches(stage_round);
    // The blind stop: the monitored-line count and the silence window,
    // when the victim models a working channel and the window is finite.
    let blind_stop = oracle
        .silence_model(stage_round, batches[0].as_ref().len())
        .and_then(|model| Some((model.lines, silence_window(model.absence_floor)?)));
    // Consecutive observations showing every monitored line, across
    // pattern rotations and batches.
    let mut silent = 0u64;
    let mut candidates: <V::Key as StageKey>::Candidates = Default::default();
    let mut capped = false;
    let mut blind = false;
    if let Some((gauge, _)) = entropy_gauge {
        telemetry.set(gauge, entropy_bits(candidates.as_ref()));
    }
    // Scratch reused across every observation of the stage: the targets
    // and their forced patterns are rewritten in place instead of
    // reallocated per rotation.
    let mut targets = Vec::with_capacity(8);
    let mut patterns: Vec<u8> = Vec::with_capacity(8);

    'batches: for batch in batches {
        let batch = batch.as_ref();
        let mut stall_limit = STALL_LIMIT;
        loop {
            for pattern_rotation in 0..PATTERNS_PER_SWEEP {
                if resolved(candidates.as_ref(), batch) {
                    break;
                }
                // Each segment gets its own forced pattern. The first
                // campaign uses the paper's all-ones forcing; later ones
                // RANDOMISE the patterns: co-batched campaigns emit
                // constant signal indices, and with any fixed pattern
                // lattice a rival hypothesis can be permanently shadowed by
                // a signal that always lands on its predicted line.
                // Randomisation makes every shadow transient.
                targets.clear();
                patterns.clear();
                for &s in batch {
                    let pattern = if pattern_rotation == 0 {
                        0b1111
                    } else {
                        rng.gen_range(0..16u8)
                    };
                    patterns.push(pattern);
                    targets.push(V::Key::target(stage_round, s, pattern));
                }
                let mut stall = 0u64;
                while stall < stall_limit {
                    if spent >= config.max_encryptions {
                        capped = true;
                        break 'batches;
                    }
                    if resolved(candidates.as_ref(), batch) {
                        break;
                    }
                    let pt = V::Key::craft(&targets, known_round_keys, rng);
                    let observed = oracle.observe_stage(pt, stage_round);
                    spent += 1;
                    if let Some((joint, _, _)) = &obs_handles {
                        // Joint (pattern, line) counts: with a leaky victim
                        // the forced pattern determines the signal line, so
                        // the profiler's I(pattern; line) comes out high;
                        // pattern-independent footprints (preload, wide
                        // lines) drive it towards zero. The observation's
                        // bits are the line indices, and the whole feed
                        // publishes under a single registry lock.
                        if let Some(mut b) = telemetry.batch() {
                            for &p in &patterns {
                                for l in observed.line_indices() {
                                    b.inc(joint[usize::from(p)][l]);
                                }
                            }
                        }
                    }
                    let mut progressed = 0;
                    for (&s, target) in batch.iter().zip(&targets) {
                        progressed += candidates.as_mut()[s]
                            .retain(|v, u| oracle.hypothesis_consistent(target, &observed, v, u));
                    }
                    if progressed == 0 {
                        stall += 1;
                    } else {
                        stall = 0;
                        // All four progress metrics publish under one guard.
                        if let Some(mut b) = telemetry.batch() {
                            if let Some((gauge, eliminations)) = entropy_gauge {
                                b.add(eliminations, progressed as u64);
                                b.set(gauge, entropy_bits(candidates.as_ref()));
                            }
                            if let Some((_, eliminations, trajectory)) = &obs_handles {
                                b.add(*eliminations, progressed as u64);
                                b.record(*trajectory, spent);
                            }
                        }
                    }
                    if batch.iter().any(|&s| candidates.as_ref()[s].is_empty()) {
                        // Every hypothesis refuted: the observation channel
                        // is broken (noise or a countermeasure); burning
                        // more encryptions cannot help.
                        capped = true;
                        break 'batches;
                    }
                    if let Some((lines, window)) = blind_stop {
                        // Silence eliminates nothing, so stopping keeps
                        // every candidate; a working channel would have
                        // shown an absent line by now (2^-40 bound).
                        silent = if observed.len() == lines {
                            silent + 1
                        } else {
                            0
                        };
                        if silent >= window {
                            capped = true;
                            blind = true;
                            break 'batches;
                        }
                    }
                }
            }
            if resolved(candidates.as_ref(), batch) {
                break;
            }
            // Unresolved after a full pattern sweep: escalate patience —
            // wide noise lines are only eliminated by rare all-miss
            // encryptions, so each sweep waits longer before rotating.
            stall_limit = stall_limit.saturating_mul(STALL_GROWTH);
        }
    }

    StageResult {
        candidates,
        encryptions: spent,
        capped,
        blind,
    }
}

/// Whether every segment of `batch` resolved to a single hypothesis.
fn resolved(candidates: &[CandidateSet], batch: &[usize]) -> bool {
    batch.iter().all(|&s| candidates[s].is_resolved())
}

/// Shannon entropy (in bits) still in the per-segment candidate sets: the
/// log2 of the number of round-key combinations not yet eliminated. Starts
/// at 32 (four hypotheses in each of 16 segments) and reaches 0 when the
/// round key is pinned.
fn entropy_bits(candidates: &[CandidateSet]) -> f64 {
    candidates
        .iter()
        .map(|c| (c.len().max(1) as f64).log2())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ObservationConfig, VictimOracle};
    use gift_cipher::bitwise::Gift64;
    use gift_cipher::Key;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> Key {
        Key::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210)
    }

    #[test]
    fn stage1_recovers_first_round_key_exactly() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_stage(&mut oracle, &[], 1, &StageConfig::new(), &mut rng);
        assert!(result.is_resolved(), "stage 1 should fully resolve");
        assert!(!result.capped);
        let expected = Gift64::new(key()).round_keys()[0];
        assert_eq!(result.round_key(), Some(expected));
        // Paper scale: ~100 encryptions for 32 bits in the ideal setting.
        assert!(
            result.encryptions < 600,
            "stage used {} encryptions",
            result.encryptions
        );
    }

    #[test]
    fn stage2_uses_known_round1_key() {
        let reference = Gift64::new(key());
        let known = &reference.round_keys()[..1];
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_stage(&mut oracle, known, 2, &StageConfig::new(), &mut rng);
        assert!(result.is_resolved());
        assert_eq!(result.round_key(), Some(reference.round_keys()[1]));
    }

    #[test]
    fn encryption_cap_is_respected() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = StageConfig::new().with_max_encryptions(5);
        let result = run_stage(&mut oracle, &[], 1, &cfg, &mut rng);
        assert!(result.capped);
        assert!(result.encryptions <= 5);
        assert!(!result.is_resolved());
        assert!(result.candidate_count() > 1);
    }

    #[test]
    fn enumerate_round_keys_respects_limit_and_contains_truth() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = StageConfig::new().with_max_encryptions(12);
        let result = run_stage(&mut oracle, &[], 1, &cfg, &mut rng);
        let count = result.candidate_count();
        if count <= 1 << 16 {
            let keys = result.enumerate_round_keys(1 << 16).expect("within limit");
            assert_eq!(keys.len() as u64, count);
            let truth = Gift64::new(key()).round_keys()[0];
            assert!(keys.contains(&truth));
        }
        assert_eq!(result.enumerate_round_keys(0), None);
    }

    #[test]
    fn stage_publishes_per_line_and_joint_observability_counters() {
        let tel = grinch_telemetry::Telemetry::new();
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        oracle.set_telemetry(tel.clone());
        let mut rng = StdRng::seed_from_u64(6);
        let result = run_stage(&mut oracle, &[], 1, &StageConfig::new(), &mut rng);
        assert!(result.is_resolved());

        let snap = tel.snapshot();
        // Per-line probe-hit counters cover the stage and sum to the
        // stage's probe hits.
        let line_hits: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("attack.stage1.line_hits."))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(line_hits, snap.counter("attack.stage1.probe_hits"));
        assert!(line_hits > 0);
        // Joint (pattern, line) counters exist and stay within bounds.
        let joint: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("attack.stage1.joint."))
            .map(|(_, v)| *v)
            .sum();
        assert!(joint > 0, "joint counters must be populated");
        // Per-stage totals mirror the stage result.
        assert_eq!(
            snap.counter("attack.stage1.encryptions"),
            result.encryptions
        );
        assert_eq!(snap.counter("attack.stage1.eliminations"), 48);
        let trajectory = snap
            .histogram("attack.stage1.elimination_encryptions")
            .expect("trajectory histogram");
        assert!(trajectory.count() > 0);
        assert!(trajectory.max().unwrap() <= result.encryptions);
    }

    /// The silence window of a GIFT-64 oracle's stage-`stage_round`
    /// observations; `u64::MAX` stands for no window.
    fn window(config: ObservationConfig, stage_round: usize) -> u64 {
        let oracle = VictimOracle::new(key(), config);
        let model = oracle.silence_model(stage_round, 4).expect("modelled");
        silence_window(model.absence_floor).unwrap_or(u64::MAX)
    }

    #[test]
    fn silence_window_is_45_observations_at_the_ideal_setting() {
        assert_eq!(window(ObservationConfig::ideal(), 1), 45);
        // The flush leaves the earlier rounds out of the window, so every
        // stage gets the same one.
        assert_eq!(window(ObservationConfig::ideal(), 4), 45);
        assert_eq!(silence_window(1.0), Some(1));
    }

    #[test]
    fn silence_window_grows_with_the_probing_round_and_the_line_width() {
        // Strictly increasing until there is no window (`u64::MAX`).
        let increasing = |w: &[u64]| w.windows(2).all(|p| p[0] < p[1] || p[1] == u64::MAX);
        for flush in [true, false] {
            for stage_round in 1..=4 {
                let at = |k: usize, words: usize| {
                    let config = ObservationConfig::ideal()
                        .with_flush(flush)
                        .with_probing_round(k)
                        .with_words_per_line(words);
                    window(config, stage_round)
                };
                for words in [1, 2, 4, 8, 16] {
                    let by_round: Vec<u64> = (1..=8).map(|k| at(k, words)).collect();
                    assert!(
                        increasing(&by_round),
                        "{words}-word lines, flush {flush}, stage {stage_round}: {by_round:?}"
                    );
                }
                for k in 1..=8 {
                    let by_width = [1, 2, 4, 8, 16].map(|words| at(k, words));
                    assert!(
                        increasing(&by_width),
                        "probing round {k}, flush {flush}, stage {stage_round}: {by_width:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn silence_window_is_none_when_forced_accesses_cover_every_line() {
        assert_eq!(silence_window(0.0), None);
        // The misaligned 16-byte table spans three 8-byte lines and two
        // 16-byte ones: four forced accesses can cover them all.
        for words in [8, 16] {
            let config = ObservationConfig::ideal().with_words_per_line(words);
            let oracle = VictimOracle::new(key(), config);
            let model = oracle.silence_model(1, 4).expect("modelled");
            assert_eq!(model.absence_floor, 0.0);
            assert_eq!(silence_window(model.absence_floor), None);
        }
    }

    #[test]
    fn victims_without_a_model_never_stop_blind() {
        // A victim that shows every line and has no silence model runs to
        // its cap, as every stage did before the blind stop.
        struct Saturated(ObservationConfig);
        impl StageVictim for Saturated {
            type Key = RoundKey64;
            fn observe_stage(&mut self, _: u64, _: usize) -> ObservedLines {
                let mut all = ObservedLines::for_config(&self.0);
                for addr in self.0.probe_line_addrs() {
                    all.insert(addr);
                }
                all
            }
            fn hypothesis_consistent(
                &self,
                _: &TargetSpec,
                _: &ObservedLines,
                _: bool,
                _: bool,
            ) -> bool {
                true
            }
        }
        let mut victim = Saturated(ObservationConfig::ideal());
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = StageConfig::new().with_max_encryptions(500);
        let result = run_stage(&mut victim, &[], 1, &cfg, &mut rng);
        assert_eq!(
            (result.encryptions, result.capped, result.blind),
            (500, true, false)
        );
        assert_eq!(result.candidate_count(), 1 << 32);
    }

    #[test]
    fn coarse_two_word_lines_still_resolve_via_pattern_sweeps() {
        let cfg_obs = ObservationConfig::ideal().with_words_per_line(2);
        let mut oracle = VictimOracle::new(key(), cfg_obs);
        let mut rng = StdRng::seed_from_u64(5);
        let result = run_stage(&mut oracle, &[], 1, &StageConfig::new(), &mut rng);
        assert!(
            result.is_resolved(),
            "misaligned 2-word lines leak both bits"
        );
        assert_eq!(result.round_key(), Some(Gift64::new(key()).round_keys()[0]));
        assert!(result.encryptions > 0);
    }
}
