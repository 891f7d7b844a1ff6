//! Pinned outputs of every victim the Algorithm-2 stage loop drives.
//!
//! Each table below holds literal values recorded from the attack as it
//! stands: the GIFT-64 oracle in three settings, the GIFT-128 oracle, the
//! MPSoC co-simulation and the two-level hierarchy, plus the digests of
//! telemetry-enabled recoveries' JSONL. A change to the stage schedule, the
//! RNG draw order, the crafting or any victim's observation shows up here
//! as a changed number; on a mismatch the failure message prints the
//! freshly computed table in the same literal form. The last two tests
//! check the blind stop: working channels never trip it, and blind ones
//! stop within their silence window.

use gift_cipher::Key;
use grinch::attack::{recover_full_key, AttackConfig};
use grinch::experiments::hierarchy;
use grinch::gift128::{recover_full_key_128, VictimOracle128};
use grinch::oracle::{ObservationConfig, ProbeStrategy, VictimOracle, VictimVariant};
use grinch::platform_attack::recover_round1_on_mpsoc;
use grinch::stage::{run_stage, silence_window, StageConfig, StageVictim};
use grinch_obs::history::fingerprint;
use grinch_telemetry::seed::splitmix64;
use grinch_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soc_sim::platform::PlatformConfig;

/// The 16 secrets every table runs over, drawn from one splitmix64 chain.
fn keys() -> Vec<Key> {
    keys_n(16)
}

/// The first `n` secrets of the splitmix64 chain.
fn keys_n(n: u64) -> Vec<Key> {
    (0..n)
        .map(|i| {
            let hi = splitmix64(2 * i);
            let lo = splitmix64(2 * i + 1);
            Key::from_u128(u128::from(hi) << 64 | u128::from(lo))
        })
        .collect()
}

/// One GIFT-64 full-key recovery: whether it returned the secret, total
/// encryptions, per-stage encryptions and whether a stage was capped.
type Row64 = (bool, u64, &'static [u64], bool);

/// One GIFT-128 full-key recovery: whether it returned the secret, total
/// encryptions and per-stage encryptions.
type Row128 = (bool, u64, &'static [u64]);

/// Compares `got` with the pinned `expected`, printing `got` as a literal
/// table on a mismatch.
fn check<T: PartialEq + std::fmt::Debug>(name: &str, expected: &[T], got: &[T]) {
    if expected != got {
        let rows: Vec<String> = got.iter().map(|row| format!("    {row:?},")).collect();
        panic!("{name} moved; it now reads:\n{}", rows.join("\n"));
    }
}

fn pins_64(name: &str, config: ObservationConfig, expected: &[Row64]) {
    let got: Vec<(bool, u64, Vec<u64>, bool)> = keys()
        .into_iter()
        .map(|secret| {
            let mut oracle = VictimOracle::new(secret, config.clone());
            let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
            assert!(
                outcome.key.is_none() || outcome.key == Some(secret),
                "a verified key is the secret"
            );
            (
                outcome.key.is_some(),
                outcome.encryptions,
                outcome.stage_encryptions,
                outcome.capped,
            )
        })
        .collect();
    let expected: Vec<(bool, u64, Vec<u64>, bool)> = expected
        .iter()
        .map(|&(k, e, s, c)| (k, e, s.to_vec(), c))
        .collect();
    check(name, &expected, &got);
}

#[test]
fn gift64_flush_reload_recoveries_are_pinned() {
    const PINS: [Row64; 16] = [
        (true, 748, &[140, 124, 252, 231], false),
        (true, 809, &[182, 172, 174, 280], false),
        (true, 727, &[233, 117, 177, 199], false),
        (true, 764, &[256, 144, 192, 171], false),
        (true, 788, &[206, 144, 240, 197], false),
        (true, 816, &[222, 198, 194, 201], false),
        (true, 654, &[207, 208, 122, 116], false),
        (true, 717, &[194, 157, 175, 190], false),
        (true, 614, &[152, 146, 100, 215], false),
        (true, 651, &[155, 203, 140, 152], false),
        (true, 759, &[261, 139, 150, 208], false),
        (true, 721, &[184, 151, 210, 175], false),
        (true, 732, &[173, 172, 176, 210], false),
        (true, 705, &[126, 242, 197, 139], false),
        (true, 901, &[187, 226, 343, 144], false),
        (true, 750, &[195, 185, 167, 202], false),
    ];
    pins_64("ideal Flush+Reload", ObservationConfig::ideal(), &PINS);
}

#[test]
fn gift64_prime_probe_recoveries_are_pinned() {
    // The same as Flush+Reload: under LRU the probe of a primed set
    // misses exactly when the victim touched one of its lines.
    const PINS: [Row64; 16] = [
        (true, 748, &[140, 124, 252, 231], false),
        (true, 809, &[182, 172, 174, 280], false),
        (true, 727, &[233, 117, 177, 199], false),
        (true, 764, &[256, 144, 192, 171], false),
        (true, 788, &[206, 144, 240, 197], false),
        (true, 816, &[222, 198, 194, 201], false),
        (true, 654, &[207, 208, 122, 116], false),
        (true, 717, &[194, 157, 175, 190], false),
        (true, 614, &[152, 146, 100, 215], false),
        (true, 651, &[155, 203, 140, 152], false),
        (true, 759, &[261, 139, 150, 208], false),
        (true, 721, &[184, 151, 210, 175], false),
        (true, 732, &[173, 172, 176, 210], false),
        (true, 705, &[126, 242, 197, 139], false),
        (true, 901, &[187, 226, 343, 144], false),
        (true, 750, &[195, 185, 167, 202], false),
    ];
    let config = ObservationConfig {
        strategy: ProbeStrategy::PrimeProbe,
        ..ObservationConfig::ideal()
    };
    pins_64("Prime+Probe", config, &PINS);
}

#[test]
fn gift64_two_word_line_recoveries_are_pinned() {
    const PINS: [Row64; 16] = [
        (true, 2020, &[411, 666, 583, 359], false),
        (true, 1962, &[461, 505, 461, 534], false),
        (true, 1977, &[464, 372, 653, 487], false),
        (true, 2291, &[637, 512, 513, 628], false),
        (true, 2193, &[510, 457, 511, 714], false),
        (true, 2525, &[577, 544, 564, 839], false),
        (true, 2109, &[362, 644, 518, 584], false),
        (true, 1886, &[543, 445, 335, 562], false),
        (true, 1651, &[474, 490, 325, 361], false),
        (true, 2178, &[660, 529, 632, 356], false),
        (true, 2158, &[343, 355, 855, 604], false),
        (true, 2121, &[662, 458, 615, 385], false),
        (true, 1908, &[458, 346, 565, 538], false),
        (true, 1936, &[463, 508, 463, 501], false),
        (true, 2355, &[573, 530, 647, 604], false),
        (true, 2580, &[603, 664, 677, 635], false),
    ];
    pins_64(
        "2-word lines",
        ObservationConfig::ideal().with_words_per_line(2),
        &PINS,
    );
}

/// One GIFT-64 stage 1: whether it recovered the true round key,
/// encryptions, whether it was capped and the candidates left.
type RowStage = (bool, u64, bool, u64);

#[test]
fn gift64_four_word_line_stage1_is_pinned() {
    // Four-word lines need the stall escalation: a batch that is still
    // unresolved after one sweep of 16 patterns waits longer per pattern.
    // The cap stops a quarter of the keys with candidates left.
    const PINS: [RowStage; 16] = [
        (true, 4934, false, 1),
        (true, 4961, false, 1),
        (true, 1584, false, 1),
        (true, 2097, false, 1),
        (true, 2594, false, 1),
        (true, 2849, false, 1),
        (true, 2772, false, 1),
        (true, 3790, false, 1),
        (false, 5000, true, 20_736),
        (false, 5000, true, 33_554_432),
        (false, 5000, true, 512),
        (true, 2334, false, 1),
        (true, 1534, false, 1),
        (true, 1405, false, 1),
        (true, 1839, false, 1),
        (false, 5000, true, 2),
    ];
    let got: Vec<RowStage> = keys()
        .into_iter()
        .map(|secret| {
            let config = ObservationConfig::ideal().with_words_per_line(4);
            let mut oracle = VictimOracle::new(secret, config);
            let stage = StageConfig::new().with_max_encryptions(5_000);
            let mut rng = StdRng::seed_from_u64(stage.seed);
            let result = run_stage(&mut oracle, &[], 1, &stage, &mut rng);
            let truth = gift_cipher::Gift64::new(secret).round_keys()[0];
            (
                result.round_key() == Some(truth),
                result.encryptions,
                result.capped,
                result.candidate_count(),
            )
        })
        .collect();
    check("4-word lines, stage 1", &PINS, &got);
}

#[test]
fn gift128_recoveries_are_pinned() {
    const PINS: [Row128; 16] = [
        (true, 955, &[502, 452]),
        (true, 974, &[470, 503]),
        (true, 1105, &[533, 571]),
        (true, 973, &[378, 594]),
        (true, 813, &[407, 405]),
        (true, 1183, &[605, 577]),
        (true, 902, &[420, 481]),
        (true, 996, &[464, 531]),
        (true, 932, &[465, 466]),
        (true, 885, &[443, 441]),
        (true, 948, &[357, 590]),
        (true, 1041, &[531, 509]),
        (true, 956, &[549, 406]),
        (true, 919, &[440, 478]),
        (true, 1183, &[614, 568]),
        (true, 982, &[414, 567]),
    ];
    let got: Vec<(bool, u64, Vec<u64>)> = keys()
        .into_iter()
        .enumerate()
        .map(|(i, secret)| {
            let mut oracle = VictimOracle128::new(secret, ObservationConfig::ideal());
            let mut rng = StdRng::seed_from_u64(i as u64);
            let outcome = recover_full_key_128(&mut oracle, 1_000_000, &mut rng);
            assert!(outcome.key.is_none() || outcome.key == Some(secret));
            (
                outcome.key.is_some(),
                outcome.encryptions,
                outcome.stage_encryptions,
            )
        })
        .collect();
    let expected: Vec<(bool, u64, Vec<u64>)> =
        PINS.iter().map(|&(k, e, s)| (k, e, s.to_vec())).collect();
    check("GIFT-128", &expected, &got);
}

#[test]
fn mpsoc_round1_recovery_is_pinned() {
    let secret = keys()[0];
    let outcome = recover_round1_on_mpsoc(&PlatformConfig::mpsoc(50_000_000), secret, 5_000, 11);
    let truth = gift_cipher::Gift64::new(secret).round_keys()[0];
    check(
        "MPSoC round 1",
        &[(true, 335)],
        &[(outcome.round_key == Some(truth), outcome.encryptions)],
    );
}

#[test]
fn hierarchy_rows_are_pinned() {
    let rows: Vec<(String, bool, u64)> = hierarchy::run(keys()[0], 20_000, Telemetry::disabled())
        .into_iter()
        .map(|row| (row.setting.to_string(), row.recovered, row.encryptions))
        .collect();
    let expected: Vec<(String, bool, u64)> = [
        ("flat shared L1", true, 240),
        ("L1+L2, coherent flush", false, 20_000),
        ("L1+L2, L2-only flush", false, 2),
    ]
    .iter()
    .map(|&(s, r, e)| (s.to_owned(), r, e))
    .collect();
    check("hierarchy", &expected, &rows);
}

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn recovery_telemetry_jsonl_is_pinned() {
    let secret = keys()[0];
    let tel = Telemetry::new();
    let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
    oracle.set_telemetry(tel.clone());
    let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
    assert_eq!(outcome.key, Some(secret));
    let jsonl = tel.to_jsonl();
    check(
        "recovery JSONL digest",
        &[(4_926_369_914_718_140_518, 58_816)],
        &[(fnv1a(jsonl.as_bytes()), jsonl.len())],
    );
}

/// One traced with-flush Flush+Reload run: its label, the
/// `grinch_obs::history::fingerprint` of the telemetry JSONL and the
/// JSONL's length.
type RowJsonl = (&'static str, &'static str, usize);

#[test]
fn flush_reload_telemetry_jsonl_is_pinned() {
    // Full-key recoveries on the ideal cache, a static remap and `Random`
    // replacement, and one stage 1 at probing round 8, each traced: the
    // JSONL holds every cache counter, the latency histogram, the stage
    // feed and the spans, so any change to what an observation counts
    // moves a digest. The three recoveries agree: with one monitored line
    // per set, no read evicts, so neither the mapping nor the policy can
    // show.
    const PINS: [RowJsonl; 4] = [
        ("ideal", "ec5fc30111ada750", 62_199),
        ("static-remap", "ec5fc30111ada750", 62_199),
        ("random", "ec5fc30111ada750", 62_199),
        ("stage 1, probing round 8", "72380d70f7716b2a", 20_320),
    ];
    let base = cache_sim::CacheConfig::grinch_default();
    let recoveries = [
        ("ideal", base),
        (
            "static-remap",
            base.with_mapping(cache_sim::IndexMapping::KeyedRemap {
                key: 0x5eed,
                epoch_accesses: 0,
            }),
        ),
        (
            "random",
            cache_sim::CacheConfig {
                replacement: cache_sim::ReplacementPolicy::Random,
                ..base
            },
        ),
    ];
    let secret = keys()[1];
    let digest = |label: &'static str, tel: &Telemetry| {
        let jsonl = tel.to_jsonl();
        (label, fingerprint(&[&jsonl]), jsonl.len())
    };
    let mut got: Vec<(&'static str, String, usize)> = recoveries
        .into_iter()
        .map(|(label, cache)| {
            let config = ObservationConfig {
                cache,
                ..ObservationConfig::ideal()
            };
            let tel = Telemetry::new();
            let mut oracle = VictimOracle::new_seeded(secret, config, 7);
            oracle.set_telemetry(tel.clone());
            let outcome = recover_full_key(&mut oracle, &AttackConfig::new());
            assert_eq!(outcome.key, Some(secret), "{label}");
            digest(label, &tel)
        })
        .collect();
    let tel = Telemetry::new();
    let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal().with_probing_round(8));
    oracle.set_telemetry(tel.clone());
    let stage = StageConfig::new();
    let mut rng = StdRng::seed_from_u64(stage.seed);
    let result = run_stage(&mut oracle, &[], 1, &stage, &mut rng);
    let truth = gift_cipher::Gift64::new(secret).round_keys()[0];
    assert_eq!(result.round_key(), Some(truth));
    got.push(digest("stage 1, probing round 8", &tel));
    let expected: Vec<(&'static str, String, usize)> = PINS
        .iter()
        .map(|&(label, hash, len)| (label, hash.to_owned(), len))
        .collect();
    check("Flush+Reload JSONL digests", &expected, &got);
}

/// One Prime+Probe stage 1 under an arena defense: the defense, the
/// stage's encryptions and candidates left, and the shared cache's hits,
/// misses, evictions and remaps as its telemetry counted them.
type RowCounters = (&'static str, u64, u64, [u64; 4]);

#[test]
fn prime_probe_cache_counters_are_pinned() {
    // The four arena defenses over the paper's geometry, each a stage 1
    // capped at 300 encryptions: the literal cache counters pin the
    // Prime+Probe prime and probe reads, access for access. The undefended
    // and statically remapped stages resolve; rekeying and the partition
    // saturate the channel, so nothing is eliminated and the stage stops
    // as blind after the 45-observation silence window.
    const PINS: [RowCounters; 4] = [
        ("baseline", 140, 1, [29_376, 47_040, 46_784, 0]),
        ("static-remap", 140, 1, [29_376, 47_040, 46_784, 0]),
        ("rekey-64", 45, 4_294_967_296, [526, 24_210, 130, 386]),
        ("partition", 45, 4_294_967_296, [1_424, 23_312, 23_168, 0]),
    ];
    let got: Vec<RowCounters> = arena_defense_caches()
        .into_iter()
        .map(|(defense, cache)| {
            let config = ObservationConfig {
                cache,
                strategy: ProbeStrategy::PrimeProbe,
                ..ObservationConfig::ideal()
            };
            let tel = Telemetry::new();
            let mut oracle = VictimOracle::new(keys()[0], config);
            oracle.set_telemetry(tel.clone());
            let stage = StageConfig::new().with_max_encryptions(300);
            let mut rng = StdRng::seed_from_u64(stage.seed);
            let result = run_stage(&mut oracle, &[], 1, &stage, &mut rng);
            let counters = ["hits", "misses", "evictions", "remaps"]
                .map(|c| tel.counter(&format!("cache.l1.{c}")));
            (
                defense,
                result.encryptions,
                result.candidate_count(),
                counters,
            )
        })
        .collect();
    check("Prime+Probe cache counters", &PINS, &got);
}

/// The four Prime+Probe defense caches of the arena.
fn arena_defense_caches() -> [(&'static str, cache_sim::CacheConfig); 4] {
    let base = cache_sim::CacheConfig::grinch_default();
    let remap = |epoch_accesses| {
        base.with_mapping(cache_sim::IndexMapping::KeyedRemap {
            key: 0x5eed,
            epoch_accesses,
        })
    };
    [
        ("baseline", base),
        ("static-remap", remap(0)),
        ("rekey-64", remap(64)),
        (
            "partition",
            base.with_partition(cache_sim::WayPartition::even_split(base.ways)),
        ),
    ]
}

#[test]
fn working_channels_never_stop_blind() {
    // 50 keys at probing rounds 1-3, with and without the flush, at 1- and
    // 2-word lines, every stage fed the true earlier round keys. The
    // window at probing round 1 with the flush is 45 observations; deeper
    // settings have longer windows and longer stages. The 5,000-encryption
    // cap bounds the test's time; every window shorter than the cap is
    // exercised over each stage's whole run.
    let secrets = keys_n(50);
    for words in [1, 2] {
        for probing_round in 1..=3 {
            for flush in [true, false] {
                let config = ObservationConfig::ideal()
                    .with_words_per_line(words)
                    .with_probing_round(probing_round)
                    .with_flush(flush);
                for (i, &secret) in secrets.iter().enumerate() {
                    let cipher = gift_cipher::Gift64::new(secret);
                    let truth = cipher.round_keys();
                    let mut oracle = VictimOracle::new(secret, config.clone());
                    for stage_round in 1..=4 {
                        let stage = StageConfig::new()
                            .with_max_encryptions(5_000)
                            .with_seed(i as u64);
                        let mut rng = StdRng::seed_from_u64(stage.seed ^ stage_round as u64);
                        let known = &truth[..stage_round - 1];
                        let result = run_stage(&mut oracle, known, stage_round, &stage, &mut rng);
                        assert!(
                            !result.blind,
                            "key {i}, {words}-word lines, probing round {probing_round}, \
                             flush {flush}, stage {stage_round}: a working channel stopped \
                             blind after {} encryptions",
                            result.encryptions
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn blind_channels_stop_within_the_window_with_every_candidate() {
    let prime_probe = arena_defense_caches()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "rekey-64" | "partition"))
        .map(|(name, cache)| {
            let config = ObservationConfig {
                cache,
                strategy: ProbeStrategy::PrimeProbe,
                ..ObservationConfig::ideal()
            };
            (name, config)
        });
    let victims = [
        ("full-scan", VictimVariant::FullScan),
        ("preload", VictimVariant::Preload),
    ]
    .map(|(name, variant)| {
        let config = ObservationConfig {
            variant,
            ..ObservationConfig::ideal()
        };
        (name, config)
    });
    for (name, config) in prime_probe.chain(victims) {
        for (i, secret) in keys().into_iter().enumerate() {
            let mut oracle = VictimOracle::new(secret, config.clone());
            let model = oracle
                .silence_model(1, 4)
                .expect("the oracle models its channel");
            let window = silence_window(model.absence_floor).expect("a finite window");
            assert_eq!(window, 45, "{name}: probing round 1, flush, 1-word lines");
            let stage = StageConfig::new()
                .with_max_encryptions(20_000)
                .with_seed(i as u64);
            let mut rng = StdRng::seed_from_u64(stage.seed);
            let result = run_stage(&mut oracle, &[], 1, &stage, &mut rng);
            assert!(result.blind && result.capped, "{name}, key {i}: {result:?}");
            assert!(result.encryptions <= window, "{name}, key {i}");
            assert_eq!(result.candidate_count(), 1 << 32, "{name}, key {i}");
        }
    }
}
