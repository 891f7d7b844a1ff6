//! Property-based tests of the attack machinery: the crafting/prediction
//! pipeline must hold for arbitrary keys, segments, stages and forced
//! patterns — the soundness foundation of candidate elimination.

use gift_cipher::bitwise::{invert_with_round_keys_64, Gift64};
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::sbox::sbox;
use gift_cipher::state::{segment_64, with_segment_64};
use gift_cipher::Key;
use grinch::craft::craft_plaintext;
use grinch::eliminate::CandidateSet;
use grinch::noise::NoiseChannel;
use grinch::oracle::{ObservationConfig, ObservedLines, VictimOracle, VictimVariant};
use grinch::stage::StageVictim;
use grinch::target::{disjoint_batches, TargetSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The four hypotheses in the order the `Vec`-backed candidate set kept
/// them: the reference survivor order.
const HYPOTHESES: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Plaintext crafting with a freshly filtered `Vec` preimage list per
/// constraint: the reference the allocation-free crafter must reproduce
/// plaintext for plaintext and draw for draw.
fn craft_plaintext_with_vec_lists(
    targets: &[TargetSpec],
    known_round_keys: &[RoundKey64],
    rng: &mut StdRng,
) -> u64 {
    let mut state: u64 = rng.gen();
    for target in targets {
        for (b, &segment) in target.source_segments().iter().enumerate() {
            let choices: Vec<u8> = (0u8..16)
                .filter(|&x| (sbox(x) >> b) & 1 == u8::from(target.forced[b]))
                .collect();
            let value = choices[rng.gen_range(0..choices.len())];
            state = with_segment_64(state, segment, value);
        }
    }
    invert_with_round_keys_64(state, known_round_keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crafted_index_always_matches_prediction(
        key in any::<u128>(),
        segment in 0usize..16,
        stage in 1usize..=4,
        pattern in 0u8..16,
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cipher = Gift64::new(k);
        let known = &cipher.round_keys()[..stage - 1];
        let rk = cipher.round_keys()[stage - 1];
        let spec = TargetSpec::with_forced_pattern(stage, segment, pattern);
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], known, &mut rng).unwrap();
        let round_input = cipher.encrypt_rounds(pt, stage);
        let v = (rk.v >> segment) & 1 == 1;
        let u = (rk.u >> segment) & 1 == 1;
        prop_assert_eq!(segment_64(round_input, segment), spec.expected_index(v, u));
    }

    #[test]
    fn batched_crafting_pins_all_batch_targets(
        key in any::<u128>(),
        stage in 1usize..=4,
        batch_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cipher = Gift64::new(k);
        let known = &cipher.round_keys()[..stage - 1];
        let rk = cipher.round_keys()[stage - 1];
        let batch = disjoint_batches(stage)[batch_idx];
        let specs: Vec<TargetSpec> =
            batch.iter().map(|&s| TargetSpec::new(stage, s)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&specs, known, &mut rng).unwrap();
        let round_input = cipher.encrypt_rounds(pt, stage);
        for spec in &specs {
            let v = (rk.v >> spec.segment) & 1 == 1;
            let u = (rk.u >> spec.segment) & 1 == 1;
            prop_assert_eq!(
                segment_64(round_input, spec.segment),
                spec.expected_index(v, u)
            );
        }
    }

    #[test]
    fn crafting_reproduces_the_vec_list_crafter_and_its_rng_stream(
        key in any::<u128>(),
        stage in 1usize..=4,
        batch_idx in 0usize..4,
        batch_len in 1usize..=4,
        patterns in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let cipher = Gift64::new(Key::from_u128(key));
        let known = &cipher.round_keys()[..stage - 1];
        let batch = disjoint_batches(stage)[batch_idx];
        let specs: Vec<TargetSpec> = batch[..batch_len]
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let pattern = ((patterns >> (4 * i)) & 0xf) as u8;
                TargetSpec::with_forced_pattern(stage, s, pattern)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut reference_rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            prop_assert_eq!(
                craft_plaintext(&specs, known, &mut rng).unwrap(),
                craft_plaintext_with_vec_lists(&specs, known, &mut reference_rng)
            );
        }
        prop_assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>());
    }

    #[test]
    fn true_hypothesis_always_survives_observation(
        key in any::<u128>(),
        segment in 0usize..16,
        probing_round in 1usize..=4,
        flush in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = Key::from_u128(key);
        let cfg = ObservationConfig::ideal()
            .with_probing_round(probing_round)
            .with_flush(flush);
        let mut oracle = VictimOracle::new(k, cfg);
        let spec = TargetSpec::new(1, segment);
        let rk = Gift64::new(k).round_keys()[0];
        let v = (rk.v >> segment) & 1 == 1;
        let u = (rk.u >> segment) & 1 == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
        let observed = oracle.observe(pt);
        prop_assert!(oracle.hypothesis_consistent(&spec, &observed, v, u));
    }

    #[test]
    fn key_bits_from_index_inverts_expected_index(
        segment in 0usize..16,
        stage in 1usize..=4,
        pattern in 0u8..16,
        v in any::<bool>(),
        u in any::<bool>(),
    ) {
        let spec = TargetSpec::with_forced_pattern(stage, segment, pattern);
        prop_assert_eq!(spec.key_bits_from_index(spec.expected_index(v, u)), (v, u));
    }

    #[test]
    fn coarse_line_observation_is_superset_of_fine_prediction(
        key in any::<u128>(),
        words_log2 in 0u32..4,
        seed in any::<u64>(),
    ) {
        // At any line size, the line containing the true index must be
        // observed — the invariant that keeps elimination sound at every
        // Table I geometry.
        let k = Key::from_u128(key);
        let words = 1usize << words_log2;
        let cfg = ObservationConfig::ideal().with_words_per_line(words);
        let mut oracle = VictimOracle::new(k, cfg);
        let spec = TargetSpec::new(1, 5);
        let rk = Gift64::new(k).round_keys()[0];
        let v = (rk.v >> 5) & 1 == 1;
        let u = (rk.u >> 5) & 1 == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
        let observed = oracle.observe(pt);
        prop_assert!(oracle.hypothesis_consistent(&spec, &observed, v, u));
    }

    #[test]
    fn observed_lines_match_a_btreeset_reference(
        words_log2 in 0u32..4,
        ops in prop::collection::vec(any::<u64>(), 1..48),
    ) {
        // Insert, retain (with the closure's visiting order), clear, and
        // after every step len, iteration order and membership of every
        // address around the table, aligned or not.
        let cfg = ObservationConfig::ideal().with_words_per_line(1 << words_log2);
        let lines = cfg.probe_line_addrs();
        let mut set = ObservedLines::for_config(&cfg);
        let mut reference = BTreeSet::new();
        for op in ops {
            let line = lines[(op >> 8) as usize % lines.len()];
            match op % 8 {
                0..=3 => prop_assert_eq!(set.insert(line), reference.insert(line)),
                4..=6 => {
                    let keep = |k: usize| op >> (16 + k) & 1 == 0;
                    let (mut seen, mut want) = (Vec::new(), Vec::new());
                    set.retain(|a| {
                        seen.push(a);
                        keep(seen.len())
                    });
                    reference.retain(|&a| {
                        want.push(a);
                        keep(want.len())
                    });
                    prop_assert_eq!(seen, want);
                }
                _ => {
                    set.clear();
                    reference.clear();
                }
            }
            prop_assert_eq!(set.len(), reference.len());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
            prop_assert_eq!(
                set.iter().collect::<Vec<_>>(),
                reference.iter().copied().collect::<Vec<_>>()
            );
            for addr in lines[0].saturating_sub(32)..lines[lines.len() - 1] + 32 {
                prop_assert_eq!(set.contains(&addr), reference.contains(&addr));
            }
        }
    }

    #[test]
    fn noise_channel_draws_match_a_btreeset_reference(
        seed in any::<u64>(),
        p_milli in 0u32..1000,
        indices in prop::collection::vec(0u8..16, 0..16),
    ) {
        let p = f64::from(p_milli) / 1000.0;
        // One draw per present line, in ascending address order: the RNG
        // stream of filtering a `BTreeSet<u64>` in place.
        let cfg = ObservationConfig::ideal();
        let mut set = ObservedLines::for_config(&cfg);
        let mut reference = BTreeSet::new();
        for index in indices {
            set.insert(cfg.line_addr_of_index(index));
            reference.insert(cfg.line_addr_of_index(index));
        }
        let mut channel = NoiseChannel::new(p, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            let kept = channel.apply(set);
            let mut want = reference.clone();
            want.retain(|_| rng.gen::<f64>() >= p);
            prop_assert_eq!(kept.iter().collect::<BTreeSet<_>>(), want);
        }
    }

    #[test]
    fn candidate_set_matches_the_vec_reference(
        ops in prop::collection::vec((0u8..16, any::<bool>()), 1..12),
    ) {
        // `remove` and `retain` against the `Vec<(bool, bool)>` the set
        // replaced: same survivors in the same order, same counts.
        let mut set = CandidateSet::full();
        let mut reference = HYPOTHESES.to_vec();
        for (mask, remove) in ops {
            if remove {
                let h = HYPOTHESES[usize::from(mask % 4)];
                let before = reference.len();
                reference.retain(|&x| x != h);
                prop_assert_eq!(set.remove(h), reference.len() != before);
            } else {
                let keep = |v: bool, u: bool| mask >> (u8::from(v) | u8::from(u) << 1) & 1 != 0;
                let before = reference.len();
                reference.retain(|&(v, u)| keep(v, u));
                prop_assert_eq!(set.retain(keep), before - reference.len());
            }
            prop_assert_eq!(set.survivors(), reference.as_slice());
            prop_assert_eq!(set.len(), reference.len());
            prop_assert_eq!(set.is_empty(), reference.is_empty());
            prop_assert_eq!(set.is_resolved(), reference.len() == 1);
            prop_assert_eq!(set.resolved(), (reference.len() == 1).then(|| reference[0]));
        }
    }

    #[test]
    fn eliminate_matches_the_address_based_vec_reference(
        key in any::<u128>(),
        words_log2 in 0u32..4,
        wide_line in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The oracle's bit-table hypothesis check against the definition:
        // the predicted line's address is in the observation. Noise makes
        // the true hypothesis fall too, so every survivor shape occurs.
        let cfg = ObservationConfig {
            variant: if wide_line { VictimVariant::WideLine } else { VictimVariant::Table },
            ..ObservationConfig::ideal().with_words_per_line(1 << words_log2)
        };
        let mut oracle = VictimOracle::new(Key::from_u128(key), cfg.clone());
        oracle.set_noise(Some(NoiseChannel::new(0.2, seed)));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets = [CandidateSet::full(); 16];
        let mut references = vec![HYPOTHESES.to_vec(); 16];
        for _ in 0..24 {
            let spec = TargetSpec::with_forced_pattern(1, rng.gen_range(0..16), rng.gen_range(0..16));
            let pt = craft_plaintext(&[spec], &[], &mut rng).unwrap();
            let observed = oracle.observe(pt);
            let reference = &mut references[spec.segment];
            let before = reference.len();
            reference.retain(|&(v, u)| {
                observed.contains(&cfg.line_addr_of_index(spec.expected_index(v, u)))
            });
            prop_assert_eq!(
                sets[spec.segment].eliminate(&oracle, &spec, &observed),
                before - reference.len()
            );
            prop_assert_eq!(sets[spec.segment].survivors(), reference.as_slice());
        }
    }
}
