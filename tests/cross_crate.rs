//! Integration tests across the substrate crates: the cipher's access
//! stream through the cache simulator, the attack's observation
//! convention, and structural consistency between crates.

use cache_sim::{Cache, CacheConfig, CacheObserver};
use gift_cipher::state::segment_64;
use gift_cipher::{Gift64, Key, RecordingObserver, TableGift64, TableLayout, GIFT64_ROUNDS};
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::stage::StageVictim;
use grinch::target::TargetSpec;

#[test]
fn table_cipher_access_stream_matches_reference_round_inputs() {
    let key = Key::from_u128(0xace0_1357_9bdf_2468_0f0f_f0f0_3c3c_c3c3);
    let layout = TableLayout::new(0x4000);
    let table = TableGift64::new(key, layout);
    let reference = Gift64::new(key);
    let pt = 0x7777_1111_9999_3333;

    let mut trace = RecordingObserver::new();
    let ct = table.encrypt_with(pt, &mut trace);
    assert_eq!(ct, reference.encrypt(pt));

    let inputs = reference.round_inputs(pt);
    let addrs = trace.sbox_addrs();
    assert_eq!(addrs.len(), 16 * GIFT64_ROUNDS);
    for (r, input) in inputs.iter().enumerate() {
        for seg in 0..16 {
            assert_eq!(
                addrs[16 * r + seg],
                layout.sbox_entry_addr(segment_64(*input, seg)),
                "round {} segment {}",
                r + 1,
                seg
            );
        }
    }
}

#[test]
fn cache_residency_after_one_round_equals_distinct_round_indices() {
    let key = Key::from_u128(0x1234);
    let layout = TableLayout::new(0x400);
    let table = TableGift64::new(key, layout);
    let mut cache = Cache::new(CacheConfig::grinch_default());
    let pt = 0xaaaa_bbbb_cccc_dddd;

    let mut enc = table.start_encryption(pt);
    enc.step_round(&mut CacheObserver::new(&mut cache));

    let mut distinct: Vec<u8> = (0..16).map(|s| segment_64(pt, s)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(cache.resident_lines(), distinct.len());
    for nib in distinct {
        assert!(cache.contains(layout.sbox_entry_addr(nib)));
    }
}

#[test]
fn oracle_observation_window_matches_round_input_ground_truth() {
    // The Fig. 3 convention: probing round k observes rounds 1..=k+1
    // (without flush) or 2..=k+1 (with flush).
    let key = Key::from_u128(0x9876_5432_10fe_dcba_0011_2233_4455_6677);
    let reference = Gift64::new(key);
    let pt = 0x1357_9bdf_0246_8ace;
    for k in 1..=4usize {
        for flush in [true, false] {
            let cfg = ObservationConfig::ideal()
                .with_probing_round(k)
                .with_flush(flush);
            let mut oracle = VictimOracle::new(key, cfg);
            let observed = oracle.observe(pt);
            let first_round = if flush { 2 } else { 1 };
            let mut expected = std::collections::BTreeSet::new();
            for r in first_round..=(k + 1) {
                let input = reference.encrypt_rounds(pt, r - 1);
                for s in 0..16 {
                    expected.insert(oracle.config().line_addr_of_index(segment_64(input, s)));
                }
            }
            let observed: std::collections::BTreeSet<u64> = observed.iter().collect();
            assert_eq!(observed, expected, "k={k} flush={flush}");
        }
    }
}

#[test]
fn target_spec_predictions_agree_with_real_executions() {
    // For every stage and segment: craft, encrypt for real through the
    // table cipher, and check the accessed index equals the prediction.
    let key = Key::from_u128(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f00);
    let reference = Gift64::new(key);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    use rand::SeedableRng;

    for stage in 1..=4usize {
        let known = &reference.round_keys()[..stage - 1];
        let rk = reference.round_keys()[stage - 1];
        for segment in 0..16 {
            let spec = TargetSpec::new(stage, segment);
            let pt = grinch::craft::craft_plaintext(&[spec], known, &mut rng).unwrap();
            let round_input = reference.encrypt_rounds(pt, stage);
            let v = (rk.v >> segment) & 1 == 1;
            let u = (rk.u >> segment) & 1 == 1;
            assert_eq!(
                segment_64(round_input, segment),
                spec.expected_index(v, u),
                "stage {stage} segment {segment}"
            );
        }
    }
}

#[test]
fn stage_observation_window_slides_with_the_attacked_round() {
    // Stage t's probe must capture round t+1's accesses (the stage-t
    // signal); with flush the window is exactly rounds t+1 ..= t+k.
    let key = Key::from_u128(0x5152_5354_5556_5758_595a_5b5c_5d5e_5f60);
    let reference = Gift64::new(key);
    let pt = 0x0102_0304_0506_0708;
    for stage in 1..=4usize {
        let cfg = ObservationConfig::ideal(); // probing round 1, flush
        let mut oracle = VictimOracle::new(key, cfg);
        let observed = oracle.observe_stage(pt, stage);
        let signal_round_input = reference.encrypt_rounds(pt, stage);
        let expected: std::collections::BTreeSet<u64> = (0..16)
            .map(|s| {
                oracle
                    .config()
                    .line_addr_of_index(segment_64(signal_round_input, s))
            })
            .collect();
        let observed: std::collections::BTreeSet<u64> = observed.iter().collect();
        assert_eq!(observed, expected, "stage {stage}");
    }
}

#[test]
fn sbox_lines_survive_in_large_cache_without_self_eviction() {
    // The 16-byte table in a 1024-line cache: a full encryption must never
    // evict its own S-box lines (no aliasing at this size).
    let key = Key::from_u128(0xf00d);
    let layout = TableLayout::new(0x400);
    let table = TableGift64::new(key, layout);
    let mut cache = Cache::new(CacheConfig::grinch_default());
    table.encrypt_with(0x1234_5678, &mut CacheObserver::new(&mut cache));
    assert_eq!(cache.stats().evictions, 0);
}
