//! Property-based tests of the GIFT implementations.

use gift_cipher::bitwise::{
    add_round_key_128, add_round_key_64, apply_with_round_keys_64, invert_with_round_keys_64,
    round_64, round_64_inv,
};
use gift_cipher::constants::{add_constant_128, add_constant_64, ROUND_CONSTANTS};
use gift_cipher::countermeasure::{masked_round_keys_64, WideLineGift64};
use gift_cipher::key_schedule::{expand_64, Key, KeyState, RoundKey128, RoundKey64};
use gift_cipher::permutation::{
    permute_128, permute_128_inv, permute_64, permute_64_inv, P128, P128_INV, P64, P64_INV,
};
use gift_cipher::sbox::{apply_bitsliced_nibbles, sbox, sbox_inv};
use gift_cipher::{Gift128, Gift64, NullObserver, TableGift128, TableGift64, TableLayout};
use proptest::prelude::*;

/// `PermBits` bit by bit: bit `i` of `state` moves to bit `table[i]`.
fn permute_bitwise_64(state: u64, table: &[u8; 64]) -> u64 {
    (0..64).fold(0, |out, i| out | (((state >> i) & 1) << table[i]))
}

/// The 128-bit counterpart of [`permute_bitwise_64`].
fn permute_bitwise_128(state: u128, table: &[u8; 128]) -> u128 {
    (0..128).fold(0, |out, i| out | (((state >> i) & 1) << table[i]))
}

/// `AddRoundKey` for GIFT-64 bit by bit.
fn add_round_key_bitwise_64(state: u64, rk: RoundKey64, round: usize) -> u64 {
    let mut s = state;
    for i in 0..16 {
        s ^= u64::from((rk.v >> i) & 1) << (4 * i);
        s ^= u64::from((rk.u >> i) & 1) << (4 * i + 1);
    }
    add_constant_64(s, ROUND_CONSTANTS[round])
}

/// `AddRoundKey` for GIFT-128 bit by bit.
fn add_round_key_bitwise_128(state: u128, rk: RoundKey128, round: usize) -> u128 {
    let mut s = state;
    for i in 0..32 {
        s ^= u128::from((rk.v >> i) & 1) << (4 * i + 1);
        s ^= u128::from((rk.u >> i) & 1) << (4 * i + 2);
    }
    add_constant_128(s, ROUND_CONSTANTS[round])
}

proptest! {
    #[test]
    fn rotation_permutations_match_the_bit_loops(state in any::<u64>(), wide in any::<u128>()) {
        prop_assert_eq!(permute_64(state), permute_bitwise_64(state, &P64));
        prop_assert_eq!(permute_64_inv(state), permute_bitwise_64(state, &P64_INV));
        prop_assert_eq!(permute_128(wide), permute_bitwise_128(wide, &P128));
        prop_assert_eq!(permute_128_inv(wide), permute_bitwise_128(wide, &P128_INV));
    }

    #[test]
    fn spread_add_round_key_matches_the_bit_loops(
        state in any::<u64>(),
        wide in any::<u128>(),
        u in any::<u32>(),
        v in any::<u32>(),
        round in 0usize..40,
    ) {
        let rk64 = RoundKey64 { u: u as u16, v: v as u16 };
        let round64 = round % 28;
        prop_assert_eq!(
            add_round_key_64(state, rk64, round64),
            add_round_key_bitwise_64(state, rk64, round64)
        );
        let rk128 = RoundKey128 { u, v };
        prop_assert_eq!(
            add_round_key_128(wide, rk128, round),
            add_round_key_bitwise_128(wide, rk128, round)
        );
    }


    #[test]
    fn gift64_encrypt_decrypt_round_trip(key in any::<u128>(), pt in any::<u64>()) {
        let cipher = Gift64::new(Key::from_u128(key));
        prop_assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
    }

    #[test]
    fn gift128_encrypt_decrypt_round_trip(key in any::<u128>(), pt in any::<u128>()) {
        let cipher = Gift128::new(Key::from_u128(key));
        prop_assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
    }

    #[test]
    fn table_and_bitwise_agree_64(key in any::<u128>(), pt in any::<u64>(), base in 0u64..0x1_0000) {
        let k = Key::from_u128(key);
        let table = TableGift64::new(k, TableLayout::new(base));
        let reference = Gift64::new(k);
        let mut obs = NullObserver;
        prop_assert_eq!(table.encrypt_with(pt, &mut obs), reference.encrypt(pt));
    }

    #[test]
    fn table_and_bitwise_agree_128(key in any::<u128>(), pt in any::<u128>()) {
        let k = Key::from_u128(key);
        let table = TableGift128::new(k, TableLayout::default());
        let reference = Gift128::new(k);
        let mut obs = NullObserver;
        prop_assert_eq!(table.encrypt_with(pt, &mut obs), reference.encrypt(pt));
    }

    #[test]
    fn wide_line_cipher_agrees_with_reference(key in any::<u128>(), pt in any::<u64>()) {
        let k = Key::from_u128(key);
        let protected = WideLineGift64::new(k, TableLayout::new(0x800));
        let reference = Gift64::new(k);
        let mut obs = NullObserver;
        prop_assert_eq!(protected.encrypt_with(pt, &mut obs), reference.encrypt(pt));
    }

    #[test]
    fn permutation_64_is_a_bijection(state in any::<u64>()) {
        prop_assert_eq!(permute_64_inv(permute_64(state)), state);
        prop_assert_eq!(permute_64(permute_64_inv(state)), state);
        prop_assert_eq!(permute_64(state).count_ones(), state.count_ones());
    }

    #[test]
    fn permutation_128_is_a_bijection(state in any::<u128>()) {
        prop_assert_eq!(permute_128_inv(permute_128(state)), state);
        prop_assert_eq!(permute_128(state).count_ones(), state.count_ones());
    }

    #[test]
    fn bitsliced_sbox_matches_table_lookup(state in any::<u64>()) {
        let mut expected = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            expected |= u64::from(sbox(nib)) << (4 * i);
        }
        prop_assert_eq!(apply_bitsliced_nibbles(state), expected);
    }

    #[test]
    fn sbox_inverse_property(x in 0u8..16) {
        prop_assert_eq!(sbox_inv(sbox(x)), x);
    }

    #[test]
    fn key_state_advance_retreat_round_trip(key in any::<u128>(), steps in 0usize..64) {
        let mut state = KeyState::new(Key::from_u128(key));
        let original = state;
        for _ in 0..steps {
            state.advance();
        }
        for _ in 0..steps {
            state.retreat();
        }
        prop_assert_eq!(state, original);
    }

    #[test]
    fn single_round_inverts(key in any::<u128>(), state in any::<u64>(), round in 0usize..28) {
        let rk = expand_64(Key::from_u128(key), 28)[round];
        prop_assert_eq!(round_64_inv(round_64(state, rk, round), rk, round), state);
    }

    #[test]
    fn partial_round_key_application_inverts(
        key in any::<u128>(),
        pt in any::<u64>(),
        prefix in 0usize..10,
    ) {
        let keys = expand_64(Key::from_u128(key), prefix);
        let mid = apply_with_round_keys_64(pt, &keys);
        prop_assert_eq!(invert_with_round_keys_64(mid, &keys), pt);
    }

    #[test]
    fn masked_schedule_produces_valid_invertible_cipher(key in any::<u128>(), pt in any::<u64>()) {
        let rks = masked_round_keys_64(Key::from_u128(key));
        let forward = apply_with_round_keys_64(pt, &rks);
        prop_assert_eq!(invert_with_round_keys_64(forward, &rks), pt);
    }

    #[test]
    fn key_word_and_integer_views_agree(key in any::<u128>()) {
        let k = Key::from_u128(key);
        prop_assert_eq!(k.to_u128(), key);
        for i in 0..128 {
            prop_assert_eq!(k.bit(i), (key >> i) & 1 == 1);
        }
    }

    #[test]
    fn ciphertexts_differ_for_different_plaintexts(
        key in any::<u128>(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        prop_assume!(a != b);
        let cipher = Gift64::new(Key::from_u128(key));
        prop_assert_ne!(cipher.encrypt(a), cipher.encrypt(b));
    }
}
