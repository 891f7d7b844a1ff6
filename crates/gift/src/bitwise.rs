//! Constant-time bitwise reference implementations of GIFT-64 and GIFT-128.
//!
//! These ciphers use the bitsliced S-box circuit and the closed-form
//! permutation, so they never index memory with secret-dependent values. They
//! are the ground truth the table-driven (vulnerable) implementations are
//! validated against, and the oracle the GRINCH attack uses to verify
//! recovered keys.

use crate::constants::{add_constant_128, add_constant_64, ROUND_CONSTANTS};
use crate::key_schedule::{expand_128, expand_64, Key, RoundKey128, RoundKey64};
use crate::permutation::{permute_128, permute_128_inv, permute_64, permute_64_inv};
use crate::sbox::{apply_bitsliced_nibbles, apply_bitsliced_nibbles_128, sbox_inv};
use crate::{GIFT128_ROUNDS, GIFT64_ROUNDS};

/// Applies one full GIFT-64 round (SubCells → PermBits → AddRoundKey) to
/// `state` with round key `rk` and 0-based round index `round`.
#[inline]
pub fn round_64(state: u64, rk: RoundKey64, round: usize) -> u64 {
    let state = apply_bitsliced_nibbles(state);
    let state = permute_64(state);
    add_round_key_64(state, rk, round)
}

/// Moves bit `i` of `word` to bit `4i` in four shift-and-mask steps, each
/// halving the width of the blocks still to be pulled apart: 8-bit blocks
/// to 32-bit slots, then 4-bit blocks to 16-bit slots, 2-bit blocks to
/// 8-bit slots and single bits to 4-bit slots.
#[inline]
fn spread_to_nibbles(word: u16) -> u64 {
    let mut x = u64::from(word);
    x = (x | (x << 24)) & 0x0000_00ff_0000_00ff;
    x = (x | (x << 12)) & 0x000f_000f_000f_000f;
    x = (x | (x << 6)) & 0x0303_0303_0303_0303;
    (x | (x << 3)) & 0x1111_1111_1111_1111
}

/// XORs a GIFT-64 round key and the round constant into the state: bit `i`
/// of `V` lands on state bit `4i`, bit `i` of `U` on state bit `4i + 1`.
#[inline]
pub fn add_round_key_64(state: u64, rk: RoundKey64, round: usize) -> u64 {
    let s = state ^ spread_to_nibbles(rk.v) ^ (spread_to_nibbles(rk.u) << 1);
    add_constant_64(s, ROUND_CONSTANTS[round])
}

/// Inverts one full GIFT-64 round.
#[inline]
pub fn round_64_inv(state: u64, rk: RoundKey64, round: usize) -> u64 {
    let state = add_round_key_64(state, rk, round); // XOR layer is an involution
    let state = permute_64_inv(state);
    let mut out = 0u64;
    for i in 0..16 {
        let nib = ((state >> (4 * i)) & 0xf) as u8;
        out |= u64::from(sbox_inv(nib)) << (4 * i);
    }
    out
}

/// Applies one full GIFT-128 round to `state`.
#[inline]
pub fn round_128(state: u128, rk: RoundKey128, round: usize) -> u128 {
    let state = apply_bitsliced_nibbles_128(state);
    let state = permute_128(state);
    add_round_key_128(state, rk, round)
}

/// Moves bit `i` of a 32-bit word to bit `4i` of a 128-bit state: each
/// 16-bit half is spread onto its own 64-bit half.
#[inline]
fn spread_to_nibbles_128(word: u32) -> u128 {
    let lo = spread_to_nibbles(word as u16);
    let hi = spread_to_nibbles((word >> 16) as u16);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// XORs a GIFT-128 round key and the round constant into the state: bit `i`
/// of `V` lands on state bit `4i + 1`, bit `i` of `U` on state bit `4i + 2`.
#[inline]
pub fn add_round_key_128(state: u128, rk: RoundKey128, round: usize) -> u128 {
    let s = state ^ (spread_to_nibbles_128(rk.v) << 1) ^ (spread_to_nibbles_128(rk.u) << 2);
    add_constant_128(s, ROUND_CONSTANTS[round])
}

/// Inverts one full GIFT-128 round.
#[inline]
pub fn round_128_inv(state: u128, rk: RoundKey128, round: usize) -> u128 {
    let state = add_round_key_128(state, rk, round);
    let state = permute_128_inv(state);
    let mut out = 0u128;
    for i in 0..32 {
        let nib = ((state >> (4 * i)) & 0xf) as u8;
        out |= u128::from(sbox_inv(nib)) << (4 * i);
    }
    out
}

/// Inverts the rounds described by `round_keys` (round 1 first): maps the
/// state at the *output* of round `round_keys.len()` back to the plaintext.
///
/// Unlike [`Gift64::invert_rounds`] this takes the round keys explicitly,
/// which is what an attacker who has recovered only a *prefix* of the key
/// schedule can do (GRINCH Step 5: craft a desired intermediate state for
/// round `t`, then invert rounds `t-1..1` with the keys recovered so far).
pub fn invert_with_round_keys_64(state: u64, round_keys: &[RoundKey64]) -> u64 {
    let mut s = state;
    for (r, &rk) in round_keys.iter().enumerate().rev() {
        s = round_64_inv(s, rk, r);
    }
    s
}

/// Applies the rounds described by `round_keys` (round 1 first) to `state`.
///
/// The forward counterpart of [`invert_with_round_keys_64`].
pub fn apply_with_round_keys_64(state: u64, round_keys: &[RoundKey64]) -> u64 {
    let mut s = state;
    for (r, &rk) in round_keys.iter().enumerate() {
        s = round_64(s, rk, r);
    }
    s
}

/// Inverts the rounds described by `round_keys` (round 1 first) on a
/// GIFT-128 state (see [`invert_with_round_keys_64`]).
pub fn invert_with_round_keys_128(state: u128, round_keys: &[RoundKey128]) -> u128 {
    let mut s = state;
    for (r, &rk) in round_keys.iter().enumerate().rev() {
        s = round_128_inv(s, rk, r);
    }
    s
}

/// Applies the rounds described by `round_keys` (round 1 first) to a
/// GIFT-128 state (see [`apply_with_round_keys_64`]).
pub fn apply_with_round_keys_128(state: u128, round_keys: &[RoundKey128]) -> u128 {
    let mut s = state;
    for (r, &rk) in round_keys.iter().enumerate() {
        s = round_128(s, rk, r);
    }
    s
}

/// The GIFT-64 block cipher (64-bit block, 128-bit key, 28 rounds) —
/// constant-time reference implementation.
///
/// ```
/// use gift_cipher::{Gift64, Key};
///
/// let cipher = Gift64::new(Key::from_u128(42));
/// let ct = cipher.encrypt(0xdead_beef);
/// assert_eq!(cipher.decrypt(ct), 0xdead_beef);
/// ```
#[derive(Clone, Debug)]
pub struct Gift64 {
    round_keys: Vec<RoundKey64>,
}

impl Gift64 {
    /// Creates a GIFT-64 instance, expanding the key schedule eagerly.
    pub fn new(key: Key) -> Self {
        Self {
            round_keys: expand_64(key, GIFT64_ROUNDS),
        }
    }

    /// Creates an instance from externally supplied round keys.
    ///
    /// Used by the masked-key-schedule countermeasure, which derives its
    /// round keys differently but reuses the round function.
    ///
    /// # Panics
    ///
    /// Panics if `round_keys.len() != 28`.
    pub fn from_round_keys(round_keys: Vec<RoundKey64>) -> Self {
        assert_eq!(
            round_keys.len(),
            GIFT64_ROUNDS,
            "GIFT-64 needs 28 round keys"
        );
        Self { round_keys }
    }

    /// The expanded round keys, round 1 first.
    pub fn round_keys(&self) -> &[RoundKey64] {
        &self.round_keys
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt(&self, plaintext: u64) -> u64 {
        self.encrypt_rounds(plaintext, GIFT64_ROUNDS)
    }

    /// Runs only the first `rounds` rounds of the encryption, returning the
    /// intermediate state. `rounds == 28` yields the ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if `rounds > 28`.
    pub fn encrypt_rounds(&self, plaintext: u64, rounds: usize) -> u64 {
        assert!(rounds <= GIFT64_ROUNDS, "GIFT-64 has 28 rounds");
        let mut state = plaintext;
        for (r, &rk) in self.round_keys.iter().take(rounds).enumerate() {
            state = round_64(state, rk, r);
        }
        state
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt(&self, ciphertext: u64) -> u64 {
        let mut state = ciphertext;
        for (r, &rk) in self.round_keys.iter().enumerate().rev() {
            state = round_64_inv(state, rk, r);
        }
        state
    }

    /// Returns the state at the *input* of each round's SubCells layer:
    /// element 0 is the plaintext, element `r` the input to round `r + 1`.
    ///
    /// The nibbles of element `r` are exactly the S-box indices a
    /// table-driven implementation reads during round `r + 1` — the signal
    /// GRINCH observes in the cache.
    pub fn round_inputs(&self, plaintext: u64) -> Vec<u64> {
        let mut inputs = Vec::with_capacity(GIFT64_ROUNDS);
        let mut state = plaintext;
        for (r, &rk) in self.round_keys.iter().enumerate() {
            inputs.push(state);
            state = round_64(state, rk, r);
        }
        inputs
    }

    /// Inverts the first `rounds` rounds: maps an intermediate state (the
    /// input to round `rounds + 1`) back to the plaintext producing it.
    ///
    /// This is the attacker-side primitive of GRINCH's Step 5: once the
    /// round keys of rounds `1..=rounds` are known, the attacker chooses a
    /// desired intermediate state and inverts to a plaintext.
    ///
    /// # Panics
    ///
    /// Panics if `rounds > 28`.
    pub fn invert_rounds(&self, state: u64, rounds: usize) -> u64 {
        assert!(rounds <= GIFT64_ROUNDS, "GIFT-64 has 28 rounds");
        let mut s = state;
        for r in (0..rounds).rev() {
            s = round_64_inv(s, self.round_keys[r], r);
        }
        s
    }
}

/// The GIFT-128 block cipher (128-bit block, 128-bit key, 40 rounds) —
/// constant-time reference implementation.
///
/// ```
/// use gift_cipher::{Gift128, Key};
///
/// let cipher = Gift128::new(Key::from_u128(7));
/// let ct = cipher.encrypt(1 << 100);
/// assert_eq!(cipher.decrypt(ct), 1 << 100);
/// ```
#[derive(Clone, Debug)]
pub struct Gift128 {
    round_keys: Vec<RoundKey128>,
}

impl Gift128 {
    /// Creates a GIFT-128 instance, expanding the key schedule eagerly.
    pub fn new(key: Key) -> Self {
        Self {
            round_keys: expand_128(key, GIFT128_ROUNDS),
        }
    }

    /// The expanded round keys, round 1 first.
    pub fn round_keys(&self) -> &[RoundKey128] {
        &self.round_keys
    }

    /// Encrypts one 128-bit block.
    pub fn encrypt(&self, plaintext: u128) -> u128 {
        self.encrypt_rounds(plaintext, GIFT128_ROUNDS)
    }

    /// Runs only the first `rounds` rounds, returning the intermediate state.
    ///
    /// # Panics
    ///
    /// Panics if `rounds > 40`.
    pub fn encrypt_rounds(&self, plaintext: u128, rounds: usize) -> u128 {
        assert!(rounds <= GIFT128_ROUNDS, "GIFT-128 has 40 rounds");
        let mut state = plaintext;
        for (r, &rk) in self.round_keys.iter().take(rounds).enumerate() {
            state = round_128(state, rk, r);
        }
        state
    }

    /// Decrypts one 128-bit block.
    pub fn decrypt(&self, ciphertext: u128) -> u128 {
        let mut state = ciphertext;
        for (r, &rk) in self.round_keys.iter().enumerate().rev() {
            state = round_128_inv(state, rk, r);
        }
        state
    }

    /// Returns the state at the input of each round's SubCells layer (see
    /// [`Gift64::round_inputs`]).
    pub fn round_inputs(&self, plaintext: u128) -> Vec<u128> {
        let mut inputs = Vec::with_capacity(GIFT128_ROUNDS);
        let mut state = plaintext;
        for (r, &rk) in self.round_keys.iter().enumerate() {
            inputs.push(state);
            state = round_128(state, rk, r);
        }
        inputs
    }

    /// Inverts the first `rounds` rounds (see [`Gift64::invert_rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `rounds > 40`.
    pub fn invert_rounds(&self, state: u128, rounds: usize) -> u128 {
        assert!(rounds <= GIFT128_ROUNDS, "GIFT-128 has 40 rounds");
        let mut s = state;
        for r in (0..rounds).rev() {
            s = round_128_inv(s, self.round_keys[r], r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_round_trip_64() {
        let cipher = Gift64::new(Key::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677));
        for pt in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
        }
    }

    #[test]
    fn encrypt_decrypt_round_trip_128() {
        let cipher = Gift128::new(Key::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677));
        for pt in [0u128, 1, u128::MAX, 0xdead_beef_cafe_f00d << 32] {
            assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
        }
    }

    #[test]
    fn partial_rounds_compose() {
        let cipher = Gift64::new(Key::from_u128(12345));
        let pt = 0x1122_3344_5566_7788;
        let full = cipher.encrypt(pt);
        let half = cipher.encrypt_rounds(pt, 14);
        // Continuing from the midpoint by replaying all rounds must agree.
        let mut state = pt;
        for r in 0..GIFT64_ROUNDS {
            state = round_64(state, cipher.round_keys()[r], r);
            if r == 13 {
                assert_eq!(state, half);
            }
        }
        assert_eq!(state, full);
    }

    #[test]
    fn invert_rounds_is_left_inverse_of_encrypt_rounds() {
        let cipher = Gift64::new(Key::from_u128(0xfeed_face));
        let pt = 0x0f0f_0f0f_1234_5678;
        for rounds in 0..=GIFT64_ROUNDS {
            let mid = cipher.encrypt_rounds(pt, rounds);
            assert_eq!(cipher.invert_rounds(mid, rounds), pt, "rounds {rounds}");
        }
    }

    #[test]
    fn invert_rounds_is_left_inverse_of_encrypt_rounds_128() {
        let cipher = Gift128::new(Key::from_u128(0xfeed_face_0bad_cafe));
        let pt = 0x0f0f_0f0f_1234_5678_9abc_def0_1111_2222;
        for rounds in [0, 1, 2, 4, 17, GIFT128_ROUNDS] {
            let mid = cipher.encrypt_rounds(pt, rounds);
            assert_eq!(cipher.invert_rounds(mid, rounds), pt, "rounds {rounds}");
        }
    }

    #[test]
    fn explicit_round_key_helpers_invert_each_other() {
        let cipher = Gift64::new(Key::from_u128(0x4242_4242));
        let pt = 0x1357_9bdf_0246_8ace;
        for prefix in [0usize, 1, 2, 3, 4, 9] {
            let keys = &cipher.round_keys()[..prefix];
            let mid = apply_with_round_keys_64(pt, keys);
            assert_eq!(mid, cipher.encrypt_rounds(pt, prefix));
            assert_eq!(invert_with_round_keys_64(mid, keys), pt);
        }
    }

    #[test]
    fn round_inputs_chain_to_ciphertext() {
        let cipher = Gift64::new(Key::from_u128(99));
        let pt = 0xaaaa_5555_3333_cccc;
        let inputs = cipher.round_inputs(pt);
        assert_eq!(inputs.len(), GIFT64_ROUNDS);
        assert_eq!(inputs[0], pt);
        for (r, win) in inputs.windows(2).enumerate() {
            assert_eq!(round_64(win[0], cipher.round_keys()[r], r), win[1]);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Gift64::new(Key::from_u128(1));
        let b = Gift64::new(Key::from_u128(2));
        assert_ne!(a.encrypt(0), b.encrypt(0));
    }

    #[test]
    fn avalanche_flipping_one_plaintext_bit_changes_many_ciphertext_bits() {
        let cipher = Gift64::new(Key::from_u128(0x1234_5678_9abc_def0_0fed_cba9_8765_4321));
        let base = cipher.encrypt(0);
        for bit in [0usize, 17, 42, 63] {
            let flipped = cipher.encrypt(1u64 << bit);
            let distance = (base ^ flipped).count_ones();
            assert!(
                (16..=48).contains(&distance),
                "bit {bit}: hamming distance {distance} outside avalanche window"
            );
        }
    }
}
