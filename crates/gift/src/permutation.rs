//! The GIFT bit permutations `P64` and `P128` (`PermBits`) and their
//! inverses.
//!
//! GIFT moves bit `i` of the state to bit `P(i)`. Both permutations follow the
//! same closed form from the GIFT specification,
//!
//! ```text
//! P(i) = 4*floor(i/16) + S*((3*floor((i mod 16)/4) + (i mod 4)) mod 4) + (i mod 4)
//! ```
//!
//! with the spreading stride `S = 16` for GIFT-64 and `S = 32` for GIFT-128.
//! The inverse tables are derived at compile time.
//!
//! The permutations are applied as masked rotations, not bit by bit.
//! `P(i) − i` is always a multiple of 4, because `P` keeps each bit's
//! position within its nibble. So the bits of a `4n`-bit state fall into `n`
//! *rotation classes*, class `k` holding the bits that move by `4k`, and one
//! `(state & mask_k).rotate_left(4k)` moves a whole class: 16 rotations for
//! GIFT-64, 32 for GIFT-128. The class masks are derived from the tables at
//! compile time. This form is branch-free and never indexes memory with
//! state bits.

/// Computes the closed-form GIFT permutation for a state of `4*stride` bits.
const fn perm_formula(i: usize, stride: usize) -> usize {
    4 * (i / 16) + stride * ((3 * ((i % 16) / 4) + (i % 4)) % 4) + (i % 4)
}

const fn build_p64() -> [u8; 64] {
    let mut table = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        table[i] = perm_formula(i, 16) as u8;
        i += 1;
    }
    table
}

const fn build_p128() -> [u8; 128] {
    let mut table = [0u8; 128];
    let mut i = 0;
    while i < 128 {
        table[i] = perm_formula(i, 32) as u8;
        i += 1;
    }
    table
}

const fn invert_64(table: [u8; 64]) -> [u8; 64] {
    let mut inv = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        inv[table[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

const fn invert_128(table: [u8; 128]) -> [u8; 128] {
    let mut inv = [0u8; 128];
    let mut i = 0;
    while i < 128 {
        inv[table[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// Splits a 64-bit permutation table into its rotation classes: bit `i` is
/// set in entry `k` iff `table[i] − i ≡ 4k (mod 64)`.
const fn rotation_classes_64(table: [u8; 64]) -> [u64; 16] {
    let mut classes = [0u64; 16];
    let mut i = 0;
    while i < 64 {
        let distance = (table[i] as usize + 64 - i) % 64;
        assert!(
            distance.is_multiple_of(4),
            "PermBits keeps bits within their nibble class"
        );
        classes[distance / 4] |= 1 << i;
        i += 1;
    }
    classes
}

/// Splits a 128-bit permutation table into its rotation classes: bit `i` is
/// set in entry `k` iff `table[i] − i ≡ 4k (mod 128)`.
const fn rotation_classes_128(table: [u8; 128]) -> [u128; 32] {
    let mut classes = [0u128; 32];
    let mut i = 0;
    while i < 128 {
        let distance = (table[i] as usize + 128 - i) % 128;
        assert!(
            distance.is_multiple_of(4),
            "PermBits keeps bits within their nibble class"
        );
        classes[distance / 4] |= 1 << i;
        i += 1;
    }
    classes
}

/// The GIFT-64 bit permutation: state bit `i` moves to bit `P64[i]`.
pub const P64: [u8; 64] = build_p64();
/// The inverse of [`P64`]: the bit at position `j` came from `P64_INV[j]`.
pub const P64_INV: [u8; 64] = invert_64(P64);
/// The GIFT-128 bit permutation: state bit `i` moves to bit `P128[i]`.
pub const P128: [u8; 128] = build_p128();
/// The inverse of [`P128`].
pub const P128_INV: [u8; 128] = invert_128(P128);

const P64_CLASSES: [u64; 16] = rotation_classes_64(P64);
const P64_INV_CLASSES: [u64; 16] = rotation_classes_64(P64_INV);
const P128_CLASSES: [u128; 32] = rotation_classes_128(P128);
const P128_INV_CLASSES: [u128; 32] = rotation_classes_128(P128_INV);

/// Rotates every class of `state` into place: class `k` by `4k` bits.
#[inline(always)]
fn rotate_classes_64(state: u64, classes: &[u64; 16]) -> u64 {
    let mut out = 0u64;
    for (k, &mask) in classes.iter().enumerate() {
        out |= (state & mask).rotate_left(4 * k as u32);
    }
    out
}

/// Rotates every class of `state` into place: class `k` by `4k` bits.
#[inline(always)]
fn rotate_classes_128(state: u128, classes: &[u128; 32]) -> u128 {
    let mut out = 0u128;
    for (k, &mask) in classes.iter().enumerate() {
        out |= (state & mask).rotate_left(4 * k as u32);
    }
    out
}

/// Applies `PermBits` to a GIFT-64 state.
#[inline]
pub fn permute_64(state: u64) -> u64 {
    rotate_classes_64(state, &P64_CLASSES)
}

/// Applies the inverse of `PermBits` to a GIFT-64 state.
#[inline]
pub fn permute_64_inv(state: u64) -> u64 {
    rotate_classes_64(state, &P64_INV_CLASSES)
}

/// Applies `PermBits` to a GIFT-128 state.
#[inline]
pub fn permute_128(state: u128) -> u128 {
    rotate_classes_128(state, &P128_CLASSES)
}

/// Applies the inverse of `PermBits` to a GIFT-128 state.
#[inline]
pub fn permute_128_inv(state: u128) -> u128 {
    rotate_classes_128(state, &P128_INV_CLASSES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p64_is_a_permutation() {
        let mut seen = [false; 64];
        for &p in P64.iter() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn p128_is_a_permutation() {
        let mut seen = [false; 128];
        for &p in P128.iter() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn p64_spot_values_match_specification_table() {
        // Entries transcribed from the GIFT paper's P64 table.
        assert_eq!(P64[0], 0);
        assert_eq!(P64[1], 17);
        assert_eq!(P64[2], 34);
        assert_eq!(P64[3], 51);
        assert_eq!(P64[4], 48);
        assert_eq!(P64[5], 1);
        assert_eq!(P64[15], 3);
        assert_eq!(P64[16], 4);
        assert_eq!(P64[31], 7);
        assert_eq!(P64[51], 63);
        assert_eq!(P64[62], 62);
        assert_eq!(P64[63], 15);
    }

    #[test]
    fn p64_preserves_bit_position_within_nibble_class() {
        // The GIFT permutation maps bit 4i+b of the state to bit position
        // congruent to b modulo 4 — a structural property GRINCH exploits:
        // key-XORed positions (b ∈ {0,1} for GIFT-64) always receive bits
        // that were at positions ≡ b (mod 4) before PermBits.
        for (i, &p) in P64.iter().enumerate() {
            assert_eq!(i % 4, (p % 4) as usize);
        }
        for (i, &p) in P128.iter().enumerate() {
            assert_eq!(i % 4, (p % 4) as usize);
        }
    }

    #[test]
    fn rotation_classes_partition_every_state_bit() {
        for classes in [P64_CLASSES, P64_INV_CLASSES] {
            assert!(classes.iter().all(|&m| m != 0), "all 16 distances occur");
            assert_eq!(classes.iter().fold(0, |acc, &m| acc | m), u64::MAX);
            assert_eq!(classes.iter().map(|m| m.count_ones()).sum::<u32>(), 64);
        }
        for classes in [P128_CLASSES, P128_INV_CLASSES] {
            assert!(classes.iter().all(|&m| m != 0), "all 32 distances occur");
            assert_eq!(classes.iter().fold(0, |acc, &m| acc | m), u128::MAX);
            assert_eq!(classes.iter().map(|m| m.count_ones()).sum::<u32>(), 128);
        }
    }

    #[test]
    fn forward_then_inverse_is_identity_64() {
        let samples = [
            0u64,
            u64::MAX,
            0x0123_4567_89ab_cdef,
            0xdead_beef_cafe_f00d,
            1,
            1 << 63,
        ];
        for s in samples {
            assert_eq!(permute_64_inv(permute_64(s)), s);
            assert_eq!(permute_64(permute_64_inv(s)), s);
        }
    }

    #[test]
    fn forward_then_inverse_is_identity_128() {
        let samples = [
            0u128,
            u128::MAX,
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
            1,
            1 << 127,
        ];
        for s in samples {
            assert_eq!(permute_128_inv(permute_128(s)), s);
            assert_eq!(permute_128(permute_128_inv(s)), s);
        }
    }

    #[test]
    fn each_output_nibble_draws_from_four_distinct_sboxes() {
        // Each nibble of the permuted state collects one bit from each of
        // four different source nibbles (the "quad" structure). GRINCH relies
        // on this: fixing one bit in each of four plaintext segments pins an
        // entire second-round S-box index.
        for out_nibble in 0..16usize {
            let mut sources: Vec<usize> = (0..4)
                .map(|b| (P64_INV[4 * out_nibble + b] / 4) as usize)
                .collect();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 4, "output nibble {out_nibble}");
        }
    }
}
