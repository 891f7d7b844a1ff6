//! The GIFT 4-bit substitution box and its inverse.
//!
//! GIFT uses a single 4-bit S-box `GS` applied to every nibble of the state
//! (`SubCells`). The table form below is what vulnerable software
//! implementations store in memory; [`apply_bitsliced_nibbles`] implements the
//! same function with pure logic operations on bit planes (no secret-indexed
//! memory access), which is the basis of the constant-time reference cipher.

/// The GIFT S-box `GS`, as specified in the GIFT paper.
///
/// `GS[x]` is the substitution of the 4-bit value `x`.
pub const GIFT_SBOX: [u8; 16] = [
    0x1, 0xa, 0x4, 0xc, 0x6, 0xf, 0x3, 0x9, 0x2, 0xd, 0xb, 0x7, 0x5, 0x0, 0x8, 0xe,
];

/// The inverse GIFT S-box: `GIFT_SBOX_INV[GIFT_SBOX[x]] == x`.
pub const GIFT_SBOX_INV: [u8; 16] = [
    0xd, 0x0, 0x8, 0x6, 0x2, 0xc, 0x4, 0xb, 0xe, 0x7, 0x1, 0xa, 0x3, 0x9, 0xf, 0x5,
];

/// Applies the S-box to a single 4-bit value.
///
/// # Panics
///
/// Panics in debug builds if `x >= 16`.
#[inline]
pub fn sbox(x: u8) -> u8 {
    debug_assert!(x < 16, "S-box input must be a nibble");
    GIFT_SBOX[(x & 0xf) as usize]
}

/// Applies the inverse S-box to a single 4-bit value.
///
/// # Panics
///
/// Panics in debug builds if `x >= 16`.
#[inline]
pub fn sbox_inv(x: u8) -> u8 {
    debug_assert!(x < 16, "inverse S-box input must be a nibble");
    GIFT_SBOX_INV[(x & 0xf) as usize]
}

/// Masks selecting bit plane `b` of every nibble of a 64-bit state.
const PLANE0: u64 = 0x1111_1111_1111_1111;

/// Applies `GS` to every nibble of `state` using the bitsliced logic circuit
/// from the GIFT paper, with the four bit planes kept packed in place.
///
/// Bit plane `b` of nibble `i` lives at state bit `4*i + b`. Because all
/// operations are plane-parallel XOR/AND/OR/NOT, this routine performs no
/// secret-dependent memory access and is the constant-time counterpart of the
/// lookup-table `SubCells`.
#[inline]
pub fn apply_bitsliced_nibbles(state: u64) -> u64 {
    let mut s0 = state & PLANE0;
    let mut s1 = (state >> 1) & PLANE0;
    let mut s2 = (state >> 2) & PLANE0;
    let mut s3 = (state >> 3) & PLANE0;

    s1 ^= s0 & s2;
    s0 ^= s1 & s3;
    s2 ^= s0 | s1;
    s3 ^= s2;
    s1 ^= s3;
    s3 ^= PLANE0; // plane-wise NOT
    s2 ^= s0 & s1;
    // Output planes are {S3, S1, S2, S0}: the old S3 becomes the new LSB
    // plane and the old S0 the new MSB plane.
    core::mem::swap(&mut s0, &mut s3);

    s0 | (s1 << 1) | (s2 << 2) | (s3 << 3)
}

/// Applies `GS` to every nibble of a 128-bit state (see
/// [`apply_bitsliced_nibbles`]).
#[inline]
pub fn apply_bitsliced_nibbles_128(state: u128) -> u128 {
    let lo = apply_bitsliced_nibbles(state as u64);
    let hi = apply_bitsliced_nibbles((state >> 64) as u64);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// `OUTPUT_BIT_PREIMAGES[bit][value]` lists, in ascending order, the eight
/// nibbles whose S-box output has bit `bit` equal to `value`.
const OUTPUT_BIT_PREIMAGES: [[[u8; 8]; 2]; 4] = build_output_bit_preimages();

const fn build_output_bit_preimages() -> [[[u8; 8]; 2]; 4] {
    let mut lists = [[[0u8; 8]; 2]; 4];
    let mut filled = [[0usize; 2]; 4];
    let mut x = 0;
    while x < 16 {
        let mut bit = 0;
        while bit < 4 {
            let value = ((GIFT_SBOX[x] >> bit) & 1) as usize;
            lists[bit][value][filled[bit][value]] = x as u8;
            filled[bit][value] += 1;
            bit += 1;
        }
        x += 1;
    }
    lists
}

/// Returns the 8 nibble values, in ascending order, whose S-box output has
/// bit `bit` equal to `value`.
///
/// This is the list-construction primitive of GRINCH's Algorithm 1 ("Set
/// target bits"): the attacker crafts plaintext nibbles so that a chosen
/// output bit of the first-round S-box layer is pinned to a known value.
///
/// # Panics
///
/// Panics if `bit >= 4`.
pub fn inputs_with_output_bit(bit: u8, value: bool) -> [u8; 8] {
    assert!(bit < 4, "S-box output bit index must be 0..4");
    OUTPUT_BIT_PREIMAGES[bit as usize][usize::from(value)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 16];
        for x in 0..16u8 {
            let y = sbox(x);
            assert!(!seen[y as usize], "duplicate output {y:#x}");
            seen[y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn inverse_round_trips() {
        for x in 0..16u8 {
            assert_eq!(sbox_inv(sbox(x)), x);
            assert_eq!(sbox(sbox_inv(x)), x);
        }
    }

    #[test]
    fn bitsliced_matches_table_on_all_single_nibbles() {
        for x in 0..16u64 {
            for pos in 0..16 {
                let state = x << (4 * pos);
                let expected = {
                    // Other nibbles are zero; GS(0) = 1 fills them.
                    let mut out = 0u64;
                    for i in 0..16 {
                        let nib = ((state >> (4 * i)) & 0xf) as u8;
                        out |= u64::from(sbox(nib)) << (4 * i);
                    }
                    out
                };
                assert_eq!(apply_bitsliced_nibbles(state), expected);
            }
        }
    }

    #[test]
    fn bitsliced_matches_table_on_mixed_state() {
        let state = 0xfedc_ba98_7654_3210u64;
        let mut expected = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            expected |= u64::from(sbox(nib)) << (4 * i);
        }
        assert_eq!(apply_bitsliced_nibbles(state), expected);
    }

    #[test]
    fn bitsliced_128_matches_per_half() {
        let state = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let out = apply_bitsliced_nibbles_128(state);
        assert_eq!(out as u64, apply_bitsliced_nibbles(state as u64));
        assert_eq!(
            (out >> 64) as u64,
            apply_bitsliced_nibbles((state >> 64) as u64)
        );
    }

    #[test]
    fn output_bit_lists_have_eight_entries_each() {
        for bit in 0..4 {
            for value in [false, true] {
                let list = inputs_with_output_bit(bit, value);
                let filtered: Vec<u8> = (0u8..16)
                    .filter(|&x| (sbox(x) >> bit) & 1 == u8::from(value))
                    .collect();
                assert_eq!(list.to_vec(), filtered, "bit {bit} value {value}");
            }
        }
    }
}
