//! Target-bit selection — the paper's Algorithm 1, generalised.
//!
//! A GRINCH campaign targets one 4-bit *segment* of the state entering round
//! `t + 1` (the index of one S-box lookup of that round). The four bits of
//! that segment come — through round *t*'s `PermBits` — from four distinct
//! S-boxes of round *t*, one output bit each. Because the GIFT permutation
//! preserves the bit position modulo 4, source *output-bit* `b` feeds target
//! *index-bit* `b`.
//!
//! The attacker pins each of those four source output bits to a chosen value
//! `forced[b]` by restricting the corresponding round-*t* input nibble to
//! the eight S-box preimages with that output bit (the lists of Algorithm
//! 1). The resulting round-`t+1` index is then constant across encryptions:
//!
//! ```text
//! index = forced[0] ⊕ V_t[s]            (bit 0)
//!       | forced[1] ⊕ U_t[s]            (bit 1)
//!       | forced[2]                     (bit 2)
//!       | forced[3] ⊕ rc_bit(t, s)      (bit 3)
//! ```
//!
//! so observing the index reveals the two round-key bits
//! (`V_t[s] = index₀ ⊕ forced[0]`, `U_t[s] = index₁ ⊕ forced[1]` — the
//! paper's Step 4, which with `forced = 1111` reduces to `Key ← ¬Index`).

use gift_cipher::constants::ROUND_CONSTANTS;
use gift_cipher::permutation::P64_INV;
use gift_cipher::sbox::inputs_with_output_bit;
use gift_cipher::GIFT64_SEGMENTS;

/// A constraint on one round-*t* input segment: its S-box output bit
/// `output_bit` must equal `value`, which the attacker enforces by drawing
/// the segment's value from `choices` (the 8 valid S-box inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SourceConstraint {
    /// The round-*t* input segment being constrained.
    pub segment: usize,
    /// Which S-box output bit is pinned (0..4).
    pub output_bit: u8,
    /// The pinned value.
    pub value: bool,
    /// The eight segment values satisfying the constraint, ascending.
    pub choices: [u8; 8],
}

/// One campaign target: segment `segment` of the round-`stage_round + 1`
/// S-box layer, with the four source output bits forced to `forced`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TargetSpec {
    /// 1-based round whose round key is being recovered (the paper attacks
    /// `stage_round ∈ 1..=4` to peel the whole 128-bit key).
    pub stage_round: usize,
    /// Target segment of the round-`stage_round + 1` input (0..16).
    pub segment: usize,
    /// Values forced onto the four source S-box output bits, index `b`
    /// for target index bit `b`. The paper's Algorithm 1 uses all-ones;
    /// coarse-cache-line campaigns sweep other values.
    pub forced: [bool; 4],
}

impl TargetSpec {
    /// Creates a target with the paper's default all-ones forcing.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= 16` or `stage_round` is 0.
    pub fn new(stage_round: usize, segment: usize) -> Self {
        Self::with_forced(stage_round, segment, [true; 4])
    }

    /// Creates a target with explicit forced values.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= 16` or `stage_round` is 0.
    pub fn with_forced(stage_round: usize, segment: usize, forced: [bool; 4]) -> Self {
        assert!(stage_round >= 1, "stage rounds are 1-based");
        assert!(segment < GIFT64_SEGMENTS, "GIFT-64 has 16 segments");
        Self {
            stage_round,
            segment,
            forced,
        }
    }

    /// Creates a target whose forced bits are the 4-bit pattern `pattern`
    /// (bit `b` of `pattern` forces source bit `b`).
    ///
    /// # Panics
    ///
    /// Panics if `pattern >= 16`, `segment >= 16` or `stage_round == 0`.
    pub fn with_forced_pattern(stage_round: usize, segment: usize, pattern: u8) -> Self {
        assert!(pattern < 16, "forced pattern is a nibble");
        Self::with_forced(
            stage_round,
            segment,
            [
                pattern & 1 != 0,
                pattern & 2 != 0,
                pattern & 4 != 0,
                pattern & 8 != 0,
            ],
        )
    }

    /// The paper's Algorithm 1: the four source-segment constraints that pin
    /// this target's S-box index.
    ///
    /// Element `b` constrains the source segment feeding target index bit
    /// `b`.
    pub fn source_constraints(&self) -> [SourceConstraint; 4] {
        core::array::from_fn(|b| {
            let src_pos = P64_INV[4 * self.segment + b] as usize;
            let output_bit = (src_pos % 4) as u8;
            debug_assert_eq!(
                output_bit as usize, b,
                "GIFT permutation preserves bit class"
            );
            SourceConstraint {
                segment: src_pos / 4,
                output_bit,
                value: self.forced[b],
                choices: inputs_with_output_bit(output_bit, self.forced[b]),
            }
        })
    }

    /// The source segments (round-*t* input segments) this target
    /// constrains — the target's *quad*.
    pub fn source_segments(&self) -> [usize; 4] {
        core::array::from_fn(|b| P64_INV[4 * self.segment + b] as usize / 4)
    }

    /// The round-constant bit XORed into this target's index bit 3 during
    /// round `stage_round`'s `AddRoundKey`.
    pub fn round_constant_bit(&self) -> bool {
        let rc = ROUND_CONSTANTS[self.stage_round - 1];
        match self.segment {
            s if s < 6 => (rc >> s) & 1 == 1,
            15 => true, // the fixed 1 XORed into the state MSB
            _ => false,
        }
    }

    /// The S-box index of round `stage_round + 1` this campaign produces,
    /// under the hypothesis that the round key bits are `(v_bit, u_bit)`.
    pub fn expected_index(&self, v_bit: bool, u_bit: bool) -> u8 {
        let b0 = self.forced[0] ^ v_bit;
        let b1 = self.forced[1] ^ u_bit;
        let b2 = self.forced[2];
        let b3 = self.forced[3] ^ self.round_constant_bit();
        u8::from(b0) | (u8::from(b1) << 1) | (u8::from(b2) << 2) | (u8::from(b3) << 3)
    }

    /// Step 4 of the paper: inverts an observed index into the two round-key
    /// bits `(v_bit, u_bit)` of this segment.
    ///
    /// With the paper's `forced = 1111` this is exactly `Key ← ¬Index`.
    pub fn key_bits_from_index(&self, index: u8) -> (bool, bool) {
        let v = ((index & 1) != 0) ^ self.forced[0];
        let u = ((index >> 1) & 1 != 0) ^ self.forced[1];
        (v, u)
    }

    /// The four target segments (0..16) that share this target's source
    /// quad. Campaigns for one segment per quad can share encryptions (their
    /// source constraints are disjoint).
    pub fn quad_partners(&self) -> [usize; 4] {
        let mut sources = self.source_segments();
        sources.sort_unstable();
        // Targets whose source set equals this target's source set.
        let mut partners = [0usize; 4];
        let mut n = 0;
        for s in 0..GIFT64_SEGMENTS {
            let mut other = TargetSpec::new(self.stage_round, s).source_segments();
            other.sort_unstable();
            if other == sources {
                partners[n] = s;
                n += 1;
            }
        }
        debug_assert_eq!(n, 4, "each quad feeds exactly four targets");
        partners
    }
}

/// Splits the 16 target segments into batches whose source quads are
/// disjoint, so one crafted plaintext can carry one campaign per quad.
///
/// Returns four batches of four target segments each.
pub fn disjoint_batches(stage_round: usize) -> [[usize; 4]; 4] {
    deal_batches(|s| TargetSpec::new(stage_round, s).source_segments())
}

/// Deals the `4 * B` targets of one width into four batches of `B` whose
/// source quads are pairwise disjoint. The four targets sharing a quad
/// (its partners, ascending) go to different batches; quads are taken in
/// the order of their lowest target.
pub(crate) fn deal_batches<const B: usize>(
    source_segments: impl Fn(usize) -> [usize; 4],
) -> [[usize; B]; 4] {
    let quads: Vec<[usize; 4]> = (0..4 * B)
        .map(|s| {
            let mut quad = source_segments(s);
            quad.sort_unstable();
            quad
        })
        .collect();
    let mut batches = [[0usize; B]; 4];
    let mut used = vec![false; 4 * B];
    let mut column = 0;
    for s in 0..4 * B {
        if used[s] {
            continue;
        }
        let partners = (0..4 * B).filter(|&t| quads[t] == quads[s]);
        for (batch, p) in partners.enumerate() {
            batches[batch][column] = p;
            used[p] = true;
        }
        column += 1;
    }
    debug_assert_eq!(column, B, "each quad feeds exactly four targets");
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use gift_cipher::sbox::sbox;

    #[test]
    fn constraints_pin_the_claimed_output_bits() {
        for seg in 0..16 {
            for pattern in 0..16u8 {
                let spec = TargetSpec::with_forced_pattern(1, seg, pattern);
                for (b, c) in spec.source_constraints().iter().enumerate() {
                    assert_eq!(c.output_bit as usize, b);
                    for &x in &c.choices {
                        assert_eq!(
                            (sbox(x) >> c.output_bit) & 1,
                            u8::from(c.value),
                            "segment {seg} pattern {pattern} bit {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn source_segments_are_distinct() {
        for seg in 0..16 {
            let spec = TargetSpec::new(1, seg);
            let mut sources = spec.source_segments().to_vec();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 4, "target {seg}");
        }
    }

    #[test]
    fn expected_index_and_key_bits_invert_each_other() {
        for seg in 0..16 {
            for pattern in 0..16u8 {
                let spec = TargetSpec::with_forced_pattern(2, seg, pattern);
                for v in [false, true] {
                    for u in [false, true] {
                        let idx = spec.expected_index(v, u);
                        assert_eq!(spec.key_bits_from_index(idx), (v, u));
                    }
                }
            }
        }
    }

    #[test]
    fn paper_default_forcing_gives_key_equals_not_index() {
        let spec = TargetSpec::new(1, 7);
        for idx in 0..16u8 {
            let (v, u) = spec.key_bits_from_index(idx);
            assert_eq!(v, (idx & 1) == 0, "Key[i] = ¬Index[a]");
            assert_eq!(u, ((idx >> 1) & 1) == 0, "Key[j] = ¬Index[b]");
        }
    }

    #[test]
    fn round_constant_bits_touch_low_six_segments_and_msb() {
        // Round 1 constant is 0x01: only segment 0's bit 3 is flipped,
        // plus the fixed MSB of segment 15.
        let rc1: Vec<bool> = (0..16)
            .map(|s| TargetSpec::new(1, s).round_constant_bit())
            .collect();
        assert!(rc1[0]);
        assert!(!rc1[1]);
        assert!(rc1[15]);
        for (s, &bit) in rc1.iter().enumerate().take(15).skip(6) {
            assert!(!bit, "segment {s}");
        }
    }

    #[test]
    fn quad_partners_form_a_partition() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..16 {
            let partners = TargetSpec::new(1, s).quad_partners();
            assert!(partners.contains(&s));
            for p in partners {
                seen.insert(p);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn disjoint_batches_cover_all_segments_with_disjoint_sources() {
        let batches = disjoint_batches(1);
        let mut all: Vec<usize> = batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
        for batch in batches {
            let mut sources = Vec::new();
            for &seg in &batch {
                sources.extend(TargetSpec::new(1, seg).source_segments());
            }
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), 16, "batch sources must be disjoint");
        }
    }

    #[test]
    fn expected_index_is_constant_in_the_right_sense() {
        // Changing only non-key forced bits moves the index by a known XOR.
        let a = TargetSpec::with_forced_pattern(1, 3, 0b1111);
        let b = TargetSpec::with_forced_pattern(1, 3, 0b0011);
        for v in [false, true] {
            for u in [false, true] {
                assert_eq!(a.expected_index(v, u) ^ b.expected_index(v, u), 0b1100);
            }
        }
    }
}
