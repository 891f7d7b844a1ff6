//! The PRESENT block cipher (Bogdanov et al., CHES 2007) — the ISO/IEC
//! 29192-2 ultra-lightweight cipher that GIFT was designed to improve on.
//!
//! The GRINCH paper's §II positions GIFT against PRESENT (the branching-
//! number-3 S-box constraint GIFT relaxes to BN2). Having PRESENT in the
//! workspace allows a structural side-channel comparison: PRESENT XORs a
//! **full 64-bit round key into the state before SubCells**, so a
//! table-lookup implementation leaks `nibble(plaintext ⊕ K₁)` in its very
//! first round — four key bits per segment, versus GIFT's two bits per
//! segment starting only in round 2 (see
//! `grinch::experiments::present_compare`).
//!
//! Implemented: PRESENT-80 and PRESENT-128 (80/128-bit keys), 31 rounds,
//! with a constant-time reference path and a table-driven path reporting
//! its S-box reads through the same [`MemoryObserver`] interface as GIFT.

use crate::observer::{Access, AccessKind, MemoryObserver, TableLayout};

/// Number of PRESENT rounds (31 round functions + final key addition).
pub const PRESENT_ROUNDS: usize = 31;

/// The PRESENT S-box.
pub const PRESENT_SBOX: [u8; 16] = [
    0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd, 0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2,
];

/// The inverse PRESENT S-box.
pub const PRESENT_SBOX_INV: [u8; 16] = build_inverse();

const fn build_inverse() -> [u8; 16] {
    let mut inv = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        inv[PRESENT_SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// The PRESENT bit permutation: bit `i` moves to `P(i) = 16·(i mod 4) +
/// ⌊i/4⌋` (bit 63 fixed).
#[inline]
pub const fn present_perm(i: usize) -> usize {
    if i == 63 {
        63
    } else {
        (16 * i) % 63
    }
}

fn permute(state: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..64 {
        out |= ((state >> i) & 1) << present_perm(i);
    }
    out
}

fn permute_inv(state: u64) -> u64 {
    let mut out = 0u64;
    for i in 0..64 {
        out |= ((state >> present_perm(i)) & 1) << i;
    }
    out
}

/// Key length variants of PRESENT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PresentKey {
    /// 80-bit key.
    K80(u128),
    /// 128-bit key.
    K128(u128),
}

/// Expands a PRESENT key into the 32 round keys.
pub fn expand_present(key: PresentKey) -> [u64; PRESENT_ROUNDS + 1] {
    let mut rks = [0u64; PRESENT_ROUNDS + 1];
    // ct-allow: key-size variant selection is public configuration, not key data
    match key {
        PresentKey::K80(k) => {
            // 80-bit register in the low bits of a u128.
            let mut reg = k & ((1u128 << 80) - 1);
            for (round, rk) in rks.iter_mut().enumerate() {
                *rk = (reg >> 16) as u64;
                // Rotate left by 61.
                reg = ((reg << 61) | (reg >> 19)) & ((1u128 << 80) - 1);
                // S-box on the top nibble.
                let top = ((reg >> 76) & 0xf) as u8;
                reg = (reg & !(0xfu128 << 76)) | (u128::from(PRESENT_SBOX[top as usize]) << 76);
                // XOR round counter into bits 19..15.
                reg ^= ((round as u128 + 1) & 0x1f) << 15;
            }
        }
        PresentKey::K128(k) => {
            let mut reg = k;
            for (round, rk) in rks.iter_mut().enumerate() {
                *rk = (reg >> 64) as u64;
                // Rotate left by 61.
                reg = reg.rotate_left(61);
                // S-boxes on the top two nibbles.
                let n1 = ((reg >> 124) & 0xf) as usize;
                let n2 = ((reg >> 120) & 0xf) as usize;
                reg = (reg & !(0xffu128 << 120))
                    | (u128::from(PRESENT_SBOX[n1]) << 124)
                    | (u128::from(PRESENT_SBOX[n2]) << 120);
                // XOR round counter into bits 66..62.
                reg ^= ((round as u128 + 1) & 0x1f) << 62;
            }
        }
    }
    rks
}

/// Constant-time reference PRESENT.
#[derive(Clone, Debug)]
pub struct Present {
    round_keys: [u64; PRESENT_ROUNDS + 1],
}

impl Present {
    /// Creates a PRESENT instance.
    pub fn new(key: PresentKey) -> Self {
        Self {
            round_keys: expand_present(key),
        }
    }

    /// The 32 round keys (31 rounds + final whitening).
    pub fn round_keys(&self) -> &[u64; PRESENT_ROUNDS + 1] {
        &self.round_keys
    }

    /// Encrypts one 64-bit block.
    pub fn encrypt(&self, plaintext: u64) -> u64 {
        let mut state = plaintext;
        for r in 0..PRESENT_ROUNDS {
            state ^= self.round_keys[r];
            let mut subbed = 0u64;
            for i in 0..16 {
                let nib = ((state >> (4 * i)) & 0xf) as usize;
                subbed |= u64::from(PRESENT_SBOX[nib]) << (4 * i);
            }
            state = permute(subbed);
        }
        state ^ self.round_keys[PRESENT_ROUNDS]
    }

    /// Decrypts one 64-bit block.
    pub fn decrypt(&self, ciphertext: u64) -> u64 {
        let mut state = ciphertext ^ self.round_keys[PRESENT_ROUNDS];
        for r in (0..PRESENT_ROUNDS).rev() {
            state = permute_inv(state);
            let mut subbed = 0u64;
            for i in 0..16 {
                let nib = ((state >> (4 * i)) & 0xf) as usize;
                subbed |= u64::from(PRESENT_SBOX_INV[nib]) << (4 * i);
            }
            state = subbed ^ self.round_keys[r];
        }
        state
    }
}

/// Table-driven PRESENT with observable S-box reads.
#[derive(Clone, Debug)]
pub struct TablePresent {
    round_keys: [u64; PRESENT_ROUNDS + 1],
    layout: TableLayout,
}

impl TablePresent {
    /// Creates the table-driven cipher with the given table placement.
    pub fn new(key: PresentKey, layout: TableLayout) -> Self {
        Self {
            round_keys: expand_present(key),
            layout,
        }
    }

    /// The table placement.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Executes one round (0-based; `round == 31` applies only the final
    /// key whitening), reporting S-box reads to `obs`.
    ///
    /// # Panics
    ///
    /// Panics if `round > 31`.
    pub fn run_single_round<O: MemoryObserver + ?Sized>(
        &self,
        state: u64,
        round: usize,
        obs: &mut O,
    ) -> u64 {
        assert!(round <= PRESENT_ROUNDS, "PRESENT has 31 rounds + whitening");
        if round == PRESENT_ROUNDS {
            return state ^ self.round_keys[PRESENT_ROUNDS];
        }
        let state = state ^ self.round_keys[round];
        let mut subbed = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            obs.on_read(Access {
                addr: self.layout.sbox_entry_addr(nib),
                kind: AccessKind::SboxRead,
            });
            subbed |= u64::from(PRESENT_SBOX[nib as usize]) << (4 * i);
        }
        permute(subbed)
    }

    /// Encrypts one block, reporting every S-box read to `obs`.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u64, obs: &mut O) -> u64 {
        let mut state = plaintext;
        for round in 0..=PRESENT_ROUNDS {
            state = self.run_single_round(state, round, obs);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{NullObserver, RecordingObserver};

    #[test]
    fn present80_published_vectors() {
        // Test vectors from the PRESENT paper (CHES 2007).
        let cases: [(u128, u64, u64); 4] = [
            (0, 0, 0x5579_c138_7b22_8445),
            (u128::MAX >> 48, 0, 0xe72c_46c0_f594_5049),
            (0, u64::MAX, 0xa112_ffc7_2f68_417b),
            (u128::MAX >> 48, u64::MAX, 0x3333_dcd3_2132_10d2),
        ];
        for (key, pt, ct) in cases {
            let cipher = Present::new(PresentKey::K80(key));
            assert_eq!(cipher.encrypt(pt), ct, "key {key:x} pt {pt:x}");
            assert_eq!(cipher.decrypt(ct), pt);
        }
    }

    #[test]
    fn present128_round_trips() {
        let cipher = Present::new(PresentKey::K128(0x0123_4567_89ab_cdef_1122_3344_5566_7788));
        for pt in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert_eq!(cipher.decrypt(cipher.encrypt(pt)), pt);
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut seen = [false; 64];
        for i in 0..64 {
            let p = present_perm(i);
            assert!(!seen[p]);
            seen[p] = true;
        }
        for s in [0u64, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(permute_inv(permute(s)), s);
        }
    }

    #[test]
    fn sbox_is_a_permutation_with_inverse() {
        let mut seen = [false; 16];
        for (x, &sb) in PRESENT_SBOX.iter().enumerate() {
            let y = sb as usize;
            assert!(!seen[y]);
            seen[y] = true;
            assert_eq!(PRESENT_SBOX_INV[y] as usize, x);
        }
    }

    #[test]
    fn table_and_reference_agree() {
        let key = PresentKey::K80(0x1234_5678_9abc_def0_1234);
        let table = TablePresent::new(key, TableLayout::new(0x600));
        let reference = Present::new(key);
        let mut obs = NullObserver;
        for pt in [0u64, 42, u64::MAX, 0x0f0f_f0f0_1234_5678] {
            assert_eq!(table.encrypt_with(pt, &mut obs), reference.encrypt(pt));
        }
    }

    #[test]
    fn first_round_sbox_indices_are_plaintext_xor_key() {
        // The structural difference from GIFT the comparison experiment
        // exploits: PRESENT's round-1 lookups already involve the key.
        let key_val = 0xfedc_ba98_7654_3210_abcdu128;
        let key = PresentKey::K80(key_val);
        let layout = TableLayout::new(0x600);
        let table = TablePresent::new(key, layout);
        let rk1 = table.round_keys[0];
        let pt = 0x1111_2222_3333_4444;
        let mut obs = RecordingObserver::new();
        table.run_single_round(pt, 0, &mut obs);
        let addrs = obs.sbox_addrs();
        assert_eq!(addrs.len(), 16);
        for (i, &addr) in addrs.iter().enumerate() {
            let expected = ((pt ^ rk1) >> (4 * i)) & 0xf;
            assert_eq!(addr, layout.sbox_entry_addr(expected as u8), "segment {i}");
        }
    }

    #[test]
    fn key_schedule_differs_between_variants() {
        let a = expand_present(PresentKey::K80(7));
        let b = expand_present(PresentKey::K128(7));
        assert_ne!(a, b);
    }
}
