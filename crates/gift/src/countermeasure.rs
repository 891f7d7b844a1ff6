//! The two countermeasures proposed in §IV-C of the GRINCH paper.
//!
//! 1. [`WideLineGift64`] — the S-box is reshaped from 16 rows of 4 bits into
//!    **8 rows of 8 bits** so that, with an 8-byte cache line, the whole
//!    table occupies a single line. Every lookup then touches the same line
//!    and the cache reveals nothing about the index (at the cost of a nibble
//!    select on the output).
//! 2. [`masked_round_keys_64`] — a modified `UpdateKey` in which the first
//!    four rounds' subkeys are pre-mixed with key bits that the unmodified
//!    schedule would not consume until later rounds. The relation
//!    `key = index ⊕ input` that GRINCH inverts then involves unknown late
//!    key material, so recovering the first-round index no longer yields raw
//!    key bits. (The paper notes that the cryptanalytic soundness of such a
//!    schedule is out of scope; we follow suit and treat it purely as a
//!    leakage-shape change.)

use crate::bitwise::add_round_key_64;
use crate::key_schedule::{expand_64, Key, RoundKey64};
use crate::observer::{Access, AccessKind, MemoryObserver, TableLayout};
use crate::permutation::permute_64;
use crate::sbox::GIFT_SBOX;
use crate::GIFT64_ROUNDS;

/// The reshaped S-box: row `r` packs entry `2r` in the low nibble and entry
/// `2r + 1` in the high nibble, giving 8 bytes total.
pub const WIDE_SBOX: [u8; 8] = build_wide_sbox();

const fn build_wide_sbox() -> [u8; 8] {
    let mut rows = [0u8; 8];
    let mut r = 0;
    while r < 8 {
        rows[r] = GIFT_SBOX[2 * r] | (GIFT_SBOX[2 * r + 1] << 4);
        r += 1;
    }
    rows
}

/// GIFT-64 with the wide-line S-box countermeasure.
///
/// Functionally identical to GIFT-64; the only change is the memory shape of
/// `SubCells`: a lookup of nibble `x` reads row `x >> 1` of [`WIDE_SBOX`]
/// and selects a nibble with `x & 1`. With the table line-aligned and lines
/// of ≥ 8 bytes, all rows share one cache line.
///
/// ```
/// use gift_cipher::countermeasure::WideLineGift64;
/// use gift_cipher::{Gift64, Key, NullObserver, TableLayout};
///
/// let key = Key::from_u128(11);
/// let protected = WideLineGift64::new(key, TableLayout::new(0x400));
/// let reference = Gift64::new(key);
/// let mut obs = NullObserver;
/// assert_eq!(protected.encrypt_with(5, &mut obs), reference.encrypt(5));
/// ```
#[derive(Clone, Debug)]
pub struct WideLineGift64 {
    round_keys: Vec<RoundKey64>,
    layout: TableLayout,
}

impl WideLineGift64 {
    /// Creates the protected cipher. For the countermeasure to be effective
    /// `layout.sbox_base` should be 8-byte aligned (the paper's
    /// recommendation is to pair the reshaped table with 8-byte lines).
    pub fn new(key: Key, layout: TableLayout) -> Self {
        Self {
            round_keys: expand_64(key, GIFT64_ROUNDS),
            layout,
        }
    }

    /// The table placement used by this instance.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Encrypts one block, reporting each wide-row read to `obs`.
    ///
    /// Note the address stream: entry `x` produces a read of
    /// `sbox_base + (x >> 1)` — only eight distinct addresses, spanning
    /// 8 bytes.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u64, obs: &mut O) -> u64 {
        let mut state = plaintext;
        for round in 0..GIFT64_ROUNDS {
            state = self.run_single_round(state, round, obs);
        }
        state
    }

    /// Executes exactly one round (0-based `round`) on `state`, reporting
    /// the wide-row reads to `obs`, and returns the next state.
    ///
    /// # Panics
    ///
    /// Panics if `round >= 28`.
    pub fn run_single_round<O: MemoryObserver + ?Sized>(
        &self,
        state: u64,
        round: usize,
        obs: &mut O,
    ) -> u64 {
        assert!(round < GIFT64_ROUNDS, "GIFT-64 has 28 rounds");
        let rk = self.round_keys[round];
        let mut subbed = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            let row = nib >> 1;
            obs.on_read(Access {
                addr: self.layout.sbox_base + u64::from(row),
                kind: AccessKind::SboxRead,
            });
            let packed = WIDE_SBOX[row as usize];
            // Branchless half-select: the low bit of the nibble picks the
            // packed half via a shift, so the memory access pattern is the
            // only secret-dependent behavior left in this round function.
            let out = (packed >> ((nib & 1) * 4)) & 0xf;
            subbed |= u64::from(out) << (4 * i);
        }
        add_round_key_64(permute_64(subbed), rk, round)
    }
}

/// GIFT-64 with the classic *full-scan* software mitigation: every SubCells
/// lookup reads **all sixteen** table entries in a fixed order and selects
/// the wanted one arithmetically, so the address stream is completely
/// data-independent (at a 16× memory-read overhead — measured in the
/// `cipher_throughput` bench).
#[derive(Clone, Debug)]
pub struct FullScanGift64 {
    round_keys: Vec<RoundKey64>,
    layout: TableLayout,
}

impl FullScanGift64 {
    /// Creates the full-scan cipher.
    pub fn new(key: Key, layout: TableLayout) -> Self {
        Self {
            round_keys: expand_64(key, GIFT64_ROUNDS),
            layout,
        }
    }

    /// Executes one round; the observer sees sixteen reads of the *entire*
    /// table per SubCells layer, independent of the data.
    ///
    /// # Panics
    ///
    /// Panics if `round >= 28`.
    pub fn run_single_round<O: MemoryObserver + ?Sized>(
        &self,
        state: u64,
        round: usize,
        obs: &mut O,
    ) -> u64 {
        assert!(round < GIFT64_ROUNDS, "GIFT-64 has 28 rounds");
        let rk = self.round_keys[round];
        let mut subbed = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            let mut out = 0u8;
            for entry in 0..16u8 {
                obs.on_read(Access {
                    addr: self.layout.sbox_entry_addr(entry),
                    kind: AccessKind::SboxRead,
                });
                // Constant-time select: mask is all-ones iff entry == nib.
                let mask = ((u16::from(entry ^ nib).wrapping_sub(1) >> 8) & 0xff) as u8;
                out |= GIFT_SBOX[entry as usize] & mask;
            }
            subbed |= u64::from(out) << (4 * i);
        }
        add_round_key_64(permute_64(subbed), rk, round)
    }

    /// Encrypts one block with the constant address stream.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u64, obs: &mut O) -> u64 {
        let mut state = plaintext;
        for round in 0..GIFT64_ROUNDS {
            state = self.run_single_round(state, round, obs);
        }
        state
    }
}

/// GIFT-64 with the *preload* mitigation: the whole S-box is touched at the
/// start of every round, so every line is resident whenever an attacker
/// probes — presence carries no information (the secret-indexed lookups
/// still happen, but they are hidden inside the always-everything set).
#[derive(Clone, Debug)]
pub struct PreloadGift64 {
    inner: crate::table::TableGift64,
    layout: TableLayout,
}

impl PreloadGift64 {
    /// Creates the preloading cipher.
    pub fn new(key: Key, layout: TableLayout) -> Self {
        Self {
            inner: crate::table::TableGift64::new(key, layout),
            layout,
        }
    }

    /// Executes one round, preloading the table first.
    ///
    /// # Panics
    ///
    /// Panics if `round >= 28`.
    pub fn run_single_round<O: MemoryObserver + ?Sized>(
        &self,
        state: u64,
        round: usize,
        obs: &mut O,
    ) -> u64 {
        for entry in 0..16u8 {
            obs.on_read(Access {
                addr: self.layout.sbox_entry_addr(entry),
                kind: AccessKind::SboxRead,
            });
        }
        self.inner.run_single_round(state, round, obs)
    }

    /// Encrypts one block with per-round preloading.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u64, obs: &mut O) -> u64 {
        let mut state = plaintext;
        for round in 0..GIFT64_ROUNDS {
            state = self.run_single_round(state, round, obs);
        }
        state
    }
}

/// Derives GIFT-64 round keys with the masked `UpdateKey` countermeasure.
///
/// Round `r ∈ {1,2,3,4}` ordinarily consumes key words `(k_{2r-1}, k_{2r-2})`
/// directly. The masked schedule instead XORs each consumed word with a
/// rotation of a word from the *opposite half* of the key that the plain
/// schedule would not use until round `r + 2` or later:
///
/// ```text
/// U'_r = U_r ⊕ (k_{(2r+3) mod 8} ⋙ 5)
/// V'_r = V_r ⊕ (k_{(2r+2) mod 8} ⋙ 9)
/// ```
///
/// Rounds 5 onward use the ordinary schedule. The cipher built from these
/// round keys is a correct, invertible permutation (any round-key sequence
/// is); what changes is that a GRINCH stage-1 recovery yields `U'_1, V'_1`
/// — masked values from which the true `k1, k0` cannot be separated without
/// also knowing `k5, k4`, defeating the stage-by-stage peeling.
pub fn masked_round_keys_64(key: Key) -> Vec<RoundKey64> {
    let words = key.words();
    let mut rks = expand_64(key, GIFT64_ROUNDS);
    for (r, rk) in rks.iter_mut().take(4).enumerate() {
        let round = r + 1; // 1-based, as in the formula above
        let mask_u = words[(2 * round + 3) % 8].rotate_right(5);
        let mask_v = words[(2 * round + 2) % 8].rotate_right(9);
        rk.u ^= mask_u;
        rk.v ^= mask_v;
    }
    rks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwise::Gift64;
    use crate::observer::{NullObserver, RecordingObserver};
    use crate::table::TableGift64;

    #[test]
    fn wide_sbox_packs_both_nibbles() {
        for x in 0..16u8 {
            let packed = WIDE_SBOX[(x >> 1) as usize];
            let out = if x & 1 == 0 {
                packed & 0xf
            } else {
                packed >> 4
            };
            assert_eq!(out, GIFT_SBOX[x as usize]);
        }
    }

    #[test]
    fn wide_line_cipher_is_functionally_gift64() {
        let key = Key::from_u128(0x1357_9bdf_2468_ace0_0fed_cba9_8765_4321);
        let protected = WideLineGift64::new(key, TableLayout::new(0x800));
        let reference = Gift64::new(key);
        let mut obs = NullObserver;
        for pt in [0u64, 42, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(protected.encrypt_with(pt, &mut obs), reference.encrypt(pt));
        }
    }

    #[test]
    fn wide_line_cipher_touches_at_most_eight_addresses() {
        let key = Key::from_u128(0xabcdef);
        let protected = WideLineGift64::new(key, TableLayout::new(0x800));
        let mut obs = RecordingObserver::new();
        protected.encrypt_with(0x1122_3344_5566_7788, &mut obs);
        let mut addrs = obs.sbox_addrs();
        addrs.sort_unstable();
        addrs.dedup();
        assert!(addrs.len() <= 8);
        for &a in &addrs {
            assert!((0x800..0x808).contains(&a));
        }
    }

    #[test]
    fn full_scan_cipher_is_functionally_gift64_with_constant_addresses() {
        let key = Key::from_u128(0x1234_5678_9abc_def0_0fed_cba9_8765_4321);
        let scan = FullScanGift64::new(key, TableLayout::new(0x900));
        let reference = Gift64::new(key);
        // Functional equivalence.
        let mut obs = NullObserver;
        for pt in [0u64, 42, u64::MAX] {
            assert_eq!(scan.encrypt_with(pt, &mut obs), reference.encrypt(pt));
        }
        // Data-independent address stream: two different plaintexts
        // produce the exact same access sequence.
        let mut a = RecordingObserver::new();
        let mut b = RecordingObserver::new();
        scan.encrypt_with(0x1111_1111_1111_1111, &mut a);
        scan.encrypt_with(0xffff_0000_ffff_0000, &mut b);
        assert_eq!(a.sbox_addrs(), b.sbox_addrs());
        assert_eq!(a.sbox_addrs().len(), 28 * 16 * 16);
    }

    #[test]
    fn preload_cipher_is_functionally_gift64_and_touches_everything() {
        let key = Key::from_u128(0x9999_aaaa_bbbb_cccc_dddd_eeee_ffff_0000);
        let layout = TableLayout::new(0xa00);
        let preload = PreloadGift64::new(key, layout);
        let reference = Gift64::new(key);
        let mut obs = NullObserver;
        assert_eq!(preload.encrypt_with(7, &mut obs), reference.encrypt(7));
        // Every round's access set covers the whole table.
        let mut rec = RecordingObserver::new();
        preload.run_single_round(0xdead_beef, 0, &mut rec);
        let mut distinct: Vec<u64> = rec.sbox_addrs();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn masked_schedule_differs_early_and_matches_late() {
        let key = Key::from_u128(0x1020_3040_5060_7080_90a0_b0c0_d0e0_f001);
        let plain = expand_64(key, GIFT64_ROUNDS);
        let masked = masked_round_keys_64(key);
        for r in 0..4 {
            assert_ne!(plain[r], masked[r], "round {r} should be masked");
        }
        for r in 4..GIFT64_ROUNDS {
            assert_eq!(plain[r], masked[r], "round {r} should be unmasked");
        }
    }

    #[test]
    fn masked_cipher_is_a_valid_permutation() {
        // Two different plaintexts never collide, and the cipher built from
        // masked round keys agrees between table and reference engines.
        let key = Key::from_u128(0x7777_8888_9999_aaaa_bbbb_cccc_dddd_eeee);
        let rks = masked_round_keys_64(key);
        let table = TableGift64::from_round_keys(rks.clone(), TableLayout::default());
        let reference = Gift64::from_round_keys(rks);
        let mut obs = NullObserver;
        let mut outputs = std::collections::HashSet::new();
        for pt in 0..64u64 {
            let ct = table.encrypt_with(pt, &mut obs);
            assert_eq!(ct, reference.encrypt(pt));
            assert!(outputs.insert(ct), "cipher output collided");
        }
    }

    #[test]
    fn masked_round_one_key_mixes_late_words() {
        // Flipping a bit of k5 must change round-1 U' even though the plain
        // schedule does not consume k5 until round 3.
        let base = Key::from_words([1, 2, 3, 4, 5, 6, 7, 8]);
        let mut tweaked_words = base.words();
        tweaked_words[5] ^= 0x0004;
        let tweaked = Key::from_words(tweaked_words);
        let a = masked_round_keys_64(base);
        let b = masked_round_keys_64(tweaked);
        assert_ne!(a[0].u, b[0].u);
    }
}
