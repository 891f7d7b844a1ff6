//! GIFT-vs-PRESENT leakage comparison.
//!
//! The GRINCH paper presents GIFT as PRESENT's successor (§II). The two
//! ciphers expose structurally different cache leakage from the same
//! table-lookup idiom:
//!
//! * **PRESENT** XORs a full 64-bit round key into the state *before*
//!   SubCells, so the very first round's S-box indices are
//!   `plaintext ⊕ K₁` — four key bits per segment leak immediately, and
//!   two observed rounds determine the entire 80-bit key.
//! * **GIFT** adds only two key bits per segment *after* SubCells/PermBits,
//!   so key-dependent lookups appear first in round 2 and each stage yields
//!   32 bits — the reason GRINCH needs four stages and crafted inputs.
//!
//! The experiment mounts the analogous elimination attack on PRESENT-80
//! (16 index hypotheses per segment, chosen plaintexts, Flush+Reload on
//! the first round) and reports key-bits-per-encryption for both ciphers.

use crate::oracle::{ObservationConfig, VictimOracle};
use crate::stage::{run_stage, StageConfig};
use cache_sim::{Cache, CacheConfig, CacheObserver};
use gift_cipher::present::{PresentKey, TablePresent, PRESENT_SBOX_INV};
use gift_cipher::{Key, TableLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A chosen-plaintext Flush+Reload oracle around a table-driven PRESENT-80
/// victim, probing after the requested number of rounds.
pub struct PresentOracle {
    cipher: TablePresent,
    cache: Cache,
    layout: TableLayout,
    encryptions: u64,
}

impl PresentOracle {
    /// Creates the oracle with the paper's default cache geometry.
    pub fn new(key: PresentKey) -> Self {
        let layout = TableLayout::default();
        Self {
            cipher: TablePresent::new(key, layout),
            cache: Cache::new(CacheConfig::grinch_default()),
            layout,
            encryptions: 0,
        }
    }

    /// Victim encryptions triggered so far.
    pub fn encryptions(&self) -> u64 {
        self.encryptions
    }

    fn probe_addrs(&self) -> Vec<u64> {
        (0..16u8).map(|i| self.layout.sbox_entry_addr(i)).collect()
    }

    /// Observes the S-box lines touched by rounds `first..=last` (1-based)
    /// of one encryption of `plaintext` — the attacker flushes before
    /// round `first` (preemption/flush capability identical to the GIFT
    /// oracle's).
    pub fn observe_rounds(&mut self, plaintext: u64, first: usize, last: usize) -> BTreeSet<u64> {
        assert!(first >= 1 && first <= last, "invalid round window");
        self.encryptions += 1;
        let probe = self.probe_addrs();
        for &a in &probe {
            self.cache.flush_line(a);
        }
        let mut state = plaintext;
        for round in 0..last {
            if round + 1 == first {
                self.cache.flush_all();
            }
            let mut obs = CacheObserver::new(&mut self.cache);
            state = self.cipher.run_single_round(state, round, &mut obs);
        }
        let mut observed = BTreeSet::new();
        for &a in &probe {
            if self.cache.access(a).is_hit() {
                observed.insert(a);
            }
            self.cache.flush_line(a);
        }
        observed
    }

    fn line_of_index(&self, idx: u8) -> u64 {
        self.layout.sbox_entry_addr(idx)
    }
}

/// Recovers one 64-bit PRESENT round key from first-round observations:
/// per segment, sixteen nibble hypotheses are eliminated whenever the line
/// of `chosen_nibble ⊕ hypothesis` is absent.
///
/// Returns `(round_key, encryptions)` or `None` if the budget ran out.
pub fn recover_present_round1(
    oracle: &mut PresentOracle,
    max_encryptions: u64,
    seed: u64,
) -> Option<(u64, u64)> {
    let start = oracle.encryptions();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<Vec<u8>> = vec![(0..16u8).collect(); 16];
    while candidates.iter().any(|c| c.len() > 1) {
        if oracle.encryptions() - start >= max_encryptions {
            return None;
        }
        let pt: u64 = rng.gen();
        let observed = oracle.observe_rounds(pt, 1, 1);
        for (seg, cands) in candidates.iter_mut().enumerate() {
            let chosen = ((pt >> (4 * seg)) & 0xf) as u8;
            cands.retain(|&h| observed.contains(&oracle.line_of_index(chosen ^ h)));
            if cands.is_empty() {
                return None;
            }
        }
    }
    let mut rk = 0u64;
    for (seg, cands) in candidates.iter().enumerate() {
        rk |= u64::from(cands[0]) << (4 * seg);
    }
    Some((rk, oracle.encryptions() - start))
}

/// Recovers the second round key given the first: the attacker computes
/// round 1 forward and eliminates over the round-2 window.
pub fn recover_present_round2(
    oracle: &mut PresentOracle,
    rk1: u64,
    max_encryptions: u64,
    seed: u64,
) -> Option<(u64, u64)> {
    let start = oracle.encryptions();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut candidates: Vec<Vec<u8>> = vec![(0..16u8).collect(); 16];
    while candidates.iter().any(|c| c.len() > 1) {
        if oracle.encryptions() - start >= max_encryptions {
            return None;
        }
        let pt: u64 = rng.gen();
        // Round-1 output under the known rk1.
        let mut state = pt ^ rk1;
        let mut subbed = 0u64;
        for i in 0..16 {
            let nib = ((state >> (4 * i)) & 0xf) as usize;
            subbed |= u64::from(gift_cipher::present::PRESENT_SBOX[nib]) << (4 * i);
        }
        state = {
            let mut out = 0u64;
            for i in 0..64 {
                out |= ((subbed >> i) & 1) << gift_cipher::present::present_perm(i);
            }
            out
        };
        let observed = oracle.observe_rounds(pt, 2, 2);
        for (seg, cands) in candidates.iter_mut().enumerate() {
            let input_nib = ((state >> (4 * seg)) & 0xf) as u8;
            cands.retain(|&h| observed.contains(&oracle.line_of_index(input_nib ^ h)));
            if cands.is_empty() {
                return None;
            }
        }
    }
    let mut rk = 0u64;
    for (seg, cands) in candidates.iter().enumerate() {
        rk |= u64::from(cands[0]) << (4 * seg);
    }
    Some((rk, oracle.encryptions() - start))
}

/// Reconstructs the full 80-bit PRESENT key from its first two round keys
/// (the schedule is invertible from 128 observed bits).
pub fn recover_present80_key(rk1: u64, rk2: u64) -> u128 {
    // reg0[79..16] = rk1. reg1 = rotl61(reg0) with S on its top nibble and
    // the round counter (=1) on bits 19..15; rk2 = reg1[79..16].
    // reg1[75..61] = reg0[14..0]  → rk2 bits 59..45.
    let low15 = (rk2 >> 45) & 0x7fff;
    // reg1[79..76] = S(reg0[18..15]) → bit 15 via the inverse S-box.
    let top = ((rk2 >> 60) & 0xf) as usize;
    let reg0_18_15 = PRESENT_SBOX_INV[top] as u64;
    let bit15 = reg0_18_15 & 1;
    (u128::from(rk1) << 16) | u128::from((bit15 << 15) | low15)
}

/// One row of the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompareRow {
    /// Cipher name.
    pub cipher: &'static str,
    /// Key bits recovered by the measured phase.
    pub key_bits: u32,
    /// First round whose lookups depend on the key.
    pub first_leaky_round: usize,
    /// Encryptions the phase consumed.
    pub encryptions: u64,
}

/// Runs the comparison: GIFT-64 stage 1 (32 bits) versus PRESENT-80
/// round-1 recovery (64 bits), both at the earliest clean probe. The
/// comparison is wrapped in an `experiment.present_compare` span, and the
/// GIFT oracle's metrics plus a `present.encryptions` counter are
/// published into `telemetry`.
pub fn run(seed: u64, telemetry: grinch_telemetry::Telemetry) -> Vec<CompareRow> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.present_compare");
    let mut rows = Vec::new();

    let gift_key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let mut gift_oracle = VictimOracle::new(gift_key, ObservationConfig::ideal());
    gift_oracle.set_telemetry(telemetry.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let gift = run_stage(
        &mut gift_oracle,
        &[],
        1,
        &StageConfig::new().with_seed(seed),
        &mut rng,
    );
    rows.push(CompareRow {
        cipher: "GIFT-64",
        key_bits: 32,
        first_leaky_round: 2,
        encryptions: gift.encryptions,
    });

    let present_key = PresentKey::K80(0x0f1e_2d3c_4b5a_6978_8796);
    let mut present_oracle = PresentOracle::new(present_key);
    let r1 = recover_present_round1(&mut present_oracle, 1_000_000, seed ^ 1);
    telemetry.counter_add("present.encryptions", present_oracle.encryptions());
    rows.push(CompareRow {
        cipher: "PRESENT-80",
        key_bits: 64,
        first_leaky_round: 1,
        encryptions: r1.map_or(u64::MAX, |(_, n)| n),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use gift_cipher::present::{expand_present, Present};
    use grinch_telemetry::Telemetry;

    const KEY80: u128 = 0x0f1e_2d3c_4b5a_6978_8796;

    #[test]
    fn round1_recovery_finds_the_true_round_key() {
        let mut oracle = PresentOracle::new(PresentKey::K80(KEY80));
        let (rk1, n) = recover_present_round1(&mut oracle, 100_000, 7).expect("resolves");
        assert_eq!(rk1, expand_present(PresentKey::K80(KEY80))[0]);
        assert!(n < 200, "PRESENT round 1 should resolve fast: {n}");
    }

    #[test]
    fn two_rounds_recover_the_full_80_bit_key() {
        let mut oracle = PresentOracle::new(PresentKey::K80(KEY80));
        let (rk1, _) = recover_present_round1(&mut oracle, 100_000, 7).expect("r1");
        let (rk2, _) = recover_present_round2(&mut oracle, rk1, 100_000, 8).expect("r2");
        let rks = expand_present(PresentKey::K80(KEY80));
        assert_eq!(rk2, rks[1]);
        let key = recover_present80_key(rk1, rk2);
        assert_eq!(key, KEY80);
        // The recovered key decrypts.
        let cipher = Present::new(PresentKey::K80(key));
        let victim = Present::new(PresentKey::K80(KEY80));
        assert_eq!(cipher.decrypt(victim.encrypt(0x1234)), 0x1234);
    }

    #[test]
    fn key_schedule_inversion_is_exact_for_many_keys() {
        for k in [
            0u128,
            1,
            0xffff,
            KEY80,
            (1 << 80) - 1,
            0xabcd_ef01_2345_6789_aaaa,
        ] {
            let key = k & ((1 << 80) - 1);
            let rks = expand_present(PresentKey::K80(key));
            assert_eq!(recover_present80_key(rks[0], rks[1]), key, "key {key:x}");
        }
    }

    #[test]
    fn present_leaks_more_bits_per_encryption_than_gift() {
        let rows = run(42, Telemetry::disabled());
        let gift = rows[0];
        let present = rows[1];
        assert_eq!(gift.cipher, "GIFT-64");
        assert!(present.encryptions < u64::MAX);
        let gift_rate = gift.key_bits as f64 / gift.encryptions as f64;
        let present_rate = present.key_bits as f64 / present.encryptions as f64;
        assert!(
            present_rate > gift_rate,
            "PRESENT ({present_rate:.3} bits/enc) should leak faster than GIFT ({gift_rate:.3})"
        );
    }
}
