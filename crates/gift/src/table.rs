//! Table-driven (vulnerable) GIFT implementations.
//!
//! This is the implementation style of the public GIFT C code attacked by
//! GRINCH: `SubCells` reads a 16-entry byte table indexed by each secret
//! nibble, and `PermBits` walks a position lookup table. Each table read is
//! reported to a [`MemoryObserver`], so the surrounding simulation can model
//! the cache footprint of every round.
//!
//! The table engines also expose a *stepping* API ([`Gift64Encryption`])
//! that advances one round at a time. The SoC simulator interleaves attacker
//! probes between rounds exactly the way preemption does on the paper's
//! platforms.

use crate::bitwise::{add_round_key_128, add_round_key_64};
use crate::key_schedule::{expand_128, expand_64, Key, RoundKey128, RoundKey64};
use crate::observer::{Access, AccessKind, MemoryObserver, TableLayout};
use crate::permutation::{permute_128, permute_64, P128, P64};
use crate::sbox::GIFT_SBOX;
use crate::{GIFT128_ROUNDS, GIFT64_ROUNDS};

/// Performs one observed S-box lookup.
#[inline]
fn sbox_lookup<O: MemoryObserver + ?Sized>(layout: &TableLayout, index: u8, obs: &mut O) -> u8 {
    obs.on_read(Access {
        addr: layout.sbox_entry_addr(index),
        kind: AccessKind::SboxRead,
    });
    GIFT_SBOX[index as usize]
}

/// Table-driven `SubCells` for GIFT-64: sixteen observed lookups, least
/// significant segment first (program order of a simple C loop).
fn sub_cells_64<O: MemoryObserver + ?Sized>(state: u64, layout: &TableLayout, obs: &mut O) -> u64 {
    let mut out = 0u64;
    for i in 0..16 {
        let nib = ((state >> (4 * i)) & 0xf) as u8;
        out |= u64::from(sbox_lookup(layout, nib, obs)) << (4 * i);
    }
    out
}

/// Reports the `count` position-table reads of one table-driven `PermBits`
/// layer, the only place this module models that table.
///
/// The position-table reads have a *fixed* address sequence (independent
/// of data and key), so they leak nothing; they are emitted only when the
/// layout requests it, to model realistic cache pressure. The permutation
/// itself is computed by the rotation form in [`crate::permutation`],
/// which gives the same state as walking the table.
#[inline]
fn perm_reads<O: MemoryObserver + ?Sized>(count: usize, layout: &TableLayout, obs: &mut O) {
    if layout.emit_perm_reads {
        for i in 0..count {
            obs.on_read(Access {
                addr: layout.perm_base + i as u64,
                kind: AccessKind::PermRead,
            });
        }
    }
}

/// Table-driven `PermBits` for GIFT-64: 64 position-table reads, then the
/// permutation.
fn perm_bits_64<O: MemoryObserver + ?Sized>(state: u64, layout: &TableLayout, obs: &mut O) -> u64 {
    perm_reads(P64.len(), layout, obs);
    permute_64(state)
}

/// Table-driven `PermBits` for GIFT-128: 128 position-table reads, then the
/// permutation.
fn perm_bits_128<O: MemoryObserver + ?Sized>(
    state: u128,
    layout: &TableLayout,
    obs: &mut O,
) -> u128 {
    perm_reads(P128.len(), layout, obs);
    permute_128(state)
}

/// One full GIFT-64 round through the lookup tables.
fn table_round_64<O: MemoryObserver + ?Sized>(
    state: u64,
    rk: RoundKey64,
    round: usize,
    layout: &TableLayout,
    obs: &mut O,
) -> u64 {
    let state = sub_cells_64(state, layout, obs);
    let state = perm_bits_64(state, layout, obs);
    add_round_key_64(state, rk, round)
}

/// The table-driven GIFT-64 implementation GRINCH attacks.
///
/// ```
/// use gift_cipher::{Gift64, Key, NullObserver, TableGift64, TableLayout};
///
/// let key = Key::from_u128(0xfeed);
/// let table = TableGift64::new(key, TableLayout::default());
/// let reference = Gift64::new(key);
/// let mut obs = NullObserver;
/// assert_eq!(table.encrypt_with(1234, &mut obs), reference.encrypt(1234));
/// ```
#[derive(Clone, Debug)]
pub struct TableGift64 {
    round_keys: Vec<RoundKey64>,
    layout: TableLayout,
}

impl TableGift64 {
    /// Creates a table-driven GIFT-64 with the given table placement.
    pub fn new(key: Key, layout: TableLayout) -> Self {
        Self {
            round_keys: expand_64(key, GIFT64_ROUNDS),
            layout,
        }
    }

    /// Creates an instance from externally derived round keys (used by the
    /// masked key-schedule countermeasure).
    ///
    /// # Panics
    ///
    /// Panics if `round_keys.len() != 28`.
    pub fn from_round_keys(round_keys: Vec<RoundKey64>, layout: TableLayout) -> Self {
        assert_eq!(
            round_keys.len(),
            GIFT64_ROUNDS,
            "GIFT-64 needs 28 round keys"
        );
        Self { round_keys, layout }
    }

    /// The table placement used by this instance.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Encrypts one block, reporting every table read to `obs`.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u64, obs: &mut O) -> u64 {
        let mut enc = self.start_encryption(plaintext);
        while !enc.is_done() {
            enc.step_round(obs);
        }
        enc.state()
    }

    /// Executes exactly one round (0-based index `round`) of the cipher on
    /// `state`, issuing the round's table reads to `obs`, and returns the
    /// next state.
    ///
    /// This is the primitive a cycle-level simulator uses to interleave
    /// victim rounds with attacker activity while keeping the cipher state
    /// external to the engine.
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
        table_round_64(state, self.round_keys[round], round, &self.layout, obs)
    }

    /// Begins a stepped encryption whose rounds can be interleaved with
    /// other simulated activity.
    pub fn start_encryption(&self, plaintext: u64) -> Gift64Encryption<'_> {
        Gift64Encryption {
            cipher: self,
            state: plaintext,
            round: 0,
        }
    }
}

/// An in-flight stepped GIFT-64 encryption (see
/// [`TableGift64::start_encryption`]).
#[derive(Debug)]
pub struct Gift64Encryption<'a> {
    cipher: &'a TableGift64,
    state: u64,
    round: usize,
}

impl Gift64Encryption<'_> {
    /// Number of rounds already executed.
    pub fn rounds_done(&self) -> usize {
        self.round
    }

    /// Whether all 28 rounds have been executed.
    pub fn is_done(&self) -> bool {
        self.round == GIFT64_ROUNDS
    }

    /// The current state: the plaintext before the first step, the
    /// ciphertext once [`Self::is_done`].
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Executes the next round, reporting its table reads to `obs`.
    ///
    /// # Panics
    ///
    /// Panics if the encryption is already complete.
    pub fn step_round<O: MemoryObserver + ?Sized>(&mut self, obs: &mut O) {
        assert!(!self.is_done(), "encryption already complete");
        self.state = table_round_64(
            self.state,
            self.cipher.round_keys[self.round],
            self.round,
            &self.cipher.layout,
            obs,
        );
        self.round += 1;
    }
}

/// The table-driven GIFT-128 implementation.
#[derive(Clone, Debug)]
pub struct TableGift128 {
    round_keys: Vec<RoundKey128>,
    layout: TableLayout,
}

impl TableGift128 {
    /// Creates a table-driven GIFT-128 with the given table placement.
    pub fn new(key: Key, layout: TableLayout) -> Self {
        Self {
            round_keys: expand_128(key, GIFT128_ROUNDS),
            layout,
        }
    }

    /// The table placement used by this instance.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Encrypts one block, reporting every table read to `obs`.
    pub fn encrypt_with<O: MemoryObserver + ?Sized>(&self, plaintext: u128, obs: &mut O) -> u128 {
        let mut state = plaintext;
        for round in 0..GIFT128_ROUNDS {
            state = self.run_single_round(state, round, obs);
        }
        state
    }

    /// Executes exactly one round (0-based `round`) on `state`, reporting
    /// the round's table reads to `obs` (see
    /// [`TableGift64::run_single_round`]).
    ///
    /// # Panics
    ///
    /// Panics if `round >= 40`.
    pub fn run_single_round<O: MemoryObserver + ?Sized>(
        &self,
        state: u128,
        round: usize,
        obs: &mut O,
    ) -> u128 {
        assert!(round < GIFT128_ROUNDS, "GIFT-128 has 40 rounds");
        let rk = self.round_keys[round];
        // SubCells
        let mut subbed = 0u128;
        for i in 0..32 {
            let nib = ((state >> (4 * i)) & 0xf) as u8;
            subbed |= u128::from(sbox_lookup(&self.layout, nib, obs)) << (4 * i);
        }
        let permuted = perm_bits_128(subbed, &self.layout, obs);
        add_round_key_128(permuted, rk, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitwise::{Gift128, Gift64};
    use crate::observer::{NullObserver, RecordingObserver};

    #[test]
    fn table_matches_bitwise_reference_64() {
        let key = Key::from_u128(0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978);
        let table = TableGift64::new(key, TableLayout::default());
        let reference = Gift64::new(key);
        let mut obs = NullObserver;
        for pt in [0u64, 1, u64::MAX, 0x1234_5678_9abc_def0] {
            assert_eq!(table.encrypt_with(pt, &mut obs), reference.encrypt(pt));
        }
    }

    #[test]
    fn table_matches_bitwise_reference_128() {
        let key = Key::from_u128(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        let table = TableGift128::new(key, TableLayout::default());
        let reference = Gift128::new(key);
        let mut obs = NullObserver;
        for pt in [0u128, 1, u128::MAX, 0x1234_5678_9abc_def0 << 60] {
            assert_eq!(table.encrypt_with(pt, &mut obs), reference.encrypt(pt));
        }
    }

    #[test]
    fn sixteen_sbox_reads_per_round() {
        let key = Key::from_u128(7);
        let table = TableGift64::new(key, TableLayout::default());
        let mut obs = RecordingObserver::new();
        table.encrypt_with(0xabcd, &mut obs);
        assert_eq!(obs.sbox_addrs().len(), 16 * GIFT64_ROUNDS);
    }

    #[test]
    fn sbox_addresses_match_round_input_nibbles() {
        let key = Key::from_u128(0xdeadbeef);
        let layout = TableLayout::new(0x2000);
        let table = TableGift64::new(key, layout);
        let reference = Gift64::new(key);
        let pt = 0x0bad_f00d_1234_5678;
        let mut obs = RecordingObserver::new();
        table.encrypt_with(pt, &mut obs);
        let addrs = obs.sbox_addrs();
        let inputs = reference.round_inputs(pt);
        for (r, &input) in inputs.iter().enumerate() {
            for seg in 0..16 {
                let nib = ((input >> (4 * seg)) & 0xf) as u8;
                assert_eq!(
                    addrs[16 * r + seg],
                    layout.sbox_entry_addr(nib),
                    "round {r} segment {seg}"
                );
            }
        }
    }

    #[test]
    fn stepping_reproduces_one_shot_encryption() {
        let key = Key::from_u128(0x5555);
        let table = TableGift64::new(key, TableLayout::default());
        let mut obs = NullObserver;
        let pt = 0x9999_8888_7777_6666;
        let one_shot = table.encrypt_with(pt, &mut obs);
        let mut enc = table.start_encryption(pt);
        assert_eq!(enc.state(), pt);
        let mut steps = 0;
        while !enc.is_done() {
            enc.step_round(&mut obs);
            steps += 1;
        }
        assert_eq!(steps, GIFT64_ROUNDS);
        assert_eq!(enc.state(), one_shot);
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn stepping_past_the_end_panics() {
        let table = TableGift64::new(Key::from_u128(1), TableLayout::default());
        let mut enc = table.start_encryption(0);
        let mut obs = NullObserver;
        for _ in 0..=GIFT64_ROUNDS {
            enc.step_round(&mut obs);
        }
    }

    #[test]
    fn perm_reads_emitted_only_when_requested() {
        let key = Key::from_u128(3);
        let silent = TableGift64::new(key, TableLayout::new(0x100));
        let chatty = TableGift64::new(key, TableLayout::new(0x100).with_perm_reads());
        let mut a = RecordingObserver::new();
        let mut b = RecordingObserver::new();
        silent.encrypt_with(0, &mut a);
        chatty.encrypt_with(0, &mut b);
        assert_eq!(a.accesses.len(), 16 * GIFT64_ROUNDS);
        assert_eq!(b.accesses.len(), (16 + 64) * GIFT64_ROUNDS);
        assert_eq!(a.sbox_addrs(), b.sbox_addrs());
    }
}
