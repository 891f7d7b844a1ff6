//! Randomized-cache defenses: pluggable set-index mapping and way
//! partitioning.
//!
//! The GRINCH paper's §IV-C countermeasures are *software* changes to the
//! cipher; the modern defense landscape (see "Systematic Evaluation of
//! Randomized Cache Designs") is *cache-level*. This module provides the
//! two families the arena evaluates:
//!
//! * **Index remapping** ([`Mapper`]) — the function from a line
//!   address to a set index becomes pluggable. [`IndexMapping::Modulo`] is
//!   the classical `line % num_sets` (bit-identical to the pre-defense
//!   simulator); [`IndexMapping::KeyedRemap`] is a CEASER-style keyed
//!   permutation of the set indices, re-keyed every `epoch_accesses`
//!   accesses. A rekey invalidates the whole cache (lines would otherwise
//!   sit in sets the new mapping cannot find) and is surfaced through
//!   telemetry as a `{label}.remaps` event.
//! * **Way partitioning** ([`WayPartition`]) — a static security-domain
//!   split of the ways of every set: the victim fills (and hits) only its
//!   partition, the attacker only the rest, and cross-domain flushes are
//!   blocked, DAWG-style. Accesses carry a [`Domain`] tag.
//!
//! Both defenses are deterministic from their configured key/seed, so
//! arena campaigns replay byte-identically.

/// SplitMix64 — the workspace's standard seed-derivation step, re-exported
/// from its one shared home in [`grinch_telemetry::seed`]. Used to derive
/// per-set replacement seeds, keyed-remap permutation constants, the
/// arena's per-cell seeds and the campaign orchestrator's shard keys, so
/// independent consumers of one campaign seed never share a stream.
pub use grinch_telemetry::seed::splitmix64;

/// Which security domain issued a cache operation.
///
/// Only meaningful on a cache with a [`WayPartition`]; an unpartitioned
/// cache treats every domain identically, so existing callers that use the
/// domain-less [`crate::Cache::access`] are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Domain {
    /// The protected party (the cipher).
    #[default]
    Victim,
    /// Everyone else: the probing attacker, disturber processes, the OS.
    Attacker,
}

/// Static security-domain partitioning of the ways of every set.
///
/// Ways `[0, victim_ways)` belong to [`Domain::Victim`], ways
/// `[victim_ways, ways)` to [`Domain::Attacker`]. Lookups, fills,
/// evictions and flushes are confined to the issuing domain's ways, so an
/// attacker can neither observe nor displace victim lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WayPartition {
    /// Number of ways (per set) reserved for the victim domain.
    pub victim_ways: usize,
}

impl WayPartition {
    /// Splits the cache's associativity evenly (victim gets half, rounded
    /// up).
    pub fn even_split(ways: usize) -> Self {
        Self {
            victim_ways: ways.div_ceil(2),
        }
    }

    /// The way-index range `domain` may use in a set of `ways` ways.
    #[inline]
    pub fn way_range(&self, domain: Domain, ways: usize) -> core::ops::Range<usize> {
        match domain {
            Domain::Victim => 0..self.victim_ways.min(ways),
            Domain::Attacker => self.victim_ways.min(ways)..ways,
        }
    }
}

/// Configuration of the set-index mapping, carried by
/// [`crate::CacheConfig`]. Builds the runtime [`Mapper`] at
/// [`crate::Cache`] construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IndexMapping {
    /// The classical `line % num_sets` (the pre-defense simulator,
    /// bit-identical).
    #[default]
    Modulo,
    /// CEASER-style keyed permutation of set indices, re-keyed (and the
    /// cache invalidated) after every `epoch_accesses` accesses.
    KeyedRemap {
        /// Permutation key; the epoch chain is derived from it via
        /// [`splitmix64`].
        key: u64,
        /// Accesses per epoch; `0` disables rekeying (a static keyed
        /// permutation).
        epoch_accesses: u64,
    },
}

impl IndexMapping {
    /// Instantiates the runtime mapper state.
    pub fn build(&self) -> Mapper {
        match *self {
            Self::Modulo => Mapper::Modulo(ModuloMapper),
            Self::KeyedRemap {
                key,
                epoch_accesses,
            } => Mapper::KeyedRemap(KeyedRemapMapper::new(key, epoch_accesses)),
        }
    }

    /// Short stable label (used by telemetry and the arena matrix).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Modulo => "modulo",
            Self::KeyedRemap { .. } => "keyed-remap",
        }
    }
}

/// The runtime line-address → set-index function of a cache: a closed
/// enum over the supported mappings, dispatched by `match` so the
/// per-access `set_of`/`note_access` calls inline with no virtual call
/// (the replacement for the former `Box<dyn IndexMapper>` object).
///
/// Every variant is **bijective on set indices within an epoch**: for a
/// fixed internal state, `set_of` restricted to `line % num_sets` classes
/// is a permutation of `0..num_sets` (pinned by the cache-sim property
/// tests). The third defense of this module, [`WayPartition`], is *not* a
/// variant here: it permutes nothing and composes with either mapping, so
/// the cache realizes it as precomputed per-domain way ranges instead.
#[derive(Clone, Debug)]
pub enum Mapper {
    /// The classical `line % num_sets`.
    Modulo(ModuloMapper),
    /// CEASER-style keyed permutation with epoch rekeying.
    KeyedRemap(KeyedRemapMapper),
}

impl Mapper {
    /// Set index for the line address `line` in a cache of `num_sets`
    /// sets (`num_sets` is a power of two).
    #[inline]
    pub fn set_of(&self, line: u64, num_sets: usize) -> usize {
        match self {
            Self::Modulo(m) => m.set_of(line, num_sets),
            Self::KeyedRemap(m) => m.set_of(line, num_sets),
        }
    }

    /// Notes one cache access; returns `true` if the mapper re-keyed
    /// (epoch boundary), which obliges the cache to invalidate all lines.
    #[inline]
    pub fn note_access(&mut self) -> bool {
        match self {
            Self::Modulo(_) => false,
            Self::KeyedRemap(m) => m.note_access(),
        }
    }

    /// How many of the next accesses leave the mapping as it is: the
    /// access after them re-keys. `u64::MAX` for a mapping that never
    /// re-keys.
    #[inline]
    pub fn accesses_before_rekey(&self) -> u64 {
        match self {
            Self::Modulo(_) => u64::MAX,
            Self::KeyedRemap(m) => m.accesses_before_rekey(),
        }
    }

    /// Notes `n` accesses at once, as `n` calls of
    /// [`Mapper::note_access`] would; none of them may re-key.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`Mapper::accesses_before_rekey`].
    #[inline]
    pub(crate) fn note_accesses_within_epoch(&mut self, n: u64) {
        match self {
            Self::Modulo(_) => {}
            Self::KeyedRemap(m) => m.note_accesses_within_epoch(n),
        }
    }

    /// Stable mapper name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Modulo(_) => "modulo",
            Self::KeyedRemap(_) => "keyed-remap",
        }
    }
}

/// The classical modulo mapping — today's behaviour, bit-identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuloMapper;

impl ModuloMapper {
    /// `line % num_sets` (`num_sets` is a validated power of two, so the
    /// modulo reduces to a mask on the per-access path).
    #[inline]
    pub fn set_of(&self, line: u64, num_sets: usize) -> usize {
        debug_assert!(num_sets.is_power_of_two());
        (line & (num_sets as u64 - 1)) as usize
    }
}

/// CEASER-style keyed set-index permutation with epoch-based rekeying.
///
/// Within an epoch the mapping is `perm(i) = ((i * mult) ^ mask) mod S`
/// with `S = num_sets` a power of two, `mult` odd and both constants
/// derived from the epoch key — a composition of two bijections on
/// `[0, S)`, so it is itself a bijection. Rekeying replaces the epoch key
/// with `splitmix64(key)`, changing the permutation; the paper-level
/// effect is that conflict-set knowledge (Prime+Probe) goes stale and
/// the accompanying invalidation injects false absences into
/// Flush+Reload.
#[derive(Clone, Debug)]
pub struct KeyedRemapMapper {
    epoch_key: u64,
    multiplier: u64,
    xor_mask: u64,
    epoch_accesses: u64,
    accesses_this_epoch: u64,
}

impl KeyedRemapMapper {
    /// Creates the mapper for the first epoch of `key`.
    pub fn new(key: u64, epoch_accesses: u64) -> Self {
        let mut mapper = Self {
            epoch_key: key,
            multiplier: 1,
            xor_mask: 0,
            epoch_accesses,
            accesses_this_epoch: 0,
        };
        mapper.derive_constants();
        mapper
    }

    fn derive_constants(&mut self) {
        // An odd multiplier is a bijection modulo any power of two.
        self.multiplier = splitmix64(self.epoch_key) | 1;
        self.xor_mask = splitmix64(self.epoch_key ^ 0xcafe_f00d_dead_2bad);
    }

    /// The number of completed epochs is not tracked; the current epoch key
    /// identifies the permutation.
    pub fn epoch_key(&self) -> u64 {
        self.epoch_key
    }

    /// The keyed permutation: `((i * mult) ^ mask) mod num_sets`.
    #[inline]
    pub fn set_of(&self, line: u64, num_sets: usize) -> usize {
        let mask = num_sets as u64 - 1;
        let idx = line & mask;
        ((idx.wrapping_mul(self.multiplier) ^ self.xor_mask) & mask) as usize
    }

    /// Notes one access; `true` on an epoch boundary (the mapper re-keyed).
    #[inline]
    pub fn note_access(&mut self) -> bool {
        if self.epoch_accesses == 0 {
            return false;
        }
        self.accesses_this_epoch += 1;
        if self.accesses_this_epoch >= self.epoch_accesses {
            self.accesses_this_epoch = 0;
            self.epoch_key = splitmix64(self.epoch_key);
            self.derive_constants();
            true
        } else {
            false
        }
    }

    /// See [`Mapper::accesses_before_rekey`].
    #[inline]
    pub fn accesses_before_rekey(&self) -> u64 {
        if self.epoch_accesses == 0 {
            u64::MAX
        } else {
            self.epoch_accesses - 1 - self.accesses_this_epoch
        }
    }

    /// See [`Mapper::note_accesses_within_epoch`].
    #[inline]
    pub(crate) fn note_accesses_within_epoch(&mut self, n: u64) {
        assert!(
            n <= self.accesses_before_rekey(),
            "{n} accesses cross a rekey"
        );
        if self.epoch_accesses != 0 {
            self.accesses_this_epoch += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn modulo_matches_the_classical_formula() {
        let m = ModuloMapper;
        for sets in [1usize, 4, 64, 1024] {
            for line in [0u64, 1, 63, 64, 12345, u64::MAX] {
                assert_eq!(m.set_of(line, sets), (line % sets as u64) as usize);
            }
        }
    }

    #[test]
    fn keyed_remap_is_a_bijection_within_an_epoch() {
        for sets_log2 in [0usize, 2, 6, 10] {
            let sets = 1usize << sets_log2;
            for key in [0u64, 1, 0xdead_beef, u64::MAX] {
                let m = KeyedRemapMapper::new(key, 0);
                let mut seen = vec![false; sets];
                for i in 0..sets as u64 {
                    let s = m.set_of(i, sets);
                    assert!(!seen[s], "collision at {i} (key {key:#x}, {sets} sets)");
                    seen[s] = true;
                }
            }
        }
    }

    #[test]
    fn keyed_remap_depends_on_the_key() {
        let a = KeyedRemapMapper::new(1, 0);
        let b = KeyedRemapMapper::new(2, 0);
        let differs = (0..64u64).any(|i| a.set_of(i, 64) != b.set_of(i, 64));
        assert!(differs, "different keys must give different permutations");
    }

    #[test]
    fn rekey_fires_every_epoch_and_changes_the_permutation() {
        let mut m = KeyedRemapMapper::new(7, 3);
        let before: Vec<usize> = (0..64).map(|i| m.set_of(i, 64)).collect();
        assert!(!m.note_access());
        assert!(!m.note_access());
        assert!(m.note_access(), "third access crosses the epoch");
        let after: Vec<usize> = (0..64).map(|i| m.set_of(i, 64)).collect();
        assert_ne!(before, after, "rekey must change the permutation");
        // The next epoch is again three accesses long.
        assert!(!m.note_access());
        assert!(!m.note_access());
        assert!(m.note_access());
    }

    #[test]
    fn epoch_zero_never_rekeys() {
        let mut m = KeyedRemapMapper::new(7, 0);
        for _ in 0..10_000 {
            assert!(!m.note_access());
        }
        assert_eq!(m.accesses_before_rekey(), u64::MAX);
        assert_eq!(
            Mapper::Modulo(ModuloMapper).accesses_before_rekey(),
            u64::MAX
        );
    }

    #[test]
    fn accesses_before_rekey_counts_down_to_the_rekeying_access() {
        for epoch in [1u64, 3, 64] {
            let mut stepped = KeyedRemapMapper::new(9, epoch);
            let mut skipped = stepped.clone();
            for _ in 0..3 * epoch {
                let before = stepped.accesses_before_rekey();
                assert!(before < epoch);
                assert_eq!(stepped.note_access(), before == 0, "epoch {epoch}");
                // The same position, reached by notes within each epoch
                // plus one stepped rekeying access.
                if skipped.accesses_before_rekey() == 0 {
                    assert!(skipped.note_access());
                } else {
                    skipped.note_accesses_within_epoch(1);
                }
                assert_eq!(
                    (skipped.epoch_key(), skipped.accesses_before_rekey()),
                    (stepped.epoch_key(), stepped.accesses_before_rekey())
                );
            }
            let mut m = KeyedRemapMapper::new(9, epoch);
            m.note_accesses_within_epoch(epoch - 1);
            assert!(m.note_access(), "epoch {epoch}: the next access rekeys");
        }
    }

    #[test]
    #[should_panic(expected = "cross a rekey")]
    fn noting_accesses_across_a_rekey_panics() {
        KeyedRemapMapper::new(9, 4).note_accesses_within_epoch(4);
    }

    #[test]
    fn way_partition_ranges_cover_and_do_not_overlap() {
        let p = WayPartition { victim_ways: 10 };
        let v = p.way_range(Domain::Victim, 16);
        let a = p.way_range(Domain::Attacker, 16);
        assert_eq!(v, 0..10);
        assert_eq!(a, 10..16);
        let even = WayPartition::even_split(16);
        assert_eq!(even.victim_ways, 8);
    }
}
