//! Cache geometry and latency configuration.

use crate::mapper::{IndexMapping, WayPartition};
use core::fmt;

/// Errors produced while validating a [`CacheConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `line_bytes` was zero or not a power of two.
    BadLineSize(usize),
    /// `num_sets` was zero or not a power of two.
    BadSetCount(usize),
    /// `ways` was zero or above `u16::MAX` (the cache keeps each set's
    /// replacement order in `u16` ring indices).
    BadWays,
    /// `miss_latency` did not exceed `hit_latency`, making timing probes
    /// unable to distinguish hits from misses.
    LatencyNotDistinguishable,
    /// A way partition reserved zero or all ways for the victim, leaving
    /// one domain without any cache.
    BadPartition(usize),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLineSize(n) => write!(f, "line size {n} is not a nonzero power of two"),
            Self::BadSetCount(n) => write!(f, "set count {n} is not a nonzero power of two"),
            Self::BadWays => write!(f, "associativity must be between 1 and {}", u16::MAX),
            Self::LatencyNotDistinguishable => {
                write!(f, "miss latency must exceed hit latency")
            }
            Self::BadPartition(n) => {
                write!(
                    f,
                    "partition must leave both domains ways (victim_ways {n})"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry and latency parameters of a simulated cache.
///
/// The GRINCH platforms use an 8-bit memory word, so `line_bytes` equals the
/// paper's "words per cache line". [`CacheConfig::grinch_default`] is the
/// paper's base configuration; [`CacheConfig::with_words_per_line`] produces
/// the Table I sweep points.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Bytes per cache line (must be a power of two).
    pub line_bytes: usize,
    /// Number of sets (must be a power of two).
    pub num_sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
    /// Cycles for an access that hits.
    pub hit_latency: u64,
    /// Cycles for an access that misses and fills from the next level.
    pub miss_latency: u64,
    /// Replacement policy within a set.
    pub replacement: crate::ReplacementPolicy,
    /// Set-index mapping (defense knob; [`IndexMapping::Modulo`] is the
    /// classical, undefended behaviour).
    pub mapping: IndexMapping,
    /// Optional static way partitioning between security domains
    /// (defense knob; `None` means every domain shares every way).
    pub partition: Option<WayPartition>,
}

impl CacheConfig {
    /// The shared L1 of the GRINCH paper: 16-way set-associative, 1024
    /// lines, one 8-bit word per line.
    pub fn grinch_default() -> Self {
        Self {
            line_bytes: 1,
            num_sets: 1024 / 16,
            ways: 16,
            hit_latency: 1,
            miss_latency: 20,
            replacement: crate::ReplacementPolicy::Lru,
            mapping: IndexMapping::Modulo,
            partition: None,
        }
    }

    /// Returns a copy with the set-index mapping replaced (defense knob).
    pub fn with_mapping(mut self, mapping: IndexMapping) -> Self {
        self.mapping = mapping;
        self
    }

    /// Returns a copy with a static way partition installed (defense knob).
    pub fn with_partition(mut self, partition: WayPartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Returns a copy with the line size set to `words` 8-bit words (the
    /// Table I sweep parameter), keeping the total capacity of 1024 words by
    /// shrinking the set count.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero, not a power of two, or exceeds the number
    /// of lines per way.
    pub fn with_words_per_line(mut self, words: usize) -> Self {
        assert!(
            words.is_power_of_two(),
            "words per line must be a power of two"
        );
        let total_words = self.line_bytes * self.num_sets * self.ways;
        self.line_bytes = words;
        assert!(
            total_words >= words * self.ways,
            "cache too small for {words}-word lines"
        );
        self.num_sets = (total_words / (words * self.ways)).max(1);
        self
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.line_bytes * self.num_sets * self.ways
    }

    /// Total number of lines.
    pub fn total_lines(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::BadLineSize(self.line_bytes));
        }
        if self.num_sets == 0 || !self.num_sets.is_power_of_two() {
            return Err(ConfigError::BadSetCount(self.num_sets));
        }
        if self.ways == 0 || self.ways > u16::MAX as usize {
            return Err(ConfigError::BadWays);
        }
        if self.miss_latency <= self.hit_latency {
            return Err(ConfigError::LatencyNotDistinguishable);
        }
        if let Some(p) = self.partition {
            if p.victim_ways == 0 || p.victim_ways >= self.ways {
                return Err(ConfigError::BadPartition(p.victim_ways));
            }
        }
        Ok(())
    }

    /// Line-aligned base address of the line containing `addr`.
    ///
    /// `line_bytes` is a validated power of two, so the division compiles
    /// to a shift — this runs on every access of every probe.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        debug_assert!(self.line_bytes.is_power_of_two());
        addr >> self.line_bytes.trailing_zeros()
    }

    /// Set index for `addr` under the **classical modulo placement**.
    ///
    /// This is the architectural view an attacker assumes when building
    /// conflict sets. The cache itself may place lines elsewhere when
    /// `mapping` is not [`IndexMapping::Modulo`] — that gap is exactly what
    /// the keyed-remap defense exploits.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        debug_assert!(self.num_sets.is_power_of_two());
        (self.line_of(addr) & (self.num_sets as u64 - 1)) as usize
    }

    /// Tag for `addr` (line address with the set bits stripped).
    #[inline]
    pub fn tag_of(&self, addr: u64) -> u64 {
        debug_assert!(self.num_sets.is_power_of_two());
        self.line_of(addr) >> self.num_sets.trailing_zeros()
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::grinch_default()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sets x {} ways x {}B lines ({}B, {:?})",
            self.num_sets,
            self.ways,
            self.line_bytes,
            self.capacity_bytes(),
            self.replacement
        )?;
        if !matches!(self.mapping, IndexMapping::Modulo) {
            write!(f, ", {}", self.mapping.name())?;
        }
        if let Some(p) = self.partition {
            write!(
                f,
                ", partitioned {}v/{}a",
                p.victim_ways,
                self.ways - p.victim_ways
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grinch_default_matches_paper_geometry() {
        let cfg = CacheConfig::grinch_default();
        assert_eq!(cfg.ways, 16);
        assert_eq!(cfg.total_lines(), 1024);
        assert_eq!(cfg.line_bytes, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn words_per_line_sweep_preserves_capacity() {
        let base = CacheConfig::grinch_default();
        for words in [1usize, 2, 4, 8] {
            let cfg = base.with_words_per_line(words);
            assert_eq!(cfg.capacity_bytes(), base.capacity_bytes());
            assert_eq!(cfg.line_bytes, words);
            assert!(cfg.validate().is_ok(), "words {words}");
        }
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut cfg = CacheConfig::grinch_default();
        cfg.line_bytes = 3;
        assert_eq!(cfg.validate(), Err(ConfigError::BadLineSize(3)));
        cfg = CacheConfig::grinch_default();
        cfg.num_sets = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadSetCount(0)));
        cfg = CacheConfig::grinch_default();
        cfg.ways = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::BadWays));
        cfg.ways = u16::MAX as usize + 1;
        assert_eq!(cfg.validate(), Err(ConfigError::BadWays));
        assert_eq!(
            ConfigError::BadWays.to_string(),
            "associativity must be between 1 and 65535"
        );
        cfg.ways = u16::MAX as usize;
        cfg.num_sets = 1;
        assert!(cfg.validate().is_ok(), "the widest ring index still fits");
        cfg = CacheConfig::grinch_default();
        cfg.miss_latency = cfg.hit_latency;
        assert_eq!(cfg.validate(), Err(ConfigError::LatencyNotDistinguishable));
    }

    #[test]
    fn validation_rejects_degenerate_partitions() {
        let cfg = CacheConfig::grinch_default().with_partition(WayPartition { victim_ways: 0 });
        assert_eq!(cfg.validate(), Err(ConfigError::BadPartition(0)));
        let cfg = CacheConfig::grinch_default().with_partition(WayPartition { victim_ways: 16 });
        assert_eq!(cfg.validate(), Err(ConfigError::BadPartition(16)));
        let cfg = CacheConfig::grinch_default().with_partition(WayPartition::even_split(16));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn defended_configs_render_their_defenses() {
        let cfg = CacheConfig::grinch_default()
            .with_mapping(IndexMapping::KeyedRemap {
                key: 1,
                epoch_accesses: 64,
            })
            .with_partition(WayPartition::even_split(16));
        let s = cfg.to_string();
        assert!(s.contains("keyed-remap"), "{s}");
        assert!(s.contains("partitioned 8v/8a"), "{s}");
        let undefended = CacheConfig::grinch_default().to_string();
        assert!(!undefended.contains("keyed-remap"));
        assert!(!undefended.contains("partitioned"));
    }

    #[test]
    fn address_decomposition_round_trips() {
        let cfg = CacheConfig::grinch_default().with_words_per_line(4);
        for addr in [0u64, 3, 4, 1023, 0x1234, u32::MAX as u64] {
            let line = cfg.line_of(addr);
            assert_eq!(
                line,
                cfg.tag_of(addr) * cfg.num_sets as u64 + cfg.set_of(addr) as u64
            );
            assert_eq!(line * cfg.line_bytes as u64 / cfg.line_bytes as u64, line);
        }
    }

    #[test]
    fn same_line_addresses_share_set_and_tag() {
        let cfg = CacheConfig::grinch_default().with_words_per_line(8);
        assert_eq!(cfg.set_of(0x100), cfg.set_of(0x107));
        assert_eq!(cfg.tag_of(0x100), cfg.tag_of(0x107));
        assert_ne!(cfg.line_of(0x100), cfg.line_of(0x108));
    }
}
