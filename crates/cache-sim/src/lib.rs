//! # cache-sim
//!
//! A configurable set-associative cache and memory-hierarchy simulator built
//! for microarchitectural side-channel studies — specifically the shared L1
//! of the SoC platforms attacked by GRINCH (Reinbrecht et al., DATE 2021).
//!
//! The model is deliberately *information-accurate* rather than RTL-accurate:
//! what matters to an access-driven attack is which lines are resident, which
//! accesses hit or miss, and how long each takes. The simulator exposes:
//!
//! * [`Cache`] — a set-associative cache with configurable line size, set
//!   count, associativity and replacement policy ([`ReplacementPolicy`]),
//!   supporting whole-cache and per-line flushes (the `Flush` half of
//!   Flush+Reload).
//! * [`MemoryHierarchy`] — an L1 backed by a fixed-latency main memory, so an
//!   attacker thread can distinguish hits from misses by timing, exactly as
//!   in the paper's threat model.
//! * [`CacheObserver`] — an adapter that lets the table-driven GIFT cipher
//!   from `gift-cipher` stream its S-box reads straight into a cache.
//!
//! The paper's default geometry (16-way, 1024 lines, 8-bit words, one word
//! per line) is [`CacheConfig::grinch_default`]; Table I's sweep varies the
//! words-per-line parameter.
//!
//! ```
//! use cache_sim::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig::grinch_default());
//! assert!(cache.access(0x40).is_miss());
//! assert!(cache.access(0x40).is_hit());
//! cache.flush_line(0x40);
//! assert!(cache.access(0x40).is_miss());
//! ```

pub mod adapter;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mapper;
pub mod multilevel;
pub mod replacement;
pub mod stats;
pub mod trace;

pub use adapter::CacheObserver;
pub use cache::{AccessOutcome, Cache, ProvenCounts, SetGroup, SetGroupError};
pub use config::{CacheConfig, ConfigError};
pub use hierarchy::MemoryHierarchy;
pub use mapper::{splitmix64, Domain, IndexMapping, Mapper, WayPartition};
pub use multilevel::{LevelledOutcome, ServedBy, TwoLevelHierarchy};
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
pub use trace::{AccessTrace, TraceEntry};
