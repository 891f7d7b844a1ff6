//! Regression harness for the cache core.
//!
//! The slab-layout `Cache`, which keeps each way range in replacement order
//! instead of running a replacement clock, must be *observationally
//! identical* to the original array-of-structs design. This test replays
//! long traces against a deliberately naive reference model written the way
//! the seed cache was — `Vec` of sets, `Vec` of ways, `Option<u64>` lines,
//! the per-set clock of `ReplacementState` and a per-eviction metadata
//! `collect` — and demands the same outcome (hit/miss, latency, evicted
//! line) on every step, the same statistics and the same resident lines,
//! for all three replacement policies, with and without partitioning and
//! keyed remapping. Every entry point replays: single accesses and flushes,
//! and the batched `access_batch_from`, `flush_lines_from`,
//! `reload_and_flush_from` and `flush_all_from`. The whole-set
//! `access_set_from` replays against both `access_batch_from` and the
//! reference model.

use cache_sim::mapper::Mapper;
use cache_sim::replacement::ReplacementState;
use cache_sim::{
    splitmix64, AccessOutcome, Cache, CacheConfig, CacheStats, Domain, IndexMapping,
    ReplacementPolicy, SetGroup, SetGroupError, WayPartition,
};
use grinch_telemetry::Telemetry;

/// The seed implementation, preserved as an executable specification.
struct ReferenceCache {
    config: CacheConfig,
    mapper: Mapper,
    sets: Vec<RefSet>,
    stats: CacheStats,
}

struct RefSet {
    ways: Vec<RefWay>,
    replacement: ReplacementState,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: Option<u64>,
    meta: u64,
}

/// Mirror of the outcome triple the real cache reports.
#[derive(Debug, PartialEq, Eq)]
struct RefOutcome {
    hit: bool,
    latency: u64,
    evicted_line: Option<u64>,
}

impl ReferenceCache {
    fn new_seeded(config: CacheConfig, seed: u64) -> Self {
        let sets = (0..config.num_sets)
            .map(|s| RefSet {
                ways: vec![
                    RefWay {
                        line: None,
                        meta: 0
                    };
                    config.ways
                ],
                replacement: ReplacementState::new(
                    config.replacement,
                    splitmix64(seed ^ splitmix64(s as u64)),
                ),
            })
            .collect();
        Self {
            config,
            mapper: config.mapping.build(),
            sets,
            stats: CacheStats::default(),
        }
    }

    fn way_range(&self, domain: Domain) -> core::ops::Range<usize> {
        match self.config.partition {
            Some(p) => p.way_range(domain, self.config.ways),
            None => 0..self.config.ways,
        }
    }

    fn access_from(&mut self, addr: u64, domain: Domain) -> RefOutcome {
        if self.mapper.note_access() {
            for set in &mut self.sets {
                for way in &mut set.ways {
                    way.line = None;
                }
            }
            self.stats.remaps += 1;
        }
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let range = self.way_range(domain);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.ways[range.clone()]
            .iter_mut()
            .find(|w| w.line == Some(line))
        {
            way.meta = set.replacement.on_hit(way.meta);
            self.stats.hits += 1;
            return RefOutcome {
                hit: true,
                latency: self.config.hit_latency,
                evicted_line: None,
            };
        }
        self.stats.misses += 1;
        let fill_meta = set.replacement.on_fill();
        let (way_idx, evicted_line) = if let Some(idx) = set.ways[range.clone()]
            .iter()
            .position(|w| w.line.is_none())
        {
            (range.start + idx, None)
        } else {
            let meta: Vec<u64> = set.ways[range.clone()].iter().map(|w| w.meta).collect();
            let victim = range.start + set.replacement.choose_victim(&meta);
            let old_line = set.ways[victim].line.expect("full set has valid lines");
            self.stats.evictions += 1;
            (victim, Some(old_line))
        };
        set.ways[way_idx] = RefWay {
            line: Some(line),
            meta: fill_meta,
        };
        RefOutcome {
            hit: false,
            latency: self.config.miss_latency,
            evicted_line,
        }
    }

    fn flush_line_from(&mut self, addr: u64, domain: Domain) -> bool {
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let range = self.way_range(domain);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.ways[range].iter_mut().find(|w| w.line == Some(line)) {
            way.line = None;
            self.stats.flushes += 1;
            true
        } else {
            false
        }
    }

    /// Invalidates every line in `domain`'s ways of every set.
    fn flush_all_from(&mut self, domain: Domain) {
        let range = self.way_range(domain);
        for set in &mut self.sets {
            for way in &mut set.ways[range.clone()] {
                way.line = None;
            }
        }
        self.stats.full_flushes += 1;
    }

    fn resident_line_addrs(&self) -> Vec<u64> {
        let mut lines: Vec<u64> = self
            .sets
            .iter()
            .flat_map(|s| s.ways.iter().filter_map(|w| w.line))
            .collect();
        lines.sort_unstable();
        lines
    }
}

fn triple(o: &AccessOutcome) -> (bool, u64, Option<u64>) {
    (o.hit, o.latency, o.evicted_line)
}

fn ref_triple(o: &RefOutcome) -> (bool, u64, Option<u64>) {
    (o.hit, o.latency, o.evicted_line)
}

/// Compares statistics and resident lines of both models.
fn assert_same_state(real: &Cache, reference: &ReferenceCache, step: u64) {
    assert_eq!(
        *real.stats(),
        reference.stats,
        "stats divergence at step {step}"
    );
    let mut resident = real.resident_line_addrs();
    resident.sort_unstable();
    assert_eq!(
        resident,
        reference.resident_line_addrs(),
        "residency divergence at step {step}"
    );
}

/// A deterministic mixed workload of single accesses, occasional flushes
/// and batched operations from both domains. `span` bounds the address
/// range of single operations so sets fill and evict; `batch` draws the
/// addresses of one batched operation from a random word.
fn replay_with(
    config: CacheConfig,
    seed: u64,
    steps: u64,
    span: u64,
    batch: impl Fn(u64) -> Vec<u64>,
) {
    let mut real = Cache::new_seeded(config, seed);
    let mut reference = ReferenceCache::new_seeded(config, seed);
    let mut x = splitmix64(seed ^ 0x5eed);
    for step in 0..steps {
        x = splitmix64(x);
        let addr = x % span;
        let domain = if x & 0x100 == 0 {
            Domain::Victim
        } else {
            Domain::Attacker
        };
        match (x >> 24) & 0xff {
            0 => assert_eq!(
                real.flush_line_from(addr, domain),
                reference.flush_line_from(addr, domain),
                "flush divergence at step {step} (addr {addr:#x})"
            ),
            1 => {
                real.flush_all_from(domain);
                reference.flush_all_from(domain);
            }
            2..=5 => {
                let addrs = batch(x);
                let mut got = Vec::with_capacity(addrs.len());
                real.access_batch_from(&addrs, domain, |a, o| got.push((a, triple(&o))));
                let want: Vec<_> = addrs
                    .iter()
                    .map(|&a| (a, ref_triple(&reference.access_from(a, domain))))
                    .collect();
                assert_eq!(got, want, "batch divergence at step {step} ({domain:?})");
            }
            6 | 7 => {
                let addrs = batch(x);
                let want = addrs
                    .iter()
                    .filter(|&&a| reference.flush_line_from(a, domain))
                    .count() as u64;
                assert_eq!(
                    real.flush_lines_from(&addrs, domain),
                    want,
                    "flush batch divergence at step {step} ({domain:?})"
                );
            }
            8 | 9 => {
                let addrs = batch(x);
                let mut got = Vec::with_capacity(addrs.len());
                real.reload_and_flush_from(&addrs, domain, |a, hit| got.push((a, hit)));
                let want: Vec<_> = addrs
                    .iter()
                    .map(|&a| {
                        let hit = reference.access_from(a, domain).hit;
                        reference.flush_line_from(a, domain);
                        (a, hit)
                    })
                    .collect();
                assert_eq!(got, want, "reload divergence at step {step} ({domain:?})");
            }
            _ => {
                let got = real.access_from(addr, domain);
                let want = reference.access_from(addr, domain);
                assert_eq!(
                    triple(&got),
                    ref_triple(&want),
                    "outcome divergence at step {step} (addr {addr:#x}, {domain:?})"
                );
            }
        }
        if step % 64 == 0 {
            assert_same_state(&real, &reference, step);
        }
    }
    assert_same_state(&real, &reference, steps);
}

/// [`replay_with`] whose batches are 1–32 addresses drawn from `span`.
fn replay(config: CacheConfig, seed: u64, steps: u64, span: u64) {
    replay_with(config, seed, steps, span, |x| random_batch(x, span));
}

/// 1–32 addresses below `span`, derived from `x`.
fn random_batch(x: u64, span: u64) -> Vec<u64> {
    let mut y = x;
    (0..1 + (x >> 40) % 32)
        .map(|_| {
            y = splitmix64(y);
            y % span
        })
        .collect()
}

/// Sixteen lines that share one modulo set class — an attacker's
/// Prime+Probe group. Three families per set contend for it, so probes
/// hit, miss and evict.
fn same_set_group(config: &CacheConfig, x: u64) -> Vec<u64> {
    let stride = (config.line_bytes * config.num_sets) as u64;
    let set = (x >> 40) % config.num_sets as u64;
    let family = (x >> 48) % 3;
    (0..16)
        .map(|w| 0x10_0000 + set * config.line_bytes as u64 + (family * 16 + w) * stride)
        .collect()
}

fn base_config(replacement: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        line_bytes: 4,
        num_sets: 8,
        ways: 4,
        hit_latency: 1,
        miss_latency: 20,
        replacement,
        mapping: IndexMapping::Modulo,
        partition: None,
    }
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

#[test]
fn slab_replays_reference_evictions_modulo() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        replay(base_config(policy), 0x1000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_evictions_partitioned() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let cfg = base_config(policy).with_partition(WayPartition { victim_ways: 3 });
        replay(cfg, 0x2000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_evictions_keyed_remap() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let cfg = base_config(policy).with_mapping(IndexMapping::KeyedRemap {
            key: 0xfeed_f00d ^ i as u64,
            epoch_accesses: 977,
        });
        replay(cfg, 0x3000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_in_grinch_geometry() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut cfg = CacheConfig::grinch_default();
        cfg.replacement = policy;
        replay(cfg, 0x4000 + i as u64, 20_000, 0x1000);
    }
}

#[test]
fn batched_paths_replay_reference_on_same_set_groups() {
    // The arena's Prime+Probe shape: 16-line same-set groups in the paper's
    // geometry, with rekeys landing mid-batch (epochs of 7 and 64
    // accesses) and, when partitioned, 16 lines thrashing 8 attacker ways.
    let mut seed = 0x5000;
    for policy in POLICIES {
        for epoch_accesses in [0, 7, 64] {
            for partition in [None, Some(WayPartition::even_split(16))] {
                let mut cfg = CacheConfig::grinch_default();
                cfg.replacement = policy;
                cfg.partition = partition;
                if epoch_accesses > 0 {
                    cfg.mapping = IndexMapping::KeyedRemap {
                        key: 0xc0ff_ee00 ^ seed,
                        epoch_accesses,
                    };
                }
                seed += 1;
                replay_with(cfg, seed, 6_000, 0x800, |x| {
                    if x & 0x200 == 0 {
                        same_set_group(&cfg, x)
                    } else {
                        random_batch(x, 0x800)
                    }
                });
            }
        }
    }
}

#[test]
fn reload_into_a_full_range_evicts_the_next_victim() {
    // The one-lookup reload's eviction case, pinned directly: fill one
    // set's way range, then reload-and-flush a fresh line of the same set
    // (a miss into a full range) and a line of the fill. The reference
    // accesses — evicting the oldest line, or the drawn way under Random
    // — and then flushes.
    for (i, policy) in POLICIES.into_iter().enumerate() {
        for partition in [None, Some(WayPartition { victim_ways: 3 })] {
            let mut cfg = base_config(policy);
            cfg.partition = partition;
            let seed = 0x6000 + i as u64;
            let mut real = Cache::new_seeded(cfg, seed);
            let mut reference = ReferenceCache::new_seeded(cfg, seed);
            let stride = (cfg.line_bytes * cfg.num_sets) as u64;
            for (step, domain) in [Domain::Victim, Domain::Attacker]
                .into_iter()
                .cycle()
                .take(16)
                .enumerate()
            {
                let family = step as u64 * 16;
                let fill: Vec<u64> = (0..cfg.ways as u64)
                    .map(|w| (family + w) * stride)
                    .collect();
                real.access_batch_from(&fill, domain, |_, _| {});
                for &a in &fill {
                    reference.access_from(a, domain);
                }
                let reload = [(family + 15) * stride, fill[0]];
                let evictions = real.stats().evictions;
                let mut got = Vec::new();
                real.reload_and_flush_from(&reload, domain, |a, hit| got.push((a, hit)));
                let want: Vec<_> = reload
                    .iter()
                    .map(|&a| {
                        let hit = reference.access_from(a, domain).hit;
                        reference.flush_line_from(a, domain);
                        (a, hit)
                    })
                    .collect();
                assert_eq!(got, want, "{policy:?} {partition:?} step {step}");
                assert!(!got[0].1, "the fresh line misses");
                assert_eq!(
                    real.stats().evictions,
                    evictions + 1,
                    "a miss into a full range evicts ({policy:?} {partition:?} step {step})"
                );
                assert_same_state(&real, &reference, step as u64);
            }
        }
    }
}

/// The lines of `domain`'s way range in the set `fresh` maps to, oldest
/// first: a copy of the cache reads `fresh` (lines of that set it does not
/// hold) from `domain` and reports what each fill evicts.
fn eviction_order(cache: &Cache, fresh: &[u64], domain: Domain) -> Vec<u64> {
    let mut copy = cache.clone();
    let mut order = Vec::new();
    copy.access_batch_from(fresh, domain, |_, o| order.extend(o.evicted_line));
    order
}

#[test]
fn lru_probe_leaves_the_state_flush_then_prime_leaves() {
    // Why Prime+Probe needs no flush: after 0, 1 or 2 victim accesses into
    // a monitored set, re-reading the 16 prime lines under LRU leaves the
    // same residents, in the same replacement order, as flushing the
    // attacker's ways and priming again. Unpartitioned, the probe evicts
    // the victim's lines as the flush did; under the even split the 8
    // attacker ways end with the last 8 prime lines either way and the
    // victim ways are untouched by both.
    for partition in [None, Some(WayPartition::even_split(16))] {
        let mut cfg = CacheConfig::grinch_default();
        cfg.partition = partition;
        assert_eq!(cfg.replacement, ReplacementPolicy::Lru);
        let stride = (cfg.line_bytes * cfg.num_sets) as u64;
        let set = 5 * cfg.line_bytes as u64;
        let prime: Vec<u64> = (0..16).map(|w| 0x10_0000 + set + w * stride).collect();
        let fresh: Vec<u64> = (16..32).map(|w| 0x10_0000 + set + w * stride).collect();
        let victim = [set, set + stride];
        for touched in 0..=2 {
            let mut start = Cache::new(cfg);
            start.access_batch_from(&prime, Domain::Attacker, |_, _| {});
            for &v in &victim[..touched] {
                start.access_from(v, Domain::Victim);
            }
            let mut probed = start.clone();
            let mut misses = 0;
            probed.access_batch_from(&prime, Domain::Attacker, |_, o| {
                misses += usize::from(o.is_miss())
            });
            let mut reprimed = start;
            reprimed.flush_all_from(Domain::Attacker);
            reprimed.access_batch_from(&prime, Domain::Attacker, |_, _| {});
            let label = format!("{partition:?}, {touched} victim accesses");
            if partition.is_none() {
                assert_eq!(misses > 0, touched > 0, "{label}: probe outcome");
            }
            let mut got = probed.resident_line_addrs();
            let mut want = reprimed.resident_line_addrs();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{label}: residents");
            for domain in [Domain::Attacker, Domain::Victim] {
                assert_eq!(
                    eviction_order(&probed, &fresh, domain),
                    eviction_order(&reprimed, &fresh, domain),
                    "{label}: {domain:?} replacement order"
                );
            }
        }
    }
}

/// The ring a whole-set read starts from.
#[derive(Clone, Copy, Debug)]
enum StartRing {
    /// Nothing resident.
    Empty,
    /// The group was just read.
    Group,
    /// Only the group's last `min(n, width)` lines were read.
    Suffix,
    /// Only the group's first `min(n, width)` lines were read.
    Prefix,
    /// A full ring of other lines of the set.
    Others,
    /// The group was read, then the victim read this many other lines
    /// of the set.
    VictimLines(u64),
    /// The group was read from its second line on, then its first: the
    /// newest line is the group's first.
    Rotated,
}

/// The counter totals and access-latency histogram `cache` publishes
/// under the label `l1`.
fn published(tel: &Telemetry) -> (Vec<u64>, grinch_telemetry::LogHistogram) {
    let counters = [
        "hits",
        "misses",
        "evictions",
        "flushes",
        "full_flushes",
        "remaps",
    ]
    .iter()
    .map(|c| tel.counter(&format!("l1.{c}")))
    .collect();
    let hist = tel
        .snapshot()
        .histogram("l1.access_cycles")
        .cloned()
        .unwrap_or_default();
    (counters, hist)
}

#[test]
fn whole_set_reads_replay_batched_reads_and_the_reference() {
    // `access_set_from` against `access_batch_from` over the same
    // addresses and against the reference model: groups of 1 to 2·W
    // distinct lines of one set class, read three times in a row from
    // eleven starting rings, under all three policies, epochs 0, 7 and 64
    // (with the rekey placed before, at the start, in the middle and at
    // the end of the first read), with and without the even split. Compared after
    // every read: the miss count, `CacheStats`, the residents in slab
    // order, the replacement order of both domains' ways in the set, the
    // telemetry totals and the reference's statistics and residents.
    let stride = 64u64;
    let set = 5u64;
    let line = |base: u64, w: u64| base + set + w * stride;
    let mut seed = 0x7000;
    for policy in POLICIES {
        for epoch_accesses in [0u64, 7, 64] {
            for partition in [None, Some(WayPartition::even_split(16))] {
                let mut cfg = CacheConfig::grinch_default();
                assert_eq!((cfg.line_bytes, cfg.num_sets as u64), (1, stride));
                cfg.replacement = policy;
                cfg.partition = partition;
                if epoch_accesses > 0 {
                    cfg.mapping = IndexMapping::KeyedRemap {
                        key: 0xab5e_7000 ^ seed,
                        epoch_accesses,
                    };
                }
                let width = if partition.is_some() { 8 } else { 16 };
                let fresh: Vec<u64> = (200..232).map(|w| line(0x10_0000, w)).collect();
                for n in 1..=2 * width {
                    let addrs: Vec<u64> = (0..n).map(|w| line(0x10_0000, w)).collect();
                    let group = SetGroup::new(&cfg, &addrs).expect("a valid group");
                    let suffix = &addrs[(n - n.min(width)) as usize..];
                    let prefix = &addrs[..n.min(width) as usize];
                    let others: Vec<u64> = (100..100 + width).map(|w| line(0x10_0000, w)).collect();
                    let starts = [
                        StartRing::Empty,
                        StartRing::Group,
                        StartRing::Suffix,
                        StartRing::Prefix,
                        StartRing::Others,
                        StartRing::Rotated,
                    ]
                    .into_iter()
                    .chain([1, 2, width / 2, width - 1, width].map(StartRing::VictimLines));
                    for start in starts {
                        let setup: Vec<(u64, Domain)> = match start {
                            StartRing::Empty => Vec::new(),
                            StartRing::Group => {
                                addrs.iter().map(|&a| (a, Domain::Attacker)).collect()
                            }
                            StartRing::Suffix => {
                                suffix.iter().map(|&a| (a, Domain::Attacker)).collect()
                            }
                            StartRing::Prefix => {
                                prefix.iter().map(|&a| (a, Domain::Attacker)).collect()
                            }
                            StartRing::Others => {
                                others.iter().map(|&a| (a, Domain::Attacker)).collect()
                            }
                            StartRing::VictimLines(k) => addrs
                                .iter()
                                .map(|&a| (a, Domain::Attacker))
                                .chain((0..k).map(|j| (set + (3 + j) * stride, Domain::Victim)))
                                .collect(),
                            StartRing::Rotated => addrs[1..]
                                .iter()
                                .chain(&addrs[..1])
                                .map(|&a| (a, Domain::Attacker))
                                .collect(),
                        };
                        let mut rekey_at = vec![None];
                        if epoch_accesses > 0 {
                            rekey_at.extend([0, n / 2, n - 1].map(Some));
                            rekey_at.dedup();
                        }
                        for at in rekey_at {
                            seed += 1;
                            // Reads of another set class, so that the rekey
                            // falls at read `at` of the first group read.
                            let pad = at.map_or(0, |j| {
                                let before = setup.len() as u64 + j + 1;
                                (epoch_accesses - before % epoch_accesses) % epoch_accesses
                            });
                            let label = format!(
                                "{policy:?} epoch {epoch_accesses} {partition:?} n {n} \
                                 {start:?} rekey at {at:?}"
                            );
                            let (tel_set, tel_batch) = (Telemetry::new(), Telemetry::new());
                            let mut whole = Cache::new_seeded(cfg, seed);
                            whole.set_telemetry(tel_set.clone(), "l1");
                            let mut batched = Cache::new_seeded(cfg, seed);
                            batched.set_telemetry(tel_batch.clone(), "l1");
                            let mut reference = ReferenceCache::new_seeded(cfg, seed);
                            let prelude = (0..pad)
                                .map(|k| (0x20_0000 + set + 1 + k * stride, Domain::Attacker))
                                .chain(setup.iter().copied());
                            for (addr, domain) in prelude {
                                whole.access_from(addr, domain);
                                batched.access_from(addr, domain);
                                reference.access_from(addr, domain);
                            }
                            for read in 0..3 {
                                let misses = whole.access_set_from(&group, Domain::Attacker);
                                let mut batch_misses = 0;
                                batched.access_batch_from(
                                    group.addrs(),
                                    Domain::Attacker,
                                    |_, o| batch_misses += u64::from(o.is_miss()),
                                );
                                let ref_misses = group
                                    .addrs()
                                    .iter()
                                    .filter(|&&a| !reference.access_from(a, Domain::Attacker).hit)
                                    .count()
                                    as u64;
                                let label = format!("{label}, read {read}");
                                assert_eq!(misses, batch_misses, "{label}: misses");
                                assert_eq!(misses, ref_misses, "{label}: reference misses");
                                assert_eq!(whole.stats(), batched.stats(), "{label}: stats");
                                assert_same_state(&whole, &reference, read);
                                assert_eq!(
                                    whole.resident_line_addrs(),
                                    batched.resident_line_addrs(),
                                    "{label}: residents in slab order"
                                );
                                for domain in [Domain::Attacker, Domain::Victim] {
                                    assert_eq!(
                                        eviction_order(&whole, &fresh, domain),
                                        eviction_order(&batched, &fresh, domain),
                                        "{label}: {domain:?} replacement order"
                                    );
                                }
                                assert_eq!(
                                    published(&tel_set),
                                    published(&tel_batch),
                                    "{label}: telemetry"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn set_groups_refuse_repeated_lines_and_other_sets() {
    let mut cfg = CacheConfig::grinch_default().with_words_per_line(4);
    assert_eq!((cfg.line_bytes, cfg.num_sets), (4, 16));
    let stride = 64;
    assert!(SetGroup::new(&cfg, &[0x100, 0x100 + stride, 0x100 + 2 * stride]).is_ok());
    assert_eq!(
        SetGroup::new(&cfg, &[0x100, 0x100 + stride, 0x103]),
        Err(SetGroupError::RepeatedLine(0x103))
    );
    assert_eq!(
        SetGroup::new(&cfg, &[0x100, 0x104]),
        Err(SetGroupError::OtherSet(0x104))
    );
    cfg.line_bytes = 1;
    cfg.num_sets = 1;
    assert_eq!(
        SetGroup::new(&cfg, &[0, u64::MAX]),
        Err(SetGroupError::ReservedLine(u64::MAX))
    );
}

#[test]
fn a_group_of_another_geometry_takes_the_per_access_core() {
    // A group validated for 4-byte lines is not one set class of a cache
    // with 1-byte lines; the whole-set read must still equal the batch.
    let coarse = CacheConfig::grinch_default().with_words_per_line(4);
    let addrs: Vec<u64> = (0..20u64).map(|w| 0x100 + w * 64).collect();
    let group = SetGroup::new(&coarse, &addrs).unwrap();
    let mut whole = Cache::new(CacheConfig::grinch_default());
    let mut batched = whole.clone();
    for _ in 0..3 {
        let mut misses = 0;
        batched.access_batch_from(&addrs, Domain::Attacker, |_, o| {
            misses += u64::from(o.is_miss())
        });
        assert_eq!(whole.access_set_from(&group, Domain::Attacker), misses);
        assert_eq!(whole.stats(), batched.stats());
        assert_eq!(whole.resident_line_addrs(), batched.resident_line_addrs());
    }
}
