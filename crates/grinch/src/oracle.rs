//! Step 2 — probing the cache: the attacker's observation interface.
//!
//! [`VictimOracle`] wraps a secret-keyed victim cipher, a shared cache and a
//! probing configuration, and lets the attacker do exactly what the paper's
//! threat model allows: submit a plaintext for encryption and learn which
//! S-box *cache lines* were resident when the probe fired — nothing else.
//!
//! Two classical probe mechanics are implemented:
//!
//! * **Flush+Reload** — the attacker flushes the S-box lines before the
//!   encryption, then reloads each line and classifies hit/miss by timing.
//!   The rounds it observes and the reload run on real cache state. With
//!   "Grinch with Flush" on a cache whose placement never changes (no
//!   rekeying, no way partition) and whose monitored lines sit in distinct
//!   sets, the victim's rounds before the mid-encryption flush only mark
//!   the lines they read: the cache is empty when an observation starts,
//!   so their counters and the flush's follow without a replay (DESIGN.md
//!   §11, "Closed-form flushed prefix").
//! * **Prime+Probe** — the attacker fills the cache sets the S-box maps to
//!   with its own lines, then re-reads them and infers victim activity from
//!   its own misses. It never flushes: each probe leaves the sets primed
//!   for the next observation. On a cache whose placement never changes
//!   (no rekeying, no way partition, LRU or FIFO) and whose monitored lines
//!   sit in distinct sets, every probe puts each set back as it was, so the
//!   oracle derives the probe and the cache counters from which lines the
//!   victim read, without replaying a single access (DESIGN.md §11,
//!   "Closed-form Prime+Probe"). Rekeyed, partitioned and `Random`-policy
//!   caches, and victims that also read the permutation table, run every
//!   access on real cache state.
//!
//! The probing *moment* follows the paper's Fig. 3 convention: "cache
//! probing round k" means the probe observes the accesses of rounds
//! `1..=k+1` (the probe fires while the victim executes round `k + 1`,
//! i.e. right after round `k` finished); the optional flush after round 1
//! removes the key-independent first-round accesses ("Grinch with Flush").

use crate::noise::NoiseChannel;
use crate::stage::{SilenceModel, StageVictim};
use crate::target::TargetSpec;
use cache_sim::{
    Cache, CacheConfig, Domain, IndexMapping, ProvenCounts, ReplacementPolicy, SetGroup,
};
use gift_cipher::countermeasure::{
    masked_round_keys_64, FullScanGift64, PreloadGift64, WideLineGift64,
};
use gift_cipher::key_schedule::RoundKey64;
use gift_cipher::{Key, MemoryObserver, NullObserver, TableGift64, TableLayout, GIFT64_ROUNDS};

/// Which probe mechanic the attacker uses (paper Step 2 discusses both and
/// prefers Flush+Reload).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ProbeStrategy {
    /// Flush the monitored lines, reload and time them after the victim ran.
    #[default]
    FlushReload,
    /// Fill the monitored sets with attacker lines and detect evictions.
    PrimeProbe,
}

/// Which victim implementation the oracle runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum VictimVariant {
    /// The vulnerable lookup-table GIFT-64 (the paper's target).
    #[default]
    Table,
    /// Countermeasure 1 (paper §IV-C): the 8×8-bit reshaped S-box.
    WideLine,
    /// Countermeasure 2 (paper §IV-C): the masked `UpdateKey` schedule.
    MaskedSchedule,
    /// Classic software mitigation: every lookup scans the whole table, so
    /// the address stream is data-independent (16× read overhead).
    FullScan,
    /// Classic software mitigation: the whole table is touched at the start
    /// of every round, so all lines are always resident when probed.
    Preload,
}

/// The attacker-visible observation setup.
#[derive(Clone, Debug)]
pub struct ObservationConfig {
    /// Shared-cache geometry.
    pub cache: CacheConfig,
    /// Placement of the victim's tables.
    pub layout: TableLayout,
    /// The paper's "cache probing round": the probe sees rounds
    /// `1..=probing_round + 1`.
    pub probing_round: usize,
    /// Whether the attacker flushes the cache right after round 1
    /// ("Grinch with Flush").
    pub flush_after_round1: bool,
    /// Probe mechanic.
    pub strategy: ProbeStrategy,
    /// Victim implementation.
    pub variant: VictimVariant,
}

impl ObservationConfig {
    /// The paper's best case: probing round 1 with flush, one word per
    /// line, Flush+Reload.
    pub fn ideal() -> Self {
        Self {
            cache: CacheConfig::grinch_default(),
            layout: TableLayout::default(),
            probing_round: 1,
            flush_after_round1: true,
            strategy: ProbeStrategy::FlushReload,
            variant: VictimVariant::Table,
        }
    }

    /// Sets the probing round.
    pub fn with_probing_round(mut self, round: usize) -> Self {
        self.probing_round = round;
        self
    }

    /// Enables or disables the flush after round 1.
    pub fn with_flush(mut self, flush: bool) -> Self {
        self.flush_after_round1 = flush;
        self
    }

    /// Sets the line size in 8-bit words, preserving total cache capacity
    /// (the Table I sweep).
    pub fn with_words_per_line(mut self, words: usize) -> Self {
        self.cache = self.cache.with_words_per_line(words);
        self
    }

    /// Base addresses of the cache lines covering the S-box table.
    pub fn probe_line_addrs(&self) -> Vec<u64> {
        let lb = self.cache.line_bytes as u64;
        let span = self.sbox_span_bytes();
        let first = self.layout.sbox_base / lb;
        let last = (self.layout.sbox_base + span - 1) / lb;
        (first..=last).map(|l| l * lb).collect()
    }

    /// Byte address of the line containing S-box index `index`.
    pub fn line_addr_of_index(&self, index: u8) -> u64 {
        let lb = self.cache.line_bytes as u64;
        let addr = match self.variant {
            // The wide-line S-box stores two entries per byte.
            VictimVariant::WideLine => self.layout.sbox_base + u64::from(index >> 1),
            _ => self.layout.sbox_entry_addr(index),
        };
        // line_bytes is a validated power of two: align with a mask, not a
        // divide (this runs per candidate-elimination check).
        addr & !(lb - 1)
    }

    /// Index of a monitored line within [`ObservationConfig::probe_line_addrs`]
    /// (0 = the line holding S-box entry 0). `None` for addresses outside
    /// the monitored range.
    pub fn line_index_of_addr(&self, addr: u64) -> Option<usize> {
        let lb = self.cache.line_bytes as u64;
        let first = self.layout.sbox_base / lb;
        let line = addr / lb;
        let count = ((self.layout.sbox_base + self.sbox_span_bytes() - 1) / lb) + 1 - first;
        (line >= first && line - first < count).then(|| (line - first) as usize)
    }

    fn sbox_span_bytes(&self) -> u64 {
        match self.variant {
            VictimVariant::WideLine => 8,
            _ => 16,
        }
    }
}

impl Default for ObservationConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

/// The set of S-box line base addresses a probe found resident.
///
/// A `Copy` bitmask over the monitored lines: bit `i` stands for the
/// `i`-th address of [`ObservationConfig::probe_line_addrs`] (at most 64
/// lines; the 16-entry S-box spans at most 17), so an observation never
/// allocates and an elimination check is one bit test. The interface
/// speaks addresses: [`ObservedLines::iter`] and
/// [`ObservedLines::retain`] visit the lines in ascending address order.
///
/// [`ObservedLines::new`] is an empty placeholder for
/// [`VictimOracle::observe_stage_into`], which gives it the oracle's
/// geometry; [`ObservedLines::for_config`] builds a set to fill by hand.
#[derive(Clone, Copy, Default)]
pub struct ObservedLines {
    bits: u64,
    /// Address of the line bit 0 stands for (the first monitored line).
    base: u64,
    /// `log2(line_bytes)`: bit `i` stands for `base + (i << shift)`.
    shift: u32,
}

impl ObservedLines {
    /// An empty placeholder set (see the type docs); its own geometry
    /// covers only byte addresses `0..64`.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set over `config`'s monitored lines.
    ///
    /// # Panics
    ///
    /// Panics if `config` monitors more than 64 lines.
    pub fn for_config(config: &ObservationConfig) -> Self {
        let lines = config.probe_line_addrs();
        assert!(
            lines.len() <= 64,
            "{} monitored lines do not fit a 64-bit line set",
            lines.len()
        );
        Self {
            bits: 0,
            base: lines[0],
            shift: config.cache.line_bytes.trailing_zeros(),
        }
    }

    /// The bit standing for the line at `addr`, if it is one of the set's
    /// lines.
    fn bit_of(&self, addr: u64) -> Option<u32> {
        let offset = addr.checked_sub(self.base)?;
        let bit = offset >> self.shift;
        (bit < 64 && offset & ((1 << self.shift) - 1) == 0).then_some(bit as u32)
    }

    fn addr_of(&self, bit: u32) -> u64 {
        self.base + (u64::from(bit) << self.shift)
    }

    /// Removes every line.
    pub fn clear(&mut self) {
        self.bits = 0;
    }

    /// Adds the line at `addr`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not the base address of a monitored line.
    pub fn insert(&mut self, addr: u64) -> bool {
        let bit = self
            .bit_of(addr)
            .unwrap_or_else(|| panic!("{addr:#x} is not a monitored line"));
        let absent = self.bits & (1 << bit) == 0;
        self.bits |= 1 << bit;
        absent
    }

    /// Whether the line at `addr` is in the set.
    pub fn contains(&self, addr: &u64) -> bool {
        self.bit_of(*addr)
            .is_some_and(|bit| self.bits & (1 << bit) != 0)
    }

    /// Number of lines in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The line addresses, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        let lines = *self;
        set_bits(self.bits).map(move |bit| lines.addr_of(bit))
    }

    /// Keeps only the lines for which `keep` returns `true`, calling it
    /// once per line in ascending address order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        for bit in set_bits(self.bits) {
            if !keep(self.addr_of(bit)) {
                self.bits &= !(1 << bit);
            }
        }
    }

    /// Indices of the lines in the set, ascending — positions in
    /// [`ObservationConfig::probe_line_addrs`], i.e.
    /// [`ObservationConfig::line_index_of_addr`] of each line.
    pub(crate) fn line_indices(&self) -> impl Iterator<Item = usize> {
        set_bits(self.bits).map(|bit| bit as usize)
    }
}

/// The positions of the set bits of `bits`, ascending.
fn set_bits(mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            bit
        })
    })
}

/// Two sets are equal when they hold the same addresses, whatever their
/// geometry.
impl PartialEq for ObservedLines {
    fn eq(&self, other: &Self) -> bool {
        if (self.base, self.shift) == (other.base, other.shift) {
            self.bits == other.bits
        } else {
            self.iter().eq(other.iter())
        }
    }
}

impl Eq for ObservedLines {}

impl std::fmt::Debug for ObservedLines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Nominal simulated duration of one GIFT round in nanoseconds, used to
/// advance the telemetry clock per observed encryption (100 cycles per
/// round at the paper's 10 MHz baseline). Spans and JSONL timestamps are
/// expressed in this simulated time, never wall time.
pub const SIM_ROUND_NS: u64 = 10_000;

enum VictimCipher {
    Table(TableGift64),
    WideLine(WideLineGift64),
    FullScan(FullScanGift64),
    Preload(PreloadGift64),
}

fn run_one_round<O: MemoryObserver + ?Sized>(
    cipher: &VictimCipher,
    state: u64,
    round: usize,
    obs: &mut O,
) -> u64 {
    match cipher {
        VictimCipher::Table(c) => c.run_single_round(state, round, obs),
        VictimCipher::WideLine(c) => c.run_single_round(state, round, obs),
        VictimCipher::FullScan(c) => c.run_single_round(state, round, obs),
        VictimCipher::Preload(c) => c.run_single_round(state, round, obs),
    }
}

/// Records a round's table-read addresses so they can be replayed into the
/// cache as one batch. The cipher's data flow never depends on the cache,
/// and the attacker only acts *between* rounds, so replaying a single
/// round's reads in program order at round end is state-identical to
/// forwarding each read immediately — only the telemetry publication is
/// amortized.
struct RoundAddrRecorder<'a> {
    addrs: &'a mut Vec<u64>,
}

impl MemoryObserver for RoundAddrRecorder<'_> {
    fn on_read(&mut self, access: gift_cipher::observer::Access) {
        self.addrs.push(access.addr);
    }
}

/// One closed-form window of victim reads: between two Prime+Probe primes
/// (or a prime and the probe), or the Flush+Reload rounds before the
/// mid-encryption flush, kept as the monitored lines they touched and
/// their count. Every read must fall on a monitored line.
#[derive(Clone, Copy, Default)]
struct ProbeWindow {
    /// Line address (`addr >> shift`) of monitored line 0.
    first_line: u64,
    shift: u32,
    /// Bit `i`: the victim read monitored line `i`.
    lines: u64,
    reads: u64,
}

impl MemoryObserver for ProbeWindow {
    #[inline(always)]
    fn on_read(&mut self, access: gift_cipher::observer::Access) {
        let bit = (access.addr >> self.shift) - self.first_line;
        debug_assert!(bit < 64, "{:#x} is not a monitored line", access.addr);
        self.lines |= 1 << bit;
        self.reads += 1;
    }
}

impl ProbeWindow {
    /// An empty window over `lines`' monitored lines.
    fn over(lines: &ObservedLines) -> Self {
        Self {
            first_line: lines.base >> lines.shift,
            shift: lines.shift,
            ..Self::default()
        }
    }

    /// Counts the window's reads into sets that held none of its lines
    /// when it opened, one monitored line to a set: each line's first read
    /// misses, evicting when `evicts` (a full set), and every other read
    /// hits.
    fn count_reads(&self, counts: &mut ProvenCounts, evicts: bool) {
        let touched = u64::from(self.lines.count_ones());
        counts.hits += self.reads - touched;
        counts.misses += touched;
        if evicts {
            counts.evictions += touched;
        }
    }

    /// Counts the window's reads into primed sets and the `ways`-line
    /// re-read of each of the `monitored` sets that closes it (a re-prime
    /// or the probe). A set the victim touched held the attacker's `ways`
    /// lines, so its first read missed and evicted and the rest hit; the
    /// re-read then misses and evicts `ways` times there, and hits `ways`
    /// times in every untouched set (DESIGN.md §11, "Closed-form
    /// Prime+Probe").
    fn close_primed(&self, counts: &mut ProvenCounts, ways: u64, monitored: u64) {
        self.count_reads(counts, true);
        let touched = u64::from(self.lines.count_ones());
        counts.hits += ways * (monitored - touched);
        counts.misses += ways * touched;
        counts.evictions += ways * touched;
    }
}

/// The victim plus the shared cache plus the probe: everything the attacker
/// interacts with.
///
/// The secret key lives inside; the attacker-facing methods are
/// [`VictimOracle::observe`] (one chosen-plaintext encryption, returning the
/// probed line set) and [`VictimOracle::known_pair`] (one chosen-plaintext
/// encryption returning the ciphertext, used to verify a recovered key).
/// Both count towards [`VictimOracle::encryptions`] — the effort metric of
/// every experiment in the paper.
pub struct VictimOracle {
    cipher: VictimCipher,
    cache: Cache,
    config: ObservationConfig,
    encryptions: u64,
    /// Monitored S-box line base addresses, computed once at construction
    /// so the per-observation path never rebuilds the probe list.
    probe_addrs: Vec<u64>,
    /// The empty line set over `probe_addrs`: each observation starts
    /// from a copy.
    empty_lines: ObservedLines,
    /// Bit of [`ObservedLines`] holding each S-box index's line, so a
    /// hypothesis check is one bit test.
    index_bits: [u32; 16],
    /// Prime+Probe's attacker-owned lines: one group of `ways` per
    /// monitored line, in `probe_addrs` order, each in that line's set
    /// class. Empty for Flush+Reload.
    prime_groups: Vec<SetGroup>,
    /// Whether the monitored sets have been primed. Prime+Probe primes
    /// once, on its first observation; every probe then leaves the sets
    /// primed for the next one.
    primed: bool,
    /// Whether Prime+Probe derives its observations and cache counters
    /// in closed form instead of replaying every access (see
    /// [`VictimOracle::closed_form_applies`]). Set once, from the
    /// configuration.
    closed_form: bool,
    /// Whether Flush+Reload counts the victim's rounds before the
    /// mid-encryption flush, and the flush, instead of replaying them (see
    /// [`VictimOracle::flushed_prefix_applies`]). Set once, from the
    /// configuration.
    flushed_prefix: bool,
    telemetry: grinch_telemetry::Telemetry,
    /// `Some` iff telemetry is enabled: the campaign-total counters.
    metrics: Option<AttackMetricHandles>,
    /// Per-stage handle sets, indexed by stage round and registered on
    /// first use, so the per-observation hot path neither formats names
    /// nor hashes them.
    stage_metrics: Vec<Option<StageMetricHandles>>,
    /// Optional false-absence channel applied to every observation before
    /// the attacker (and the telemetry feed) sees it.
    noise: Option<NoiseChannel>,
    /// Scratch address buffer for one victim round's table reads, replayed
    /// into the cache as a batch (see [`VictimOracle::run_rounds_observed`]).
    round_addrs: Vec<u64>,
}

/// Campaign-total counters, registered once at
/// [`VictimOracle::set_telemetry`].
#[derive(Clone, Copy, Debug)]
struct AttackMetricHandles {
    encryptions: grinch_telemetry::CounterHandle,
    probes: grinch_telemetry::CounterHandle,
    probe_hits: grinch_telemetry::CounterHandle,
}

impl AttackMetricHandles {
    fn register(telemetry: &grinch_telemetry::Telemetry) -> Self {
        Self {
            encryptions: telemetry.register_counter("attack.encryptions"),
            probes: telemetry.register_counter("attack.probes"),
            probe_hits: telemetry.register_counter("attack.probe_hits"),
        }
    }
}

/// Pre-registered counter slots for one stage's observability feed: the
/// per-line probe-hit counters (`attack.stage<r>.line_hits.l<idx>.s<set>`)
/// the leakage heatmap is built from, plus per-stage probe/encryption
/// totals. Names are rendered exactly once, at registration.
struct StageMetricHandles {
    probes: grinch_telemetry::CounterHandle,
    probe_hits: grinch_telemetry::CounterHandle,
    encryptions: grinch_telemetry::CounterHandle,
    /// Indexed by monitored-line index (see
    /// [`ObservationConfig::line_index_of_addr`]); the name carries both
    /// the line index and the cache set it maps to.
    line_hits: Vec<grinch_telemetry::CounterHandle>,
}

impl StageMetricHandles {
    fn register(
        telemetry: &grinch_telemetry::Telemetry,
        config: &ObservationConfig,
        stage_round: usize,
    ) -> Self {
        let line_hits = config
            .probe_line_addrs()
            .iter()
            .map(|&addr| {
                telemetry.register_counter(&format!(
                    "attack.stage{stage_round}.line_hits.l{:02}.s{:03}",
                    config.line_index_of_addr(addr).expect("monitored line"),
                    config.cache.set_of(addr)
                ))
            })
            .collect();
        Self {
            probes: telemetry.register_counter(&format!("attack.stage{stage_round}.probes")),
            probe_hits: telemetry
                .register_counter(&format!("attack.stage{stage_round}.probe_hits")),
            encryptions: telemetry
                .register_counter(&format!("attack.stage{stage_round}.encryptions")),
            line_hits,
        }
    }
}

impl VictimOracle {
    /// Creates an oracle around a victim keyed with `key`.
    pub fn new(key: Key, config: ObservationConfig) -> Self {
        Self::build(key, config, None)
    }

    /// Like [`VictimOracle::new`], but the shared cache's per-set
    /// replacement RNG derives from `cache_seed` (see
    /// [`Cache::new_seeded`]) — required for reproducible campaigns under
    /// `ReplacementPolicy::Random`, e.g. the arena's parallel trials.
    pub fn new_seeded(key: Key, config: ObservationConfig, cache_seed: u64) -> Self {
        Self::build(key, config, Some(cache_seed))
    }

    fn build(key: Key, config: ObservationConfig, cache_seed: Option<u64>) -> Self {
        config
            .cache
            .validate()
            .expect("invalid cache configuration");
        assert!(
            config.probing_round >= 1 && config.probing_round < GIFT64_ROUNDS,
            "probing round must be in 1..28"
        );
        let cipher = match config.variant {
            VictimVariant::Table => VictimCipher::Table(TableGift64::new(key, config.layout)),
            VictimVariant::WideLine => {
                VictimCipher::WideLine(WideLineGift64::new(key, config.layout))
            }
            VictimVariant::MaskedSchedule => VictimCipher::Table(TableGift64::from_round_keys(
                masked_round_keys_64(key),
                config.layout,
            )),
            VictimVariant::FullScan => {
                VictimCipher::FullScan(FullScanGift64::new(key, config.layout))
            }
            VictimVariant::Preload => VictimCipher::Preload(PreloadGift64::new(key, config.layout)),
        };
        let cache = match cache_seed {
            Some(seed) => Cache::new_seeded(config.cache, seed),
            None => Cache::new(config.cache),
        };
        let probe_addrs = config.probe_line_addrs();
        let empty_lines = ObservedLines::for_config(&config);
        let index_bits = core::array::from_fn(|index| {
            empty_lines
                .bit_of(config.line_addr_of_index(index as u8))
                .expect("every S-box entry lies on a monitored line")
        });
        let prime_groups = match config.strategy {
            ProbeStrategy::FlushReload => Vec::new(),
            ProbeStrategy::PrimeProbe => Self::build_prime_groups(&config, &probe_addrs),
        };
        let closed_form = Self::closed_form_applies(&config, &probe_addrs, &prime_groups);
        let flushed_prefix = Self::flushed_prefix_applies(&config, &probe_addrs);
        Self {
            cipher,
            cache,
            config,
            encryptions: 0,
            probe_addrs,
            empty_lines,
            index_bits,
            prime_groups,
            primed: false,
            closed_form,
            flushed_prefix,
            telemetry: grinch_telemetry::Telemetry::disabled(),
            metrics: None,
            stage_metrics: Vec::new(),
            noise: None,
            round_addrs: Vec::new(),
        }
    }

    /// Installs a false-absence noise channel: every subsequent observation
    /// is filtered through it before the attacker sees the line set (the
    /// arena's noise axis). Pass `None` to remove.
    pub fn set_noise(&mut self, noise: Option<NoiseChannel>) {
        self.noise = noise;
    }

    /// Attaches a telemetry handle: the shared cache publishes `cache.l1.*`
    /// counters, every observed encryption advances the simulated clock by
    /// [`SIM_ROUND_NS`] per executed round, and probes are counted under
    /// `attack.probes` / `attack.probe_hits` / `attack.encryptions`.
    pub fn set_telemetry(&mut self, telemetry: grinch_telemetry::Telemetry) {
        self.cache.set_telemetry(telemetry.clone(), "cache.l1");
        self.metrics = telemetry
            .is_enabled()
            .then(|| AttackMetricHandles::register(&telemetry));
        // Stage handles index the *previous* registry; drop them so they
        // re-register lazily against the new one.
        self.stage_metrics.clear();
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &grinch_telemetry::Telemetry {
        &self.telemetry
    }

    /// The observation configuration.
    pub fn config(&self) -> &ObservationConfig {
        &self.config
    }

    /// Total victim encryptions triggered so far (the paper's effort
    /// metric).
    pub fn encryptions(&self) -> u64 {
        self.encryptions
    }

    /// Attacker lines that map to the same cache sets as the S-box lines,
    /// one group of `ways` per line, placed far above the victim's tables.
    fn build_prime_groups(config: &ObservationConfig, probe_addrs: &[u64]) -> Vec<SetGroup> {
        let cache = &config.cache;
        let stride = (cache.line_bytes * cache.num_sets) as u64;
        let attacker_base = 0x10_0000u64;
        probe_addrs
            .iter()
            .map(|&line_addr| {
                let set = cache.set_of(line_addr) as u64;
                let addrs: Vec<u64> = (0..cache.ways as u64)
                    .map(|w| attacker_base + w * stride + set * cache.line_bytes as u64)
                    .collect();
                SetGroup::new(cache, &addrs)
                    .expect("lines a set stride apart are distinct and share one set class")
            })
            .collect()
    }

    /// Whether Prime+Probe under `config` has a closed form: every probe
    /// of a monitored set then leaves it holding the attacker's lines in
    /// prime order, so an observation's cache effect follows from which
    /// monitored lines the victim read in each window (DESIGN.md §11,
    /// "Closed-form Prime+Probe"). That needs monitored sets whose
    /// placement never changes (see [`VictimOracle::static_monitored_sets`]),
    /// a replacement order (LRU or FIFO, not `Random`), and no attacker
    /// line among the monitored lines.
    fn closed_form_applies(
        config: &ObservationConfig,
        probe_addrs: &[u64],
        prime_groups: &[SetGroup],
    ) -> bool {
        let foreign_primes = prime_groups
            .iter()
            .all(|g| g.addrs().iter().all(|a| !probe_addrs.contains(a)));
        config.strategy == ProbeStrategy::PrimeProbe
            && Self::static_monitored_sets(config, probe_addrs)
            && config.cache.replacement != ReplacementPolicy::Random
            && foreign_primes
    }

    /// Whether Flush+Reload under `config` counts its flushed prefix: the
    /// cache is then empty when an observation starts, so the victim's
    /// reads before the mid-encryption flush miss once per line and never
    /// evict, and the flush erases exactly the lines they filled
    /// (DESIGN.md §11, "Closed-form flushed prefix"). That
    /// needs the flush and monitored sets whose placement never changes
    /// (see [`VictimOracle::static_monitored_sets`]), under any
    /// replacement policy: with no eviction, `Random` draws nothing.
    fn flushed_prefix_applies(config: &ObservationConfig, probe_addrs: &[u64]) -> bool {
        config.strategy == ProbeStrategy::FlushReload
            && config.flush_after_round1
            && Self::static_monitored_sets(config, probe_addrs)
    }

    /// Whether every victim read falls on a monitored line, each monitored
    /// line alone in its set, in sets that never move or split: a set
    /// placement that never changes (no rekeying), whole sets for both
    /// domains (no way partition), no permutation-table reads, and the
    /// monitored lines in distinct sets.
    fn static_monitored_sets(config: &ObservationConfig, probe_addrs: &[u64]) -> bool {
        let cache = &config.cache;
        let static_mapping = match cache.mapping {
            IndexMapping::Modulo => true,
            IndexMapping::KeyedRemap { epoch_accesses, .. } => epoch_accesses == 0,
        };
        let distinct_sets = probe_addrs.iter().enumerate().all(|(i, &a)| {
            probe_addrs[..i]
                .iter()
                .all(|&b| cache.set_of(a) != cache.set_of(b))
        });
        cache.partition.is_none()
            && static_mapping
            && !config.layout.emit_perm_reads
            && distinct_sets
    }

    fn run_rounds(&mut self, plaintext: u64, rounds: usize) -> u64 {
        let mut state = plaintext;
        for round in 0..rounds {
            let mut obs = NullObserver;
            state = run_one_round(&self.cipher, state, round, &mut obs);
        }
        state
    }

    /// Reads every monitored set's `ways` attacker lines, in
    /// `prime_groups` order. A probe reads the same lines in the same
    /// order, so under LRU it leaves every prime line as resident as a
    /// prime does, whatever the victim did (DESIGN.md §10): no flush
    /// precedes a prime. This is the replay path; a closed-form oracle
    /// counts its primes instead (see
    /// [`VictimOracle::observe_closed_form`]).
    fn prime(&mut self) {
        for group in &self.prime_groups {
            // One whole-set fill (and one telemetry publish) per monitored
            // set.
            self.cache.access_set_from(group, Domain::Attacker);
        }
    }

    /// Ensures the stage-`stage_round` handle set is registered.
    fn ensure_stage_handles(&mut self, stage_round: usize) {
        if self.stage_metrics.len() <= stage_round {
            self.stage_metrics.resize_with(stage_round + 1, || None);
        }
        if self.stage_metrics[stage_round].is_none() {
            self.stage_metrics[stage_round] = Some(StageMetricHandles::register(
                &self.telemetry,
                &self.config,
                stage_round,
            ));
        }
    }

    /// Submits one chosen plaintext, lets the victim run up to the probing
    /// moment for a **stage-1** campaign, and returns the set of S-box
    /// lines the probe found resident.
    ///
    /// Shorthand for [`StageVictim::observe_stage`] with `stage_round = 1`.
    pub fn observe(&mut self, plaintext: u64) -> ObservedLines {
        self.observe_stage(plaintext, 1)
    }

    /// [`StageVictim::observe_stage`] writing into a caller-provided set,
    /// which is overwritten with an observation over this oracle's lines.
    pub fn observe_stage_into(
        &mut self,
        plaintext: u64,
        stage_round: usize,
        out: &mut ObservedLines,
    ) {
        *out = self.empty_lines;
        self.encryptions += 1;
        let rounds = (stage_round + self.config.probing_round).min(GIFT64_ROUNDS);
        if let Some(m) = self.metrics {
            self.telemetry.inc(m.encryptions);
            self.telemetry.advance_time_ns(rounds as u64 * SIM_ROUND_NS);
        }
        let flush_before = self.config.flush_after_round1.then_some(stage_round);
        match self.config.strategy {
            ProbeStrategy::FlushReload => {
                // No flush phase: the monitored lines are already out of
                // the attacker's ways. A fresh cache holds nothing, every
                // observation ends with the reload-and-flush below, and
                // nothing else touches this cache (`known_pair` runs
                // unobserved). All probe-side operations run in the
                // attacker domain: a way partition blocks the reload-hit,
                // blinding the mechanic entirely. Where the flushed prefix
                // applies, the rounds before the flush and the flush are
                // counted, not run, and the replay starts at the flush.
                let (state, first, flush_before) = match flush_before {
                    Some(flush) if self.flushed_prefix && flush < rounds => {
                        (self.count_flushed_prefix(plaintext, flush), flush, None)
                    }
                    _ => (plaintext, 0, flush_before),
                };
                self.run_rounds_observed(state, first..rounds, flush_before);
                // Reload phase: a hit means the victim brought the line in;
                // each line is flushed again right after its reload so the
                // next observation starts cold — one batched cycle. Bit
                // `i` is `probe_addrs[i]`.
                let Self {
                    cache, probe_addrs, ..
                } = self;
                let mut bit = 0u32;
                cache.reload_and_flush_from(probe_addrs, Domain::Attacker, |_, hit| {
                    out.bits |= u64::from(hit) << bit;
                    bit += 1;
                });
            }
            ProbeStrategy::PrimeProbe if self.closed_form => {
                out.bits = self.observe_closed_form(plaintext, rounds, flush_before);
            }
            ProbeStrategy::PrimeProbe => {
                // Prime phase, once: fill each monitored set with attacker
                // lines. Later observations start from the previous probe,
                // which leaves every set primed (see `prime`).
                if !self.primed {
                    self.prime();
                    self.primed = true;
                }
                self.run_rounds_observed(plaintext, 0..rounds, flush_before);
                // Probe phase: re-read the attacker lines; any miss means
                // the victim displaced one — its set was touched. No
                // clean-up follows: under LRU the probe leaves exactly its
                // own lines in each set, in probe order, as a prime would.
                // The replay simulates every read; the closed form above
                // derives the same misses from the victim's lines.
                for (bit, group) in self.prime_groups.iter().enumerate() {
                    let misses = self.cache.access_set_from(group, Domain::Attacker);
                    out.bits |= u64::from(misses > 0) << bit;
                }
            }
        }
        if let Some(channel) = self.noise.as_mut() {
            *out = channel.apply(*out);
        }
        if let Some(m) = self.metrics {
            let probes = self.probe_addrs.len() as u64;
            // Per-stage feed for the leakage profiler (`grinch-obs`):
            // which monitored lines lit up, keyed by line index and set.
            self.ensure_stage_handles(stage_round);
            let stage = self.stage_metrics[stage_round]
                .as_ref()
                .expect("just registered");
            if let Some(mut b) = self.telemetry.batch() {
                b.add(m.probes, probes);
                b.add(m.probe_hits, out.len() as u64);
                b.add(stage.probes, probes);
                b.add(stage.probe_hits, out.len() as u64);
                b.inc(stage.encryptions);
                for idx in out.line_indices() {
                    b.inc(stage.line_hits[idx]);
                }
            }
        }
    }

    /// Closed-form Prime+Probe (DESIGN.md §11): runs the victim's first
    /// `rounds` rounds, noting only which monitored lines each window read
    /// and how many reads it made, and returns the last window's lines —
    /// the probe's misses. The prime, the re-prime before round index
    /// `flush_before` and the probe are not run: their hits, misses and
    /// evictions, and the victim's, follow from the windows and are
    /// counted into the cache with [`Cache::count_proven`]. The cache
    /// contents are never read or written. Kept out of line, so the
    /// Flush+Reload and replay paths of `observe_stage_into` compile as
    /// they did without it.
    #[inline(never)]
    fn observe_closed_form(
        &mut self,
        plaintext: u64,
        rounds: usize,
        flush_before: Option<usize>,
    ) -> u64 {
        let ways = self.config.cache.ways as u64;
        let monitored = self.prime_groups.len() as u64;
        let mut counts = ProvenCounts::default();
        if !self.primed {
            // The first prime fills empty sets: one miss per line.
            counts.misses += ways * monitored;
            self.primed = true;
        }
        let empty = ProbeWindow::over(&self.empty_lines);
        let mut window = empty;
        let mut state = plaintext;
        for round in 0..rounds {
            if flush_before == Some(round) {
                // The re-prime closes the window it ends.
                window.close_primed(&mut counts, ways, monitored);
                window = empty;
            }
            state = run_one_round(&self.cipher, state, round, &mut window);
        }
        window.close_primed(&mut counts, ways, monitored);
        self.cache.count_proven(counts);
        window.lines
    }

    /// The closed-form flushed prefix (DESIGN.md §11): runs the victim's
    /// rounds before round index `flush`, noting only which monitored
    /// lines they read and how many reads they made, and returns the state
    /// the flush finds. The reads and the flush are not run. The cache is
    /// empty when a Flush+Reload observation starts, so the reads of `d`
    /// distinct lines count `d` misses and the rest hits with no eviction,
    /// and the flush, which would erase exactly those lines, leaves the
    /// empty cache the closed form never filled; both are counted with
    /// [`Cache::count_proven`]. Kept out of line, as
    /// [`VictimOracle::observe_closed_form`] is.
    #[inline(never)]
    fn count_flushed_prefix(&mut self, plaintext: u64, flush: usize) -> u64 {
        let mut window = ProbeWindow::over(&self.empty_lines);
        let mut state = plaintext;
        for round in 0..flush {
            state = run_one_round(&self.cipher, state, round, &mut window);
        }
        let mut counts = ProvenCounts {
            full_flushes: 1,
            ..ProvenCounts::default()
        };
        window.count_reads(&mut counts, false);
        self.cache.count_proven(counts);
        state
    }

    /// Runs the victim's rounds `rounds` from `state` against the cache;
    /// before executing round index `flush_before` (0-based) the attacker's
    /// mid-encryption cleanup runs: a cache flush for Flush+Reload, a
    /// re-prime (and no flush) for Prime+Probe.
    fn run_rounds_observed(
        &mut self,
        mut state: u64,
        rounds: core::ops::Range<usize>,
        flush_before: Option<usize>,
    ) -> u64 {
        let mut round_addrs = std::mem::take(&mut self.round_addrs);
        for round in rounds {
            if flush_before == Some(round) {
                match self.config.strategy {
                    // The mid-encryption flush is the *attacker's* cleanup:
                    // on a way-partitioned cache it cannot reach victim
                    // ways, so "Grinch with Flush" loses its lever there too.
                    ProbeStrategy::FlushReload => self.cache.flush_all_from(Domain::Attacker),
                    // Re-priming evicts the victim's earlier-round lines
                    // from every monitored set, which is all the flush
                    // bought Prime+Probe.
                    ProbeStrategy::PrimeProbe => self.prime(),
                }
            }
            round_addrs.clear();
            let mut obs = RoundAddrRecorder {
                addrs: &mut round_addrs,
            };
            state = run_one_round(&self.cipher, state, round, &mut obs);
            self.cache
                .access_batch_from(&round_addrs, Domain::Victim, |_, _| {});
        }
        self.round_addrs = round_addrs;
        state
    }

    /// Triggers one full encryption and returns the ciphertext (the known
    /// plaintext/ciphertext pair the attacker uses to verify a recovered
    /// key). Counts as one encryption.
    pub fn known_pair(&mut self, plaintext: u64) -> u64 {
        self.encryptions += 1;
        if let Some(m) = self.metrics {
            self.telemetry.inc(m.encryptions);
            self.telemetry
                .advance_time_ns(GIFT64_ROUNDS as u64 * SIM_ROUND_NS);
        }
        self.run_rounds(plaintext, GIFT64_ROUNDS)
    }
}

/// The paper's victim: Flush+Reload or Prime+Probe over the shared cache.
/// It alone publishes the stage feed, once telemetry is attached.
impl StageVictim for VictimOracle {
    type Key = RoundKey64;

    /// One observed encryption for a stage-`stage_round` campaign (paper
    /// Step 5 — "change target round").
    ///
    /// The signal is round `stage_round + 1`'s S-box accesses, so the probe
    /// fires while the victim executes round `stage_round +
    /// probing_round`; the optional flush happens right after round
    /// `stage_round` (for stage 1 that is the paper's flush after round 1),
    /// removing the accesses of the already-known earlier rounds. A
    /// Prime+Probe attacker has no flush instruction: its "flush" is a
    /// re-prime, which evicts the victim's lines from the monitored sets.
    fn observe_stage(&mut self, plaintext: u64, stage_round: usize) -> ObservedLines {
        let mut out = ObservedLines::new();
        self.observe_stage_into(plaintext, stage_round, &mut out);
        out
    }

    /// One bit test: the bit of the line the hypothesis predicts.
    fn hypothesis_consistent(
        &self,
        target: &TargetSpec,
        observed: &ObservedLines,
        v_bit: bool,
        u_bit: bool,
    ) -> bool {
        debug_assert!(
            observed.is_empty()
                || (observed.base, observed.shift)
                    == (self.empty_lines.base, self.empty_lines.shift),
            "observation over another oracle's lines"
        );
        let bit = self.index_bits[usize::from(target.expected_index(v_bit, u_bit))];
        observed.bits & (1 << bit) != 0
    }

    fn stage_telemetry(&self) -> Option<(grinch_telemetry::Telemetry, usize)> {
        Some((self.telemetry.clone(), self.probe_addrs.len()))
    }

    /// The model of a leaky victim with this oracle's geometry, whatever
    /// the victim really is: the attacker cannot know a defense is there,
    /// so a full-scan or preloading victim is judged by what a table
    /// victim would show.
    fn silence_model(&self, stage_round: usize, forced: usize) -> Option<SilenceModel> {
        let entries_per_byte = match self.config.variant {
            VictimVariant::WideLine => 2,
            _ => 1,
        };
        let entries_per_line = (entries_per_byte * self.config.cache.line_bytes).min(16);
        Some(SilenceModel {
            lines: self.probe_addrs.len(),
            absence_floor: crate::analysis::forced_batch_absence_bound(
                stage_round,
                self.config.probing_round,
                self.config.flush_after_round1,
                entries_per_line,
                self.probe_addrs.len(),
                forced,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gift_cipher::bitwise::Gift64;
    use gift_cipher::state::segment_64;

    fn key() -> Key {
        Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0)
    }

    #[test]
    fn flush_reload_with_flush_sees_exactly_round2_lines() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let pt = 0x0123_4567_89ab_cdef;
        let observed = oracle.observe(pt);
        // Ground truth: round-2 S-box indices are the nibbles of the round-2
        // input.
        let reference = Gift64::new(key());
        let round2_input = reference.encrypt_rounds(pt, 1);
        let mut expected = ObservedLines::for_config(oracle.config());
        for s in 0..16 {
            expected.insert(
                oracle
                    .config()
                    .line_addr_of_index(segment_64(round2_input, s)),
            );
        }
        assert_eq!(observed, expected);
        assert_eq!(oracle.encryptions(), 1);
    }

    #[test]
    fn without_flush_round1_lines_are_included_too() {
        let cfg = ObservationConfig::ideal().with_flush(false);
        let mut oracle = VictimOracle::new(key(), cfg);
        let pt = 0xfedc_ba98_7654_3210;
        let observed = oracle.observe(pt);
        let reference = Gift64::new(key());
        let r1 = pt;
        let r2 = reference.encrypt_rounds(pt, 1);
        let mut expected = ObservedLines::for_config(oracle.config());
        for s in 0..16 {
            expected.insert(oracle.config().line_addr_of_index(segment_64(r1, s)));
            expected.insert(oracle.config().line_addr_of_index(segment_64(r2, s)));
        }
        assert_eq!(observed, expected);
    }

    #[test]
    fn deeper_probing_rounds_accumulate_more_lines() {
        let pt = 0x1111_2222_3333_4444;
        let shallow = VictimOracle::new(key(), ObservationConfig::ideal()).observe(pt);
        let deep =
            VictimOracle::new(key(), ObservationConfig::ideal().with_probing_round(6)).observe(pt);
        assert!(shallow.iter().all(|line| deep.contains(&line)));
        assert!(deep.len() >= shallow.len());
    }

    #[test]
    fn prime_probe_agrees_with_flush_reload_at_set_granularity() {
        let pt = 0x5a5a_5a5a_a5a5_a5a5;
        let fr_cfg = ObservationConfig::ideal();
        let pp_cfg = ObservationConfig {
            strategy: ProbeStrategy::PrimeProbe,
            ..ObservationConfig::ideal()
        };
        let fr = VictimOracle::new(key(), fr_cfg).observe(pt);
        let pp = VictimOracle::new(key(), pp_cfg).observe(pt);
        // With the default geometry each S-box line maps to its own set, so
        // the two mechanics must observe the same lines.
        assert_eq!(fr, pp);
    }

    #[test]
    fn observations_are_repeatable_for_same_plaintext() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let a = oracle.observe(42);
        let b = oracle.observe(42);
        assert_eq!(a, b);
        assert_eq!(oracle.encryptions(), 2);
    }

    #[test]
    fn coarse_lines_merge_observations() {
        let pt = 0x1234_5678_9abc_def0;
        let fine = VictimOracle::new(key(), ObservationConfig::ideal()).observe(pt);
        let coarse_cfg = ObservationConfig::ideal().with_words_per_line(8);
        let coarse = VictimOracle::new(key(), coarse_cfg).observe(pt);
        assert!(coarse.len() <= fine.len());
        assert!(
            coarse.len() <= 3,
            "misaligned 16B table spans <= 3 8B lines"
        );
    }

    #[test]
    fn wide_line_victim_touches_single_aligned_line() {
        let cfg = ObservationConfig {
            layout: TableLayout::new(0x400), // 8-byte aligned
            cache: CacheConfig::grinch_default().with_words_per_line(8),
            variant: VictimVariant::WideLine,
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(key(), cfg);
        let observed = oracle.observe(0xdead_beef);
        assert_eq!(observed.len(), 1, "whole table in one line leaks nothing");
    }

    #[test]
    fn known_pair_returns_true_ciphertext_for_table_variant() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let pt = 0x2468_ace0_1357_9bdf;
        let ct = oracle.known_pair(pt);
        assert_eq!(ct, Gift64::new(key()).encrypt(pt));
    }

    #[test]
    fn masked_variant_ciphertext_differs_from_plain_gift() {
        let cfg = ObservationConfig {
            variant: VictimVariant::MaskedSchedule,
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(key(), cfg);
        let pt = 0x2468_ace0_1357_9bdf;
        assert_ne!(oracle.known_pair(pt), Gift64::new(key()).encrypt(pt));
    }

    #[test]
    fn way_partition_blinds_both_probe_mechanics() {
        // Both mechanics become information-free, each in its own way:
        // Flush+Reload reloads can never hit victim lines (empty set),
        // while Prime+Probe self-thrashes — 16 prime lines in 8 attacker
        // ways — so every set always reports "touched" (saturated set).
        // Either way the observation is independent of the plaintext.
        let partition = cache_sim::WayPartition::even_split(16);
        for strategy in [ProbeStrategy::FlushReload, ProbeStrategy::PrimeProbe] {
            let cfg = ObservationConfig {
                cache: CacheConfig::grinch_default().with_partition(partition),
                strategy,
                ..ObservationConfig::ideal()
            };
            let mut all_lines = ObservedLines::for_config(&cfg);
            for line in cfg.probe_line_addrs() {
                all_lines.insert(line);
            }
            let mut oracle = VictimOracle::new(key(), cfg);
            for pt in [0u64, 0x0123_4567_89ab_cdef, u64::MAX] {
                let observed = oracle.observe(pt);
                match strategy {
                    ProbeStrategy::FlushReload => {
                        assert!(observed.is_empty(), "reload hit a victim line")
                    }
                    ProbeStrategy::PrimeProbe => {
                        assert_eq!(observed, all_lines, "probe must saturate")
                    }
                }
            }
        }
    }

    #[test]
    fn aggressive_rekeying_injects_false_absences() {
        // With an epoch far shorter than one observation's access count,
        // rekey invalidations hit mid-encryption and the reload phase sees
        // strictly fewer lines than the undefended oracle.
        let pt = 0x0123_4567_89ab_cdef;
        let clean = VictimOracle::new(key(), ObservationConfig::ideal()).observe(pt);
        let cfg = ObservationConfig {
            cache: CacheConfig::grinch_default().with_mapping(
                cache_sim::IndexMapping::KeyedRemap {
                    key: 0x5eed,
                    epoch_accesses: 16,
                },
            ),
            ..ObservationConfig::ideal()
        };
        let defended = VictimOracle::new(key(), cfg).observe(pt);
        assert!(
            defended.len() < clean.len(),
            "rekeying every 16 accesses must drop lines ({} vs {})",
            defended.len(),
            clean.len()
        );
    }

    #[test]
    fn static_keyed_remap_leaves_flush_reload_intact() {
        // Flush+Reload works on addresses, not set indices: a permutation
        // without epochs changes placement but not observability.
        let pt = 0x0123_4567_89ab_cdef;
        let clean = VictimOracle::new(key(), ObservationConfig::ideal()).observe(pt);
        let cfg = ObservationConfig {
            cache: CacheConfig::grinch_default().with_mapping(
                cache_sim::IndexMapping::KeyedRemap {
                    key: 0x5eed,
                    epoch_accesses: 0,
                },
            ),
            ..ObservationConfig::ideal()
        };
        let defended = VictimOracle::new(key(), cfg).observe(pt);
        assert_eq!(defended, clean);
    }

    #[test]
    fn flush_reload_leaves_no_monitored_line_in_attacker_ways() {
        // Why an observation needs no flush phase of its own: after every
        // Flush+Reload observation (and every known pair), flushing the
        // monitored lines from the attacker domain finds nothing — under
        // every arena defense, for every victim variant, with and without
        // the mid-encryption flush, across stage rounds. Where the flushed
        // prefix is selected (the flush on the undefended or statically
        // remapped cache), the cache holds no line at all, which is what
        // its count rests on.
        let variants = [
            VictimVariant::Table,
            VictimVariant::WideLine,
            VictimVariant::MaskedSchedule,
            VictimVariant::FullScan,
            VictimVariant::Preload,
        ];
        for (defense, cache) in arena_defenses() {
            for variant in variants {
                for flush in [true, false] {
                    let cfg = ObservationConfig {
                        cache,
                        variant,
                        flush_after_round1: flush,
                        ..ObservationConfig::ideal()
                    };
                    let label = format!("{defense} {variant:?} flush={flush}");
                    let mut oracle = VictimOracle::new(key(), cfg);
                    let selected = flush && matches!(defense, "baseline" | "static-remap");
                    assert_eq!(oracle.flushed_prefix, selected, "{label}");
                    let empty = |oracle: &VictimOracle, what: &str| {
                        if selected {
                            assert_eq!(oracle.cache.resident_lines(), 0, "{label} {what}");
                        }
                    };
                    let mut observed = ObservedLines::new();
                    for i in 0..24u64 {
                        let pt = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        oracle.observe_stage_into(pt, 1 + (i % 3) as usize, &mut observed);
                        empty(&oracle, &format!("observation {i}"));
                        if i % 5 == 0 {
                            oracle.known_pair(pt);
                            empty(&oracle, &format!("known pair {i}"));
                        }
                        let mut cache = oracle.cache.clone();
                        assert_eq!(
                            cache.flush_lines_from(&oracle.probe_addrs, Domain::Attacker),
                            0,
                            "{label} observation {i}"
                        );
                    }
                }
            }
        }
        // Permutation-table reads fall outside the monitored lines, so the
        // reload leaves them resident and the next observation does not
        // start from an empty cache: the rule refuses them.
        let perm_reads = ObservationConfig {
            layout: TableLayout::default().with_perm_reads(),
            ..ObservationConfig::ideal()
        };
        let mut oracle = VictimOracle::new(key(), perm_reads);
        assert!(!oracle.flushed_prefix, "permutation-table reads");
        oracle.observe(0x0123_4567_89ab_cdef);
        assert!(oracle.cache.resident_lines() > 0, "permutation lines stay");
        // Every policy qualifies; monitored lines that share a set do not,
        // and neither does Prime+Probe.
        let fr = |cache: CacheConfig| {
            VictimOracle::new(
                key(),
                ObservationConfig {
                    cache,
                    ..ObservationConfig::ideal()
                },
            )
            .flushed_prefix
        };
        for replacement in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let cache = CacheConfig {
                replacement,
                ..CacheConfig::grinch_default()
            };
            assert!(fr(cache), "{replacement:?}");
        }
        let shared_sets = CacheConfig {
            num_sets: 2,
            ways: 512,
            ..CacheConfig::grinch_default()
        };
        assert!(!fr(shared_sets), "monitored lines share sets");
        let pp = ObservationConfig {
            strategy: ProbeStrategy::PrimeProbe,
            ..ObservationConfig::ideal()
        };
        assert!(!VictimOracle::new(key(), pp).flushed_prefix, "Prime+Probe");
    }

    /// The four arena defenses over the default geometry.
    fn arena_defenses() -> [(&'static str, CacheConfig); 4] {
        let base = CacheConfig::grinch_default();
        let remap = |epoch_accesses| {
            base.with_mapping(cache_sim::IndexMapping::KeyedRemap {
                key: 0x5eed,
                epoch_accesses,
            })
        };
        [
            ("baseline", base),
            ("static-remap", remap(0)),
            ("rekey-64", remap(64)),
            (
                "partition",
                base.with_partition(cache_sim::WayPartition::even_split(base.ways)),
            ),
        ]
    }

    /// Prime+Probe with a flush, the reference the flush-free oracle must
    /// match: prime, run the victim (flush and re-prime at the stage
    /// boundary), probe, then flush the attacker's ways. Primes and probes
    /// read each group with the per-access `access_batch_from`, so the
    /// oracle's whole-set path is checked against it.
    fn observe_flush_then_prime(
        oracle: &mut VictimOracle,
        plaintext: u64,
        stage_round: usize,
    ) -> ObservedLines {
        fn prime_per_access(oracle: &mut VictimOracle) {
            for group in &oracle.prime_groups {
                oracle
                    .cache
                    .access_batch_from(group.addrs(), Domain::Attacker, |_, _| {});
            }
        }
        let mut out = oracle.empty_lines;
        let rounds = (stage_round + oracle.config.probing_round).min(GIFT64_ROUNDS);
        prime_per_access(oracle);
        let mut state = plaintext;
        let mut addrs = Vec::new();
        for round in 0..rounds {
            if oracle.config.flush_after_round1 && round == stage_round {
                oracle.cache.flush_all_from(Domain::Attacker);
                prime_per_access(oracle);
            }
            addrs.clear();
            let mut obs = RoundAddrRecorder { addrs: &mut addrs };
            state = run_one_round(&oracle.cipher, state, round, &mut obs);
            oracle
                .cache
                .access_batch_from(&addrs, Domain::Victim, |_, _| {});
        }
        for (bit, group) in oracle.prime_groups.iter().enumerate() {
            let mut evicted = false;
            oracle
                .cache
                .access_batch_from(group.addrs(), Domain::Attacker, |_, o| {
                    evicted |= o.is_miss()
                });
            out.bits |= u64::from(evicted) << bit;
        }
        oracle.cache.flush_all_from(Domain::Attacker);
        out
    }

    /// Runs 3,000 Prime+Probe observations (1,000 plaintexts per stage,
    /// stages 1–3 interleaved) through a flush-free oracle with telemetry
    /// attached and through the flush-then-prime reference, handing each
    /// pair to `check`. Returns the flush-free oracle's telemetry.
    fn prime_probe_streams(
        cache: CacheConfig,
        flush: bool,
        mut check: impl FnMut(usize, ObservedLines, ObservedLines),
    ) -> grinch_telemetry::Telemetry {
        let cfg = ObservationConfig {
            cache,
            strategy: ProbeStrategy::PrimeProbe,
            flush_after_round1: flush,
            ..ObservationConfig::ideal()
        };
        let tel = grinch_telemetry::Telemetry::new();
        let mut oracle = VictimOracle::new(key(), cfg.clone());
        oracle.set_telemetry(tel.clone());
        let mut reference = VictimOracle::new(key(), cfg);
        let mut observed = ObservedLines::new();
        for i in 0..3_000u64 {
            let pt = cache_sim::splitmix64(i);
            let stage = 1 + (i % 3) as usize;
            oracle.observe_stage_into(pt, stage, &mut observed);
            let expected = observe_flush_then_prime(&mut reference, pt, stage);
            check(i as usize, observed, expected);
        }
        tel
    }

    #[test]
    fn flush_free_prime_probe_matches_flush_then_prime() {
        // Under LRU a line's residency depends only on the accesses to its
        // set range since its own last access. A probe re-reads every prime
        // line in prime order, so between a line's last access and its next
        // probe the same accesses happen with or without the flush, under
        // any fixed mapping — and under rekeying both sides saturate (see
        // `rekeying_and_partition_saturate_prime_probe`).
        for (defense, cache) in arena_defenses() {
            for flush in [true, false] {
                let tel = prime_probe_streams(cache, flush, |i, got, want| {
                    assert_eq!(got, want, "{defense} flush={flush} observation {i}");
                });
                assert_eq!(tel.counter("cache.l1.flushes"), 0, "{defense} {flush}");
                assert_eq!(tel.counter("cache.l1.full_flushes"), 0, "{defense} {flush}");
                assert!(tel.counter("cache.l1.misses") > 0, "priming was counted");
            }
        }
    }

    #[test]
    fn rekeying_and_partition_saturate_prime_probe() {
        // Rekey-64: between a prime line's last access and its probe come
        // the 255 other prime lines' accesses (the rest of the prime or the
        // previous probe, then the probe up to this line) plus the
        // victim's, more than one 64-access epoch. A rekey, which orphans
        // every line, always fires in between, so every probe misses.
        // Partition: 16 prime lines cycle through 8 attacker ways, so LRU
        // evicts each before it is re-read. Both sequences report all 16
        // lines on every observation: the channel is saturated, never
        // lying.
        for (defense, cache) in arena_defenses() {
            if !matches!(defense, "rekey-64" | "partition") {
                continue;
            }
            assert_eq!(ObservationConfig::ideal().probe_line_addrs().len(), 16);
            for flush in [true, false] {
                prime_probe_streams(cache, flush, |i, got, want| {
                    assert_eq!(got.len(), 16, "{defense} flush={flush} observation {i}");
                    assert_eq!(want.len(), 16, "{defense} flush={flush} reference {i}");
                });
            }
        }
    }

    #[test]
    fn closed_form_is_selected_only_on_static_whole_set_caches() {
        let pp = |cache: CacheConfig| ObservationConfig {
            cache,
            strategy: ProbeStrategy::PrimeProbe,
            ..ObservationConfig::ideal()
        };
        let selected = |cfg: ObservationConfig| VictimOracle::new(key(), cfg).closed_form;
        for (defense, cache) in arena_defenses() {
            let expected = matches!(defense, "baseline" | "static-remap");
            assert_eq!(selected(pp(cache)), expected, "{defense}");
            let policy = |replacement| CacheConfig {
                replacement,
                ..cache
            };
            assert_eq!(
                selected(pp(policy(ReplacementPolicy::Fifo))),
                expected,
                "{defense} FIFO"
            );
            assert!(
                !selected(pp(policy(ReplacementPolicy::Random))),
                "{defense} Random"
            );
            let fr = ObservationConfig {
                cache,
                ..ObservationConfig::ideal()
            };
            assert!(!selected(fr), "{defense} Flush+Reload");
        }
        let perm_reads = ObservationConfig {
            layout: TableLayout::default().with_perm_reads(),
            ..pp(CacheConfig::grinch_default())
        };
        assert!(!selected(perm_reads), "permutation-table reads");
        // Two sets: monitored lines 0..16 of a one-word-line cache share
        // them, eight to a set.
        let shared_sets = CacheConfig {
            num_sets: 2,
            ways: 512,
            ..CacheConfig::grinch_default()
        };
        assert!(!selected(pp(shared_sets)), "monitored lines share sets");
    }

    #[test]
    fn closed_form_prime_probe_matches_the_replay() {
        // The closed form against the per-access replay, on the same
        // plaintexts: identical observations, cache statistics and
        // telemetry JSONL after every stage-1–4 observation (interleaved),
        // over every victim, line width, table alignment, probing round,
        // flush choice, LRU and FIFO, and both static mappings.
        let grid = static_cache_grid(
            ProbeStrategy::PrimeProbe,
            &[true, false],
            &[ReplacementPolicy::Lru, ReplacementPolicy::Fifo],
        );
        assert_eq!(grid.len(), 1_920);
        for cfg in grid {
            shortcut_matches_replay(cfg, |oracle| &mut oracle.closed_form);
        }
    }

    #[test]
    fn flushed_prefix_matches_the_replay() {
        // The counted prefix against the replayed one, on the same
        // plaintexts and with the same checks, over every victim, line
        // width, table alignment, probing round, LRU, FIFO and `Random`,
        // and both static mappings, all with the flush.
        let grid = static_cache_grid(
            ProbeStrategy::FlushReload,
            &[true],
            &[
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
                ReplacementPolicy::Random,
            ],
        );
        assert_eq!(grid.len(), 1_440);
        for cfg in grid {
            shortcut_matches_replay(cfg, |oracle| &mut oracle.flushed_prefix);
        }
    }

    /// Every victim, 1-, 2-, 4- and 8-word lines, tables at `0x400`,
    /// `0x401` and `0x403`, and probing rounds 1, 2, 5 and 8, under each
    /// flush choice of `flushes`, each policy of `policies`, and `Modulo`
    /// and a static remap, probed by `strategy`.
    fn static_cache_grid(
        strategy: ProbeStrategy,
        flushes: &[bool],
        policies: &[ReplacementPolicy],
    ) -> Vec<ObservationConfig> {
        let variants = [
            VictimVariant::Table,
            VictimVariant::WideLine,
            VictimVariant::MaskedSchedule,
            VictimVariant::FullScan,
            VictimVariant::Preload,
        ];
        let remap = cache_sim::IndexMapping::KeyedRemap {
            key: 0x5eed,
            epoch_accesses: 0,
        };
        let mut grid = Vec::new();
        for variant in variants {
            for words in [1, 2, 4, 8] {
                for sbox_base in [0x400, 0x401, 0x403] {
                    for probing_round in [1, 2, 5, 8] {
                        for &flush in flushes {
                            for &replacement in policies {
                                for mapping in [IndexMapping::Modulo, remap] {
                                    let cache = CacheConfig {
                                        replacement,
                                        ..CacheConfig::grinch_default()
                                    };
                                    grid.push(ObservationConfig {
                                        cache: cache
                                            .with_words_per_line(words)
                                            .with_mapping(mapping),
                                        layout: TableLayout::new(sbox_base),
                                        probing_round,
                                        flush_after_round1: flush,
                                        strategy,
                                        variant,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        grid
    }

    /// Runs 12 observations (stages 1–4 interleaved, a known pair after
    /// every third) through an oracle that takes the shortcut `flag`
    /// selects and one forced through the replay by clearing it, asserting
    /// after each that they agree.
    fn shortcut_matches_replay(cfg: ObservationConfig, flag: fn(&mut VictimOracle) -> &mut bool) {
        let label = format!(
            "{:?} {:?} {}B lines {:#x} round {} flush={} {:?} {}",
            cfg.strategy,
            cfg.variant,
            cfg.cache.line_bytes,
            cfg.layout.sbox_base,
            cfg.probing_round,
            cfg.flush_after_round1,
            cfg.cache.replacement,
            cfg.cache.mapping.name()
        );
        let oracle = |shortcut: bool| {
            let mut oracle = VictimOracle::new(key(), cfg.clone());
            assert!(*flag(&mut oracle), "{label}: shortcut not selected");
            *flag(&mut oracle) = shortcut;
            oracle.set_telemetry(grinch_telemetry::Telemetry::new());
            oracle
        };
        let (mut counted, mut replay) = (oracle(true), oracle(false));
        for i in 0..12u64 {
            let pt = cache_sim::splitmix64(i ^ cfg.layout.sbox_base);
            let stage = 1 + (i % 4) as usize;
            assert_eq!(
                counted.observe_stage(pt, stage),
                replay.observe_stage(pt, stage),
                "{label}: observation {i}"
            );
            if i % 3 == 2 {
                assert_eq!(counted.known_pair(pt), replay.known_pair(pt));
            }
            assert_eq!(
                counted.cache.stats(),
                replay.cache.stats(),
                "{label}: stats after {i}"
            );
            assert_eq!(
                counted.telemetry.to_jsonl(),
                replay.telemetry.to_jsonl(),
                "{label}: telemetry after {i}"
            );
        }
    }

    #[test]
    fn installed_noise_channel_filters_observations() {
        let pt = 0x0123_4567_89ab_cdef;
        let clean = VictimOracle::new(key(), ObservationConfig::ideal()).observe(pt);
        let mut noisy_oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        noisy_oracle.set_noise(Some(crate::noise::NoiseChannel::new(1.0, 9)));
        assert!(noisy_oracle.observe(pt).is_empty(), "p=1 drops everything");
        noisy_oracle.set_noise(None);
        assert_eq!(noisy_oracle.observe(pt), clean, "removal restores clarity");
    }

    #[test]
    fn hypothesis_consistency_matches_truth() {
        let mut oracle = VictimOracle::new(key(), ObservationConfig::ideal());
        let spec = TargetSpec::new(1, 6);
        let rk = Gift64::new(key()).round_keys()[0];
        let v = (rk.v >> 6) & 1 == 1;
        let u = (rk.u >> 6) & 1 == 1;
        let mut rng = rand::rngs::mock::StepRng::new(0x12345, 0x9e3779b97f4a7c15);
        let pt = crate::craft::craft_plaintext(&[spec], &[], &mut rng).unwrap();
        let observed = oracle.observe(pt);
        assert!(oracle.hypothesis_consistent(&spec, &observed, v, u));
    }
}
