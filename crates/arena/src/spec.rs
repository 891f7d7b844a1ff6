//! The three sweep axes — defense, attack mechanic, noise level — and the
//! campaign configuration tying them together.
//!
//! A campaign is a dense 3-D grid: every defense is evaluated against every
//! attack variant at every noise level. Cells are numbered row-major
//! (defense outermost, noise innermost) and each cell derives its own seed
//! from the campaign seed by a splitmix64 chain, so a cell's Monte-Carlo
//! trials are reproducible in isolation and independent of which worker
//! thread happens to execute them.

use cache_sim::{splitmix64, CacheConfig, IndexMapping, WayPartition};
use grinch::oracle::ProbeStrategy;
use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};

/// Schema tag of the canonical config-identity document
/// ([`CampaignConfig::config_json`]).
pub const CONFIG_SCHEMA: &str = "grinch-campaign-config/v1";

/// A cache defense the arena equips the victim platform with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DefenseSpec {
    /// Undefended classical modulo indexing — the paper's platform.
    Baseline,
    /// CEASER-style keyed set-index permutation, never rekeyed. Randomizes
    /// *where* lines live but keeps the mapping stable, so address-based
    /// probes (Flush+Reload) are expected to go straight through it.
    StaticRemap,
    /// Keyed permutation rekeyed every `epoch_accesses` cache accesses;
    /// each rekey orphans the whole cache contents, injecting false
    /// absences into the attacker's observations.
    RekeyedRemap {
        /// Accesses per epoch (the rekey period).
        epoch_accesses: u64,
    },
    /// DAWG-style static way partitioning: victim and attacker fills are
    /// confined to disjoint way ranges of every set.
    WayPartition,
}

impl DefenseSpec {
    /// Stable name used in JSON, heatmap labels and the CLI.
    pub fn name(&self) -> String {
        match self {
            DefenseSpec::Baseline => "baseline".to_string(),
            DefenseSpec::StaticRemap => "static-remap".to_string(),
            DefenseSpec::RekeyedRemap { epoch_accesses } => format!("rekey-{epoch_accesses}"),
            DefenseSpec::WayPartition => "partition".to_string(),
        }
    }

    /// Inverse of [`DefenseSpec::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "baseline" => Some(DefenseSpec::Baseline),
            "static-remap" => Some(DefenseSpec::StaticRemap),
            "partition" => Some(DefenseSpec::WayPartition),
            other => {
                let n = other.strip_prefix("rekey-")?.parse().ok()?;
                Some(DefenseSpec::RekeyedRemap { epoch_accesses: n })
            }
        }
    }

    /// Equips `cache` with this defense. `key` seeds the keyed permutation
    /// (ignored by the unkeyed defenses); the arena draws a fresh key per
    /// trial so results average over remap keys, not one lucky draw.
    pub fn apply(&self, mut cache: CacheConfig, key: u64) -> CacheConfig {
        match *self {
            DefenseSpec::Baseline => {}
            DefenseSpec::StaticRemap => {
                cache.mapping = IndexMapping::KeyedRemap {
                    key,
                    epoch_accesses: 0,
                };
            }
            DefenseSpec::RekeyedRemap { epoch_accesses } => {
                cache.mapping = IndexMapping::KeyedRemap {
                    key,
                    epoch_accesses,
                };
            }
            DefenseSpec::WayPartition => {
                cache.partition = Some(WayPartition::even_split(cache.ways));
            }
        }
        cache
    }
}

/// Which probe mechanic the swept attacker uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackSpec {
    /// Flush the monitored lines, reload and time them.
    FlushReload,
    /// Fill the monitored sets and detect evictions.
    PrimeProbe,
}

impl AttackSpec {
    /// Stable name used in JSON, heatmap labels and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::FlushReload => "flush-reload",
            AttackSpec::PrimeProbe => "prime-probe",
        }
    }

    /// Inverse of [`AttackSpec::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flush-reload" => Some(AttackSpec::FlushReload),
            "prime-probe" => Some(AttackSpec::PrimeProbe),
            _ => None,
        }
    }

    /// The oracle-level probe strategy this variant drives.
    pub fn strategy(&self) -> ProbeStrategy {
        match self {
            AttackSpec::FlushReload => ProbeStrategy::FlushReload,
            AttackSpec::PrimeProbe => ProbeStrategy::PrimeProbe,
        }
    }
}

/// Full description of one sweep campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignConfig {
    /// Defense axis (matrix rows).
    pub defenses: Vec<DefenseSpec>,
    /// Attack axis (matrix column groups).
    pub attacks: Vec<AttackSpec>,
    /// False-absence probabilities applied to the attacker's observations
    /// (matrix columns within a group); `0.0` is the noiseless channel.
    pub noise_levels: Vec<f64>,
    /// Monte-Carlo trials per cell, each with a fresh random key.
    pub trials: usize,
    /// Campaign seed; every cell and trial seed derives from it.
    pub seed: u64,
    /// Per-stage encryption cap for each recovery attempt (bounds the
    /// hopeless cells — a defended attacker otherwise burns the paper's
    /// full 1 M-encryption budget per trial).
    pub max_stage_encryptions: u64,
    /// Worker threads; results are byte-identical for any value ≥ 1.
    pub jobs: usize,
}

impl CampaignConfig {
    /// The CI smoke matrix: 2 defenses × 2 attacks × 1 noise level at low
    /// trial count — small enough for a test job, large enough to show the
    /// baseline succeeding and a defense driving success to zero.
    pub fn smoke() -> Self {
        Self {
            defenses: vec![DefenseSpec::Baseline, DefenseSpec::WayPartition],
            attacks: vec![AttackSpec::FlushReload, AttackSpec::PrimeProbe],
            noise_levels: vec![0.0],
            trials: 2,
            seed: 0x61_5245_4e41, // "aRENA"
            max_stage_encryptions: 2_500,
            jobs: 4,
        }
    }

    /// The full evaluation matrix: all four defenses, both mechanics,
    /// noiseless and noisy channels.
    pub fn full() -> Self {
        Self {
            defenses: vec![
                DefenseSpec::Baseline,
                DefenseSpec::StaticRemap,
                DefenseSpec::RekeyedRemap { epoch_accesses: 64 },
                DefenseSpec::WayPartition,
            ],
            attacks: vec![AttackSpec::FlushReload, AttackSpec::PrimeProbe],
            noise_levels: vec![0.0, 0.05],
            trials: 8,
            max_stage_encryptions: 20_000,
            ..Self::smoke()
        }
    }

    /// Rejects empty axes and degenerate budgets.
    pub fn validate(&self) -> Result<(), String> {
        if self.defenses.is_empty() || self.attacks.is_empty() || self.noise_levels.is_empty() {
            return Err("campaign axes must be non-empty".to_string());
        }
        if self.trials == 0 {
            return Err("campaign needs at least one trial per cell".to_string());
        }
        if self.max_stage_encryptions == 0 {
            return Err("per-stage encryption cap must be positive".to_string());
        }
        if let Some(p) = self
            .noise_levels
            .iter()
            .find(|p| !p.is_finite() || !(0.0..=1.0).contains(*p))
        {
            return Err(format!("noise level {p} outside [0, 1]"));
        }
        Ok(())
    }

    /// Number of cells in the sweep grid.
    pub fn num_cells(&self) -> usize {
        self.defenses.len() * self.attacks.len() * self.noise_levels.len()
    }

    /// Row-major cell numbering: defense outermost, noise innermost.
    pub fn cell_index(&self, defense: usize, attack: usize, noise: usize) -> usize {
        (defense * self.attacks.len() + attack) * self.noise_levels.len() + noise
    }

    /// Inverse of [`CampaignConfig::cell_index`].
    pub fn cell_coords(&self, index: usize) -> (usize, usize, usize) {
        let noise = index % self.noise_levels.len();
        let rest = index / self.noise_levels.len();
        (rest / self.attacks.len(), rest % self.attacks.len(), noise)
    }

    /// The cell's private seed: a splitmix64 chain off the campaign seed,
    /// a function of the cell *index* only — never of scheduling order —
    /// so the matrix is byte-identical for any worker count.
    pub fn cell_seed(&self, index: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(index as u64 + 1))
    }

    /// Which of `num_shards` shards owns cell `index`.
    ///
    /// Keyed off [`CampaignConfig::cell_seed`] — the same derivation chain
    /// that already pins per-cell determinism — so the assignment is a pure
    /// function of `(config identity, index, num_shards)`: stable across
    /// machines, workers and restarts, and decorrelated from the row-major
    /// grid layout (neighbouring cells, which tend to cost similar time,
    /// spread across shards instead of clumping into one).
    pub fn shard_of(&self, index: usize, num_shards: usize) -> usize {
        (self.cell_seed(index) % num_shards.max(1) as u64) as usize
    }

    /// Serializes the sweep *identity* — every field that determines
    /// results — as one canonical single-line JSON object.
    ///
    /// The execution knob `jobs` is deliberately excluded: the matrix is
    /// byte-identical for any worker count, so two configs differing only
    /// in `jobs` share an identity (and hence a campaign fingerprint and
    /// journal).
    pub fn config_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("schema", CONFIG_SCHEMA)
            .arr("defenses", Layout::Compact, |a| {
                self.defenses.iter().for_each(|d| a.str(&d.name()));
            })
            .arr("attacks", Layout::Compact, |a| {
                self.attacks.iter().for_each(|at| a.str(at.name()));
            })
            .arr("noise_levels", Layout::Compact, |a| {
                self.noise_levels.iter().for_each(|p| a.f64(*p));
            })
            .u64("trials", self.trials as u64)
            .u64("seed", self.seed)
            .u64("max_stage_encryptions", self.max_stage_encryptions);
        w.finish()
    }

    /// Inverse of [`CampaignConfig::config_json`]. The returned config has
    /// `jobs = 1` (an execution knob, not part of the identity); callers
    /// pick their own worker count.
    pub fn from_config_json(text: &str) -> Result<Self, String> {
        let doc = parse(text).ok_or("campaign config: invalid JSON")?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("campaign config: missing schema")?;
        if schema != CONFIG_SCHEMA {
            return Err(format!(
                "campaign config: schema {schema:?}, expected {CONFIG_SCHEMA:?}"
            ));
        }
        let str_list = |k: &str| -> Result<Vec<String>, String> {
            match doc.get(k) {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("campaign config: non-string entry in {k:?}"))
                    })
                    .collect(),
                _ => Err(format!("campaign config: missing array field {k:?}")),
            }
        };
        let defenses = str_list("defenses")?
            .iter()
            .map(|s| {
                DefenseSpec::parse(s)
                    .ok_or_else(|| format!("campaign config: unknown defense {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let attacks = str_list("attacks")?
            .iter()
            .map(|s| {
                AttackSpec::parse(s).ok_or_else(|| format!("campaign config: unknown attack {s:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let noise_levels = match doc.get("noise_levels") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| v.as_f64().ok_or("campaign config: non-numeric noise level"))
                .collect::<Result<Vec<f64>, _>>()?,
            _ => return Err("campaign config: missing array field \"noise_levels\"".to_string()),
        };
        let u64_field = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("campaign config: missing integer field {k:?}"))
        };
        let config = Self {
            defenses,
            attacks,
            noise_levels,
            trials: u64_field("trials")? as usize,
            seed: u64_field("seed")?,
            max_stage_encryptions: u64_field("max_stage_encryptions")?,
            jobs: 1,
        };
        config.validate()?;
        Ok(config)
    }

    /// Stable 16-hex-digit fingerprint of the sweep identity
    /// ([`CampaignConfig::config_json`]): the campaign id that names
    /// journals and keys the serve-mode registry. Two configs fingerprint
    /// equal iff they produce byte-identical matrices.
    pub fn fingerprint(&self) -> String {
        grinch_obs::history::fingerprint(&[&self.config_json()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_names_round_trip() {
        let all = [
            DefenseSpec::Baseline,
            DefenseSpec::StaticRemap,
            DefenseSpec::RekeyedRemap { epoch_accesses: 64 },
            DefenseSpec::WayPartition,
        ];
        for d in all {
            assert_eq!(DefenseSpec::parse(&d.name()), Some(d));
        }
        assert_eq!(DefenseSpec::parse("rekey-not-a-number"), None);
        assert_eq!(DefenseSpec::parse("moat"), None);
    }

    #[test]
    fn attack_names_round_trip() {
        for a in [AttackSpec::FlushReload, AttackSpec::PrimeProbe] {
            assert_eq!(AttackSpec::parse(a.name()), Some(a));
        }
        assert_eq!(AttackSpec::parse("evict-time"), None);
    }

    #[test]
    fn defenses_set_the_expected_cache_knobs() {
        let base = CacheConfig::grinch_default();
        assert_eq!(DefenseSpec::Baseline.apply(base, 1), base);
        let remap = DefenseSpec::StaticRemap.apply(base, 7);
        assert_eq!(
            remap.mapping,
            IndexMapping::KeyedRemap {
                key: 7,
                epoch_accesses: 0
            }
        );
        let part = DefenseSpec::WayPartition.apply(base, 0);
        assert_eq!(part.partition, Some(WayPartition::even_split(base.ways)));
        assert!(part.validate().is_ok(), "partitioned default must validate");
    }

    #[test]
    fn cell_numbering_is_a_bijection() {
        let cfg = CampaignConfig::full();
        for idx in 0..cfg.num_cells() {
            let (d, a, n) = cfg.cell_coords(idx);
            assert_eq!(cfg.cell_index(d, a, n), idx);
        }
        // Distinct cells draw distinct seeds.
        let seeds: std::collections::HashSet<u64> =
            (0..cfg.num_cells()).map(|i| cfg.cell_seed(i)).collect();
        assert_eq!(seeds.len(), cfg.num_cells());
    }

    #[test]
    fn config_json_round_trips_and_excludes_jobs() {
        for cfg in [CampaignConfig::smoke(), CampaignConfig::full()] {
            let json = cfg.config_json();
            let back = CampaignConfig::from_config_json(&json).expect("parses");
            assert_eq!(back.defenses, cfg.defenses);
            assert_eq!(back.attacks, cfg.attacks);
            assert_eq!(back.noise_levels, cfg.noise_levels);
            assert_eq!(back.trials, cfg.trials);
            assert_eq!(back.seed, cfg.seed);
            assert_eq!(back.max_stage_encryptions, cfg.max_stage_encryptions);
            assert_eq!(back.config_json(), json, "re-serialization is byte-stable");
        }
        // jobs is an execution knob: it must not perturb the identity.
        let mut a = CampaignConfig::smoke();
        let mut b = CampaignConfig::smoke();
        (a.jobs, b.jobs) = (1, 16);
        assert_eq!(a.config_json(), b.config_json());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn from_config_json_rejects_foreign_documents() {
        assert!(CampaignConfig::from_config_json("{}").is_err());
        assert!(CampaignConfig::from_config_json("not json").is_err());
        let alien = CampaignConfig::smoke()
            .config_json()
            .replace("grinch-campaign-config/v1", "grinch-campaign-config/v9");
        assert!(CampaignConfig::from_config_json(&alien).is_err());
    }

    #[test]
    fn fingerprint_separates_distinct_identities() {
        let smoke = CampaignConfig::smoke();
        let mut reseeded = smoke.clone();
        reseeded.seed ^= 1;
        assert_ne!(smoke.fingerprint(), reseeded.fingerprint());
        assert_ne!(smoke.fingerprint(), CampaignConfig::full().fingerprint());
        assert_eq!(smoke.fingerprint().len(), 16);
    }

    #[test]
    fn shard_assignment_is_stable_and_partitions_the_grid() {
        let cfg = CampaignConfig::full();
        for num_shards in [1usize, 2, 3, 4, 7] {
            let mut per_shard = vec![0usize; num_shards];
            for idx in 0..cfg.num_cells() {
                let s = cfg.shard_of(idx, num_shards);
                assert!(s < num_shards);
                assert_eq!(s, cfg.shard_of(idx, num_shards), "assignment is pure");
                per_shard[s] += 1;
            }
            assert_eq!(per_shard.iter().sum::<usize>(), cfg.num_cells());
        }
        // Keyed off the cell seed, not the index: a different campaign
        // seed shuffles the assignment.
        let mut reseeded = cfg.clone();
        reseeded.seed ^= 0xffff;
        let moved = (0..cfg.num_cells()).any(|i| cfg.shard_of(i, 4) != reseeded.shard_of(i, 4));
        assert!(moved, "shard keying must depend on the campaign seed");
        // Degenerate shard counts collapse to one shard.
        assert_eq!(cfg.shard_of(3, 0), 0);
    }

    #[test]
    fn validation_rejects_degenerate_campaigns() {
        let mut cfg = CampaignConfig::smoke();
        assert!(cfg.validate().is_ok());
        cfg.trials = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = CampaignConfig::smoke();
        cfg.noise_levels = vec![1.5];
        assert!(cfg.validate().is_err());
        let mut cfg = CampaignConfig::smoke();
        cfg.defenses.clear();
        assert!(cfg.validate().is_err());
    }
}
