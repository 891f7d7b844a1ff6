//! Countermeasure ablation — evaluating the two protections §IV-C of the
//! paper proposes (the paper proposes them; this experiment measures them).

use crate::attack::{recover_full_key, AttackConfig};
use crate::oracle::{ObservationConfig, VictimOracle, VictimVariant};
use cache_sim::CacheConfig;
use gift_cipher::{Key, TableLayout};

/// Which configuration an ablation row evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protection {
    /// The unprotected lookup-table implementation.
    None,
    /// Countermeasure 1 (paper §IV-C): 8×8-bit S-box in one 8-byte line.
    WideLineSbox,
    /// Countermeasure 2 (paper §IV-C): masked `UpdateKey` for the first
    /// four rounds.
    MaskedKeySchedule,
    /// Both paper countermeasures combined (defence in depth).
    Both,
    /// Classic mitigation: constant-address full-table scan per lookup.
    FullScan,
    /// Classic mitigation: preload the whole table every round.
    Preload,
}

impl core::fmt::Display for Protection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let name = match self {
            Self::None => "none",
            Self::WideLineSbox => "wide-line S-box",
            Self::MaskedKeySchedule => "masked key schedule",
            Self::Both => "wide-line + masked",
            Self::FullScan => "full-table scan",
            Self::Preload => "per-round preload",
        };
        f.write_str(name)
    }
}

/// One ablation row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AblationRow {
    /// Protection under evaluation.
    pub protection: Protection,
    /// Whether the attack recovered the key.
    pub key_recovered: bool,
    /// Encryptions the attack consumed before succeeding or giving up.
    pub encryptions: u64,
}

/// Parameters of the ablation.
#[derive(Clone, Copy, Debug)]
pub struct AblationConfig {
    /// Secret key under attack.
    pub key: Key,
    /// Encryption cap per stage for the (hopeless) protected runs.
    pub max_encryptions_per_stage: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            key: Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0),
            max_encryptions_per_stage: 20_000,
        }
    }
}

fn observation_for(protection: Protection) -> ObservationConfig {
    match protection {
        Protection::None => ObservationConfig::ideal(),
        // The paper pairs the reshaped S-box with an 8-byte, line-aligned
        // placement so the whole table shares one line.
        Protection::WideLineSbox => ObservationConfig {
            layout: TableLayout::new(0x400),
            cache: CacheConfig::grinch_default().with_words_per_line(8),
            variant: VictimVariant::WideLine,
            ..ObservationConfig::ideal()
        },
        Protection::MaskedKeySchedule => ObservationConfig {
            variant: VictimVariant::MaskedSchedule,
            ..ObservationConfig::ideal()
        },
        Protection::Both => ObservationConfig {
            layout: TableLayout::new(0x400),
            cache: CacheConfig::grinch_default().with_words_per_line(8),
            variant: VictimVariant::WideLine,
            ..ObservationConfig::ideal()
        },
        Protection::FullScan => ObservationConfig {
            variant: VictimVariant::FullScan,
            ..ObservationConfig::ideal()
        },
        Protection::Preload => ObservationConfig {
            variant: VictimVariant::Preload,
            ..ObservationConfig::ideal()
        },
    }
}

/// Evaluates one protection configuration, wrapped in an
/// `experiment.ablation.cell` span with the attack's metrics published
/// into `telemetry`.
pub fn measure(
    config: &AblationConfig,
    protection: Protection,
    telemetry: grinch_telemetry::Telemetry,
) -> AblationRow {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.ablation.cell",
        protection = protection.to_string()
    );
    let mut oracle = VictimOracle::new(config.key, observation_for(protection));
    oracle.set_telemetry(telemetry);
    let mut attack = AttackConfig::new();
    attack.stage = attack
        .stage
        .with_max_encryptions(config.max_encryptions_per_stage);
    attack.max_candidates_per_stage = 64;
    let outcome = recover_full_key(&mut oracle, &attack);
    AblationRow {
        protection,
        key_recovered: outcome.key == Some(config.key),
        encryptions: outcome.encryptions,
    }
}

/// Runs the full ablation, every row's span nested under an
/// `experiment.ablation` root span.
pub fn run(config: &AblationConfig, telemetry: grinch_telemetry::Telemetry) -> Vec<AblationRow> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.ablation");
    [
        Protection::None,
        Protection::WideLineSbox,
        Protection::MaskedKeySchedule,
        Protection::Both,
        Protection::FullScan,
        Protection::Preload,
    ]
    .into_iter()
    .map(|p| measure(config, p, telemetry.clone()))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    #[test]
    fn unprotected_recovers_but_protected_do_not() {
        let cfg = AblationConfig {
            max_encryptions_per_stage: 3_000,
            ..AblationConfig::default()
        };
        let baseline = measure(&cfg, Protection::None, Telemetry::disabled());
        assert!(baseline.key_recovered);
        let wide = measure(&cfg, Protection::WideLineSbox, Telemetry::disabled());
        assert!(!wide.key_recovered);
        let masked = measure(&cfg, Protection::MaskedKeySchedule, Telemetry::disabled());
        assert!(!masked.key_recovered);
    }

    #[test]
    fn ablation_reports_all_rows() {
        let cfg = AblationConfig {
            max_encryptions_per_stage: 500,
            ..AblationConfig::default()
        };
        let rows = run(&cfg, Telemetry::disabled());
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.encryptions > 0));
    }

    #[test]
    fn classic_software_mitigations_also_block_recovery() {
        let cfg = AblationConfig {
            max_encryptions_per_stage: 2_000,
            ..AblationConfig::default()
        };
        let scan = measure(&cfg, Protection::FullScan, Telemetry::disabled());
        assert!(!scan.key_recovered, "constant address stream leaks nothing");
        let preload = measure(&cfg, Protection::Preload, Telemetry::disabled());
        assert!(
            !preload.key_recovered,
            "always-resident lines carry no absence information"
        );
    }
}
