//! Experiment drivers regenerating every figure and table of the paper.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Fig. 3 — encryptions to break the 1st round vs probing round, with/without flush | [`probing_round::run`] |
//! | Table I — encryptions vs cache line size × probing round | [`line_size::run`] |
//! | Table II — first probe-able round vs platform × clock | [`practical::run`] |
//! | §IV-C countermeasures (ablation) | [`countermeasures::run`] |
//! | Memory hierarchy (the paper's future work) — flat L1 vs private L1 + shared L2 | [`hierarchy::run`] |
//! | §IV-B.1 noise remark — effort and reliability vs probe noise | [`noise::run`] |
//! | §II GIFT vs PRESENT — key bits leaked per encryption | [`present_compare::run`] |
//!
//! Each driver returns plain data rows so the `grinch-bench` binaries can
//! print them in the paper's format and the Criterion benches can time them.
//! Every `run`, and every per-cell `measure`/`measure_cell` beside it, takes
//! a [`grinch_telemetry::Telemetry`] as its last argument: it wraps its work
//! in `experiment.*` spans and publishes the oracle's metrics there.
//! `Telemetry::disabled()` records nothing and leaves the rows unchanged.

pub mod countermeasures;
pub mod hierarchy;
pub mod line_size;
pub mod noise;
pub mod practical;
pub mod present_compare;
pub mod probing_round;

/// Measurement outcome for a first-round (32-bit) recovery experiment cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellResult {
    /// The 32 bits were recovered with this many encryptions.
    Recovered(u64),
    /// The encryption cap was hit first (the paper prints ">1M").
    DropOut(u64),
}

impl CellResult {
    /// Encryptions spent, whether or not recovery succeeded.
    pub fn encryptions(&self) -> u64 {
        match *self {
            Self::Recovered(n) | Self::DropOut(n) => n,
        }
    }

    /// Whether the cell recovered the round key.
    pub fn is_recovered(&self) -> bool {
        matches!(self, Self::Recovered(_))
    }
}

impl core::fmt::Display for CellResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Recovered(n) => write!(f, "{n}"),
            Self::DropOut(cap) => write!(f, ">{cap}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    /// One experiment on a reduced config, its rows rendered with `Debug`.
    type Experiment = fn(Telemetry) -> String;

    #[test]
    fn telemetry_leaves_every_experiments_rows_unchanged() {
        let experiments: [(&str, Experiment); 7] = [
            ("probing_round", |t| {
                let config = probing_round::Fig3Config {
                    max_probing_round: 2,
                    max_encryptions: 20_000,
                    ..Default::default()
                };
                format!("{:?}", probing_round::run(&config, t))
            }),
            ("line_size", |t| {
                let config = line_size::Table1Config {
                    line_sizes: vec![1, 2],
                    probing_rounds: vec![1],
                    max_encryptions: 60_000,
                    ..Default::default()
                };
                format!("{:?}", line_size::run(&config, t))
            }),
            ("practical", |t| format!("{:?}", practical::run(t))),
            ("countermeasures", |t| {
                let config = countermeasures::AblationConfig {
                    max_encryptions_per_stage: 500,
                    ..Default::default()
                };
                format!("{:?}", countermeasures::run(&config, t))
            }),
            ("hierarchy", |t| {
                let key = gift_cipher::Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
                format!("{:?}", hierarchy::run(key, 20_000, t))
            }),
            ("noise", |t| {
                let config = noise::NoiseConfig {
                    max_encryptions: 50_000,
                    ..Default::default()
                };
                format!("{:?}", noise::run(&config, t))
            }),
            ("present_compare", |t| {
                format!("{:?}", present_compare::run(42, t))
            }),
        ];
        for (name, experiment) in experiments {
            let telemetry = Telemetry::new();
            let traced = experiment(telemetry.clone());
            assert_eq!(traced, experiment(Telemetry::disabled()), "{name}");
            let snapshot = telemetry.snapshot();
            assert!(
                snapshot
                    .spans
                    .iter()
                    .any(|span| span.parent.is_none() && span.name.starts_with("experiment.")),
                "{name} opens an experiment root span"
            );
            assert!(!snapshot.counters.is_empty(), "{name} publishes counters");
        }
    }
}
