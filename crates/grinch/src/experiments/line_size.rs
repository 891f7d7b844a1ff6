//! Table I — required encryptions to attack the first round, swept over
//! cache line size (1/2/4/8 words) and probing round (1..=5).

use crate::experiments::CellResult;
use crate::oracle::{ObservationConfig, VictimOracle};
use crate::stage::{run_stage, StageConfig};
use gift_cipher::Key;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One Table I cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table1Cell {
    /// Cache line size in 8-bit words.
    pub words_per_line: usize,
    /// Cache probing round (1-based).
    pub probing_round: usize,
    /// Measured effort.
    pub result: CellResult,
}

/// Parameters of the Table I sweep.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Line sizes swept (the paper uses 1, 2, 4, 8 words).
    pub line_sizes: Vec<usize>,
    /// Probing rounds swept (the paper uses 1..=5).
    pub probing_rounds: Vec<usize>,
    /// Encryption cap per cell (the paper drops out beyond 1 M).
    pub max_encryptions: u64,
    /// Secret key under attack.
    pub key: Key,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            line_sizes: vec![1, 2, 4, 8],
            probing_rounds: vec![1, 2, 3, 4, 5],
            max_encryptions: 1_000_000,
            key: Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0),
            seed: 0x7ab1e1,
        }
    }
}

/// Measures one Table I cell: stage-1 recovery with the given geometry,
/// wrapped in an `experiment.table1.cell` span with the oracle's metrics
/// published into `telemetry`. Flush is enabled, matching the paper's
/// Table I setup (its round-1 column reproduces Fig. 3's "with flush"
/// value).
pub fn measure_cell(
    config: &Table1Config,
    words_per_line: usize,
    probing_round: usize,
    telemetry: grinch_telemetry::Telemetry,
) -> CellResult {
    let _span = grinch_telemetry::span!(
        telemetry,
        "experiment.table1.cell",
        words_per_line = words_per_line,
        probing_round = probing_round
    );
    let obs = ObservationConfig::ideal()
        .with_words_per_line(words_per_line)
        .with_probing_round(probing_round);
    let mut oracle = VictimOracle::new(config.key, obs);
    oracle.set_telemetry(telemetry);
    let stage_cfg = StageConfig::new()
        .with_max_encryptions(config.max_encryptions)
        .with_seed(config.seed ^ ((words_per_line as u64) << 8) ^ probing_round as u64);
    let mut rng = StdRng::seed_from_u64(stage_cfg.seed);
    let result = run_stage(&mut oracle, &[], 1, &stage_cfg, &mut rng);
    if result.is_resolved() {
        CellResult::Recovered(result.encryptions)
    } else {
        CellResult::DropOut(result.encryptions)
    }
}

/// Runs the full Table I sweep in row-major order (line size, then probing
/// round), every cell's span nested under an `experiment.table1` root span.
pub fn run(config: &Table1Config, telemetry: grinch_telemetry::Telemetry) -> Vec<Table1Cell> {
    let _span = grinch_telemetry::span!(telemetry, "experiment.table1");
    let mut cells = Vec::new();
    for &words in &config.line_sizes {
        for &round in &config.probing_rounds {
            cells.push(Table1Cell {
                words_per_line: words,
                probing_round: round,
                result: measure_cell(config, words, round, telemetry.clone()),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    #[test]
    fn wider_lines_cost_more_encryptions() {
        let cfg = Table1Config {
            max_encryptions: 60_000,
            ..Table1Config::default()
        };
        let w1 = measure_cell(&cfg, 1, 1, Telemetry::disabled());
        let w2 = measure_cell(&cfg, 2, 1, Telemetry::disabled());
        assert!(w1.is_recovered());
        assert!(w2.is_recovered(), "2-word lines should still resolve");
        assert!(
            w2.encryptions() > w1.encryptions(),
            "2 words ({}) should cost more than 1 word ({})",
            w2.encryptions(),
            w1.encryptions()
        );
    }

    #[test]
    fn hardest_corner_drops_out_under_small_cap() {
        // 8-word lines at probing round 5 is the paper's ">1M" corner; with
        // a small test cap it must hit the drop-out path.
        let cfg = Table1Config {
            max_encryptions: 2_000,
            ..Table1Config::default()
        };
        let cell = measure_cell(&cfg, 8, 5, Telemetry::disabled());
        assert!(!cell.is_recovered());
        assert_eq!(cell.to_string(), format!(">{}", cell.encryptions()));
    }

    #[test]
    fn sweep_covers_requested_grid() {
        let cfg = Table1Config {
            line_sizes: vec![1, 2],
            probing_rounds: vec![1],
            max_encryptions: 60_000,
            ..Table1Config::default()
        };
        let cells = run(&cfg, Telemetry::disabled());
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].words_per_line, 1);
        assert_eq!(cells[1].words_per_line, 2);
    }
}
