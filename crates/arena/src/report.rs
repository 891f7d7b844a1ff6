//! The stable `grinch-arena/v1` matrix document and its renderings.
//!
//! The serialized form is the arena's regression contract: a committed
//! baseline under `bench/baselines/` is compared byte-for-byte against a
//! fresh run (the sweep is deterministic, so exact equality is the right
//! gate — any drift is a behavior change that must be reviewed, not
//! averaged away). Rendering goes through [`grinch_obs::MatrixHeat`], one
//! row per defense and one column per (attack, noise) combination.

use crate::cell::CellResult;
use grinch_obs::MatrixHeat;
use grinch_telemetry::json::{parse, JsonValue, Layout, ObjWriter};

/// Schema tag of the serialized matrix document.
pub const SCHEMA: &str = "grinch-arena/v1";

/// Which cell metric a rendering shows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Fraction of trials that recovered the verified full key.
    SuccessRate,
    /// Mean encryptions consumed by the successful trials.
    Encryptions,
    /// Mean residual stage-1 hypothesis entropy, in bits.
    EntropyBits,
}

impl Metric {
    /// Stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::SuccessRate => "success-rate",
            Metric::Encryptions => "encryptions",
            Metric::EntropyBits => "entropy-bits",
        }
    }

    /// Inverse of [`Metric::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "success-rate" => Some(Metric::SuccessRate),
            "encryptions" => Some(Metric::Encryptions),
            "entropy-bits" => Some(Metric::EntropyBits),
            _ => None,
        }
    }

    fn of(&self, cell: &CellResult) -> f64 {
        match self {
            Metric::SuccessRate => cell.success_rate,
            // NaN renders as "-": a cell that never succeeded has no
            // encryptions-to-success to show.
            Metric::Encryptions => cell.mean_encryptions_to_success.unwrap_or(f64::NAN),
            Metric::EntropyBits => cell.mean_residual_entropy_bits,
        }
    }
}

/// The full defense × attack × noise result grid of one campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct ArenaMatrix {
    /// Campaign seed the sweep derived every trial from.
    pub seed: u64,
    /// Monte-Carlo trials per cell.
    pub trials: u64,
    /// Per-stage encryption cap used by every recovery attempt.
    pub max_stage_encryptions: u64,
    /// Defense axis, in row order.
    pub defenses: Vec<String>,
    /// Attack axis, in column-group order.
    pub attacks: Vec<String>,
    /// Noise axis, in column order within a group.
    pub noise_levels: Vec<f64>,
    /// Results in row-major cell order (defense outermost, noise
    /// innermost) — the same numbering as
    /// [`crate::spec::CampaignConfig::cell_index`].
    pub cells: Vec<CellResult>,
}

impl ArenaMatrix {
    /// Looks up the cell for a (defense, attack, noise) combination.
    pub fn cell(&self, defense: &str, attack: &str, noise: f64) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.defense == defense && c.attack == attack && c.noise == noise)
    }

    /// Serializes the matrix as the stable multi-line `grinch-arena/v1`
    /// document: fixed field order, one cell per line, floats at the fixed
    /// precision the cell runner already rounded to — so equal matrices
    /// serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::with_layout(Layout::Lines);
        w.str("schema", SCHEMA)
            .u64("seed", self.seed)
            .u64("trials", self.trials)
            .u64("max_stage_encryptions", self.max_stage_encryptions)
            .arr("defenses", Layout::Spaced, |a| {
                self.defenses.iter().for_each(|d| a.str(d));
            })
            .arr("attacks", Layout::Spaced, |a| {
                self.attacks.iter().for_each(|at| a.str(at));
            })
            .arr("noise_levels", Layout::Spaced, |a| {
                self.noise_levels.iter().for_each(|p| a.f64(*p));
            })
            .arr("cells", Layout::Lines, |a| {
                for cell in &self.cells {
                    a.obj(Layout::Compact, |o| write_cell(o, cell));
                }
            });
        w.finish() + "\n"
    }

    /// Parses a `grinch-arena/v1` document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse(text).ok_or("matrix: invalid JSON")?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("matrix: missing schema")?;
        if schema != SCHEMA {
            return Err(format!("matrix: schema {schema:?}, expected {SCHEMA:?}"));
        }
        let u64_field = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("matrix: missing integer field {k:?}"))
        };
        let str_list = |k: &str| -> Result<Vec<String>, String> {
            match doc.get(k) {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("matrix: non-string entry in {k:?}"))
                    })
                    .collect(),
                _ => Err(format!("matrix: missing array field {k:?}")),
            }
        };
        let noise_levels = match doc.get("noise_levels") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| v.as_f64().ok_or("matrix: non-numeric noise level"))
                .collect::<Result<Vec<f64>, _>>()?,
            _ => return Err("matrix: missing array field \"noise_levels\"".to_string()),
        };
        let cells = match doc.get("cells") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(parse_cell)
                .collect::<Result<Vec<CellResult>, String>>()?,
            _ => return Err("matrix: missing array field \"cells\"".to_string()),
        };
        Ok(Self {
            seed: u64_field("seed")?,
            trials: u64_field("trials")?,
            max_stage_encryptions: u64_field("max_stage_encryptions")?,
            defenses: str_list("defenses")?,
            attacks: str_list("attacks")?,
            noise_levels,
            cells,
        })
    }

    /// Byte-exact comparison against a committed baseline. On mismatch the
    /// error pinpoints the first differing line of the serialized form.
    pub fn compare(&self, baseline: &ArenaMatrix) -> Result<(), String> {
        let ours = self.to_json();
        let theirs = baseline.to_json();
        if ours == theirs {
            return Ok(());
        }
        let (line_no, got, want) = ours
            .lines()
            .zip(theirs.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i + 1, a.to_string(), b.to_string()))
            .unwrap_or_else(|| {
                (
                    ours.lines().count().min(theirs.lines().count()) + 1,
                    "<end of document>".to_string(),
                    "<end of document>".to_string(),
                )
            });
        Err(format!(
            "matrix differs from baseline at line {line_no}:\n  current:  {got}\n  baseline: {want}"
        ))
    }

    /// Renders one metric as a labelled heat grid: rows are defenses,
    /// columns are (attack, noise) combinations.
    pub fn heat(&self, metric: Metric) -> MatrixHeat {
        let single_noise = self.noise_levels.len() == 1;
        let mut cols = Vec::new();
        for attack in &self.attacks {
            for p in &self.noise_levels {
                cols.push(if single_noise {
                    attack.clone()
                } else {
                    format!("{attack} p={p}")
                });
            }
        }
        let per_row = self.attacks.len() * self.noise_levels.len();
        let values = self
            .cells
            .chunks(per_row)
            .map(|row| row.iter().map(|c| metric.of(c)).collect())
            .collect();
        MatrixHeat {
            title: format!(
                "{} (defense x attack, {} trials/cell, seed {:#x})",
                metric.name(),
                self.trials,
                self.seed
            ),
            rows: self.defenses.clone(),
            cols,
            values,
        }
    }
}

/// Writes one cell's members into an open compact object: the canonical
/// single-line cell used both inside the `grinch-arena/v1` matrix document
/// and as the payload of `grinch-campaign/v1` journal records — one
/// serializer, so a journaled cell re-emits byte-identically into the
/// final matrix.
pub fn write_cell(w: &mut ObjWriter, cell: &CellResult) {
    w.str("defense", &cell.defense)
        .str("attack", &cell.attack)
        .f64("noise", cell.noise)
        .u64("trials", cell.trials)
        .u64("successes", cell.successes)
        .f64("success_rate", cell.success_rate);
    match cell.mean_encryptions_to_success {
        Some(m) => w.f64("mean_encryptions_to_success", m),
        None => w.null("mean_encryptions_to_success"),
    };
    w.f64(
        "mean_residual_entropy_bits",
        cell.mean_residual_entropy_bits,
    );
}

/// Parses one cell object — the inverse of [`write_cell`], shared by the
/// matrix parser and the campaign journal loader.
pub fn parse_cell(v: &JsonValue) -> Result<CellResult, String> {
    let str_field = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("cell: missing string field {k:?}"))
    };
    let u64_field = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("cell: missing integer field {k:?}"))
    };
    let f64_field = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("cell: missing numeric field {k:?}"))
    };
    let mean = match v.get("mean_encryptions_to_success") {
        Some(JsonValue::Null) => None,
        Some(other) => Some(
            other
                .as_f64()
                .ok_or("cell: non-numeric mean_encryptions_to_success")?,
        ),
        None => return Err("cell: missing field \"mean_encryptions_to_success\"".to_string()),
    };
    Ok(CellResult {
        defense: str_field("defense")?,
        attack: str_field("attack")?,
        noise: f64_field("noise")?,
        trials: u64_field("trials")?,
        successes: u64_field("successes")?,
        success_rate: f64_field("success_rate")?,
        mean_encryptions_to_success: mean,
        mean_residual_entropy_bits: f64_field("mean_residual_entropy_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArenaMatrix {
        let cell = |defense: &str, attack: &str, rate: f64| CellResult {
            defense: defense.to_string(),
            attack: attack.to_string(),
            noise: 0.0,
            trials: 2,
            successes: (rate * 2.0) as u64,
            success_rate: rate,
            mean_encryptions_to_success: (rate > 0.0).then_some(412.5),
            mean_residual_entropy_bits: if rate > 0.0 { 0.0 } else { 32.0 },
        };
        ArenaMatrix {
            seed: 0xa11e,
            trials: 2,
            max_stage_encryptions: 2_500,
            defenses: vec!["baseline".into(), "partition".into()],
            attacks: vec!["flush-reload".into(), "prime-probe".into()],
            noise_levels: vec![0.0],
            cells: vec![
                cell("baseline", "flush-reload", 1.0),
                cell("baseline", "prime-probe", 1.0),
                cell("partition", "flush-reload", 0.0),
                cell("partition", "prime-probe", 0.0),
            ],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let m = sample();
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"grinch-arena/v1\""));
        assert!(json.contains("\"mean_encryptions_to_success\":null"));
        let back = ArenaMatrix::from_json(&json).expect("parses");
        assert_eq!(back, m);
        assert_eq!(back.to_json(), json, "re-serialization is byte-stable");
        let empty = ArenaMatrix {
            cells: Vec::new(),
            ..m
        }
        .to_json();
        assert_eq!(
            empty,
            concat!(
                "{\n",
                "  \"schema\": \"grinch-arena/v1\",\n",
                "  \"seed\": 41246,\n",
                "  \"trials\": 2,\n",
                "  \"max_stage_encryptions\": 2500,\n",
                "  \"defenses\": [\"baseline\", \"partition\"],\n",
                "  \"attacks\": [\"flush-reload\", \"prime-probe\"],\n",
                "  \"noise_levels\": [0.0],\n",
                "  \"cells\": [\n",
                "  ]\n",
                "}\n",
            )
        );
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(ArenaMatrix::from_json("{}").is_err());
        assert!(ArenaMatrix::from_json("{\"schema\":\"grinch-arena/v2\"}").is_err());
        assert!(ArenaMatrix::from_json("not json").is_err());
    }

    #[test]
    fn compare_pinpoints_the_first_differing_line() {
        let m = sample();
        assert!(m.compare(&m.clone()).is_ok());
        let mut drifted = m.clone();
        drifted.cells[2].success_rate = 0.5;
        let err = m.compare(&drifted).expect_err("must differ");
        assert!(err.contains("line"), "{err}");
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn heat_lays_out_rows_by_defense_and_cols_by_attack() {
        let heat = sample().heat(Metric::SuccessRate);
        assert_eq!(heat.rows, vec!["baseline", "partition"]);
        assert_eq!(heat.cols, vec!["flush-reload", "prime-probe"]);
        assert_eq!(heat.values, vec![vec![1.0, 1.0], vec![0.0, 0.0]]);
        // Never-succeeding cells dash out in the encryptions view.
        let enc = sample().heat(Metric::Encryptions);
        assert!(enc.values[1][0].is_nan());
        assert!(sample()
            .heat(Metric::EntropyBits)
            .ascii()
            .contains("entropy-bits"));
    }

    #[test]
    fn metric_names_round_trip() {
        for m in [
            Metric::SuccessRate,
            Metric::Encryptions,
            Metric::EntropyBits,
        ] {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("latency"), None);
    }
}
