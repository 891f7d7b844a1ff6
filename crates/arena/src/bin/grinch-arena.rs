//! `grinch-arena` — renders saved arena matrices and captures defended
//! telemetry traces.
//!
//! ```text
//! grinch-arena render <matrix.json> [--metric success-rate|encryptions|entropy-bits]
//!                  [--svg FILE]
//! grinch-arena trace [--epoch N] [--max-encryptions N] [--out-dir DIR]
//! ```
//!
//! Sweeps run through `grinch-campaign run`. Exit codes: `0` success,
//! `2` usage or I/O error (see [`grinch_obs::cli`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gift_cipher::Key;
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch::stage::{run_stage, StageConfig};
use grinch_arena::{ArenaMatrix, DefenseSpec, Metric};
use grinch_obs::cli::{self, reject_leftover, take_num, take_value, write_file};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "\
grinch-arena: randomized-cache defenses vs the GRINCH attack variants

usage:
  grinch-arena render <matrix.json> [--metric success-rate|encryptions|entropy-bits]
                   [--svg FILE]
      re-render a saved matrix (`grinch-campaign run` sweeps and writes
      one). Default metric: success-rate.
  grinch-arena trace [--epoch N] [--max-encryptions N] [--out-dir DIR]
      run one telemetry-instrumented stage-1 campaign undefended and one
      under KeyedRemap rekeyed every N accesses (default 64), writing
      arena.undefended.telemetry.jsonl and arena.defended.telemetry.jsonl
      (default dir: results/) for `grinch-ct cross-validate
      --defended-trace`, and print the stage-1 MI of both channels.
";

fn cmd_render(mut args: Vec<String>) -> Result<ExitCode, String> {
    let metric = match take_value(&mut args, "--metric")? {
        None => Metric::SuccessRate,
        Some(v) => Metric::parse(&v).ok_or_else(|| format!("--metric: unknown metric {v:?}"))?,
    };
    let svg = take_value(&mut args, "--svg")?;
    let path = args.pop().ok_or("render: missing <matrix.json>")?;
    reject_leftover(&args)?;

    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let matrix = ArenaMatrix::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let heat = matrix.heat(metric);
    print!("{}", heat.ascii());
    if let Some(svg_path) = svg {
        write_file(&svg_path, &heat.svg())?;
        eprintln!("grinch-arena: heatmap written to {svg_path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one telemetry-instrumented stage-1 campaign and writes its trace.
fn trace_one(defense: DefenseSpec, max_encryptions: u64, path: &Path) -> Result<f64, String> {
    // Fixed seeds: the traces are regression artifacts, not experiments.
    let seed = 0x7261_6365; // "race"
    let telemetry = grinch_telemetry::Telemetry::new();
    let secret = Key::from_u128(0x00ff_11ee_22dd_33cc_44bb_55aa_6699_7788);
    let mut obs = ObservationConfig::ideal();
    obs.cache = defense.apply(obs.cache, seed);
    let mut oracle = VictimOracle::new_seeded(secret, obs, seed);
    oracle.set_telemetry(telemetry.clone());
    let stage_cfg = StageConfig::new()
        .with_max_encryptions(max_encryptions)
        .with_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = run_stage(&mut oracle, &[], 1, &stage_cfg, &mut rng);
    telemetry
        .write_jsonl(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let snapshot = telemetry.snapshot();
    let mi = grinch_obs::leakage::stage_leakage(&snapshot)
        .iter()
        .map(|s| s.mi_bits())
        .fold(0.0, f64::max);
    Ok(mi)
}

fn cmd_trace(mut args: Vec<String>) -> Result<ExitCode, String> {
    // The whole point of `trace` is writing telemetry; a registry silently
    // disabled through the environment would emit empty artifacts.
    if !grinch_telemetry::enabled_from_env() {
        return Err(format!(
            "trace needs telemetry, but {}={:?} disables it — unset it first",
            grinch_telemetry::TELEMETRY_ENV,
            std::env::var(grinch_telemetry::TELEMETRY_ENV).unwrap_or_default()
        ));
    }
    let epoch = take_num(&mut args, "--epoch")?.unwrap_or(64);
    let max_encryptions = take_num(&mut args, "--max-encryptions")?.unwrap_or(20_000);
    let out_dir = take_value(&mut args, "--out-dir")?
        .map(PathBuf::from)
        .unwrap_or_else(grinch_obs::paths::results_dir);
    reject_leftover(&args)?;

    let undefended_path = out_dir.join("arena.undefended.telemetry.jsonl");
    let defended_path = out_dir.join("arena.defended.telemetry.jsonl");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let undefended_mi = trace_one(DefenseSpec::Baseline, max_encryptions, &undefended_path)?;
    let defended_mi = trace_one(
        DefenseSpec::RekeyedRemap {
            epoch_accesses: epoch,
        },
        max_encryptions,
        &defended_path,
    )?;
    println!("stage-1 channel MI, undefended: {undefended_mi:.4} bits");
    println!("stage-1 channel MI, rekey-{epoch}: {defended_mi:.4} bits");
    println!("traces: {}", undefended_path.display());
    println!("        {}", defended_path.display());
    println!(
        "next:   grinch-ct cross-validate crates/gift/src --trace {} --defended-trace {}",
        undefended_path.display(),
        defended_path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("grinch-arena", USAGE, |cmd, args| match cmd {
        "render" => cmd_render(args),
        "trace" => cmd_trace(args),
        other => Err(format!("unknown subcommand {other:?}")),
    })
}
