//! End-to-end tests of `grinch-campaign run`, the one command that sweeps
//! the arena grid: the byte-exact `--check` gate, journal reuse on rerun,
//! the `BENCH_arena.json` report and ledger record every run leaves, and
//! the usage errors that must never pass silently.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use grinch_arena::{run_campaign, CampaignConfig};
use grinch_obs::BenchReport;

/// A scratch directory unique to this process and test.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("grinch-campaign-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The smoke grid at test size; [`TINY_ARGS`] asks the CLI for the same.
fn tiny_config() -> CampaignConfig {
    CampaignConfig {
        trials: 1,
        max_stage_encryptions: 1_500,
        jobs: 2,
        ..CampaignConfig::smoke()
    }
}

const TINY_ARGS: [&str; 9] = [
    "run",
    "--preset",
    "smoke",
    "--trials",
    "1",
    "--max-encryptions",
    "1500",
    "--jobs",
    "2",
];

/// Runs `grinch-campaign run` on the tiny grid plus `extra`, with results,
/// ledger and baselines all inside `dir`.
fn tiny_run(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grinch-campaign"))
        .args(TINY_ARGS)
        .args(extra)
        .env("GRINCH_RESULTS_DIR", dir.join("results"))
        .env("GRINCH_LEDGER_DIR", dir.join("ledger"))
        .env("GRINCH_BASELINES_DIR", dir.join("baselines"))
        .env_remove("GRINCH_LEDGER")
        .output()
        .expect("grinch-campaign runs")
}

fn path_arg(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

fn ledger_records(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("ledger/LEDGER.jsonl"))
        .unwrap_or_default()
        .lines()
        .filter(|l| l.contains("\"schema\":\"grinch-run/v1\""))
        .count()
}

fn bench_report(dir: &Path) -> BenchReport {
    let text = std::fs::read_to_string(dir.join("results/BENCH_arena.json"))
        .expect("BENCH_arena.json in the results dir");
    BenchReport::from_json(&text).expect("parses")
}

#[test]
fn run_checks_reuses_the_journal_and_records_each_run() {
    let dir = scratch("run");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, run_campaign(&tiny_config()).to_json()).unwrap();
    let (out, journals) = (dir.join("matrix.json"), dir.join("journals"));
    let args = [
        "--journal-dir",
        path_arg(&journals),
        "--out",
        path_arg(&out),
        "--check",
        "--baseline",
        path_arg(&baseline),
    ];

    let first = tiny_run(&dir, &args);
    let err = String::from_utf8_lossy(&first.stderr);
    assert_eq!(first.status.code(), Some(0), "stderr:\n{err}");
    assert!(err.contains("matrix matches baseline"), "stderr:\n{err}");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(&baseline).unwrap(),
        "--out is the byte-exact matrix"
    );
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("entropy"), "both heatmaps print:\n{stdout}");
    let bench = bench_report(&dir);
    assert_eq!(bench.name, "arena");
    assert_eq!(bench.wall.len(), 1, "a fresh sweep records its wall rate");
    assert_eq!(bench.wall[0].rate.as_deref(), Some("cells/sec"));
    assert!(bench.wall[0].throughput > 0.0);
    assert_eq!(ledger_records(&dir), 1);

    let rerun = tiny_run(&dir, &args);
    let err = String::from_utf8_lossy(&rerun.stderr);
    assert_eq!(rerun.status.code(), Some(0), "stderr:\n{err}");
    let cells = tiny_config().num_cells();
    assert!(
        err.contains(&format!("{cells} cells reused, 0 run")),
        "stderr:\n{err}"
    );
    assert!(
        bench_report(&dir).wall.is_empty(),
        "reused cells must not count toward the wall rate"
    );
    assert_eq!(ledger_records(&dir), 2, "every run appends one record");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_against_a_missing_baseline_exits_2_and_writes_nothing() {
    let dir = scratch("missing-baseline");
    let (missing, journals) = (dir.join("typo.json"), dir.join("journals"));
    let out = tiny_run(
        &dir,
        &[
            "--journal-dir",
            path_arg(&journals),
            "--check",
            "--baseline",
            path_arg(&missing),
        ],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{err}");
    assert!(err.contains("cannot read"), "stderr:\n{err}");
    assert!(err.contains("typo.json"), "names the path:\n{err}");
    assert!(
        !missing.exists(),
        "a missing baseline is never bootstrapped"
    );
    assert_eq!(ledger_records(&dir), 0, "nothing ran");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flag_is_never_taken_as_another_flags_value() {
    let dir = scratch("flag-as-value");
    let journals = dir.join("journals");
    let out = tiny_run(
        &dir,
        &["--journal-dir", path_arg(&journals), "--out", "--check"],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{err}");
    assert!(err.contains("--out needs a value"), "stderr:\n{err}");
    assert!(!Path::new("--check").exists());
    assert!(!journals.exists(), "nothing ran");
    let _ = std::fs::remove_dir_all(&dir);
}
