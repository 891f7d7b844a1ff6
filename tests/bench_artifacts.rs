//! The bench binaries' run artifacts, end to end: `present_compare` and
//! `noise`, the two fastest binaries, run as subprocesses against scratch
//! results and ledger directories.

use grinch_obs::BenchReport;
use std::path::{Path, PathBuf};
use std::process::Command;

const BINARIES: [(&str, &str); 2] = [
    ("present_compare", env!("CARGO_BIN_EXE_present_compare")),
    ("noise", env!("CARGO_BIN_EXE_noise")),
];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "grinch-bench-artifacts-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `exe` with its results and ledger under `dir`; `telemetry` sets
/// `GRINCH_TELEMETRY`, left unset when `None`.
fn run(exe: &str, dir: &Path, telemetry: Option<&str>) {
    let mut command = Command::new(exe);
    command
        .env("GRINCH_RESULTS_DIR", dir.join("results"))
        .env("GRINCH_LEDGER_DIR", dir.join("ledger"))
        .env_remove("GRINCH_LEDGER")
        .env_remove("GRINCH_TELEMETRY");
    if let Some(value) = telemetry {
        command.env("GRINCH_TELEMETRY", value);
    }
    let output = command.output().expect("bench binary starts");
    assert!(
        output.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn read_report(path: &Path) -> BenchReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn binaries_write_every_artifact_and_match_the_committed_baselines() {
    let dir = scratch("on");
    let results = dir.join("results");
    for (runs, (name, exe)) in BINARIES.into_iter().enumerate() {
        run(exe, &dir, None);
        for file in [
            format!("{name}.telemetry.jsonl"),
            format!("PROFILE_{name}.folded"),
        ] {
            assert!(results.join(&file).is_file(), "{name}: no {file}");
        }
        let report = read_report(&results.join(format!("BENCH_{name}.json")));
        let baseline =
            read_report(&grinch_obs::paths::baselines_dir().join(format!("BENCH_{name}.json")));
        assert_eq!(report.without_wall(), baseline.without_wall(), "{name}");
        let ledger = std::fs::read_to_string(dir.join("ledger/LEDGER.jsonl")).unwrap();
        assert_eq!(
            ledger.lines().count(),
            runs + 1,
            "{name}: one ledger record"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disabled_telemetry_writes_nothing() {
    let dir = scratch("off");
    for (_, exe) in BINARIES {
        run(exe, &dir, Some("0"));
    }
    assert!(
        !dir.exists(),
        "GRINCH_TELEMETRY=0 wrote under {}",
        dir.display()
    );
}
