//! The shared run-artifact emitter derives every file name from one
//! path-safe form of the run name, so no name can write outside the
//! results directory.
//!
//! The test points `GRINCH_RESULTS_DIR` and `GRINCH_LEDGER_DIR` at a
//! scratch directory. Environment variables are process-global, so this
//! binary holds exactly one test.

use grinch_obs::{bench_telemetry_for, emit_telemetry_report, WallSection};
use std::path::Path;

fn names_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn a_name_with_path_separators_writes_every_artifact_inside_the_results_dir() {
    let root = std::env::temp_dir().join(format!("grinch-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let results = root.join("results");
    std::env::set_var("GRINCH_RESULTS_DIR", &results);
    std::env::set_var("GRINCH_LEDGER_DIR", root.join("ledger"));
    std::env::remove_var("GRINCH_TELEMETRY");
    std::env::remove_var("GRINCH_LEDGER");
    let name = "../a/b";

    // The flight dump: a run that dies mid-span.
    let crashed = std::thread::spawn(move || {
        let telemetry = bench_telemetry_for(name);
        let _span = telemetry.span("run");
        panic!("deliberate crash to write the flight dump");
    })
    .join();
    assert!(crashed.is_err());

    // The trace, bench report, span profile and ledger record.
    let telemetry = bench_telemetry_for(name);
    {
        let _span = telemetry.span("run");
        telemetry.counter_inc("attack.encryptions");
    }
    emit_telemetry_report(&telemetry, name, &[WallSection::new("cells", 1_000, 1.0)]);

    assert_eq!(names_in(&root), ["ledger", "results"]);
    assert_eq!(
        names_in(&results),
        [
            "BENCH____a_b.json",
            "FLIGHT____a_b.json",
            "PROFILE____a_b.folded",
            "___a_b.telemetry.jsonl",
        ]
    );
    let ledger = std::fs::read_to_string(root.join("ledger/LEDGER.jsonl")).unwrap();
    assert_eq!(ledger.lines().count(), 1);
    assert!(ledger.contains(r#""name":"___a_b""#), "{ledger}");
    let _ = std::fs::remove_dir_all(&root);
}
