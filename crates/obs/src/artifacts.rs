//! The per-run artifact pipeline every telemetry producer shares: the
//! quickstart and all eight `grinch-bench` binaries.
//!
//! [`bench_telemetry_for`] creates the run's handle and arms the crash
//! flight recorder; [`emit_telemetry_report`] writes what the run saw:
//!
//! * `<name>.telemetry.jsonl` — the full trace, one metric or span per
//!   line;
//! * `BENCH_<name>.json` — the distilled [`BenchReport`] the regression
//!   gate reads, with the caller's wall-clock sections;
//! * `PROFILE_<name>.folded` — the collapsed-stack [`SpanProfile`];
//! * one `grinch-run/v1` record in the run ledger.
//!
//! Every file name derives from one path-safe form of the run name, so no
//! name can place an artifact outside [`paths::results_dir`].

use crate::{history, paths, BenchReport, SpanProfile, WallSection};
use grinch_telemetry::Telemetry;

/// Creates the telemetry handle a run named `name` records into.
///
/// Disabled when the `GRINCH_TELEMETRY` environment variable is `0` or
/// `off` ([`grinch_telemetry::enabled_from_env`] is the single parser of
/// that convention), in which case every instrumentation point collapses
/// to one branch. An enabled handle also arms the crash flight recorder: a
/// ring of the last [`grinch_telemetry::DEFAULT_FLIGHT_CAPACITY`] events
/// and a panic-time dump to `<results>/FLIGHT_<name>.json`, so a run that
/// dies leaves `grinch-report postmortem` something to read.
pub fn bench_telemetry_for(name: &str) -> Telemetry {
    let telemetry = Telemetry::from_env();
    if telemetry.is_enabled() {
        let name = path_safe(name);
        telemetry.enable_flight_recorder(grinch_telemetry::DEFAULT_FLIGHT_CAPACITY);
        let path = paths::results_dir().join(format!("FLIGHT_{name}.json"));
        telemetry.install_flight_dump_on_panic(&name, path);
    }
    telemetry
}

/// Writes `telemetry`'s trace, bench report and span profile to the
/// results directory, appends one run-ledger record, and prints where each
/// went.
///
/// The simulated metrics come from the telemetry snapshot; `wall` carries
/// the real elapsed time (and derived throughput) the caller measured.
/// Wall sections ride in the report's additive `wall` block — recorded for
/// the perf trajectory, never regression-gated.
///
/// A disabled handle is a no-op. I/O errors are reported to stderr, not
/// fatal, so a read-only checkout still prints its tables.
/// `GRINCH_LEDGER=0` skips the ledger record.
///
/// # Panics
///
/// Panics if the span profile's self times do not sum to its root spans'
/// duration, i.e. if a child span outlasts its parent.
pub fn emit_telemetry_report(telemetry: &Telemetry, name: &str, wall: &[WallSection]) {
    if !telemetry.is_enabled() {
        return;
    }
    let name = path_safe(name);
    let dir = paths::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("telemetry: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.telemetry.jsonl"));
    match telemetry.write_jsonl(&path) {
        Ok(()) => println!("\ntelemetry trace: {}", path.display()),
        Err(e) => {
            eprintln!("telemetry: write to {} failed: {e}", path.display());
            return;
        }
    }
    let snapshot = telemetry.snapshot();
    let mut report = BenchReport::from_snapshot(&name, &snapshot);
    report.wall = wall.to_vec();
    let report_path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&report_path, report.to_json()) {
        Ok(()) => println!("bench report:    {}", report_path.display()),
        Err(e) => eprintln!("telemetry: write to {} failed: {e}", report_path.display()),
    }

    let profile = (!snapshot.spans.is_empty()).then(|| {
        let profile = SpanProfile::from_snapshot(&snapshot);
        assert_eq!(
            profile.total_self_ns(),
            profile.root_total_ns,
            "span self-times must partition the root span duration"
        );
        let folded_path = dir.join(format!("PROFILE_{name}.folded"));
        match std::fs::write(&folded_path, profile.folded()) {
            Ok(()) => println!("span profile:    {}", folded_path.display()),
            Err(e) => eprintln!("telemetry: write to {} failed: {e}", folded_path.display()),
        }
        profile
    });

    if let Some(path) = history::append_run(&report, profile.as_ref(), None) {
        println!("run ledger:      {}", path.display());
    }
}

/// `name` with every character outside `[A-Za-z0-9_-]` replaced by `_`.
fn path_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_names_stay_path_safe() {
        assert_eq!(path_safe("table2"), "table2");
        assert_eq!(path_safe("present_compare"), "present_compare");
        assert_eq!(path_safe("weird/..name"), "weird___name");
    }

    #[test]
    fn disabled_telemetry_emits_nothing() {
        // Must not create a results directory or crash.
        emit_telemetry_report(&Telemetry::disabled(), "unit-noop", &[]);
    }
}
