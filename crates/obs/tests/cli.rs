//! End-to-end tests of the `grinch-report` binary: a synthetic telemetry
//! trace goes in, a loadable Chrome trace and a working regression gate
//! come out. Exercises the exact flows the CI `report` job runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use grinch_telemetry::json::{parse, JsonValue};
use grinch_telemetry::Telemetry;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_grinch-report")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grinch-report-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove("GRINCH_RESULTS_DIR")
        .env_remove("GRINCH_BASELINES_DIR")
        .env_remove("GRINCH_LEDGER_DIR")
        .env_remove("GRINCH_LEDGER")
        .output()
        .expect("grinch-report runs")
}

/// A miniature attack trace with every record type the report consumes.
fn write_trace(path: &Path) {
    let tel = Telemetry::new();
    tel.set_time_ns(0);
    {
        let _attack = tel.span("attack");
        {
            let _stage = tel.span("attack.stage");
            tel.advance_time_ns(40_000);
        }
        tel.counter_add("attack.probes", 640);
        tel.counter_add("attack.probe_hits", 80);
        tel.counter_add("attack.stage1.probes", 640);
        tel.counter_add("attack.stage1.probe_hits", 80);
        tel.counter_add("attack.stage1.encryptions", 40);
        tel.counter_add("attack.stage1.eliminations", 15);
        tel.gauge_set("attack.entropy_bits.stage1", 0.0);
        tel.gauge_set("attack.key_recovered", 1.0);
        for line in 0..4usize {
            tel.counter_add(
                &format!("attack.stage1.line_hits.l{line:02}.s{line:03}"),
                20,
            );
            tel.counter_add(&format!("attack.stage1.joint.p{line:x}.l{line:02}"), 20);
        }
        tel.record_value("attack.stage1.elimination_encryptions", 12);
        tel.advance_time_ns(10_000);
    }
    std::fs::write(path, tel.to_jsonl()).unwrap();
}

#[test]
fn trace_subcommand_exports_loadable_chrome_json() {
    let dir = scratch("trace");
    let trace = dir.join("quickstart.telemetry.jsonl");
    write_trace(&trace);
    let chrome = dir.join("out.json");

    let out = run(&[
        "trace",
        trace.to_str().unwrap(),
        "--chrome",
        chrome.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let doc = std::fs::read_to_string(&chrome).unwrap();
    let value = parse(&doc).expect("chrome export is valid JSON");
    let events = match value.get("traceEvents") {
        Some(JsonValue::Arr(events)) => events.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    };
    assert!(events.len() > 4);
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(JsonValue::as_str) == Some("X")
            && e.get("name").and_then(JsonValue::as_str) == Some("attack.stage")
    }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analysis_subcommands_read_the_trace() {
    let dir = scratch("analysis");
    let trace = dir.join("run.telemetry.jsonl");
    write_trace(&trace);
    let trace = trace.to_str().unwrap();

    let heat = run(&["heatmap", trace]);
    assert!(heat.status.success());
    assert!(String::from_utf8_lossy(&heat.stdout).contains("stage 1"));

    let leak = run(&["leakage", trace]);
    assert!(leak.status.success());
    let leak_text = String::from_utf8_lossy(&leak.stdout).to_string();
    // Identity (pattern -> line) joint counts: 2 bits over 4 symbols.
    assert!(leak_text.contains("2.0000"), "leakage output:\n{leak_text}");

    let dash = run(&["dashboard", trace]);
    assert!(dash.status.success());
    assert!(String::from_utf8_lossy(&dash.stdout).contains("key recovered  : yes"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_gate_bootstraps_passes_and_catches_regressions() {
    let results = scratch("bench-results");
    let baselines = scratch("bench-baselines");
    let results_arg = results.to_str().unwrap();
    let baselines_arg = baselines.to_str().unwrap();

    // 0. No traces yet: the error names a command that produces one.
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cargo run -p grinch --release --example quickstart"),
        "stderr: {stderr}"
    );
    write_trace(&results.join("mini.telemetry.jsonl"));

    // 1. First run bootstraps the baseline and still exits 0 under --check.
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
        "--check",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bootstrapped"));
    assert!(baselines.join("BENCH_mini.json").is_file());
    assert!(
        results.join("BENCH_mini.json").is_file(),
        "report also written"
    );

    // 2. Unchanged trace: PASS, exit 0.
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
        "--check",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));

    // 3. Perturb the baseline beyond tolerance: --check exits nonzero.
    let baseline_path = baselines.join("BENCH_mini.json");
    let perturbed = std::fs::read_to_string(&baseline_path)
        .unwrap()
        .replace("\"attack.probes\": 640", "\"attack.probes\": 64000");
    std::fs::write(&baseline_path, perturbed).unwrap();
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
        "--check",
    ]);
    assert!(
        !out.status.success(),
        "perturbed baseline must fail the gate"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSED"));

    // 4. Same perturbation without --check: informational, exit 0.
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
    ]);
    assert!(out.status.success());

    // 5. --write-baselines repairs the gate.
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
        "--write-baselines",
    ]);
    assert!(out.status.success());
    let out = run(&[
        "bench",
        "--results",
        results_arg,
        "--baselines",
        baselines_arg,
        "--check",
    ]);
    assert!(out.status.success());

    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&baselines);
}

/// One synthetic `grinch-run/v1` record for the sentinel tests.
fn ledger_record(name: &str, idx: usize, probes: f64, wall_ns: u64) -> grinch_obs::RunRecord {
    grinch_obs::RunRecord {
        run_id: format!("test-{idx:x}"),
        name: name.to_string(),
        config_fingerprint: "cafe0000cafe0000".to_string(),
        campaign_seed: None,
        env: vec![("os".to_string(), "test".to_string())],
        metrics: vec![("attack.probes".to_string(), probes)],
        wall: vec![grinch_obs::WallSection::new("recovery", wall_ns, probes)],
        profile: None,
    }
}

fn write_ledger(path: &Path, records: &[grinch_obs::RunRecord]) {
    let ledger = grinch_obs::Ledger::at(path);
    for record in records {
        ledger.append(record).unwrap();
    }
}

#[test]
fn regress_gates_on_simulated_metrics_and_reports_wall_separately() {
    let dir = scratch("regress");
    let path = dir.join("LEDGER.jsonl");

    // Stable history, then the last run triples its probe count: a gated
    // simulated-metric regression.
    let mut records: Vec<_> = (0..7)
        .map(|i| ledger_record("quickstart", i, 640.0 + i as f64, 4_000_000))
        .collect();
    records.push(ledger_record("quickstart", 7, 1920.0, 4_000_000));
    write_ledger(&path, &records);

    let ledger_arg = path.to_str().unwrap();
    let out = run(&["regress", "--ledger", ledger_arg]);
    assert!(out.status.success(), "without --check regress informs only");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("attack.probes: REGRESSED"), "stdout:\n{text}");

    let out = run(&["regress", "--ledger", ledger_arg, "--check"]);
    assert_eq!(out.status.code(), Some(1), "--check turns it into exit 1");
    assert!(String::from_utf8_lossy(&out.stderr).contains("regressed"));

    // MAD-level noise: quiet, exit 0 even under --check.
    let quiet_path = dir.join("QUIET.jsonl");
    let quiet: Vec<_> = [640.0, 642.0, 638.0, 641.0, 639.0, 643.0, 640.0, 644.0]
        .iter()
        .enumerate()
        .map(|(i, p)| ledger_record("quickstart", i, *p, 4_000_000))
        .collect();
    write_ledger(&quiet_path, &quiet);
    let out = run(&[
        "regress",
        "--ledger",
        quiet_path.to_str().unwrap(),
        "--check",
    ]);
    assert!(
        out.status.success(),
        "noise must stay quiet: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("attack.probes: ok"));

    // A wall-clock-only regression is informational by default (committed
    // wall times are machine-dependent) and only gates under
    // --include-wall.
    let wall_path = dir.join("WALL.jsonl");
    let mut wall: Vec<_> = (0..7)
        .map(|i| ledger_record("quickstart", i, 640.0, 4_000_000))
        .collect();
    wall.push(ledger_record("quickstart", 7, 640.0, 12_000_000));
    write_ledger(&wall_path, &wall);
    let wall_arg = wall_path.to_str().unwrap();
    let out = run(&["regress", "--ledger", wall_arg, "--check"]);
    assert!(
        out.status.success(),
        "wall regressions must not gate by default: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("informational"));
    let out = run(&["regress", "--ledger", wall_arg, "--check", "--include-wall"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--include-wall gates wall series"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trend_renders_sparklines_and_a_self_contained_svg() {
    let dir = scratch("trend");
    let path = dir.join("LEDGER.jsonl");
    let records: Vec<_> = (0..6)
        .map(|i| ledger_record("quickstart", i, 640.0 + 10.0 * i as f64, 4_000_000))
        .collect();
    write_ledger(&path, &records);

    let out = run(&["trend", "--ledger", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("== trend: quickstart"), "stdout:\n{text}");
    assert!(text.contains('▁') && text.contains('█'), "stdout:\n{text}");

    let svg_path = dir.join("trend.svg");
    let out = run(&[
        "trend",
        "--ledger",
        path.to_str().unwrap(),
        "--svg",
        svg_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&svg_path).unwrap();
    assert!(svg.starts_with("<svg"), "svg:\n{svg}");
    assert!(svg.contains("attack.probes"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn postmortem_resolves_the_innermost_open_span_of_a_real_dump() {
    let dir = scratch("postmortem");
    let tel = Telemetry::new();
    tel.set_time_ns(0);
    tel.enable_flight_recorder(64);
    let _attack = tel.span("attack");
    let _stage = tel.span("attack.stage");
    tel.counter_add("attack.probes", 5);
    // Dump while the spans are still open — exactly what the panic hook
    // sees mid-unwind.
    let dump = tel.flight_dump("cli-crash").expect("recorder enabled");
    let path = dir.join("FLIGHT_cli-crash.json");
    std::fs::write(&path, dump).unwrap();

    let out = run(&["postmortem", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("innermost open span: attack.stage"),
        "stdout:\n{text}"
    );
    assert!(text.contains("attack.probes"), "stdout:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tail_against_a_dead_plane_exits_1_with_a_clear_error() {
    // Port 1 is never listening; --once must not hang or dump a raw io
    // error with exit 2.
    let out = run(&["tail", "127.0.0.1:1", "--once"]);
    assert_eq!(out.status.code(), Some(1), "dead plane is exit 1");
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        err.contains("no live plane at 127.0.0.1:1"),
        "stderr:\n{err}"
    );
    assert!(err.contains("grinch-campaign run --live"), "stderr:\n{err}");
}

#[test]
fn empty_ledger_is_a_usage_error() {
    let dir = scratch("empty-ledger");
    let path = dir.join("LEDGER.jsonl");
    let out = run(&["regress", "--ledger", path.to_str().unwrap(), "--check"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("is empty"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["trace", "/nonexistent/trace.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}
