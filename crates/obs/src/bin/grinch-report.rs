//! `grinch-report` — the workspace's trace-analysis CLI.
//!
//! ```text
//! grinch-report trace <trace.jsonl> [--chrome OUT.json]
//! grinch-report heatmap <trace.jsonl> [--svg OUT.svg]
//! grinch-report leakage <trace.jsonl>
//! grinch-report dashboard <trace.jsonl>
//! grinch-report profile <trace.jsonl> [--folded OUT.folded]
//! grinch-report tail <host:port> [--interval-ms N] [--once]
//! grinch-report promcheck <scrape.txt>
//! grinch-report bench [--results DIR] [--baselines DIR] [--check]
//!                     [--write-baselines] [--tolerance FRACTION]
//! grinch-report regress [--ledger FILE] [--name NAME] [--metric NAME]
//!                       [--window N] [--threshold Z] [--min-rel F]
//!                       [--include-wall] [--check]
//! grinch-report trend [--ledger FILE] [--name NAME] [--metric NAME]
//!                     [--last N] [--svg OUT.svg]
//! grinch-report postmortem <FLIGHT.json> [--events N]
//! ```
//!
//! Exit codes: `0` success (including baseline bootstrap), `1` regression
//! gate / exposition-format failure, `2` usage or I/O error (see
//! [`grinch_obs::cli`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use grinch_obs::bench::check_or_bootstrap;
use grinch_obs::cli::{self, reject_leftover, take_num, take_switch, take_value, write_file};
use grinch_obs::history::{metric_series, run_names, trend_rows, Ledger, SentinelConfig, TrendRow};
use grinch_obs::live::{http_get, validate_exposition};
use grinch_obs::{
    chrome_trace_json, dashboard, leakage, paths, BenchReport, FlightDump, GateOutcome, Heatmap,
    SpanProfile,
};
use grinch_telemetry::json::{self, JsonValue};
use grinch_telemetry::Snapshot;

const USAGE: &str = "\
grinch-report: analyse GRINCH telemetry traces

usage:
  grinch-report trace <trace.jsonl> [--chrome OUT.json]
      summarise a trace; --chrome exports Chrome Trace Event Format
      (load the file in chrome://tracing or https://ui.perfetto.dev)
  grinch-report heatmap <trace.jsonl> [--svg OUT.svg]
      per-stage / per-line probe-hit heatmap (ASCII; --svg writes SVG)
  grinch-report leakage <trace.jsonl>
      per-stage mutual information I(forced pattern; observed line)
  grinch-report dashboard <trace.jsonl>
      attack-progress report: budgets, entropy trajectory, hit rates
  grinch-report profile <trace.jsonl> [--folded OUT.folded]
      fold the trace's span tree into per-stack self times (hottest
      first); --folded writes collapsed stacks for inferno-flamegraph /
      flamegraph.pl / speedscope
  grinch-report tail <host:port> [--interval-ms N] [--once]
      terminal HUD for a live `grinch-campaign run --live` campaign: polls
      /progress every N ms (default 500) and redraws until the campaign
      reports done; --once prints a single snapshot and exits
  grinch-report promcheck <scrape.txt>
      validate a /metrics scrape against Prometheus text-format rules
      (TYPE lines, no duplicate families or samples, parseable values);
      exit 1 on violation
  grinch-report bench [--results DIR] [--baselines DIR] [--check]
                      [--write-baselines] [--tolerance FRACTION]
      aggregate every results/*.telemetry.jsonl into BENCH_<name>.json
      and gate against bench/baselines/ (default tolerance 0.05 = 5%)
  grinch-report regress [--ledger FILE] [--name NAME] [--metric NAME]
                        [--window N] [--threshold Z] [--min-rel F]
                        [--include-wall] [--check]
      score the latest ledger run of each producer against its rolling
      window (median/MAD z-score, default window 8 / threshold 4 sigma /
      min relative change 0.1) and scan each series for change points;
      machine-dependent wall.* series are informational unless
      --include-wall; --check exits 1 on a flagged simulated regression
  grinch-report trend [--ledger FILE] [--name NAME] [--metric NAME]
                      [--last N] [--svg OUT.svg]
      render per-metric ledger series as sparklines (and, with --svg, a
      self-contained SVG chart) with change points marked
  grinch-report postmortem <FLIGHT.json> [--events N]
      read a flight-recorder panic dump: final span stack (innermost
      open span last), per-metric movement over the recorded window and
      the last N events (default 20)

environment:
  GRINCH_RESULTS_DIR / GRINCH_BASELINES_DIR / GRINCH_LEDGER_DIR override
  the default workspace-rooted locations.
";

fn load(path: &str) -> Result<Snapshot, String> {
    Snapshot::from_jsonl_file(path).map_err(|e| format!("cannot read trace: {e}"))
}

fn cmd_trace(mut args: Vec<String>) -> Result<ExitCode, String> {
    let chrome_out = take_value(&mut args, "--chrome")?;
    let trace = args.pop().ok_or("trace: missing <trace.jsonl>")?;
    reject_leftover(&args)?;
    let snapshot = load(&trace)?;
    println!(
        "{trace}: {} spans, {} counters, {} gauges, {} histograms, {:.3} ms simulated",
        snapshot.spans.len(),
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        snapshot.sim_time_ns as f64 / 1e6
    );
    if let Some(out) = chrome_out {
        let doc = chrome_trace_json(&snapshot);
        write_file(&out, &doc)?;
        println!("wrote Chrome trace: {out} ({} bytes)", doc.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_heatmap(mut args: Vec<String>) -> Result<ExitCode, String> {
    let svg_out = take_value(&mut args, "--svg")?;
    let trace = args.pop().ok_or("heatmap: missing <trace.jsonl>")?;
    reject_leftover(&args)?;
    let heat = Heatmap::from_snapshot(&load(&trace)?);
    print!("{}", heat.ascii());
    if let Some(out) = svg_out {
        write_file(&out, &heat.svg())?;
        println!("wrote SVG heatmap: {out}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_leakage(args: Vec<String>) -> Result<ExitCode, String> {
    let [trace] = args.as_slice() else {
        return Err("leakage: expected exactly one <trace.jsonl>".into());
    };
    print!("{}", leakage::leakage_report(&load(trace)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_dashboard(args: Vec<String>) -> Result<ExitCode, String> {
    let [trace] = args.as_slice() else {
        return Err("dashboard: expected exactly one <trace.jsonl>".into());
    };
    print!("{}", dashboard(&load(trace)?));
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(mut args: Vec<String>) -> Result<ExitCode, String> {
    let folded_out = take_value(&mut args, "--folded")?;
    let trace = args.pop().ok_or("profile: missing <trace.jsonl>")?;
    reject_leftover(&args)?;
    let profile = SpanProfile::from_snapshot(&load(&trace)?);
    print!("{}", profile.report());
    if let Some(out) = folded_out {
        write_file(&out, &profile.folded())?;
        println!(
            "wrote collapsed stacks: {out} ({} stacks; feed to inferno-flamegraph or flamegraph.pl)",
            profile.lines.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_promcheck(args: Vec<String>) -> Result<ExitCode, String> {
    let [file] = args.as_slice() else {
        return Err("promcheck: expected exactly one <scrape.txt>".into());
    };
    let body = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    match validate_exposition(&body) {
        Ok(samples) => {
            println!("{file}: OK ({samples} samples)");
            Ok(ExitCode::SUCCESS)
        }
        Err(violation) => {
            eprintln!("grinch-report: {file}: {violation}");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Renders one `/progress` document as the `tail` HUD frame.
fn render_progress(doc: &JsonValue) -> String {
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let campaign = doc
        .get("campaign")
        .and_then(JsonValue::as_str)
        .unwrap_or("?");
    let done = doc.get("done") == Some(&JsonValue::Bool(true));
    let (cells_done, total_cells) = (num("cells_completed"), num("total_cells"));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{campaign} — {}  [{}]",
        if done { "done" } else { "running" },
        progress_bar(cells_done, total_cells, 24)
    );
    let _ = writeln!(
        out,
        "cells {cells_done}/{total_cells} done ({} started) | trials {}/{} | \
         {} encryptions | {:.1} s elapsed",
        num("cells_started"),
        num("trials_completed"),
        total_cells * num("trials_per_cell"),
        num("encryptions_total"),
        num("elapsed_ms") as f64 / 1e3
    );
    let _ = writeln!(
        out,
        "{:>3} {:>6} {:>7} {:>12} {:>9}  {:<8} current",
        "id", "cells", "trials", "encryptions", "beat(ms)", "state"
    );
    if let Some(JsonValue::Arr(workers)) = doc.get("workers") {
        for w in workers {
            let wnum = |k: &str| w.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            let state = if w.get("done") == Some(&JsonValue::Bool(true)) {
                "done"
            } else if w.get("stalled") == Some(&JsonValue::Bool(true)) {
                "STALLED"
            } else {
                "live"
            };
            let beat = w
                .get("beat_age_ms")
                .and_then(JsonValue::as_u64)
                .map_or("-".to_string(), |ms| ms.to_string());
            let label = w
                .get("current_label")
                .and_then(JsonValue::as_str)
                .unwrap_or("");
            let _ = writeln!(
                out,
                "{:>3} {:>6} {:>7} {:>12} {:>9}  {:<8} {}",
                wnum("id"),
                wnum("cells_completed"),
                wnum("trials_completed"),
                wnum("encryptions"),
                beat,
                state,
                if label.is_empty() { "-" } else { label }
            );
        }
    }
    out
}

fn progress_bar(done: u64, total: u64, width: u64) -> String {
    let filled = (done * width).checked_div(total).unwrap_or(0).min(width);
    let mut bar = String::with_capacity(width as usize);
    for i in 0..width {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar
}

fn cmd_tail(mut args: Vec<String>) -> Result<ExitCode, String> {
    let interval_ms = take_num(&mut args, "--interval-ms")?.unwrap_or(500);
    let once = take_switch(&mut args, "--once");
    let addr = args.pop().ok_or("tail: missing <host:port>")?;
    reject_leftover(&args)?;

    loop {
        // A dead or not-yet-listening live plane is an expected condition
        // (exit 1 with a plain message), not a usage error (exit 2).
        let (code, body) = match http_get(&addr, "/progress") {
            Ok(response) => response,
            Err(e) => {
                eprintln!(
                    "grinch-report: no live plane at {addr} ({e}) — start one with \
                     `grinch-campaign run --live {addr}`"
                );
                return Ok(ExitCode::FAILURE);
            }
        };
        if code != 200 {
            return Err(format!("GET http://{addr}/progress returned {code}"));
        }
        let doc = json::parse(body.trim())
            .ok_or_else(|| format!("malformed /progress JSON from {addr}"))?;
        let frame = render_progress(&doc);
        if once {
            print!("{frame}");
        } else {
            // Clear screen + home, like `watch` does, then the frame.
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        let done = doc.get("done") == Some(&JsonValue::Bool(true));
        if once || done {
            if done && !once {
                println!("campaign done.");
            }
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn telemetry_traces(results: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut traces = Vec::new();
    let entries = std::fs::read_dir(results)
        .map_err(|e| format!("cannot read results dir {}: {e}", results.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(stem) = file.strip_suffix(".telemetry.jsonl") {
            traces.push((stem.to_string(), path.clone()));
        }
    }
    traces.sort();
    Ok(traces)
}

fn cmd_bench(mut args: Vec<String>) -> Result<ExitCode, String> {
    let results =
        take_value(&mut args, "--results")?.map_or_else(paths::results_dir, PathBuf::from);
    let baselines =
        take_value(&mut args, "--baselines")?.map_or_else(paths::baselines_dir, PathBuf::from);
    let tolerance = match take_value(&mut args, "--tolerance")? {
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|t| (0.0..1.0).contains(t))
            .ok_or(format!(
                "--tolerance must be a fraction in [0, 1), got {raw:?}"
            ))?,
        None => 0.05,
    };
    let check = take_switch(&mut args, "--check");
    let write_baselines = take_switch(&mut args, "--write-baselines");
    reject_leftover(&args)?;

    let traces = telemetry_traces(&results)?;
    if traces.is_empty() {
        return Err(format!(
            "no *.telemetry.jsonl traces in {} — run the bench binaries first \
             (e.g. cargo run -p grinch --release --example quickstart)",
            results.display()
        ));
    }

    let mut regressions = 0usize;
    for (name, trace_path) in &traces {
        let snapshot =
            Snapshot::from_jsonl_file(trace_path).map_err(|e| format!("cannot read trace: {e}"))?;
        let mut report = BenchReport::from_snapshot(name, &snapshot);

        let report_path = results.join(format!("BENCH_{name}.json"));
        // The trace only carries simulated metrics; keep whatever wall
        // sections the bench binary already recorded in its report.
        if let Ok(prev) = std::fs::read_to_string(&report_path) {
            if let Ok(prev) = BenchReport::from_json(&prev) {
                report.wall = prev.wall;
            }
        }
        write_file(&report_path, &report.to_json())?;

        let baseline_path = baselines.join(format!("BENCH_{name}.json"));
        if write_baselines {
            write_file(&baseline_path, &report.without_wall().to_json())?;
            println!(
                "{name}: baseline refreshed ({} metrics)",
                report.metrics.len()
            );
            continue;
        }

        match check_or_bootstrap(&report, &baseline_path, tolerance)
            .map_err(|e| format!("{name}: {e}"))?
        {
            GateOutcome::Pass { compared } => {
                println!(
                    "{name}: PASS ({compared} metrics within {:.0}%)",
                    tolerance * 100.0
                );
            }
            GateOutcome::Bootstrapped => {
                println!(
                    "{name}: baseline bootstrapped at {}",
                    baseline_path.display()
                );
            }
            GateOutcome::Regressed(failures) => {
                regressions += 1;
                println!(
                    "{name}: REGRESSED ({} metrics outside {:.0}%)",
                    failures.len(),
                    tolerance * 100.0
                );
                for f in &failures {
                    println!("  {}", f.describe());
                }
            }
        }
    }

    if regressions > 0 {
        if check {
            eprintln!("grinch-report: {regressions} bench(es) regressed");
            return Ok(ExitCode::FAILURE);
        }
        println!("(informational: pass --check to turn regressions into a failing exit code)");
    }
    Ok(ExitCode::SUCCESS)
}

/// Shared ledger-loading path for `regress` / `trend`: flag override,
/// default location, and a friendly error for an empty history.
fn load_ledger(args: &mut Vec<String>) -> Result<Vec<grinch_obs::RunRecord>, String> {
    let ledger = match take_value(args, "--ledger")? {
        Some(path) => Ledger::at(path),
        None => Ledger::open_default(),
    };
    let records = ledger
        .load()
        .map_err(|e| format!("cannot load ledger: {e}"))?;
    if records.is_empty() {
        return Err(format!(
            "ledger {} is empty — run quickstart, a bench bin or `grinch-campaign run` \
             first (they append grinch-run/v1 records automatically)",
            ledger.path().display()
        ));
    }
    Ok(records)
}

/// Applies the optional `--name` / `--metric` selection to a record set,
/// returning `(name, rows)` groups ready for scoring or rendering.
fn select_series(
    records: &[grinch_obs::RunRecord],
    name: Option<&str>,
    metric: Option<&str>,
    last: Option<usize>,
    cfg: &SentinelConfig,
) -> Result<Vec<(String, Vec<TrendRow>)>, String> {
    let names = match name {
        Some(n) => {
            let known = run_names(records);
            if !known.iter().any(|k| k == n) {
                return Err(format!(
                    "no runs named {n:?} in the ledger (have: {known:?})"
                ));
            }
            vec![n.to_string()]
        }
        None => run_names(records),
    };
    let mut groups = Vec::new();
    for n in names {
        let mut series = metric_series(records, &n);
        if let Some(m) = metric {
            series.retain(|k, _| k == m);
        }
        if let Some(last) = last {
            for values in series.values_mut() {
                let cut = values.len().saturating_sub(last);
                values.drain(..cut);
            }
        }
        let rows = trend_rows(&series, cfg);
        if !rows.is_empty() {
            groups.push((n, rows));
        }
    }
    if groups.is_empty() {
        return Err(match metric {
            Some(m) => format!("metric {m:?} does not appear in the selected ledger series"),
            None => "no series selected from the ledger".to_string(),
        });
    }
    Ok(groups)
}

fn sentinel_config(args: &mut Vec<String>) -> Result<SentinelConfig, String> {
    let mut cfg = SentinelConfig::default();
    if let Some(v) = take_value(args, "--window")? {
        cfg.window = v
            .parse::<usize>()
            .ok()
            .filter(|w| *w >= 2)
            .ok_or(format!("--window must be an integer >= 2, got {v:?}"))?;
    }
    if let Some(v) = take_value(args, "--threshold")? {
        cfg.z_threshold = v
            .parse::<f64>()
            .ok()
            .filter(|z| *z > 0.0)
            .ok_or(format!("--threshold must be a positive number, got {v:?}"))?;
    }
    if let Some(v) = take_value(args, "--min-rel")? {
        cfg.min_rel = v.parse::<f64>().ok().filter(|r| *r >= 0.0).ok_or(format!(
            "--min-rel must be a non-negative fraction, got {v:?}"
        ))?;
    }
    Ok(cfg)
}

fn cmd_regress(mut args: Vec<String>) -> Result<ExitCode, String> {
    let cfg = sentinel_config(&mut args)?;
    let name = take_value(&mut args, "--name")?;
    let metric = take_value(&mut args, "--metric")?;
    let include_wall = take_switch(&mut args, "--include-wall");
    let check = take_switch(&mut args, "--check");
    let records = load_ledger(&mut args)?;
    reject_leftover(&args)?;

    let groups = select_series(&records, name.as_deref(), metric.as_deref(), None, &cfg)?;
    let mut gated_regressions = 0usize;
    let mut informational = 0usize;
    for (name, rows) in &groups {
        let fingerprints: std::collections::BTreeSet<&str> = records
            .iter()
            .filter(|r| r.name == *name)
            .map(|r| r.config_fingerprint.as_str())
            .collect();
        let config_note = if fingerprints.len() > 1 {
            format!(" [{} configs mixed in series]", fingerprints.len())
        } else {
            String::new()
        };
        println!("== regress: {name} ({} series){config_note} ==", rows.len());
        for row in rows {
            let is_wall = row.metric.starts_with("wall.");
            let Some(verdict) = &row.verdict else {
                println!(
                    "  {}: n={} — too few points to score (need {})",
                    row.metric,
                    row.values.len(),
                    cfg.min_points.max(2)
                );
                continue;
            };
            let mut status = if verdict.flagged { "REGRESSED" } else { "ok" };
            if verdict.flagged && is_wall && !include_wall {
                status = "regressed (wall, informational)";
            }
            println!(
                "  {}: {} n={} latest={} window-median={} z={:+.1} rel={:+.1}%",
                row.metric,
                status,
                verdict.n,
                verdict.latest,
                verdict.baseline_median,
                verdict.z,
                verdict.rel_change * 100.0
            );
            if let Some(cp) = &verdict.change_point {
                println!(
                    "    change point at run {}: {} -> {} (score {:.1})",
                    cp.index, cp.before_median, cp.after_median, cp.score
                );
            }
            if verdict.flagged {
                if is_wall && !include_wall {
                    informational += 1;
                } else {
                    gated_regressions += 1;
                }
            }
        }
    }
    if informational > 0 {
        println!(
            "({informational} wall-clock series regressed — machine-dependent, \
             pass --include-wall to gate on them)"
        );
    }
    if gated_regressions > 0 {
        if check {
            eprintln!("grinch-report: {gated_regressions} ledger series regressed");
            return Ok(ExitCode::FAILURE);
        }
        println!("(informational: pass --check to turn regressions into a failing exit code)");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trend(mut args: Vec<String>) -> Result<ExitCode, String> {
    let cfg = sentinel_config(&mut args)?;
    let name = take_value(&mut args, "--name")?;
    let metric = take_value(&mut args, "--metric")?;
    let svg_out = take_value(&mut args, "--svg")?;
    let last = match take_value(&mut args, "--last")? {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .ok()
                .filter(|n| *n >= 2)
                .ok_or(format!("--last must be an integer >= 2, got {v:?}"))?,
        ),
    };
    let records = load_ledger(&mut args)?;
    reject_leftover(&args)?;

    let groups = select_series(&records, name.as_deref(), metric.as_deref(), last, &cfg)?;
    for (name, rows) in &groups {
        print!("{}", grinch_obs::history::trend_report(name, rows));
    }
    if let Some(out) = svg_out {
        // One SVG across all selected producers: prefix each metric with
        // its producer so multi-producer charts stay unambiguous.
        let (title, rows) = if groups.len() == 1 {
            (groups[0].0.clone(), groups[0].1.clone())
        } else {
            let rows = groups
                .iter()
                .flat_map(|(name, rows)| {
                    rows.iter().map(move |row| TrendRow {
                        metric: format!("{name}/{}", row.metric),
                        ..row.clone()
                    })
                })
                .collect();
            ("ledger".to_string(), rows)
        };
        let svg = grinch_obs::history::trend_svg(&title, &rows);
        write_file(&out, &svg)?;
        println!("wrote trend chart: {out} ({} series)", rows.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_postmortem(mut args: Vec<String>) -> Result<ExitCode, String> {
    let events = take_num(&mut args, "--events")?.unwrap_or(20);
    let dump_path = args.pop().ok_or("postmortem: missing <FLIGHT.json>")?;
    reject_leftover(&args)?;
    let dump =
        FlightDump::from_file(&dump_path).map_err(|e| format!("cannot read flight dump: {e}"))?;
    print!("{}", dump.report(events));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("grinch-report", USAGE, |command, argv| match command {
        "trace" => cmd_trace(argv),
        "heatmap" => cmd_heatmap(argv),
        "leakage" => cmd_leakage(argv),
        "dashboard" => cmd_dashboard(argv),
        "profile" => cmd_profile(argv),
        "tail" => cmd_tail(argv),
        "promcheck" => cmd_promcheck(argv),
        "bench" => cmd_bench(argv),
        "regress" => cmd_regress(argv),
        "trend" => cmd_trend(argv),
        "postmortem" => cmd_postmortem(argv),
        other => Err(format!("unknown command {other:?} (try --help)")),
    })
}
