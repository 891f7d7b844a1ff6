//! `grinch-campaign` — the sharded, resumable campaign orchestrator CLI.
//!
//! ```text
//! grinch-campaign run [--preset smoke|full] [--trials N] [--seed N] [--jobs N]
//!                     [--max-encryptions N] [--shards N] [--shard I]
//!                     [--journal-dir DIR] [--out FILE] [--svg FILE]
//!                     [--throttle-ms N] [--check] [--baseline FILE]
//!                     [--live ADDR] [--live-interval-ms N]
//!                     [--watchdog-ms N] [--linger-secs N]
//! grinch-campaign status [--journal-dir DIR]
//! grinch-campaign aggregate [--journal-dir DIR] [--campaign ID] [--out FILE]
//!                     [--check] [--baseline FILE]
//! grinch-campaign serve [--addr HOST:PORT] [--journal-dir DIR]
//!                     [--queue-capacity N] [--shards N] [--jobs N]
//!                     [--throttle-ms N] [--retry-after-secs N]
//!                     [--duration-secs N]
//! ```
//!
//! Exit codes: `0` success / baseline agreement, `1` baseline mismatch,
//! `2` usage or I/O error (see [`grinch_obs::cli`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grinch_arena::journal::run_journaled;
use grinch_arena::{ArenaMatrix, CampaignConfig, LiveOptions, LivePlane, Metric};
use grinch_campaign::aggregate::{aggregate_journals, discover_journals};
use grinch_campaign::{serve, ServeOptions, ShardPlan};
use grinch_obs::cli::{self, reject_leftover, take_num, take_switch, take_value, write_file};
use grinch_obs::{BenchReport, WallSection};

const USAGE: &str = "\
grinch-campaign: sharded, resumable campaign orchestrator for the arena sweep

usage:
  grinch-campaign run [--preset smoke|full] [--trials N] [--seed N] [--jobs N]
                      [--max-encryptions N] [--shards N] [--shard I]
                      [--journal-dir DIR] [--out FILE] [--svg FILE]
                      [--throttle-ms N] [--check] [--baseline FILE]
                      [--live ADDR] [--live-interval-ms N]
                      [--watchdog-ms N] [--linger-secs N]
      sweep the (defense x attack x noise) grid of a preset: smoke (CI:
      2 defenses x 2 attacks, 2 trials; the default) or full (4 defenses
      x 2 attacks x 2 noise levels, 8 trials). The campaign is split into
      --shards deterministic shards (default 1), each streaming to its
      own append-only grinch-campaign/v1 journal in --journal-dir
      (default: results/campaign). A killed run resumes: re-run the same
      command and only unjournaled cells execute. With --shard I only
      that one shard runs (spread shards over invocations or machines;
      aggregate later). When every shard is complete the success-rate
      and entropy-bits heatmaps are printed and the aggregated
      grinch-arena/v1 matrix lands in --out (default: CAMPAIGN_<id>.json
      inside --journal-dir) — byte-identical for any shard count,
      ordering, worker count or kill/resume history; --svg also renders
      the success-rate heatmap as SVG. --throttle-ms sleeps after each
      cell (a CI hook for widening kill windows; never affects results).
      --check compares the aggregated matrix byte-for-byte against
      --baseline (default: bench/baselines/ARENA_MATRIX.json); exit 1 on
      drift, exit 2 if the baseline cannot be read.
      Every run writes BENCH_arena.json to the results dir (wall time and
      cell-trials per second of the cells it actually ran, not the ones
      it reused) and appends one grinch-run/v1 record to the run ledger
      (GRINCH_LEDGER=0 opts out).
      --live ADDR serves the live observability plane while the sweep runs
      (ADDR like 127.0.0.1:9090; port 0 picks one — the bound address is
      printed to stderr): GET /metrics (Prometheus text), /progress (JSON),
      /healthz (503 while a worker misses its heartbeat; threshold
      --watchdog-ms, default 5000). --live-interval-ms (default 250) rate-
      limits the streamed metric deltas; --linger-secs (default 0) keeps
      the endpoints up that long after the sweep so late scrapers see the
      final state. The live plane only observes: the matrix stays
      byte-identical with or without it.
  grinch-campaign status [--journal-dir DIR]
      summarize every campaign journaled under --journal-dir: per-shard
      cells done/target, resumability, completeness.
  grinch-campaign aggregate [--journal-dir DIR] [--campaign ID] [--out FILE]
                      [--check] [--baseline FILE]
      merge the journals under --journal-dir (optionally only those of
      campaign ID) into the full matrix without re-running anything.
      Errors if the cover is incomplete, naming the missing cells.
  grinch-campaign serve [--addr HOST:PORT] [--journal-dir DIR]
                      [--queue-capacity N] [--shards N] [--jobs N]
                      [--throttle-ms N] [--retry-after-secs N]
                      [--duration-secs N]
      accept campaign submissions over HTTP (default addr 127.0.0.1:9091):
      POST /campaigns (a grinch-campaign-config/v1 document; 202 queued,
      200 if the identity is already known, 429 + Retry-After when the
      bounded queue is full), GET /campaigns, GET /campaigns/<id>,
      GET /campaigns/<id>/matrix, GET /campaigns/<id>/heatmap,
      GET /metrics, GET /healthz. Runs until interrupted, or for
      --duration-secs when given (CI hook).
";

fn default_journal_dir() -> PathBuf {
    grinch_obs::paths::results_dir().join("campaign")
}

/// Shared `--preset`/`--trials`/... campaign construction.
fn campaign_from_args(args: &mut Vec<String>) -> Result<CampaignConfig, String> {
    let preset = take_value(args, "--preset")?.unwrap_or_else(|| "smoke".to_string());
    let mut campaign = match preset.as_str() {
        "smoke" => CampaignConfig::smoke(),
        "full" => CampaignConfig::full(),
        other => return Err(format!("--preset: unknown preset {other:?}")),
    };
    if let Some(v) = take_num(args, "--trials")? {
        campaign.trials = v;
    }
    if let Some(v) = take_num(args, "--seed")? {
        campaign.seed = v;
    }
    if let Some(v) = take_num(args, "--jobs")? {
        campaign.jobs = v;
    }
    if let Some(v) = take_num(args, "--max-encryptions")? {
        campaign.max_stage_encryptions = v;
    }
    campaign.validate()?;
    Ok(campaign)
}

/// `--check [--baseline FILE]`, shared by `run` and `aggregate`: the
/// baseline to gate against, when `--check` is given. It is loaded up
/// front, so a missing or malformed baseline fails (exit 2) before any
/// cell runs — never a pass, never a bootstrap.
fn baseline_arg(args: &mut Vec<String>) -> Result<Option<(PathBuf, ArenaMatrix)>, String> {
    let check = take_switch(args, "--check");
    let path = take_value(args, "--baseline")?.map_or_else(
        || grinch_obs::paths::baselines_dir().join("ARENA_MATRIX.json"),
        PathBuf::from,
    );
    if !check {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let baseline = ArenaMatrix::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some((path, baseline)))
}

/// Writes the matrix to `out`, then gates it byte for byte against the
/// baseline if there is one: exit 1 on drift.
fn write_and_check(
    matrix: &ArenaMatrix,
    out: &Path,
    baseline: Option<(PathBuf, ArenaMatrix)>,
) -> Result<ExitCode, String> {
    write_file(out, &matrix.to_json())?;
    eprintln!("grinch-campaign: matrix written to {}", out.display());
    let Some((path, baseline)) = baseline else {
        return Ok(ExitCode::SUCCESS);
    };
    match matrix.compare(&baseline) {
        Ok(()) => {
            eprintln!(
                "grinch-campaign: matrix matches baseline {}",
                path.display()
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(diff) => {
            eprintln!("grinch-campaign: {diff}");
            Ok(ExitCode::from(1))
        }
    }
}

/// Writes `BENCH_arena.json` to the results dir and appends one
/// `grinch-run/v1` record named `arena` to the run ledger
/// (`GRINCH_LEDGER=0` opts out). The matrix artifact stays byte-stable:
/// wall time lives only here. Only the cells this invocation ran count
/// toward the cell-trial rate; a run that ran none records no wall
/// section.
fn record_run(campaign: &CampaignConfig, ran_cells: usize, wall_ns: u64) -> Result<(), String> {
    let mut bench = BenchReport {
        name: "arena".into(),
        metrics: vec![
            ("cells".into(), campaign.num_cells() as f64),
            ("trials".into(), campaign.trials as f64),
        ],
        wall: Vec::new(),
    };
    if ran_cells > 0 {
        let cell_trials = (ran_cells * campaign.trials) as f64;
        bench.push_wall(WallSection::new("cells", wall_ns, cell_trials).with_rate("cells/sec"));
        eprintln!(
            "grinch-campaign: {cell_trials:.0} cell-trials in {:.2} s ({:.1} cells/s)",
            wall_ns as f64 / 1e9,
            bench.wall[0].throughput
        );
    }
    let bench_path = grinch_obs::paths::results_dir().join("BENCH_arena.json");
    write_file(&bench_path, &bench.to_json())?;
    eprintln!("grinch-campaign: bench report -> {}", bench_path.display());
    if let Some(ledger) = grinch_obs::history::append_run(&bench, None, Some(campaign.seed)) {
        eprintln!(
            "grinch-campaign: run ledger appended -> {}",
            ledger.display()
        );
    }
    Ok(())
}

fn cmd_run(mut args: Vec<String>) -> Result<ExitCode, String> {
    let campaign = campaign_from_args(&mut args)?;
    let shards = take_num(&mut args, "--shards")?.unwrap_or(1usize).max(1);
    let only_shard: Option<usize> = take_num(&mut args, "--shard")?;
    let journal_dir =
        take_value(&mut args, "--journal-dir")?.map_or_else(default_journal_dir, PathBuf::from);
    let throttle_ms = take_num(&mut args, "--throttle-ms")?.unwrap_or(0);
    let plan = ShardPlan::new(&campaign, shards);
    let out = take_value(&mut args, "--out")?
        .map_or_else(|| journal_dir.join(plan.matrix_name()), PathBuf::from);
    let svg = take_value(&mut args, "--svg")?;
    let baseline = baseline_arg(&mut args)?;
    let live_addr = take_value(&mut args, "--live")?;
    let live_interval_ms = take_num(&mut args, "--live-interval-ms")?.unwrap_or(250);
    let watchdog_ms = take_num(&mut args, "--watchdog-ms")?.unwrap_or(5_000);
    let linger_secs = take_num(&mut args, "--linger-secs")?.unwrap_or(0);
    reject_leftover(&args)?;

    let run_list: Vec<usize> = match only_shard {
        Some(index) if index >= shards => {
            return Err(format!("--shard {index} out of range (--shards {shards})"));
        }
        Some(index) => vec![index],
        None => (0..shards).collect(),
    };

    let live = match live_addr {
        None => None,
        Some(addr) => {
            let mut opts = LiveOptions::new(addr, format!("campaign {}", plan.campaign_id));
            opts.stream_interval = Duration::from_millis(live_interval_ms);
            opts.watchdog_threshold = Duration::from_millis(watchdog_ms);
            let plane = LivePlane::start(&campaign, opts)
                .map_err(|e| format!("cannot start live plane: {e}"))?;
            eprintln!(
                "grinch-campaign: live plane listening on http://{}",
                plane.addr()
            );
            Some(plane)
        }
    };
    eprintln!(
        "grinch-campaign: campaign {} — {} cells x {} trials over {} shard(s)",
        plan.campaign_id,
        campaign.num_cells(),
        campaign.trials,
        shards
    );
    let sender = live.as_ref().map(LivePlane::sender);
    let started = Instant::now();
    let mut ran_cells = 0;
    for index in run_list {
        let path = plan.journal_path(&journal_dir, index);
        let outcome = run_journaled(
            &campaign,
            &path,
            Some((index, shards)),
            sender.as_ref(),
            throttle_ms,
        )?;
        ran_cells += outcome.ran_cells;
        eprintln!(
            "grinch-campaign: shard {index}/{shards}: {} cells reused, {} run -> {}",
            outcome.reused_cells,
            outcome.ran_cells,
            path.display()
        );
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    drop(sender);
    if let Some(mut plane) = live {
        // Flush the pipeline so /progress reports done and the final
        // metrics are folded, then keep the endpoints up for late scrapers.
        plane.finish();
        if linger_secs > 0 {
            eprintln!(
                "grinch-campaign: live plane lingering {linger_secs}s at http://{}",
                plane.addr()
            );
            std::thread::sleep(Duration::from_secs(linger_secs));
        }
        plane.shutdown();
    }
    record_run(&campaign, ran_cells, wall_ns)?;

    // Aggregate whatever the directory now covers. A partial run (--shard)
    // reports what is still missing instead of failing.
    let agg = aggregate_journals(&plan.journal_paths(&journal_dir))?;
    if !agg.is_complete() {
        eprintln!(
            "grinch-campaign: {} of {} cells journaled; {} still missing — run the remaining \
             shards, then `grinch-campaign aggregate`",
            agg.results.len(),
            campaign.num_cells(),
            agg.missing.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let matrix = agg.matrix()?;
    print!("{}", matrix.heat(Metric::SuccessRate).ascii());
    print!("{}", matrix.heat(Metric::EntropyBits).ascii());
    if let Some(svg_path) = svg {
        write_file(&svg_path, &matrix.heat(Metric::SuccessRate).svg())?;
        eprintln!("grinch-campaign: heatmap written to {svg_path}");
    }
    write_and_check(&matrix, &out, baseline)
}

fn cmd_status(mut args: Vec<String>) -> Result<ExitCode, String> {
    let journal_dir =
        take_value(&mut args, "--journal-dir")?.map_or_else(default_journal_dir, PathBuf::from);
    reject_leftover(&args)?;

    let paths = discover_journals(&journal_dir)?;
    if paths.is_empty() {
        println!("no journals under {}", journal_dir.display());
        return Ok(ExitCode::SUCCESS);
    }
    // Group journals by campaign identity, tolerating unloadable files.
    let mut campaigns: Vec<(String, usize, usize, usize)> = Vec::new(); // id, journals, done, total
    for path in &paths {
        let state = match grinch_arena::JournalState::load(path) {
            Ok(Some(state)) => state,
            Ok(None) => continue,
            Err(e) => {
                eprintln!("grinch-campaign: skipping {e}");
                continue;
            }
        };
        let done = state.cells.len();
        let target = state.target_cells().len();
        let tag = match state.shard {
            Some((index, of)) => format!("shard {index}/{of}"),
            None => "full grid".to_string(),
        };
        println!(
            "{}  {}  {}/{} cells  {}{}",
            state.campaign_id,
            tag,
            done,
            target,
            if state.finalized {
                "finalized"
            } else {
                "resumable"
            },
            if state.truncated_tail {
                "  (torn tail discarded)"
            } else {
                ""
            }
        );
        match campaigns
            .iter_mut()
            .find(|(id, ..)| *id == state.campaign_id)
        {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += done;
            }
            None => campaigns.push((state.campaign_id.clone(), 1, done, state.config.num_cells())),
        }
    }
    for (id, journals, done, total) in campaigns {
        println!(
            "campaign {id}: {journals} journal(s), {done}/{total} cells{}",
            if done >= total { " — complete" } else { "" }
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_aggregate(mut args: Vec<String>) -> Result<ExitCode, String> {
    let journal_dir =
        take_value(&mut args, "--journal-dir")?.map_or_else(default_journal_dir, PathBuf::from);
    let campaign_filter = take_value(&mut args, "--campaign")?;
    let out = take_value(&mut args, "--out")?.map(PathBuf::from);
    let baseline = baseline_arg(&mut args)?;
    reject_leftover(&args)?;

    let mut paths = discover_journals(&journal_dir)?;
    if let Some(id) = &campaign_filter {
        paths.retain(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(id.as_str()))
        });
    }
    let agg = aggregate_journals(&paths)?;
    let matrix = agg.matrix()?; // names the missing cells if incomplete
    eprintln!(
        "grinch-campaign: {} journal(s) -> campaign {} complete ({} cells)",
        agg.journals.len(),
        agg.campaign_id,
        agg.results.len()
    );
    let out = out.unwrap_or_else(|| journal_dir.join(format!("CAMPAIGN_{}.json", agg.campaign_id)));
    write_and_check(&matrix, &out, baseline)
}

fn cmd_serve(mut args: Vec<String>) -> Result<ExitCode, String> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:9091".to_string(),
        journal_dir: default_journal_dir(),
        ..ServeOptions::default()
    };
    if let Some(v) = take_value(&mut args, "--addr")? {
        opts.addr = v;
    }
    if let Some(v) = take_value(&mut args, "--journal-dir")? {
        opts.journal_dir = PathBuf::from(v);
    }
    if let Some(v) = take_num(&mut args, "--queue-capacity")? {
        opts.queue_capacity = v;
    }
    if let Some(v) = take_num::<usize>(&mut args, "--shards")? {
        opts.shards = v.max(1);
    }
    if let Some(v) = take_num(&mut args, "--jobs")? {
        opts.jobs = v;
    }
    if let Some(v) = take_num(&mut args, "--throttle-ms")? {
        opts.throttle_ms = v;
    }
    if let Some(v) = take_num(&mut args, "--retry-after-secs")? {
        opts.retry_after_secs = v;
    }
    let duration_secs = take_num(&mut args, "--duration-secs")?.unwrap_or(0);
    reject_leftover(&args)?;

    let handle = serve(opts).map_err(|e| format!("cannot start serve mode: {e}"))?;
    eprintln!(
        "grinch-campaign: serving on http://{} (POST /campaigns to submit)",
        handle.addr()
    );
    if duration_secs > 0 {
        std::thread::sleep(std::time::Duration::from_secs(duration_secs));
        eprintln!("grinch-campaign: --duration-secs elapsed, shutting down");
        handle.shutdown();
    } else {
        // Serve until the process is killed; journals make that safe.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    cli::main("grinch-campaign", USAGE, |cmd, args| match cmd {
        "run" => cmd_run(args),
        "status" => cmd_status(args),
        "aggregate" => cmd_aggregate(args),
        "serve" => cmd_serve(args),
        other => Err(format!("unknown subcommand {other:?}")),
    })
}
