//! `grinch-ct` — the workspace static analysis CLI: a secret-taint
//! constant-time engine and a determinism-hazard lint behind one binary.
//!
//! ```text
//! grinch-ct check [<path>] [--target DIR] [--line-bytes N]
//!                 [--deny-level leak|line-safe|none]
//!                 [--json] [--out FILE] [--sarif FILE]
//! grinch-ct determinism [<path>] [--target DIR]
//!                 [--allow SUFFIX[:KIND]]... [--deny-level leak|none]
//!                 [--json] [--out FILE] [--sarif FILE]
//! grinch-ct cross-validate <path> --trace <trace.jsonl>
//!                 [--defended-trace <trace.jsonl>]
//!                 [--impl-file FILE] [--line-bytes N]
//!                 [--mi-threshold BITS] [--json]
//! ```
//!
//! Exit codes: `0` clean / agreement, `1` deny-level violation or
//! static-vs-empirical disagreement, `2` usage or I/O error (including "no
//! .rs sources under <path>"; see [`grinch_obs::cli`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use grinch_ct::{analyze_dir_with, cross_check, determinism_dir, DenyLevel, TargetConfig};
use grinch_obs::cli::{self, reject_leftover, take_switch, take_value, write_file};
use grinch_telemetry::Snapshot;

const USAGE: &str = "\
grinch-ct: workspace static analysis — secret-taint constant-time checking
and determinism-hazard linting for Rust sources

usage:
  grinch-ct check [<path>] [--target DIR] [--line-bytes N]
                  [--deny-level leak|line-safe|none]
                  [--json] [--out FILE] [--sarif FILE]
      analyse every .rs file under <path> (or DIR/src for --target) with
      the taint engine; exit 1 if any unsuppressed finding violates the
      deny level (default: leak). --target DIR also reads DIR/ct-config.toml
      for secret roots, cache-line size, and determinism allows; without a
      config the built-in secret names/types apply, plus any `// ct-secret`
      annotations in the sources. --line-bytes overrides the cache-line
      granularity for severity (default 8: a table that fits in one 8-byte
      line is `line-safe`). --json prints the stable grinch-ct-report/v2
      document; --out also writes it to FILE; --sarif writes a SARIF 2.1.0
      document for CI annotation upload.
  grinch-ct determinism [<path>] [--target DIR]
                  [--allow SUFFIX[:KIND]]... [--deny-level leak|none]
                  [--json] [--out FILE] [--sarif FILE]
      lint for hazards that break byte-identical reruns: HashMap/HashSet
      iteration reaching serialization, RNG seeded from OS entropy,
      wall-clock values stored into artifact structs, thread-identity
      aggregation. --allow suppresses findings whose file label ends with
      SUFFIX (optionally restricted to one finding KIND); `[determinism]
      allow` in ct-config.toml does the same. Exit 1 on unsuppressed
      hazards unless --deny-level none.
  grinch-ct cross-validate <path> --trace <trace.jsonl>
                  [--defended-trace <trace.jsonl>]
                  [--impl-file FILE] [--line-bytes N]
                  [--mi-threshold BITS] [--json]
      join the static verdict for --impl-file (default: table.rs) with
      the per-stage mutual-information estimate grinch-obs extracts from
      the trace's attack.stage<r>.joint.* counters; exit 1 on
      disagreement. Default threshold: 0.01 bits. --defended-trace adds a
      second trace captured on a defended platform (`grinch-arena trace`
      emits one) and reports the MI drop and whether the defense pushed
      the channel below the threshold; it never affects the exit code —
      the static verdict is a source property.

suppressions:
  a `// ct-allow: <reason>` comment on (or directly above) a line flagged
  by the taint engine suppresses the finding; `// det-allow: <reason>`
  does the same for the determinism lint. Suppressed findings stay in the
  report (and surface as SARIF suppressions).
";

fn line_bytes_arg(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    match take_value(args, "--line-bytes")? {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .ok()
            .filter(|n| *n > 0)
            .map(Some)
            .ok_or_else(|| format!("--line-bytes: invalid value {v:?}")),
    }
}

/// What one `check`/`determinism` invocation analyses: a source directory,
/// the label stamped into the report's `target` field, and the per-target
/// config (defaults when no `ct-config.toml` exists).
struct Target {
    sources: PathBuf,
    label: String,
    config: TargetConfig,
}

/// Resolves `--target DIR` (crate directory: sources under `DIR/src` when
/// present, config from `DIR/ct-config.toml`) or a positional `<path>`
/// (sources as given, config from `<path>/ct-config.toml` if any).
fn resolve_target(args: &mut Vec<String>, cmd: &str) -> Result<Target, String> {
    if let Some(dir) = take_value(args, "--target")? {
        reject_leftover(args)?;
        let root = PathBuf::from(&dir);
        let config = TargetConfig::load(&root)?.unwrap_or_default();
        let src = root.join("src");
        let sources = if src.is_dir() { src } else { root };
        return Ok(Target {
            sources,
            label: dir,
            config,
        });
    }
    let path = args
        .pop()
        .ok_or_else(|| format!("{cmd}: missing <path> or --target DIR"))?;
    reject_leftover(args)?;
    let sources = PathBuf::from(&path);
    let config = TargetConfig::load(&sources)?.unwrap_or_default();
    Ok(Target {
        sources,
        label: path,
        config,
    })
}

/// Renders, writes, and gates one finished report; shared by both engines.
fn emit_report(
    report: &grinch_ct::Report,
    json: bool,
    out: Option<&str>,
    sarif: Option<&str>,
    deny: DenyLevel,
) -> Result<ExitCode, String> {
    let rendered = report.to_json();
    if let Some(out) = out {
        write_file(out, &rendered)?;
    }
    if let Some(sarif_path) = sarif {
        write_file(sarif_path, &grinch_ct::sarif::to_sarif(report))?;
    }
    if json {
        print!("{rendered}");
    } else {
        print!("{report}");
    }
    let denied = report.denied(deny);
    if denied > 0 {
        eprintln!(
            "grinch-ct: {denied} finding(s) violate deny level ({} unsuppressed total)",
            report.active().count()
        );
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_check(mut args: Vec<String>) -> Result<ExitCode, String> {
    let line_bytes = line_bytes_arg(&mut args)?;
    let deny = match take_value(&mut args, "--deny-level")? {
        None => DenyLevel::Leak,
        Some(v) => {
            DenyLevel::parse(&v).ok_or_else(|| format!("--deny-level: unknown level {v:?}"))?
        }
    };
    let json = take_switch(&mut args, "--json");
    let out = take_value(&mut args, "--out")?;
    let sarif = take_value(&mut args, "--sarif")?;
    let target = resolve_target(&mut args, "check")?;

    let line_bytes = line_bytes.or(target.config.line_bytes).unwrap_or(8);
    let report = analyze_dir_with(&target.sources, &target.config.secrets, line_bytes)
        .map_err(|e| e.to_string())?
        .with_target(&target.label);
    emit_report(&report, json, out.as_deref(), sarif.as_deref(), deny)
}

fn cmd_determinism(mut args: Vec<String>) -> Result<ExitCode, String> {
    let deny = match take_value(&mut args, "--deny-level")? {
        None => DenyLevel::Leak,
        Some(v) => {
            DenyLevel::parse(&v).ok_or_else(|| format!("--deny-level: unknown level {v:?}"))?
        }
    };
    let json = take_switch(&mut args, "--json");
    let out = take_value(&mut args, "--out")?;
    let sarif = take_value(&mut args, "--sarif")?;
    let mut allow = Vec::new();
    while let Some(entry) = take_value(&mut args, "--allow")? {
        allow.push(entry);
    }
    let target = resolve_target(&mut args, "determinism")?;
    allow.extend(target.config.det_allow.iter().cloned());

    let report =
        determinism_dir(&target.sources, &target.label, &allow).map_err(|e| e.to_string())?;
    emit_report(&report, json, out.as_deref(), sarif.as_deref(), deny)
}

fn cmd_cross_validate(mut args: Vec<String>) -> Result<ExitCode, String> {
    let line_bytes = line_bytes_arg(&mut args)?.unwrap_or(8);
    let trace = take_value(&mut args, "--trace")?.ok_or("cross-validate: missing --trace")?;
    let defended_trace = take_value(&mut args, "--defended-trace")?;
    let impl_file = take_value(&mut args, "--impl-file")?.unwrap_or_else(|| "table.rs".to_string());
    let threshold = match take_value(&mut args, "--mi-threshold")? {
        None => 0.01,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| format!("--mi-threshold: invalid value {v:?}"))?,
    };
    let json = take_switch(&mut args, "--json");
    let path = args.pop().ok_or("cross-validate: missing <path>")?;
    reject_leftover(&args)?;

    let report = analyze_dir_with(
        Path::new(&path),
        &grinch_ct::SecretConfig::default(),
        line_bytes,
    )
    .map_err(|e| e.to_string())?;
    if !report.files.iter().any(|f| f == &impl_file) {
        return Err(format!(
            "cross-validate: {impl_file:?} not among analysed files {:?}",
            report.files
        ));
    }
    let snapshot =
        Snapshot::from_jsonl_file(&trace).map_err(|e| format!("cannot read trace: {e}"))?;
    let mut check = cross_check(&report, &impl_file, &snapshot, threshold);
    if let Some(defended) = &defended_trace {
        let defended_snapshot = Snapshot::from_jsonl_file(defended)
            .map_err(|e| format!("cannot read defended trace: {e}"))?;
        check = check.with_defended_trace(&defended_snapshot);
    }
    if json {
        print!("{}", check.to_json());
    } else {
        println!("{}", check.verdict());
    }
    if check.agrees() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    cli::main("grinch-ct", USAGE, |cmd, args| match cmd {
        "check" => cmd_check(args),
        "determinism" => cmd_determinism(args),
        "cross-validate" => cmd_cross_validate(args),
        other => Err(format!("unknown subcommand {other:?}")),
    })
}
