//! # grinch-ct
//!
//! A source-level static analysis suite for this workspace, with two
//! engines behind one CLI:
//!
//! * the **taint engine** (`grinch-ct check`) statically decides the
//!   property GRINCH exploits dynamically — *does this implementation's
//!   memory or control-flow shape depend on the key?* — for any target
//!   crate, with secret roots from `ct-config.toml` or `// ct-secret`
//!   annotations;
//! * the **determinism engine** (`grinch-ct determinism`) flags the hazards
//!   that would silently break the repo's byte-identity invariants:
//!   hash-order iteration reaching emission, unseeded RNG, wall-clock
//!   values in exported artifacts, thread-identity aggregation.
//!
//! The pipeline is entirely self-contained (no proc macros, no network
//! dependencies):
//!
//! 1. [`lexer`] — tokenizes Rust source and records `// ct-allow:`,
//!    `// det-allow:` and `// ct-secret` annotation comments;
//! 2. [`ast`] — a lightweight recursive-descent parser producing just enough
//!    structure for dataflow: functions, consts, structs, expressions;
//! 3. [`callgraph`] — crate-wide function table with module-local-first,
//!    unambiguous-only cross-module resolution;
//! 4. [`taint`] — crate-scoped, field-sensitive taint propagation from
//!    declared secret sources to five sink kinds: secret-dependent
//!    indexing, branches, loop bounds, early exits, and table strides;
//! 5. [`determinism`] — the byte-identity hazard lint;
//! 6. [`config`] — the per-target `ct-config.toml` loader;
//! 7. [`report`] — severity under a configurable cache-line model, deny
//!    policies, and stable JSON (`grinch-ct-report/v2`);
//! 8. [`sarif`] — SARIF 2.1.0 rendering for CI annotations;
//! 9. [`crossval`] — joins static verdicts with `grinch-obs` empirical
//!    mutual-information estimates from a telemetry trace, so the analyzer
//!    and the profiler check each other.
//!
//! ```
//! let src = "fn f(key: u64) -> u8 { T[(key & 0xf) as usize] }\nconst T: [u8; 16] = [0; 16];";
//! let report = grinch_ct::analyze_sources(&[("demo.rs".to_string(), src.to_string())], 8)
//!     .expect("parses");
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].kind, grinch_ct::report::FindingKind::SecretIndex);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod config;
pub mod crossval;
pub mod determinism;
pub mod lexer;
pub mod report;
pub mod sarif;
pub mod taint;

pub use config::TargetConfig;
pub use crossval::{cross_check, CrossCheck, DefendedCheck};
pub use report::{DenyLevel, Engine, Finding, FindingKind, Report, Severity};
pub use taint::{Registry, SecretConfig};

use std::path::Path;

/// An analysis-level error: I/O or parse failure with its file label.
#[derive(Clone, Debug)]
pub struct AnalysisError {
    /// File the error occurred in.
    pub file: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.message)
    }
}

impl std::error::Error for AnalysisError {}

/// Parses in-memory `(label, source)` pairs into ASTs.
pub fn parse_sources(
    sources: &[(String, String)],
) -> Result<Vec<(String, ast::SourceFile)>, AnalysisError> {
    let mut parsed = Vec::new();
    for (label, src) in sources {
        let file = ast::parse_file(src).map_err(|e| AnalysisError {
            file: label.clone(),
            message: format!("parse error at line {}: {}", e.line, e.message),
        })?;
        parsed.push((label.clone(), file));
    }
    Ok(parsed)
}

/// Analyzes in-memory `(label, source)` pairs with the default secret
/// configuration and the given cache-line size in bytes.
pub fn analyze_sources(
    sources: &[(String, String)],
    line_bytes: u64,
) -> Result<Report, AnalysisError> {
    analyze_sources_with(sources, &SecretConfig::default(), line_bytes)
}

/// Analyzes in-memory `(label, source)` pairs under an explicit secret
/// configuration.
pub fn analyze_sources_with(
    sources: &[(String, String)],
    config: &SecretConfig,
    line_bytes: u64,
) -> Result<Report, AnalysisError> {
    let parsed = parse_sources(sources)?;
    let registry = Registry::build(&parsed, config);
    let findings = taint::analyze_crate(&parsed, config, &registry);
    let files = parsed.into_iter().map(|(label, _)| label).collect();
    Ok(Report::new(findings, files, line_bytes))
}

/// Analyzes every `.rs` file under `path` with the default secret
/// configuration. Labels are paths relative to `path`.
pub fn analyze_dir(path: &Path, line_bytes: u64) -> Result<Report, AnalysisError> {
    analyze_dir_with(path, &SecretConfig::default(), line_bytes)
}

/// Analyzes every `.rs` file under `path` (a file or a directory, recursing
/// into subdirectories but skipping `target/`) under an explicit secret
/// configuration.
pub fn analyze_dir_with(
    path: &Path,
    config: &SecretConfig,
    line_bytes: u64,
) -> Result<Report, AnalysisError> {
    analyze_sources_with(&load_rs_sources(path)?, config, line_bytes)
}

/// Runs the determinism lint over every `.rs` file under `path`. The
/// `target` label lands in the report; `allow` holds config-level
/// suppressions (`file-suffix` or `file-suffix:kind` entries).
pub fn determinism_dir(
    path: &Path,
    target: &str,
    allow: &[String],
) -> Result<Report, AnalysisError> {
    let parsed = parse_sources(&load_rs_sources(path)?)?;
    let findings = determinism::lint_files(&parsed, allow);
    let files = parsed.into_iter().map(|(label, _)| label).collect();
    Ok(Report::determinism(findings, files, target.to_string()))
}

/// Reads every `.rs` file under `path` into `(label, source)` pairs, sorted
/// by label. Errors with `no .rs sources under <path>` if none exist (a
/// missing directory is the same condition: nothing to analyze is never a
/// pass).
pub fn load_rs_sources(path: &Path) -> Result<Vec<(String, String)>, AnalysisError> {
    let mut sources = Vec::new();
    if path.exists() {
        collect_rs_files(path, path, &mut sources)?;
    }
    sources.sort();
    if sources.is_empty() {
        return Err(AnalysisError {
            file: path.display().to_string(),
            message: format!("no .rs sources under {}", path.display()),
        });
    }
    sources
        .into_iter()
        .map(|(label, p)| {
            std::fs::read_to_string(&p)
                .map(|src| (label.clone(), src))
                .map_err(|e| AnalysisError {
                    file: label,
                    message: e.to_string(),
                })
        })
        .collect()
}

fn collect_rs_files(
    root: &Path,
    path: &Path,
    out: &mut Vec<(String, std::path::PathBuf)>,
) -> Result<(), AnalysisError> {
    let meta = std::fs::metadata(path).map_err(|e| AnalysisError {
        file: path.display().to_string(),
        message: e.to_string(),
    })?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            let label = path
                .strip_prefix(root)
                .map(|p| p.display().to_string())
                .ok()
                .filter(|l| !l.is_empty())
                .unwrap_or_else(|| {
                    path.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| path.display().to_string())
                });
            out.push((label, path.to_path_buf()));
        }
        return Ok(());
    }
    let entries = std::fs::read_dir(path).map_err(|e| AnalysisError {
        file: path.display().to_string(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalysisError {
            file: path.display().to_string(),
            message: e.to_string(),
        })?;
        let p = entry.path();
        if p.is_dir() {
            // Never wander into build output.
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(root, &p, out)?;
        } else {
            collect_rs_files(root, &p, out)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sources_end_to_end() {
        let sources =
            vec![
            (
                "leaky.rs".to_string(),
                "const T: [u8; 16] = [0; 16];\nfn f(key: u64) -> u8 { T[(key & 0xf) as usize] }"
                    .to_string(),
            ),
            ("clean.rs".to_string(), "fn g(x: u64) -> u64 { x ^ 1 }".to_string()),
        ];
        let report = analyze_sources(&sources, 8).expect("analyzes");
        assert_eq!(report.files.len(), 2);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].file, "leaky.rs");
        assert!(report.active_for_file("clean.rs").is_empty());
    }

    #[test]
    fn parse_errors_carry_the_file_label() {
        let sources = vec![("bad.rs".to_string(), "fn f( {".to_string())];
        let err = analyze_sources(&sources, 8).unwrap_err();
        assert_eq!(err.file, "bad.rs");
    }
}
