//! Findings, severity under a cache-line model, deny policies, and the
//! stable JSON report (`grinch-ct-report/v2`).
//!
//! Severity is assigned *after* taint analysis because it depends on the
//! attacker's observation granularity: a secret-indexed table that fits in a
//! single cache line is invisible to a line-granularity observer (the
//! paper's wide-line countermeasure), but still leaks to a byte-granularity
//! one. Branches and loop bounds perturb the instruction stream and timing,
//! so they are leaks at every granularity. Determinism hazards (the second
//! engine) are not cache leaks at all — they threaten the repo's
//! byte-identity invariants — and carry their own `hazard` severity.

use grinch_telemetry::json::{Layout, ObjWriter};
use std::collections::BTreeMap;
use std::fmt;

/// The leak and hazard classes the two engines report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// Secret-dependent array/table index (load or store address).
    SecretIndex,
    /// Secret-dependent branch condition (`if`, `match`, guard, assert).
    SecretBranch,
    /// Secret-dependent loop trip count (range bound, `while`, `take`/`skip`).
    SecretLoopBound,
    /// Secret-dependent early exit (`return`, `break`, `continue` under a
    /// tainted branch).
    SecretEarlyReturn,
    /// Secret-dependent table footprint: branch arms touch different tables
    /// or access widths even though each index is public.
    SecretStride,
    /// Determinism: `HashMap`/`HashSet` iteration order reaching
    /// serialization or emission.
    HashOrderEmission,
    /// Determinism: RNG constructed outside the blessed seeded paths.
    UnseededRng,
    /// Determinism: wall-clock value stored into an exported artifact
    /// struct.
    WallClockArtifact,
    /// Determinism: thread-identity or scheduling order feeding aggregation.
    ThreadOrdering,
}

impl FindingKind {
    /// Stable identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::SecretIndex => "secret-index",
            FindingKind::SecretBranch => "secret-branch",
            FindingKind::SecretLoopBound => "secret-loop-bound",
            FindingKind::SecretEarlyReturn => "secret-early-return",
            FindingKind::SecretStride => "secret-stride",
            FindingKind::HashOrderEmission => "hash-order-emission",
            FindingKind::UnseededRng => "unseeded-rng",
            FindingKind::WallClockArtifact => "wall-clock-artifact",
            FindingKind::ThreadOrdering => "thread-ordering",
        }
    }

    /// Whether this kind comes from the determinism engine.
    pub fn is_hazard(self) -> bool {
        matches!(
            self,
            FindingKind::HashOrderEmission
                | FindingKind::UnseededRng
                | FindingKind::WallClockArtifact
                | FindingKind::ThreadOrdering
        )
    }
}

/// Severity of a finding under the configured cache-line granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The table fits in one cache line: a line-granularity observer learns
    /// nothing from which entry was read.
    LineSafe,
    /// Observable secret-dependent behavior at the configured granularity.
    Leak,
    /// A determinism hazard: not a cache leak, but a threat to byte-identity
    /// of exported artifacts.
    Hazard,
}

impl Severity {
    /// Stable identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::LineSafe => "line-safe",
            Severity::Leak => "leak",
            Severity::Hazard => "hazard",
        }
    }
}

/// Which engine produced a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Secret-taint dataflow (`grinch-ct check`).
    Taint,
    /// Byte-identity hazard lint (`grinch-ct determinism`).
    Determinism,
}

impl Engine {
    /// Stable identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Taint => "taint",
            Engine::Determinism => "determinism",
        }
    }
}

/// One analyzer finding with provenance.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File label (relative path) the finding is in.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Leak class.
    pub kind: FindingKind,
    /// Qualified name of the containing function.
    pub function: String,
    /// Const table being indexed, when identified.
    pub table: Option<String>,
    /// Total table size in bytes, when the definition was resolvable.
    pub table_bytes: Option<u64>,
    /// Severity under the report's cache-line model.
    pub severity: Severity,
    /// Human-readable taint chain from a declared secret to this site.
    pub provenance: Vec<String>,
    /// `ct-allow` reason if the finding is suppressed.
    pub suppressed: Option<String>,
    /// Short description of the leak site.
    pub detail: String,
}

/// How strict `grinch-ct check` is about findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenyLevel {
    /// Fail on any unsuppressed `leak`-severity finding (default).
    Leak,
    /// Fail on any unsuppressed finding, including `line-safe` ones.
    LineSafe,
    /// Never fail; report only.
    None,
}

impl DenyLevel {
    /// Parses a CLI value (`leak` | `line-safe` | `none`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "leak" => Some(DenyLevel::Leak),
            "line-safe" => Some(DenyLevel::LineSafe),
            "none" => Some(DenyLevel::None),
            _ => None,
        }
    }
}

/// A full analysis report over a set of files.
#[derive(Clone, Debug)]
pub struct Report {
    /// Engine that produced the findings.
    pub engine: Engine,
    /// Target label (the directory the engine was pointed at).
    pub target: String,
    /// Cache-line size (bytes) used for severity assignment.
    pub line_bytes: u64,
    /// All findings, including suppressed ones, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Labels of every file analyzed (so "clean" is distinguishable from
    /// "not analyzed").
    pub files: Vec<String>,
}

impl Report {
    /// Builds a taint report, assigning each finding's severity under the
    /// given cache-line size.
    pub fn new(findings: Vec<Finding>, files: Vec<String>, line_bytes: u64) -> Self {
        Report::build(Engine::Taint, String::new(), findings, files, line_bytes)
    }

    /// Builds a determinism report (all findings get `hazard` severity).
    pub fn determinism(findings: Vec<Finding>, files: Vec<String>, target: String) -> Self {
        Report::build(Engine::Determinism, target, findings, files, 0)
    }

    /// Sets the target label (builder-style, used by the CLI).
    pub fn with_target(mut self, target: &str) -> Self {
        self.target = target.to_string();
        self
    }

    fn build(
        engine: Engine,
        target: String,
        mut findings: Vec<Finding>,
        files: Vec<String>,
        line_bytes: u64,
    ) -> Self {
        for f in &mut findings {
            f.severity = match (f.kind, f.table_bytes) {
                _ if f.kind.is_hazard() => Severity::Hazard,
                (FindingKind::SecretIndex, Some(bytes)) if bytes <= line_bytes => {
                    Severity::LineSafe
                }
                _ => Severity::Leak,
            };
        }
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.kind, &a.detail).cmp(&(&b.file, b.line, b.kind, &b.detail))
        });
        Report {
            engine,
            target,
            line_bytes,
            findings,
            files,
        }
    }

    /// Findings that are not suppressed by a `ct-allow` comment.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Number of findings that violate the given deny level.
    pub fn denied(&self, level: DenyLevel) -> usize {
        match level {
            DenyLevel::None => 0,
            DenyLevel::Leak => self
                .active()
                .filter(|f| matches!(f.severity, Severity::Leak | Severity::Hazard))
                .count(),
            DenyLevel::LineSafe => self.active().count(),
        }
    }

    /// Unsuppressed findings for one file label.
    pub fn active_for_file(&self, file: &str) -> Vec<&Finding> {
        self.active().filter(|f| f.file == file).collect()
    }

    /// Stable JSON rendering (schema `grinch-ct-report/v2`). Keys and
    /// ordering are deterministic so CI diffs are meaningful; the per-finding
    /// objects are rendered exactly as in v1 so pinned verdicts carry over
    /// byte-for-byte.
    pub fn to_json(&self) -> String {
        let count = |sev: Severity| self.active().filter(|f| f.severity == sev).count() as u64;
        let mut w = ObjWriter::with_layout(Layout::Lines);
        w.str("schema", "grinch-ct-report/v2")
            .str("engine", self.engine.as_str())
            .str("target", &self.target)
            .u64("line_bytes", self.line_bytes)
            .arr("files", Layout::Spaced, |a| {
                self.files.iter().for_each(|f| a.str(f));
            })
            .obj("counts", Layout::Spaced, |o| {
                o.u64("leak", count(Severity::Leak))
                    .u64("line_safe", count(Severity::LineSafe))
                    .u64("hazard", count(Severity::Hazard))
                    .u64(
                        "suppressed",
                        (self.findings.len() - self.active().count()) as u64,
                    );
            })
            .arr("findings", list_layout(self.findings.len()), |a| {
                for f in &self.findings {
                    a.obj(Layout::Spaced, |o| f.write(o));
                }
            });
        w.finish() + "\n"
    }
}

/// The layout of a report list: one item per line, or `[]` when empty.
pub(crate) fn list_layout(len: usize) -> Layout {
    if len == 0 {
        Layout::Spaced
    } else {
        Layout::Lines
    }
}

impl Finding {
    fn write(&self, o: &mut ObjWriter) {
        o.str("file", &self.file)
            .u64("line", u64::from(self.line))
            .str("kind", self.kind.as_str())
            .str("function", &self.function);
        match &self.table {
            Some(t) => o.str("table", t),
            None => o.null("table"),
        };
        match self.table_bytes {
            Some(b) => o.u64("table_bytes", b),
            None => o.null("table_bytes"),
        };
        o.str("severity", self.severity.as_str());
        match &self.suppressed {
            Some(r) => o.str("suppressed", r),
            None => o.null("suppressed"),
        };
        o.str("detail", &self.detail)
            .arr("provenance", Layout::Spaced, |a| {
                self.provenance.iter().for_each(|p| a.str(p));
            });
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "grinch-ct report ({} file(s), {}-byte cache lines)",
            self.files.len(),
            self.line_bytes
        )?;
        let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
        for file in &self.files {
            by_file.entry(file).or_default();
        }
        for finding in &self.findings {
            by_file.entry(&finding.file).or_default().push(finding);
        }
        for (file, findings) in &by_file {
            if findings.is_empty() {
                writeln!(f, "\n{file}: clean")?;
                continue;
            }
            writeln!(f, "\n{file}: {} finding(s)", findings.len())?;
            for fd in findings {
                let tag = match &fd.suppressed {
                    Some(reason) => format!("allowed: {reason}"),
                    None => fd.severity.as_str().to_string(),
                };
                writeln!(
                    f,
                    "  {}:{} [{}] [{}] in `{}`: {}",
                    fd.file,
                    fd.line,
                    fd.kind.as_str(),
                    tag,
                    fd.function,
                    fd.detail
                )?;
                if let (Some(table), Some(bytes)) = (&fd.table, fd.table_bytes) {
                    writeln!(f, "      table `{table}` spans {bytes} bytes")?;
                }
                for step in &fd.provenance {
                    writeln!(f, "      via {step}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(kind: FindingKind, table_bytes: Option<u64>, suppressed: Option<&str>) -> Finding {
        Finding {
            file: "x.rs".to_string(),
            line: 1,
            kind,
            function: "f".to_string(),
            table: table_bytes.map(|_| "T".to_string()),
            table_bytes,
            severity: Severity::Leak,
            provenance: vec!["secret `key`".to_string()],
            suppressed: suppressed.map(str::to_string),
            detail: "d".to_string(),
        }
    }

    #[test]
    fn small_table_is_line_safe_at_wide_lines_only() {
        let wide = Report::new(
            vec![finding(FindingKind::SecretIndex, Some(8), None)],
            vec!["x.rs".to_string()],
            8,
        );
        assert_eq!(wide.findings[0].severity, Severity::LineSafe);
        let byte = Report::new(
            vec![finding(FindingKind::SecretIndex, Some(8), None)],
            vec!["x.rs".to_string()],
            1,
        );
        assert_eq!(byte.findings[0].severity, Severity::Leak);
    }

    #[test]
    fn branches_leak_at_every_granularity() {
        let r = Report::new(
            vec![finding(FindingKind::SecretBranch, None, None)],
            vec!["x.rs".to_string()],
            64,
        );
        assert_eq!(r.findings[0].severity, Severity::Leak);
    }

    #[test]
    fn deny_levels() {
        let r = Report::new(
            vec![
                finding(FindingKind::SecretIndex, Some(8), None),
                finding(FindingKind::SecretIndex, Some(16), None),
                finding(FindingKind::SecretBranch, None, Some("reviewed")),
            ],
            vec!["x.rs".to_string()],
            8,
        );
        assert_eq!(r.denied(DenyLevel::None), 0);
        assert_eq!(r.denied(DenyLevel::Leak), 1); // 16-byte table only
        assert_eq!(r.denied(DenyLevel::LineSafe), 2); // + line-safe finding
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut f = finding(FindingKind::SecretIndex, Some(16), None);
        f.detail = "quote \" and\nnewline".to_string();
        let r = Report::new(vec![f], vec!["x.rs".to_string()], 8);
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"grinch-ct-report/v2\""));
        assert!(json.contains("\"engine\": \"taint\""));
        assert!(json.contains("\\\" and\\nnewline"));
        assert_eq!(json, r.to_json(), "rendering must be deterministic");
    }

    #[test]
    fn determinism_reports_carry_hazard_severity_and_deny() {
        let mut f = finding(FindingKind::HashOrderEmission, None, None);
        f.detail = "HashMap iteration feeds JSON".to_string();
        let r = Report::determinism(vec![f], vec!["x.rs".to_string()], "crates/x".to_string());
        assert_eq!(r.findings[0].severity, Severity::Hazard);
        assert_eq!(r.denied(DenyLevel::Leak), 1, "hazards deny at leak level");
        let json = r.to_json();
        assert!(json.contains("\"engine\": \"determinism\""));
        assert!(json.contains("\"target\": \"crates/x\""));
        assert!(json.contains("\"hazard\": 1"));
    }

    #[test]
    fn empty_report_renders_clean_files() {
        let r = Report::new(Vec::new(), vec!["bitwise.rs".to_string()], 8);
        assert!(r.to_json().contains("\"findings\": []"));
        assert!(format!("{r}").contains("bitwise.rs: clean"));
    }
}
