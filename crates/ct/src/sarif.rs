//! SARIF 2.1.0 rendering of a [`Report`], so CI can publish findings as
//! inline annotations via `github/codeql-action/upload-sarif`.
//!
//! The mapping is deliberately small and stable:
//!
//! * one `run` per report, `tool.driver.name` = `grinch-ct`, one
//!   `tool.driver.rules` entry per [`FindingKind`] that appears;
//! * one `result` per finding with `ruleId` = the kind's stable string,
//!   `level` from severity (`leak` → `error`, `hazard` → `warning`,
//!   `line-safe` → `note`), and a `physicalLocation` carrying the file and
//!   1-based line;
//! * suppressed findings keep their result but gain a `suppressions` entry
//!   (`kind: "inSource"`), which GitHub hides by default — exactly the
//!   semantics of `// ct-allow:` / `// det-allow:`.
//!
//! Rendering goes through the workspace's JSON writer, like the JSON
//! report, and is deterministic: rules sorted by id, results in report
//! order.

use crate::report::{list_layout, Finding, FindingKind, Report, Severity};
use grinch_telemetry::json::{Layout, ObjWriter};
use std::collections::BTreeMap;

/// Human-oriented one-line description per rule, shown by SARIF viewers.
fn rule_description(kind: FindingKind) -> &'static str {
    match kind {
        FindingKind::SecretIndex => "Secret-dependent array or table index",
        FindingKind::SecretBranch => "Secret-dependent branch condition",
        FindingKind::SecretLoopBound => "Secret-dependent loop trip count",
        FindingKind::SecretEarlyReturn => "Secret-dependent early return or loop exit",
        FindingKind::SecretStride => "Secret-dependent table access footprint",
        FindingKind::HashOrderEmission => "HashMap/HashSet iteration order reaches serialization",
        FindingKind::UnseededRng => "RNG constructed from OS entropy",
        FindingKind::WallClockArtifact => "Wall-clock value stored into an artifact struct",
        FindingKind::ThreadOrdering => "Thread identity feeds aggregation",
    }
}

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Leak => "error",
        Severity::Hazard => "warning",
        Severity::LineSafe => "note",
    }
}

/// Renders the report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    // Rules: one entry per kind that appears, sorted by stable id.
    let mut kinds: BTreeMap<&'static str, FindingKind> = BTreeMap::new();
    for f in &report.findings {
        kinds.insert(f.kind.as_str(), f.kind);
    }
    let mut w = ObjWriter::with_layout(Layout::Lines);
    w.str("version", "2.1.0")
        .str("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
        .arr("runs", Layout::Lines, |runs| {
            runs.obj(Layout::Lines, |run| {
                run.obj("tool", Layout::Lines, |tool| {
                    tool.obj("driver", Layout::Lines, |driver| {
                        driver
                            .str("name", "grinch-ct")
                            .str("informationUri", "https://example.invalid/grinch-ct")
                            .arr("rules", list_layout(kinds.len()), |a| {
                                for (id, kind) in &kinds {
                                    a.obj(Layout::Spaced, |rule| {
                                        rule.str("id", id).obj(
                                            "shortDescription",
                                            Layout::Spaced,
                                            |d| {
                                                d.str("text", rule_description(*kind));
                                            },
                                        );
                                    });
                                }
                            });
                    });
                })
                .arr("results", list_layout(report.findings.len()), |a| {
                    for f in &report.findings {
                        a.obj(Layout::Spaced, |o| write_result(o, f));
                    }
                });
            });
        });
    w.finish() + "\n"
}

fn write_result(o: &mut ObjWriter, f: &Finding) {
    let message = match f.provenance.first() {
        Some(root) => format!("{} ({}) [{}]", f.detail, f.function, root),
        None => format!("{} ({})", f.detail, f.function),
    };
    o.str("ruleId", f.kind.as_str())
        .str("level", level(f.severity))
        .obj("message", Layout::Spaced, |m| {
            m.str("text", &message);
        })
        .arr("locations", Layout::Spaced, |a| {
            a.obj(Layout::Spaced, |loc| {
                loc.obj("physicalLocation", Layout::Spaced, |p| {
                    p.obj("artifactLocation", Layout::Spaced, |u| {
                        u.str("uri", &f.file);
                    })
                    .obj("region", Layout::Spaced, |r| {
                        r.u64("startLine", u64::from(f.line));
                    });
                });
            });
        });
    if let Some(reason) = &f.suppressed {
        o.arr("suppressions", Layout::Spaced, |a| {
            a.obj(Layout::Spaced, |s| {
                s.str("kind", "inSource").str("justification", reason);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Report;

    fn sample() -> Report {
        let f = |kind: FindingKind, suppressed: Option<&str>| Finding {
            file: "src/table.rs".to_string(),
            line: 28,
            kind,
            function: "f".to_string(),
            table: None,
            table_bytes: None,
            severity: Severity::Leak,
            provenance: vec!["secret `key`".to_string()],
            suppressed: suppressed.map(str::to_string),
            detail: "secret-dependent index".to_string(),
        };
        Report::new(
            vec![
                f(FindingKind::SecretIndex, None),
                f(FindingKind::SecretBranch, Some("reviewed")),
            ],
            vec!["src/table.rs".to_string()],
            8,
        )
    }

    #[test]
    fn sarif_has_required_shape() {
        let sarif = to_sarif(&sample());
        // Required 2.1.0 fields, the shape CI's upload step depends on.
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"runs\": ["));
        assert!(sarif.contains("\"driver\": {"));
        assert!(sarif.contains("\"name\": \"grinch-ct\""));
        assert!(sarif.contains("\"rules\": ["));
        assert!(sarif.contains("\"id\": \"secret-index\""));
        assert!(sarif.contains("\"results\": ["));
        assert!(sarif.contains("\"locations\": [{\"physicalLocation\""));
        assert!(sarif.contains("\"startLine\": 28"));
    }

    #[test]
    fn severity_maps_to_sarif_levels() {
        let mut r = sample();
        r.findings[0].severity = Severity::LineSafe;
        let sarif = to_sarif(&r);
        assert!(sarif.contains("\"level\": \"note\""));
        assert!(sarif.contains("\"level\": \"error\""));
    }

    #[test]
    fn suppressed_findings_carry_suppressions() {
        let sarif = to_sarif(&sample());
        assert!(sarif.contains("\"suppressions\": [{\"kind\": \"inSource\""));
        assert!(sarif.contains("\"justification\": \"reviewed\""));
        assert_eq!(
            sarif,
            concat!(
                "{\n",
                "  \"version\": \"2.1.0\",\n",
                "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
                "  \"runs\": [\n",
                "    {\n",
                "      \"tool\": {\n",
                "        \"driver\": {\n",
                "          \"name\": \"grinch-ct\",\n",
                "          \"informationUri\": \"https://example.invalid/grinch-ct\",\n",
                "          \"rules\": [\n",
                "            {\"id\": \"secret-branch\", \"shortDescription\": {\"text\": \"Secret-dependent branch condition\"}},\n",
                "            {\"id\": \"secret-index\", \"shortDescription\": {\"text\": \"Secret-dependent array or table index\"}}\n",
                "          ]\n",
                "        }\n",
                "      },\n",
                "      \"results\": [\n",
                "        {\"ruleId\": \"secret-index\", \"level\": \"error\", \"message\": {\"text\": \"secret-dependent index (f) [secret `key`]\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"src/table.rs\"}, \"region\": {\"startLine\": 28}}}]},\n",
                "        {\"ruleId\": \"secret-branch\", \"level\": \"error\", \"message\": {\"text\": \"secret-dependent index (f) [secret `key`]\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"src/table.rs\"}, \"region\": {\"startLine\": 28}}}], \"suppressions\": [{\"kind\": \"inSource\", \"justification\": \"reviewed\"}]}\n",
                "      ]\n",
                "    }\n",
                "  ]\n",
                "}\n",
            )
        );
    }

    #[test]
    fn empty_report_is_valid() {
        let r = Report::new(Vec::new(), vec!["x.rs".to_string()], 8);
        let sarif = to_sarif(&r);
        assert!(sarif.contains("\"rules\": []"));
        assert!(sarif.contains("\"results\": []"));
        assert_eq!(sarif, to_sarif(&r), "deterministic");
        assert_eq!(
            sarif,
            concat!(
                "{\n",
                "  \"version\": \"2.1.0\",\n",
                "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n",
                "  \"runs\": [\n",
                "    {\n",
                "      \"tool\": {\n",
                "        \"driver\": {\n",
                "          \"name\": \"grinch-ct\",\n",
                "          \"informationUri\": \"https://example.invalid/grinch-ct\",\n",
                "          \"rules\": []\n",
                "        }\n",
                "      },\n",
                "      \"results\": []\n",
                "    }\n",
                "  ]\n",
                "}\n",
            )
        );
    }
}
