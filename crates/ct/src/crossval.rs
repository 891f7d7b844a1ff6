//! Cross-validation of static verdicts against empirical leakage.
//!
//! The static analyzer claims which implementations leak; the PR 2 profiler
//! (`grinch-obs::leakage`) measures mutual information I(pattern; line)
//! between forced key-nibble patterns and observed S-box cache lines on a
//! real telemetry trace. The two must agree:
//!
//! * static **leak** verdict ⇒ the trace should show MI well above zero
//!   (the secret-indexed lookup is empirically observable);
//! * static **clean** (or line-safe at the trace's granularity) ⇒ MI ≈ 0.
//!
//! A disagreement in either direction is a bug — in the analyzer, in the
//! profiler, or in the implementation under test — which is exactly why the
//! subcommand exists.
//!
//! The check optionally takes a *second* trace captured on a defended
//! platform (e.g. the arena's rekeyed `KeyedRemap` cache — see
//! `grinch-arena trace`). The static verdict is a property of the *source*
//! and does not change under a hardware defense; what changes is the
//! empirical channel. The joined report then also states the MI drop
//! (undefended minus defended) and whether the defense pushed the channel
//! below the leak threshold.

use crate::report::{Report, Severity};
use grinch_obs::leakage::stage_leakage;
use grinch_telemetry::json::{Layout, ObjWriter};
use grinch_telemetry::Snapshot;

/// Joined static/empirical verdict for one implementation file.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// File label the static verdict is for.
    pub file: String,
    /// True if the file has at least one unsuppressed `leak`-severity
    /// finding at the report's granularity.
    pub static_leak: bool,
    /// Unsuppressed finding count (any severity).
    pub static_findings: usize,
    /// Highest per-stage I(pattern; line) in bits seen in the trace.
    pub max_mi_bits: f64,
    /// Number of attack stages with joint counters in the trace.
    pub stages: usize,
    /// MI threshold (bits) above which the trace counts as leaking.
    pub threshold: f64,
    /// Empirical side of a defended-platform trace, when one was supplied.
    pub defended: Option<DefendedCheck>,
}

/// The empirical verdict for the defended-platform trace.
#[derive(Clone, Copy, Debug)]
pub struct DefendedCheck {
    /// Highest per-stage I(pattern; line) in bits under the defense.
    pub max_mi_bits: f64,
    /// Attack stages with joint counters in the defended trace.
    pub stages: usize,
}

impl CrossCheck {
    /// True if the empirical side saw leakage.
    pub fn empirical_leak(&self) -> bool {
        self.max_mi_bits > self.threshold
    }

    /// True if static and empirical verdicts agree. The defended trace has
    /// no say here: a hardware defense changes the channel, not the source.
    pub fn agrees(&self) -> bool {
        self.static_leak == self.empirical_leak()
    }

    /// MI lost to the defense (undefended minus defended), when a defended
    /// trace was supplied.
    pub fn mi_drop_bits(&self) -> Option<f64> {
        self.defended.map(|d| self.max_mi_bits - d.max_mi_bits)
    }

    /// Whether the defense pushed the empirical channel below the leak
    /// threshold, when a defended trace was supplied.
    pub fn defense_effective(&self) -> Option<bool> {
        self.defended.map(|d| d.max_mi_bits <= self.threshold)
    }

    /// One-line human verdict (two lines with a defended trace).
    pub fn verdict(&self) -> String {
        let s = if self.static_leak { "leak" } else { "clean" };
        let e = if self.empirical_leak() {
            "leaks"
        } else {
            "no leakage"
        };
        let a = if self.agrees() { "AGREE" } else { "DISAGREE" };
        let mut line = format!(
            "{}: static says {s} ({} finding(s)), trace says {e} \
             (max MI {:.4} bits over {} stage(s), threshold {}) => {a}",
            self.file, self.static_findings, self.max_mi_bits, self.stages, self.threshold
        );
        if let Some(d) = self.defended {
            let effect = if self.defense_effective() == Some(true) {
                "defense EFFECTIVE"
            } else {
                "defense INEFFECTIVE"
            };
            let _ = std::fmt::Write::write_fmt(
                &mut line,
                format_args!(
                    "\n{}: defended trace max MI {:.4} bits over {} stage(s), \
                     drop {:.4} bits => {effect}",
                    self.file,
                    d.max_mi_bits,
                    d.stages,
                    self.mi_drop_bits().unwrap_or(0.0)
                ),
            );
        }
        line
    }

    /// Stable JSON rendering of the joined verdict. The defended-trace
    /// fields are additive: they only appear when a defended trace was
    /// supplied, so v1 consumers keep parsing.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::with_layout(Layout::Lines);
        w.str("schema", "grinch-ct-crossval/v1")
            .str("file", &self.file)
            .bool("static_leak", self.static_leak)
            .u64("static_findings", self.static_findings as u64)
            .raw("max_mi_bits", &format!("{:.6}", self.max_mi_bits))
            .u64("stages", self.stages as u64)
            .raw("threshold", &self.threshold.to_string())
            .bool("empirical_leak", self.empirical_leak())
            .bool("agree", self.agrees());
        if let Some(d) = self.defended {
            w.raw("defended_max_mi_bits", &format!("{:.6}", d.max_mi_bits))
                .u64("defended_stages", d.stages as u64)
                .raw(
                    "mi_drop_bits",
                    &format!("{:.6}", self.mi_drop_bits().unwrap_or(0.0)),
                )
                .bool("defense_effective", self.defense_effective() == Some(true));
        }
        w.finish() + "\n"
    }

    /// Attaches the empirical verdict of a defended-platform trace.
    pub fn with_defended_trace(mut self, snapshot: &Snapshot) -> Self {
        let stages = stage_leakage(snapshot);
        self.defended = Some(DefendedCheck {
            max_mi_bits: stages.iter().map(|s| s.mi_bits()).fold(0.0f64, f64::max),
            stages: stages.len(),
        });
        self
    }
}

/// Joins the static report for `impl_file` with the per-stage MI estimates
/// extracted from `snapshot`'s `attack.stage<r>.joint.*` counters.
pub fn cross_check(
    report: &Report,
    impl_file: &str,
    snapshot: &Snapshot,
    threshold: f64,
) -> CrossCheck {
    let findings = report.active_for_file(impl_file);
    let static_leak = findings.iter().any(|f| f.severity == Severity::Leak);
    let stages = stage_leakage(snapshot);
    let max_mi_bits = stages.iter().map(|s| s.mi_bits()).fold(0.0f64, f64::max);
    CrossCheck {
        file: impl_file.to_string(),
        static_leak,
        static_findings: findings.len(),
        max_mi_bits,
        stages: stages.len(),
        threshold,
        defended: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Finding, FindingKind, Report};
    use grinch_telemetry::Telemetry;

    fn leaky_report() -> Report {
        Report::new(
            vec![Finding {
                file: "table.rs".to_string(),
                line: 28,
                kind: FindingKind::SecretIndex,
                function: "sbox_lookup".to_string(),
                table: Some("GIFT_SBOX".to_string()),
                table_bytes: Some(16),
                severity: Severity::Leak,
                provenance: Vec::new(),
                suppressed: None,
                detail: "d".to_string(),
            }],
            vec!["table.rs".to_string(), "bitwise.rs".to_string()],
            8,
        )
    }

    /// A synthetic trace where the observed line fully determines the
    /// pattern (maximal MI) or is constant (zero MI).
    fn trace(leaky: bool) -> Snapshot {
        let tel = Telemetry::new();
        for p in 0..4u8 {
            let line = if leaky { p as usize } else { 0 };
            tel.counter_add(&format!("attack.stage0.joint.p{p:x}.l{line}"), 32);
        }
        tel.snapshot()
    }

    #[test]
    fn leaky_static_and_leaky_trace_agree() {
        let check = cross_check(&leaky_report(), "table.rs", &trace(true), 0.05);
        assert!(check.static_leak);
        assert!(check.empirical_leak());
        assert!(check.agrees());
        assert!(check.max_mi_bits > 1.9, "4 distinct lines => ~2 bits");
    }

    #[test]
    fn clean_static_and_flat_trace_agree() {
        let check = cross_check(&leaky_report(), "bitwise.rs", &trace(false), 0.05);
        assert!(!check.static_leak);
        assert!(!check.empirical_leak());
        assert!(check.agrees());
    }

    #[test]
    fn disagreement_is_reported() {
        // Static says table.rs leaks, but the trace is flat: disagree.
        let check = cross_check(&leaky_report(), "table.rs", &trace(false), 0.05);
        assert!(!check.agrees());
        assert!(check.verdict().contains("DISAGREE"));
    }

    #[test]
    fn json_has_schema_and_agreement() {
        let check = cross_check(&leaky_report(), "table.rs", &trace(true), 0.05);
        let json = check.to_json();
        assert!(json.contains("\"schema\": \"grinch-ct-crossval/v1\""));
        assert!(json.contains("\"agree\": true"));
        assert!(
            !json.contains("defended"),
            "no defended fields without a defended trace"
        );
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"schema\": \"grinch-ct-crossval/v1\",\n",
                "  \"file\": \"table.rs\",\n",
                "  \"static_leak\": true,\n",
                "  \"static_findings\": 1,\n",
                "  \"max_mi_bits\": 2.000000,\n",
                "  \"stages\": 1,\n",
                "  \"threshold\": 0.05,\n",
                "  \"empirical_leak\": true,\n",
                "  \"agree\": true\n",
                "}\n",
            )
        );
    }

    #[test]
    fn defended_trace_reports_the_mi_drop() {
        let check = cross_check(&leaky_report(), "table.rs", &trace(true), 0.05)
            .with_defended_trace(&trace(false));
        assert!(check.agrees(), "defense must not flip the static verdict");
        let drop = check.mi_drop_bits().expect("defended trace attached");
        assert!(drop > 1.9, "flattened channel drops ~2 bits, got {drop}");
        assert_eq!(check.defense_effective(), Some(true));
        let verdict = check.verdict();
        assert!(verdict.contains("defense EFFECTIVE"), "{verdict}");
        let json = check.to_json();
        assert!(
            json.contains("\"defended_max_mi_bits\": 0.000000"),
            "{json}"
        );
        assert!(json.contains("\"defense_effective\": true"), "{json}");
        assert_eq!(
            json,
            concat!(
                "{\n",
                "  \"schema\": \"grinch-ct-crossval/v1\",\n",
                "  \"file\": \"table.rs\",\n",
                "  \"static_leak\": true,\n",
                "  \"static_findings\": 1,\n",
                "  \"max_mi_bits\": 2.000000,\n",
                "  \"stages\": 1,\n",
                "  \"threshold\": 0.05,\n",
                "  \"empirical_leak\": true,\n",
                "  \"agree\": true,\n",
                "  \"defended_max_mi_bits\": 0.000000,\n",
                "  \"defended_stages\": 1,\n",
                "  \"mi_drop_bits\": 2.000000,\n",
                "  \"defense_effective\": true\n",
                "}\n",
            )
        );
    }

    #[test]
    fn ineffective_defense_is_called_out() {
        // The "defended" trace leaks exactly like the undefended one — a
        // static KeyedRemap against Flush+Reload, say.
        let check = cross_check(&leaky_report(), "table.rs", &trace(true), 0.05)
            .with_defended_trace(&trace(true));
        assert_eq!(check.defense_effective(), Some(false));
        assert_eq!(check.mi_drop_bits(), Some(0.0));
        assert!(check.verdict().contains("defense INEFFECTIVE"));
    }
}
