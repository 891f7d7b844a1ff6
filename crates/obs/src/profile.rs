//! Span-profile aggregation: trace spans folded into per-stack self-time
//! totals and collapsed-stack (`.folded`) output.
//!
//! The telemetry layer records every span with simulated-ns start/end
//! stamps and parent links. A Chrome trace shows the raw timeline; this
//! module answers the profiler question instead — *where did the time
//! go?* — by attributing to every span its **self time** (duration minus
//! the time spent in child spans) and aggregating identical call stacks.
//!
//! The collapsed-stack format (`root;child;leaf 1234` per line) is the
//! lingua franca of flamegraph tooling: `inferno-flamegraph`,
//! `flamegraph.pl` and speedscope all load it directly. Self times are a
//! partition of the root spans' wall (simulated) time, so the totals sum
//! exactly to the root durations — pinned by test and checked on every
//! `PROFILE_<name>.folded` that [`crate::emit_telemetry_report`] writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use grinch_telemetry::Snapshot;

/// One aggregated stack: a root-to-leaf span-name path with its summed
/// self time and visit count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileLine {
    /// Span names from root to leaf (`["attack", "attack.stage"]`).
    pub stack: Vec<String>,
    /// Simulated ns spent in this stack itself, excluding child spans.
    pub self_ns: u64,
    /// Simulated ns spent in this stack including child spans.
    pub total_ns: u64,
    /// How many spans aggregated into this stack.
    pub count: u64,
}

/// A whole trace folded into aggregated stacks, ordered by stack path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanProfile {
    /// Aggregated stacks, sorted by path (deterministic output).
    pub lines: Vec<ProfileLine>,
    /// Summed duration of all *root* spans — the profile's 100% mark.
    pub root_total_ns: u64,
    /// Spans skipped because they never closed (no `end_ns`).
    pub open_spans: u64,
}

impl SpanProfile {
    /// Folds a snapshot's span tree into aggregated stacks.
    ///
    /// Open spans (guard leaked past the snapshot) are skipped and
    /// counted in [`open_spans`](SpanProfile::open_spans); children of an
    /// open span still attribute to their own stacks. For well-nested
    /// traces — every child interval inside its parent's — the self times
    /// sum exactly to [`root_total_ns`](SpanProfile::root_total_ns).
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let spans = &snapshot.spans;
        // Child time per parent id: what a parent must not double-count.
        let mut child_ns: Vec<u64> = vec![0; spans.len()];
        for span in spans {
            if let (Some(parent), Some(duration)) = (span.parent, span.duration_ns()) {
                if parent < child_ns.len() {
                    child_ns[parent] += duration;
                }
            }
        }

        let mut stacks: BTreeMap<Vec<String>, (u64, u64, u64)> = BTreeMap::new();
        let mut root_total_ns = 0u64;
        let mut open_spans = 0u64;
        for span in spans {
            let Some(duration) = span.duration_ns() else {
                open_spans += 1;
                continue;
            };
            if span.parent.is_none() {
                root_total_ns += duration;
            }
            let self_ns = duration.saturating_sub(child_ns[span.id]);
            // Root-to-leaf name path via parent links (ids are indices).
            let mut stack = Vec::with_capacity(span.depth + 1);
            let mut cursor = Some(span.id);
            while let Some(id) = cursor {
                stack.push(spans[id].name.clone());
                cursor = spans[id].parent;
            }
            stack.reverse();
            let entry = stacks.entry(stack).or_insert((0, 0, 0));
            entry.0 += self_ns;
            entry.1 += duration;
            entry.2 += 1;
        }

        Self {
            lines: stacks
                .into_iter()
                .map(|(stack, (self_ns, total_ns, count))| ProfileLine {
                    stack,
                    self_ns,
                    total_ns,
                    count,
                })
                .collect(),
            root_total_ns,
            open_spans,
        }
    }

    /// Sum of all per-stack self times; equals
    /// [`root_total_ns`](SpanProfile::root_total_ns) for well-nested
    /// traces.
    pub fn total_self_ns(&self) -> u64 {
        self.lines.iter().map(|l| l.self_ns).sum()
    }

    /// Renders the collapsed-stack (`.folded`) document: one
    /// `a;b;c <self_ns>` line per stack, loadable by inferno /
    /// `flamegraph.pl` / speedscope. Stacks with zero self time are kept —
    /// they still mark structure a flamegraph renders as frames.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{} {}", line.stack.join(";"), line.self_ns);
        }
        out
    }

    /// Renders a self-time table, hottest stack first, with percentages
    /// of the root total.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== span profile ({} stacks, {} simulated ns across roots) ==",
            self.lines.len(),
            self.root_total_ns
        );
        if self.open_spans > 0 {
            let _ = writeln!(out, "   ({} open spans skipped)", self.open_spans);
        }
        let _ = writeln!(
            out,
            "  {:>12} {:>7} {:>12} {:>8}  stack",
            "self ns", "self %", "total ns", "count"
        );
        let mut by_self: Vec<&ProfileLine> = self.lines.iter().collect();
        by_self.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then_with(|| a.stack.cmp(&b.stack))
        });
        for line in by_self {
            let pct = if self.root_total_ns > 0 {
                100.0 * line.self_ns as f64 / self.root_total_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:>12} {:>6.2}% {:>12} {:>8}  {}",
                line.self_ns,
                pct,
                line.total_ns,
                line.count,
                line.stack.join(";")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::{span, Telemetry};

    /// A two-root trace with nesting and repeated stacks.
    fn traced() -> Snapshot {
        let tel = Telemetry::new();
        {
            let _attack = span!(tel, "attack");
            tel.advance_time_ns(100); // attack self
            for _ in 0..2 {
                let _stage = span!(tel, "attack.stage");
                tel.advance_time_ns(300); // stage self
                {
                    let _probe = span!(tel, "attack.stage.probe");
                    tel.advance_time_ns(50); // probe self
                }
            }
            tel.advance_time_ns(25); // more attack self
        }
        {
            let _flush = span!(tel, "flush");
            tel.advance_time_ns(10);
        }
        tel.snapshot()
    }

    #[test]
    fn self_times_partition_the_root_durations() {
        let profile = SpanProfile::from_snapshot(&traced());
        // Roots: attack = 100 + 2*(300+50) + 25 = 825, flush = 10.
        assert_eq!(profile.root_total_ns, 835);
        assert_eq!(profile.total_self_ns(), profile.root_total_ns);
        assert_eq!(profile.open_spans, 0);

        let by_stack: BTreeMap<String, &ProfileLine> = profile
            .lines
            .iter()
            .map(|l| (l.stack.join(";"), l))
            .collect();
        let attack = by_stack["attack"];
        assert_eq!(
            (attack.self_ns, attack.total_ns, attack.count),
            (125, 825, 1)
        );
        let stage = by_stack["attack;attack.stage"];
        assert_eq!((stage.self_ns, stage.total_ns, stage.count), (600, 700, 2));
        let probe = by_stack["attack;attack.stage;attack.stage.probe"];
        assert_eq!((probe.self_ns, probe.count), (100, 2));
        assert_eq!(by_stack["flush"].self_ns, 10);
    }

    #[test]
    fn folded_output_is_flamegraph_loadable_lines() {
        let profile = SpanProfile::from_snapshot(&traced());
        let folded = profile.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.contains(&"attack;attack.stage 600"));
        assert!(lines.contains(&"flush 10"));
        for line in lines {
            let (stack, value) = line.rsplit_once(' ').expect("folded line has a value");
            assert!(!stack.is_empty());
            assert!(value.parse::<u64>().is_ok(), "self time parses: {line}");
        }
        // Folded totals reproduce the partition property.
        let sum: u64 = folded
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, profile.root_total_ns);
    }

    #[test]
    fn open_spans_are_skipped_but_counted() {
        let tel = Telemetry::new();
        let leaked = tel.span("leaked");
        tel.advance_time_ns(100);
        {
            let _child = tel.span("leaked.child");
            tel.advance_time_ns(40);
        }
        let snapshot = tel.snapshot(); // `leaked` still open here
        drop(leaked);
        let profile = SpanProfile::from_snapshot(&snapshot);
        assert_eq!(profile.open_spans, 1);
        assert_eq!(profile.root_total_ns, 0, "open root contributes no total");
        assert_eq!(profile.lines.len(), 1, "closed child still profiles");
        assert_eq!(profile.lines[0].stack, vec!["leaked", "leaked.child"]);
        assert_eq!(profile.lines[0].self_ns, 40);
    }

    #[test]
    fn report_orders_hottest_first() {
        let profile = SpanProfile::from_snapshot(&traced());
        let report = profile.report();
        let stage_pos = report.find("attack;attack.stage\n").unwrap();
        let flush_pos = report.find("flush\n").unwrap();
        assert!(stage_pos < flush_pos, "600ns stack before 10ns stack");
        assert!(report.contains("835 simulated ns"));
    }
}
