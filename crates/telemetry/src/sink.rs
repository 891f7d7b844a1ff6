//! Export sinks: JSONL (one metric/span per line), a human-readable
//! summary table, and a null sink that discards snapshots.

use std::fmt::Write as _;
use std::io;

use crate::json::{Layout, ObjWriter};
use crate::Snapshot;

/// Something a [`Snapshot`] can be exported to.
pub trait Sink {
    /// Exports one snapshot.
    fn export(&mut self, snapshot: &Snapshot) -> io::Result<()>;
}

/// Renders a snapshot as JSONL: a `meta` line, then one line per counter,
/// gauge, histogram and span. Each line is a flat JSON object with a
/// `type` discriminator, so `grep '"type":"counter"' trace.jsonl` and
/// similar one-liners work without tooling.
pub fn snapshot_to_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut meta = ObjWriter::new();
    meta.str("type", "meta")
        .u64("sim_time_ns", snapshot.sim_time_ns)
        .u64("counters", snapshot.counters.len() as u64)
        .u64("gauges", snapshot.gauges.len() as u64)
        .u64("histograms", snapshot.histograms.len() as u64)
        .u64("spans", snapshot.spans.len() as u64);
    out.push_str(&meta.finish());
    out.push('\n');

    for (name, value) in &snapshot.counters {
        let mut w = ObjWriter::new();
        w.str("type", "counter")
            .str("name", name)
            .u64("value", *value);
        out.push_str(&w.finish());
        out.push('\n');
    }
    for (name, value) in &snapshot.gauges {
        let mut w = ObjWriter::new();
        w.str("type", "gauge")
            .str("name", name)
            .f64("value", *value);
        out.push_str(&w.finish());
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let mut w = ObjWriter::new();
        w.str("type", "histogram")
            .str("name", name)
            .u64("count", h.count());
        // The sum can exceed u64 in pathological runs; JSON has no integer
        // width limit, so write the u128 digits directly.
        w.raw("sum", &h.sum().to_string());
        match (h.min(), h.max(), h.mean()) {
            (Some(min), Some(max), Some(mean)) => {
                w.u64("min", min).u64("max", max).f64("mean", mean);
                for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
                    w.u64(label, h.percentile(p).expect("non-empty"));
                }
            }
            _ => {
                w.null("min").null("max").null("mean");
            }
        }
        w.arr("buckets", Layout::Compact, |a| {
            for (lo, n) in h.nonzero_buckets() {
                a.arr(Layout::Compact, |pair| {
                    pair.u64(lo);
                    pair.u64(n);
                });
            }
        });
        out.push_str(&w.finish());
        out.push('\n');
    }
    for span in &snapshot.spans {
        let mut w = ObjWriter::new();
        w.str("type", "span")
            .u64("id", span.id as u64)
            .str("name", &span.name)
            .u64("depth", span.depth as u64);
        match span.parent {
            Some(p) => w.u64("parent", p as u64),
            None => w.null("parent"),
        };
        w.u64("start_ns", span.start_ns);
        match span.end_ns {
            Some(e) => w.u64("end_ns", e),
            None => w.null("end_ns"),
        };
        w.obj("fields", Layout::Compact, |o| {
            span.fields.iter().for_each(|(k, v)| v.write_json(o, k));
        });
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

/// A [`Sink`] writing JSONL to any `io::Write`.
///
/// The writer is flushed when the sink drops, so a bench bin that panics
/// (or forgets a final flush) with a buffered writer cannot leave a
/// truncated `.telemetry.jsonl` behind: whatever was exported is on disk
/// by the time the sink unwinds.
pub struct JsonlSink<W: io::Write> {
    // `None` only after `into_inner` has moved the writer out (drop must
    // not flush a writer the caller now owns).
    writer: Option<W>,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(writer),
        }
    }

    /// Unwraps the writer without flushing (the caller owns it again).
    pub fn into_inner(mut self) -> W {
        self.writer.take().expect("writer present until into_inner")
    }
}

impl<W: io::Write> Sink for JsonlSink<W> {
    fn export(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        self.writer
            .as_mut()
            .expect("writer present until into_inner")
            .write_all(snapshot_to_jsonl(snapshot).as_bytes())
    }
}

impl<W: io::Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(writer) = &mut self.writer {
            // Unwind-time best effort: surfacing an error from drop would
            // abort a panicking process.
            let _ = writer.flush();
        }
    }
}

/// Renders a fixed-width summary table of the registry: counters, gauges,
/// histogram percentiles, and a span tree indented by depth.
pub fn summary_string(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== telemetry summary (sim time {} ns) ==",
        snapshot.sim_time_ns
    );
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "-- counters --");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<44} {value:>14}");
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "-- gauges --");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:<44} {value:>14.3}");
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(
            out,
            "-- histograms --\n  {:<32} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "name", "count", "min", "p50", "p90", "p99", "max"
        );
        for (name, h) in &snapshot.histograms {
            if h.count() == 0 {
                let _ = writeln!(out, "  {name:<32} {:>10}", 0);
                continue;
            }
            let _ = writeln!(
                out,
                "  {name:<32} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
                h.count(),
                h.min().unwrap(),
                h.percentile(50.0).unwrap(),
                h.percentile(90.0).unwrap(),
                h.percentile(99.0).unwrap(),
                h.max().unwrap(),
            );
        }
    }
    if !snapshot.spans.is_empty() {
        let _ = writeln!(out, "-- spans --");
        for span in &snapshot.spans {
            let indent = "  ".repeat(span.depth + 1);
            let dur = span
                .duration_ns()
                .map_or_else(|| "open".to_string(), |d| format!("{d} ns"));
            let mut fields = String::new();
            for (i, (k, v)) in span.fields.iter().enumerate() {
                if i > 0 {
                    fields.push_str(", ");
                }
                let _ = write!(fields, "{k}={v}");
            }
            if !fields.is_empty() {
                fields = format!(" [{fields}]");
            }
            let _ = writeln!(
                out,
                "{indent}{} @{} ({dur}){fields}",
                span.name, span.start_ns
            );
        }
    }
    out
}

/// A [`Sink`] writing the summary table to any `io::Write`.
pub struct SummarySink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> SummarySink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }
}

impl<W: io::Write> Sink for SummarySink<W> {
    fn export(&mut self, snapshot: &Snapshot) -> io::Result<()> {
        self.writer.write_all(summary_string(snapshot).as_bytes())
    }
}

/// A [`Sink`] that discards snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn export(&mut self, _snapshot: &Snapshot) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::{span, Telemetry};

    /// A miniature attack run's worth of telemetry.
    fn small_run() -> Telemetry {
        let tel = Telemetry::new();
        {
            let _attack = span!(tel, "attack", key_bits = 128u64);
            for round in 0..2u64 {
                let _stage = span!(tel, "attack.stage", round = round);
                tel.counter_add("attack.probes", 16);
                tel.counter_add("cache.l1.hits", 12);
                tel.counter_add("cache.l1.misses", 4);
                tel.record_value("probe.latency_ns", 80 + round * 120);
                tel.advance_time_ns(1_000);
            }
            tel.gauge_set("attack.entropy_bits", 96.0);
        }
        tel
    }

    #[test]
    fn jsonl_round_trips_a_small_attack_run() {
        let tel = small_run();
        let jsonl = tel.to_jsonl();

        let lines: Vec<JsonValue> = jsonl
            .lines()
            .map(|l| parse(l).unwrap_or_else(|| panic!("invalid JSON line: {l}")))
            .collect();

        // Meta line first, consistent with the body.
        let meta = &lines[0];
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(meta.get("sim_time_ns").unwrap().as_u64(), Some(2_000));
        let of_type = |t: &str| {
            lines
                .iter()
                .filter(|v| v.get("type").and_then(JsonValue::as_str) == Some(t))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            of_type("counter").len() as u64,
            meta.get("counters").unwrap().as_u64().unwrap()
        );
        assert_eq!(
            of_type("span").len() as u64,
            meta.get("spans").unwrap().as_u64().unwrap()
        );

        // Counters round-trip by name and value.
        let probe_line = of_type("counter")
            .into_iter()
            .find(|v| v.get("name").and_then(JsonValue::as_str) == Some("attack.probes"))
            .expect("probes counter exported");
        assert_eq!(probe_line.get("value").unwrap().as_u64(), Some(32));

        // Gauge survives as a float.
        let gauge = &of_type("gauge")[0];
        assert_eq!(gauge.get("value").unwrap().as_f64(), Some(96.0));

        // Histogram carries count and percentile fields.
        let hist = &of_type("histogram")[0];
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(hist.get("min").unwrap().as_u64(), Some(80));
        assert_eq!(hist.get("max").unwrap().as_u64(), Some(200));
        assert!(hist.get("p50").unwrap().as_u64().is_some());
        let buckets = match hist.get("buckets").unwrap() {
            JsonValue::Arr(b) => b,
            other => panic!("buckets not an array: {other:?}"),
        };
        assert_eq!(buckets.len(), 2, "two distinct latency buckets");

        // Spans keep their tree: stage spans point at the attack root.
        let spans = of_type("span");
        assert_eq!(spans.len(), 3);
        let root = spans
            .iter()
            .find(|s| s.get("name").and_then(JsonValue::as_str) == Some("attack"))
            .unwrap();
        assert_eq!(root.get("parent"), Some(&JsonValue::Null));
        let root_id = root.get("id").unwrap().as_u64().unwrap();
        for stage in spans
            .iter()
            .filter(|s| s.get("name").and_then(JsonValue::as_str) == Some("attack.stage"))
        {
            assert_eq!(stage.get("parent").unwrap().as_u64(), Some(root_id));
            assert_eq!(stage.get("depth").unwrap().as_u64(), Some(1));
            assert!(stage.get("fields").unwrap().get("round").is_some());
        }

        // And the whole export re-renders identically from the snapshot.
        assert_eq!(jsonl, snapshot_to_jsonl(&tel.snapshot()));
    }

    #[test]
    fn jsonl_sink_writes_to_an_io_writer() {
        let tel = small_run();
        let mut sink = JsonlSink::new(Vec::new());
        sink.export(&tel.snapshot()).unwrap();
        let written = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(written, tel.to_jsonl());
    }

    #[test]
    fn summary_lists_metrics_and_indents_spans() {
        let tel = small_run();
        let summary = tel.summary();
        assert!(summary.contains("attack.probes"));
        assert!(summary.contains("attack.entropy_bits"));
        assert!(summary.contains("probe.latency_ns"));
        // Stage spans are nested one level under the attack root.
        assert!(summary.contains("\n  attack @"));
        assert!(summary.contains("\n    attack.stage @"));
    }

    /// An `io::Write` that records how often it was flushed.
    struct FlushCounting {
        flushes: std::rc::Rc<std::cell::Cell<usize>>,
        buf: Vec<u8>,
    }

    impl std::io::Write for FlushCounting {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.buf.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes.set(self.flushes.get() + 1);
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_even_through_a_panic() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let tel = small_run();
        {
            let mut sink = JsonlSink::new(FlushCounting {
                flushes: std::rc::Rc::clone(&flushes),
                buf: Vec::new(),
            });
            sink.export(&tel.snapshot()).unwrap();
            assert_eq!(flushes.get(), 0, "export alone does not flush");
        }
        assert_eq!(flushes.get(), 1, "drop flushes the writer");

        // The unwinding path a panicking bench bin takes.
        let flushes_panic = std::rc::Rc::new(std::cell::Cell::new(0));
        let cloned = std::rc::Rc::clone(&flushes_panic);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut sink = JsonlSink::new(FlushCounting {
                flushes: cloned,
                buf: Vec::new(),
            });
            sink.export(&Snapshot::default()).unwrap();
            panic!("bench bin died mid-run");
        }));
        assert!(result.is_err());
        assert_eq!(flushes_panic.get(), 1, "unwind still flushes");
    }

    #[test]
    fn jsonl_sink_into_inner_skips_the_drop_flush() {
        let flushes = std::rc::Rc::new(std::cell::Cell::new(0));
        let sink = JsonlSink::new(FlushCounting {
            flushes: std::rc::Rc::clone(&flushes),
            buf: Vec::new(),
        });
        let writer = sink.into_inner();
        assert_eq!(flushes.get(), 0, "the caller owns flushing again");
        drop(writer);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let tel = small_run();
        NullSink.export(&tel.snapshot()).unwrap();
        NullSink.export(&Snapshot::default()).unwrap();
    }

    #[test]
    fn disabled_handle_exports_empty_snapshot() {
        let tel = Telemetry::disabled();
        let jsonl = tel.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "meta line only");
        let meta = parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("counters").unwrap().as_u64(), Some(0));
    }
}
