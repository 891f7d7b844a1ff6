//! Chrome Trace Event Format export.
//!
//! Converts a telemetry [`Snapshot`] into the JSON object format consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of *complete* (`"ph":"X"`) span events plus
//! *counter* (`"ph":"C"`) samples for every counter and gauge, with
//! process/thread metadata so the track is labelled. Timestamps are the
//! simulation's nanoseconds converted to the format's microseconds; wall
//! time never appears, matching the emitter's contract.
//!
//! Reference: "Trace Event Format" (Google, catapult project). The subset
//! used here — `X`, `C` and `M` phases with `pid`/`tid`/`ts`/`dur`/`args` —
//! loads in both viewers.

use grinch_telemetry::json::{Layout, ObjWriter};
use grinch_telemetry::Snapshot;

/// Process id used for every event (one simulated process per trace).
const PID: u64 = 1;
/// Thread id for span events (the simulations are single-threaded).
const TID: u64 = 1;

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn metadata_event(name: &str, value: &str) -> String {
    let mut w = ObjWriter::new();
    w.str("name", name)
        .str("ph", "M")
        .u64("pid", PID)
        .u64("tid", TID)
        .obj("args", Layout::Compact, |a| {
            a.str("name", value);
        });
    w.finish()
}

fn counter_event(name: &str, ts: f64, value: impl FnOnce(&mut ObjWriter)) -> String {
    let mut w = ObjWriter::new();
    w.str("name", name)
        .str("ph", "C")
        .u64("pid", PID)
        .u64("tid", TID)
        .f64("ts", ts)
        .obj("args", Layout::Compact, value);
    w.finish()
}

/// Renders a snapshot as a Chrome Trace Event Format JSON document.
///
/// * Every closed span becomes a complete (`"X"`) event with its simulated
///   start and duration; still-open spans get duration 0 and an
///   `"open": 1` argument rather than being dropped.
/// * Spans whose clock ran backwards (experiments that re-seed the
///   simulated clock per cell) are clamped to duration 0 so the file stays
///   loadable.
/// * Counters and gauges become one `"C"` sample each at the snapshot's
///   final timestamp — the end-of-run totals, visible as counter tracks.
pub fn chrome_trace_json(snapshot: &Snapshot) -> String {
    let mut events: Vec<String> = Vec::with_capacity(snapshot.spans.len() + 8);
    events.push(metadata_event("process_name", "grinch (simulated time)"));
    events.push(metadata_event("thread_name", "attack"));

    for span in &snapshot.spans {
        let dur_ns = span
            .end_ns
            .map(|end| end.saturating_sub(span.start_ns))
            .unwrap_or(0);
        let mut w = ObjWriter::new();
        w.str("name", &span.name)
            .str("cat", "span")
            .str("ph", "X")
            .u64("pid", PID)
            .u64("tid", TID)
            .f64("ts", us(span.start_ns))
            .f64("dur", us(dur_ns))
            .obj("args", Layout::Compact, |a| {
                span.fields.iter().for_each(|(k, v)| v.write_json(a, k));
                if span.end_ns.is_none() {
                    a.u64("open", 1);
                }
            });
        events.push(w.finish());
    }

    let ts = us(snapshot.sim_time_ns);
    for (name, value) in &snapshot.counters {
        events.push(counter_event(name, ts, |a| {
            a.u64("value", *value);
        }));
    }
    for (name, value) in &snapshot.gauges {
        events.push(counter_event(name, ts, |a| {
            a.f64("value", *value);
        }));
    }

    // One event per line with no indent: a layout of its own, so the
    // event array is joined here rather than by the writer.
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::json::{parse, JsonValue};
    use grinch_telemetry::{span, Telemetry};

    fn trace_events(doc: &str) -> Vec<JsonValue> {
        let v = parse(doc).expect("chrome trace is valid JSON");
        match v.get("traceEvents").expect("traceEvents array") {
            JsonValue::Arr(events) => events.clone(),
            other => panic!("traceEvents is not an array: {other:?}"),
        }
    }

    fn sample() -> Telemetry {
        let tel = Telemetry::new();
        tel.set_time_ns(1_000);
        {
            let _attack = span!(tel, "attack", key_bits = 128u64);
            {
                let _stage = span!(tel, "attack.stage", round = 1u64);
                tel.advance_time_ns(5_500);
            }
            tel.counter_add("attack.probes", 42);
            tel.gauge_set("attack.entropy_bits", 12.0);
            tel.advance_time_ns(500);
        }
        tel
    }

    #[test]
    fn output_is_valid_trace_event_format() {
        let doc = chrome_trace_json(&sample().snapshot());
        assert_eq!(
            doc,
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"grinch (simulated time)\"}},\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"attack\"}},\n",
                "{\"name\":\"attack\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.0,\"dur\":6.0,\"args\":{\"key_bits\":128}},\n",
                "{\"name\":\"attack.stage\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.0,\"dur\":5.5,\"args\":{\"round\":1}},\n",
                "{\"name\":\"attack.probes\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7.0,\"args\":{\"value\":42}},\n",
                "{\"name\":\"attack.entropy_bits\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":7.0,\"args\":{\"value\":12.0}}\n",
                "]}",
            )
        );
        let events = trace_events(&doc);
        assert!(events.len() >= 6, "metadata + spans + counters");
        for e in &events {
            let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
            assert!(
                matches!(ph, "M" | "X" | "C"),
                "unexpected phase {ph:?} in {e:?}"
            );
            assert!(e.get("name").and_then(JsonValue::as_str).is_some());
            assert!(e.get("pid").and_then(JsonValue::as_u64).is_some());
            if ph != "M" {
                assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            }
            if ph == "X" {
                assert!(e.get("dur").and_then(JsonValue::as_f64).unwrap() >= 0.0);
            }
        }
    }

    #[test]
    fn spans_convert_to_microseconds_with_fields_as_args() {
        let doc = chrome_trace_json(&sample().snapshot());
        let events = trace_events(&doc);
        let stage = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("attack.stage"))
            .expect("stage span exported");
        assert_eq!(stage.get("ts").unwrap().as_f64(), Some(1.0)); // 1000 ns
        assert_eq!(stage.get("dur").unwrap().as_f64(), Some(5.5)); // 5500 ns
        assert_eq!(
            stage.get("args").unwrap().get("round").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn counters_and_gauges_become_counter_events() {
        let doc = chrome_trace_json(&sample().snapshot());
        let events = trace_events(&doc);
        let probe = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("attack.probes"))
            .expect("counter exported");
        assert_eq!(probe.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            probe.get("args").unwrap().get("value").unwrap().as_u64(),
            Some(42)
        );
        let entropy = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("attack.entropy_bits"))
            .expect("gauge exported");
        assert_eq!(
            entropy.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(12.0)
        );
    }

    #[test]
    fn open_and_backwards_spans_stay_loadable() {
        let tel = Telemetry::new();
        tel.set_time_ns(10_000);
        let guard = tel.span("open.span");
        let snap = tel.snapshot(); // span still open
        drop(guard);
        let doc = chrome_trace_json(&snap);
        let events = trace_events(&doc);
        let open = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("open.span"))
            .unwrap();
        assert_eq!(open.get("dur").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            open.get("args").unwrap().get("open").unwrap().as_u64(),
            Some(1)
        );

        // Clock re-seeded backwards mid-run (table2 style): dur clamps to 0.
        let tel = Telemetry::new();
        tel.set_time_ns(50_000);
        let guard = tel.span("cell");
        tel.set_time_ns(1_000);
        drop(guard);
        let doc = chrome_trace_json(&tel.snapshot());
        let events = trace_events(&doc);
        let cell = events
            .iter()
            .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("cell"))
            .unwrap();
        assert_eq!(cell.get("dur").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn empty_snapshot_exports_metadata_only() {
        let doc = chrome_trace_json(&Snapshot::default());
        let events = trace_events(&doc);
        assert_eq!(events.len(), 2, "process + thread metadata");
    }
}
