//! Crash flight recorder: a fixed-size ring of the most recent telemetry
//! events, dumped to JSON when the process panics.
//!
//! The JSONL sink is post-hoc — it writes one snapshot at clean exit, so a
//! run that dies mid-campaign leaves nothing behind. The flight recorder
//! fills that gap, black-box style: every counter add, gauge set,
//! histogram sample and span open/close also appends a tiny fixed-cost
//! event to a bounded [`VecDeque`] inside the registry
//! ([`Telemetry::enable_flight_recorder`]). On a panic, a process-global
//! hook (installed once, chained in front of the default hook) writes the
//! ring — plus the still-open span stack — to `FLIGHT_<name>.json`
//! (schema [`FLIGHT_SCHEMA`]) for `grinch-report postmortem` to read.
//!
//! Design constraints, all pinned by test:
//!
//! * **No export perturbation.** The ring never enters [`Snapshot`]s, so
//!   the JSONL export is byte-identical with and without the recorder.
//! * **No hot-path strings.** Events store slot indices / span ids; names
//!   resolve only at dump time.
//! * **Panic-safe.** The hook runs on the panicking thread *before*
//!   unwinding, so the open-span stack is still intact; every borrow in
//!   the dump path is a `try_*` so a panic mid-borrow degrades to "no
//!   dump" instead of a double panic.
//!
//! ```
//! use grinch_telemetry::Telemetry;
//!
//! let tel = Telemetry::new();
//! tel.enable_flight_recorder(16);
//! tel.counter_add("probes", 3);
//! let dump = tel.flight_dump("demo").expect("recorder enabled");
//! assert!(dump.contains("\"schema\":\"grinch-flight/v1\""));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Once;

use crate::json::{Layout, ObjWriter};
use crate::Telemetry;

/// Schema tag stamped into every flight dump.
pub const FLIGHT_SCHEMA: &str = "grinch-flight/v1";

/// Ring capacity used by [`Telemetry::enable_flight_recorder`] callers
/// that have no reason to pick their own: large enough to cover the tail
/// of a campaign cell, small enough to be free.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What one recorded event was. Slot indices / span ids are resolved to
/// names only when a dump is rendered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RawKind {
    /// A counter update; `value` is the new cumulative value.
    Counter { slot: u32, value: u64 },
    /// A gauge update; `value` is the new value.
    Gauge { slot: u32, value: f64 },
    /// A histogram sample; `value` is the sample itself.
    Histogram { slot: u32, value: u64 },
    /// A span was opened.
    SpanOpen { id: usize },
    /// A span was closed.
    SpanClose { id: usize },
}

/// One ring entry: a monotone event index, the simulated clock at record
/// time, and the event itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RawEvent {
    pub(crate) index: u64,
    pub(crate) sim_time_ns: u64,
    pub(crate) kind: RawKind,
}

/// The bounded event ring. Lives inside the registry (`Inner`), so pushes
/// happen under the borrow the instrumentation call already holds — no
/// extra locking, no allocation past capacity.
#[derive(Clone, Debug)]
pub(crate) struct FlightRing {
    capacity: usize,
    total: u64,
    events: VecDeque<RawEvent>,
}

impl FlightRing {
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            total: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    pub(crate) fn push(&mut self, sim_time_ns: u64, kind: RawKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(RawEvent {
            index: self.total,
            sim_time_ns,
            kind,
        });
        self.total += 1;
    }

    /// Events recorded over the ring's lifetime.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Events that fell off the front of the ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.total - self.events.len() as u64
    }
}

impl crate::Inner {
    /// Appends an event to the flight ring, if one is enabled. Called from
    /// every mutation site while the registry borrow is already held.
    #[inline]
    pub(crate) fn flight_record(&mut self, kind: RawKind) {
        if let Some(ring) = &mut self.flight {
            ring.push(self.now_ns, kind);
        }
    }
}

impl Telemetry {
    /// Turns the flight recorder on with a ring of `capacity` events
    /// (clamped to ≥ 1; [`DEFAULT_FLIGHT_CAPACITY`] is the conventional
    /// choice). Re-enabling resets the ring. No-op on a disabled handle.
    ///
    /// The recorder is explicitly opt-in rather than always-on so the
    /// simulation hot path keeps its measured per-event cost by default.
    pub fn enable_flight_recorder(&self, capacity: usize) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().flight = Some(FlightRing::new(capacity));
        }
    }

    /// Whether a flight ring is currently attached.
    pub fn flight_recorder_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.borrow().flight.is_some())
    }

    /// Renders the current ring as a [`FLIGHT_SCHEMA`] JSON document.
    /// `None` when the handle is disabled or the recorder was never
    /// enabled.
    pub fn flight_dump(&self, name: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let inner = inner.borrow();
        render_dump(&inner, name)
    }

    /// [`flight_dump`](Telemetry::flight_dump) through `try_borrow`: the
    /// panic-hook path, safe even if the registry borrow is live at the
    /// panic site (then it degrades to `None` instead of aborting).
    fn try_flight_dump(&self, name: &str) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let inner = inner.try_borrow().ok()?;
        render_dump(&inner, name)
    }

    /// Registers this handle for a flight dump to `path` should the
    /// current thread panic. The hook chains in front of the existing
    /// panic hook (installed once per process) and runs before unwinding,
    /// so open spans are captured as open. No-op when the handle is
    /// disabled or the recorder is off — enable it first.
    pub fn install_flight_dump_on_panic(&self, name: &str, path: impl Into<PathBuf>) {
        if !self.flight_recorder_enabled() {
            return;
        }
        install_global_hook();
        let target = DumpTarget {
            telemetry: self.clone(),
            name: name.to_string(),
            path: path.into(),
        };
        PANIC_DUMPS.with(|dumps| dumps.borrow_mut().push(target));
    }
}

fn render_dump(inner: &crate::Inner, name: &str) -> Option<String> {
    let ring = inner.flight.as_ref()?;

    let mut w = ObjWriter::new();
    w.str("schema", FLIGHT_SCHEMA)
        .str("name", name)
        .u64("capacity", ring.capacity as u64)
        .u64("events_total", ring.total())
        .u64("dropped", ring.dropped())
        .u64("sim_time_ns", inner.now_ns)
        .arr("open_spans", Layout::Compact, |a| {
            for &id in &inner.open {
                let span = &inner.spans[id];
                a.obj(Layout::Compact, |w| {
                    w.u64("id", id as u64)
                        .str("name", &span.name)
                        .u64("depth", span.depth as u64)
                        .u64("start_ns", span.start_ns);
                });
            }
        })
        .arr("events", Layout::Compact, |a| {
            for event in &ring.events {
                a.obj(Layout::Compact, |w| write_event(w, inner, event));
            }
        });
    Some(w.finish())
}

fn write_event(w: &mut ObjWriter, inner: &crate::Inner, event: &RawEvent) {
    w.u64("i", event.index).u64("t", event.sim_time_ns);
    match event.kind {
        RawKind::Counter { slot, value } => {
            w.str("kind", "counter")
                .str("name", &inner.counters[slot as usize].name)
                .u64("value", value);
        }
        RawKind::Gauge { slot, value } => {
            w.str("kind", "gauge")
                .str("name", &inner.gauges[slot as usize].name)
                .f64("value", value);
        }
        RawKind::Histogram { slot, value } => {
            w.str("kind", "hist")
                .str("name", &inner.histograms[slot as usize].name)
                .u64("value", value);
        }
        RawKind::SpanOpen { id } => {
            w.str("kind", "span_open")
                .str("name", &inner.spans[id].name)
                .u64("span", id as u64);
        }
        RawKind::SpanClose { id } => {
            w.str("kind", "span_close")
                .str("name", &inner.spans[id].name)
                .u64("span", id as u64);
        }
    }
}

struct DumpTarget {
    telemetry: Telemetry,
    name: String,
    path: PathBuf,
}

thread_local! {
    /// Dump targets registered by this thread. `Telemetry` is `Rc`-based,
    /// so a registry is only reachable from the thread that made it — a
    /// thread-local fits exactly, and the global hook simply asks the
    /// *panicking* thread for its targets.
    static PANIC_DUMPS: RefCell<Vec<DumpTarget>> = const { RefCell::new(Vec::new()) };
}

static HOOK_INSTALL: Once = Once::new();

fn install_global_hook() {
    HOOK_INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            write_registered_dumps();
            previous(info);
        }));
    });
}

/// Writes every dump registered by the current thread. Every step is a
/// `try_*`: a poisoned thread-local or live registry borrow must degrade
/// to a skipped dump, never a panic inside the panic hook.
fn write_registered_dumps() {
    let _ = PANIC_DUMPS.try_with(|dumps| {
        let Ok(dumps) = dumps.try_borrow() else {
            return;
        };
        for target in dumps.iter() {
            let Some(dump) = target.telemetry.try_flight_dump(&target.name) else {
                continue;
            };
            if let Some(parent) = target.path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(&target.path, dump) {
                let mut msg = String::new();
                let _ = write!(
                    msg,
                    "flight recorder: failed to write {}: {e}",
                    target.path.display()
                );
                eprintln!("{msg}");
            } else {
                eprintln!("flight recorder: wrote {}", target.path.display());
            }
        }
    });
}

/// Reads `events_total` back out of a dump — a convenience for tests and
/// smoke checks; the full reader lives in `grinch-obs`.
pub fn dump_event_count(dump: &str) -> Option<u64> {
    let value = crate::json::parse(dump)?;
    value.get("events_total")?.as_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = FlightRing::new(3);
        for i in 0..5u64 {
            ring.push(i, RawKind::Counter { slot: 0, value: i });
        }
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.dropped(), 2);
        let indices: Vec<u64> = ring.events.iter().map(|e| e.index).collect();
        assert_eq!(indices, vec![2, 3, 4]);
    }

    #[test]
    fn dump_resolves_names_and_open_spans() {
        let tel = Telemetry::new();
        tel.enable_flight_recorder(16);
        let outer = span!(tel, "attack");
        tel.advance_time_ns(10);
        let inner = span!(tel, "attack.stage");
        tel.counter_add("probes", 3);
        tel.counter_add("probes", 4);
        tel.gauge_set("entropy", 1.5);
        tel.record_value("latency", 80);

        let dump = tel.flight_dump("demo").expect("recorder enabled");
        assert!(dump.starts_with("{\"schema\":\"grinch-flight/v1\""));
        assert!(dump.contains("\"name\":\"demo\""));
        // Counter events carry the new cumulative value.
        assert!(dump.contains("\"kind\":\"counter\",\"name\":\"probes\",\"value\":3"));
        assert!(dump.contains("\"kind\":\"counter\",\"name\":\"probes\",\"value\":7"));
        assert!(dump.contains("\"kind\":\"gauge\",\"name\":\"entropy\",\"value\":1.5"));
        assert!(dump.contains("\"kind\":\"hist\",\"name\":\"latency\",\"value\":80"));
        // Both spans are still open; innermost last.
        let open_start = dump.find("\"open_spans\":[").unwrap();
        let open_end = dump[open_start..].find(']').unwrap() + open_start;
        let open = &dump[open_start..open_end];
        let attack_pos = open.find("\"name\":\"attack\"").unwrap();
        let stage_pos = open.find("\"name\":\"attack.stage\"").unwrap();
        assert!(attack_pos < stage_pos, "innermost open span renders last");
        assert_eq!(dump_event_count(&dump), Some(6)); // 2 opens + 4 metric events
        assert_eq!(
            dump,
            concat!(
                "{\"schema\":\"grinch-flight/v1\",\"name\":\"demo\",\"capacity\":16,\"events_total\":6,",
                "\"dropped\":0,\"sim_time_ns\":10,\"open_spans\":[{\"id\":0,\"name\":\"attack\",",
                "\"depth\":0,\"start_ns\":0},{\"id\":1,\"name\":\"attack.stage\",\"depth\":1,",
                "\"start_ns\":10}],\"events\":[{\"i\":0,\"t\":0,\"kind\":\"span_open\",\"name\":\"attack\",",
                "\"span\":0},{\"i\":1,\"t\":10,\"kind\":\"span_open\",\"name\":\"attack.stage\",",
                "\"span\":1},{\"i\":2,\"t\":10,\"kind\":\"counter\",\"name\":\"probes\",\"value\":3},",
                "{\"i\":3,\"t\":10,\"kind\":\"counter\",\"name\":\"probes\",\"value\":7},{\"i\":4,",
                "\"t\":10,\"kind\":\"gauge\",\"name\":\"entropy\",\"value\":1.5},{\"i\":5,\"t\":10,",
                "\"kind\":\"hist\",\"name\":\"latency\",\"value\":80}]}",
            )
        );
        drop(inner);
        drop(outer);
    }

    #[test]
    fn span_close_events_record_after_guard_drop() {
        let tel = Telemetry::new();
        tel.enable_flight_recorder(8);
        {
            let _s = span!(tel, "attack");
            tel.advance_time_ns(5);
        }
        let dump = tel.flight_dump("d").unwrap();
        assert!(dump.contains("\"kind\":\"span_open\",\"name\":\"attack\",\"span\":0"));
        assert!(dump.contains("\"kind\":\"span_close\",\"name\":\"attack\",\"span\":0"));
        assert!(dump.contains("\"open_spans\":[]"));
    }

    #[test]
    fn recorder_does_not_perturb_the_jsonl_export() {
        let run = |flight: bool| -> String {
            let tel = Telemetry::new();
            if flight {
                tel.enable_flight_recorder(4);
            }
            for round in 0..3u64 {
                let _span = span!(tel, "attack.stage", round = round);
                tel.counter_add("attack.probes", 16);
                tel.record_value("probe.latency_ns", 80 + round * 40);
                tel.gauge_set("attack.entropy_bits", 12.0 - round as f64);
                tel.advance_time_ns(1_000);
            }
            tel.to_jsonl()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn disabled_or_unenabled_handles_dump_nothing() {
        let disabled = Telemetry::disabled();
        disabled.enable_flight_recorder(8);
        assert!(!disabled.flight_recorder_enabled());
        assert_eq!(disabled.flight_dump("x"), None);

        let enabled_no_ring = Telemetry::new();
        assert_eq!(enabled_no_ring.flight_dump("x"), None);
        // install is a no-op without a ring — nothing registered, nothing
        // written on panic.
        enabled_no_ring.install_flight_dump_on_panic("x", "/nonexistent/FLIGHT_x.json");
    }

    #[test]
    #[cfg_attr(miri, ignore = "installs a process-global panic hook and writes files")]
    fn panic_hook_writes_the_dump() {
        let dir = std::env::temp_dir().join(format!("grinch-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("FLIGHT_hooked.json");
        let _ = std::fs::remove_file(&path);

        let result = std::panic::catch_unwind(|| {
            let tel = Telemetry::new();
            tel.enable_flight_recorder(32);
            tel.install_flight_dump_on_panic("hooked", &path);
            let _outer = tel.span("attack");
            let _inner = tel.span("attack.collapse");
            tel.counter_add("probes", 9);
            tel.advance_time_ns(123);
            panic!("forced for the flight recorder test");
        });
        assert!(result.is_err(), "the traced closure must panic");

        let dump = std::fs::read_to_string(&path).expect("panic hook wrote the dump");
        assert!(dump.contains("\"schema\":\"grinch-flight/v1\""));
        assert!(dump.contains("\"name\":\"attack.collapse\""));
        assert!(dump.contains("\"kind\":\"counter\",\"name\":\"probes\",\"value\":9"));
        // Open spans were captured before unwinding closed them.
        let open_start = dump.find("\"open_spans\":[").unwrap();
        let open = &dump[open_start..];
        assert!(open.contains("\"name\":\"attack.collapse\""));
        let _ = std::fs::remove_file(&path);
    }
}
