//! Unified telemetry layer for the GRINCH reproduction.
//!
//! One cloneable [`Telemetry`] handle carries three instruments across the
//! workspace — `cache-sim`, `soc-sim` and `grinch` all publish into it:
//!
//! * a **metrics registry** — named [counters](Telemetry::counter_add),
//!   [gauges](Telemetry::gauge_set) and log-scale
//!   [histograms](Telemetry::record_value) with percentile queries
//!   ([`LogHistogram`]). Hot paths resolve a name **once** to a typed
//!   handle ([`Telemetry::register_counter`] → [`CounterHandle`] →
//!   [`Telemetry::add`]) and thereafter update a flat slot table with no
//!   string hashing; the string methods remain as a thin compatibility
//!   layer over the same slots, so both paths export identical snapshots;
//! * **hierarchical trace spans** — [`span!`] /
//!   [`Telemetry::span`] guards stamped with *simulated* nanoseconds
//!   (the simulations advance the clock; wall time never appears);
//! * **sinks** — a JSONL exporter (one metric/span per line), a
//!   human-readable summary table and a null sink
//!   ([`Telemetry::disabled`]) that compiles instrumentation down to a
//!   pointer null-check.
//!
//! The handle is `Rc`-based: simulations here are single-threaded, and a
//! shared-nothing benchmark can always use one handle per thread and
//! [`Snapshot`]-merge afterwards.
//!
//! ```
//! use grinch_telemetry::{span, Telemetry};
//!
//! let tel = Telemetry::new();
//! tel.advance_time_ns(10);
//! {
//!     let _attack = span!(tel, "attack.stage", round = 1u64);
//!     tel.counter_add("probes", 3);
//!     tel.record_value("probe.latency_ns", 120);
//!     tel.advance_time_ns(500);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counters[0], ("probes".into(), 3));
//! assert_eq!(snap.spans[0].end_ns, Some(510));
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

pub mod flight;
pub mod histogram;
pub mod json;
pub mod read;
pub mod seed;
pub mod sink;
pub mod stream;

pub use flight::{dump_event_count, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA};
pub use histogram::LogHistogram;
pub use read::{snapshot_from_jsonl, ReadError};
pub use seed::{splitmix64, SPLITMIX64_GAMMA};
pub use sink::{snapshot_to_jsonl, summary_string, JsonlSink, NullSink, Sink, SummarySink};
pub use stream::{DeltaSnapshot, HistogramDelta, StreamingSink};

/// Name of the environment variable that globally disables telemetry.
pub const TELEMETRY_ENV: &str = "GRINCH_TELEMETRY";

/// Whether `GRINCH_TELEMETRY` asks for telemetry to be enabled: everything
/// except `0` and `off` (case-insensitive) — including unset — means on.
/// The single source of truth for the convention every binary honours;
/// bench bins, quickstart and the arena all route through here.
pub fn enabled_from_env() -> bool {
    match std::env::var(TELEMETRY_ENV) {
        Ok(v) => !(v == "0" || v.eq_ignore_ascii_case("off")),
        Err(_) => true,
    }
}

/// A typed span/event field value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl FieldValue {
    /// Writes the value as field `key` of an open JSON object.
    pub fn write_json(&self, w: &mut json::ObjWriter, key: &str) {
        match self {
            Self::U64(v) => w.u64(key, *v),
            Self::I64(v) => w.i64(key, *v),
            Self::F64(v) => w.f64(key, *v),
            Self::Bool(v) => w.bool(key, *v),
            Self::Str(v) => w.str(key, v),
        };
    }
}

impl core::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::U64(v) => write!(f, "{v}"),
            Self::I64(v) => write!(f, "{v}"),
            Self::F64(v) => write!(f, "{v}"),
            Self::Bool(v) => write!(f, "{v}"),
            Self::Str(v) => f.write_str(v),
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                Self::$variant(v as $conv)
            }
        })+
    };
}

impl_field_from! {
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// One recorded trace span. `end_ns` is `None` while the span is open
/// (or if the guard leaked past the snapshot).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Id, equal to the span's index in [`Snapshot::spans`] (entry order).
    pub id: usize,
    /// Enclosing span's id, if nested.
    pub parent: Option<usize>,
    /// Nesting depth (root spans are 0).
    pub depth: usize,
    /// Span name, dot-separated by convention (`"attack.stage"`).
    pub name: String,
    /// Structured fields attached at entry.
    pub fields: Vec<(String, FieldValue)>,
    /// Simulated-ns timestamp at entry.
    pub start_ns: u64,
    /// Simulated-ns timestamp at exit.
    pub end_ns: Option<u64>,
}

impl SpanRecord {
    /// Span duration in simulated ns, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// An immutable copy of everything a [`Telemetry`] handle has recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Simulated clock at snapshot time.
    pub sim_time_ns: u64,
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauges, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<(String, LogHistogram)>,
    /// Spans in entry order (ids are indices).
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// Parses a JSONL export (the output of [`snapshot_to_jsonl`] /
    /// [`Telemetry::to_jsonl`]) back into a snapshot. The inverse is exact:
    /// re-emitting the parsed snapshot reproduces the input byte for byte,
    /// so traces can be read, [merged](Snapshot::merge) and re-exported
    /// losslessly.
    pub fn from_jsonl(input: &str) -> Result<Self, ReadError> {
        snapshot_from_jsonl(input)
    }

    /// Reads and parses a JSONL trace file (see [`Snapshot::from_jsonl`]).
    pub fn from_jsonl_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(&path)?;
        Self::from_jsonl(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.as_ref().display()),
            )
        })
    }

    /// Looks up a counter value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Merges another snapshot: counters add, gauges take `other`'s value,
    /// histograms merge, spans append (re-based ids), clock takes the max.
    pub fn merge(&mut self, other: &Snapshot) {
        self.sim_time_ns = self.sim_time_ns.max(other.sim_time_ns);
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let base = self.spans.len();
        for span in &other.spans {
            let mut s = span.clone();
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }
}

/// Sentinel slot index carried by handles registered on a disabled
/// [`Telemetry`]; every operation through such a handle is a no-op.
const NOOP_SLOT: u32 = u32::MAX;

/// A pre-resolved counter slot. Obtained once from
/// [`Telemetry::register_counter`]; each [`Telemetry::add`] through it is
/// a bounds-checked vector write — no name hashing, no allocation.
///
/// A handle indexes the registry of the `Telemetry` that issued it; using
/// it on a different enabled handle's registry either panics (index out of
/// range) or touches the wrong slot, so keep handle and telemetry paired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterHandle(u32);

/// A pre-resolved gauge slot (see [`CounterHandle`] for the contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeHandle(u32);

/// A pre-resolved histogram slot (see [`CounterHandle`] for the contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramHandle(u32);

impl CounterHandle {
    /// A handle whose operations all no-op, regardless of telemetry state.
    pub const NOOP: Self = Self(NOOP_SLOT);
}

impl GaugeHandle {
    /// A handle whose operations all no-op, regardless of telemetry state.
    pub const NOOP: Self = Self(NOOP_SLOT);
}

impl HistogramHandle {
    /// A handle whose operations all no-op, regardless of telemetry state.
    pub const NOOP: Self = Self(NOOP_SLOT);
}

// Slots are created by registration (handle or first string use) but only
// appear in snapshots once touched, so pre-registering every metric a
// component *might* bump does not change the exported registry: snapshots
// stay byte-identical with the old create-on-first-touch string API.
#[derive(Debug)]
struct CounterSlot {
    name: String,
    value: u64,
    touched: bool,
}

#[derive(Debug)]
struct GaugeSlot {
    name: String,
    value: f64,
    touched: bool,
}

#[derive(Debug)]
struct HistogramSlot {
    name: String,
    hist: LogHistogram,
    touched: bool,
}

#[derive(Debug, Default)]
struct Inner {
    now_ns: u64,
    counter_index: BTreeMap<String, u32>,
    counters: Vec<CounterSlot>,
    gauge_index: BTreeMap<String, u32>,
    gauges: Vec<GaugeSlot>,
    histogram_index: BTreeMap<String, u32>,
    histograms: Vec<HistogramSlot>,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    flight: Option<flight::FlightRing>,
}

impl Inner {
    fn counter_slot(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.counter_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.counters.len()).expect("counter registry overflow");
        self.counters.push(CounterSlot {
            name: name.to_string(),
            value: 0,
            touched: false,
        });
        self.counter_index.insert(name.to_string(), i);
        i
    }

    fn gauge_slot(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.gauge_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.gauges.len()).expect("gauge registry overflow");
        self.gauges.push(GaugeSlot {
            name: name.to_string(),
            value: 0.0,
            touched: false,
        });
        self.gauge_index.insert(name.to_string(), i);
        i
    }

    fn histogram_slot(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.histogram_index.get(name) {
            return i;
        }
        let i = u32::try_from(self.histograms.len()).expect("histogram registry overflow");
        self.histograms.push(HistogramSlot {
            name: name.to_string(),
            hist: LogHistogram::new(),
            touched: false,
        });
        self.histogram_index.insert(name.to_string(), i);
        i
    }
}

/// The shared telemetry handle.
///
/// Cloning is a pointer copy; every clone publishes into the same
/// registry. [`Telemetry::disabled`] (also [`Default`]) carries no
/// registry at all, so each instrumentation call reduces to one
/// `Option` check — the "null sink" of the design.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Inner>>>,
}

/// A batched update session from [`Telemetry::batch`]: holds the registry
/// borrow once so a run of handle updates (the typical "counters plus a
/// latency histogram per event" shape) pays for it once instead of per
/// call. Updates are identical to the per-call methods — same slots, same
/// touched semantics. Drop the batch before any reentrant telemetry use
/// (snapshotting, registering) or the `RefCell` will panic, like any
/// outstanding borrow.
pub struct Batch<'a> {
    inner: std::cell::RefMut<'a, Inner>,
}

impl Batch<'_> {
    /// Adds `delta` to the counter behind `h` (no-op for NOOP handles).
    #[inline]
    pub fn add(&mut self, h: CounterHandle, delta: u64) {
        if h.0 != NOOP_SLOT {
            let slot = &mut self.inner.counters[h.0 as usize];
            slot.value += delta;
            slot.touched = true;
            let value = slot.value;
            self.inner
                .flight_record(flight::RawKind::Counter { slot: h.0, value });
        }
    }

    /// Increments the counter behind `h` by one.
    #[inline]
    pub fn inc(&mut self, h: CounterHandle) {
        self.add(h, 1);
    }

    /// Sets the gauge behind `h`.
    #[inline]
    pub fn set(&mut self, h: GaugeHandle, value: f64) {
        if h.0 != NOOP_SLOT {
            let slot = &mut self.inner.gauges[h.0 as usize];
            slot.value = value;
            slot.touched = true;
            self.inner
                .flight_record(flight::RawKind::Gauge { slot: h.0, value });
        }
    }

    /// Records `value` into the histogram behind `h`.
    #[inline]
    pub fn record(&mut self, h: HistogramHandle, value: u64) {
        if h.0 != NOOP_SLOT {
            let slot = &mut self.inner.histograms[h.0 as usize];
            slot.hist.record(value);
            slot.touched = true;
            self.inner
                .flight_record(flight::RawKind::Histogram { slot: h.0, value });
        }
    }

    /// Records `n` samples of `value` into the histogram behind `h` —
    /// aggregate-identical to `n` [`Batch::record`] calls (one flight-ring
    /// entry stands in for the repetition; the crash dump notes the value,
    /// not the multiplicity).
    #[inline]
    pub fn record_n(&mut self, h: HistogramHandle, value: u64, n: u64) {
        if h.0 != NOOP_SLOT && n > 0 {
            let slot = &mut self.inner.histograms[h.0 as usize];
            slot.hist.record_n(value, n);
            slot.touched = true;
            self.inner
                .flight_record(flight::RawKind::Histogram { slot: h.0, value });
        }
    }
}

impl Telemetry {
    /// An enabled handle with an empty registry.
    pub fn new() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle, unless the `GRINCH_TELEMETRY` environment
    /// variable is `0` or `off` (case-insensitive) — then a
    /// [disabled](Telemetry::disabled) one. See [`enabled_from_env`].
    pub fn from_env() -> Self {
        if enabled_from_env() {
            Self::new()
        } else {
            Self::disabled()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- simulated clock ------------------------------------------------

    /// Sets the simulated clock (monotonicity is the caller's contract).
    pub fn set_time_ns(&self, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().now_ns = ns;
        }
    }

    /// Advances the simulated clock.
    pub fn advance_time_ns(&self, delta_ns: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            inner.now_ns += delta_ns;
        }
    }

    /// Current simulated time (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().now_ns)
    }

    // ---- typed handles --------------------------------------------------

    /// Resolves `name` to a [`CounterHandle`] — the one-time half of the
    /// gem5-style "register once, bump through a slot" split. Re-registering
    /// the same name returns the same slot, and the string API shares it,
    /// so handle and string updates to one name always agree. On a
    /// disabled handle this returns [`CounterHandle::NOOP`].
    ///
    /// Registration alone does not make the counter appear in snapshots;
    /// it shows up (at its accumulated value) after the first
    /// [`add`](Telemetry::add) or string update, exactly like the
    /// create-on-first-touch string API.
    pub fn register_counter(&self, name: &str) -> CounterHandle {
        match &self.inner {
            Some(inner) => CounterHandle(inner.borrow_mut().counter_slot(name)),
            None => CounterHandle::NOOP,
        }
    }

    /// Resolves `name` to a [`GaugeHandle`] (see
    /// [`register_counter`](Telemetry::register_counter)).
    pub fn register_gauge(&self, name: &str) -> GaugeHandle {
        match &self.inner {
            Some(inner) => GaugeHandle(inner.borrow_mut().gauge_slot(name)),
            None => GaugeHandle::NOOP,
        }
    }

    /// Resolves `name` to a [`HistogramHandle`] (see
    /// [`register_counter`](Telemetry::register_counter)).
    pub fn register_histogram(&self, name: &str) -> HistogramHandle {
        match &self.inner {
            Some(inner) => HistogramHandle(inner.borrow_mut().histogram_slot(name)),
            None => HistogramHandle::NOOP,
        }
    }

    /// Adds `delta` to the counter behind `h`: one slot write, no name
    /// lookup. No-op for [`CounterHandle::NOOP`] or a disabled handle.
    #[inline]
    pub fn add(&self, h: CounterHandle, delta: u64) {
        if h.0 == NOOP_SLOT {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let slot = &mut inner.counters[h.0 as usize];
            slot.value += delta;
            slot.touched = true;
            let value = slot.value;
            inner.flight_record(flight::RawKind::Counter { slot: h.0, value });
        }
    }

    /// Increments the counter behind `h` by one.
    #[inline]
    pub fn inc(&self, h: CounterHandle) {
        self.add(h, 1);
    }

    /// Sets the gauge behind `h`.
    #[inline]
    pub fn set(&self, h: GaugeHandle, value: f64) {
        if h.0 == NOOP_SLOT {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let slot = &mut inner.gauges[h.0 as usize];
            slot.value = value;
            slot.touched = true;
            inner.flight_record(flight::RawKind::Gauge { slot: h.0, value });
        }
    }

    /// Records `value` into the histogram behind `h`.
    #[inline]
    pub fn record(&self, h: HistogramHandle, value: u64) {
        if h.0 == NOOP_SLOT {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let slot = &mut inner.histograms[h.0 as usize];
            slot.hist.record(value);
            slot.touched = true;
            inner.flight_record(flight::RawKind::Histogram { slot: h.0, value });
        }
    }

    /// Opens a batched update session: one registry borrow amortized over
    /// several handle updates. `None` when disabled, so a hot path costs a
    /// single null-check per event:
    ///
    /// ```
    /// # let tel = grinch_telemetry::Telemetry::new();
    /// # let hits = tel.register_counter("hits");
    /// # let lat = tel.register_histogram("latency");
    /// if let Some(mut batch) = tel.batch() {
    ///     batch.inc(hits);
    ///     batch.record(lat, 12);
    /// }
    /// assert_eq!(tel.counter("hits"), 1);
    /// ```
    #[inline]
    pub fn batch(&self) -> Option<Batch<'_>> {
        self.inner.as_ref().map(|rc| Batch {
            inner: rc.borrow_mut(),
        })
    }

    /// Current value of the gauge behind `h` (`None` for NOOP/disabled or
    /// a never-set gauge).
    pub fn gauge_of(&self, h: GaugeHandle) -> Option<f64> {
        if h.0 == NOOP_SLOT {
            return None;
        }
        self.inner.as_ref().and_then(|i| {
            let slot = &i.borrow().gauges[h.0 as usize];
            slot.touched.then_some(slot.value)
        })
    }

    /// Current value of the counter behind `h` (0 for NOOP/disabled).
    pub fn counter_of(&self, h: CounterHandle) -> u64 {
        if h.0 == NOOP_SLOT {
            return 0;
        }
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().counters[h.0 as usize].value)
    }

    // ---- metrics (string compatibility layer) ---------------------------

    /// Adds `delta` to a named counter (created at 0). Thin layer over the
    /// handle path: resolves the slot by name, then updates it.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let i = inner.counter_slot(name);
            let slot = &mut inner.counters[i as usize];
            slot.value += delta;
            slot.touched = true;
            let value = slot.value;
            inner.flight_record(flight::RawKind::Counter { slot: i, value });
        }
    }

    /// Increments a named counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets a named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let i = inner.gauge_slot(name);
            let slot = &mut inner.gauges[i as usize];
            slot.value = value;
            slot.touched = true;
            inner.flight_record(flight::RawKind::Gauge { slot: i, value });
        }
    }

    /// Records `value` into a named log-scale histogram.
    pub fn record_value(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let i = inner.histogram_slot(name);
            let slot = &mut inner.histograms[i as usize];
            slot.hist.record(value);
            slot.touched = true;
            inner.flight_record(flight::RawKind::Histogram { slot: i, value });
        }
    }

    // ---- spans ----------------------------------------------------------

    /// Opens a span; it closes (stamps `end_ns`) when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with(name, Vec::new())
    }

    /// Opens a span with structured fields. Prefer the [`span!`] macro,
    /// which builds the field vector from `key = value` syntax.
    pub fn span_with(&self, name: &str, fields: Vec<(&'static str, FieldValue)>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None, id: 0 };
        };
        let mut borrow = inner.borrow_mut();
        let id = borrow.spans.len();
        let parent = borrow.open.last().copied();
        let depth = borrow.open.len();
        let start_ns = borrow.now_ns;
        borrow.spans.push(SpanRecord {
            id,
            parent,
            depth,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            start_ns,
            end_ns: None,
        });
        borrow.open.push(id);
        borrow.flight_record(flight::RawKind::SpanOpen { id });
        SpanGuard {
            inner: Some(Rc::clone(inner)),
            id,
        }
    }

    // ---- queries & export ----------------------------------------------

    /// Copies out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let inner = inner.borrow();
        // Slot order is registration order; snapshots stay name-sorted so
        // exports are byte-identical with the BTreeMap-backed registry.
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .iter()
            .filter(|s| s.touched)
            .map(|s| (s.name.clone(), s.value))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = inner
            .gauges
            .iter()
            .filter(|s| s.touched)
            .map(|s| (s.name.clone(), s.value))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, LogHistogram)> = inner
            .histograms
            .iter()
            .filter(|s| s.touched)
            .map(|s| (s.name.clone(), s.hist.clone()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            sim_time_ns: inner.now_ns,
            counters,
            gauges,
            histograms,
            spans: inner.spans.clone(),
        }
    }

    /// Current value of a counter (0 if never touched or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            let inner = i.borrow();
            inner
                .counter_index
                .get(name)
                .map_or(0, |&idx| inner.counters[idx as usize].value)
        })
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.as_ref().and_then(|i| {
            let inner = i.borrow();
            inner
                .gauge_index
                .get(name)
                .map(|&idx| &inner.gauges[idx as usize])
                .filter(|slot| slot.touched)
                .map(|slot| slot.value)
        })
    }

    /// Renders the whole registry as JSONL (see [`snapshot_to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        snapshot_to_jsonl(&self.snapshot())
    }

    /// Writes the JSONL export to a file.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Renders the human-readable summary table.
    pub fn summary(&self) -> String {
        summary_string(&self.snapshot())
    }
}

/// Closes its span (stamping `end_ns` with the simulated clock) on drop.
/// Inert for disabled handles.
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    inner: Option<Rc<RefCell<Inner>>>,
    id: usize,
}

impl SpanGuard {
    /// The span's id in the snapshot, if recording.
    pub fn id(&self) -> Option<usize> {
        self.inner.as_ref().map(|_| self.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            let mut inner = inner.borrow_mut();
            let now = inner.now_ns;
            if let Some(span) = inner.spans.get_mut(self.id) {
                span.end_ns = Some(now);
            }
            // Guards drop in LIFO order in correct code; tolerate leaks by
            // removing this id wherever it sits in the open stack.
            if let Some(pos) = inner.open.iter().rposition(|&i| i == self.id) {
                inner.open.remove(pos);
            }
            inner.flight_record(flight::RawKind::SpanClose { id: self.id });
        }
    }
}

/// Opens a trace span on a [`Telemetry`] handle:
/// `span!(tel, "attack.stage", round = r, segment = s)`.
///
/// Field keys are identifiers; values are anything `Into<FieldValue>`
/// (integers, floats, bools, strings). Returns a [`SpanGuard`].
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr $(,)?) => {
        $tel.span($name)
    };
    ($tel:expr, $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $tel.span_with(
            $name,
            vec![$((stringify!($key), $crate::FieldValue::from($value))),+],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register() {
        let tel = Telemetry::new();
        tel.counter_add("cache.l1.hits", 5);
        tel.counter_inc("cache.l1.hits");
        tel.gauge_set("attack.entropy_bits", 17.5);
        tel.record_value("probe.latency", 80);
        tel.record_value("probe.latency", 200);

        assert_eq!(tel.counter("cache.l1.hits"), 6);
        assert_eq!(tel.gauge("attack.entropy_bits"), Some(17.5));
        let snap = tel.snapshot();
        let h = snap.histogram("probe.latency").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(80));
        assert_eq!(h.max(), Some(200));
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::new();
        let other = tel.clone();
        other.counter_inc("shared");
        assert_eq!(tel.counter("shared"), 1);
    }

    #[test]
    fn spans_nest_and_order() {
        let tel = Telemetry::new();
        tel.set_time_ns(100);
        let outer = span!(tel, "attack", stage = 1u64);
        tel.advance_time_ns(50);
        {
            let _inner = span!(tel, "attack.round", round = 3u64, forced = true);
            tel.advance_time_ns(25);
        }
        tel.advance_time_ns(25);
        drop(outer);

        let snap = tel.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = &snap.spans[0];
        let inner = &snap.spans[1];
        assert_eq!(outer.name, "attack");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!((outer.start_ns, outer.end_ns), (100, Some(200)));
        assert_eq!(inner.name, "attack.round");
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.start_ns, inner.end_ns), (150, Some(175)));
        assert_eq!(
            inner.fields,
            vec![
                ("round".to_string(), FieldValue::U64(3)),
                ("forced".to_string(), FieldValue::Bool(true)),
            ]
        );
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tel = Telemetry::new();
        let root = tel.span("root");
        let a_id = {
            let a = tel.span("a");
            a.id().unwrap()
        };
        let b = tel.span("b");
        let b_id = b.id().unwrap();
        drop(b);
        drop(root);
        let snap = tel.snapshot();
        assert_eq!(snap.spans[a_id].parent, Some(0));
        assert_eq!(snap.spans[b_id].parent, Some(0));
        assert_eq!(snap.spans[b_id].depth, 1);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.counter_add("x", 10);
        tel.gauge_set("y", 1.0);
        tel.record_value("z", 5);
        tel.advance_time_ns(100);
        let _span = span!(tel, "dead", k = 1u64);
        drop(_span);
        assert!(!tel.is_enabled());
        assert_eq!(tel.now_ns(), 0);
        assert_eq!(tel.snapshot(), Snapshot::default());
    }

    #[test]
    fn handles_resolve_once_and_share_slots_with_strings() {
        let tel = Telemetry::new();
        let hits = tel.register_counter("cache.l1.hits");
        let entropy = tel.register_gauge("attack.entropy_bits");
        let latency = tel.register_histogram("probe.latency");

        tel.add(hits, 5);
        tel.inc(hits);
        tel.counter_add("cache.l1.hits", 4); // string path, same slot
        tel.set(entropy, 17.5);
        tel.record(latency, 80);
        tel.record_value("probe.latency", 200);

        assert_eq!(tel.counter("cache.l1.hits"), 10);
        assert_eq!(tel.counter_of(hits), 10);
        assert_eq!(tel.gauge("attack.entropy_bits"), Some(17.5));
        assert_eq!(
            tel.snapshot().histogram("probe.latency").unwrap().count(),
            2
        );
        // Re-registration returns the same slot.
        assert_eq!(tel.register_counter("cache.l1.hits"), hits);
    }

    #[test]
    fn registered_but_untouched_slots_stay_out_of_snapshots() {
        let tel = Telemetry::new();
        let _never = tel.register_counter("cache.l1.invalidations");
        let _cold = tel.register_gauge("attack.entropy_bits");
        let _empty = tel.register_histogram("probe.latency");
        tel.counter_add("cache.l1.hits", 1);

        let snap = tel.snapshot();
        assert_eq!(snap.counters, vec![("cache.l1.hits".to_string(), 1)]);
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(tel.gauge("attack.entropy_bits"), None);
        // ...until touched: a zero-delta add counts as a touch, exactly
        // like the string API's create-on-first-call behaviour.
        tel.add(_never, 0);
        assert_eq!(tel.snapshot().counter("cache.l1.invalidations"), 0);
        assert_eq!(tel.snapshot().counters.len(), 2);
    }

    #[test]
    fn disabled_handles_are_noop() {
        let tel = Telemetry::disabled();
        let c = tel.register_counter("x");
        let g = tel.register_gauge("y");
        let h = tel.register_histogram("z");
        assert_eq!(c, CounterHandle::NOOP);
        tel.add(c, 10);
        tel.inc(c);
        tel.set(g, 1.0);
        tel.record(h, 5);
        assert_eq!(tel.counter_of(c), 0);
        assert_eq!(tel.snapshot(), Snapshot::default());
        // NOOP handles are also inert on an *enabled* registry, so a
        // component can cache handles from a disabled phase safely.
        let live = Telemetry::new();
        live.add(CounterHandle::NOOP, 3);
        live.set(GaugeHandle::NOOP, 1.0);
        live.record(HistogramHandle::NOOP, 2);
        assert_eq!(live.snapshot(), Snapshot::default());
    }

    #[test]
    fn batch_updates_match_per_call_updates() {
        let per_call = Telemetry::new();
        let batched = Telemetry::new();
        for tel in [&per_call, &batched] {
            let c = tel.register_counter("c");
            let g = tel.register_gauge("g");
            let h = tel.register_histogram("h");
            if std::ptr::eq(tel, &batched) {
                let mut b = tel.batch().expect("enabled");
                b.add(c, 2);
                b.inc(c);
                b.set(g, 0.5);
                b.record(h, 7);
                b.add(CounterHandle::NOOP, 9);
                b.set(GaugeHandle::NOOP, 9.0);
                b.record(HistogramHandle::NOOP, 9);
            } else {
                tel.add(c, 2);
                tel.inc(c);
                tel.set(g, 0.5);
                tel.record(h, 7);
            }
        }
        assert_eq!(per_call.snapshot(), batched.snapshot());
        assert!(Telemetry::disabled().batch().is_none());
    }

    #[test]
    fn handle_and_string_paths_export_identical_jsonl() {
        // The byte-identity regression the hot-path overhaul rests on:
        // the same update sequence through handles and through strings
        // must serialize to the same JSONL, including ordering.
        let strings = Telemetry::new();
        strings.counter_add("attack.probes", 7);
        strings.counter_add("attack.encryptions", 3);
        strings.gauge_set("attack.entropy_bits", 12.0);
        strings.record_value("probe.latency", 90);
        strings.record_value("probe.latency", 410);
        strings.advance_time_ns(1_000);

        let handles = Telemetry::new();
        // Register in a *different* order than the string path touches
        // them; name-sorted snapshots make slot order irrelevant.
        let lat = handles.register_histogram("probe.latency");
        let ent = handles.register_gauge("attack.entropy_bits");
        let enc = handles.register_counter("attack.encryptions");
        let probes = handles.register_counter("attack.probes");
        handles.add(probes, 7);
        handles.add(enc, 3);
        handles.set(ent, 12.0);
        handles.record(lat, 90);
        handles.record(lat, 410);
        handles.advance_time_ns(1_000);

        assert_eq!(strings.snapshot(), handles.snapshot());
        assert_eq!(strings.to_jsonl(), handles.to_jsonl());
    }

    #[test]
    fn snapshot_merge_combines_registries() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.counter_add("n", 1);
        b.counter_add("n", 2);
        b.counter_add("only_b", 7);
        a.record_value("h", 10);
        b.record_value("h", 1000);
        let _s = b.span("remote");
        drop(_s);
        b.advance_time_ns(99);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter("n"), 3);
        assert_eq!(snap.counter("only_b"), 7);
        assert_eq!(snap.histogram("h").unwrap().count(), 2);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.sim_time_ns, 99);
    }
}
