//! The live observability plane: an in-memory campaign state fed by
//! streamed telemetry deltas, exposed over a zero-dependency HTTP server.
//!
//! Everything else in this crate is post-hoc — it reads a JSONL trace
//! after the run ended. This module is the *during* half:
//!
//! * [`MetricsState`] folds the sequence-numbered [`DeltaSnapshot`]s a
//!   [`StreamingSink`](grinch_telemetry::StreamingSink) emits into a
//!   cumulative metric view and renders it as Prometheus text exposition
//!   (`/metrics`);
//! * [`ProgressView`] / [`WorkerView`] are the generic campaign-progress
//!   schema a producer (today: the arena's live plane behind
//!   `grinch-campaign run --live`) keeps updated — cells
//!   started/completed, per-worker current cell, seed, encryptions,
//!   heartbeat ages (`/progress`, `/healthz`);
//! * [`LiveServer`] serves both (plus worker liveness) from a plain
//!   `std::net::TcpListener` — no async runtime, no HTTP crate; one short
//!   request per connection is all a scrape needs. Dispatch goes through a
//!   pluggable [`Router`] ([`HttpRequest`] → [`HttpResponse`], with POST
//!   bodies and extra response headers), so consumers like the
//!   `grinch-campaign` orchestrator mount their own endpoints on the same
//!   server ([`LiveServer::bind_with_router`]); [`default_router`] is the
//!   stock endpoint set;
//! * [`http_get`] / [`http_post`] are the matching one-shot clients used
//!   by `grinch-report tail`, the campaign CLI and the tests;
//! * [`validate_exposition`] checks Prometheus text format rules (every
//!   sample under a `# TYPE`, no duplicate families, parseable values) —
//!   the CI smoke job runs it against a mid-run scrape via
//!   `grinch-report promcheck`.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grinch_telemetry::json::{Layout, ObjWriter};
use grinch_telemetry::DeltaSnapshot;

// ---------------------------------------------------------------------------
// Metrics: delta folding + Prometheus exposition
// ---------------------------------------------------------------------------

/// Cumulative metric view assembled from streamed deltas.
///
/// Deltas carry cumulative values for the series that changed, so folding
/// is last-write-wins per series; `seq` tracks the newest delta applied
/// and is itself exported (`grinch_stream_seq`) so a scraper can tell the
/// stream is advancing.
#[derive(Debug, Default)]
pub struct MetricsState {
    /// Sequence number of the newest applied delta (`None` before the
    /// first one arrives).
    pub seq: Option<u64>,
    /// Simulated clock of the newest applied delta.
    pub sim_time_ns: u64,
    /// Counter series, cumulative.
    pub counters: BTreeMap<String, u64>,
    /// Gauge series, last value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram series, cumulative (count, sum).
    pub histograms: BTreeMap<String, (u64, u128)>,
    /// Total spans recorded by the producer.
    pub spans_total: u64,
}

impl MetricsState {
    /// Folds one streamed delta into the view.
    pub fn apply(&mut self, delta: &DeltaSnapshot) {
        self.seq = Some(delta.seq);
        self.sim_time_ns = delta.sim_time_ns;
        self.spans_total = delta.spans_total;
        for (name, value) in &delta.counters {
            self.counters.insert(name.clone(), *value);
        }
        for (name, value) in &delta.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, h) in &delta.histograms {
            self.histograms.insert(name.clone(), (h.count, h.sum));
        }
    }

    /// Renders the view as Prometheus text exposition (format 0.0.4):
    /// counters and gauges as their native types, histograms as summaries
    /// (`_count`/`_sum`), plus the stream's own meta series. Every family
    /// gets exactly one `# TYPE` line; names are sanitized to the metric
    /// charset and deduplicated, so the output always passes
    /// [`validate_exposition`].
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();

        let mut family = |out: &mut String, name: &str, kind: &str, help: &str| -> bool {
            if !used.insert(name.to_string()) {
                // Two source names collapsed to one sanitized family; keep
                // the first, drop the later one rather than emit an
                // invalid duplicate family.
                return false;
            }
            if !help.is_empty() {
                out.push_str(&format!("# HELP {name} {help}\n"));
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            true
        };

        if family(
            &mut out,
            "grinch_stream_seq",
            "counter",
            "Sequence number of the latest streamed delta snapshot.",
        ) {
            let seq = self.seq.map_or(0, |s| s + 1);
            out.push_str(&format!("grinch_stream_seq {seq}\n"));
        }
        if family(
            &mut out,
            "grinch_sim_time_ns",
            "gauge",
            "Simulated clock of the producer, in nanoseconds.",
        ) {
            out.push_str(&format!("grinch_sim_time_ns {}\n", self.sim_time_ns));
        }
        if family(
            &mut out,
            "grinch_spans_total",
            "counter",
            "Trace spans recorded by the producer.",
        ) {
            out.push_str(&format!("grinch_spans_total {}\n", self.spans_total));
        }
        for (name, value) in &self.counters {
            let name = sanitize_metric_name(name);
            if family(&mut out, &name, "counter", "") {
                out.push_str(&format!("{name} {value}\n"));
            }
        }
        for (name, value) in &self.gauges {
            let name = sanitize_metric_name(name);
            if family(&mut out, &name, "gauge", "") {
                out.push_str(&format!("{name} {}\n", format_prom_f64(*value)));
            }
        }
        for (name, (count, sum)) in &self.histograms {
            let name = sanitize_metric_name(name);
            if family(&mut out, &name, "summary", "") {
                out.push_str(&format!("{name}_sum {sum}\n"));
                out.push_str(&format!("{name}_count {count}\n"));
            }
        }
        out
    }
}

/// Maps a telemetry metric name (`attack.stage1.probes`) onto the
/// Prometheus metric charset `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Prometheus sample values are floats; render whole numbers without the
/// trailing `.0` (both parse, this is just the idiomatic form).
fn format_prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Checks Prometheus text-exposition rules on a scrape body:
///
/// * every `# TYPE` names a valid metric family and a known type, and no
///   family is `# TYPE`d twice;
/// * every sample belongs to a declared family (directly, or via the
///   `_sum`/`_count`/`_bucket` suffixes of summaries and histograms);
/// * no duplicate samples (same name and label set);
/// * every sample value parses as a Prometheus float;
/// * every declared family has at least one sample — a `# TYPE` line with
///   no samples means the producer dropped data on the floor.
///
/// Returns the number of samples on success.
pub fn validate_exposition(body: &str) -> Result<usize, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut seen_samples: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut families_with_samples: std::collections::HashSet<String> =
        std::collections::HashSet::new();
    let mut samples = 0usize;

    let valid_name = |name: &str| -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    };

    for (lineno, line) in body.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE line: {line:?}"));
            };
            if !valid_name(name) {
                return Err(format!("line {n}: invalid family name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown family type {kind:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {n}: duplicate family {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or arbitrary comment
        }
        // Sample: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_whitespace())
            .ok_or_else(|| format!("line {n}: sample without value: {line:?}"))?;
        let name = &line[..name_end];
        if !valid_name(name) {
            return Err(format!("line {n}: invalid sample name {name:?}"));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if let Some(stripped) = rest.strip_prefix('{') {
            let close = stripped
                .find('}')
                .ok_or_else(|| format!("line {n}: unterminated label set"))?;
            (&stripped[..close], &stripped[close + 1..])
        } else {
            ("", rest)
        };
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {n}: sample without value: {line:?}"))?;
        let value_ok = value.parse::<f64>().is_ok()
            || matches!(value, "+Inf" | "-Inf" | "NaN" | "Nan" | "nan");
        if !value_ok {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: unparseable timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing garbage: {line:?}"));
        }
        // The family is the sample name itself, or its base for the
        // summary/histogram child series.
        let family_known = types.contains_key(name)
            || ["_sum", "_count", "_bucket"].iter().any(|suffix| {
                name.strip_suffix(suffix).is_some_and(|base| {
                    matches!(
                        types.get(base).map(String::as_str),
                        Some("summary") | Some("histogram")
                    )
                })
            });
        if !family_known {
            return Err(format!("line {n}: sample {name:?} has no # TYPE line"));
        }
        // Credit the sample to its family, so empty families can be
        // rejected after the scan.
        let family = if types.contains_key(name) {
            name.to_string()
        } else {
            ["_sum", "_count", "_bucket"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .expect("family_known implies a suffix match")
                .to_string()
        };
        families_with_samples.insert(family);
        if !seen_samples.insert(format!("{name}{{{labels}}}")) {
            return Err(format!("line {n}: duplicate sample {name:?}"));
        }
        samples += 1;
    }
    for family in types.keys() {
        if !families_with_samples.contains(family) {
            return Err(format!(
                "family {family:?} is declared by # TYPE but has no samples"
            ));
        }
    }
    Ok(samples)
}

// ---------------------------------------------------------------------------
// Progress + health views
// ---------------------------------------------------------------------------

/// Live state of one campaign worker, kept current by the producer and
/// rendered into `/progress` and `/healthz`.
#[derive(Clone, Debug)]
pub struct WorkerView {
    /// Worker index (0-based).
    pub id: usize,
    /// Cells this worker has completed.
    pub cells_completed: u64,
    /// Trials this worker has completed.
    pub trials_completed: u64,
    /// Victim encryptions this worker has consumed so far.
    pub encryptions: u64,
    /// The cell currently running, if any.
    pub current_cell: Option<u64>,
    /// Human label of the current cell (`defense/attack/noise`).
    pub current_label: String,
    /// Deterministic seed of the current cell.
    pub current_seed: Option<u64>,
    /// Wall-clock instant of the last heartbeat.
    pub last_beat: Option<Instant>,
    /// Set by the watchdog when the heartbeat goes missing; cleared on the
    /// next heartbeat.
    pub stalled: bool,
    /// The worker has drained the queue and exited.
    pub done: bool,
}

impl WorkerView {
    /// A fresh, never-beaten worker slot.
    pub fn new(id: usize) -> Self {
        Self {
            id,
            cells_completed: 0,
            trials_completed: 0,
            encryptions: 0,
            current_cell: None,
            current_label: String::new(),
            current_seed: None,
            last_beat: None,
            stalled: false,
            done: false,
        }
    }

    /// Milliseconds since the last heartbeat (`None` before the first).
    pub fn beat_age_ms(&self) -> Option<u64> {
        self.last_beat.map(|at| at.elapsed().as_millis() as u64)
    }

    fn write(&self, w: &mut ObjWriter) {
        w.u64("id", self.id as u64)
            .u64("cells_completed", self.cells_completed)
            .u64("trials_completed", self.trials_completed)
            .u64("encryptions", self.encryptions);
        match self.current_cell {
            Some(c) => w.u64("current_cell", c),
            None => w.null("current_cell"),
        };
        w.str("current_label", &self.current_label);
        match self.current_seed {
            Some(s) => w.u64("current_seed", s),
            None => w.null("current_seed"),
        };
        match self.beat_age_ms() {
            Some(ms) => w.u64("beat_age_ms", ms),
            None => w.null("beat_age_ms"),
        };
        w.bool("stalled", self.stalled).bool("done", self.done);
    }
}

/// Campaign-level progress: totals plus one [`WorkerView`] per worker.
#[derive(Clone, Debug, Default)]
pub struct ProgressView {
    /// Campaign name shown by consumers (`arena smoke`, ...).
    pub campaign: String,
    /// Cells in the sweep grid.
    pub total_cells: u64,
    /// Cells some worker has started.
    pub cells_started: u64,
    /// Cells fully completed.
    pub cells_completed: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// Trials completed across all cells.
    pub trials_completed: u64,
    /// Victim encryptions consumed across all workers.
    pub encryptions_total: u64,
    /// Wall-clock start of the campaign.
    pub started: Option<Instant>,
    /// The campaign finished (the matrix is assembled).
    pub done: bool,
    /// Per-worker state.
    pub workers: Vec<WorkerView>,
}

impl ProgressView {
    /// Milliseconds since the campaign started.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.map_or(0, |at| at.elapsed().as_millis() as u64)
    }

    /// Renders the `/progress` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("campaign", &self.campaign)
            .u64("total_cells", self.total_cells)
            .u64("cells_started", self.cells_started)
            .u64("cells_completed", self.cells_completed)
            .u64("trials_per_cell", self.trials_per_cell)
            .u64("trials_completed", self.trials_completed)
            .u64("encryptions_total", self.encryptions_total)
            .u64("elapsed_ms", self.elapsed_ms())
            .bool("done", self.done)
            .arr("workers", Layout::Compact, |a| {
                for worker in &self.workers {
                    a.obj(Layout::Compact, |o| worker.write(o));
                }
            });
        w.finish()
    }
}

/// Everything the live endpoints serve, shared as `Arc<Mutex<LiveState>>`
/// between the producer (collector/watchdog threads) and the server.
#[derive(Debug, Default)]
pub struct LiveState {
    /// Folded metric view behind `/metrics`.
    pub metrics: MetricsState,
    /// Campaign progress behind `/progress`.
    pub progress: ProgressView,
    /// The watchdog's missed-heartbeat threshold, echoed by `/healthz`
    /// (`None` when no watchdog is attached).
    pub watchdog_threshold_ms: Option<u64>,
    /// Stall flags the watchdog has raised over the whole run (a worker
    /// that recovers keeps its mark here).
    pub stalls_flagged: u64,
}

impl LiveState {
    /// True when no live (not-done) worker is currently flagged stalled.
    pub fn healthy(&self) -> bool {
        self.progress.workers.iter().all(|w| w.done || !w.stalled)
    }

    /// Renders the `/healthz` JSON document.
    pub fn health_json(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("status", if self.healthy() { "ok" } else { "stalled" });
        match self.watchdog_threshold_ms {
            Some(ms) => w.u64("watchdog_threshold_ms", ms),
            None => w.null("watchdog_threshold_ms"),
        };
        w.u64("stalls_flagged", self.stalls_flagged)
            .bool("done", self.progress.done)
            .arr("workers", Layout::Compact, |a| {
                for worker in &self.progress.workers {
                    a.obj(Layout::Compact, |w| {
                        w.u64("id", worker.id as u64)
                            .bool("alive", worker.done || !worker.stalled)
                            .bool("stalled", worker.stalled)
                            .bool("done", worker.done);
                        match worker.beat_age_ms() {
                            Some(ms) => w.u64("beat_age_ms", ms),
                            None => w.null("beat_age_ms"),
                        };
                    });
                }
            });
        w.finish()
    }
}

/// Spawns a thread that drains a [`DeltaSnapshot`] receiver into the
/// shared state's [`MetricsState`]. Exits when the sending side hangs up;
/// join the handle after dropping the producer.
pub fn spawn_delta_applier(
    rx: Receiver<DeltaSnapshot>,
    state: Arc<Mutex<LiveState>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(delta) = rx.recv() {
            state
                .lock()
                .expect("live state poisoned")
                .metrics
                .apply(&delta);
        }
    })
}

// ---------------------------------------------------------------------------
// HTTP server + client
// ---------------------------------------------------------------------------

/// One parsed HTTP request, handed to a [`Router`] handler.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: String,
}

/// The response a handler produces; the server adds `Content-Length` and
/// `Connection: close` itself.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Numeric status code (`200`, `404`, `429`, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: String,
    /// Extra response headers (e.g. `Retry-After` on a 429).
    pub headers: Vec<(String, String)>,
}

impl HttpResponse {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// A JSON response (the body is already-serialized JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// Adds one extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The standard reason phrase for the statuses this crate emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "",
        }
    }
}

type Handler = Box<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

struct Route {
    method: &'static str,
    pattern: String,
    prefix: bool,
    handler: Handler,
}

/// Method + path dispatch for [`LiveServer`]: exact routes
/// ([`Router::get`], [`Router::post`]) and prefix routes
/// ([`Router::get_prefix`]) for path-parameterized endpoints like
/// `/campaigns/<id>/...`. Unmatched paths get 404; a matched path with the
/// wrong method gets 405.
#[derive(Default)]
pub struct Router {
    routes: Vec<Route>,
}

impl Router {
    /// An empty router (dispatches everything to 404).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an exact-path GET route.
    pub fn get(
        mut self,
        path: impl Into<String>,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method: "GET",
            pattern: path.into(),
            prefix: false,
            handler: Box::new(handler),
        });
        self
    }

    /// Registers a GET route matching every path under `prefix` (the
    /// handler parses the remainder itself).
    pub fn get_prefix(
        mut self,
        prefix: impl Into<String>,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method: "GET",
            pattern: prefix.into(),
            prefix: true,
            handler: Box::new(handler),
        });
        self
    }

    /// Registers an exact-path POST route.
    pub fn post(
        mut self,
        path: impl Into<String>,
        handler: impl Fn(&HttpRequest) -> HttpResponse + Send + Sync + 'static,
    ) -> Self {
        self.routes.push(Route {
            method: "POST",
            pattern: path.into(),
            prefix: false,
            handler: Box::new(handler),
        });
        self
    }

    /// Routes one request: first handler whose method and pattern match.
    pub fn dispatch(&self, request: &HttpRequest) -> HttpResponse {
        let path_matches = |route: &Route| {
            if route.prefix {
                request.path.starts_with(&route.pattern)
            } else {
                request.path == route.pattern
            }
        };
        if let Some(route) = self
            .routes
            .iter()
            .find(|r| r.method == request.method && path_matches(r))
        {
            return (route.handler)(request);
        }
        // A known path with the wrong method is 405, anything else 404.
        if self.routes.iter().any(path_matches) {
            HttpResponse::text(405, format!("method {} not allowed here\n", request.method))
        } else {
            HttpResponse::text(404, format!("no such endpoint: {}\n", request.path))
        }
    }
}

/// The default live-plane routes over a shared [`LiveState`]:
/// `GET /metrics` (Prometheus text), `GET /progress` (JSON),
/// `GET /healthz` (JSON; 503 while any worker is flagged stalled) and a
/// tiny index at `/`. [`LiveServer::bind`] serves exactly this; consumers
/// with more endpoints (the campaign orchestrator's serve mode) extend the
/// returned router before binding.
pub fn default_router(state: Arc<Mutex<LiveState>>) -> Router {
    let metrics = Arc::clone(&state);
    let progress = Arc::clone(&state);
    let health = Arc::clone(&state);
    Router::new()
        .get("/metrics", move |_| {
            let state = metrics.lock().expect("live state poisoned");
            let mut r = HttpResponse::text(200, state.metrics.exposition());
            r.content_type = "text/plain; version=0.0.4; charset=utf-8".to_string();
            r
        })
        .get("/progress", move |_| {
            let state = progress.lock().expect("live state poisoned");
            HttpResponse::json(200, format!("{}\n", state.progress.to_json()))
        })
        .get("/healthz", move |_| {
            let state = health.lock().expect("live state poisoned");
            let status = if state.healthy() { 200 } else { 503 };
            HttpResponse::json(status, format!("{}\n", state.health_json()))
        })
        .get("/", |_| {
            HttpResponse::text(
                200,
                "grinch live plane\n\n/metrics   Prometheus text exposition\n/progress  campaign progress (JSON)\n/healthz   worker liveness (JSON)\n",
            )
        })
}

/// The std-only HTTP server behind `grinch-campaign run --live` and
/// `grinch-campaign serve`.
///
/// Dispatches through a [`Router`] — no async runtime, no HTTP crate; one
/// short request per connection with `Connection: close` is all a scraper,
/// `curl`, or the campaign submission client needs.
pub struct LiveServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
    /// the [`default_router`] over `state` on a background thread.
    pub fn bind(addr: &str, state: Arc<Mutex<LiveState>>) -> std::io::Result<Self> {
        Self::bind_with_router(addr, default_router(state))
    }

    /// Binds `addr` and serves an arbitrary [`Router`] on a background
    /// thread.
    pub fn bind_with_router(addr: &str, router: Router) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("grinch-live".to_string())
            .spawn(move || serve_loop(listener, router, flag))
            .expect("spawn live server thread");
        Ok(Self {
            addr: local,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The actually-bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_loop(listener: TcpListener, router: Router, shutdown: Arc<AtomicBool>) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Requests are one line plus headers; handle inline. A
                // stuck client cannot wedge the loop past the timeout.
                let _ = handle_connection(stream, &router);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Cap on accepted request bodies — campaign submissions are a few hundred
/// bytes of config JSON; anything bigger gets 413.
const MAX_BODY_BYTES: usize = 64 * 1024;

fn handle_connection(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nonblocking(false)?;

    // Read until the end of the request headers (or a sane cap).
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    let header_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break Some(at + 4);
        }
        if buf.len() > 8192 {
            break None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break None,
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end.unwrap_or(buf.len())]).to_string();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path).to_string();

    // A declared body (Content-Length) is read in full before dispatch;
    // oversized bodies are refused without reading them.
    let content_length = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    let response = if content_length > MAX_BODY_BYTES {
        HttpResponse::text(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap\n"),
        )
    } else {
        let mut body = match header_end {
            Some(at) => buf[at..].to_vec(),
            None => Vec::new(),
        };
        while body.len() < content_length {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        body.truncate(content_length);
        let request = HttpRequest {
            method,
            path,
            body: String::from_utf8_lossy(&body).to_string(),
        };
        router.dispatch(&request)
    };

    let mut extra = String::new();
    for (name, value) in &response.headers {
        extra.push_str(&format!("{name}: {value}\r\n"));
    }
    let reason = response.reason();
    let text = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body
    );
    stream.write_all(text.as_bytes())?;
    stream.flush()
}

/// One-shot HTTP GET against a live server: returns `(status_code, body)`.
/// The client half of [`LiveServer`], used by `grinch-report tail` and the
/// CI smoke checks; `addr` is `host:port`, `path` starts with `/`.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let (status, _headers, body) = http_request(addr, "GET", path, "")?;
    Ok((status, body))
}

/// What the one-shot clients return: status code, response headers,
/// response body.
pub type HttpReply = (u16, Vec<(String, String)>, String);

/// One-shot HTTP POST with a request body: returns
/// `(status_code, response_headers, body)`. The headers let the caller
/// honour backpressure (`Retry-After` on a 429 from the campaign
/// submission queue).
pub fn http_post(addr: &str, path: &str, body: &str) -> std::io::Result<HttpReply> {
    http_request(addr, "POST", path, body)
}

/// The shared one-shot client: one request, `Connection: close`, parsed
/// status line and headers back.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<HttpReply> {
    let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "address resolves to nothing")
    })?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let mut head_and_body = response.splitn(2, "\r\n\r\n");
    let head = head_and_body.next().unwrap_or("");
    let body = head_and_body.next().unwrap_or("").to_string();
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response")
        })?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_string(), value.trim().to_string()))
        })
        .collect();
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::HistogramDelta;

    fn delta(seq: u64) -> DeltaSnapshot {
        DeltaSnapshot {
            seq,
            sim_time_ns: 100 * (seq + 1),
            counters: vec![("arena.cells.completed".to_string(), seq + 1)],
            gauges: vec![("arena.workers.stalled".to_string(), 0.0)],
            histograms: vec![(
                "probe.latency_ns".to_string(),
                HistogramDelta {
                    count: 2 * (seq + 1),
                    sum: 100 * (seq as u128 + 1),
                },
            )],
            spans_total: seq,
        }
    }

    #[test]
    fn metrics_state_folds_deltas_last_write_wins() {
        let mut state = MetricsState::default();
        state.apply(&delta(0));
        state.apply(&delta(1));
        assert_eq!(state.seq, Some(1));
        assert_eq!(state.counters["arena.cells.completed"], 2);
        assert_eq!(state.histograms["probe.latency_ns"], (4, 200));
        assert_eq!(state.sim_time_ns, 200);
    }

    #[test]
    fn exposition_is_valid_and_carries_every_family() {
        let mut state = MetricsState::default();
        state.apply(&delta(3));
        let text = state.exposition();
        let samples = validate_exposition(&text).expect("valid exposition");
        // stream_seq, sim_time, spans, counter, gauge, summary sum+count.
        assert_eq!(samples, 7);
        assert!(text.contains("# TYPE arena_cells_completed counter"));
        assert!(text.contains("arena_cells_completed 4\n"));
        assert!(text.contains("# TYPE probe_latency_ns summary"));
        assert!(text.contains("probe_latency_ns_count 8\n"));
        assert!(text.contains("grinch_stream_seq 4\n"));
    }

    #[test]
    fn sanitizer_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_metric_name("cache.l1.hits"), "cache_l1_hits");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn validator_rejects_format_violations() {
        assert!(validate_exposition("# TYPE a counter\na 1\n").is_ok());
        let dup_family = "# TYPE a counter\n# TYPE a counter\na 1\n";
        assert!(validate_exposition(dup_family)
            .unwrap_err()
            .contains("duplicate family"));
        let orphan = "a 1\n";
        assert!(validate_exposition(orphan)
            .unwrap_err()
            .contains("no # TYPE"));
        let dup_sample = "# TYPE a counter\na 1\na 2\n";
        assert!(validate_exposition(dup_sample)
            .unwrap_err()
            .contains("duplicate sample"));
        let bad_value = "# TYPE a counter\na one\n";
        assert!(validate_exposition(bad_value)
            .unwrap_err()
            .contains("unparseable value"));
        let summary = "# TYPE s summary\ns_sum 10\ns_count 2\n";
        assert_eq!(validate_exposition(summary), Ok(2));
        let labeled = "# TYPE a counter\na{worker=\"1\"} 1\na{worker=\"2\"} 1\n";
        assert_eq!(validate_exposition(labeled), Ok(2));
    }

    #[test]
    fn validator_rejects_a_type_line_with_no_samples() {
        let empty_family = "# TYPE a counter\n# TYPE b counter\nb 1\n";
        let err = validate_exposition(empty_family).unwrap_err();
        assert!(
            err.contains("\"a\"") && err.contains("no samples"),
            "empty family named in {err:?}"
        );
        // A summary satisfied only through its child series still counts.
        let summary_children = "# TYPE s summary\ns_sum 10\ns_count 2\n";
        assert!(validate_exposition(summary_children).is_ok());
        // Order independence: samples may precede later TYPE declarations,
        // but an empty family is caught regardless of where it appears.
        let empty_last = "# TYPE b counter\nb 1\n# TYPE a counter\n";
        assert!(validate_exposition(empty_last)
            .unwrap_err()
            .contains("no samples"));
    }

    #[test]
    fn progress_and_health_render_json() {
        let mut state = LiveState::default();
        state.progress.campaign = "arena smoke".to_string();
        state.progress.total_cells = 4;
        state.progress.cells_completed = 1;
        state.progress.workers = vec![WorkerView::new(0), WorkerView::new(1)];
        state.progress.workers[0].current_cell = Some(2);
        state.progress.workers[0].current_label = "baseline/flush-reload/0".to_string();
        state.progress.workers[0].last_beat = Some(Instant::now());
        state.watchdog_threshold_ms = Some(5000);

        let progress = grinch_telemetry::json::parse(&state.progress.to_json()).expect("json");
        assert_eq!(progress.get("total_cells").unwrap().as_u64(), Some(4));
        assert_eq!(
            progress.get("workers").unwrap().get("x"),
            None,
            "workers is an array, not an object"
        );

        assert!(state.healthy());
        state.progress.workers[1].stalled = true;
        assert!(!state.healthy(), "a stalled live worker is unhealthy");
        let health = grinch_telemetry::json::parse(&state.health_json()).expect("json");
        assert_eq!(health.get("status").unwrap().as_str(), Some("stalled"));
        state.progress.workers[1].done = true;
        assert!(state.healthy(), "a done worker cannot be stalled");

        // Literal bytes, with the one wall-clock field (beat age) unset.
        state.progress.workers[0].last_beat = None;
        let progress = state.progress.to_json();
        let health = state.health_json();
        assert_eq!(
            progress,
            concat!(
                "{\"campaign\":\"arena smoke\",\"total_cells\":4,\"cells_started\":0,\"cells_completed\":1,",
                "\"trials_per_cell\":0,\"trials_completed\":0,\"encryptions_total\":0,",
                "\"elapsed_ms\":0,\"done\":false,\"workers\":[{\"id\":0,\"cells_completed\":0,",
                "\"trials_completed\":0,\"encryptions\":0,\"current_cell\":2,\"current_label\":\"baseline/flush-reload/0\",",
                "\"current_seed\":null,\"beat_age_ms\":null,\"stalled\":false,\"done\":false},",
                "{\"id\":1,\"cells_completed\":0,\"trials_completed\":0,\"encryptions\":0,",
                "\"current_cell\":null,\"current_label\":\"\",\"current_seed\":null,\"beat_age_ms\":null,",
                "\"stalled\":true,\"done\":true}]}",
            )
        );
        assert_eq!(
            health,
            concat!(
                "{\"status\":\"ok\",\"watchdog_threshold_ms\":5000,\"stalls_flagged\":0,",
                "\"done\":false,\"workers\":[{\"id\":0,\"alive\":true,\"stalled\":false,",
                "\"done\":false,\"beat_age_ms\":null},{\"id\":1,\"alive\":true,\"stalled\":true,",
                "\"done\":true,\"beat_age_ms\":null}]}",
            )
        );
    }

    #[test]
    fn server_serves_metrics_progress_and_health() {
        let state = Arc::new(Mutex::new(LiveState::default()));
        {
            let mut s = state.lock().unwrap();
            s.progress.campaign = "test".to_string();
            s.progress.total_cells = 2;
            s.progress.workers = vec![WorkerView::new(0)];
            s.metrics.apply(&delta(0));
        }
        let server = LiveServer::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
        let addr = server.addr().to_string();

        let (code, body) = http_get(&addr, "/metrics").expect("GET /metrics");
        assert_eq!(code, 200);
        validate_exposition(&body).expect("scrape is valid exposition");

        let (code, body) = http_get(&addr, "/progress").expect("GET /progress");
        assert_eq!(code, 200);
        let doc = grinch_telemetry::json::parse(body.trim()).expect("progress json");
        assert_eq!(doc.get("campaign").unwrap().as_str(), Some("test"));

        let (code, _) = http_get(&addr, "/healthz").expect("GET /healthz");
        assert_eq!(code, 200);
        state.lock().unwrap().progress.workers[0].stalled = true;
        let (code, body) = http_get(&addr, "/healthz").expect("GET /healthz stalled");
        assert_eq!(code, 503, "stalled worker flips healthz: {body}");

        let (code, _) = http_get(&addr, "/nope").expect("GET /nope");
        assert_eq!(code, 404);
        let (code, _, _) = http_post(&addr, "/metrics", "").expect("POST /metrics");
        assert_eq!(code, 405, "known path, wrong method");

        // Custom routers: POST bodies arrive intact, prefix routes match
        // parameterized paths, and extra headers (Retry-After) go out.
        let router = Router::new()
            .post("/submit", |req: &HttpRequest| {
                if req.body.is_empty() {
                    HttpResponse::text(429, "queue full\n").with_header("Retry-After", "2")
                } else {
                    HttpResponse::json(202, format!("{{\"got\":{}}}\n", req.body.len()))
                }
            })
            .get_prefix("/campaigns/", |req: &HttpRequest| {
                let id = req.path.trim_start_matches("/campaigns/");
                HttpResponse::text(200, format!("campaign {id}\n"))
            });
        let custom = LiveServer::bind_with_router("127.0.0.1:0", router).expect("bind");
        let custom_addr = custom.addr().to_string();
        let (code, _, body) = http_post(&custom_addr, "/submit", "{\"x\":1}").expect("POST");
        assert_eq!((code, body.as_str()), (202, "{\"got\":7}\n"));
        let (code, headers, _) = http_post(&custom_addr, "/submit", "").expect("POST empty");
        assert_eq!(code, 429);
        let retry = headers.iter().find(|(name, _)| name == "Retry-After");
        assert_eq!(retry.map(|(_, v)| v.as_str()), Some("2"));
        let (code, body) = http_get(&custom_addr, "/campaigns/abc123/status").expect("GET");
        assert_eq!(code, 200);
        assert_eq!(body, "campaign abc123/status\n");
        custom.shutdown();

        // Applier thread folds streamed deltas into the served state.
        let (tx, rx) = std::sync::mpsc::channel();
        let applier = spawn_delta_applier(rx, Arc::clone(&state));
        tx.send(delta(1)).unwrap();
        drop(tx);
        applier.join().unwrap();
        let (_, body) = http_get(&addr, "/metrics").expect("GET /metrics again");
        assert!(body.contains("arena_cells_completed 2\n"));

        server.shutdown();
    }
}
