//! # grinch-obs
//!
//! The consumption side of the GRINCH telemetry contract. `grinch-telemetry`
//! makes every layer of the workspace *emit* JSONL traces; this crate is
//! what *reads* them and turns them into actionable observability artifacts:
//!
//! * [`chrome`] — a Chrome Trace Event Format exporter, so any run's span
//!   tree opens in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`heatmap`] — per-stage / per-line cache heatmaps (ASCII and
//!   self-contained SVG) reconstructed from the oracle's
//!   `attack.stage<r>.line_hits.*` counters;
//! * [`leakage`] — an empirical mutual-information estimate between
//!   key-nibble hypotheses (the crafted forced patterns) and observed
//!   S-box line indices, per attack stage — the quantitative "how much does
//!   this channel leak" number;
//! * [`dashboard`](mod@dashboard) — a text attack-progress report: entropy trajectory,
//!   per-stage probe / cycle budgets, cache hit rates;
//! * [`matrix`] — generic labelled rows × columns heat grids (the arena's
//!   defense × attack matrix), same ASCII/SVG idiom as [`heatmap`];
//! * [`live`] — the *during*-the-run half: streamed-delta metric state,
//!   Prometheus text exposition, campaign progress/health views and a
//!   zero-dependency HTTP server (`/metrics`, `/progress`, `/healthz`)
//!   that `grinch-campaign run --live` plugs into;
//! * [`profile`] — span-profile aggregation: per-stack self-time totals
//!   and collapsed-stack `.folded` output for flamegraph tooling;
//! * [`bench`](mod@bench) — the regression gate: aggregates a run's telemetry into a
//!   schema'd `BENCH_<name>.json` and compares it against committed
//!   baselines with configurable tolerances;
//! * [`artifacts`] — the per-run pipeline every producer calls: the
//!   telemetry handle with its crash flight recorder, then the trace,
//!   bench report, span profile and ledger record a run leaves behind;
//! * [`history`] — the persistent half: the append-only run ledger
//!   (`grinch-run/v1` records in `results/ledger/LEDGER.jsonl`), the
//!   median/MAD regression sentinel with change-point detection, trend
//!   sparklines/SVG, and the flight-recorder postmortem reader;
//! * [`cli`] — the argument helpers and `main` dispatch all four
//!   workspace binaries share;
//! * [`paths`] — canonical locations (`results/`, `bench/baselines/`,
//!   `results/ledger/`) that stay correct regardless of the invoking
//!   working directory.
//!
//! The `grinch-report` binary wires all of this into a CLI:
//!
//! ```text
//! grinch-report trace results/quickstart.telemetry.jsonl --chrome out.json
//! grinch-report heatmap results/quickstart.telemetry.jsonl --svg heat.svg
//! grinch-report leakage results/quickstart.telemetry.jsonl
//! grinch-report dashboard results/quickstart.telemetry.jsonl
//! grinch-report bench --check
//! grinch-report regress --check
//! grinch-report trend --svg results/trend.svg
//! grinch-report postmortem results/FLIGHT_quickstart.json
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod bench;
pub mod chrome;
pub mod cli;
pub mod dashboard;
pub mod heatmap;
pub mod history;
pub mod leakage;
pub mod live;
pub mod matrix;
pub mod paths;
pub mod profile;

pub use artifacts::{bench_telemetry_for, emit_telemetry_report};
pub use bench::{BenchReport, GateOutcome, MetricDeviation, WallSection};
pub use chrome::chrome_trace_json;
pub use dashboard::dashboard;
pub use heatmap::Heatmap;
pub use history::{FlightDump, Ledger, RunRecord, SentinelConfig};
pub use leakage::{JointCounts, StageLeakage};
pub use live::{
    HttpRequest, HttpResponse, LiveServer, LiveState, MetricsState, ProgressView, Router,
    WorkerView,
};
pub use matrix::MatrixHeat;
pub use profile::SpanProfile;
