//! `grinch-history`: the persistent half of the observability story.
//!
//! The live plane (streaming metrics, `/metrics`, span profiles) dies
//! with the process; the artifacts (`BENCH_*.json`) are overwritten each
//! run. This subsystem keeps what both lose:
//!
//! * [`ledger`] — the append-only run ledger
//!   (`results/ledger/LEDGER.jsonl`, one `grinch-run/v1` record per run),
//!   appended automatically by quickstart, every bench bin and
//!   `grinch-campaign run`;
//! * [`sentinel`] — robust statistics (median/MAD z-scores, two-window
//!   change-point scan) over the ledger's per-metric series, behind
//!   `grinch-report regress`;
//! * [`trend`] — the same series as terminal sparklines and
//!   self-contained SVG charts, behind `grinch-report trend`;
//! * [`postmortem`] — the reader for the telemetry flight recorder's
//!   panic dumps (`FLIGHT_<name>.json`), behind
//!   `grinch-report postmortem`.

pub mod ledger;
pub mod postmortem;
pub mod sentinel;
pub mod trend;

pub use ledger::{
    append_run, capture_env, fingerprint, ledger_enabled_from_env, metric_series, new_run_id,
    run_names, Ledger, ProfileDigest, RunRecord, LEDGER_ENV, RUN_SCHEMA,
};
pub use postmortem::{FlightDump, FlightEvent, MetricDelta, OpenSpan};
pub use sentinel::{analyze, change_point, ChangePoint, SentinelConfig, SeriesVerdict};
pub use trend::{sparkline, trend_report, trend_rows, trend_svg, TrendRow};
