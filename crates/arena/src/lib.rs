//! # grinch-arena
//!
//! The defense-vs-attack evaluation matrix: randomized-cache defenses
//! (CEASER-style keyed index remapping, DAWG-style way partitioning) swept
//! against the GRINCH attack variants under configurable observation noise.
//!
//! The paper evaluates GRINCH on an undefended platform and discusses
//! *software* countermeasures (§IV-C); this crate closes the loop on the
//! *hardware* side of the design space, answering "which cache defense
//! stops which probe mechanic, and at what residual leakage" with the same
//! simulated platform the reproduction already trusts.
//!
//! * [`spec`] — the sweep axes ([`DefenseSpec`], [`AttackSpec`], noise
//!   levels) and the [`CampaignConfig`] grid;
//! * [`cell`] — the Monte-Carlo cell runner: R trials of full-key recovery
//!   per (defense, attack, noise) combination, measuring success rate,
//!   encryptions-to-success and residual stage-1 key entropy;
//! * [`engine`] — [`run_campaign`]: cells distributed over `std::thread`
//!   workers with per-cell splitmix64 seeds, byte-identical results for
//!   any worker count; [`run_cells`] runs any subset of cells and can
//!   stream per-worker progress events without touching determinism;
//! * [`journal`] — the append-only `grinch-campaign/v1` JSONL journal:
//!   per-cell results streamed to disk with atomic line appends, so an
//!   interrupted sweep resumes from what it already finished instead of
//!   restarting — the substrate of the `grinch-campaign` orchestrator;
//! * [`progress`] — the live plane: worker events collected into streamed
//!   telemetry deltas and a shared progress view, a stalled-worker
//!   watchdog, and the [`LivePlane`] assembly behind
//!   `grinch-campaign run --live <addr>`;
//! * [`report`] — the stable `grinch-arena/v1` JSON document, the
//!   byte-exact baseline gate, and heatmap rendering via
//!   [`grinch_obs::MatrixHeat`].
//!
//! `grinch-campaign run` sweeps the grid (journaled, resumable, optionally
//! live); the `grinch-arena` binary re-renders saved matrices and captures
//! defended traces:
//!
//! ```text
//! grinch-campaign run --preset smoke --jobs 4 --check
//! grinch-campaign run --preset full --live 127.0.0.1:9090
//! grinch-arena render results/campaign/CAMPAIGN_<id>.json --metric entropy-bits
//! grinch-arena trace --epoch 64
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod engine;
pub mod journal;
pub mod progress;
pub mod report;
pub mod spec;

pub use cell::{CellResult, TrialProgress};
pub use engine::{assemble_matrix, run_campaign, run_cells};
pub use journal::{Journal, JournalState, CAMPAIGN_SCHEMA};
pub use progress::{LiveOptions, LivePlane, WorkerEvent};
pub use report::{ArenaMatrix, Metric};
pub use spec::{AttackSpec, CampaignConfig, DefenseSpec};
