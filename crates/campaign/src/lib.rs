//! # grinch-campaign
//!
//! The long-running campaign orchestrator over the `grinch-arena` sweep
//! engine: sharded work distribution, streaming journals, checkpointed
//! resume, and an HTTP serve mode.
//!
//! `grinch-campaign run` is the one way to sweep the arena grid. The full
//! evaluation matrix wants to survive restarts, spread over invocations
//! (or machines), and report progress while it runs; this crate adds
//! that operational layer without touching the determinism contract:
//! every cell stays a pure function of `(config identity, cell_index)`,
//! so **any** shard count, shard ordering, worker count or kill/resume
//! history re-aggregates to a matrix byte-identical to a one-shot
//! [`run_campaign`](grinch_arena::run_campaign) (pinned by test against
//! the committed baseline).
//!
//! * [`shard`] — [`ShardPlan`]: the deterministic partition of the cell
//!   grid into shards, keyed by the same splitmix64 per-cell seed chain
//!   the engine already derives trial randomness from;
//! * [`aggregate`] — merging any set of `grinch-campaign/v1` shard
//!   journals (see [`grinch_arena::journal`]) back into the full
//!   [`ArenaMatrix`](grinch_arena::ArenaMatrix), with identity, conflict
//!   and coverage checks that name what is missing instead of emitting a
//!   silently wrong matrix;
//! * [`serve`](mod@serve) — the HTTP service: campaign submission over POST with a
//!   bounded queue and explicit backpressure (429 + `Retry-After`),
//!   per-shard progress, Prometheus `/metrics`, and rendered heatmaps —
//!   mounted on the same zero-dependency [`grinch_obs`] HTTP server the
//!   arena's live plane uses.
//!
//! The `grinch-campaign` binary wires it into a CLI:
//!
//! ```text
//! grinch-campaign run --preset smoke --check --svg results/arena.svg
//! grinch-campaign run --preset full --shards 4 --live 127.0.0.1:9090
//! grinch-campaign status --journal-dir results/campaign
//! grinch-campaign aggregate --journal-dir results/campaign --out MATRIX.json
//! grinch-campaign serve --addr 127.0.0.1:9091 --queue-capacity 4
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod serve;
pub mod shard;

pub use aggregate::{aggregate_journals, Aggregation};
pub use serve::{serve, ServeHandle, ServeOptions};
pub use shard::ShardPlan;
