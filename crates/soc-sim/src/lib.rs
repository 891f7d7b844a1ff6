//! # soc-sim
//!
//! An event-driven, cycle-approximate simulator of the two hardware
//! platforms evaluated in the GRINCH paper (Reinbrecht et al., DATE 2021):
//!
//! * a **single-processor SoC** — one RISCY-class core, a shared L1 cache
//!   reached over a bus, and an RTOS-style round-robin scheduler with a
//!   10 ms quantum that time-multiplexes the victim and attacker processes;
//! * a **7-processor MPSoC** — a 3×3 mesh NoC with XY deterministic routing
//!   connecting processor tiles to a shared-L1 tile, where the attacker owns
//!   a dedicated core and probes the cache remotely.
//!
//! The simulator is *information- and timing-accurate at the attack
//! interface*: it reproduces (a) which S-box cache lines are resident when
//! the attacker's probe executes and (b) the wall-clock relationship between
//! victim rounds, scheduler preemptions and probe latencies. Gate-level
//! behaviour is out of scope (the paper's numbers that depend on it are
//! reproduced through the calibrated constants in [`timing`]).
//!
//! The two top-level entry points are [`scenario::run_single_soc`] and
//! [`scenario::run_mpsoc`], each returning a [`scenario::ScenarioReport`]
//! describing every probe the attacker managed to execute and which victim
//! round it landed in — the quantity Table II of the paper reports. Both
//! take a `grinch_telemetry::Telemetry` last; `Telemetry::disabled()`
//! records nothing.
//!
//! ```
//! use grinch_telemetry::Telemetry;
//! use soc_sim::platform::PlatformConfig;
//! use soc_sim::scenario::run_single_soc;
//!
//! let report = run_single_soc(&PlatformConfig::single_soc(10_000_000), Telemetry::disabled());
//! let first_round = report.first_probe_round().expect("attacker got a window");
//! assert!(first_round >= 1);
//! ```

pub mod attacker;
pub mod bus;
pub mod clock;
pub mod disturber;
pub mod log;
pub mod noc;
pub mod platform;
pub mod process;
pub mod scenario;
pub mod scheduler;
pub mod timing;
pub mod victim;

pub use clock::Clock;
pub use platform::{PlatformConfig, PlatformKind};
pub use scenario::{run_mpsoc, run_single_soc, ProbeRecord, ScenarioReport};
pub use timing::TimingModel;
