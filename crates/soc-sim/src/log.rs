//! Scenario event log: the timeline of victim rounds and attacker probes.

use core::fmt;

/// A timestamped scenario event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// The victim started executing `round` (1-based) at `time_ns`.
    RoundStart {
        /// Wall-clock time in nanoseconds.
        time_ns: u64,
        /// 1-based round number.
        round: usize,
    },
    /// The victim finished an entire encryption.
    EncryptionDone {
        /// Wall-clock time in nanoseconds.
        time_ns: u64,
        /// 0-based index of the completed encryption.
        index: usize,
    },
    /// The attacker completed a full probe pass over the S-box lines.
    ProbeComplete {
        /// Wall-clock time at which the pass finished.
        time_ns: u64,
        /// Victim round (1-based) in progress when the pass finished, or
        /// `None` if the victim was not inside an encryption.
        victim_round: Option<usize>,
        /// Probed line base addresses that hit (were resident).
        hit_lines: Vec<u64>,
    },
    /// A context switch occurred (single-processor SoC only).
    ContextSwitch {
        /// Wall-clock time in nanoseconds.
        time_ns: u64,
        /// Name of the process being switched in.
        to: &'static str,
    },
}

impl ScenarioEvent {
    /// The event's timestamp.
    pub fn time_ns(&self) -> u64 {
        match self {
            Self::RoundStart { time_ns, .. }
            | Self::EncryptionDone { time_ns, .. }
            | Self::ProbeComplete { time_ns, .. }
            | Self::ContextSwitch { time_ns, .. } => *time_ns,
        }
    }
}

impl fmt::Display for ScenarioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RoundStart { time_ns, round } => {
                write!(f, "[{time_ns} ns] victim round {round} starts")
            }
            Self::EncryptionDone { time_ns, index } => {
                write!(f, "[{time_ns} ns] encryption {index} done")
            }
            Self::ProbeComplete {
                time_ns,
                victim_round,
                hit_lines,
            } => write!(
                f,
                "[{time_ns} ns] probe complete (victim round {victim_round:?}, {} hits)",
                hit_lines.len()
            ),
            Self::ContextSwitch { time_ns, to } => {
                write!(f, "[{time_ns} ns] context switch to {to}")
            }
        }
    }
}

/// The scenario timeline, plus live victim-progress tracking the attacker
/// process queries when it records a probe.
///
/// The log doubles as the telemetry adapter for the SoC simulation: when a
/// [`grinch_telemetry::Telemetry`] handle is attached, every recorded
/// [`ScenarioEvent`] also sets the simulated clock and publishes the
/// matching metric (`victim.rounds`, `victim.encryptions`,
/// `attacker.probe_passes` + an `attacker.probe_hit_lines` histogram, and
/// `scheduler.context_switches`). Scenario time starts at 0, so the clock
/// reads the handle's time when the log was built plus the event's time,
/// and never moves back: scenarios that share one handle run one after
/// another on its clock.
/// Existing consumers of [`Self::events`] are unaffected.
#[derive(Clone, Debug, Default)]
pub struct ScenarioLog {
    events: Vec<ScenarioEvent>,
    current_round: Option<usize>,
    telemetry: grinch_telemetry::Telemetry,
    /// The handle's clock when the log was built: scenario time 0.
    origin_ns: u64,
}

impl ScenarioLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log that mirrors every event into `telemetry`.
    pub fn with_telemetry(telemetry: grinch_telemetry::Telemetry) -> Self {
        Self {
            origin_ns: telemetry.now_ns(),
            telemetry,
            ..Self::default()
        }
    }

    /// The attached telemetry handle (disabled unless built via
    /// [`Self::with_telemetry`]).
    pub fn telemetry(&self) -> &grinch_telemetry::Telemetry {
        &self.telemetry
    }

    /// Sets the handle's clock to scenario time `time_ns`, never back:
    /// the co-simulation can record a victim round start a few µs before
    /// a probe pass it already recorded as complete.
    fn set_time_ns(&self, time_ns: u64) {
        let now = self.telemetry.now_ns();
        self.telemetry
            .set_time_ns(now.max(self.origin_ns + time_ns));
    }

    /// Records a victim round start.
    pub fn round_start(&mut self, time_ns: u64, round: usize) {
        self.current_round = Some(round);
        self.events
            .push(ScenarioEvent::RoundStart { time_ns, round });
        self.set_time_ns(time_ns);
        self.telemetry.counter_inc("victim.rounds");
    }

    /// Records completion of an encryption.
    pub fn encryption_done(&mut self, time_ns: u64, index: usize) {
        self.current_round = None;
        self.events
            .push(ScenarioEvent::EncryptionDone { time_ns, index });
        self.set_time_ns(time_ns);
        self.telemetry.counter_inc("victim.encryptions");
    }

    /// Records a completed probe pass.
    pub fn probe_complete(&mut self, time_ns: u64, hit_lines: Vec<u64>) {
        self.set_time_ns(time_ns);
        self.telemetry.counter_inc("attacker.probe_passes");
        self.telemetry
            .record_value("attacker.probe_hit_lines", hit_lines.len() as u64);
        self.events.push(ScenarioEvent::ProbeComplete {
            time_ns,
            victim_round: self.current_round,
            hit_lines,
        });
    }

    /// Records a context switch.
    pub fn context_switch(&mut self, time_ns: u64, to: &'static str) {
        self.events
            .push(ScenarioEvent::ContextSwitch { time_ns, to });
        self.set_time_ns(time_ns);
        self.telemetry.counter_inc("scheduler.context_switches");
    }

    /// The victim round currently in progress, if any.
    pub fn current_round(&self) -> Option<usize> {
        self.current_round
    }

    /// All recorded events, oldest first.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_records_round_in_progress() {
        let mut log = ScenarioLog::new();
        log.round_start(100, 1);
        log.round_start(200, 2);
        log.probe_complete(250, vec![1, 2]);
        log.encryption_done(900, 0);
        log.probe_complete(950, vec![]);
        match &log.events()[2] {
            ScenarioEvent::ProbeComplete { victim_round, .. } => {
                assert_eq!(*victim_round, Some(2));
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &log.events()[4] {
            ScenarioEvent::ProbeComplete { victim_round, .. } => {
                assert_eq!(*victim_round, None);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn telemetry_mirrors_events() {
        let tel = grinch_telemetry::Telemetry::new();
        let mut log = ScenarioLog::with_telemetry(tel.clone());
        log.round_start(100, 1);
        log.probe_complete(150, vec![8, 16]);
        log.context_switch(180, "victim");
        log.encryption_done(900, 0);
        assert_eq!(tel.counter("victim.rounds"), 1);
        assert_eq!(tel.counter("victim.encryptions"), 1);
        assert_eq!(tel.counter("attacker.probe_passes"), 1);
        assert_eq!(tel.counter("scheduler.context_switches"), 1);
        assert_eq!(tel.now_ns(), 900);
        let snap = tel.snapshot();
        let hist = snap.histogram("attacker.probe_hit_lines").unwrap();
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), Some(2));
        // The event timeline itself is unchanged by the mirroring.
        assert_eq!(log.events().len(), 4);
    }

    #[test]
    fn scenario_time_starts_at_the_handle_clock_and_never_runs_back() {
        let tel = grinch_telemetry::Telemetry::new();
        tel.advance_time_ns(1_000);
        let mut log = ScenarioLog::with_telemetry(tel.clone());
        log.round_start(100, 1);
        assert_eq!(tel.now_ns(), 1_100);
        log.encryption_done(900, 0);
        assert_eq!(tel.now_ns(), 1_900);
        log.probe_complete(890, vec![]);
        assert_eq!(tel.now_ns(), 1_900, "an earlier event leaves the clock");
        assert_eq!(log.events()[2].time_ns(), 890, "events keep scenario time");
    }

    #[test]
    fn timestamps_are_preserved() {
        let mut log = ScenarioLog::new();
        log.round_start(5, 1);
        log.context_switch(9, "attacker");
        assert_eq!(log.events()[0].time_ns(), 5);
        assert_eq!(log.events()[1].time_ns(), 9);
        assert!(!log.events()[1].to_string().is_empty());
    }
}
