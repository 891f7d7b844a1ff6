//! End-to-end victim/attacker co-simulations on both platforms.
//!
//! These scenarios answer the question behind Table II of the paper: *when
//! can the attacker actually probe the cache relative to the victim's
//! rounds?* On the single-processor SoC the answer is set by the RTOS
//! quantum; on the MPSoC the attacker probes continuously from its own tile.

use crate::attacker::{sbox_probe_addrs, ProbeAttacker};
use crate::log::{ScenarioEvent, ScenarioLog};
use crate::platform::{PlatformConfig, PlatformKind};
use crate::process::{ProcContext, Process, RunState};
use crate::scheduler::RoundRobinScheduler;
use crate::victim::GiftVictim;
use cache_sim::Cache;
use gift_cipher::{Key, TableGift64, GIFT64_ROUNDS};

/// One completed attacker probe pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Wall-clock completion time of the pass.
    pub time_ns: u64,
    /// Victim round (1-based) in progress when the pass completed; `None`
    /// when the victim was between encryptions or still in setup.
    pub victim_round: Option<usize>,
    /// Probed line base addresses that hit.
    pub hit_lines: Vec<u64>,
}

/// The outcome of a platform co-simulation.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Every probe pass the attacker completed, in time order.
    pub probes: Vec<ProbeRecord>,
    /// Ciphertexts the victim produced.
    pub ciphertexts: Vec<u64>,
    /// Wall-clock time at which the simulation stopped.
    pub end_ns: u64,
}

impl ScenarioReport {
    /// The first probe pass that landed while the victim was inside an
    /// encryption round — the pass Table II reports the round number of.
    pub fn first_probe(&self) -> Option<&ProbeRecord> {
        self.probes.iter().find(|p| p.victim_round.is_some())
    }

    /// The victim round (1-based) of [`Self::first_probe`], or `None` when
    /// the attacker never probed mid-encryption.
    pub fn first_probe_round(&self) -> Option<usize> {
        self.first_probe().and_then(|p| p.victim_round)
    }
}

fn demo_key() -> Key {
    // Fixed key for timing scenarios; the attack experiments in the
    // `grinch` crate supply their own keys.
    Key::from_u128(0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100)
}

fn demo_plaintexts(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x0123_4567_89ab_cdef)
        .collect()
}

fn extract_report(log: &ScenarioLog, ciphertexts: Vec<u64>, end_ns: u64) -> ScenarioReport {
    let probes = log
        .events()
        .iter()
        .filter_map(|e| match e {
            ScenarioEvent::ProbeComplete {
                time_ns,
                victim_round,
                hit_lines,
            } => Some(ProbeRecord {
                time_ns: *time_ns,
                victim_round: *victim_round,
                hit_lines: hit_lines.clone(),
            }),
            _ => None,
        })
        .collect();
    ScenarioReport {
        probes,
        ciphertexts,
        end_ns,
    }
}

/// Simulates the single-processor SoC with the default demo key.
///
/// The victim is scheduled first (it has a pending encryption request); the
/// attacker gets the CPU at each quantum expiry, runs one Flush+Reload pass
/// and yields.
///
/// The whole co-simulation is mirrored into `telemetry`: the shared cache
/// publishes `cache.l1.*`, the scenario log publishes
/// victim/attacker/scheduler counters, and the run is wrapped in a
/// `scenario.single_soc` span.
pub fn run_single_soc(
    config: &PlatformConfig,
    telemetry: grinch_telemetry::Telemetry,
) -> ScenarioReport {
    let _span = grinch_telemetry::span!(
        telemetry,
        "scenario.single_soc",
        encryptions = config.encryptions
    );
    run_single_soc_inner(
        config,
        demo_key(),
        demo_plaintexts(config.encryptions),
        None,
        telemetry.clone(),
    )
}

/// Simulates the single-processor SoC with a third, noise-generating
/// process in the run queue (the paper's "multiple processes disputing the
/// processor"). The disturber both delays the attacker's probe slots and
/// pollutes the shared cache.
pub fn run_single_soc_with_disturber(
    config: &PlatformConfig,
    accesses_per_kcycle: u64,
) -> ScenarioReport {
    run_single_soc_inner(
        config,
        demo_key(),
        demo_plaintexts(config.encryptions),
        Some(accesses_per_kcycle),
        grinch_telemetry::Telemetry::disabled(),
    )
}

/// Simulates the single-processor SoC with an explicit key and plaintexts.
///
/// # Panics
///
/// Panics if `config.kind` is not [`PlatformKind::SingleSoc`].
pub fn run_single_soc_with(
    config: &PlatformConfig,
    key: Key,
    plaintexts: Vec<u64>,
) -> ScenarioReport {
    run_single_soc_inner(
        config,
        key,
        plaintexts,
        None,
        grinch_telemetry::Telemetry::disabled(),
    )
}

fn run_single_soc_inner(
    config: &PlatformConfig,
    key: Key,
    plaintexts: Vec<u64>,
    disturber: Option<u64>,
    telemetry: grinch_telemetry::Telemetry,
) -> ScenarioReport {
    assert_eq!(config.kind, PlatformKind::SingleSoc, "wrong platform kind");
    let cipher = TableGift64::new(key, config.layout);
    let encryptions = plaintexts.len();
    let victim = GiftVictim::new(
        cipher,
        plaintexts,
        config.timing.victim_setup_cycles,
        config.timing.gift_round_cycles,
    );
    let attacker = ProbeAttacker::new(
        sbox_probe_addrs(config.layout.sbox_base, config.cache.line_bytes),
        None,
    );

    let mut cache = Cache::new(config.cache);
    cache.set_telemetry(telemetry.clone(), "cache.l1");
    let mut log = ScenarioLog::with_telemetry(telemetry);
    let mut processes: Vec<Box<dyn crate::process::Process>> =
        vec![Box::new(victim), Box::new(attacker)];
    if let Some(rate) = disturber {
        // The disturber sweeps an address window far from the cipher
        // tables but sharing cache sets with them.
        processes.push(Box::new(crate::disturber::Disturber::new(
            0x20_0000, 0x4000, rate, 0xd157,
        )));
    }
    let expected_processes = processes.len();
    let mut scheduler = RoundRobinScheduler::new(
        processes,
        config.timing.quantum_ns,
        config.timing.context_switch_cycles,
    );

    // Enough wall-clock for every encryption even with the attacker taking
    // alternating quanta, plus slack.
    let victim_cycles = encryptions as u64
        * (config.timing.victim_setup_cycles
            + GIFT64_ROUNDS as u64 * config.timing.gift_round_cycles);
    let deadline_ns = 4 * config.clock.cycles_to_ns(victim_cycles) + 8 * config.timing.quantum_ns;

    let mut now = 0u64;
    // Run until the victim finishes (it leaves the queue) or the deadline.
    while scheduler.runnable() == expected_processes && now < deadline_ns {
        now = scheduler.run_until(
            now,
            (now + config.timing.quantum_ns).min(deadline_ns),
            config.clock,
            &mut cache,
            config.timing.bus_access_ns,
            &mut log,
        );
    }

    // Recover ciphertexts from the log order: GiftVictim is owned by the
    // scheduler, so the report replays the cipher on the demo inputs.
    let ciphertexts = replay_ciphertexts(config, key, encryptions, &log);
    extract_report(&log, ciphertexts, now)
}

fn replay_ciphertexts(
    config: &PlatformConfig,
    key: Key,
    encryptions: usize,
    log: &ScenarioLog,
) -> Vec<u64> {
    let done = log
        .events()
        .iter()
        .filter(|e| matches!(e, ScenarioEvent::EncryptionDone { .. }))
        .count();
    let cipher = TableGift64::new(key, config.layout);
    let mut obs = gift_cipher::NullObserver;
    demo_plaintexts(encryptions)
        .into_iter()
        .take(done)
        .map(|pt| cipher.encrypt_with(pt, &mut obs))
        .collect()
}

/// Simulates the MPSoC with the default demo key, mirroring the whole
/// co-simulation into `telemetry`: the shared cache publishes `cache.l1.*`,
/// the scenario log publishes victim/attacker counters, and the run is
/// wrapped in a `scenario.mpsoc` span.
pub fn run_mpsoc(
    config: &PlatformConfig,
    telemetry: grinch_telemetry::Telemetry,
) -> ScenarioReport {
    let _span = grinch_telemetry::span!(
        telemetry,
        "scenario.mpsoc",
        encryptions = config.encryptions
    );
    run_mpsoc_inner(
        config,
        demo_key(),
        demo_plaintexts(config.encryptions),
        telemetry.clone(),
    )
}

/// Simulates the MPSoC: the victim runs uninterrupted on its tile while the
/// attacker's tile issues continuous Flush+Reload passes through the NoC.
///
/// Both cores are advanced in fixed small time slices in global time order,
/// so victim round boundaries and probe completions interleave with an
/// error far below one round.
///
/// # Panics
///
/// Panics if `config.kind` is not [`PlatformKind::MpSoc`].
pub fn run_mpsoc_with(config: &PlatformConfig, key: Key, plaintexts: Vec<u64>) -> ScenarioReport {
    run_mpsoc_inner(
        config,
        key,
        plaintexts,
        grinch_telemetry::Telemetry::disabled(),
    )
}

fn run_mpsoc_inner(
    config: &PlatformConfig,
    key: Key,
    plaintexts: Vec<u64>,
    telemetry: grinch_telemetry::Telemetry,
) -> ScenarioReport {
    assert_eq!(config.kind, PlatformKind::MpSoc, "wrong platform kind");
    let cipher = TableGift64::new(key, config.layout);
    let encryptions = plaintexts.len();
    let mut victim = GiftVictim::new(
        cipher,
        plaintexts,
        config.timing.victim_setup_cycles,
        config.timing.gift_round_cycles,
    );
    let mut attacker = ProbeAttacker::new(
        sbox_probe_addrs(config.layout.sbox_base, config.cache.line_bytes),
        None,
    );

    let mut cache = Cache::new(config.cache);
    cache.set_telemetry(telemetry.clone(), "cache.l1");
    let mut log = ScenarioLog::with_telemetry(telemetry);

    // Slice: 500 victim cycles (≈ 1% of a round) keeps interleaving error
    // negligible while staying fast to simulate.
    let slice_cycles = 500u64;
    let slice_ns = config.clock.cycles_to_ns(slice_cycles);
    let victim_access = config.victim_access_ns();
    let attacker_access = config.attacker_access_ns();

    let mut victim_now = 0u64;
    let mut attacker_now = 0u64;
    let mut victim_done = false;
    let total_ns = config.clock.cycles_to_ns(
        encryptions as u64
            * (config.timing.victim_setup_cycles
                + GIFT64_ROUNDS as u64 * config.timing.gift_round_cycles),
    ) + slice_ns;

    while !victim_done && victim_now < total_ns {
        if victim_now <= attacker_now {
            let mut ctx = ProcContext {
                now_ns: victim_now,
                clock: config.clock,
                cache: &mut cache,
                mem_access_ns: victim_access,
                log: &mut log,
            };
            let r = victim.run(&mut ctx, slice_cycles);
            victim_now += config.clock.cycles_to_ns(r.used_cycles).max(1);
            if r.state == RunState::Finished {
                victim_done = true;
            }
        } else {
            let mut ctx = ProcContext {
                now_ns: attacker_now,
                clock: config.clock,
                cache: &mut cache,
                mem_access_ns: attacker_access,
                log: &mut log,
            };
            let r = attacker.run(&mut ctx, slice_cycles);
            attacker_now += config.clock.cycles_to_ns(r.used_cycles.max(1));
        }
    }

    let end = victim_now.max(attacker_now);
    let ciphertexts = victim.ciphertexts().to_vec();
    extract_report(&log, ciphertexts, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grinch_telemetry::Telemetry;

    #[test]
    fn single_soc_first_probe_rounds_match_table2() {
        // Table II, single-processor SoC row: 10 MHz → round 2,
        // 25 MHz → round 4, 50 MHz → round 8.
        for (freq, expected_round) in [(10_000_000u64, 2usize), (25_000_000, 4), (50_000_000, 8)] {
            let report = run_single_soc(&PlatformConfig::single_soc(freq), Telemetry::disabled());
            assert_eq!(
                report.first_probe_round(),
                Some(expected_round),
                "frequency {freq}"
            );
        }
    }

    #[test]
    fn mpsoc_first_probe_round_is_one_at_all_frequencies() {
        // Table II, MPSoC row: round 1 at 10/25/50 MHz.
        for freq in [10_000_000u64, 25_000_000, 50_000_000] {
            let report = run_mpsoc(&PlatformConfig::mpsoc(freq), Telemetry::disabled());
            assert_eq!(report.first_probe_round(), Some(1), "frequency {freq}");
        }
    }

    #[test]
    fn single_soc_victim_completes_encryption() {
        let report = run_single_soc(
            &PlatformConfig::single_soc(25_000_000),
            Telemetry::disabled(),
        );
        assert_eq!(report.ciphertexts.len(), 1);
        assert!(report.end_ns > 0);
    }

    #[test]
    fn mpsoc_attacker_probes_every_round() {
        let report = run_mpsoc(&PlatformConfig::mpsoc(50_000_000), Telemetry::disabled());
        // Probes are ~13 µs apart, rounds 1.2 ms: every round must contain
        // at least one probe.
        let mut seen = std::collections::HashSet::new();
        for p in &report.probes {
            if let Some(r) = p.victim_round {
                seen.insert(r);
            }
        }
        for round in 1..=GIFT64_ROUNDS {
            assert!(seen.contains(&round), "no probe during round {round}");
        }
    }

    #[test]
    fn disturber_does_not_break_the_victim_and_can_pollute_probes() {
        let config = PlatformConfig::single_soc(10_000_000);
        let clean = run_single_soc(&config, Telemetry::disabled());
        let noisy = run_single_soc_with_disturber(&config, 200);
        // The victim still completes and produces the same ciphertext.
        assert_eq!(noisy.ciphertexts, clean.ciphertexts);
        // The attacker still gets its quantum-boundary probe.
        assert!(noisy.first_probe_round().is_some());
    }

    #[test]
    fn traced_runs_match_untraced_and_fill_the_registry() {
        let config = PlatformConfig::single_soc(25_000_000);
        let tel = Telemetry::new();
        let traced = run_single_soc(&config, tel.clone());
        let plain = run_single_soc(&config, Telemetry::disabled());
        // Telemetry must not perturb the simulation.
        assert_eq!(traced.first_probe_round(), plain.first_probe_round());
        assert_eq!(traced.ciphertexts, plain.ciphertexts);
        assert_eq!(traced.end_ns, plain.end_ns);
        assert_eq!(tel.counter("victim.encryptions"), 1);
        assert!(tel.counter("cache.l1.hits") > 0);
        assert!(tel.counter("scheduler.quanta") > 0);
        let snap = tel.snapshot();
        let span = &snap.spans[0];
        assert_eq!(span.name, "scenario.single_soc");
        assert!(span.end_ns.is_some());

        let mtel = Telemetry::new();
        let mconfig = PlatformConfig::mpsoc(25_000_000);
        let mtraced = run_mpsoc(&mconfig, mtel.clone());
        assert_eq!(
            mtraced.first_probe_round(),
            run_mpsoc(&mconfig, Telemetry::disabled()).first_probe_round()
        );
        assert!(mtel.counter("attacker.probe_passes") > 0);
    }

    #[test]
    fn way_partition_blinds_the_probe_without_breaking_the_victim() {
        // Defended single SoC: the attacker's reloads are confined to its
        // own ways, so probe passes never observe victim S-box lines — but
        // the victim's encryption is untouched.
        let clean = run_single_soc(
            &PlatformConfig::single_soc(25_000_000),
            Telemetry::disabled(),
        );
        let defended = PlatformConfig::single_soc(25_000_000)
            .with_way_partition(cache_sim::WayPartition::even_split(16));
        let report = run_single_soc(&defended, Telemetry::disabled());
        assert_eq!(report.ciphertexts, clean.ciphertexts);
        let total_hits: usize = report.probes.iter().map(|p| p.hit_lines.len()).sum();
        assert_eq!(total_hits, 0, "partition must blind every probe pass");
    }

    #[test]
    fn keyed_remap_preserves_the_victim_and_still_runs_probes() {
        // A keyed remap (no rekeying) permutes placements but the
        // Flush+Reload channel works on addresses, not sets: the undefended
        // observation survives, pinning that KeyedRemap alone (without
        // epochs) does NOT stop Flush+Reload — only Prime+Probe.
        let clean = run_mpsoc(&PlatformConfig::mpsoc(25_000_000), Telemetry::disabled());
        let defended = PlatformConfig::mpsoc(25_000_000).with_index_mapping(
            cache_sim::IndexMapping::KeyedRemap {
                key: 0x5eed,
                epoch_accesses: 0,
            },
        );
        let report = run_mpsoc(&defended, Telemetry::disabled());
        assert_eq!(report.ciphertexts, clean.ciphertexts);
        assert_eq!(report.first_probe_round(), clean.first_probe_round());
    }

    #[test]
    fn mpsoc_probe_hits_reflect_victim_activity() {
        let report = run_mpsoc(&PlatformConfig::mpsoc(10_000_000), Telemetry::disabled());
        // At least one probe during the encryption must observe S-box lines.
        let total_hits: usize = report
            .probes
            .iter()
            .filter(|p| p.victim_round.is_some())
            .map(|p| p.hit_lines.len())
            .sum();
        assert!(total_hits > 0, "attacker never saw a victim access");
    }

    #[test]
    fn scenarios_sharing_a_handle_run_the_clock_forward() {
        // Each scenario's time starts at 0; on a shared handle the second
        // must start where the first ended, not at 0 again. The long
        // single-SoC scenario first makes a restarted clock end the short
        // MPSoC one before it starts.
        let tel = Telemetry::new();
        {
            let _root = grinch_telemetry::span!(tel, "scenarios");
            run_single_soc(&PlatformConfig::single_soc(10_000_000), tel.clone());
            run_mpsoc(&PlatformConfig::mpsoc(50_000_000), tel.clone());
        }
        let snap = tel.snapshot();
        let names: Vec<_> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["scenarios", "scenario.single_soc", "scenario.mpsoc"]
        );
        for span in &snap.spans {
            let end = span.end_ns.expect("every span closed");
            assert!(end >= span.start_ns, "{} ends before it starts", span.name);
            if let Some(parent) = span.parent.map(|p| &snap.spans[p]) {
                assert!(
                    parent.start_ns <= span.start_ns && Some(end) <= parent.end_ns,
                    "{} leaves its parent",
                    span.name
                );
            }
        }
        assert!(snap.spans[2].start_ns >= snap.spans[1].end_ns.unwrap());
        assert_eq!(Some(snap.sim_time_ns), snap.spans[0].end_ns);
    }
}
