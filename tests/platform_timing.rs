//! Integration tests of the SoC platform simulations feeding Table II.

use grinch_telemetry::Telemetry;
use soc_sim::platform::PlatformConfig;
use soc_sim::scenario::{run_mpsoc, run_single_soc};

#[test]
fn table2_single_soc_row() {
    for (freq, expected) in [(10_000_000u64, 2usize), (25_000_000, 4), (50_000_000, 8)] {
        let report = run_single_soc(&PlatformConfig::single_soc(freq), Telemetry::disabled());
        assert_eq!(report.first_probe_round(), Some(expected), "{freq} Hz");
    }
}

#[test]
fn table2_mpsoc_row() {
    for freq in [10_000_000u64, 25_000_000, 50_000_000] {
        let report = run_mpsoc(&PlatformConfig::mpsoc(freq), Telemetry::disabled());
        assert_eq!(report.first_probe_round(), Some(1), "{freq} Hz");
    }
}

#[test]
fn single_soc_probe_frequency_ordering_is_monotone() {
    // Faster victim clocks finish more rounds per quantum, so the first
    // probe lands strictly later in the encryption.
    let mut rounds = Vec::new();
    for freq in [10_000_000u64, 25_000_000, 50_000_000] {
        let report = run_single_soc(&PlatformConfig::single_soc(freq), Telemetry::disabled());
        rounds.push(report.first_probe_round().expect("probe lands"));
    }
    assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{rounds:?}");
}

#[test]
fn mpsoc_probes_are_dense_relative_to_rounds() {
    let report = run_mpsoc(&PlatformConfig::mpsoc(50_000_000), Telemetry::disabled());
    // The paper's anchor: a remote probe is ~400 ns/line while a round is
    // 1.2 ms at 50 MHz, so many probes land inside each round.
    let probes_in_round_1 = report
        .probes
        .iter()
        .filter(|p| p.victim_round == Some(1))
        .count();
    assert!(
        probes_in_round_1 >= 10,
        "only {probes_in_round_1} probes in round 1"
    );
}

#[test]
fn mpsoc_differential_probing_recovers_per_round_access_sets() {
    // Consecutive probe passes flush what they read, so hits in a pass
    // are accesses since the previous pass: a pass completing in round r+1
    // after passes in round r carries (a subset of) round r+1's lines.
    let cfg = PlatformConfig::mpsoc(10_000_000);
    let report = run_mpsoc(&cfg, Telemetry::disabled());
    let hits_during_encryption: usize = report
        .probes
        .iter()
        .filter(|p| p.victim_round.is_some())
        .map(|p| p.hit_lines.len())
        .sum();
    // 28 rounds x <=16 distinct lines: the differential total must be of
    // that order and definitely nonzero.
    assert!(hits_during_encryption > 28, "{hits_during_encryption}");
    assert!(hits_during_encryption <= 28 * 16);
}

#[test]
fn victim_ciphertext_is_correct_on_both_platforms() {
    let soc = run_single_soc(
        &PlatformConfig::single_soc(25_000_000),
        Telemetry::disabled(),
    );
    let mpsoc = run_mpsoc(&PlatformConfig::mpsoc(25_000_000), Telemetry::disabled());
    assert_eq!(soc.ciphertexts.len(), 1);
    assert_eq!(mpsoc.ciphertexts.len(), 1);
    // Same demo key and plaintext on both platforms: identical ciphertext.
    assert_eq!(soc.ciphertexts[0], mpsoc.ciphertexts[0]);
}
