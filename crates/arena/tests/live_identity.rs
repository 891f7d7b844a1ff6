//! Byte-identity of artifacts under the live observability plane.
//!
//! The plane's contract is "observe, never perturb": enabling `--live`
//! (worker events, streamed deltas, the HTTP endpoints) must leave every
//! byte-stable artifact — the arena matrix and the quickstart telemetry
//! JSONL — identical to a run without it. These tests pin that contract
//! at the library level, through the same journaled path
//! `grinch-campaign run` takes; the CI live job pins it again end-to-end
//! by running `grinch-campaign run --live ... --check` against the
//! committed baseline.

use std::time::Duration;

use gift_cipher::Key;
use grinch::attack::{recover_full_key, AttackConfig};
use grinch::oracle::{ObservationConfig, VictimOracle};
use grinch_arena::journal::run_journaled;
use grinch_arena::{run_campaign, CampaignConfig, LiveOptions, LivePlane};
use grinch_telemetry::{StreamingSink, Telemetry};

/// The full preset's whole grid (4 defenses x 2 attacks x 2 noise
/// levels) at a test-sized trial budget.
fn full_grid_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::full();
    cfg.trials = 1;
    cfg.max_stage_encryptions = 1_500;
    cfg
}

#[test]
fn full_grid_matrix_is_byte_identical_under_the_live_plane() {
    let cfg = full_grid_config();
    let plain = run_campaign(&cfg).to_json();

    let mut opts = LiveOptions::new("127.0.0.1:0", "identity full");
    opts.stream_interval = Duration::ZERO; // stream every event
    let mut plane = LivePlane::start(&cfg, opts).expect("live plane");
    let sender = plane.sender();
    let journal =
        std::env::temp_dir().join(format!("grinch-live-identity-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let outcome = run_journaled(&cfg, &journal, None, Some(&sender), 0).expect("journaled run");
    drop(sender);
    plane.finish();
    let _ = std::fs::remove_file(&journal);
    let live = outcome.matrix.expect("full grid").to_json();

    assert_eq!(plain, live, "--live must not change a single matrix byte");
    let state = plane.state();
    let state = state.lock().unwrap();
    assert_eq!(state.progress.cells_completed, cfg.num_cells() as u64);
    assert_eq!(
        state.progress.trials_completed,
        (cfg.num_cells() * cfg.trials) as u64
    );
    assert!(
        state.metrics.seq.is_some(),
        "deltas streamed during the sweep"
    );
    assert_eq!(
        state.metrics.counters["arena.cells.completed"],
        cfg.num_cells() as u64
    );
}

/// One deterministic quickstart-shaped workload (the ideal-setting full
/// key recovery) recorded into `tel`.
fn quickstart_workload(tel: &Telemetry) {
    let secret = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
    oracle.set_telemetry(tel.clone());
    let outcome = recover_full_key(&mut oracle, &AttackConfig::default());
    assert_eq!(outcome.key, Some(secret), "ideal recovery must succeed");
}

#[test]
fn quickstart_jsonl_is_byte_identical_with_streaming_taps() {
    let plain = {
        let tel = Telemetry::new();
        quickstart_workload(&tel);
        quickstart_workload(&tel);
        tel.to_jsonl()
    };

    let streamed = {
        let tel = Telemetry::new();
        let (mut sink, rx) = StreamingSink::channel(Duration::ZERO);
        sink.tick(&tel);
        quickstart_workload(&tel);
        sink.tick(&tel); // mid-workload tap, full attack state in flight
        quickstart_workload(&tel);
        sink.flush(&tel);
        drop(sink);
        let deltas: Vec<_> = rx.iter().collect();
        assert!(deltas.len() >= 2, "taps actually emitted deltas");
        tel.to_jsonl()
    };

    assert_eq!(
        plain, streamed,
        "streaming tap must not perturb the JSONL export"
    );
}
