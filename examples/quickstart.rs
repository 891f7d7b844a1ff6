//! Quickstart: encrypt with GIFT, watch the cache leak, recover key bits.
//!
//! ```text
//! cargo run -p grinch --release --example quickstart
//! ```
//!
//! The run is fully instrumented: a JSONL trace (counters, gauges,
//! histograms, nested attack-stage spans) lands in
//! `results/quickstart.telemetry.jsonl` and a summary table prints at the
//! end. The bench report, span profile and run-ledger record come from the
//! same emitter the `grinch-bench` binaries use
//! ([`grinch_obs::emit_telemetry_report`]).

use gift_cipher::{Gift64, Key};
use grinch::attack::{recover_full_key, AttackConfig};
use grinch::oracle::{ObservationConfig, VictimOracle};

fn main() {
    // 1. The victim: GIFT-64 with a secret 128-bit key.
    let secret = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let cipher = Gift64::new(secret);
    let plaintext = 0x0123_4567_89ab_cdef;
    let ciphertext = cipher.encrypt(plaintext);
    println!("GIFT-64: {plaintext:016x} --[{secret}]--> {ciphertext:016x}");
    assert_eq!(cipher.decrypt(ciphertext), plaintext);

    // 2. The attack surface: a lookup-table implementation whose S-box
    //    accesses hit a shared cache, probed with Flush+Reload at the
    //    paper's ideal moment (probing round 1, with flush). Telemetry
    //    records every probe, cache event, and stage span, and its crash
    //    flight recorder dumps the last events on panic —
    //    GRINCH_TELEMETRY=0 turns all of it off.
    let telemetry = grinch_obs::bench_telemetry_for("quickstart");
    if std::env::var("GRINCH_FORCE_PANIC").as_deref() == Ok("1") {
        // CI's flight-recorder drill: open a recognisable span stack, emit
        // a few events, and die mid-span. The panic hook must leave a
        // FLIGHT_quickstart.json whose postmortem resolves the innermost
        // open span to `attack.flight_test`.
        let _attack = telemetry.span("attack");
        let _stage = telemetry.span("attack.flight_test");
        telemetry.counter_add("attack.probes", 3);
        panic!("GRINCH_FORCE_PANIC=1: deliberate crash to exercise the flight recorder");
    }
    let mut oracle = VictimOracle::new(secret, ObservationConfig::ideal());
    oracle.set_telemetry(telemetry.clone());

    // 3. GRINCH: four stages, 32 key bits each. Wall-clock the recovery so
    //    the throughput of the fully instrumented attack lands in
    //    results/BENCH_quickstart.json (see EXPERIMENTS.md, "Measuring
    //    throughput"). A throwaway warm-up recovery on a fresh,
    //    un-instrumented oracle runs first so the timed figure measures the
    //    attack, not first-touch page faults and allocator cold start; the
    //    exported telemetry comes exclusively from the timed oracle, so the
    //    JSONL trace is unaffected.
    {
        let mut warmup = VictimOracle::new(secret, ObservationConfig::ideal());
        let _ = recover_full_key(&mut warmup, &AttackConfig::default());
    }
    let started = std::time::Instant::now();
    let outcome = recover_full_key(&mut oracle, &AttackConfig::default());
    let recovery_wall_ns = started.elapsed().as_nanos() as u64;

    match outcome.key {
        Some(key) => {
            println!("recovered key: {key}");
            println!("encryptions used: {}", outcome.encryptions);
            for (i, n) in outcome.stage_encryptions.iter().enumerate() {
                println!("  stage {} (round {}): {} encryptions", i + 1, i + 1, n);
            }
            assert_eq!(key, secret, "recovered key must match the secret");
            println!(
                "paper headline check: full key in < 400 encryptions reported; \
                 this run used {}",
                outcome.encryptions
            );
        }
        None => println!("attack failed (unexpected in the ideal setting)"),
    }

    // 4. What the telemetry saw.
    if !telemetry.is_enabled() {
        println!(
            "\ntelemetry disabled via {}; no trace, bench report or profile written",
            grinch_telemetry::TELEMETRY_ENV
        );
        return;
    }
    let snapshot = telemetry.snapshot();
    println!("\n--- telemetry ---");
    println!("probes issued: {}", snapshot.counter("attack.probes"));
    let hits = snapshot.counter("cache.l1.hits");
    let misses = snapshot.counter("cache.l1.misses");
    if hits + misses > 0 {
        println!(
            "L1 hit rate: {:.1}% ({hits} hits / {misses} misses)",
            100.0 * hits as f64 / (hits + misses) as f64
        );
    }
    print!("entropy remaining after each stage:");
    for stage in 1..=4 {
        if let Some(bits) = snapshot.gauge(&format!("attack.entropy_bits.stage{stage}")) {
            print!(" {bits:.0}");
        }
    }
    println!(" bits");
    println!("\n{}", telemetry.summary());

    // 5. The run's artifacts: the JSONL trace, results/BENCH_quickstart.json
    //    with the wall-clock recovery throughput (never gated —
    //    grinch-report compares metrics only — but tracked so optimisation
    //    work stays honest), the span profile, and one run-ledger record.
    let secs = recovery_wall_ns as f64 / 1e9;
    println!(
        "wall clock: recovered in {:.2} ms ({:.0} encryptions/s)",
        secs * 1e3,
        outcome.encryptions as f64 / secs
    );
    let wall = [
        grinch_obs::WallSection::new("recovery", recovery_wall_ns, outcome.encryptions as f64)
            .with_rate("encryptions/sec"),
        grinch_obs::WallSection::new("recoveries", recovery_wall_ns, 1.0)
            .with_rate("recoveries/sec"),
    ];
    grinch_obs::emit_telemetry_report(&telemetry, "quickstart", &wall);
}
