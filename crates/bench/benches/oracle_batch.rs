//! Criterion bench for the oracle's observation path: a loop of 64
//! `observe_stage` calls, for both probe mechanics, and for Prime+Probe
//! also against way partitioning and a cache re-keyed every 64 accesses.
//! The rows observe stage 1 unless their label ends in `stage4`.
//!
//! The rows take different paths (DESIGN.md §11, §15):
//! - `prime_probe` (the undefended cache) takes the closed form: the
//!   victim's rounds only mark the monitored lines they read, and the
//!   probe's outcome and cache counters are derived, not replayed.
//! - `prime_probe_partition` and `prime_probe_rekey64` take the replay:
//!   each monitored set is primed and probed with one `access_set_from`.
//! - `flush_reload` and `flush_reload_stage4` (the undefended cache) count
//!   the flushed prefix: the rounds before the mid-encryption flush only
//!   mark the lines they read, and their counters and the flush's are
//!   derived. The observed rounds replay every victim read, and the reload
//!   is one `reload_and_flush_from`.
//! - `flush_reload_partition_stage4` replays every round, the flush and
//!   the reload.
//!
//! Set `GRINCH_BENCH_SMOKE=1` to shrink sampling for CI smoke runs.

use std::time::Duration;

use cache_sim::{CacheConfig, IndexMapping, WayPartition};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gift_cipher::Key;
use grinch::oracle::{ObservationConfig, ProbeStrategy, VictimOracle};
use grinch::stage::StageVictim;

const BATCH: usize = 64;

fn smoke(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var("GRINCH_BENCH_SMOKE").is_ok() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60));
    }
}

fn plaintexts() -> Vec<u64> {
    (0..BATCH as u64)
        .map(|i| 0x0123_4567_89ab_cdef ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

/// The cache defense an oracle runs against.
#[derive(Clone, Copy)]
enum Defense {
    None,
    Partition,
    Rekey64,
}

fn oracle(strategy: ProbeStrategy, defense: Defense) -> VictimOracle {
    let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let mut cfg = ObservationConfig::ideal();
    cfg.strategy = strategy;
    let base = CacheConfig::grinch_default();
    cfg.cache = match defense {
        Defense::None => base,
        Defense::Partition => base.with_partition(WayPartition::even_split(16)),
        Defense::Rekey64 => base.with_mapping(IndexMapping::KeyedRemap {
            key: 0x9e37,
            epoch_accesses: 64,
        }),
    };
    VictimOracle::new(key, cfg)
}

fn bench_oracle_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_batch");
    smoke(&mut group);
    let pts = plaintexts();

    for (label, strategy, defense, stage) in [
        ("flush_reload", ProbeStrategy::FlushReload, Defense::None, 1),
        (
            "flush_reload_stage4",
            ProbeStrategy::FlushReload,
            Defense::None,
            4,
        ),
        (
            "flush_reload_partition_stage4",
            ProbeStrategy::FlushReload,
            Defense::Partition,
            4,
        ),
        ("prime_probe", ProbeStrategy::PrimeProbe, Defense::None, 1),
        (
            "prime_probe_partition",
            ProbeStrategy::PrimeProbe,
            Defense::Partition,
            1,
        ),
        (
            "prime_probe_rekey64",
            ProbeStrategy::PrimeProbe,
            Defense::Rekey64,
            1,
        ),
    ] {
        let mut looped = oracle(strategy, defense);
        group.bench_function(format!("observe64_loop/{label}"), |b| {
            b.iter(|| {
                let mut lit = 0usize;
                for &pt in &pts {
                    lit += looped.observe_stage(black_box(pt), stage).len();
                }
                lit
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_oracle_batch);
criterion_main!(benches);
