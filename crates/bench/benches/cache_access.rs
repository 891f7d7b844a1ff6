//! Criterion bench for the raw simulation hot path: one `Cache::access`
//! in the paper's L1 geometry, measured for the hit and the miss/evict
//! case, each with telemetry detached and attached. These four numbers are
//! the denominators of every Monte-Carlo sweep in the repo — an arena cell
//! is millions of these calls — so the bench doubles as the wall-clock
//! evidence for the hot-path overhaul (see DESIGN.md §11).
//!
//! The `set16/*` cases time the shapes Prime+Probe spends the arena on:
//! one `access_batch_from` of 16 attacker lines that share a set, into an
//! empty set (`prime_empty`), onto a primed set (`probe_hits`), into the 8
//! attacker ways of a partitioned set (`partition_thrash`), and under a
//! cache re-keyed every 64 accesses (`prime_rekey64`), and onto a primed
//! set after one victim read of the set (`probe_after_victim`, the victim
//! read included). See DESIGN.md §15. Each has a `/whole_set` twin that
//! reads the same group with one `access_set_from`, the call the
//! Prime+Probe oracle makes (DESIGN.md §11, "Whole-set Prime+Probe").
//!
//! `reload_flush16` times Flush+Reload's reload phase: one
//! `reload_and_flush_from` over the 16 S-box lines of the paper's layout,
//! half of them resident (the victim's footprint), so hits and misses mix.
//! See DESIGN.md §11.
//!
//! Set `GRINCH_BENCH_SMOKE=1` to shrink sampling for CI smoke runs.

use std::time::Duration;

use cache_sim::{Cache, CacheConfig, Domain, IndexMapping, SetGroup, WayPartition};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gift_cipher::TableLayout;
use grinch_telemetry::Telemetry;

fn smoke(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var("GRINCH_BENCH_SMOKE").is_ok() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60));
    }
}

/// Distinct-line address stream that wraps far beyond the cache capacity,
/// so every access misses and (once warm) evicts.
fn miss_stream(i: u64) -> u64 {
    (i.wrapping_mul(0x9e37_79b9) % 0x10_0000) & !0xf
}

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    smoke(&mut group);

    for (label, telemetry) in [
        ("telemetry_off", Telemetry::disabled()),
        ("telemetry_on", Telemetry::new()),
    ] {
        let mut hit_cache = Cache::new(CacheConfig::grinch_default());
        hit_cache.set_telemetry(telemetry.clone(), "cache.l1");
        hit_cache.access(0x400);
        group.bench_function(format!("hit/{label}"), |b| {
            b.iter(|| hit_cache.access(black_box(0x400)))
        });

        let mut miss_cache = Cache::new(CacheConfig::grinch_default());
        miss_cache.set_telemetry(telemetry.clone(), "cache.l1");
        let mut i = 0u64;
        group.bench_function(format!("miss_evict/{label}"), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                miss_cache.access(black_box(miss_stream(i)))
            })
        });
    }

    let base = CacheConfig::grinch_default();
    let stride = (base.line_bytes * base.num_sets) as u64;
    let set16: Vec<u64> = (0..16u64).map(|w| 0x10_0000 + w * stride).collect();
    let whole16 = SetGroup::new(&base, &set16).expect("one set class");
    let mut empty = Cache::new(base);
    group.bench_function("set16/prime_empty", |b| {
        b.iter(|| {
            empty.flush_all();
            empty.access_batch_from(black_box(&set16), Domain::Attacker, |_, o| {
                black_box(o);
            })
        })
    });
    group.bench_function("set16/prime_empty/whole_set", |b| {
        b.iter(|| {
            empty.flush_all();
            empty.access_set_from(black_box(&whole16), Domain::Attacker)
        })
    });
    for (label, config) in [
        ("probe_hits", base),
        (
            "partition_thrash",
            base.with_partition(WayPartition::even_split(base.ways)),
        ),
        (
            "prime_rekey64",
            base.with_mapping(IndexMapping::KeyedRemap {
                key: 0x9e37,
                epoch_accesses: 64,
            }),
        ),
    ] {
        let mut cache = Cache::new(config);
        cache.access_batch_from(&set16, Domain::Attacker, |_, _| {});
        group.bench_function(format!("set16/{label}"), |b| {
            b.iter(|| {
                cache.access_batch_from(black_box(&set16), Domain::Attacker, |_, o| {
                    black_box(o);
                })
            })
        });
        let mut cache = Cache::new(config);
        cache.access_set_from(&whole16, Domain::Attacker);
        group.bench_function(format!("set16/{label}/whole_set"), |b| {
            b.iter(|| cache.access_set_from(black_box(&whole16), Domain::Attacker))
        });
    }

    // A touched set: the victim reads one line of the primed set, which
    // displaces the oldest prime line, then the attacker reads the group.
    let victim_line = 0x20_0000;
    let mut touched = Cache::new(base);
    touched.access_batch_from(&set16, Domain::Attacker, |_, _| {});
    group.bench_function("set16/probe_after_victim", |b| {
        b.iter(|| {
            touched.access(black_box(victim_line));
            touched.access_batch_from(black_box(&set16), Domain::Attacker, |_, o| {
                black_box(o);
            })
        })
    });
    let mut touched = Cache::new(base);
    touched.access_set_from(&whole16, Domain::Attacker);
    group.bench_function("set16/probe_after_victim/whole_set", |b| {
        b.iter(|| {
            touched.access(black_box(victim_line));
            touched.access_set_from(black_box(&whole16), Domain::Attacker)
        })
    });

    let layout = TableLayout::default();
    let sbox_lines: Vec<u64> = (0..16u8).map(|i| layout.sbox_entry_addr(i)).collect();
    let mut reload = Cache::new(base);
    group.bench_function("reload_flush16", |b| {
        b.iter(|| {
            // The victim's footprint: the first eight S-box lines.
            reload.access_batch_from(&sbox_lines[..8], Domain::Victim, |_, _| {});
            let mut hits = 0u32;
            reload.reload_and_flush_from(black_box(&sbox_lines), Domain::Attacker, |_, hit| {
                hits += u32::from(hit);
            });
            hits
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cache_access);
criterion_main!(benches);
