//! Criterion bench for the cipher substrate itself: GIFT-64/128 bitwise
//! versus table-driven throughput, the countermeasure overhead the paper's
//! §IV-C mentions (the extra output-nibble select of the wide-line S-box),
//! and the per-encryption arithmetic of the attack loop: `PermBits` and
//! plaintext crafting at the first and the last stage.
//!
//! Set `GRINCH_BENCH_SMOKE=1` to shrink sampling for CI smoke runs.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gift_cipher::countermeasure::{FullScanGift64, PreloadGift64, WideLineGift64};
use gift_cipher::permutation::permute_64;
use gift_cipher::{Gift128, Gift64, Key, NullObserver, TableGift64, TableLayout};
use grinch::craft::craft_plaintext;
use grinch::target::{disjoint_batches, TargetSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var("GRINCH_BENCH_SMOKE").is_ok() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60));
    }
}

fn bench_ciphers(c: &mut Criterion) {
    let key = Key::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    let mut group = c.benchmark_group("cipher_throughput");
    smoke(&mut group);
    group.throughput(Throughput::Bytes(8));

    group.bench_function("permute_64", |b| {
        let mut state = 0u64;
        b.iter(|| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            permute_64(black_box(state))
        })
    });

    let bitwise = Gift64::new(key);
    group.bench_function("gift64_bitwise_encrypt", |b| {
        let mut pt = 0u64;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            bitwise.encrypt(pt)
        })
    });
    group.bench_function("gift64_bitwise_decrypt", |b| {
        let mut ct = 0u64;
        b.iter(|| {
            ct = ct.wrapping_add(1);
            bitwise.decrypt(ct)
        })
    });

    let table = TableGift64::new(key, TableLayout::default());
    group.bench_function("gift64_table_encrypt", |b| {
        let mut obs = NullObserver;
        let mut pt = 0u64;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            table.encrypt_with(pt, &mut obs)
        })
    });

    let wide = WideLineGift64::new(key, TableLayout::new(0x400));
    group.bench_function("gift64_wide_line_encrypt", |b| {
        let mut obs = NullObserver;
        let mut pt = 0u64;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            wide.encrypt_with(pt, &mut obs)
        })
    });

    // Classic software mitigations: the full scan pays ~16x table reads,
    // the preload one extra table sweep per round.
    let scan = FullScanGift64::new(key, TableLayout::new(0x400));
    group.bench_function("gift64_full_scan_encrypt", |b| {
        let mut obs = NullObserver;
        let mut pt = 0u64;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            scan.encrypt_with(pt, &mut obs)
        })
    });
    let preload = PreloadGift64::new(key, TableLayout::new(0x400));
    group.bench_function("gift64_preload_encrypt", |b| {
        let mut obs = NullObserver;
        let mut pt = 0u64;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            preload.encrypt_with(pt, &mut obs)
        })
    });
    group.finish();

    // One stage batch (four targets, sixteen constrained segments) per
    // plaintext, as the attack crafts them; stage 4 also inverts the three
    // known rounds.
    let mut craft = c.benchmark_group("craft_plaintext");
    smoke(&mut craft);
    let reference = Gift64::new(key);
    for stage in [1usize, 4] {
        let specs: Vec<TargetSpec> = disjoint_batches(stage)[0]
            .iter()
            .map(|&s| TargetSpec::new(stage, s))
            .collect();
        let known = &reference.round_keys()[..stage - 1];
        let mut rng = StdRng::seed_from_u64(stage as u64);
        craft.bench_function(format!("stage{stage}"), |b| {
            b.iter(|| craft_plaintext(&specs, known, &mut rng).unwrap())
        });
    }
    craft.finish();

    let mut group128 = c.benchmark_group("gift128_throughput");
    smoke(&mut group128);
    group128.throughput(Throughput::Bytes(16));
    let g128 = Gift128::new(key);
    group128.bench_function("gift128_bitwise_encrypt", |b| {
        let mut pt = 0u128;
        b.iter(|| {
            pt = pt.wrapping_add(1);
            g128.encrypt(pt)
        })
    });
    group128.finish();
}

criterion_group!(benches, bench_ciphers);
criterion_main!(benches);
