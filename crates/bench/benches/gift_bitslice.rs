//! Criterion bench for the bitsliced GIFT-64 oracle: 64 encryptions per
//! `encrypt_blocks` call versus the scalar bitwise implementation looped 64
//! times. The ratio is the raw lane-level speedup the batched attack
//! pipeline draws on (DESIGN.md §15); `transpose` measures the
//! slice/unslice overhead bracketing every batch.
//!
//! Set `GRINCH_BENCH_SMOKE=1` to shrink sampling for CI smoke runs.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gift_cipher::bitslice::{
    slice_blocks, transpose_in_place, unslice_blocks, BitslicedGift64, LANES,
};
use gift_cipher::{Gift64, Key};

fn smoke(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var("GRINCH_BENCH_SMOKE").is_ok() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60));
    }
}

fn bench_gift_bitslice(c: &mut Criterion) {
    let mut group = c.benchmark_group("gift_bitslice");
    smoke(&mut group);

    let key = Key::from_u128(0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0);
    let mut blocks = [0u64; LANES];
    for (i, b) in blocks.iter_mut().enumerate() {
        *b = 0x0123_4567_89ab_cdef ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    // 64 plaintexts through the scalar reference, one at a time.
    let scalar = Gift64::new(key);
    group.bench_function("encrypt64/bitwise_loop", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &pt in &blocks {
                acc ^= scalar.encrypt(black_box(pt));
            }
            acc
        })
    });

    // The same 64 plaintexts in one bitsliced call (slice + rounds +
    // unslice included — the cost a batched caller actually pays).
    let sliced = BitslicedGift64::new(key);
    group.bench_function("encrypt64/bitslice_blocks", |b| {
        b.iter(|| {
            let mut batch = blocks;
            sliced.encrypt_blocks(black_box(&mut batch));
            batch[0]
        })
    });

    // Transpose alone: the butterfly is an involution, so a round trip is
    // two applications of the same network.
    let state = slice_blocks(&blocks);
    group.bench_function("transpose_roundtrip", |b| {
        b.iter(|| {
            let mut m = state;
            transpose_in_place(black_box(&mut m));
            transpose_in_place(black_box(&mut m));
            unslice_blocks(&m)[0]
        })
    });

    group.finish();
}

criterion_group!(benches, bench_gift_bitslice);
criterion_main!(benches);
