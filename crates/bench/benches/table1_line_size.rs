//! Criterion bench for the Table I experiment: first-round recovery across
//! cache line sizes at probing round 1 (reduced caps keep the hopeless
//! corners bounded while the size ordering remains visible).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grinch::experiments::line_size::{measure_cell, Table1Config};
use grinch_telemetry::Telemetry;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_line_size");
    group.sample_size(10);
    let config = Table1Config {
        max_encryptions: 60_000,
        ..Table1Config::default()
    };
    for words in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{words}w_round1")),
            &words,
            |b, &words| {
                b.iter(|| measure_cell(&config, words, 1, Telemetry::disabled()));
            },
        );
    }
    // One deeper-probe point to exhibit the row-versus-column growth.
    group.bench_function("2w_round2", |b| {
        b.iter(|| measure_cell(&config, 2, 2, Telemetry::disabled()));
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
