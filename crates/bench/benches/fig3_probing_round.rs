//! Criterion bench for the Fig. 3 experiment: times a first-round key
//! recovery at several probing rounds (with flush), using reduced caps so
//! the bench stays tractable while preserving the figure's growth shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grinch::experiments::probing_round::{measure_cell, Fig3Config};
use grinch_telemetry::Telemetry;

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_first_round_recovery");
    group.sample_size(10);
    let config = Fig3Config {
        max_encryptions: 100_000,
        ..Fig3Config::default()
    };
    for probing_round in [1usize, 2, 3] {
        for flush in [true, false] {
            let label = format!(
                "round{probing_round}/{}",
                if flush { "flush" } else { "noflush" }
            );
            group.bench_with_input(
                BenchmarkId::from_parameter(label),
                &(probing_round, flush),
                |b, &(round, flush)| {
                    b.iter(|| {
                        let cell = measure_cell(&config, round, flush, Telemetry::disabled());
                        assert!(cell.encryptions() > 0);
                        cell
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
