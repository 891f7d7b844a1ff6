//! Criterion bench for the countermeasure ablation: the full four-stage
//! attack against the unprotected cipher versus the two §IV-C protections
//! (which it must fail to break within the cap).

use criterion::{criterion_group, criterion_main, Criterion};
use grinch::experiments::countermeasures::{measure, AblationConfig, Protection};
use grinch_telemetry::Telemetry;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("countermeasure_ablation");
    group.sample_size(10);
    let config = AblationConfig {
        max_encryptions_per_stage: 2_000,
        ..AblationConfig::default()
    };
    group.bench_function("unprotected", |b| {
        b.iter(|| {
            let row = measure(&config, Protection::None, Telemetry::disabled());
            assert!(row.key_recovered);
            row
        })
    });
    group.bench_function("wide_line_sbox", |b| {
        b.iter(|| {
            let row = measure(&config, Protection::WideLineSbox, Telemetry::disabled());
            assert!(!row.key_recovered);
            row
        })
    });
    group.bench_function("masked_schedule", |b| {
        b.iter(|| {
            let row = measure(
                &config,
                Protection::MaskedKeySchedule,
                Telemetry::disabled(),
            );
            assert!(!row.key_recovered);
            row
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
