//! Criterion bench for the Table II experiment: full platform
//! co-simulations (victim encryption + attacker probing) on both platforms
//! at each clock frequency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grinch_telemetry::Telemetry;
use soc_sim::platform::PlatformConfig;
use soc_sim::scenario::{run_mpsoc, run_single_soc};

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_platform_simulation");
    group.sample_size(10);
    for freq in [10_000_000u64, 25_000_000, 50_000_000] {
        group.bench_with_input(
            BenchmarkId::new("single_soc", freq / 1_000_000),
            &freq,
            |b, &f| {
                let cfg = PlatformConfig::single_soc(f);
                b.iter(|| {
                    let report = run_single_soc(&cfg, Telemetry::disabled());
                    assert!(report.first_probe_round().is_some());
                    report
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mpsoc", freq / 1_000_000),
            &freq,
            |b, &f| {
                let cfg = PlatformConfig::mpsoc(f);
                b.iter(|| {
                    let report = run_mpsoc(&cfg, Telemetry::disabled());
                    assert_eq!(report.first_probe_round(), Some(1));
                    report
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
