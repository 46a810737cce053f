//! Criterion: network partitioning cost (§VI: partitioning California
//! costs more than a typical simulation run, which is why partitions
//! are computed once per shared context).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epiflow_bench::{region, run_covid};
use epiflow_epihiper::partition::partition_network;
use epiflow_epihiper::InterventionSet;
use epiflow_surveillance::RegionRegistry;

fn partition_cost(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let mut group = c.benchmark_group("partitioning");
    group.sample_size(20);
    for abbrev in ["MD", "CA"] {
        let data = region(&reg, abbrev, 1000.0);
        for parts in [8usize, 64] {
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{abbrev}-p{parts}")),
                &parts,
                |b, &p| {
                    b.iter(|| partition_network(&data.network, p, 16));
                },
            );
        }
    }
    group.finish();
}

/// The §VI claim in bench form: one partitioning vs one simulation run.
fn partition_vs_run(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "CA", 1000.0);
    let mut group = c.benchmark_group("partition_vs_simulation");
    group.sample_size(10);
    group.bench_function("partition_CA", |b| {
        b.iter(|| partition_network(&data.network, 168, 16));
    });
    group.bench_function("simulate_CA_300_ticks", |b| {
        b.iter(|| run_covid(&data, InterventionSet::new(), 300, 4, 1));
    });
    group.finish();
}

criterion_group!(benches, partition_cost, partition_vs_run);
criterion_main!(benches);
