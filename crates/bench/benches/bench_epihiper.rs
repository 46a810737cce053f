//! Criterion: EpiHiper tick-loop throughput vs network size
//! (the measured substrate under Fig. 7 top).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use epiflow_bench::{region, run_covid, run_covid_mode};
use epiflow_epihiper::{
    covid19_model, InterventionSet, SimConfig, SimContext, SimSnapshot, Simulation, SnapshotChain,
};
use epiflow_surveillance::RegionRegistry;

fn bench_sizes(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let mut group = c.benchmark_group("epihiper_size");
    group.sample_size(10);
    for abbrev in ["VT", "MD", "CA"] {
        let data = region(&reg, abbrev, 2000.0);
        group.throughput(Throughput::Elements(data.network.n_edges() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!(
                "{abbrev}-{}n-{}e",
                data.network.n_nodes,
                data.network.n_edges()
            )),
            &data,
            |b, data| {
                b.iter(|| run_covid(data, InterventionSet::new(), 60, 4, 1));
            },
        );
    }
    group.finish();
}

fn bench_ticks(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "VA", 2000.0);
    let mut group = c.benchmark_group("epihiper_horizon");
    group.sample_size(10);
    for ticks in [30u32, 120, 300] {
        group.bench_with_input(BenchmarkId::from_parameter(ticks), &ticks, |b, &t| {
            b.iter(|| run_covid(&data, InterventionSet::new(), t, 4, 1));
        });
    }
    group.finish();
}

/// Frontier scan vs θ = 0 full sweep on the same region: the A/B pair
/// behind `BENCH_engine.json` (see `repro_bench_engine` for the
/// synthetic envelope cases).
fn bench_scan_modes(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "VA", 2000.0);
    let mut group = c.benchmark_group("epihiper_scan_mode");
    group.sample_size(10);
    for (name, full_sweep) in [("frontier", false), ("full_sweep", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &full_sweep, |b, &f| {
            b.iter(|| run_covid_mode(&data, InterventionSet::new(), 60, 4, 1, f));
        });
    }
    group.finish();
}

/// Snapshot `encode`, `decode` and A/B-chain `load` on VA @ 1/20
/// (431,576 persons) at tick 64, mid-epidemic: the kernel cost behind
/// `nightbench`'s `lone_wave` checkpoint `write_s` and `restore_s`.
fn bench_checkpoint(c: &mut Criterion) {
    let reg = RegionRegistry::new();
    let data = region(&reg, "VA", 20.0);
    let n = data.population.len();
    let age = data.population.persons.iter().map(|p| p.age_group().index() as u8).collect();
    let county = data.population.persons.iter().map(|p| p.county).collect();
    let config = SimConfig {
        ticks: 64,
        seed: 1,
        initial_infections: 200,
        record_transitions: false,
        ..Default::default()
    };
    let ctx = SimContext::build(&data.network, age, county, config.n_partitions, config.epsilon);
    let mut sim =
        Simulation::new_with_context(ctx.into(), covid19_model(), InterventionSet::new(), config);
    sim.model.transmissibility = 0.3;
    sim.run();
    let snap = sim.snapshot();
    let bytes = snap.encode();
    let mut chain = SnapshotChain::new();
    chain.write(&snap);

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    let id = |op: &str| BenchmarkId::new(op, format!("{n}n-{}B", bytes.len()));
    group.bench_function(id("encode"), |b| b.iter(|| snap.encode()));
    group.bench_function(id("decode"), |b| {
        b.iter(|| SimSnapshot::decode(&bytes).expect("clean bytes decode"))
    });
    group.bench_function(id("chain_load"), |b| b.iter(|| chain.load().expect("clean chain loads")));
    group.finish();
}

criterion_group!(benches, bench_sizes, bench_ticks, bench_scan_modes, bench_checkpoint);
criterion_main!(benches);
