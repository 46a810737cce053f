//! Ensemble-context benchmark — fresh-build vs shared-context nightly
//! design, machine-readable.
//!
//! The nightly production shape is *many runs, one model*: a study
//! design fans cells × replicates against a single immutable contact
//! network. The pre-ensemble runner paid the network build — CSR
//! arrays, partitioning, attribute derivation — once per *replicate*;
//! the [`EnsembleRunner`] pays it once per ⟨region, partition count⟩
//! and shares an `Arc<SimContext>` (plus pooled per-worker scratch)
//! across the whole grid.
//!
//! This bench runs the same design both ways at several replicate
//! counts and emits `BENCH_ensemble.json` with wall times, runs/sec,
//! the setup fraction of each path, and the speedup. Every compared
//! pair is first asserted byte-identical (same seeds ⇒ same
//! `SimOutput`) — the speedup is only meaningful if the fast path is
//! exact. The JSON is validated by re-parsing before it is written.
//!
//! `--smoke` shrinks the region and the replicate ladder and skips the
//! performance assertion so CI can verify the harness end-to-end in
//! seconds.

use epiflow_bench::region;
use epiflow_core::{CellConfig, CellRunSummary, EnsembleRunner, StudyDesign};
use epiflow_epihiper::covid::covid19_model;
use epiflow_epihiper::{InterventionSet, SimConfig, SimContext, Simulation};
use epiflow_surveillance::RegionRegistry;
use rayon::prelude::*;
use serde::{Number, Value};
use std::time::Instant;

const N_PARTITIONS: usize = 4;
const BASE_SEED: u64 = 0x2026_0807;

/// Wall time of one fresh context build plus simulation — the
/// per-replicate setup cost the shared context amortizes away (CSR
/// build + partitioning, no tick loop).
fn fresh_setup_secs(data: &epiflow_synthpop::builder::RegionData, days: u32) -> f64 {
    let age: Vec<u8> =
        data.population.persons.iter().map(|p| p.age_group().index() as u8).collect();
    let county: Vec<u16> = data.population.persons.iter().map(|p| p.county).collect();
    let config = SimConfig {
        ticks: days,
        n_partitions: N_PARTITIONS,
        epsilon: 16,
        record_transitions: false,
        ..Default::default()
    };
    let t0 = Instant::now();
    let ctx = SimContext::build(&data.network, age, county, N_PARTITIONS, config.epsilon);
    let sim = Simulation::new_with_context(
        ctx.into(),
        covid19_model(),
        InterventionSet::default(),
        config,
    );
    let secs = t0.elapsed().as_secs_f64();
    drop(sim);
    secs
}

/// The pre-ensemble path: every ⟨cell, replicate⟩ job builds its own
/// runner (attributes, network, partitioning) from scratch, fanned over
/// rayon exactly like the shared path so the comparison isolates setup
/// cost.
fn run_design_fresh(
    data: &epiflow_synthpop::builder::RegionData,
    design: &StudyDesign,
    base_seed: u64,
) -> Vec<CellRunSummary> {
    let jobs: Vec<(usize, u32)> = design
        .cells
        .iter()
        .enumerate()
        .flat_map(|(i, _)| (0..design.replicates).map(move |r| (i, r)))
        .collect();
    jobs.par_iter()
        .map(|&(ci, rep)| {
            EnsembleRunner::new(data, N_PARTITIONS).run_cell(
                &design.cells[ci],
                rep,
                false,
                base_seed,
            )
        })
        .collect()
}

/// Byte-level equality of two design runs: per-day aggregate outputs
/// and the calibration observable, job by job.
fn identical(a: &[CellRunSummary], b: &[CellRunSummary]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cell == y.cell
                && x.replicate == y.replicate
                && x.output == y.output
                && x.log_cum_symptomatic == y.log_cum_symptomatic
        })
}

fn path_value(secs: f64, runs: usize, setup_secs: f64) -> Value {
    let secs = secs.max(1e-9);
    Value::Map(vec![
        ("elapsed_secs".into(), Value::Num(Number::F(secs))),
        ("runs_per_sec".into(), Value::Num(Number::F(runs as f64 / secs))),
        ("setup_fraction".into(), Value::Num(Number::F((setup_secs / secs).min(1.0)))),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (per, days, n_cells, rep_ladder): (f64, u32, usize, &[u32]) =
        if smoke { (20_000.0, 10, 2, &[1, 2]) } else { (50.0, 20, 4, &[1, 4, 16]) };

    println!("=== Ensemble-context benchmark (fresh vs shared) ===");
    println!("mode: {}\n", if smoke { "smoke" } else { "full" });

    let registry = RegionRegistry::new();
    let data = region(&registry, "DE", per);
    let stats = data.network.stats();
    println!("region DE @ 1/{per}: {} persons, {} edges", data.population.len(), stats.edges);

    let base = CellConfig {
        days,
        initial_infections: (data.population.len() / 100).max(3),
        ..CellConfig::default()
    };
    let mut design = StudyDesign::lhs_prior(n_cells, &base, 0xD5);

    // Per-replicate setup cost of the fresh path (median of 3).
    let mut setups: Vec<f64> = (0..3).map(|_| fresh_setup_secs(&data, days)).collect();
    setups.sort_by(f64::total_cmp);
    let per_run_setup = setups[1];

    // One-time cost of the shared path.
    let t0 = Instant::now();
    let runner = EnsembleRunner::new(&data, N_PARTITIONS);
    let ctx_secs = t0.elapsed().as_secs_f64();
    println!(
        "setup: fresh {:.1} ms per run, shared context {:.1} ms once\n",
        per_run_setup * 1e3,
        ctx_secs * 1e3
    );

    let mut rows = Vec::new();
    let mut max_speedup = 0.0f64;
    for &reps in rep_ladder {
        design.replicates = reps;
        let runs = design.cells.len() * reps as usize;

        let t0 = Instant::now();
        let fresh = run_design_fresh(&data, &design, BASE_SEED);
        let fresh_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let shared = runner.run_design(&design, BASE_SEED);
        let shared_secs = t0.elapsed().as_secs_f64();

        let same = identical(&fresh, &shared);
        assert!(same, "shared-context outputs diverge from fresh-build at {reps} replicates");

        let speedup = fresh_secs / shared_secs.max(1e-9);
        max_speedup = max_speedup.max(speedup);
        println!(
            "{runs:>3} runs ({} cells x {reps} reps): fresh {:.3}s  shared {:.3}s  \
             speedup {:.2}x  (fresh setup share {:.0}%)",
            design.cells.len(),
            fresh_secs,
            shared_secs,
            speedup,
            (runs as f64 * per_run_setup / fresh_secs).min(1.0) * 100.0
        );

        rows.push(Value::Map(vec![
            ("replicates".into(), Value::Num(Number::U(reps as u64))),
            ("runs".into(), Value::Num(Number::U(runs as u64))),
            ("fresh".into(), path_value(fresh_secs, runs, runs as f64 * per_run_setup)),
            ("shared".into(), path_value(shared_secs, runs, ctx_secs)),
            ("speedup".into(), Value::Num(Number::F(speedup))),
            ("outputs_identical".into(), Value::Bool(same)),
        ]));
    }

    let doc = Value::Map(vec![
        ("benchmark".into(), Value::Str("ensemble_context".into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("region".into(), Value::Str("DE".into())),
        ("persons".into(), Value::Num(Number::U(data.population.len() as u64))),
        ("edges".into(), Value::Num(Number::U(stats.edges as u64))),
        ("n_partitions".into(), Value::Num(Number::U(N_PARTITIONS as u64))),
        ("cells".into(), Value::Num(Number::U(design.cells.len() as u64))),
        ("days".into(), Value::Num(Number::U(days as u64))),
        ("fresh_setup_secs_per_run".into(), Value::Num(Number::F(per_run_setup))),
        ("context_build_secs".into(), Value::Num(Number::F(ctx_secs))),
        ("by_replicates".into(), Value::Seq(rows)),
        ("max_speedup".into(), Value::Num(Number::F(max_speedup))),
    ]);

    let json = serde_json::to_string_pretty(&doc).expect("serialize benchmark report");
    // Round-trip before writing: the artifact must stay machine-readable.
    let parsed = serde_json::parse_value(&json).expect("re-parse benchmark JSON");
    for key in ["benchmark", "by_replicates", "max_speedup"] {
        assert!(
            matches!(&parsed, Value::Map(m) if m.iter().any(|(k, _)| k == key)),
            "benchmark JSON missing key `{key}`"
        );
    }
    std::fs::write("BENCH_ensemble.json", &json).expect("write BENCH_ensemble.json");
    println!("\nwrote BENCH_ensemble.json ({} bytes)", json.len());

    if !smoke {
        assert!(
            max_speedup >= 1.1,
            "shared-context speedup {max_speedup:.2}x below the 1.1x target"
        );
        println!("target met: shared context {max_speedup:.2}x >= 1.1x at best replicate count");
    }
}
