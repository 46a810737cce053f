//! Engine scan-mode benchmark — the frontier scan at the default
//! saturation threshold vs a θ = 0 full sweep, machine-readable.
//!
//! Runs the EpiHiper core on two synthetic networks that bracket the
//! frontier scan's operating envelope and emits `BENCH_engine.json`:
//!
//! * **sparse** — a large ring-with-chords network where the epidemic
//!   is a travelling wave, so the active frontier is a sliver of the
//!   node set. This is the case the frontier scan exists for; the
//!   acceptance target is a ≥3× speedup over the full sweep.
//! * **dense** — a heavily-seeded random graph with a long infectious
//!   period, holding nearly every susceptible node on the frontier for
//!   the whole run, so the default threshold itself switches most
//!   partition-ticks to the full sweep. This is the worst case for the
//!   frontier bookkeeping; the acceptance target is ≤5% regression.
//!
//! Both cases first run with transition recording on in both modes and
//! assert the outputs are byte-identical (the engine's headline
//! invariant), then time each mode over several repetitions and report
//! node-ticks/s (nodes × ticks, not nodes visited), edges/s, per-tick
//! frontier occupancy, and the speedup. The JSON is validated by
//! re-parsing before it is written.
//!
//! `--smoke` shrinks both networks and skips the performance
//! assertions so CI can verify the harness end-to-end in seconds.

use epiflow_epihiper::disease::sir_model;
use epiflow_epihiper::{InterventionSet, SimConfig, SimContext, SimResult, Simulation};
use epiflow_synthpop::network::ContactEdge;
use epiflow_synthpop::{ActivityType, ContactNetwork};
use serde::{Number, Value};

/// Deterministic splitmix64 for network synthesis (no RNG dependency;
/// the engine's own draws come from its counter-based streams).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn edge(u: u32, v: u32) -> ContactEdge {
    let (u, v) = if u < v { (u, v) } else { (v, u) };
    ContactEdge {
        u,
        v,
        start: 480,
        duration: 480,
        ctx_u: ActivityType::Work,
        ctx_v: ActivityType::Work,
        weight: 1.0,
    }
}

/// Ring of `n` nodes, each linked to its next 4 neighbors, plus a
/// sprinkle of long-range chords (~0.5% of nodes). An epidemic seeded
/// at a few points travels as a narrow wave: frontier occupancy stays
/// tiny while the full sweep keeps paying for the whole ring.
fn sparse_ring(n: u32) -> ContactNetwork {
    let mut edges = Vec::with_capacity(n as usize * 4 + n as usize / 200);
    for u in 0..n {
        for k in 1..=4u32 {
            edges.push(edge(u, (u + k) % n));
        }
    }
    let mut st = 0xC0FFEE_u64;
    for _ in 0..(n / 200) {
        let a = (splitmix64(&mut st) % n as u64) as u32;
        let b = (splitmix64(&mut st) % n as u64) as u32;
        if a != b {
            edges.push(edge(a, b));
        }
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

/// Random graph with mean degree ~20. Combined with heavy seeding and
/// a long infectious period this keeps the frontier near-full, so the
/// frontier scan does all the full sweep's work *plus* its bookkeeping.
fn dense_random(n: u32) -> ContactNetwork {
    let mut st = 0xD15EA5E_u64;
    let mut edges = Vec::with_capacity(n as usize * 10);
    for u in 0..n {
        for _ in 0..10 {
            let v = (splitmix64(&mut st) % n as u64) as u32;
            if v != u {
                edges.push(edge(u, v));
            }
        }
    }
    ContactNetwork { n_nodes: n as usize, edges }
}

struct Case {
    name: &'static str,
    net: ContactNetwork,
    beta: f64,
    infectious_days: f64,
    ticks: u32,
    initial_infections: usize,
}

/// One run on a context built for it (the build is outside the timed
/// tick loop). `full_sweep` sets `saturation_threshold = 0`.
fn simulate(case: &Case, full_sweep: bool, record_transitions: bool) -> SimResult {
    let n = case.net.n_nodes;
    let config = SimConfig {
        ticks: case.ticks,
        seed: 7,
        n_partitions: 4,
        epsilon: 16,
        initial_infections: case.initial_infections,
        record_transitions,
        saturation_threshold: if full_sweep {
            0.0
        } else {
            SimConfig::default().saturation_threshold
        },
    };
    let ctx =
        SimContext::build(&case.net, vec![2; n], vec![0; n], config.n_partitions, config.epsilon);
    let model = sir_model(case.beta, case.infectious_days);
    Simulation::new_with_context(ctx.into(), model, InterventionSet::default(), config).run()
}

/// Best-of-`reps` wall time for both scan modes, interleaved so that
/// machine-load noise lands on both modes alike. Returns
/// `(frontier, full_sweep)` with the telemetry of each mode's fastest
/// run.
fn time_modes(case: &Case, reps: usize) -> (SimResult, SimResult) {
    let mut best_fr: Option<SimResult> = None;
    let mut best_rf: Option<SimResult> = None;
    for _ in 0..reps {
        let fr = simulate(case, false, false);
        if best_fr.as_ref().is_none_or(|b| fr.elapsed < b.elapsed) {
            best_fr = Some(fr);
        }
        let rf = simulate(case, true, false);
        if best_rf.as_ref().is_none_or(|b| rf.elapsed < b.elapsed) {
            best_rf = Some(rf);
        }
    }
    (best_fr.expect("reps >= 1"), best_rf.expect("reps >= 1"))
}

fn mode_value(case: &Case, r: &SimResult) -> Value {
    let secs = r.elapsed.as_secs_f64().max(1e-9);
    let node_ticks = case.net.n_nodes as u64 * r.ticks_run as u64;
    Value::Map(vec![
        ("elapsed_secs".into(), Value::Num(Number::F(secs))),
        ("node_ticks_per_sec".into(), Value::Num(Number::F(node_ticks as f64 / secs))),
        ("edges_scanned".into(), Value::Num(Number::U(r.stats.total_edges_scanned()))),
        (
            "edges_per_sec".into(),
            Value::Num(Number::F(r.stats.total_edges_scanned() as f64 / secs)),
        ),
    ])
}

fn run_case(case: &Case, reps: usize) -> (Value, f64, bool) {
    println!(
        "--- {} : {} nodes, {} edges, {} ticks ---",
        case.name,
        case.net.n_nodes,
        case.net.edges.len(),
        case.ticks
    );

    // Equivalence check: both modes with the full transition log.
    let fr_chk = simulate(case, false, true);
    let rf_chk = simulate(case, true, true);
    let identical = fr_chk.output == rf_chk.output;
    assert!(identical, "{}: frontier and full-sweep outputs diverge", case.name);
    println!(
        "  outputs identical across scan modes ({} transitions)",
        fr_chk.output.transitions.len()
    );

    let (frontier, full_sweep) = time_modes(case, reps);
    let speedup = full_sweep.elapsed.as_secs_f64() / frontier.elapsed.as_secs_f64().max(1e-9);
    let occupancy = frontier.stats.mean_frontier_occupancy(case.net.n_nodes);
    println!(
        "  frontier {:.3}s  full sweep {:.3}s  speedup {:.2}x  mean occupancy {:.1}%",
        frontier.elapsed.as_secs_f64(),
        full_sweep.elapsed.as_secs_f64(),
        speedup,
        occupancy * 100.0
    );

    let occ_by_tick: Vec<Value> = frontier
        .stats
        .frontier_nodes
        .iter()
        .map(|&f| Value::Num(Number::F(f as f64 / case.net.n_nodes.max(1) as f64)))
        .collect();

    let v = Value::Map(vec![
        ("nodes".into(), Value::Num(Number::U(case.net.n_nodes as u64))),
        ("edges".into(), Value::Num(Number::U(case.net.edges.len() as u64))),
        ("ticks".into(), Value::Num(Number::U(case.ticks as u64))),
        ("outputs_identical".into(), Value::Bool(identical)),
        ("total_infected".into(), Value::Num(Number::U(fr_chk.output.total_infections() as u64))),
        ("frontier".into(), mode_value(case, &frontier)),
        ("full_sweep".into(), mode_value(case, &full_sweep)),
        ("speedup".into(), Value::Num(Number::F(speedup))),
        ("mean_frontier_occupancy".into(), Value::Num(Number::F(occupancy))),
        ("frontier_occupancy_by_tick".into(), Value::Seq(occ_by_tick)),
    ]);
    (v, speedup, identical)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sparse_n, dense_n, reps) = if smoke { (2_000, 1_000, 1) } else { (120_000, 20_000, 5) };

    println!("=== Engine scan-mode benchmark (frontier vs θ = 0 full sweep) ===");
    println!("mode: {}\n", if smoke { "smoke" } else { "full" });

    let sparse = Case {
        name: "sparse_wave",
        net: sparse_ring(sparse_n),
        beta: 0.8,
        infectious_days: 5.0,
        ticks: if smoke { 30 } else { 120 },
        initial_infections: 3,
    };
    let dense = Case {
        name: "dense_saturated",
        net: dense_random(dense_n),
        beta: 0.05,
        infectious_days: 90.0,
        ticks: if smoke { 20 } else { 60 },
        initial_infections: dense_n as usize / 10,
    };

    let (sparse_v, sparse_speedup, _) = run_case(&sparse, reps);
    let (dense_v, dense_speedup, _) = run_case(&dense, reps);

    let doc = Value::Map(vec![
        ("benchmark".into(), Value::Str("engine_scan_mode".into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("n_partitions".into(), Value::Num(Number::U(4))),
        ("sparse".into(), sparse_v),
        ("dense".into(), dense_v),
    ]);

    let json = serde_json::to_string_pretty(&doc).expect("serialize benchmark report");
    // Round-trip before writing: the artifact must stay machine-readable.
    let parsed = serde_json::parse_value(&json).expect("re-parse benchmark JSON");
    for key in ["benchmark", "sparse", "dense"] {
        assert!(
            matches!(&parsed, Value::Map(m) if m.iter().any(|(k, _)| k == key)),
            "benchmark JSON missing key `{key}`"
        );
    }
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("\nwrote BENCH_engine.json ({} bytes)", json.len());

    if !smoke {
        assert!(
            sparse_speedup >= 3.0,
            "sparse frontier speedup {sparse_speedup:.2}x below the 3x target"
        );
        assert!(
            dense_speedup >= 0.95,
            "dense worst case regressed {:.1}% (>5% budget)",
            (1.0 / dense_speedup - 1.0) * 100.0
        );
        println!("targets met: sparse {sparse_speedup:.2}x >= 3x, dense within 5% budget");
    }
}
