//! Property-based tests over the core invariants, spanning crates.

use epiflow::core::CombinedWorkflow;
use epiflow::epihiper::checkpoint::SimSnapshot;
use epiflow::epihiper::disease::sir_model;
use epiflow::epihiper::engine::{
    CounterRng, SimConfig, SimContext, SimResult, SimScratch, Simulation,
};
use epiflow::epihiper::interventions::{
    GenericIntervention, InterventionSet, Operation, StayAtHome, Target, Trigger,
};
use epiflow::epihiper::partition::partition_network;
use epiflow::epihiper::TickBuckets;
use epiflow::hpcsim::cluster::ClusterSpec;
use epiflow::hpcsim::cluster::Site;
use epiflow::hpcsim::coloring::{
    greedy_relaxed_coloring, validate_relaxed_coloring, ConflictGraph,
};
use epiflow::hpcsim::schedule::{pack, PackAlgo};
use epiflow::hpcsim::task::Task;
use epiflow::hpcsim::task::WorkloadSpec;
use epiflow::linalg::{cholesky, Mat};
use epiflow::orchestrator::{
    sample_fault_plan, BreakerConfig, BreakerState, CampaignSpec, CircuitBreaker, CycleEnv, Dag,
    DeadlinePolicy, Engine, EngineEvent, FailoverPolicy, FaultProfile, Journal, NightlySpec,
    RetryPolicy, StepKind, StepSpec,
};
use epiflow::surveillance::CaseSeries;
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::ipf::{integerize, ipf};
use epiflow::synthpop::network::ContactEdge;
use epiflow::synthpop::{ActivityType, ContactNetwork};
use proptest::prelude::*;
use rand::RngCore;
use std::sync::Arc;

/// A 204-task nightly engine with failover + hedging on and an
/// arbitrary sampled fault plan (possibly a total remote kill).
fn failover_engine(base_seed: u64, night: u64, intensity: f64) -> Engine {
    let reg = RegionRegistry::new();
    let wf = CombinedWorkflow {
        workload: WorkloadSpec { cells: 2, replicates: 2, ..WorkloadSpec::prediction() },
        faults: sample_fault_plan(base_seed, night, intensity, &ClusterSpec::bridges()),
        deadline: DeadlinePolicy { shed_cells: true },
        failover: FailoverPolicy::on(),
        ..Default::default()
    };
    wf.engine(&reg, Scale::default())
}

fn arb_edges(max_nodes: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_nodes).prop_flat_map(move |n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..200);
        (Just(n), edges)
    })
}

/// A context for `net` with uniform demographics, built for `parts`
/// partitions at the default ε.
fn context(net: &ContactNetwork, parts: usize) -> Arc<SimContext> {
    let n = net.n_nodes;
    let eps = SimConfig::default().epsilon;
    Arc::new(SimContext::build(net, vec![2; n], vec![0; n], parts, eps))
}

/// Run a 30-tick SIR simulation at saturation threshold `theta` to
/// completion, or — when `interrupt_at` is set — stop at that tick,
/// round-trip a snapshot through the wire encoding, and resume at a
/// different partition count. `mk_iv` builds the intervention set fresh
/// for each simulation (the set holds boxed trait objects and is not
/// `Clone`).
fn run_epi_ckpt(
    net: &ContactNetwork,
    beta: f64,
    seed: u64,
    theta: f64,
    interrupt_at: Option<u32>,
    parts_after: usize,
    mk_iv: &dyn Fn() -> InterventionSet,
) -> SimResult {
    let cfg = |ticks: u32, parts: usize| SimConfig {
        ticks,
        seed,
        n_partitions: parts,
        initial_infections: 3,
        saturation_threshold: theta,
        ..Default::default()
    };
    let sim = |ticks: u32, parts: usize| {
        Simulation::new_with_context(
            context(net, parts),
            sir_model(beta, 5.0),
            mk_iv(),
            cfg(ticks, parts),
        )
    };
    let Some(k) = interrupt_at else {
        return sim(30, 4).run();
    };
    let mut interrupted = sim(k, 4);
    interrupted.run();
    let bytes = interrupted.snapshot().encode();
    let snap = SimSnapshot::decode(&bytes).expect("snapshot wire round-trip");
    let mut resumed = Simulation::resume_with_context(
        context(net, parts_after),
        sir_model(beta, 5.0),
        mk_iv(),
        cfg(30, parts_after),
        &snap,
    )
    .expect("snapshot accepted on resume");
    resumed.run()
}

fn make_network(n: u32, pairs: &[(u32, u32)]) -> ContactNetwork {
    let mut seen = std::collections::HashSet::new();
    let edges = pairs
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .filter(|p| seen.insert(*p))
        .map(|(u, v)| ContactEdge {
            u,
            v,
            start: 0,
            duration: 60,
            ctx_u: ActivityType::Work,
            ctx_v: ActivityType::Work,
            weight: 1.0,
        })
        .collect();
    ContactNetwork { n_nodes: n as usize, edges }
}

/// A random workflow DAG of flaky steps: `(secs, fail_attempts,
/// wasted_secs, max_retries, dep_picks)` per step, with each dep pick
/// reduced modulo the step index (edges always point backwards).
type FlakySpec = (f64, u32, f64, u32, Vec<u64>);

fn build_flaky_dag(specs: &[FlakySpec]) -> Dag {
    let mut dag = Dag::default();
    for (i, (secs, fails, wasted, retries, picks)) in specs.iter().enumerate() {
        let mut deps: Vec<usize> =
            if i == 0 { Vec::new() } else { picks.iter().map(|&p| (p as usize) % i).collect() };
        deps.sort_unstable();
        deps.dedup();
        dag.add(StepSpec {
            name: format!("s{i}"),
            site: Site::Remote,
            automated: true,
            kind: StepKind::Flaky { secs: *secs, fail_attempts: *fails, wasted_secs: *wasted },
            deps,
            retry: RetryPolicy::retries(*retries, 1.0),
        });
    }
    dag
}

fn arb_flaky_specs() -> impl Strategy<Value = Vec<FlakySpec>> {
    prop::collection::vec(
        (1.0f64..100.0, 0u32..4, 0.5f64..20.0, 0u32..5, prop::collection::vec(any::<u64>(), 0..3)),
        1..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No step starts before all its dependencies complete.
    #[test]
    fn engine_steps_wait_for_deps(specs in arb_flaky_specs()) {
        let dag = build_flaky_dag(&specs);
        let result = Engine::new(dag.clone(), CycleEnv::synthetic()).run();
        let mut ends = std::collections::HashMap::new();
        for e in &result.journal.entries {
            ends.insert(e.step, e.event.start_secs + e.event.duration_secs);
        }
        for e in &result.journal.entries {
            for &d in &dag.steps[e.step].deps {
                let dep_end = ends.get(&d).expect("a completed step's deps all completed");
                prop_assert!(
                    e.event.start_secs >= dep_end - 1e-9,
                    "step {} started at {} before dep {} ended at {}",
                    e.step, e.event.start_secs, d, dep_end
                );
            }
        }
    }

    /// Retry counts never exceed the policy bound, and a step completes
    /// exactly when its failures fit inside the bound (deps permitting).
    #[test]
    fn engine_retries_respect_policy(specs in arb_flaky_specs()) {
        let dag = build_flaky_dag(&specs);
        let result = Engine::new(dag.clone(), CycleEnv::synthetic()).run();
        let mut failed_attempts = vec![0u32; dag.len()];
        for e in &result.events {
            if let EngineEvent::AttemptFailed { step, .. } = e {
                failed_attempts[*step] += 1;
            }
        }
        let completed: std::collections::HashSet<usize> =
            result.journal.entries.iter().map(|e| e.step).collect();
        for (i, spec) in dag.steps.iter().enumerate() {
            prop_assert!(failed_attempts[i] <= spec.retry.max_attempts());
            let StepKind::Flaky { fail_attempts, .. } = spec.kind else { unreachable!() };
            let deps_ok = spec.deps.iter().all(|d| completed.contains(d));
            let should_complete = deps_ok && fail_attempts < spec.retry.max_attempts();
            prop_assert_eq!(completed.contains(&i), should_complete, "step {}", i);
        }
        for e in &result.journal.entries {
            prop_assert!(e.attempts <= dag.steps[e.step].retry.max_attempts());
        }
    }

    /// Resuming from ANY journal prefix reproduces the uninterrupted
    /// run's report and journal exactly, without redoing finished steps.
    #[test]
    fn engine_resume_any_prefix_identical(specs in arb_flaky_specs()) {
        let dag = build_flaky_dag(&specs);
        let engine = Engine::new(dag, CycleEnv::synthetic());
        let full = engine.run();
        for k in 0..=full.journal.entries.len() {
            let prefix = full.journal.prefix(k);
            let resumed = engine.resume(&prefix);
            prop_assert_eq!(&resumed.report, &full.report, "prefix {}", k);
            prop_assert_eq!(&resumed.journal, &full.journal, "prefix {}", k);
            for s in &resumed.live_steps {
                prop_assert!(
                    !prefix.entries.iter().any(|e| e.step == *s),
                    "journaled step {} was re-executed on resume", s
                );
            }
        }
    }

    /// The golden checkpoint invariant: interrupting a run at *any*
    /// tick, round-tripping the snapshot through the checksummed wire
    /// encoding, and resuming — at a different partition count — is
    /// byte-identical to the uninterrupted run, at the default
    /// saturation threshold and as a θ = 0 full sweep.
    #[test]
    fn ckpt_resume_any_tick_byte_identical(
        (n, pairs) in arb_edges(120),
        seed in any::<u64>(),
        beta in 0.0f64..3.0,
        k in 0u32..=30,
    ) {
        let net = make_network(n, &pairs);
        let no_iv = InterventionSet::default;
        for theta in [0.75, 0.0] {
            let full = run_epi_ckpt(&net, beta, seed, theta, None, 4, &no_iv);
            // Resume at the same partition count: everything matches,
            // counters included.
            let same = run_epi_ckpt(&net, beta, seed, theta, Some(k), 4, &no_iv);
            prop_assert_eq!(
                &full.output, &same.output,
                "output diverged after interrupt at tick {}", k
            );
            prop_assert_eq!(&full.stats, &same.stats);
            prop_assert_eq!(full.ticks_run, same.ticks_run);
            // Resume at a different partition count: the epidemic is
            // unchanged; only the per-partition scan-cost counter
            // (`edges_scanned`) may legitimately shift.
            for parts_after in [1usize, 13] {
                let repart = run_epi_ckpt(&net, beta, seed, theta, Some(k), parts_after, &no_iv);
                prop_assert_eq!(
                    &full.output, &repart.output,
                    "output diverged resuming at {} partitions after tick {}", parts_after, k
                );
                prop_assert_eq!(&full.stats.frontier_nodes, &repart.stats.frontier_nodes);
                prop_assert_eq!(&full.stats.due_nodes, &repart.stats.due_nodes);
                prop_assert_eq!(&full.stats.events, &repart.stats.events);
            }
        }
    }

    /// Same invariant with stateful interventions in play: a
    /// compliance-sampled stay-at-home order plus a delayed, fire-once
    /// isolation rule whose pending/fired state must survive the
    /// snapshot round-trip.
    #[test]
    fn ckpt_resume_with_interventions_identical(
        (n, pairs) in arb_edges(80),
        seed in any::<u64>(),
        beta in 0.5f64..3.0,
        k in 0u32..=30,
    ) {
        let net = make_network(n, &pairs);
        let mk_iv = || {
            let mut isolate = GenericIntervention::new(
                "isolate-on-spread",
                Trigger::StateCountAtLeast { state: 1, count: 4 },
                Target::NodesInState { state: 1 },
                vec![Operation::Isolate { days: 5 }],
            );
            isolate.once = true;
            isolate.delay = 2;
            InterventionSet::new()
                .with(Box::new(StayAtHome::new(3, 12, 0.6)))
                .with(Box::new(isolate))
        };
        let full = run_epi_ckpt(&net, beta, seed, 0.75, None, 4, &mk_iv);
        let resumed = run_epi_ckpt(&net, beta, seed, 0.75, Some(k), 4, &mk_iv);
        prop_assert_eq!(
            &full.output, &resumed.output,
            "intervention state diverged after interrupt at tick {}", k
        );
        prop_assert_eq!(&full.stats, &resumed.stats);
    }

    /// The partitioner covers all nodes exactly once, never exceeds the
    /// requested partition count, and preserves every in-edge.
    #[test]
    fn partition_invariants((n, pairs) in arb_edges(300), parts in 1usize..12, eps in 0usize..20) {
        let net = make_network(n, &pairs);
        let p = partition_network(&net, parts, eps);
        prop_assert!(p.len() <= parts);
        let mut covered = 0u32;
        for r in &p.ranges {
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, n);
        let total_in: usize = p.edge_counts.iter().sum();
        prop_assert_eq!(total_in, net.edges.len() * 2);
    }

    /// Both packers produce valid plans for arbitrary task sets.
    #[test]
    fn packers_always_valid(
        specs in prop::collection::vec((0usize..8, 1usize..6, 1.0f64..1000.0), 1..60),
        machine in 6usize..32,
        bound in 1usize..6,
    ) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(region, nodes, secs))| Task {
                id: i as u32,
                region,
                cell: 0,
                replicate: 0,
                nodes,
                est_secs: secs,
                actual_secs: secs,
                db_connections: 1,
            })
            .collect();
        for algo in [PackAlgo::NfdtDc, PackAlgo::FfdtDc] {
            let plan = pack(&tasks, machine, |_| bound, algo);
            prop_assert!(plan.validate(&tasks, |_| bound).is_ok());
            prop_assert_eq!(plan.n_tasks(), tasks.len());
            let stats = plan.execute(&tasks);
            prop_assert!(stats.utilization > 0.0 && stats.utilization <= 1.0 + 1e-9);
        }
    }

    /// FFDT-DC never uses more levels than NFDT-DC on the same input.
    #[test]
    fn ffdt_levels_never_exceed_nfdt(
        specs in prop::collection::vec((0usize..5, 1usize..4, 1.0f64..500.0), 1..40),
    ) {
        let tasks: Vec<Task> = specs
            .iter()
            .enumerate()
            .map(|(i, &(region, nodes, secs))| Task {
                id: i as u32,
                region,
                cell: 0,
                replicate: 0,
                nodes,
                est_secs: secs,
                actual_secs: secs,
                db_connections: 1,
            })
            .collect();
        let nf = pack(&tasks, 8, |_| 3, PackAlgo::NfdtDc);
        let ff = pack(&tasks, 8, |_| 3, PackAlgo::FfdtDc);
        prop_assert!(ff.levels.len() <= nf.levels.len());
    }

    /// IPF hits both marginals whenever the seed admits them.
    #[test]
    fn ipf_fits_marginals(
        seed in prop::collection::vec(prop::collection::vec(0.1f64..10.0, 3), 3),
        rows in prop::collection::vec(1.0f64..100.0, 3),
        cols_raw in prop::collection::vec(1.0f64..100.0, 3),
    ) {
        // Rescale columns so totals agree.
        let rt: f64 = rows.iter().sum();
        let ct: f64 = cols_raw.iter().sum();
        let cols: Vec<f64> = cols_raw.iter().map(|c| c * rt / ct).collect();
        let res = ipf(&seed, &rows, &cols, 1e-9, 2000);
        prop_assert!(res.converged, "max_error {}", res.max_error);
        for (i, row) in res.table.iter().enumerate() {
            let s: f64 = row.iter().sum();
            prop_assert!((s - rows[i]).abs() < 1e-6 * rows[i].max(1.0));
        }
    }

    /// Integerization preserves the requested total exactly.
    #[test]
    fn integerize_total_exact(
        table in prop::collection::vec(prop::collection::vec(0.01f64..50.0, 4), 4),
        total in 1u64..100_000,
    ) {
        let ints = integerize(&table, total);
        let sum: u64 = ints.iter().flat_map(|r| r.iter()).sum();
        prop_assert_eq!(sum, total);
    }

    /// Cholesky reconstructs any matrix built as A = BᵀB + I.
    #[test]
    fn cholesky_reconstructs(entries in prop::collection::vec(-2.0f64..2.0, 9)) {
        let b = Mat::from_rows_flat(3, 3, &entries);
        let mut a = b.transpose().matmul(&b);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let c = cholesky(&a).unwrap();
        let rec = c.l().matmul(&c.l().transpose());
        prop_assert!((&rec - &a).max_abs() < 1e-8);
        // Solve agrees with the definition.
        let x = c.solve(&[1.0, 2.0, 3.0]);
        let back = a.matvec(&x);
        prop_assert!((back[0] - 1.0).abs() < 1e-6);
        prop_assert!((back[1] - 2.0).abs() < 1e-6);
        prop_assert!((back[2] - 3.0).abs() < 1e-6);
    }

    /// Greedy r-relaxed coloring is always valid on region-clique
    /// conflict graphs, and uses exactly ceil(max clique / (r+1)) colors.
    #[test]
    fn relaxed_coloring_valid(
        regions in prop::collection::vec(0usize..6, 1..60),
        r in 0usize..4,
    ) {
        let g = ConflictGraph::region_cliques(&regions);
        let order: Vec<u32> = (0..regions.len() as u32).collect();
        let colors = greedy_relaxed_coloring(&g, &order, r);
        prop_assert!(validate_relaxed_coloring(&g, &colors, r));
        let mut clique_sizes = std::collections::HashMap::new();
        for &reg in &regions {
            *clique_sizes.entry(reg).or_insert(0usize) += 1;
        }
        let expect = clique_sizes.values().map(|&s| s.div_ceil(r + 1)).max().unwrap();
        let used = *colors.iter().max().unwrap() as usize + 1;
        prop_assert_eq!(used, expect);
    }

    /// Case series: cumulative/daily round trip and smoothing mass
    /// preservation (away from edges).
    #[test]
    fn case_series_round_trip(daily in prop::collection::vec(0.0f64..1000.0, 1..80)) {
        let s = CaseSeries::from_daily(daily.clone());
        let back = CaseSeries::from_cumulative(&s.cumulative());
        for (a, b) in s.daily.iter().zip(&back.daily) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        // Smoothing never produces negative counts and preserves totals
        // within edge effects.
        let sm = s.smooth7();
        prop_assert!(sm.daily.iter().all(|&x| x >= 0.0));
    }

    /// CounterRng: deterministic per key, and distinct keys produce
    /// distinct streams (collision would break replicate independence).
    #[test]
    fn counter_rng_keys_independent(seed in any::<u64>(), a in 0u32..10_000, b in 0u32..10_000, t in 0u32..1000) {
        let take = |node: u32, tick: u32| -> Vec<u64> {
            let mut r = CounterRng::new(seed, node, tick);
            (0..4).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(take(a, t), take(a, t));
        if a != b {
            prop_assert_ne!(take(a, t), take(b, t));
        }
    }

    /// A circuit breaker never admits a call while open before the
    /// cool-down has elapsed, and always admits while closed. State is
    /// modelled externally from the transitions `record` reports, so
    /// this also pins `record` as the only place transitions happen.
    #[test]
    fn breaker_never_admits_while_open_before_cooldown(
        calls in prop::collection::vec((0.0f64..200.0, any::<bool>()), 1..80),
    ) {
        let config = BreakerConfig::default();
        let mut breaker = CircuitBreaker::new(config);
        let mut now = 0.0;
        let mut opened_at = None;
        for (gap, success) in calls {
            now += gap;
            let admitted = breaker.admits(now);
            match opened_at {
                Some(t) if now - t < config.cooldown_secs => prop_assert!(
                    !admitted,
                    "admitted at {} while open since {} (cool-down {})",
                    now, t, config.cooldown_secs
                ),
                Some(_) => prop_assert!(admitted, "cool-down elapsed: probe must be admitted"),
                None => prop_assert!(admitted, "closed/half-open breakers admit"),
            }
            let probe = opened_at.is_some_and(|t| now - t >= config.cooldown_secs);
            match breaker.record(now, success) {
                Some((_, BreakerState::Open)) => opened_at = Some(now),
                Some((_, BreakerState::Closed)) => opened_at = None,
                // Half-open: cool-down has elapsed; probes admitted.
                Some((_, BreakerState::HalfOpen)) => {}
                // A failed probe re-trips Open → HalfOpen → Open within
                // one `record`; from == to, so no transition is
                // reported, but the cool-down clock restarts.
                None if probe && !success => opened_at = Some(now),
                None => {}
            }
        }
    }

    /// Under arbitrary sampled fault plans — total remote kills
    /// included — failover never starts a step before its dependencies
    /// end, and resume from any journal prefix is exact.
    #[test]
    fn failover_respects_deps_and_resumes_exactly(
        base_seed in any::<u64>(),
        night in 0u64..1000,
        intensity in 0.0f64..1.0,
    ) {
        let engine = failover_engine(base_seed, night, intensity);
        let full = engine.run();
        let mut ends = std::collections::HashMap::new();
        for e in &full.journal.entries {
            ends.insert(e.step, e.event.start_secs + e.event.duration_secs);
        }
        for e in &full.journal.entries {
            for &d in &engine.dag.steps[e.step].deps {
                let dep_end = ends.get(&d).expect("a completed step's deps all completed");
                prop_assert!(
                    e.event.start_secs >= dep_end - 1e-9,
                    "step {} started at {} before dep {} ended at {}",
                    e.step, e.event.start_secs, d, dep_end
                );
            }
        }
        for k in 0..=full.journal.entries.len() {
            let resumed = engine.resume(&full.journal.prefix(k));
            prop_assert_eq!(&resumed.report, &full.report, "prefix {}", k);
            prop_assert_eq!(&resumed.journal, &full.journal, "prefix {}", k);
        }
    }

    /// A campaign is a pure function of its seed: the rayon fan-out
    /// returns exactly what a sequential loop over `run_night` returns,
    /// run after run.
    #[test]
    fn campaign_deterministic_regardless_of_parallelism(base_seed in any::<u64>()) {
        let engine = failover_engine(0, 0, 0.0);
        let spec = CampaignSpec {
            nightly: NightlySpec { failover: FailoverPolicy::on(), ..NightlySpec::default() },
            tasks: engine.env.tasks.clone(),
            region_rows: engine.env.region_rows.clone(),
            deadline: DeadlinePolicy { shed_cells: true },
            intensities: vec![0.4, 1.0],
            nights_per_intensity: 3,
            base_seed,
            profile: FaultProfile::Mixed,
        };
        let parallel = spec.run();
        prop_assert_eq!(&parallel, &spec.run());
        let sequential: Vec<_> = (0..spec.intensities.len())
            .flat_map(|ii| (0..3u64).map(move |n| (ii, n)))
            .map(|(ii, n)| spec.run_night(ii, n))
            .collect();
        prop_assert_eq!(&parallel.outcomes, &sequential);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ensemble invariant: one shared [`SimContext`] per partition
    /// count, reused across a ⟨cell (beta), replicate (seed)⟩ grid with
    /// pooled scratch carried run-to-run, is byte-identical to building
    /// a fresh context for every simulation — outputs, telemetry, and
    /// snapshot wire bytes alike. A context-backed run interrupted mid-flight
    /// also resumes through the same shared `Arc` to the same bytes.
    #[test]
    fn shared_context_grid_byte_identical(
        (n, pairs) in arb_edges(80),
        base_seed in any::<u64>(),
        k in 0u32..=30,
    ) {
        let net = make_network(n, &pairs);
        let betas = [0.4f64, 1.5]; // two cells of a tiny study design
        let cfg = |seed: u64, ticks: u32, parts: usize| SimConfig {
            ticks,
            seed,
            n_partitions: parts,
            initial_infections: 3,
            ..Default::default()
        };
        for parts in [1usize, 4, 13] {
            let ctx = context(&net, parts);
            let mut scratch = SimScratch::new();
            for (cell, &beta) in betas.iter().enumerate() {
                for rep in 0..2u64 {
                    let seed = base_seed ^ ((cell as u64) << 16) ^ rep;
                    let mut fresh = Simulation::new_with_context(
                        context(&net, parts),
                        sir_model(beta, 5.0),
                        InterventionSet::default(),
                        cfg(seed, 30, parts),
                    );
                    let fresh_out = fresh.run();
                    let mut shared = Simulation::new_with_context(
                        Arc::clone(&ctx),
                        sir_model(beta, 5.0),
                        InterventionSet::default(),
                        cfg(seed, 30, parts),
                    );
                    shared.install_scratch(std::mem::take(&mut scratch));
                    let shared_out = shared.run();
                    scratch = shared.take_scratch();
                    prop_assert_eq!(
                        &fresh_out.output, &shared_out.output,
                        "cell {} rep {} diverged at {} partitions", cell, rep, parts
                    );
                    prop_assert_eq!(&fresh_out.stats, &shared_out.stats);
                    prop_assert_eq!(fresh.snapshot().encode(), shared.snapshot().encode());
                }
            }
            // Interrupt a context-backed run at tick `k` and resume it
            // through the *same* shared context.
            let seed = base_seed ^ 0xA5;
            let beta = betas[1];
            let mut baseline = Simulation::new_with_context(
                Arc::clone(&ctx),
                sir_model(beta, 5.0),
                InterventionSet::default(),
                cfg(seed, 30, parts),
            );
            let base_out = baseline.run();
            let mut interrupted = Simulation::new_with_context(
                Arc::clone(&ctx),
                sir_model(beta, 5.0),
                InterventionSet::default(),
                cfg(seed, k, parts),
            );
            interrupted.install_scratch(std::mem::take(&mut scratch));
            interrupted.run();
            scratch = interrupted.take_scratch();
            let bytes = interrupted.snapshot().encode();
            let snap = SimSnapshot::decode(&bytes).expect("snapshot wire round-trip");
            let mut resumed = Simulation::resume_with_context(
                Arc::clone(&ctx),
                sir_model(beta, 5.0),
                InterventionSet::default(),
                cfg(seed, 30, parts),
                &snap,
            )
            .expect("snapshot accepted through shared context");
            let res_out = resumed.run();
            prop_assert_eq!(
                &base_out.output, &res_out.output,
                "context-backed resume diverged at tick {} on {} partitions", k, parts
            );
            prop_assert_eq!(&base_out.stats, &res_out.stats);
        }
    }
}

/// One operation on a progression queue: push `node` at `tick`, or
/// drain `tick`.
#[derive(Clone, Debug)]
enum QueueOp {
    Push { tick: u32, node: u32 },
    Drain { tick: u32 },
}

/// Queue operations over few ticks and nodes, so duplicate entries and
/// drains of non-empty buckets are common; pushes outnumber drains 3:1.
fn arb_queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        (0u8..4, 0u32..12, 0u32..40).prop_map(|(kind, tick, node)| match kind {
            0 => QueueOp::Drain { tick },
            _ => QueueOp::Push { tick, node },
        }),
        0..120,
    )
}

/// One corruption of a journal's JSONL. Offsets are taken modulo the
/// length of the text they apply to.
#[derive(Clone, Debug)]
enum JsonlDamage {
    /// Keep the text up to the last char boundary at or before `at`.
    Truncate { at: u64 },
    /// XOR single bits of the bytes, as `(offset, bit)` pairs, then
    /// decode the result lossily.
    Flip { bits: Vec<(u64, u8)> },
    /// The first `a_len` bytes of one journal, then another journal's
    /// bytes from `b_from` on, decoded lossily.
    Splice { a_len: u64, b_from: u64 },
}

fn arb_jsonl_damage() -> impl Strategy<Value = JsonlDamage> {
    (0u8..3, any::<u64>(), any::<u64>(), prop::collection::vec((any::<u64>(), 0u8..8), 1..9))
        .prop_map(|(kind, x, y, bits)| match kind {
            0 => JsonlDamage::Truncate { at: x },
            1 => JsonlDamage::Flip { bits },
            _ => JsonlDamage::Splice { a_len: x, b_from: y },
        })
}

fn damage_jsonl(d: &JsonlDamage, a: &str, b: &str) -> String {
    let cut = |x: u64, s: &str| (x % (s.len() as u64 + 1)) as usize;
    match d {
        JsonlDamage::Truncate { at } => {
            let mut end = cut(*at, a);
            while !a.is_char_boundary(end) {
                end -= 1;
            }
            a[..end].to_string()
        }
        JsonlDamage::Flip { bits } => {
            let mut bytes = a.as_bytes().to_vec();
            for &(at, bit) in bits {
                bytes[(at % a.len() as u64) as usize] ^= 1 << bit;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        JsonlDamage::Splice { a_len, b_from } => {
            let bytes =
                [&a.as_bytes()[..cut(*a_len, a)], &b.as_bytes()[cut(*b_from, b)..]].concat();
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The progression queue's snapshot form round-trips: re-pushing
    /// every exported entry into a fresh queue gives the same export,
    /// the same entry count, and the same drain at every tick, whatever
    /// mix of duplicate pushes and drains came before.
    #[test]
    fn ckpt_bucket_export_round_trip(ops in arb_queue_ops()) {
        let mut live = TickBuckets::new();
        let mut out = Vec::new();
        for op in &ops {
            match *op {
                QueueOp::Push { tick, node } => live.push(tick, node),
                QueueOp::Drain { tick } => live.take_into(tick, &mut out),
            }
        }
        let exported = live.export_entries();
        let mut restored = TickBuckets::new();
        for (tick, nodes) in &exported {
            for &v in nodes {
                restored.push(*tick, v);
            }
        }
        prop_assert_eq!(&restored.export_entries(), &exported);
        prop_assert_eq!(restored.queued(), live.queued());
        let mut expect = Vec::new();
        for tick in 0..12 {
            live.take_into(tick, &mut expect);
            restored.take_into(tick, &mut out);
            prop_assert_eq!(&out, &expect, "tick {}", tick);
        }
        prop_assert_eq!(restored.queued(), 0);
    }

    /// The journal decoders are total on damaged JSONL from real
    /// nightly runs: truncated at a char boundary, bit-flipped, or
    /// spliced from two journals, `from_jsonl` and `recover_jsonl`
    /// return `Ok` or `Err` and never panic. A pure truncation is what
    /// a crash mid-append leaves behind, so recovery must succeed on it
    /// with a prefix of the original entries.
    #[test]
    fn journal_decoders_are_total_on_corrupted_jsonl(d in arb_jsonl_damage()) {
        static JOURNALS: std::sync::OnceLock<(Journal, String, String)> =
            std::sync::OnceLock::new();
        let (full, a, b) = JOURNALS.get_or_init(|| {
            let a = failover_engine(3, 1, 0.6).run().journal;
            let b = failover_engine(8, 2, 0.3).run().journal;
            let (a_text, b_text) = (a.to_jsonl(), b.to_jsonl());
            (a, a_text, b_text)
        });
        let text = damage_jsonl(&d, a, b);
        let strict = std::panic::catch_unwind(|| Journal::from_jsonl(&text).is_ok());
        prop_assert!(strict.is_ok(), "from_jsonl panicked on {:?}", d);
        let recovered = std::panic::catch_unwind(|| Journal::recover_jsonl(&text));
        prop_assert!(recovered.is_ok(), "recover_jsonl panicked on {:?}", d);
        if let (JsonlDamage::Truncate { .. }, Ok(result)) = (&d, recovered) {
            let (journal, _) = result.expect("a truncated journal recovers");
            prop_assert!(
                full.entries.starts_with(&journal.entries),
                "recovered entries are not a prefix of the original's"
            );
        }
    }
}
