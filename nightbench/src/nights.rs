//! The three benchmark nights, each in two forms: the untraced night
//! drives the workflow entry points (`*Workflow::run_with`), and the
//! traced night composes the same result from the public layer calls
//! those workflows make, with a span around each call. Both forms feed
//! the same [`Night`] accumulator in the same order, so equal digests
//! mean bit-identical deliverables.

use crate::host;
use crate::trace::Tracer;
use epiflow_analytics::{ensemble_band, CostModel, CostReport, EnsembleBand};
use epiflow_calibrate::{Emulator, GpmsaCalibration, GpmsaConfig, MetropolisConfig, Posterior};
use epiflow_core::{
    CalibrationWorkflow, CellConfig, CellRunSummary, CounterfactualWorkflow, EnsembleRunner,
    FactorialDesign, PredictionResult, PredictionWorkflow, ScenarioCost, StudyDesign,
};
use epiflow_epihiper::{
    covid19_model, DiseaseModel, EngineStats, InterventionSet, SimConfig, SimOutput, Simulation,
    SnapshotChain, SnapshotEvent,
};
use epiflow_surveillance::{RegionRegistry, Scale};
use epiflow_synthpop::builder::RegionData;
use epiflow_synthpop::{build_region, BuildConfig};
use std::time::Instant;

/// Every night runs on one state's network.
pub const REGION: &str = "VA";
/// Partitions per simulation: the workflows' default.
const N_PARTITIONS: usize = 4;
/// Frontier share above which the engine switches a partition to the
/// full sweep (`SimConfig::saturation_threshold`'s default).
const SATURATION: f64 = 0.75;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CalibNight,
    ForecastNight,
    LoneWave,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CalibNight, Workload::ForecastNight, Workload::LoneWave];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CalibNight => "calib_night",
            Workload::ForecastNight => "forecast_night",
            Workload::LoneWave => "lone_wave",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Region scale as `1/denominator`.
    pub fn scale_denominator(self) -> f64 {
        match self {
            Workload::CalibNight => 8000.0,
            Workload::ForecastNight => 50.0,
            Workload::LoneWave => 20.0,
        }
    }
}

/// splitmix64: independent sub-seeds for each input drawn from the
/// workload seed.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[lo, hi)` from a sub-seed.
fn uniform(seed: u64, stream: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (sub_seed(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// A region with its shared simulation context, plus (for
/// `calib_night`) the hidden parameters and the observed curve made
/// from them.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub data: RegionData,
    pub runner: EnsembleRunner,
    truth: [f64; 4],
    observed: Vec<f64>,
}

impl Prepared {
    pub fn persons(&self) -> usize {
        self.data.population.len()
    }
}

/// Build what a night needs before it starts: the region, its shared
/// context, and the observed curve `calib_night` calibrates against.
pub fn setup(workload: Workload, seed: u64, t: &mut Tracer) -> Prepared {
    let registry = RegionRegistry::new();
    let id = registry.by_abbrev(REGION).expect("the registry has VA").id;
    let config = BuildConfig {
        scale: Scale::one_per(workload.scale_denominator()),
        seed: sub_seed(seed, 1),
        ..Default::default()
    };
    let data =
        t.span("synthpop", "synthpop.build_region", |_| build_region(&registry, id, &config));
    t.count("persons", data.population.len() as f64);
    t.count("edges", data.network.n_edges() as f64);
    let runner =
        t.span("epihiper", "epihiper.context_build", |_| EnsembleRunner::new(&data, N_PARTITIONS));
    let mut prepared =
        Prepared { workload, seed, data, runner, truth: [0.0; 4], observed: Vec::new() };
    if workload == Workload::CalibNight {
        observe(&mut prepared, t);
    }
    prepared
}

// ---- calib_night ---------------------------------------------------------

/// Replicates averaged into the observed curve.
const OBSERVED_REPS: u32 = 20;

fn calib_base() -> CellConfig {
    CellConfig {
        days: 70,
        sc_start: 30,
        sh_start: 45,
        sh_end: 200,
        initial_infections: 12,
        ..CellConfig::default()
    }
}

/// The hidden configuration and its replicate-mean logged cumulative
/// curve, standing in for the surveillance series.
fn observe(p: &mut Prepared, t: &mut Tracer) {
    let s = p.seed;
    p.truth = [
        uniform(s, 10, 0.22, 0.34),
        uniform(s, 11, 0.50, 0.75),
        uniform(s, 12, 0.40, 0.70),
        uniform(s, 13, 0.35, 0.65),
    ];
    let cell = CellConfig::from_theta(900, &p.truth, &calib_base());
    let runner = &p.runner;
    let runs: Vec<CellRunSummary> = t.span("core.runner", "core.runner.run_cell", |_| {
        (0..OBSERVED_REPS).map(|rep| runner.run_cell(&cell, rep, false, sub_seed(s, 3))).collect()
    });
    t.count("jobs", runs.len() as f64);
    let mut observed = vec![0.0; cell.days as usize];
    for run in &runs {
        for (o, l) in observed.iter_mut().zip(&run.log_cum_symptomatic) {
            *o += l / OBSERVED_REPS as f64;
        }
    }
    p.observed = observed;
}

fn calibration_workflow(seed: u64) -> CalibrationWorkflow {
    CalibrationWorkflow {
        n_prior_cells: 100,
        p_eta: 5,
        gpmsa: GpmsaConfig {
            mcmc: MetropolisConfig {
                iterations: 3000,
                burn_in: 800,
                seed: sub_seed(seed, 4),
                ..MetropolisConfig::default()
            },
            gibbs_sweeps: 2,
            ..GpmsaConfig::default()
        },
        base: calib_base(),
        n_posterior: 20,
        n_partitions: N_PARTITIONS,
        seed: sub_seed(seed, 5),
    }
}

fn calib_prediction(seed: u64) -> PredictionWorkflow {
    PredictionWorkflow {
        replicates: 5,
        horizon_days: 126,
        n_partitions: N_PARTITIONS,
        seed: sub_seed(seed, 6),
    }
}

/// Metropolis iterations `GpmsaCalibration::run` makes: every sweep
/// but the last runs a quarter-length chain.
fn mcmc_iterations(config: &GpmsaConfig) -> usize {
    let sweeps = config.gibbs_sweeps.max(1);
    config.mcmc.iterations + (sweeps - 1) * (config.mcmc.iterations / 4).max(200)
}

/// The calibration observable of each prior cell, in cell order.
fn observables(cells: usize, runs: &[CellRunSummary]) -> Vec<Vec<f64>> {
    let mut outputs = vec![Vec::new(); cells];
    for r in runs {
        outputs[r.cell as usize] = r.log_cum_symptomatic.clone();
    }
    outputs
}

/// What the calibration phase hands on, from either night form.
struct Calibrated {
    thetas: Vec<Vec<f64>>,
    runs: Vec<CellRunSummary>,
    emulator: Emulator,
    posterior: Posterior,
    configs: Vec<CellConfig>,
}

/// What a prediction phase delivers, from either night form.
struct Predicted {
    runs: Vec<CellRunSummary>,
    cumulative: EnsembleBand,
    daily: EnsembleBand,
}

impl From<PredictionResult> for Predicted {
    fn from(r: PredictionResult) -> Self {
        Predicted { runs: r.runs, cumulative: r.cumulative_band, daily: r.daily_band }
    }
}

/// Calibration, as `CalibrationWorkflow::run_with` composes it.
fn calibrate_traced(t: &mut Tracer, p: &Prepared, wf: &CalibrationWorkflow) -> Calibrated {
    t.span("core.workflow", "core.workflow.calibrate", |t| {
        let prior = t.span("core.workflow", "core.workflow.lhs_prior", |_| {
            StudyDesign::lhs_prior(wf.n_prior_cells, &wf.base, wf.seed)
        });
        let thetas: Vec<Vec<f64>> = prior.cells.iter().map(|c| c.theta().to_vec()).collect();
        let runs = run_design(t, &p.runner, &prior, wf.seed);
        let outputs = observables(prior.cells.len(), &runs);
        let emulator = t.span("calibrate", "calibrate.emulator_fit", |_| {
            Emulator::fit(
                CellConfig::calibration_space(),
                &thetas,
                &outputs,
                wf.p_eta,
                wf.seed ^ 0xE40,
            )
        });
        let posterior = t.span("calibrate", "calibrate.gpmsa_run", |_| {
            GpmsaCalibration::new(&emulator, &p.observed, wf.gpmsa.clone()).run()
        });
        t.count("mcmc_iterations", mcmc_iterations(&wf.gpmsa) as f64);
        t.count("mcmc_acceptance", posterior.theta.acceptance);
        let draws = t.span("calibrate", "calibrate.resample", |_| {
            posterior.theta.resample(wf.n_posterior, wf.seed ^ 0x9057)
        });
        let configs = draws
            .iter()
            .enumerate()
            .map(|(i, theta)| CellConfig::from_theta(i as u32, theta, &wf.base))
            .collect();
        Calibrated { thetas, runs, emulator, posterior, configs }
    })
}

fn calib_night(p: &Prepared, traced: bool, t: &mut Tracer) -> (Night, f64) {
    let (cal_wf, pred_wf) = (calibration_workflow(p.seed), calib_prediction(p.seed));
    let ((cal, pred), secs) = timed(t, |t| {
        if traced {
            let cal = calibrate_traced(t, p, &cal_wf);
            let pred = predict_traced(t, &p.runner, &pred_wf, &cal.configs);
            (cal, pred)
        } else {
            let r = cal_wf.run_with(&p.runner, &p.observed);
            let pred = pred_wf.run_with(&p.runner, &r.posterior_configs).into();
            let cal = Calibrated {
                thetas: r.prior_thetas,
                runs: r.runs,
                emulator: r.emulator,
                posterior: r.posterior,
                configs: r.posterior_configs,
            };
            (cal, pred)
        }
    });
    let mut night = Night::new(p);
    night.sims(&cal.runs);
    night.posterior(&cal.posterior, &cal.configs, p.truth[0]);
    night.sims(&pred.runs);
    night.bands(&pred.cumulative, &pred.daily);
    if t.enabled() {
        // Quality figures, computed after the clock stopped.
        let outputs = observables(cal.thetas.len(), &cal.runs);
        t.count("emulator_training_mae", cal.emulator.training_mae(&cal.thetas, &outputs));
        t.count("tau_abs_err", night.tau_abs_err);
    }
    (night, secs)
}

// ---- forecast_night ------------------------------------------------------

fn forecast_base() -> CellConfig {
    CellConfig { days: 150, initial_infections: 20, ..CellConfig::default() }
}

fn forecast_prediction(seed: u64) -> PredictionWorkflow {
    PredictionWorkflow {
        replicates: 5,
        horizon_days: 150,
        n_partitions: N_PARTITIONS,
        seed: sub_seed(seed, 8),
    }
}

fn forecast_counterfactual(seed: u64) -> CounterfactualWorkflow {
    CounterfactualWorkflow {
        design: FactorialDesign::paper_economic(),
        base: forecast_base(),
        replicates: 5,
        cost_model: CostModel::default(),
        n_partitions: N_PARTITIONS,
        seed: sub_seed(seed, 9),
    }
}

/// The cost table, as `CounterfactualWorkflow::run_with` composes it;
/// also returns the runs behind it.
fn counterfactual_traced(
    t: &mut Tracer,
    runner: &EnsembleRunner,
    wf: &CounterfactualWorkflow,
) -> (Vec<ScenarioCost>, Vec<CellRunSummary>) {
    t.span("core.workflow", "core.workflow.counterfactual", |t| {
        let cells = wf.design.expand(&wf.base);
        let study = StudyDesign { cells: cells.clone(), replicates: wf.replicates };
        let runs = run_design(t, runner, &study, wf.seed);
        let costs = t.span("analytics", "analytics.cost_evaluate", |_| {
            cells
                .iter()
                .map(|cell| {
                    let cell_runs: Vec<_> = runs.iter().filter(|r| r.cell == cell.cell).collect();
                    let n = cell_runs.len().max(1);
                    let mut total = CostReport::default();
                    let mut infections = 0.0;
                    for r in &cell_runs {
                        total = total.add(&wf.cost_model.evaluate(&r.output));
                        infections += r.log_cum_symptomatic.last().map_or(0.0, |l| l.exp() - 1.0);
                    }
                    ScenarioCost {
                        cell: cell.clone(),
                        mean_cost: total.scale(1.0 / n as f64),
                        mean_infections: infections / n as f64,
                    }
                })
                .collect::<Vec<_>>()
        });
        t.count("evaluations", runs.len() as f64);
        (costs, runs)
    })
}

fn forecast_night(p: &Prepared, traced: bool, t: &mut Tracer) -> (Night, f64) {
    let cells = FactorialDesign::paper_economic().expand(&forecast_base());
    let (pred_wf, cf_wf) = (forecast_prediction(p.seed), forecast_counterfactual(p.seed));
    let ((pred, costs, cf_runs), secs) = timed(t, |t| {
        if traced {
            let pred = predict_traced(t, &p.runner, &pred_wf, &cells);
            let (costs, runs) = counterfactual_traced(t, &p.runner, &cf_wf);
            (pred, costs, Some(runs))
        } else {
            let pred = pred_wf.run_with(&p.runner, &cells).into();
            (pred, cf_wf.run_with(&p.runner), None)
        }
    });
    let mut night = Night::new(p);
    night.sims(&pred.runs);
    night.bands(&pred.cumulative, &pred.daily);
    match cf_runs {
        // The workflow returns the cost table, not the runs behind it:
        // only the traced night can check them. Both count their days.
        Some(runs) => night.check_only(&runs),
        None => {
            let days = cf_wf.design.expand(&cf_wf.base).len() as u64
                * u64::from(cf_wf.replicates * cf_wf.base.days);
            night.person_days += p.persons() as u64 * days;
        }
    }
    night.costs(&costs);
    (night, secs)
}

// ---- shared compositions -------------------------------------------------

/// `EnsembleRunner::run_design` in a span carrying the jobs' work.
fn run_design(
    t: &mut Tracer,
    runner: &EnsembleRunner,
    design: &StudyDesign,
    seed: u64,
) -> Vec<CellRunSummary> {
    let runs = t.span("core.runner", "core.runner.run_design", |_| runner.run_design(design, seed));
    if t.enabled() {
        let persons = runner.context().net.n_nodes as f64;
        t.count("jobs", runs.len() as f64);
        t.count("person_days", runs.iter().map(|r| persons * r.output.n_ticks() as f64).sum());
        t.count("transitions", runs.iter().map(|r| transitions(&r.output, 0..usize::MAX)).sum());
        t.time("tick_loop_s", runs.iter().map(|r| r.elapsed_secs).sum());
        t.jobs(runs.iter().map(|r| r.elapsed_secs));
    }
    runs
}

/// The prediction, as `PredictionWorkflow::run_with` composes it.
fn predict_traced(
    t: &mut Tracer,
    runner: &EnsembleRunner,
    wf: &PredictionWorkflow,
    configs: &[CellConfig],
) -> Predicted {
    t.span("core.workflow", "core.workflow.predict", |t| {
        let cells: Vec<CellConfig> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| CellConfig { cell: i as u32, days: wf.horizon_days, ..c.clone() })
            .collect();
        let design = StudyDesign { cells, replicates: wf.replicates };
        let runs = run_design(t, runner, &design, wf.seed);
        let cumulative: Vec<Vec<f64>> = runs
            .iter()
            .map(|r| r.log_cum_symptomatic.iter().map(|l| l.exp() - 1.0).collect())
            .collect();
        let daily: Vec<Vec<f64>> = runs.iter().map(|r| r.daily_cases.clone()).collect();
        let cumulative = t.span("analytics", "analytics.ensemble_band", |_| {
            ensemble_band(&cumulative, 0.025, 0.975)
        });
        let daily =
            t.span("analytics", "analytics.ensemble_band", |_| ensemble_band(&daily, 0.025, 0.975));
        Predicted { runs, cumulative, daily }
    })
}

/// Time a night's program calls. Traced, they run inside a
/// `bench.night` span that also records the process CPU time they
/// used; the night's checks run after the clock stops.
fn timed<R>(t: &mut Tracer, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
    let cpu0 = if t.enabled() { host::cpu_secs() } else { None };
    let t0 = Instant::now();
    let out = t.span("bench", "bench.night", f);
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(a), Some(b)) = (cpu0, host::cpu_secs()) {
        t.time("cpu_s", b - a);
    }
    (out, secs)
}

fn transitions(output: &SimOutput, ticks: std::ops::Range<usize>) -> f64 {
    let end = ticks.end.min(output.new_counts.len());
    output.new_counts[ticks.start.min(end)..end]
        .iter()
        .map(|row| row.iter().map(|&c| c as f64).sum::<f64>())
        .sum()
}

// ---- lone_wave -----------------------------------------------------------

const LONE_TICKS: u32 = 120;
const SNAPSHOT_EVERY: u32 = 32;

fn lone_model() -> DiseaseModel {
    let mut model = covid19_model();
    model.transmissibility = 0.3;
    model
}

fn lone_config(p: &Prepared, ticks: u32) -> SimConfig {
    let ctx = p.runner.context();
    SimConfig {
        ticks,
        seed: sub_seed(p.seed, 7),
        n_partitions: ctx.n_partitions,
        epsilon: ctx.epsilon,
        initial_infections: 200,
        record_transitions: false,
        ..SimConfig::default()
    }
}

/// Counters of one stretch of engine ticks, from its `EngineStats`.
fn count_ticks(
    t: &mut Tracer,
    stats: &EngineStats,
    output: &SimOutput,
    ticks: std::ops::Range<usize>,
    n: f64,
) {
    let r = ticks.start.min(stats.frontier_nodes.len())..ticks.end.min(stats.frontier_nodes.len());
    let frontier = &stats.frontier_nodes[r.clone()];
    t.count("ticks", r.len() as f64);
    t.count("person_days", n * r.len() as f64);
    t.count("transitions", transitions(output, r.clone()));
    t.count("edges_scanned", stats.edges_scanned[r.clone()].iter().sum::<u64>() as f64);
    let due: u64 = stats.due_nodes[r].iter().map(|&d| d as u64).sum();
    let front: u64 = frontier.iter().map(|&f| f as u64).sum();
    t.count("node_visits", (front + due) as f64);
    t.count("frontier_sum", front as f64);
    t.count("frontier_max", frontier.iter().copied().max().unwrap_or(0) as f64);
    t.count(
        "saturated_ticks",
        frontier.iter().filter(|&&f| f as f64 > SATURATION * n).count() as f64,
    );
}

/// One unmitigated run, snapshotted every `SNAPSHOT_EVERY` ticks; then
/// the job is preempted after the last write and restarts from the
/// chain. Both night forms make the same calls; traced adds spans.
fn lone_wave(p: &Prepared, t: &mut Tracer) -> (Night, f64) {
    let ctx = p.runner.context().clone();
    let n = ctx.net.n_nodes as f64;
    let ((full, resumed), secs) = timed(t, |t| {
        let mut sim = t.span("epihiper", "epihiper.new_with_context", |_| {
            Simulation::new_with_context(
                ctx.clone(),
                lone_model(),
                InterventionSet::default(),
                lone_config(p, 0),
            )
        });
        let mut chain = SnapshotChain::new();
        let mut from = 0;
        let mut job_s = 0.0;
        let mut full = None;
        while from < LONE_TICKS {
            let to = (from + SNAPSHOT_EVERY).min(LONE_TICKS);
            sim.config.ticks = to;
            let r = t.span("epihiper", "epihiper.run", |_| sim.run());
            job_s += r.elapsed.as_secs_f64();
            if t.enabled() {
                count_ticks(t, &r.stats, &r.output, from as usize..to as usize, n);
                t.time("tick_loop_s", r.elapsed.as_secs_f64());
                if to == LONE_TICKS {
                    // The segments together are the one job.
                    t.jobs([job_s]);
                }
            }
            if to < LONE_TICKS {
                t.span("epihiper.checkpoint", "epihiper.checkpoint.write", |_| {
                    chain.write(&sim.snapshot())
                });
                if let Some(SnapshotEvent::Wrote { bytes, .. }) = chain.events.last() {
                    t.count("bytes", *bytes as f64);
                }
            }
            full = Some(r);
            from = to;
        }
        let snap = t.span("epihiper.checkpoint", "epihiper.checkpoint.load", |_| chain.load());
        let resumed = snap.and_then(|snap| {
            let mut sim = t.span("epihiper.checkpoint", "epihiper.checkpoint.resume", |_| {
                Simulation::resume_with_context(
                    ctx.clone(),
                    lone_model(),
                    InterventionSet::default(),
                    lone_config(p, LONE_TICKS),
                    &snap,
                )
            })?;
            let r = t.span("epihiper", "epihiper.resume_run", |_| sim.run());
            if t.enabled() {
                count_ticks(
                    t,
                    &r.stats,
                    &r.output,
                    snap.meta.next_tick as usize..LONE_TICKS as usize,
                    n,
                );
                t.time("tick_loop_s", r.elapsed.as_secs_f64());
            }
            Ok((r, snap.meta.next_tick))
        });
        (full.expect("LONE_TICKS > 0"), resumed)
    });
    let mut night = Night::new(p);
    night.sim(&full.output);
    night.digest.engine_stats(&full.stats);
    let same = match resumed {
        Ok((r, next)) => {
            night.person_days += (n as u64) * u64::from(LONE_TICKS - next);
            night.sims.push(check_sim(&r.output, p.persons()));
            r.output == full.output && r.stats == full.stats
        }
        Err(_) => false,
    };
    night.check("resumed run equals the uninterrupted run", same);
    (night, secs)
}

// ---- the night's result --------------------------------------------------

/// Run one night of `p`'s workload: traced (composed from layer calls,
/// spans recorded in `t`) or untraced (workflow entry points). Returns
/// the checked night and the seconds its program calls took.
pub fn night(p: &Prepared, traced: bool, t: &mut Tracer) -> (Night, f64) {
    match p.workload {
        Workload::CalibNight => calib_night(p, traced, t),
        Workload::ForecastNight => forecast_night(p, traced, t),
        Workload::LoneWave => lone_wave(p, t),
    }
}

/// FNV-1a over a canonical stream of 64-bit words of a night's outputs,
/// each word scrambled first (the splitmix64 finalizer) so every input
/// bit reaches every digest bit. Word-wise keeps hashing the county
/// series of 120 runs well under a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = (self.0 ^ z ^ (z >> 31)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    fn u32_rows<'a>(&mut self, rows: impl IntoIterator<Item = &'a Vec<u32>>) {
        for row in rows {
            self.u64(row.len() as u64);
            for &x in row {
                self.u64(x as u64);
            }
        }
    }

    fn output(&mut self, o: &SimOutput) {
        self.u64(o.new_counts.len() as u64);
        self.u32_rows(&o.new_counts);
        self.u32_rows(&o.current_counts);
        for tick in &o.county_new {
            self.u32_rows(tick);
        }
        for &m in &o.memory_bytes {
            self.u64(m);
        }
        self.u64(u64::from(o.requested_seeds) << 32 | u64::from(o.seeded));
    }

    fn engine_stats(&mut self, s: &EngineStats) {
        for series in [&s.frontier_nodes, &s.due_nodes, &s.events] {
            self.u32_rows([series]);
        }
        for &e in &s.edges_scanned {
            self.u64(e);
        }
    }

    fn band(&mut self, b: &EnsembleBand) {
        for series in [&b.median, &b.lo, &b.hi, &b.mean] {
            self.f64s(series);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One night's deliverable digest, work done, and correctness checks.
pub struct Night {
    persons: usize,
    pub digest: Digest,
    /// Pass/fail of every simulation run's checks, in run order.
    pub sims: Vec<bool>,
    /// Deliverable checks: what was checked and whether it held.
    pub checks: Vec<(&'static str, bool)>,
    /// Σ persons × days simulated.
    pub person_days: u64,
    /// |posterior mean τ − hidden τ| (`calib_night` only).
    tau_abs_err: f64,
}

/// A run places every seed it asked for, and its state occupancy sums
/// to the population on every tick.
fn check_sim(o: &SimOutput, persons: usize) -> bool {
    o.seed_shortfall() == 0
        && !o.current_counts.is_empty()
        && o.current_counts
            .iter()
            .all(|row| row.iter().map(|&c| c as usize).sum::<usize>() == persons)
}

impl Night {
    fn new(p: &Prepared) -> Self {
        Night {
            persons: p.persons(),
            digest: Digest::new(),
            sims: Vec::new(),
            checks: Vec::new(),
            person_days: 0,
            tau_abs_err: 0.0,
        }
    }

    fn check(&mut self, what: &'static str, ok: bool) {
        self.checks.push((what, ok));
    }

    fn sim(&mut self, o: &SimOutput) {
        self.digest.output(o);
        self.person_days += (self.persons * o.n_ticks()) as u64;
        self.sims.push(check_sim(o, self.persons));
    }

    /// Check runs whose outputs the untraced workflow does not return,
    /// so they stay out of the digest.
    fn check_only(&mut self, runs: &[CellRunSummary]) {
        for r in runs {
            self.person_days += (self.persons * r.output.n_ticks()) as u64;
            self.sims.push(check_sim(&r.output, self.persons));
        }
    }

    fn sims(&mut self, runs: &[CellRunSummary]) {
        for r in runs {
            self.digest.u64(u64::from(r.cell) << 32 | u64::from(r.replicate));
            self.digest.f64s(&r.log_cum_symptomatic);
            self.sim(&r.output);
        }
    }

    fn posterior(&mut self, posterior: &Posterior, configs: &[CellConfig], true_tau: f64) {
        for s in &posterior.theta.samples {
            self.digest.f64s(s);
        }
        self.digest.f64s(&[
            posterior.theta.acceptance,
            posterior.lambda_eps,
            posterior.lambda_delta,
        ]);
        let space = CellConfig::calibration_space();
        for c in configs {
            self.digest.f64s(&c.theta());
        }
        self.check(
            "posterior configurations lie in the prior box",
            !configs.is_empty() && configs.iter().all(|c| space.contains(&c.theta())),
        );
        self.tau_abs_err = (posterior.theta.mean()[0] - true_tau).abs();
        self.check("posterior mean tau within 0.08 of the hidden tau", self.tau_abs_err < 0.08);
    }

    fn bands(&mut self, cumulative: &EnsembleBand, daily: &EnsembleBand) {
        self.digest.band(cumulative);
        self.digest.band(daily);
        let ordered = |b: &EnsembleBand| {
            !b.median.is_empty()
                && (0..b.median.len()).all(|i| b.lo[i] <= b.median[i] && b.median[i] <= b.hi[i])
        };
        self.check(
            "forecast bands are ordered lo <= median <= hi",
            ordered(cumulative) && ordered(daily),
        );
    }

    fn costs(&mut self, rows: &[ScenarioCost]) {
        for row in rows {
            let c = &row.mean_cost;
            self.digest.u64(u64::from(row.cell.cell));
            self.digest.f64s(&[
                c.outpatient_cost,
                c.hospital_cost,
                c.ventilation_cost,
                row.mean_infections,
            ]);
            for n in [c.n_attended, c.n_hospitalized, c.n_ventilated, c.hospital_bed_days] {
                self.digest.u64(n);
            }
        }
        self.check(
            "cost table has one finite row per factorial cell",
            rows.len() == FactorialDesign::paper_economic().expand(&forecast_base()).len()
                && rows
                    .iter()
                    .all(|r| r.mean_cost.total().is_finite() && r.mean_cost.total() >= 0.0),
        );
    }

    /// Operations attempted (simulation runs + deliverable checks) and
    /// how many failed.
    pub fn ops(&self) -> (u64, u64) {
        let failed = self.sims.iter().filter(|ok| !**ok).count()
            + self.checks.iter().filter(|c| !c.1).count();
        ((self.sims.len() + self.checks.len()) as u64, failed as u64)
    }
}
