//! nightbench — one nightly workflow night, timed end to end, with a
//! per-layer span trace.
//!
//! ```text
//! nightbench --workload <calib_night|forecast_night|lone_wave> [--seed N]
//!            [--seconds S] [--trace 0|1] [--trace-out PATH]
//! nightbench selftime <trace.jsonl>
//! nightbench compare <a.jsonl> <b.jsonl>
//! ```
//!
//! With `--trace 0` it builds the night's inputs several times (set-up),
//! runs one warm-up night, then runs untraced nights back to back for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced nights with nights composed from the layer
//! calls under spans, writes the spans as JSONL and reports the
//! per-layer metrics derived from them. Every night is checked; the
//! last line of standard output is the result object, the line before
//! it the run metadata. METRICS.md says what each metric should move.

mod host;
mod nights;
mod stats;
mod trace;

use nights::{Night, Workload};
use serde::{Number, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Span, Tracer};

/// Set-ups per untraced run: at least `MIN_SETUPS`, then more until
/// they add up to `SETUP_SECONDS` (at most `MAX_SETUPS`); `setup_s` is
/// their median, so a cheap set-up is sampled as often as it needs.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 3.0;
/// Timed nights per untraced run, even when `--seconds` runs out first.
const MIN_NIGHTS: usize = 3;

const USAGE: &str = "usage: nightbench --workload <calib_night|forecast_night|lone_wave> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
       nightbench selftime <trace.jsonl>
       nightbench compare <a.jsonl> <b.jsonl>";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::CalibNight,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    opts.workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("selftime") => tool(&args[1..], 1, |t| trace::selftime_report(&t[0])),
        Some("compare") => tool(&args[1..], 2, |t| trace::compare_report(&t[0], &t[1])),
        _ => parse(&args).and_then(bench),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nightbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn tool(files: &[String], n: usize, report: impl Fn(&[Vec<Span>]) -> String) -> Result<(), String> {
    if files.len() != n {
        return Err(USAGE.to_string());
    }
    let traces = files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            trace::parse_jsonl(&text).map_err(|e| format!("{f}: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    print!("{}", report(&traces));
    Ok(())
}

// ---- the run ---------------------------------------------------------------

/// Operations attempted and failed across the run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ops {
    fn night(&mut self, night: &Night) {
        let (attempted, failed) = night.ops();
        self.attempted += attempted;
        self.failed += failed;
        if night.sims.iter().any(|ok| !ok) {
            self.note("a simulation run misplaced seeds or lost persons");
        }
        for (what, ok) in &night.checks {
            if !ok {
                self.note(what);
            }
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    fn note(&mut self, what: &str) {
        if !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }
}

fn f(v: f64) -> Value {
    Value::Num(Number::F(v))
}

fn u(v: u64) -> Value {
    Value::Num(Number::U(v))
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn entry(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

/// Median, quartiles and every sample of a timed figure.
fn spread(samples: &[f64]) -> Value {
    let (q1, q3) = stats::quartiles(samples);
    Value::Map(vec![
        entry("median", f(stats::median(samples))),
        entry("q1", f(q1)),
        entry("q3", f(q3)),
        entry("n", u(samples.len() as u64)),
        entry("samples", Value::Seq(samples.iter().copied().map(f).collect())),
    ])
}

fn bench(o: Opts) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut ops = Ops::default();
    let mut meta = vec![
        entry("workload", s(o.workload.name())),
        entry("seed", u(o.seed)),
        entry("seconds", f(o.seconds)),
        entry("trace", Value::Bool(o.trace)),
        entry("available_parallelism", u(host::workers() as u64)),
        entry("commit", s(&host::commit())),
        entry("rustc", s(env!("NIGHTBENCH_RUSTC"))),
        entry("region", s(nights::REGION)),
        entry("scale", s(&format!("1/{}", o.workload.scale_denominator()))),
        entry("closed_loop", s("one night at a time")),
    ];

    let mut traced = Tracer::new(true);
    let (p, setups) = if o.trace {
        let p = traced.span("bench", "bench.setup", |t| nights::setup(o.workload, o.seed, t));
        (p, Vec::new())
    } else {
        let mut setups = Vec::new();
        let mut prepared = None;
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
        {
            drop(prepared.take());
            let t0 = Instant::now();
            prepared = Some(nights::setup(o.workload, o.seed, &mut off));
            setups.push(t0.elapsed().as_secs_f64());
        }
        (prepared.expect("MIN_SETUPS > 0"), setups)
    };
    meta.push(entry("persons", u(p.persons() as u64)));
    meta.push(entry("edges", u(p.data.network.n_edges() as u64)));

    // The warm-up night is the reference every later night must repeat.
    let (warm, _) = nights::night(&p, false, &mut off);
    let peak_mb = host::peak_rss_mb()?;
    ops.night(&warm);
    meta.push(entry("digest", s(&warm.digest.hex())));
    meta.push(entry("person_days_per_night", u(warm.person_days)));

    let mut untraced = Vec::new();
    let start = Instant::now();
    while (untraced.len() < MIN_NIGHTS && !o.trace)
        || untraced.is_empty()
        || start.elapsed().as_secs_f64() < o.seconds
    {
        let (night, secs) = nights::night(&p, false, &mut off);
        ops.night(&night);
        ops.check("every night repeats the warm-up night's outputs", night.digest == warm.digest);
        untraced.push(secs);
        if o.trace {
            let (night, _) = nights::night(&p, true, &mut traced);
            ops.night(&night);
            ops.check(
                "traced night's outputs equal the untraced workflow's",
                night.digest == warm.digest,
            );
        }
    }
    meta.push(entry("nights", u(untraced.len() as u64)));

    let night_s = stats::median(&untraced);
    let metrics: Vec<(&str, &str, f64)> = if o.trace {
        let path = o.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(".nightbench/{}-seed{}.jsonl", o.workload.name(), o.seed))
        });
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&path, trace::to_jsonl(traced.spans()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        meta.push(entry("trace_file", s(&path.display().to_string())));
        meta.push(entry("spans", u(traced.spans().len() as u64)));
        meta.push(entry("untraced_night_s", spread(&untraced)));
        let (metrics, tail_label) = layer_metrics(traced.spans(), night_s);
        meta.push(entry("job_ms_tail_percentile", s(tail_label)));
        metrics
    } else {
        meta.push(entry("night_s", spread(&untraced)));
        meta.push(entry("setup_s", spread(&setups)));
        meta.push(entry("peak_rss_mb_at_exit", f(host::peak_rss_mb()?)));
        vec![
            ("night_s", "s", night_s),
            ("setup_s", "s", stats::median(&setups)),
            ("person_days_per_s", "person-days/s", warm.person_days as f64 / night_s),
            ("peak_rss_mb", "MB", peak_mb),
        ]
    };
    emit(meta, &ops, &metrics)
}

/// Print the metadata line, then the result line.
fn emit(
    mut meta: Vec<(String, Value)>,
    ops: &Ops,
    metrics: &[(&str, &str, f64)],
) -> Result<(), String> {
    meta.push(entry("ops", u(ops.attempted)));
    meta.push(entry("ops_failed", u(ops.failed)));
    meta.push(entry("failures", Value::Seq(ops.failures.iter().map(|x| s(x)).collect())));
    let meta = Value::Map(vec![entry("nightbench", Value::Map(meta))]);
    println!("{}", serde_json::to_string(&meta).map_err(|e| e.to_string())?);
    // `+ 0.0` turns the -0.0 an empty float sum gives into 0.
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            entry(name, Value::Map(vec![entry("value", f(value + 0.0)), entry("unit", s(unit))]))
        })
        .collect();
    let result = Value::Map(vec![
        entry("correct", Value::Bool(ops.failed == 0)),
        entry("attempted", u(ops.attempted)),
        entry("failed", u(ops.failed)),
        entry("metrics", Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics, derived from the spans alone (plus the
/// untraced nights' median, for the tracing overhead). Set-up figures
/// come from the `bench.setup` root; night figures are medians over
/// the `bench.night` roots. A layer a workload never calls reads 0.
fn layer_metrics(
    spans: &[Span],
    untraced_night_s: f64,
) -> (Vec<(&'static str, &'static str, f64)>, &'static str) {
    let root = trace::roots(spans);
    let under = |r: &Span| spans.iter().filter(|s| root[s.id] == r.id).collect::<Vec<&Span>>();
    let roots = spans.iter().filter(|s| s.parent.is_none());
    let setup: Vec<&Span> =
        roots.clone().filter(|s| s.name == "bench.setup").flat_map(under).collect();
    let nights: Vec<&Span> = roots.filter(|s| s.name == "bench.night").collect();
    let workers = host::workers() as f64;

    fn by<'a>(set: &[&'a Span], name: &str) -> Vec<&'a Span> {
        set.iter().filter(|s| s.name == name).copied().collect()
    }
    fn dur(set: &[&Span], name: &str) -> f64 {
        by(set, name).iter().map(|s| s.dur()).sum()
    }
    fn ctr(set: &[&Span], name: &str, key: &str) -> f64 {
        by(set, name).iter().map(|s| s.counter(key)).sum()
    }
    let persons = ctr(&setup, "synthpop.build_region", "persons");

    let mut per_night: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    let mut tail_label = "max";
    for night in &nights {
        let set = under(night);
        let all = |key: &str| set.iter().map(|s| s.counter(key)).sum::<f64>();
        let jobs_ms: Vec<f64> = set.iter().flat_map(|s| s.job_s.iter().map(|x| x * 1e3)).collect();
        let (tail, label) = stats::tail(&jobs_ms);
        tail_label = label;
        let runs = by(&set, "epihiper.run");
        let run_loop: f64 = runs.iter().map(|s| s.timer("tick_loop_s")).sum();
        let node_visits = ctr(&set, "epihiper.run", "node_visits");
        let frontier_max = runs.iter().map(|s| s.counter("frontier_max")).fold(0.0, f64::max);
        let designs = by(&set, "core.runner.run_design");
        let design_s = dur(&set, "core.runner.run_design");
        let design_loop: f64 = designs.iter().map(|s| s.timer("tick_loop_s")).sum();
        let write_s = dur(&set, "epihiper.checkpoint.write");
        let bytes = ctr(&set, "epihiper.checkpoint.write", "bytes");
        let mcmc_s = dur(&set, "calibrate.gpmsa_run");
        let cpu_s = night.timer("cpu_s");
        per_night.push(vec![
            ("epihiper.tick_loop_s", "s", set.iter().map(|s| s.timer("tick_loop_s")).sum()),
            ("epihiper.job_ms_p50", "ms", stats::median(&jobs_ms)),
            ("epihiper.job_ms_tail", "ms", tail),
            ("epihiper.transitions", "count", all("transitions")),
            ("epihiper.person_days", "person-days", all("person_days")),
            ("epihiper.edges_scanned", "count", ctr(&set, "epihiper.run", "edges_scanned")),
            ("epihiper.node_visits", "count", node_visits),
            ("epihiper.node_visits_per_s", "1/s", ratio(node_visits, run_loop)),
            (
                "epihiper.frontier_occupancy_mean",
                "ratio",
                ratio(
                    ctr(&set, "epihiper.run", "frontier_sum"),
                    ctr(&set, "epihiper.run", "ticks") * persons,
                ),
            ),
            ("epihiper.frontier_occupancy_max", "ratio", ratio(frontier_max, persons)),
            ("epihiper.saturated_ticks", "count", ctr(&set, "epihiper.run", "saturated_ticks")),
            (
                "epihiper.checkpoint.writes",
                "count",
                by(&set, "epihiper.checkpoint.write").len() as f64,
            ),
            ("epihiper.checkpoint.write_s", "s", write_s),
            ("epihiper.checkpoint.bytes", "bytes", bytes),
            ("epihiper.checkpoint.write_mb_per_s", "MB/s", ratio(bytes / 1e6, write_s)),
            (
                "epihiper.checkpoint.restore_s",
                "s",
                dur(&set, "epihiper.checkpoint.load") + dur(&set, "epihiper.checkpoint.resume"),
            ),
            ("epihiper.checkpoint.resume_run_s", "s", dur(&set, "epihiper.resume_run")),
            ("core.runner.jobs", "count", ctr(&set, "core.runner.run_design", "jobs")),
            ("core.runner.design_s", "s", design_s),
            ("core.runner.busy_ratio", "ratio", ratio(design_loop, design_s * workers)),
            ("calibrate.emulator_fit_s", "s", dur(&set, "calibrate.emulator_fit")),
            ("calibrate.mcmc_s", "s", mcmc_s),
            (
                "calibrate.mcmc_iters_per_s",
                "1/s",
                ratio(ctr(&set, "calibrate.gpmsa_run", "mcmc_iterations"), mcmc_s),
            ),
            (
                "calibrate.mcmc_acceptance",
                "ratio",
                ctr(&set, "calibrate.gpmsa_run", "mcmc_acceptance"),
            ),
            (
                "calibrate.emulator_training_mae",
                "log-cases",
                night.counter("emulator_training_mae"),
            ),
            ("calibrate.tau_abs_err", "tau", night.counter("tau_abs_err")),
            ("analytics.bands_s", "s", dur(&set, "analytics.ensemble_band")),
            ("analytics.cost_eval_s", "s", dur(&set, "analytics.cost_evaluate")),
            ("process.cpu_s", "s", cpu_s),
            ("process.cpu_util", "ratio", ratio(cpu_s, night.dur() * workers)),
        ]);
    }

    let mut metrics = vec![
        ("synthpop.build_s", "s", dur(&setup, "synthpop.build_region")),
        ("synthpop.persons", "count", persons),
        ("synthpop.edges", "count", ctr(&setup, "synthpop.build_region", "edges")),
        ("epihiper.context_build_s", "s", dur(&setup, "epihiper.context_build")),
    ];
    for (i, &(name, unit, _)) in per_night.first().into_iter().flatten().enumerate() {
        let values: Vec<f64> = per_night.iter().map(|m| m[i].2).collect();
        metrics.push((name, unit, stats::median(&values)));
    }
    let traced_s: Vec<f64> = nights.iter().map(|n| n.dur()).collect();
    metrics.push((
        "trace.overhead_ratio",
        "ratio",
        ratio(stats::median(&traced_s), untraced_night_s),
    ));
    (metrics, tail_label)
}
