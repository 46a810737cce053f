//! Criterion: the calibration stack — GP fit, emulator prediction, the
//! MCMC loop, and the Cholesky kernel under all of them (the compute
//! profile behind the Fig. 4 workflow's home-cluster stage).
//!
//! Besides the 2-d toy, `gp_fit` and `gpmsa` run the nightly calibration
//! shape: a 4-d design of n = 100 points, T = 70 outputs, pη = 5, and a
//! 3000/800-iteration, 2-sweep MCMC. `cholesky` factors and solves at
//! n = 70 (the GPMSA Σ) and n = 100 (a GP covariance on that design).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epiflow_calibrate::{
    Emulator, GpModel, GpmsaCalibration, GpmsaConfig, MetropolisConfig, ParamSpace,
};
use epiflow_linalg::{cholesky, Mat};

fn toy_sim(theta: &[f64], t_len: usize) -> Vec<f64> {
    (0..t_len).map(|t| theta[1] / (1.0 + (-theta[0] * (t as f64 - 25.0)).exp())).collect()
}

fn space() -> ParamSpace {
    ParamSpace::new(&[("rate", 0.05, 0.4), ("plateau", 4.0, 16.0)])
}

/// The nightly calibration shape: four parameters, outputs over 70 days.
const NIGHT_T: usize = 70;

fn night_space() -> ParamSpace {
    ParamSpace::new(&[
        ("rate", 0.05, 0.4),
        ("plateau", 4.0, 16.0),
        ("onset", 15.0, 35.0),
        ("damp", 0.0, 0.5),
    ])
}

fn night_sim(theta: &[f64]) -> Vec<f64> {
    (0..NIGHT_T)
        .map(|t| {
            let t = t as f64;
            let damp = 1.0 - theta[3] * t / NIGHT_T as f64;
            theta[1] / (1.0 + (-theta[0] * (t - theta[2])).exp()) * damp
        })
        .collect()
}

/// The 100-point night design, its outputs, and the emulator fitted on
/// them.
fn night_emulator() -> (Emulator, Vec<f64>) {
    let sp = night_space();
    let designs = sp.sample_lhs(100, 31);
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| night_sim(d)).collect();
    let em = Emulator::fit(sp, &designs, &outputs, 5, 0xE40);
    (em, night_sim(&[0.21, 9.0, 24.0, 0.2]))
}

fn gp_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("gp_fit");
    group.sample_size(10);
    for n in [25usize, 100] {
        let sp = space();
        let x: Vec<Vec<f64>> = sp.sample_lhs(n, 1).iter().map(|p| sp.to_unit(p)).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin() + p[1]).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| GpModel::fit(&x, &y, 7));
        });
    }
    let sp = night_space();
    let designs = sp.sample_lhs(100, 31);
    let x: Vec<Vec<f64>> = designs.iter().map(|p| sp.to_unit(p)).collect();
    let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin() + p[1] - p[2] * p[3]).collect();
    group.bench_function("night_4d_100", |b| {
        b.iter(|| GpModel::fit(&x, &y, 7));
    });
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| night_sim(d)).collect();
    group.bench_function("night_emulator_p5", |b| {
        b.iter(|| Emulator::fit(sp.clone(), &designs, &outputs, 5, 0xE40));
    });
    group.finish();
}

/// `A = R + 10⁻³·I` for the squared-exponential correlation `R` of `n`
/// points in the unit square: SPD and as smooth as a GP covariance.
fn cov_matrix(n: usize) -> Mat {
    let pts: Vec<[f64; 2]> =
        (0..n).map(|i| [(i as f64 * 0.618_034).fract(), (i as f64 * 0.414_214).fract()]).collect();
    let mut a = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let d2 = (pts[i][0] - pts[j][0]).powi(2) + (pts[i][1] - pts[j][1]).powi(2);
            a[(i, j)] = (-4.0 * d2).exp() + if i == j { 1e-3 } else { 0.0 };
        }
    }
    a
}

fn cholesky_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky");
    for n in [70usize, 100] {
        let a = cov_matrix(n);
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        group.bench_with_input(BenchmarkId::new("factor", n), &n, |b, _| {
            b.iter(|| cholesky(&a).unwrap());
        });
        let l = cholesky(&a).unwrap();
        group.bench_with_input(BenchmarkId::new("quad_form", n), &n, |b, _| {
            b.iter(|| l.quad_form(&rhs));
        });
        group.bench_with_input(BenchmarkId::new("solve", n), &n, |b, _| {
            b.iter(|| l.solve(&rhs));
        });
    }
    group.finish();
}

fn emulator_predict(c: &mut Criterion) {
    let sp = space();
    let designs = sp.sample_lhs(60, 2);
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| toy_sim(d, 70)).collect();
    let em = Emulator::fit(sp, &designs, &outputs, 5, 3);
    c.bench_function("emulator_predict_70d", |b| {
        b.iter(|| em.predict(&[0.2, 9.0]));
    });
}

fn gpmsa_mcmc(c: &mut Criterion) {
    let sp = space();
    let designs = sp.sample_lhs(50, 4);
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| toy_sim(d, 50)).collect();
    let em = Emulator::fit(sp, &designs, &outputs, 5, 5);
    let observed = toy_sim(&[0.22, 9.5], 50);
    let mut group = c.benchmark_group("gpmsa");
    group.sample_size(10);
    group.bench_function("mcmc_500_iters", |b| {
        b.iter(|| {
            let cal = GpmsaCalibration::new(
                &em,
                &observed,
                GpmsaConfig {
                    mcmc: MetropolisConfig {
                        iterations: 500,
                        burn_in: 100,
                        seed: 9,
                        ..Default::default()
                    },
                    gibbs_sweeps: 1,
                    ..Default::default()
                },
            );
            cal.run()
        });
    });
    let (em, observed) = night_emulator();
    group.bench_function("night_3000_iters_2_sweeps", |b| {
        b.iter(|| {
            let cal = GpmsaCalibration::new(
                &em,
                &observed,
                GpmsaConfig {
                    mcmc: MetropolisConfig {
                        iterations: 3000,
                        burn_in: 800,
                        seed: 23,
                        ..Default::default()
                    },
                    gibbs_sweeps: 2,
                    ..Default::default()
                },
            );
            cal.run()
        });
    });
    group.finish();
}

criterion_group!(benches, gp_fit, emulator_predict, gpmsa_mcmc, cholesky_kernel);
criterion_main!(benches);
