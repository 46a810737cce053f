//! Golden test of the GPMSA calibration on the nightly calibration
//! shape: a 4-d Latin-hypercube design of n = 100 points, T = 70 toy
//! outputs, pη = 5 basis GPs, 3000 Metropolis iterations with 800 burn-in
//! and 2 Gibbs sweeps.
//!
//! It pins the exact bits of every fitted `GpHyper`, of the posterior
//! precisions λ_ε and λ_δ, and an FNV-1a hash of the posterior samples and
//! their log-posteriors. The constants were recorded at commit c56ea01,
//! with the scalar kernels, before the interleaved Cholesky, the cached
//! GP correlation factors and the hoisted `D·Dᵀ` sums; the optimised
//! kernels must reproduce them bit for bit (in debug and release alike).

use epiflow_calibrate::{Emulator, GpmsaCalibration, GpmsaConfig, MetropolisConfig, ParamSpace};

const T_LEN: usize = 70;

/// Per GP: the bits of ρ₀..ρ₃, λ_w and λ_n.
const GP_HYPERS: [([u64; 4], u64, u64); 5] = [
    (
        [0x3feed1607a8ec0ef, 0x3fede73e81691b7a, 0x3fef7198a287c6b5, 0x3fef233501c6adef],
        0x3fcfb7f99f7c0c9b,
        0x405e0f8fde982736,
    ),
    (
        [0x3febeb81a0740a36, 0x3fed9013fb9d5882, 0x3feaf2b702266403, 0x3fef9fd300204313],
        0x3fd51e9df6c18afc,
        0x405cbe4d8f2af65c,
    ),
    (
        [0x3fec20778d05dab9, 0x3feebacb224a60aa, 0x3fe90674a0a35b85, 0x3feff7ced916872b],
        0x3f9cb870c6830cbb,
        0x4059981c92d67552,
    ),
    (
        [0x3fe65342347432d5, 0x3fed308b082d5982, 0x3fe06e4a35483270, 0x3fef22900680246f],
        0x3fcd06a50590bdae,
        0x405228df451a6726,
    ),
    (
        [0x3fe45694be3c1318, 0x3fed3556a372a984, 0x3fdd86a44463442f, 0x3fef9cfccd518a42],
        0x3fc4c1701acff179,
        0x4053829f2531ff8f,
    ),
];
const LAMBDA_EPS: u64 = 0x4062ff1d01c5c467;
const LAMBDA_DELTA: u64 = 0x3ffc880fa0eb5640;
/// FNV-1a of the 1100 kept θ samples (real coordinates, row by row)
/// followed by their log-posteriors.
const SAMPLES_FNV: u64 = 0x1c06fff2c2d29c90;

/// A logged-cumulative-curve-shaped toy simulator in four parameters:
/// growth rate, plateau, onset day and a late-time damping.
fn toy_sim(theta: &[f64]) -> Vec<f64> {
    let (rate, plateau, onset, damp) = (theta[0], theta[1], theta[2], theta[3]);
    (0..T_LEN)
        .map(|t| {
            let t = t as f64;
            plateau / (1.0 + (-rate * (t - onset)).exp()) * (1.0 - damp * t / T_LEN as f64)
        })
        .collect()
}

fn space() -> ParamSpace {
    ParamSpace::new(&[
        ("rate", 0.05, 0.4),
        ("plateau", 4.0, 16.0),
        ("onset", 15.0, 35.0),
        ("damp", 0.0, 0.5),
    ])
}

/// FNV-1a over the little-endian bytes of each value.
fn fnv1a(values: impl Iterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn calib_night_shape_is_bit_stable() {
    let designs = space().sample_lhs(100, 31);
    let outputs: Vec<Vec<f64>> = designs.iter().map(|d| toy_sim(d)).collect();
    let em = Emulator::fit(space(), &designs, &outputs, 5, 0xE40);
    let observed = toy_sim(&[0.21, 9.0, 24.0, 0.2]);
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
    let post = cal.run();

    let hypers: Vec<([u64; 4], u64, u64)> = em
        .gps
        .iter()
        .map(|gp| {
            let h = &gp.hyper;
            let rho = [0, 1, 2, 3].map(|k| h.rho[k].to_bits());
            (rho, h.lambda_w.to_bits(), h.lambda_n.to_bits())
        })
        .collect();
    assert_eq!(hypers, GP_HYPERS, "GP hyperparameters (ρ bits, λ_w bits, λ_n bits)");
    assert_eq!(post.lambda_eps.to_bits(), LAMBDA_EPS, "λ_ε");
    assert_eq!(post.lambda_delta.to_bits(), LAMBDA_DELTA, "λ_δ");
    assert_eq!(post.theta.samples.len(), 1100);
    let hash = fnv1a(
        post.theta.samples.iter().flatten().copied().chain(post.theta.log_posts.iter().copied()),
    );
    assert_eq!(hash, SAMPLES_FNV, "posterior samples and log-posteriors");
}
