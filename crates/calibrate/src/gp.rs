//! Scalar-output Gaussian-process regression with the GPMSA correlation
//! function.
//!
//! Each basis coefficient `w_k(θ)` of the emulator gets a zero-mean GP
//! prior with the paper's covariance (Eq. 4):
//!
//! ```text
//! Cov(θ, θ′) = λ_w⁻¹ · ∏_k ρ_k^{4 (θ_k − θ′_k)²}  +  λ_n⁻¹ · 1{θ = θ′}
//! ```
//!
//! where λ_w is the marginal precision, ρ_k ∈ (0, 1) the per-dimension
//! correlation, and λ_n the nugget precision "so that interpolation is
//! not necessarily enforced". Hyperparameters are fitted by MAP under
//! the GPMSA prior families (gamma on precisions, beta on ρ) using a
//! seeded random search + coordinate polish — derivative-free, robust,
//! and cheap at design sizes ≤ a few hundred.

use epiflow_linalg::{cholesky_jitter, Cholesky, Mat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Hyperparameters of one GP.
#[derive(Clone, Debug, PartialEq)]
pub struct GpHyper {
    /// Per-dimension correlation ρ_k ∈ (0, 1).
    pub rho: Vec<f64>,
    /// Marginal precision λ_w.
    pub lambda_w: f64,
    /// Nugget precision λ_n.
    pub lambda_n: f64,
}

/// A fitted GP.
#[derive(Clone, Debug)]
pub struct GpModel {
    /// Design points in the unit cube, n × d.
    x: Mat,
    /// Centered/normalized responses.
    y: Vec<f64>,
    pub hyper: GpHyper,
    chol: Cholesky,
    /// K⁻¹ y, precomputed for prediction.
    alpha: Vec<f64>,
    y_mean: f64,
    y_scale: f64,
}

/// One dimension's GPMSA correlation factor: ρ^{4 (a − b)²}.
#[inline]
fn dim_correlation(a: f64, b: f64, rho: f64) -> f64 {
    let d = a - b;
    rho.powf(4.0 * d * d)
}

/// GPMSA correlation: ∏_k ρ_k^{4 (a_k − b_k)²}, multiplied in order of `k`.
fn correlation(a: &[f64], b: &[f64], rho: &[f64]) -> f64 {
    let mut c = 1.0;
    for ((x, y), r) in a.iter().zip(b).zip(rho) {
        c *= dim_correlation(*x, *y, *r);
    }
    c
}

#[cfg(test)]
fn build_cov(x: &Mat, h: &GpHyper) -> Mat {
    let n = x.nrows();
    let mut k = Mat::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let c = correlation(x.row(i), x.row(j), &h.rho) / h.lambda_w;
            k[(i, j)] = c;
            k[(j, i)] = c;
        }
        k[(i, i)] += 1.0 / h.lambda_n;
    }
    k
}

/// The [`correlation`] of every design pair `i ≤ j` (row-major over the
/// upper triangle) at one ρ, kept per dimension: `factors[k][p]` is pair
/// `p`'s factor in dimension `k` and `product[p]` their product in order
/// of `k`, starting from 1 as [`correlation`] does.
///
/// The MAP search moves one ρ_k, or only the precisions, at a time, so a
/// candidate shares every dimension whose ρ_k is bitwise unchanged with
/// the incumbent and recomputes only the rest; a precision-only move
/// shares the product too.
struct PairCorrelation {
    n: usize,
    rho: Vec<f64>,
    factors: Vec<Rc<[f64]>>,
    product: Rc<[f64]>,
}

impl PairCorrelation {
    /// The correlation of design `x` at `rho`, taking from `base` every
    /// dimension whose ρ_k it shares bitwise.
    fn new(x: &Mat, rho: &[f64], base: Option<&PairCorrelation>) -> PairCorrelation {
        let n = x.nrows();
        let factors: Vec<Rc<[f64]>> = rho
            .iter()
            .enumerate()
            .map(|(k, &r)| match base {
                Some(b) if b.rho[k].to_bits() == r.to_bits() => Rc::clone(&b.factors[k]),
                _ => {
                    let col = x.col(k);
                    let pairs = col
                        .iter()
                        .enumerate()
                        .flat_map(|(i, &a)| col[i..].iter().map(move |&b| (a, b)));
                    pairs.map(|(a, b)| dim_correlation(a, b, r)).collect()
                }
            })
            .collect();
        let product = match base {
            Some(b) if factors.iter().zip(&b.factors).all(|(f, g)| Rc::ptr_eq(f, g)) => {
                Rc::clone(&b.product)
            }
            _ => (0..n * (n + 1) / 2).map(|p| factors.iter().fold(1.0, |c, f| c * f[p])).collect(),
        };
        PairCorrelation { n, rho: rho.to_vec(), factors, product }
    }

    /// The covariance `K = R / λ_w + I / λ_n`, each entry formed as
    /// `build_cov` forms it from [`correlation`].
    fn cov(&self, lambda_w: f64, lambda_n: f64) -> Mat {
        let n = self.n;
        let mut k = Mat::zeros(n, n);
        let mut pairs = self.product.iter();
        for i in 0..n {
            for (j, &r) in (i..n).zip(pairs.by_ref()) {
                let c = r / lambda_w;
                k[(i, j)] = c;
                k[(j, i)] = c;
            }
            k[(i, i)] += 1.0 / lambda_n;
        }
        k
    }
}

/// Log posterior (up to constants) of `h`, whose ρ `corr` holds:
/// Gaussian marginal likelihood plus the GPMSA priors — λ_w ~ Γ(5, 5),
/// λ_n ~ Γ(3, 0.3), ρ_k ~ Beta(1, 0.1) (favoring ρ near 1, i.e. smooth
/// response surfaces).
fn log_posterior(corr: &PairCorrelation, y: &[f64], h: &GpHyper) -> f64 {
    let k = corr.cov(h.lambda_w, h.lambda_n);
    let Ok((chol, _)) = cholesky_jitter(&k, 1e-10, 8) else {
        return f64::NEG_INFINITY;
    };
    let loglik = -0.5 * (chol.log_det() + chol.quad_form(y));
    let lp_lw = 4.0 * h.lambda_w.ln() - 5.0 * h.lambda_w;
    let lp_ln = 2.0 * h.lambda_n.ln() - 0.3 * h.lambda_n;
    let lp_rho: f64 = h
        .rho
        .iter()
        .map(|r| {
            if *r <= 0.0 || *r >= 1.0 {
                f64::NEG_INFINITY
            } else {
                // Beta(1, 0.1): density ∝ (1-r)^{-0.9}.
                -0.9 * (1.0 - r).ln()
            }
        })
        .sum();
    loglik + lp_lw + lp_ln + lp_rho
}

impl GpModel {
    /// Fit on design points `x_unit` (each in the unit cube) and
    /// responses `y`. Responses are standardized internally.
    ///
    /// # Panics
    /// Panics on empty or mismatched input.
    pub fn fit(x_unit: &[Vec<f64>], y: &[f64], seed: u64) -> GpModel {
        assert!(!x_unit.is_empty(), "gp fit: empty design");
        assert_eq!(x_unit.len(), y.len(), "gp fit: x/y length mismatch");
        let d = x_unit[0].len();
        let x = Mat::from_rows(x_unit);

        // Standardize y (zero-mean GP assumption).
        let y_mean = epiflow_linalg::mean(y);
        let y_scale = epiflow_linalg::std_dev(y).max(1e-9);
        let ys: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_scale).collect();

        // MAP search: random restarts then coordinate polish. Each
        // candidate reuses the incumbent's correlation factors wherever
        // its ρ_k is unchanged.
        let score = |cand: &GpHyper, base: &PairCorrelation| {
            let corr = PairCorrelation::new(&x, &cand.rho, Some(base));
            (log_posterior(&corr, &ys, cand), corr)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best = GpHyper { rho: vec![0.5; d], lambda_w: 1.0, lambda_n: 1000.0 };
        let mut best_corr = PairCorrelation::new(&x, &best.rho, None);
        let mut best_lp = log_posterior(&best_corr, &ys, &best);
        for _ in 0..60 {
            let cand = GpHyper {
                rho: (0..d).map(|_| rng.random_range(0.05..0.999)).collect(),
                lambda_w: rng.random_range(0.2..5.0),
                lambda_n: 10f64.powf(rng.random_range(1.0..5.0)),
            };
            let (lp, corr) = score(&cand, &best_corr);
            if lp > best_lp {
                best_lp = lp;
                best = cand;
                best_corr = corr;
            }
        }
        // Coordinate polish: shrink step multiplicatively.
        let mut step = 0.5;
        for _ in 0..20 {
            let mut improved = false;
            for k in 0..d {
                for dir in [-1.0, 1.0] {
                    let mut cand = best.clone();
                    cand.rho[k] = (cand.rho[k] + dir * step * 0.5).clamp(0.01, 0.999);
                    let (lp, corr) = score(&cand, &best_corr);
                    if lp > best_lp {
                        best_lp = lp;
                        best = cand;
                        best_corr = corr;
                        improved = true;
                    }
                }
            }
            for (field, factor) in [
                (0usize, 1.0 + step),
                (0, 1.0 / (1.0 + step)),
                (1, 1.0 + step),
                (1, 1.0 / (1.0 + step)),
            ] {
                let mut cand = best.clone();
                if field == 0 {
                    cand.lambda_w = (cand.lambda_w * factor).clamp(1e-3, 1e4);
                } else {
                    cand.lambda_n = (cand.lambda_n * factor).clamp(1.0, 1e8);
                }
                let (lp, corr) = score(&cand, &best_corr);
                if lp > best_lp {
                    best_lp = lp;
                    best = cand;
                    best_corr = corr;
                    improved = true;
                }
            }
            if !improved {
                step *= 0.5;
                if step < 1e-3 {
                    break;
                }
            }
        }

        let k = best_corr.cov(best.lambda_w, best.lambda_n);
        let (chol, _) = cholesky_jitter(&k, 1e-10, 10).expect("covariance factorizes");
        let alpha = chol.solve(&ys);
        GpModel { x, y: ys, hyper: best, chol, alpha, y_mean, y_scale }
    }

    /// Number of design points.
    pub fn n_design(&self) -> usize {
        self.x.nrows()
    }

    /// Predictive mean and variance at a unit-cube point.
    pub fn predict(&self, x_star: &[f64]) -> (f64, f64) {
        assert_eq!(x_star.len(), self.x.ncols(), "predict: dimension mismatch");
        let n = self.x.nrows();
        let mut kstar = vec![0.0; n];
        for (i, ks) in kstar.iter_mut().enumerate() {
            *ks = correlation(self.x.row(i), x_star, &self.hyper.rho) / self.hyper.lambda_w;
        }
        let mean_std = epiflow_linalg::dot(&kstar, &self.alpha);
        // var = k(x*,x*) + nugget − k*ᵀ K⁻¹ k*.
        let v = self.chol.solve(&kstar);
        let prior_var = 1.0 / self.hyper.lambda_w + 1.0 / self.hyper.lambda_n;
        let var_std = (prior_var - epiflow_linalg::dot(&kstar, &v)).max(1e-12);
        (self.y_mean + self.y_scale * mean_std, self.y_scale * self.y_scale * var_std)
    }

    /// Standardized training residual RMS (in-sample fit quality;
    /// nonzero because of the nugget).
    pub fn training_rmse(&self) -> f64 {
        let n = self.x.nrows();
        let mut sq = 0.0;
        for i in 0..n {
            let (m, _) = self.predict(self.x.row(i));
            let truth = self.y_mean + self.y_scale * self.y[i];
            sq += (m - truth) * (m - truth);
        }
        (sq / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1d(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect()
    }

    #[test]
    fn correlation_properties() {
        let rho = vec![0.5, 0.8];
        assert_eq!(correlation(&[0.1, 0.2], &[0.1, 0.2], &rho), 1.0);
        let near = correlation(&[0.1, 0.2], &[0.15, 0.2], &rho);
        let far = correlation(&[0.1, 0.2], &[0.9, 0.2], &rho);
        assert!(near > far);
        assert!(far > 0.0);
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The cached-factor covariance equals `build_cov` bit for bit along
    /// a random walk of the moves the MAP search makes — fresh ρ, one
    /// ρ_k, precisions only — and a move reuses every factor it can.
    #[test]
    fn cached_factors_build_the_same_covariance() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 4;
        let rows: Vec<Vec<f64>> =
            (0..23).map(|_| (0..d).map(|_| rng.random_range(0.0..1.0)).collect()).collect();
        let x = Mat::from_rows(&rows);
        let mut h = GpHyper {
            rho: (0..d).map(|_| rng.random_range(0.05..0.999)).collect(),
            lambda_w: 1.7,
            lambda_n: 300.0,
        };
        let mut corr = PairCorrelation::new(&x, &h.rho, None);
        assert_eq!(bits(&corr.cov(h.lambda_w, h.lambda_n)), bits(&build_cov(&x, &h)));
        for step in 0..300 {
            let mut cand = h.clone();
            match step % 3 {
                0 => cand.rho = (0..d).map(|_| rng.random_range(0.01..0.999)).collect(),
                1 => cand.rho[rng.random_range(0..d)] = rng.random_range(0.01..0.999),
                _ => {
                    cand.lambda_w = rng.random_range(1e-3..1e4);
                    cand.lambda_n = rng.random_range(1.0..1e8);
                }
            }
            let next = PairCorrelation::new(&x, &cand.rho, Some(&corr));
            let cov = next.cov(cand.lambda_w, cand.lambda_n);
            assert_eq!(bits(&cov), bits(&build_cov(&x, &cand)), "step {step}");
            let shared = next.factors.iter().zip(&corr.factors).filter(|(a, b)| Rc::ptr_eq(a, b));
            match step % 3 {
                1 => assert_eq!(shared.count(), d - 1),
                2 => assert!(Rc::ptr_eq(&next.product, &corr.product)),
                _ => {}
            }
            if rng.random_range(0.0..1.0) < 0.5 {
                h = cand;
                corr = next;
            }
        }
    }

    #[test]
    fn interpolates_smooth_function() {
        let x = grid_1d(15);
        let y: Vec<f64> = x.iter().map(|p| (2.0 * std::f64::consts::PI * p[0]).sin()).collect();
        let gp = GpModel::fit(&x, &y, 1);
        // Predict off-grid.
        for &t in &[0.12, 0.37, 0.61, 0.88] {
            let (m, _) = gp.predict(&[t]);
            let truth = (2.0 * std::f64::consts::PI * t).sin();
            assert!((m - truth).abs() < 0.12, "at {t}: {m} vs {truth}");
        }
    }

    #[test]
    fn variance_grows_away_from_data() {
        let x = grid_1d(8); // covers [0,1]
        let y: Vec<f64> = x.iter().map(|p| p[0] * 2.0).collect();
        let gp = GpModel::fit(&x, &y, 2);
        let (_, v_near) = gp.predict(&[0.5]);
        // A 2-d trick isn't available; extrapolate outside the cube.
        let (_, v_far) = gp.predict(&[3.0]);
        assert!(v_far > v_near, "far var {v_far} <= near var {v_near}");
    }

    #[test]
    fn predicts_training_points_closely() {
        let x = grid_1d(10);
        let y: Vec<f64> = x.iter().map(|p| 3.0 * p[0] * p[0] - 1.0).collect();
        let gp = GpModel::fit(&x, &y, 3);
        assert!(gp.training_rmse() < 0.1, "rmse {}", gp.training_rmse());
    }

    #[test]
    fn handles_constant_response() {
        let x = grid_1d(6);
        let y = vec![5.0; 6];
        let gp = GpModel::fit(&x, &y, 4);
        let (m, _) = gp.predict(&[0.3]);
        assert!((m - 5.0).abs() < 1e-6);
    }

    #[test]
    fn two_dimensional_anisotropy() {
        // Response depends only on dim 0; after fitting, predictions
        // should vary much more along dim 0 than dim 1.
        let mut x = Vec::new();
        for i in 0..7 {
            for j in 0..7 {
                x.push(vec![i as f64 / 6.0, j as f64 / 6.0]);
            }
        }
        let y: Vec<f64> = x.iter().map(|p| (3.0 * p[0]).exp() / 10.0).collect();
        let gp = GpModel::fit(&x, &y, 5);
        let (m00, _) = gp.predict(&[0.2, 0.5]);
        let (m10, _) = gp.predict(&[0.8, 0.5]);
        let (m01, _) = gp.predict(&[0.2, 0.9]);
        assert!((m10 - m00).abs() > 5.0 * (m01 - m00).abs());
    }

    #[test]
    fn deterministic_fit_per_seed() {
        let x = grid_1d(8);
        let y: Vec<f64> = x.iter().map(|p| p[0].cos()).collect();
        let a = GpModel::fit(&x, &y, 9);
        let b = GpModel::fit(&x, &y, 9);
        assert_eq!(a.hyper, b.hyper);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_mismatched_input() {
        GpModel::fit(&[vec![0.0], vec![1.0]], &[1.0], 0);
    }
}
