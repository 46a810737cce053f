//! Cholesky factorization and triangular solves.
//!
//! The GP emulator forms covariance matrices `K = R + nugget·I` that are
//! symmetric positive definite in exact arithmetic but can be numerically
//! borderline when design points nearly coincide; [`cholesky_jitter`]
//! retries with growing diagonal jitter, which is the standard GP-library
//! treatment (GPML, GPy, and GPMSA all do this).

use crate::mat::Mat;

#[cfg(test)]
mod testkit;

/// A lower-triangular Cholesky factor `L` with `L·Lᵀ = A`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Mat,
}

/// Errors from the factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CholeskyError {
    /// The matrix is not square.
    NotSquare,
    /// A non-positive pivot was encountered (matrix not positive definite).
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholeskyError::NotSquare => write!(f, "cholesky: matrix not square"),
            CholeskyError::NotPositiveDefinite { pivot } => {
                write!(f, "cholesky: non-positive pivot at index {pivot}")
            }
        }
    }
}

impl std::error::Error for CholeskyError {}

/// Factor a symmetric positive-definite matrix `A = L·Lᵀ`.
///
/// Only the lower triangle of `a` is read, so callers may pass matrices
/// whose upper triangle is stale.
///
/// Every entry is `L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]`
/// (square root instead of division on the diagonal), summed in ascending
/// `k`. Rows are taken four at a time: for each finished column `j` left
/// of the block, the four rows' sums are independent chains and run side
/// by side, each still in ascending `k`, so no entry's operation order
/// changes. The block's own 4×4 lower triangle and the last `n mod 4` rows
/// use the plain one-entry-at-a-time loop. Pivots are checked in row
/// order, so the first non-positive one is reported as before.
pub fn cholesky(a: &Mat) -> Result<Cholesky, CholeskyError> {
    if a.nrows() != a.ncols() {
        return Err(CholeskyError::NotSquare);
    }
    let n = a.nrows();
    let mut l = Mat::zeros(n, n);
    let ld = l.as_mut_slice();
    let mut i = 0;
    while i + 4 <= n {
        let (done, block) = ld.split_at_mut(i * n);
        let (r0, block) = block.split_at_mut(n);
        let (r1, block) = block.split_at_mut(n);
        let (r2, r3) = block.split_at_mut(n);
        let (a0, a1, a2, a3) = (a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3));
        for j in 0..i {
            let lj = &done[j * n..j * n + j + 1];
            let (mut s0, mut s1, mut s2, mut s3) = (a0[j], a1[j], a2[j], a3[j]);
            for ((((&ljk, &x0), &x1), &x2), &x3) in
                lj[..j].iter().zip(&r0[..j]).zip(&r1[..j]).zip(&r2[..j]).zip(&r3[..j])
            {
                s0 -= x0 * ljk;
                s1 -= x1 * ljk;
                s2 -= x2 * ljk;
                s3 -= x3 * ljk;
            }
            let d = lj[j];
            r0[j] = s0 / d;
            r1[j] = s1 / d;
            r2[j] = s2 / d;
            r3[j] = s3 / d;
        }
        for r in i..i + 4 {
            factor_row(a, ld, r, i)?;
        }
        i += 4;
    }
    for r in i..n {
        factor_row(a, ld, r, 0)?;
    }
    Ok(Cholesky { l })
}

/// Fill `L[i][from..=i]` of the row-major `n × n` factor `l`, one entry
/// at a time; rows above `i` must be finished, and so must `L[i][..from]`.
fn factor_row(a: &Mat, l: &mut [f64], i: usize, from: usize) -> Result<(), CholeskyError> {
    let n = a.nrows();
    let (done, rest) = l.split_at_mut(i * n);
    let li = &mut rest[..n];
    let ai = a.row(i);
    for j in from..i {
        let lj = &done[j * n..j * n + j + 1];
        let mut sum = ai[j];
        for (&x, &ljk) in li[..j].iter().zip(&lj[..j]) {
            sum -= x * ljk;
        }
        li[j] = sum / lj[j];
    }
    let mut sum = ai[i];
    for &x in &li[..i] {
        sum -= x * x;
    }
    if sum <= 0.0 {
        return Err(CholeskyError::NotPositiveDefinite { pivot: i });
    }
    li[i] = sum.sqrt();
    Ok(())
}

/// Factor with escalating diagonal jitter: tries `A`, then
/// `A + jitter·I` with `jitter = j0, 10·j0, …` up to `max_tries` times.
///
/// Returns the factor and the jitter actually used (0.0 if none needed).
pub fn cholesky_jitter(
    a: &Mat,
    j0: f64,
    max_tries: usize,
) -> Result<(Cholesky, f64), CholeskyError> {
    match cholesky(a) {
        Ok(c) => return Ok((c, 0.0)),
        Err(CholeskyError::NotSquare) => return Err(CholeskyError::NotSquare),
        Err(_) => {}
    }
    let n = a.nrows();
    let mut jitter = j0;
    let mut last = CholeskyError::NotPositiveDefinite { pivot: 0 };
    for _ in 0..max_tries {
        let mut aj = a.clone();
        for i in 0..n {
            aj[(i, i)] += jitter;
        }
        match cholesky(&aj) {
            Ok(c) => return Ok((c, jitter)),
            Err(e) => last = e,
        }
        jitter *= 10.0;
    }
    Err(last)
}

impl Cholesky {
    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Solve `L·y = b` (forward substitution).
    ///
    /// `y[i] = (b[i] − Σ_{k<i} L[i][k]·y[k]) / L[i][i]`, summed in
    /// ascending `k`. As in [`cholesky`], four rows' sums over the solved
    /// prefix run side by side and each is then finished on its own, so
    /// every sum keeps its order.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(b.len(), n, "solve_lower: length mismatch");
        let mut y = vec![0.0; n];
        let mut i = 0;
        while i + 4 <= n {
            let rows = [self.l.row(i), self.l.row(i + 1), self.l.row(i + 2), self.l.row(i + 3)];
            let [r0, r1, r2, r3] = rows;
            let mut s = [b[i], b[i + 1], b[i + 2], b[i + 3]];
            for ((((&yk, &x0), &x1), &x2), &x3) in
                y[..i].iter().zip(&r0[..i]).zip(&r1[..i]).zip(&r2[..i]).zip(&r3[..i])
            {
                s[0] -= x0 * yk;
                s[1] -= x1 * yk;
                s[2] -= x2 * yk;
                s[3] -= x3 * yk;
            }
            for (m, (row, mut sm)) in rows.into_iter().zip(s).enumerate() {
                let r = i + m;
                for (&x, &yk) in row[i..r].iter().zip(&y[i..r]) {
                    sm -= x * yk;
                }
                y[r] = sm / row[r];
            }
            i += 4;
        }
        for r in i..n {
            let row = self.l.row(r);
            let mut s = b[r];
            for (&x, &yk) in row[..r].iter().zip(&y[..r]) {
                s -= x * yk;
            }
            y[r] = s / row[r];
        }
        y
    }

    /// Solve `Lᵀ·x = y` (back substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(y.len(), n, "solve_upper: length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * xk;
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }

    /// Solve `A·x = b` where `A = L·Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Solve `A·X = B` column-by-column.
    pub fn solve_mat(&self, b: &Mat) -> Mat {
        let n = self.l.nrows();
        assert_eq!(b.nrows(), n, "solve_mat: row mismatch");
        let mut x = Mat::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let col = self.solve(&b.col(j));
            for i in 0..n {
                x[(i, j)] = col[i];
            }
        }
        x
    }

    /// `log det A = 2 Σ log L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.nrows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `bᵀ A⁻¹ b`, computed stably as `‖L⁻¹b‖²`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let y = self.solve_lower(b);
        crate::dot(&y, &y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Mat {
        // A = Bᵀ·B + I for a fixed B, guaranteed SPD.
        Mat::from_rows(&[vec![4.0, 2.0, 0.6], vec![2.0, 5.0, 1.0], vec![0.6, 1.0, 3.0]])
    }

    #[test]
    fn reconstructs_a() {
        let a = spd3();
        let c = cholesky(&a).unwrap();
        let rec = c.l().matmul(&c.l().transpose());
        assert!((&rec - &a).max_abs() < 1e-10);
    }

    #[test]
    fn factor_is_lower_triangular() {
        let c = cholesky(&spd3()).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(c.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = cholesky(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let back = a.matvec(&x);
        for (bi, backi) in b.iter().zip(&back) {
            assert!((bi - backi).abs() < 1e-10);
        }
    }

    #[test]
    fn log_det_known() {
        // det(diag(2,3,4)) = 24.
        let a = Mat::diag(&[2.0, 3.0, 4.0]);
        let c = cholesky(&a).unwrap();
        assert!((c.log_det() - 24.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn quad_form_identity() {
        let a = Mat::identity(3);
        let c = cholesky(&a).unwrap();
        assert!((c.quad_form(&[1.0, 2.0, 2.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(CholeskyError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(cholesky(&Mat::zeros(2, 3)).unwrap_err(), CholeskyError::NotSquare);
    }

    #[test]
    fn jitter_rescues_singular() {
        // Rank-1 matrix: vvᵀ with v = (1,1); singular, needs jitter.
        let a = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let (c, jitter) = cholesky_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        let rec = c.l().matmul(&c.l().transpose());
        // Reconstruction matches A up to the jitter on the diagonal.
        assert!((rec[(0, 1)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn jitter_zero_when_unneeded() {
        let (_, jitter) = cholesky_jitter(&spd3(), 1e-10, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }
}
