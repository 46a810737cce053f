//! Cholesky test support: the one-entry-at-a-time factorization and
//! forward substitution kept verbatim as an oracle, and the proptests
//! holding the interleaved kernels to it bit for bit.
//!
//! [`cholesky`] and [`Cholesky::solve_lower`] run four rows' sums side by
//! side; the claim is that this changes no entry's summation order. The
//! oracle shares no loop with them, so bitwise agreement over every
//! remainder of `n mod 4`, over the jitter retry path and over the pivot
//! a failing factorization reports is evidence for that claim. None of
//! this module exists in a non-test build.

use super::{cholesky, cholesky_jitter, Cholesky, CholeskyError};
use crate::mat::Mat;

/// The scalar factorization: one entry at a time, row by row.
pub(super) fn cholesky_oracle(a: &Mat) -> Result<Cholesky, CholeskyError> {
    if a.nrows() != a.ncols() {
        return Err(CholeskyError::NotSquare);
    }
    let n = a.nrows();
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            // sum = A[i][j] - Σ_{k<j} L[i][k] L[j][k]
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(CholeskyError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(Cholesky { l })
}

/// [`cholesky_jitter`]'s retry loop around [`cholesky_oracle`].
pub(super) fn cholesky_jitter_oracle(
    a: &Mat,
    j0: f64,
    max_tries: usize,
) -> Result<(Cholesky, f64), CholeskyError> {
    match cholesky_oracle(a) {
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
        match cholesky_oracle(&aj) {
            Ok(c) => return Ok((c, jitter)),
            Err(e) => last = e,
        }
        jitter *= 10.0;
    }
    Err(last)
}

impl Cholesky {
    /// The scalar forward substitution: one row at a time.
    pub(super) fn solve_lower_oracle(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.nrows();
        assert_eq!(b.len(), n, "solve_lower: length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            for k in 0..i {
                s -= row[k] * y[k];
            }
            y[i] = s / row[i];
        }
        y
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Both factors agree bitwise in `L`, and so do `solve`, `quad_form` and
/// `log_det` for right-hand side `b`.
fn assert_same(fast: &Cholesky, oracle: &Cholesky, b: &[f64]) {
    assert_eq!(bits(fast.l().as_slice()), bits(oracle.l().as_slice()), "L");
    let y = oracle.solve_lower_oracle(b);
    assert_eq!(bits(&fast.solve_lower(b)), bits(&y), "solve_lower");
    assert_eq!(bits(&fast.solve(b)), bits(&oracle.solve_upper(&y)), "solve");
    assert_eq!(fast.quad_form(b).to_bits(), crate::dot(&y, &y).to_bits(), "quad_form");
    assert_eq!(fast.log_det().to_bits(), oracle.log_det().to_bits(), "log_det");
}

/// An `n × n` matrix from row-major entries.
fn square(n: usize, v: &[f64]) -> Mat {
    Mat::from_rows_flat(n, n, &v[..n * n])
}

#[test]
fn singular_inputs_take_the_retry_path() {
    // Rank-1 all-ones matrices: the first attempt fails, jitter rescues.
    for n in 1..=13 {
        let a = Mat::from_rows_flat(n, n, &vec![1.0; n * n]);
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let (fast, jf) = cholesky_jitter(&a, 1e-10, 12).unwrap();
        let (oracle, jo) = cholesky_jitter_oracle(&a, 1e-10, 12).unwrap();
        assert!(n == 1 || jf > 0.0, "n = {n}");
        assert_eq!(jf.to_bits(), jo.to_bits());
        assert_same(&fast, &oracle, &b);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `n` in `1..=13` (every remainder of `n mod 4`, with up to three
    /// four-row blocks), a scale, and enough uniform entries for an
    /// `n × n` matrix and a right-hand side.
    fn arb_entries() -> impl Strategy<Value = (usize, f64, Vec<f64>, Vec<f64>)> {
        (1usize..=13).prop_flat_map(|n| {
            (
                Just(n),
                0.01f64..100.0,
                prop::collection::vec(-1.0f64..1.0, n * n),
                prop::collection::vec(-10.0f64..10.0, n),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// SPD input `A = s·(B·Bᵀ + 0.05·I)`: `L`, `solve`, `quad_form`
        /// and `log_det` equal the scalar oracle's bit for bit.
        #[test]
        fn interleaved_equals_oracle_spd((n, s, v, b) in arb_entries()) {
            let m = square(n, &v);
            let a = (&m.matmul(&m.transpose()) + &Mat::identity(n).scale(0.05)).scale(s);
            let fast = cholesky(&a).unwrap();
            let oracle = cholesky_oracle(&a).unwrap();
            assert_same(&fast, &oracle, &b);
        }

        /// Rank-deficient input `s·V·Vᵀ − 10^e·I` (`V` is `n × r`,
        /// `r < n`, with one row zeroed), so the first attempt must fail
        /// and `cholesky_jitter` retries, up to several times: the jitter
        /// used and the factor match the oracle's retry loop.
        #[test]
        fn interleaved_equals_oracle_on_jitter_path(
            (n, s, v, b) in arb_entries(),
            rank_frac in 0.0f64..1.0,
            zero_frac in 0.0f64..1.0,
            e in -12.0f64..-5.0,
        ) {
            let r = ((n as f64 * rank_frac) as usize).min(n - 1);
            let zero = ((n as f64 * zero_frac) as usize).min(n - 1);
            let mut vm = Mat::from_rows_flat(n, r, &v[..n * r]);
            vm.row_mut(zero).fill(0.0);
            let a = &vm.matmul(&vm.transpose()).scale(s) - &Mat::identity(n).scale(10f64.powf(e));
            prop_assert!(cholesky(&a).is_err());
            let fast = cholesky_jitter(&a, 1e-10, 12);
            let oracle = cholesky_jitter_oracle(&a, 1e-10, 12);
            match (fast, oracle) {
                (Ok((f, jf)), Ok((o, jo))) => {
                    prop_assert!(jf > 0.0);
                    prop_assert_eq!(jf.to_bits(), jo.to_bits());
                    assert_same(&f, &o, &b);
                }
                (f, o) => prop_assert_eq!(f.map(|c| c.1).err(), o.map(|c| c.1).err()),
            }
        }

        /// Symmetric input of either sign: both succeed with equal
        /// factors, or both fail at the same pivot.
        #[test]
        fn interleaved_reports_oracle_pivot((n, s, v, b) in arb_entries(), shift in -1.0f64..3.0) {
            let m = square(n, &v);
            let a = (&(&m + &m.transpose()) + &Mat::identity(n).scale(shift)).scale(s);
            match (cholesky(&a), cholesky_oracle(&a)) {
                (Ok(f), Ok(o)) => assert_same(&f, &o, &b),
                (f, o) => prop_assert_eq!(f.err(), o.err()),
            }
        }
    }
}
