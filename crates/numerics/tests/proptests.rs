//! Property-based tests of the numerical substrate.

use proptest::prelude::*;
use rumor_numerics::interp::LinearInterp;
use rumor_numerics::lu::{det, Lu};
use rumor_numerics::matrix::Matrix;
use rumor_numerics::quadrature::trapezoid_sampled;
use rumor_numerics::roots::{bisect, brent, RootConfig};
use rumor_numerics::stats::{mean, variance, RunningStats};

/// Strategy: a diagonally dominant (hence invertible, well-conditioned)
/// square matrix of the given size plus a right-hand side.
fn dominant_system(n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        proptest::collection::vec(-1.0..1.0_f64, n * n),
        proptest::collection::vec(-10.0..10.0_f64, n),
    )
}

fn to_dominant_matrix(n: usize, raw: &[f64]) -> Matrix {
    let mut m = Matrix::from_fn(n, n, |i, j| raw[i * n + j]);
    for i in 0..n {
        // Row dominance: diagonal exceeds the absolute row sum.
        let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
        m[(i, i)] = row_sum + 1.0 + m[(i, i)].abs();
    }
    m
}

proptest! {
    #[test]
    fn lu_solve_roundtrip((raw, b) in dominant_system(6)) {
        let a = to_dominant_matrix(6, &raw);
        let x = Lu::decompose(&a).expect("decompose").solve(&b).expect("solvable");
        let back = a.matvec(&x).expect("shape");
        let err = back.iter().zip(&b).fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
        prop_assert!(err < 1e-8, "residual {err}");
    }

    #[test]
    fn lu_det_flips_sign_under_a_row_swap((raw, _b) in dominant_system(5)) {
        let a = to_dominant_matrix(5, &raw);
        let d = Lu::decompose(&a).expect("decompose").det();
        prop_assert!(d.abs() > 0.5, "dominant matrices stay far from singular");
        prop_assert_eq!(det(&a).expect("det"), d);
        let mut swapped = a.clone();
        swapped.swap_rows(0, 3);
        let d_swapped = det(&swapped).expect("det");
        prop_assert!((d + d_swapped).abs() < 1e-9 * d.abs(), "det {d} vs swapped {d_swapped}");
    }

    #[test]
    fn linear_interp_is_bounded_by_node_values(
        ys in proptest::collection::vec(-5.0..5.0_f64, 2..20),
        q in 0.0..1.0_f64,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let hi = xs[xs.len() - 1];
        let li = LinearInterp::new(xs, ys.clone()).expect("grid");
        let v = li.eval(q * hi);
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let up = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= up + 1e-12);
    }

    #[test]
    fn quadrature_is_linear_in_the_integrand(a in -3.0..3.0_f64, b in -3.0..3.0_f64) {
        // ∫(a·f + b·g) = a∫f + b∫g for f = x², g = sin x on [0, 2].
        let ts: Vec<f64> = (0..=400).map(|i| 2.0 * i as f64 / 400.0).collect();
        let f: Vec<f64> = ts.iter().map(|x| x * x).collect();
        let g: Vec<f64> = ts.iter().map(|x| x.sin()).collect();
        let mixed: Vec<f64> = f.iter().zip(&g).map(|(fx, gx)| a * fx + b * gx).collect();
        let combo = trapezoid_sampled(&ts, &mixed).expect("quad");
        let parts = a * trapezoid_sampled(&ts, &f).expect("quad")
            + b * trapezoid_sampled(&ts, &g).expect("quad");
        prop_assert!((combo - parts).abs() < 1e-9);
    }

    #[test]
    fn sampled_trapezoid_matches_closed_form_for_lines(
        slope in -5.0..5.0_f64,
        intercept in -5.0..5.0_f64,
    ) {
        let ts: Vec<f64> = vec![0.0, 0.3, 0.7, 1.3, 2.0];
        let ys: Vec<f64> = ts.iter().map(|&t| slope * t + intercept).collect();
        let v = trapezoid_sampled(&ts, &ys).expect("quad");
        let exact = slope * 2.0_f64 * 2.0 / 2.0 + intercept * 2.0;
        prop_assert!((v - exact).abs() < 1e-10);
    }

    #[test]
    fn bisect_and_brent_agree(c in 0.1..20.0_f64) {
        // Root of x³ - c at c^(1/3).
        let cfg = RootConfig::default();
        let rb = bisect(|x| x * x * x - c, 0.0, 30.0, &cfg).expect("bisect").x;
        let rr = brent(|x| x * x * x - c, 0.0, 30.0, &cfg).expect("brent").x;
        prop_assert!((rb - rr).abs() < 1e-7);
        prop_assert!((rr - c.cbrt()).abs() < 1e-7);
    }

    #[test]
    fn running_stats_equals_batch_stats(
        xs in proptest::collection::vec(-100.0..100.0_f64, 2..50),
    ) {
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        let m = mean(&xs).expect("mean");
        let v = variance(&xs).expect("variance");
        prop_assert!((rs.mean().expect("mean") - m).abs() < 1e-9);
        prop_assert!((rs.variance().expect("var") - v).abs() / v.max(1.0) < 1e-9);
    }
}
