//! Scalar root finding on a bracket: Brent's method and bisection.
//!
//! [`brent`] solves the positive-equilibrium fixed point `F(Θ*) = 0`
//! (Eq. (5) of the paper) and the `λ0` calibration in `rumor-core`, and
//! the Digg2009 degree-law calibration in `rumor-datasets`. [`bisect`] is
//! the slow, plainly correct reference the tests hold [`brent`] to.

use crate::{NumericsError, Result};

/// Configuration shared by the root finders.
#[derive(Debug, Clone, PartialEq)]
pub struct RootConfig {
    /// Absolute tolerance on the root location.
    pub x_tol: f64,
    /// Absolute tolerance on the residual `|f(x)|`.
    pub f_tol: f64,
    /// Maximum number of iterations before giving up.
    pub max_iter: usize,
}

impl Default for RootConfig {
    fn default() -> Self {
        RootConfig {
            x_tol: 1e-12,
            f_tol: 1e-12,
            max_iter: 200,
        }
    }
}

/// Result of a successful root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Root {
    /// Location of the root.
    pub x: f64,
    /// Residual `f(x)` at the returned location.
    pub f: f64,
    /// Number of iterations used.
    pub iterations: usize,
}

/// Bisection on a sign-changing interval `[a, b]`.
///
/// # Errors
///
/// * [`NumericsError::InvalidBracket`] if `f(a)` and `f(b)` have the same
///   (non-zero) sign.
/// * [`NumericsError::NoConvergence`] if the iteration budget is exhausted.
pub fn bisect(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, cfg: &RootConfig) -> Result<Root> {
    let (mut lo, mut hi) = if a <= b { (a, b) } else { (b, a) };
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(Root {
            x: lo,
            f: 0.0,
            iterations: 0,
        });
    }
    if fhi == 0.0 {
        return Ok(Root {
            x: hi,
            f: 0.0,
            iterations: 0,
        });
    }
    if flo.signum() == fhi.signum() {
        return Err(NumericsError::InvalidBracket { a: lo, b: hi });
    }
    for it in 1..=cfg.max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid.abs() <= cfg.f_tol || (hi - lo) * 0.5 <= cfg.x_tol {
            return Ok(Root {
                x: mid,
                f: fmid,
                iterations: it,
            });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    Err(NumericsError::NoConvergence {
        algorithm: "bisection",
        iterations: cfg.max_iter,
    })
}

/// Brent's method on a sign-changing interval `[a, b]`: combines bisection,
/// secant steps and inverse quadratic interpolation; superlinear in
/// practice and never worse than bisection.
///
/// # Errors
///
/// * [`NumericsError::InvalidBracket`] if `f(a)` and `f(b)` have the same
///   (non-zero) sign.
/// * [`NumericsError::NoConvergence`] if the iteration budget is exhausted.
pub fn brent(mut f: impl FnMut(f64) -> f64, a: f64, b: f64, cfg: &RootConfig) -> Result<Root> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(Root {
            x: a,
            f: 0.0,
            iterations: 0,
        });
    }
    if fb == 0.0 {
        return Ok(Root {
            x: b,
            f: 0.0,
            iterations: 0,
        });
    }
    if fa.signum() == fb.signum() {
        return Err(NumericsError::InvalidBracket { a, b });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = 0.0;

    for it in 1..=cfg.max_iter {
        if fb.abs() <= cfg.f_tol {
            return Ok(Root {
                x: b,
                f: fb,
                iterations: it,
            });
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };

        let cond_interval = {
            let lo = (3.0 * a + b) / 4.0;
            let (lo, hi) = if lo <= b { (lo, b) } else { (b, lo) };
            s < lo || s > hi
        };
        let cond_mflag = mflag && (s - b).abs() >= (b - c).abs() / 2.0;
        let cond_dflag = !mflag && (s - b).abs() >= (c - d).abs() / 2.0;
        let cond_mtol = mflag && (b - c).abs() < cfg.x_tol;
        let cond_dtol = !mflag && (c - d).abs() < cfg.x_tol;

        if cond_interval || cond_mflag || cond_dflag || cond_mtol || cond_dtol {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }

        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
        if (b - a).abs() <= cfg.x_tol {
            return Ok(Root {
                x: b,
                f: fb,
                iterations: it,
            });
        }
    }
    Err(NumericsError::NoConvergence {
        algorithm: "brent",
        iterations: cfg.max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, &RootConfig::default()).unwrap();
        assert!((r.x - 2.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn bisect_reversed_interval() {
        let r = bisect(|x| x * x - 2.0, 2.0, 0.0, &RootConfig::default()).unwrap();
        assert!((r.x - 2.0_f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn bisect_endpoint_root() {
        let r = bisect(|x| x, 0.0, 1.0, &RootConfig::default()).unwrap();
        assert_eq!(r.x, 0.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn bisect_bad_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, &RootConfig::default()).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidBracket { .. }));
    }

    #[test]
    fn brent_transcendental() {
        // cos(x) = x near 0.739085.
        let r = brent(|x| x.cos() - x, 0.0, 1.0, &RootConfig::default()).unwrap();
        assert!((r.x - 0.739_085_133_215_160_6).abs() < 1e-10);
    }

    #[test]
    fn brent_is_fast_on_smooth_functions() {
        let cfg = RootConfig::default();
        let rb = brent(|x| x.exp() - 5.0, 0.0, 3.0, &cfg).unwrap();
        let ri = bisect(|x| x.exp() - 5.0, 0.0, 3.0, &cfg).unwrap();
        assert!((rb.x - 5.0_f64.ln()).abs() < 1e-10);
        assert!(rb.iterations <= ri.iterations);
    }

    #[test]
    fn brent_bad_bracket() {
        let err = brent(|x| x * x + 1.0, -1.0, 1.0, &RootConfig::default()).unwrap_err();
        assert!(matches!(err, NumericsError::InvalidBracket { .. }));
    }

    #[test]
    fn brent_endpoint_roots() {
        assert_eq!(
            brent(|x| x, 0.0, 1.0, &RootConfig::default()).unwrap().x,
            0.0
        );
        assert_eq!(
            brent(|x| x - 1.0, 0.0, 1.0, &RootConfig::default())
                .unwrap()
                .x,
            1.0
        );
    }

    #[test]
    fn all_methods_agree() {
        let f = |x: f64| x.powi(3) - 2.0 * x - 5.0; // classic Wallis cubic, root ≈ 2.0945515
        let cfg = RootConfig::default();
        let rb = bisect(f, 2.0, 3.0, &cfg).unwrap().x;
        let rr = brent(f, 2.0, 3.0, &cfg).unwrap().x;
        assert!((rb - rr).abs() < 1e-8);
        assert!((rr - 2.094_551_481_542_326_5).abs() < 1e-10);
    }
}
