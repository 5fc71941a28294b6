//! Special functions implemented from scratch.
//!
//! The Gaussian uncertainty experiments (paper Sec. V-B.5) need the normal
//! cdf, hence `erf`. The Rust standard library does not provide it and the
//! workspace deliberately avoids external math crates, so we implement a
//! double-precision `erf`/`erfc` pair here:
//!
//! * `|x| < 2`   — the non-alternating scaled Maclaurin series
//!   `erf(x) = (2x/√π)·e^{-x²}·Σ_{n≥0} (2x²)^n / (1·3·5⋯(2n+1))`,
//!   which has no cancellation (all terms positive).
//! * `|x| ≥ 2`   — the Laplace continued fraction for `erfc`, evaluated with
//!   the modified Lentz algorithm:
//!   `erfc(x) = e^{-x²}/√π · 1/(x + 1/(2x + 2/(x + 3/(2x + ⋯))))`.
//!
//! Both branches converge to full double precision in well under 100
//! iterations; the unit tests pin known reference values to 1e-14.

/// `2/√π`, the prefactor of the error function.
pub(crate) const FRAC_2_SQRT_PI: f64 = std::f64::consts::FRAC_2_SQRT_PI;

/// `√(2π)`, used by the normal density.
pub(crate) const SQRT_2PI: f64 = 2.506_628_274_631_000_5;

/// The complementary error function `erfc(x) = 1 - erf(x)`, with
/// `erf(x) = (2/√π) ∫₀ˣ e^{-t²} dt`.
///
/// For large positive `x` this is evaluated directly from the continued
/// fraction, so it does not underflow to `0` until `x ≈ 26` (where the true
/// value drops below the smallest normal double).
pub(crate) fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < 2.0 {
        1.0 - erf_series(x)
    } else if x > 0.0 {
        erfc_continued_fraction(ax)
    } else {
        2.0 - erfc_continued_fraction(ax)
    }
}

/// Standard normal cumulative distribution function `Φ(z)`.
pub(crate) fn std_normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function `φ(z)`.
pub(crate) fn std_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / SQRT_2PI
}

/// Inverse of the standard normal cdf (the probit function), via bisection
/// refined with two Newton steps. Accurate to ~1e-12 for `p ∈ (1e-300, 1)`.
pub(crate) fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "quantile argument must be a probability, got {p}"
    );
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Bisection on a generous bracket; Φ is monotone.
    let (mut lo, mut hi) = (-40.0_f64, 40.0_f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if std_normal_cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-13 {
            break;
        }
    }
    let mut z = 0.5 * (lo + hi);
    // Newton polish: z -= (Φ(z) - p)/φ(z).
    for _ in 0..2 {
        let pdf = std_normal_pdf(z);
        if pdf > 0.0 {
            z -= (std_normal_cdf(z) - p) / pdf;
        }
    }
    z
}

/// Maclaurin-style series, valid (and fast) for `|x| < 2`.
fn erf_series(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let x2 = x * x;
    let mut term = 1.0_f64;
    let mut sum = 1.0_f64;
    let mut denom = 1.0_f64; // running odd factor 1, 3, 5, ...
    for n in 1..200 {
        denom += 2.0;
        term *= 2.0 * x2 / denom;
        sum += term;
        if term < sum * f64::EPSILON {
            break;
        }
        debug_assert!(n < 199, "erf series failed to converge for x = {x}");
    }
    FRAC_2_SQRT_PI * x * (-x2).exp() * sum
}

/// Laplace continued fraction for `erfc(x)`, `x ≥ 2`, via modified Lentz.
fn erfc_continued_fraction(x: f64) -> f64 {
    debug_assert!(x >= 2.0);
    const TINY: f64 = 1e-300;
    // CF: 1/(x+) 1/2/(x+) 1/(x+) 3/2/(x+) ... in its equivalent form
    // erfc(x) = e^{-x²}/√π · 1/(x + 1/(2x + 2/(x + 3/(2x + 4/(x + ...)))))
    // We evaluate b0 = x, a1 = 1, b1 = 2x, a2 = 2, b2 = x, a3 = 3, b3 = 2x, ...
    let mut f = x.max(TINY);
    let mut c = f;
    let mut d = 0.0_f64;
    for n in 1..300 {
        let a_n = n as f64; // numerators 1, 2, 3, ...
        let b_n = if n % 2 == 1 { 2.0 * x } else { x };
        d = b_n + a_n * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b_n + a_n / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < f64::EPSILON {
            break;
        }
    }
    (-x * x).exp() / (std::f64::consts::PI.sqrt()) / f
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error function from the same two branches as [`erfc`]: the
    /// library needs only `erfc`, the reference tables are for `erf`.
    fn erf(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let ax = x.abs();
        if ax < 2.0 {
            erf_series(x)
        } else {
            let tail = erfc_continued_fraction(ax);
            let val = 1.0 - tail;
            if x >= 0.0 {
                val
            } else {
                -val
            }
        }
    }

    /// Reference values from Abramowitz & Stegun / mpmath.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.112_462_916_018_284_9),
        (0.5, 0.520_499_877_813_046_5),
        (1.0, 0.842_700_792_949_714_9),
        (1.5, 0.966_105_146_475_310_7),
        (2.0, 0.995_322_265_018_952_7),
        (2.5, 0.999_593_047_982_555),
        (3.0, 0.999_977_909_503_001_4),
        (4.0, 0.999_999_984_582_742_1),
    ];

    #[test]
    fn erf_matches_reference_values() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!((got - want).abs() < 1e-14, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in ERF_TABLE {
            assert_eq!(erf(-x), -erf(x));
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for x in [-3.5, -1.0, -0.2, 0.0, 0.3, 1.7, 2.0, 2.5, 5.0] {
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x = {x}");
        }
    }

    #[test]
    fn erfc_large_argument_does_not_underflow_early() {
        // erfc(10) ≈ 2.0884875837625447e-45
        let got = erfc(10.0);
        assert!((got / 2.088_487_583_762_544_7e-45 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_symmetry_and_known_points() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-15);
        // Φ(1.96) ≈ 0.9750021048517795
        assert!((std_normal_cdf(1.96) - 0.975_002_104_851_779_5).abs() < 1e-12);
        for z in [0.1, 0.7, 1.3, 2.9] {
            assert!((std_normal_cdf(z) + std_normal_cdf(-z) - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6] {
            let z = std_normal_quantile(p);
            assert!(
                (std_normal_cdf(z) - p).abs() < 1e-10,
                "p = {p}, z = {z}, cdf = {}",
                std_normal_cdf(z)
            );
        }
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(std_normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn erf_nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }
}
