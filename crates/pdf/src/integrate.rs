//! Numerical integration routines.
//!
//! Exact evaluation (Basic, the `pnn` oracle) and **incremental
//! refinement** (Sec. IV-D) integrate the qualification probability one
//! subregion at a time. Inside a subregion every distance cdf is linear, so
//! the integrand is a polynomial and fixed-order Gauss–Legendre is exact up
//! to degree `2n−1`. Adaptive Simpson integrates arbitrary integrands; the
//! tests use it as an independent oracle (e.g. raw Gaussian tails, disk
//! and rectangle distance cdfs).

/// Adaptive Simpson quadrature with absolute tolerance `tol`.
///
/// Recursion depth is capped at 50, which bounds work on pathological
/// integrands while keeping ~1e-12 accuracy on smooth ones.
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
    adaptive_simpson_inner(&mut f, a, b, fa, fm, fb, whole, tol, 50)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_simpson_inner<F: FnMut(f64) -> f64>(
    f: &mut F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
    let right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_simpson_inner(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + adaptive_simpson_inner(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    }
}

/// Gauss–Legendre node/weight pairs on `[-1, 1]` (positive half; mirror for
/// the negative nodes). Values are the standard tabulated constants.
mod gl {
    pub(super) const N2: (&[f64], &[f64]) = (&[0.577_350_269_189_625_7], &[1.0]);
    pub(super) const N4: (&[f64], &[f64]) = (
        &[0.339_981_043_584_856_3, 0.861_136_311_594_052_6],
        &[0.652_145_154_862_546_1, 0.347_854_845_137_453_9],
    );
    pub(super) const N8: (&[f64], &[f64]) = (
        &[
            0.183_434_642_495_649_8,
            0.525_532_409_916_329,
            0.796_666_477_413_626_7,
            0.960_289_856_497_536_3,
        ],
        &[
            0.362_683_783_378_362,
            0.313_706_645_877_887_3,
            0.222_381_034_453_374_5,
            0.101_228_536_290_376_3,
        ],
    );
    pub(super) const N16: (&[f64], &[f64]) = (
        &[
            0.095_012_509_837_637_44,
            0.281_603_550_779_258_9,
            0.458_016_777_657_227_4,
            0.617_876_244_402_643_8,
            0.755_404_408_355_003,
            0.865_631_202_387_831_8,
            0.944_575_023_073_232_6,
            0.989_400_934_991_649_9,
        ],
        &[
            0.189_450_610_455_068_5,
            0.182_603_415_044_923_6,
            0.169_156_519_395_002_5,
            0.149_595_988_816_576_7,
            0.124_628_971_255_533_9,
            0.095_158_511_682_492_8,
            0.062_253_523_938_647_9,
            0.027_152_459_411_754_1,
        ],
    );
}

/// Supported fixed Gauss–Legendre orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlOrder {
    /// 2-point rule (exact for cubics).
    Two,
    /// 4-point rule (exact for degree ≤ 7).
    Four,
    /// 8-point rule (exact for degree ≤ 15).
    Eight,
    /// 16-point rule (exact for degree ≤ 31).
    Sixteen,
}

impl GlOrder {
    fn tables(self) -> (&'static [f64], &'static [f64]) {
        match self {
            GlOrder::Two => gl::N2,
            GlOrder::Four => gl::N4,
            GlOrder::Eight => gl::N8,
            GlOrder::Sixteen => gl::N16,
        }
    }
}

/// Fixed-order Gauss–Legendre quadrature of `f` over `[a, b]`.
pub fn gauss_legendre<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, order: GlOrder) -> f64 {
    if a == b {
        return 0.0;
    }
    let (xs, ws) = order.tables();
    let c = 0.5 * (b - a);
    let d = 0.5 * (a + b);
    let mut sum = 0.0;
    for (&x, &w) in xs.iter().zip(ws) {
        sum += w * (f(d + c * x) + f(d - c * x));
    }
    sum * c
}

/// The 16-point Gauss–Legendre rule on `[a, b]` with its nodes laid out for
/// side-by-side evaluation: a caller that integrates many related
/// integrands at once evaluates them at [`Gl16::nodes`] (any loop order) and
/// hands each one's 16 values to [`Gl16::integrate`].
///
/// `nodes[h]` and `nodes[8 + h]` are the mirrored pair `d ± c·x_h` that
/// [`gauss_legendre`] visits, and [`Gl16::integrate`] adds them in the same
/// order, so `Gl16::new(a, b).integrate(&vals)` is bit-identical to
/// `gauss_legendre(f, a, b, GlOrder::Sixteen)` when `vals[n] = f(nodes[n])`.
#[derive(Debug, Clone, Copy)]
pub struct Gl16 {
    /// The 16 abscissae inside `[a, b]`.
    pub nodes: [f64; 16],
    half_width: f64,
}

impl Gl16 {
    /// The rule on `[a, b]`.
    pub fn new(a: f64, b: f64) -> Self {
        let c = 0.5 * (b - a);
        let d = 0.5 * (a + b);
        let mut nodes = [0.0; 16];
        for (h, &x) in gl::N16.0.iter().enumerate() {
            nodes[h] = d + c * x;
            nodes[8 + h] = d - c * x;
        }
        Self {
            nodes,
            half_width: c,
        }
    }

    /// `∫ f` over the panel from `values[n] = f(nodes[n])`.
    pub fn integrate(&self, values: &[f64; 16]) -> f64 {
        let mut sum = 0.0;
        for (h, &w) in gl::N16.1.iter().enumerate() {
            sum += w * (values[h] + values[8 + h]);
        }
        sum * self.half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_integrates_cubic_exactly() {
        // Simpson is exact for cubics: the first estimate already agrees
        // with its refinement.
        let got = adaptive_simpson(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        let want = 4.0 - 4.0 + 2.0; // x^4/4 - x^2 + x on [0,2]
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn adaptive_simpson_handles_peaked_integrand() {
        // ∫_{-5}^{5} e^{-x²} dx = √π · erf(5) ≈ √π
        let got = adaptive_simpson(|x| (-x * x).exp(), -5.0, 5.0, 1e-12);
        let want = std::f64::consts::PI.sqrt() * (1.0 - crate::special::erfc(5.0));
        assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
    }

    #[test]
    fn gauss_legendre_exact_for_matching_degree() {
        // Order-n GL is exact for polynomials of degree 2n-1.
        let poly = |x: f64| 5.0 * x.powi(7) - 3.0 * x.powi(4) + x - 2.0;
        let exact = {
            // antiderivative: 5x^8/8 - 3x^5/5 + x²/2 - 2x on [-1, 3]
            let f = |x: f64| 5.0 * x.powi(8) / 8.0 - 3.0 * x.powi(5) / 5.0 + x * x / 2.0 - 2.0 * x;
            f(3.0) - f(-1.0)
        };
        for order in [GlOrder::Four, GlOrder::Eight, GlOrder::Sixteen] {
            let got = gauss_legendre(poly, -1.0, 3.0, order);
            assert!(
                (got - exact).abs() < 1e-9 * exact.abs(),
                "{order:?}: got {got}, want {exact}"
            );
        }
    }

    #[test]
    fn blocked_sixteen_point_rule_is_bit_identical_to_gauss_legendre() {
        let f = |x: f64| (1.0 - 0.3 * x).powi(9) * (0.7 - 0.2 * x);
        for (a, b) in [(0.0, 1.0), (0.25, 0.5), (-1.0, 3.0)] {
            let rule = Gl16::new(a, b);
            let got = rule.integrate(&rule.nodes.map(f));
            let want = gauss_legendre(f, a, b, GlOrder::Sixteen);
            assert_eq!(got.to_bits(), want.to_bits(), "[{a}, {b}]");
        }
    }

    #[test]
    fn gauss_legendre_two_point_exact_for_cubic() {
        let got = gauss_legendre(|x| x * x * x, 0.0, 1.0, GlOrder::Two);
        assert!((got - 0.25).abs() < 1e-14);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(adaptive_simpson(|x| x, 2.0, 2.0, 1e-9), 0.0);
        assert_eq!(gauss_legendre(|x| x, 3.0, 3.0, GlOrder::Four), 0.0);
    }

    #[test]
    fn reversed_interval_negates() {
        let fwd = adaptive_simpson(|x| x * x, 0.0, 1.0, 1e-12);
        let bwd = adaptive_simpson(|x| x * x, 1.0, 0.0, 1e-12);
        assert!((fwd + bwd).abs() < 1e-12);
    }
}
