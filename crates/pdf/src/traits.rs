//! The [`Pdf`] trait: the paper's attribute-uncertainty model.

/// A probability density function bounded inside a closed uncertainty region.
///
/// This is the paper's uncertainty model (Sec. I): "the actual data value is
/// located within a closed region, called the uncertainty region. In this
/// region, a non-zero probability density function (pdf) of the value is
/// defined, where the integration of pdf inside the region is equal to one."
///
/// Implementations must guarantee:
/// * `support()` returns `(lo, hi)` with `lo < hi`;
/// * `density(x) == 0` for `x` outside `[lo, hi]` and `≥ 0` inside;
/// * `cdf` is monotone non-decreasing with `cdf(lo) = 0`, `cdf(hi) = 1`.
pub trait Pdf {
    /// The closed uncertainty region `[lo, hi]`.
    fn support(&self) -> (f64, f64);

    /// Probability density at `x` (zero outside the region).
    fn density(&self, x: f64) -> f64;

    /// Cumulative distribution `Pr[X ≤ x]`, clamped to `[0, 1]`.
    fn cdf(&self, x: f64) -> f64;

    /// Probability mass on `[a, b]` (default: cdf difference).
    fn mass_between(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        (self.cdf(b) - self.cdf(a)).clamp(0.0, 1.0)
    }

    /// Quantile function: smallest `x` with `cdf(x) ≥ p`.
    ///
    /// Default implementation bisects the cdf, which works for any monotone
    /// implementation; concrete types override with closed forms.
    fn quantile(&self, p: f64) -> f64 {
        let (lo, hi) = self.support();
        if p <= 0.0 {
            return lo;
        }
        if p >= 1.0 {
            return hi;
        }
        let (mut a, mut b) = (lo, hi);
        for _ in 0..200 {
            let m = 0.5 * (a + b);
            if self.cdf(m) < p {
                a = m;
            } else {
                b = m;
            }
            if b - a <= 1e-14 * (hi - lo).max(1.0) {
                break;
            }
        }
        0.5 * (a + b)
    }

    /// Width of the uncertainty region.
    fn width(&self) -> f64 {
        let (lo, hi) = self.support();
        hi - lo
    }
}
