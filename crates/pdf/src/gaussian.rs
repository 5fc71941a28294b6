//! Truncated Gaussian uncertainty pdf.
//!
//! The paper's Gaussian experiment (Sec. V-B.5) gives each object "a mean at
//! the center of its range, and a standard deviation of 1/6 of the width of
//! the uncertainty region", renormalized so the mass inside the region is 1.
//! GPS measurement error is classically modeled this way ([2], [3]).

use crate::error::PdfError;
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};
use crate::traits::Pdf;
use crate::Result;

/// A Gaussian distribution truncated (and renormalized) to `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
    /// Φ((lo-μ)/σ), cached.
    phi_lo: f64,
    /// Normalizing constant Φ((hi-μ)/σ) − Φ((lo-μ)/σ), cached.
    z: f64,
}

impl TruncatedGaussian {
    /// Create a Gaussian with the given `mean` and `std`, truncated to
    /// `[lo, hi]`.
    pub fn new(mean: f64, std: f64, lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(PdfError::EmptyRegion { lo, hi });
        }
        if !(std > 0.0) || !std.is_finite() {
            return Err(PdfError::NonPositiveParameter {
                name: "std",
                value: std,
            });
        }
        if !mean.is_finite() {
            return Err(PdfError::NonPositiveParameter {
                name: "mean",
                value: mean,
            });
        }
        let phi_lo = std_normal_cdf((lo - mean) / std);
        let phi_hi = std_normal_cdf((hi - mean) / std);
        let z = phi_hi - phi_lo;
        if !(z > 0.0) {
            return Err(PdfError::ZeroMass);
        }
        Ok(Self {
            mean,
            std,
            lo,
            hi,
            phi_lo,
            z,
        })
    }

    /// The paper's configuration: mean at the region center, `σ = width/6`.
    pub fn paper_default(lo: f64, hi: f64) -> Result<Self> {
        let width = hi - lo;
        Self::new(0.5 * (lo + hi), width / 6.0, lo, hi)
    }
}

impl Pdf for TruncatedGaussian {
    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn density(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        std_normal_pdf((x - self.mean) / self.std) / (self.std * self.z)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        ((std_normal_cdf((x - self.mean) / self.std) - self.phi_lo) / self.z).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let z = std_normal_quantile(self.phi_lo + p * self.z);
        (self.mean + self.std * z).clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::adaptive_simpson;

    #[test]
    fn construction_validates() {
        assert!(TruncatedGaussian::new(0.0, 1.0, -1.0, 1.0).is_ok());
        assert!(TruncatedGaussian::new(0.0, 0.0, -1.0, 1.0).is_err());
        assert!(TruncatedGaussian::new(0.0, -2.0, -1.0, 1.0).is_err());
        assert!(TruncatedGaussian::new(0.0, 1.0, 1.0, 1.0).is_err());
        assert!(TruncatedGaussian::new(f64::NAN, 1.0, 0.0, 1.0).is_err());
        // Mean 60σ away from the region: zero mass inside.
        assert!(TruncatedGaussian::new(100.0, 1.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn density_integrates_to_one() {
        let g = TruncatedGaussian::paper_default(10.0, 16.0).unwrap();
        let total = adaptive_simpson(|x| g.density(x), 10.0, 16.0, 1e-12);
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn paper_default_centers_mass() {
        let g = TruncatedGaussian::paper_default(0.0, 6.0).unwrap();
        assert_eq!(g.mean, 3.0);
        assert_eq!(g.std, 1.0);
        assert!((g.cdf(3.0) - 0.5).abs() < 1e-12);
        // symmetric: cdf(3-d) + cdf(3+d) = 1
        for d in [0.5, 1.0, 2.0, 2.9] {
            assert!((g.cdf(3.0 - d) + g.cdf(3.0 + d) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_clamps_outside_region() {
        let g = TruncatedGaussian::paper_default(-2.0, 2.0).unwrap();
        assert_eq!(g.cdf(-3.0), 0.0);
        assert_eq!(g.cdf(3.0), 1.0);
        assert_eq!(g.density(-3.0), 0.0);
        assert_eq!(g.density(3.0), 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let g = TruncatedGaussian::new(5.0, 2.0, 0.0, 8.0).unwrap();
        for p in [0.001, 0.1, 0.4, 0.5, 0.77, 0.999] {
            let x = g.quantile(p);
            assert!(
                (g.cdf(x) - p).abs() < 1e-9,
                "p = {p}, x = {x}, cdf = {}",
                g.cdf(x)
            );
        }
    }

    #[test]
    fn truncation_renormalizes() {
        // Heavily skewed truncation: N(0,1) restricted to [1, 3].
        let g = TruncatedGaussian::new(0.0, 1.0, 1.0, 3.0).unwrap();
        let total = adaptive_simpson(|x| g.density(x), 1.0, 3.0, 1e-12);
        assert!((total - 1.0).abs() < 1e-9);
        let median = g.quantile(0.5);
        assert!(median > 1.0 && median < 3.0);
    }
}
