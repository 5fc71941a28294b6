//! Uniform uncertainty pdf — the distribution used for the paper's Long
//! Beach experiments ("the 53,144 intervals … are treated as uncertainty
//! regions with uniform pdfs", Sec. V-A).

use crate::error::PdfError;
use crate::traits::Pdf;
use crate::Result;

/// A uniform distribution on the closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformPdf {
    lo: f64,
    hi: f64,
}

impl UniformPdf {
    /// Create a uniform pdf on `[lo, hi]`. Fails if the region is empty,
    /// inverted, or non-finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(PdfError::EmptyRegion { lo, hi });
        }
        Ok(Self { lo, hi })
    }
}

impl Pdf for UniformPdf {
    fn support(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn density(&self, x: f64) -> f64 {
        if x >= self.lo && x <= self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.lo + p.clamp(0.0, 1.0) * (self.hi - self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_region() {
        assert!(UniformPdf::new(0.0, 1.0).is_ok());
        assert!(UniformPdf::new(1.0, 1.0).is_err());
        assert!(UniformPdf::new(2.0, 1.0).is_err());
        assert!(UniformPdf::new(f64::NAN, 1.0).is_err());
        assert!(UniformPdf::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn density_and_cdf_shape() {
        let u = UniformPdf::new(2.0, 6.0).unwrap();
        assert_eq!(u.density(1.9), 0.0);
        assert_eq!(u.density(4.0), 0.25);
        assert_eq!(u.density(6.1), 0.0);
        assert_eq!(u.cdf(2.0), 0.0);
        assert_eq!(u.cdf(4.0), 0.5);
        assert_eq!(u.cdf(6.0), 1.0);
        assert_eq!(u.cdf(100.0), 1.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let u = UniformPdf::new(10.0, 20.0).unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert!((u.cdf(u.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn mass_between_is_proportional_to_length() {
        let u = UniformPdf::new(0.0, 10.0).unwrap();
        assert!((u.mass_between(2.0, 4.5) - 0.25).abs() < 1e-15);
        assert_eq!(u.mass_between(5.0, 5.0), 0.0);
        assert_eq!(u.mass_between(7.0, 3.0), 0.0);
    }
}
