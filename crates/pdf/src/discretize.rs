//! Mass-preserving discretization of arbitrary pdfs into histograms.
//!
//! The paper approximates each Gaussian uncertainty pdf "by a 300-bar
//! histogram" (Sec. V-B.5). Discretizing through cdf differences (rather than
//! sampling the density) preserves bin masses exactly, so the discretized pdf
//! still integrates to one and its cdf agrees with the original at every bin
//! edge.

use crate::histogram::HistogramPdf;
use crate::traits::Pdf;
use crate::Result;

/// Convert any [`Pdf`] into an equi-width `bars`-bar [`HistogramPdf`] whose
/// bin masses equal the source's cdf differences.
pub fn discretize<P: Pdf + ?Sized>(pdf: &P, bars: usize) -> Result<HistogramPdf> {
    let (lo, hi) = pdf.support();
    HistogramPdf::equi_width_from_cdf(lo, hi, bars, |x| pdf.cdf(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TruncatedGaussian, UniformPdf};

    #[test]
    fn discretized_gaussian_preserves_cdf_at_edges() {
        let g = TruncatedGaussian::paper_default(0.0, 6.0).unwrap();
        let h = discretize(&g, 300).unwrap();
        assert_eq!(h.bar_count(), 300);
        for x in [0.0, 1.0, 2.2, 3.0, 4.8, 6.0] {
            // Histogram cdf agrees at edges exactly and in between to O(1/bars).
            assert!(
                (h.cdf(x) - g.cdf(x)).abs() < 5e-3,
                "x = {x}: {} vs {}",
                h.cdf(x),
                g.cdf(x)
            );
        }
        // At an exact edge the match is exact by construction.
        let edge = h.edges()[100];
        assert!((h.cdf(edge) - g.cdf(edge)).abs() < 1e-12);
    }

    #[test]
    fn discretized_uniform_is_exact() {
        let u = UniformPdf::new(5.0, 9.0).unwrap();
        let h = discretize(&u, 10).unwrap();
        for x in [5.0, 5.5, 7.0, 9.0] {
            assert!((h.cdf(x) - u.cdf(x)).abs() < 1e-12);
            assert!((h.density(x.min(8.999)) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_is_evaluated_once_per_edge() {
        let mut calls = 0;
        let h = HistogramPdf::equi_width_from_cdf(1.0, 3.0, 8, |x| {
            calls += 1;
            (x - 1.0) / 2.0
        })
        .unwrap();
        assert_eq!(calls, 9);
        assert_eq!(h.bar_count(), 8);
        assert!((h.cdf(2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_bars_rejected() {
        let u = UniformPdf::new(0.0, 1.0).unwrap();
        assert!(discretize(&u, 0).is_err());
    }

    #[test]
    fn works_through_trait_object() {
        let g = TruncatedGaussian::paper_default(1.0, 2.0).unwrap();
        let dyn_pdf: &dyn Pdf = &g;
        let h = discretize(dyn_pdf, 50).unwrap();
        assert_eq!(h.bar_count(), 50);
        assert!((h.cdf(2.0) - 1.0).abs() < 1e-12);
    }
}
