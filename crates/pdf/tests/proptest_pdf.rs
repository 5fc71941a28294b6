//! Property tests for the probability substrate: every distribution must
//! behave like a distribution, for arbitrary parameters.

use cpnn_pdf::integrate::{adaptive_simpson, gauss_legendre, GlOrder};
use cpnn_pdf::{discretize, HistogramPdf, Pdf, TruncatedGaussian};
use proptest::prelude::*;

fn histogram_strategy() -> impl Strategy<Value = HistogramPdf> {
    (
        -100.0f64..100.0,
        prop::collection::vec(0.01f64..10.0, 1..12),
        prop::collection::vec(0.0f64..5.0, 1..12),
    )
        .prop_filter_map(
            "need matching lens and nonzero mass",
            |(lo, widths, dens)| {
                let n = widths.len().min(dens.len());
                if n == 0 {
                    return None;
                }
                let mut edges = vec![lo];
                for w in widths.iter().take(n) {
                    edges.push(edges.last().unwrap() + w);
                }
                let density: Vec<f64> = dens.iter().take(n).copied().collect();
                if density.iter().sum::<f64>() <= 0.0 {
                    return None;
                }
                HistogramPdf::from_densities(edges, density).ok()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_total_mass_is_one(h in histogram_strategy()) {
        let (lo, hi) = h.support();
        prop_assert!((h.cdf(hi) - 1.0).abs() < 1e-12);
        prop_assert_eq!(h.cdf(lo), 0.0);
        let integral = adaptive_simpson(|x| h.density(x), lo, hi, 1e-10);
        prop_assert!((integral - 1.0).abs() < 1e-6, "integral = {integral}");
    }

    #[test]
    fn histogram_cdf_monotone(h in histogram_strategy(), steps in 2usize..40) {
        let (lo, hi) = h.support();
        let mut prev = -1e-15;
        for i in 0..=steps {
            let x = lo + (hi - lo) * i as f64 / steps as f64;
            let c = h.cdf(x);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn histogram_quantile_inverts_cdf(h in histogram_strategy(), p in 0.001f64..0.999) {
        let x = h.quantile(p);
        prop_assert!((h.cdf(x) - p).abs() < 1e-9, "p = {p}, cdf(q(p)) = {}", h.cdf(x));
    }

    #[test]
    fn discretization_preserves_edge_cdf(h in histogram_strategy(), bars in 2usize..60) {
        let d = discretize(&h, bars).unwrap();
        let (lo, hi) = h.support();
        let (dlo, dhi) = d.support();
        prop_assert!((lo - dlo).abs() < 1e-9 && (hi - dhi).abs() < 1e-9);
        // At the coarse histogram's own edges the cdfs agree exactly.
        for &e in d.edges() {
            prop_assert!((d.cdf(e) - h.cdf(e)).abs() < 1e-9);
        }
    }

    #[test]
    fn gaussian_is_a_distribution(
        lo in -50.0f64..50.0,
        width in 0.5f64..40.0,
        sigma_frac in 0.05f64..0.5,
    ) {
        let hi = lo + width;
        let g = TruncatedGaussian::new(lo + width / 2.0, width * sigma_frac, lo, hi).unwrap();
        prop_assert!((g.cdf(hi) - 1.0).abs() < 1e-12);
        prop_assert_eq!(g.cdf(lo), 0.0);
        let total = adaptive_simpson(|x| g.density(x), lo, hi, 1e-10);
        prop_assert!((total - 1.0).abs() < 1e-7);
        // Symmetric around the (centered) mean.
        prop_assert!((g.cdf(lo + width / 2.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gauss_legendre_matches_adaptive_simpson_on_smooth(
        a in -5.0f64..0.0,
        b in 0.1f64..5.0,
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
    ) {
        let f = |x: f64| (c1 * x).sin() + c2 * x * x;
        let gl = gauss_legendre(f, a, b, GlOrder::Sixteen);
        let simp = adaptive_simpson(f, a, b, 1e-12);
        prop_assert!((gl - simp).abs() < 1e-7, "gl {gl} vs simpson {simp}");
    }
}
