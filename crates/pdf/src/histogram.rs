//! Piecewise-constant (histogram) pdfs — the paper's canonical form for
//! arbitrary uncertainty distributions (Fig. 1(b): "The pdf, represented as
//! a histogram, is an arbitrary distribution").
//!
//! A histogram pdf's cdf is piecewise *linear*, which is exactly the property
//! the subregion machinery relies on ("We represent a distance pdf of each
//! object as a histogram. The corresponding distance cdf is then a piecewise
//! linear function", Sec. IV-A).

use crate::error::PdfError;
use crate::integrate::{gauss_legendre, GlOrder};
use crate::traits::Pdf;
use crate::Result;

/// An arbitrary pdf stored as a histogram: `n` bars over strictly increasing
/// edges, normalized to total mass one.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramPdf {
    /// `n + 1` strictly increasing bin edges.
    edges: Vec<f64>,
    /// `n` non-negative densities (bar heights).
    density: Vec<f64>,
    /// `n + 1` cumulative masses; `cdf[0] = 0`, `cdf[n] = 1`.
    cdf: Vec<f64>,
}

impl HistogramPdf {
    /// Build from explicit bin edges and (unnormalized) bar heights.
    ///
    /// Heights are rescaled so the total mass is one.
    pub fn from_densities(edges: Vec<f64>, density: Vec<f64>) -> Result<Self> {
        Self::validate_edges(&edges)?;
        if density.len() + 1 != edges.len() {
            return Err(PdfError::LengthMismatch {
                expected: edges.len() - 1,
                actual: density.len(),
            });
        }
        for (i, &d) in density.iter().enumerate() {
            if !(d >= 0.0) || !d.is_finite() {
                return Err(PdfError::InvalidDensity { index: i, value: d });
            }
        }
        let mut mass = 0.0;
        for (i, &d) in density.iter().enumerate() {
            mass += d * (edges[i + 1] - edges[i]);
        }
        if !(mass > 0.0) {
            return Err(PdfError::ZeroMass);
        }
        let density: Vec<f64> = density.into_iter().map(|d| d / mass).collect();
        let cdf = Self::accumulate(&edges, &density);
        Ok(Self {
            edges,
            density,
            cdf,
        })
    }

    /// Build from explicit bin edges and per-bin probability masses.
    pub fn from_masses(edges: Vec<f64>, masses: Vec<f64>) -> Result<Self> {
        Self::validate_edges(&edges)?;
        if masses.len() + 1 != edges.len() {
            return Err(PdfError::LengthMismatch {
                expected: edges.len() - 1,
                actual: masses.len(),
            });
        }
        let density: Vec<f64> = masses
            .iter()
            .enumerate()
            .map(|(i, &m)| m / (edges[i + 1] - edges[i]))
            .collect();
        Self::from_densities(edges, density)
    }

    /// Single-bar histogram — the exact representation of a uniform pdf.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self> {
        Self::from_densities(vec![lo, hi], vec![1.0])
    }

    /// Reassemble a histogram from the exact parts a previous instance
    /// exposed through [`edges`](Self::edges), [`densities`](Self::densities),
    /// and [`cdf_at_edges`](Self::cdf_at_edges) — the transport codec for
    /// shipping an already-normalized histogram across a process boundary
    /// **bit for bit**.
    ///
    /// Unlike [`from_densities`](Self::from_densities) this constructor
    /// never renormalizes (renormalizing divides every density by the
    /// computed mass, which is not an identity in floating point even for
    /// an already-normalized histogram) and never re-accumulates the cdf;
    /// every invariant is *checked* instead: edges strictly increasing and
    /// finite, densities non-negative and finite, cdf knots a monotone
    /// sequence in `[0, 1]` starting at 0, ending at exactly 1, and
    /// consistent with the bar masses to within accumulation rounding.
    /// `parts → from_raw_parts → accessors` is the identity, so a decoded
    /// distribution compares equal (`PartialEq` on the raw `f64` vectors)
    /// to the one encoded.
    pub fn from_raw_parts(edges: Vec<f64>, density: Vec<f64>, cdf: Vec<f64>) -> Result<Self> {
        Self::validate_edges(&edges)?;
        if density.len() + 1 != edges.len() {
            return Err(PdfError::LengthMismatch {
                expected: edges.len() - 1,
                actual: density.len(),
            });
        }
        for (i, &d) in density.iter().enumerate() {
            if !(d >= 0.0) || !d.is_finite() {
                return Err(PdfError::InvalidDensity { index: i, value: d });
            }
        }
        if cdf.len() != edges.len() {
            return Err(PdfError::LengthMismatch {
                expected: edges.len(),
                actual: cdf.len(),
            });
        }
        if cdf[0] != 0.0 {
            return Err(PdfError::InvalidCdf {
                index: 0,
                value: cdf[0],
            });
        }
        if *cdf.last().expect("cdf has >= 2 knots") != 1.0 {
            return Err(PdfError::InvalidCdf {
                index: cdf.len() - 1,
                value: *cdf.last().expect("cdf has >= 2 knots"),
            });
        }
        for (i, w) in cdf.windows(2).enumerate() {
            if !w[1].is_finite() || w[1] < w[0] || w[1] > 1.0 {
                return Err(PdfError::InvalidCdf {
                    index: i + 1,
                    value: w[1],
                });
            }
            // The step must match the bar mass up to accumulation rounding
            // (`accumulate` sums `d·width` in order; a foreign cdf that
            // disagrees beyond rounding is not this histogram's cdf).
            let mass = density[i] * (edges[i + 1] - edges[i]);
            if (w[1] - w[0] - mass).abs() > 1e-9 + 1e-9 * mass.abs() {
                return Err(PdfError::InvalidCdf {
                    index: i + 1,
                    value: w[1],
                });
            }
        }
        Ok(Self {
            edges,
            density,
            cdf,
        })
    }

    /// Equi-width histogram over `[lo, hi]` whose bar masses are the
    /// integrals of `f` over each bin (Gauss–Legendre order 8 per bin),
    /// normalized to total mass one.
    pub fn equi_width_from_fn<F: FnMut(f64) -> f64>(
        lo: f64,
        hi: f64,
        bars: usize,
        mut f: F,
    ) -> Result<Self> {
        if bars == 0 {
            return Err(PdfError::NonPositiveParameter {
                name: "bars",
                value: 0.0,
            });
        }
        if !(lo.is_finite() && hi.is_finite()) || lo >= hi {
            return Err(PdfError::EmptyRegion { lo, hi });
        }
        let edges = Self::equi_width_edges(lo, hi, bars);
        let masses: Vec<f64> = (0..bars)
            .map(|i| gauss_legendre(&mut f, edges[i], edges[i + 1], GlOrder::Eight).max(0.0))
            .collect();
        Self::from_masses(edges, masses)
    }

    /// Equi-width histogram over `[lo, hi]` whose bar masses are the
    /// differences of `cdf` at the bin edges, normalized to total mass one.
    /// `cdf` is evaluated once per edge, in ascending order.
    pub fn equi_width_from_cdf<F: FnMut(f64) -> f64>(
        lo: f64,
        hi: f64,
        bars: usize,
        cdf: F,
    ) -> Result<Self> {
        if bars == 0 {
            return Err(PdfError::NonPositiveParameter {
                name: "bars",
                value: 0.0,
            });
        }
        let edges = Self::equi_width_edges(lo, hi, bars);
        let knots: Vec<f64> = edges.iter().copied().map(cdf).collect();
        let masses = knots.windows(2).map(|c| (c[1] - c[0]).max(0.0)).collect();
        Self::from_masses(edges, masses)
    }

    fn equi_width_edges(lo: f64, hi: f64, bars: usize) -> Vec<f64> {
        let w = (hi - lo) / bars as f64;
        (0..=bars)
            .map(|i| if i == bars { hi } else { lo + i as f64 * w })
            .collect()
    }

    fn validate_edges(edges: &[f64]) -> Result<()> {
        if edges.len() < 2 {
            return Err(PdfError::LengthMismatch {
                expected: 2,
                actual: edges.len(),
            });
        }
        for (i, w) in edges.windows(2).enumerate() {
            if !(w[0] < w[1]) || !w[0].is_finite() || !w[1].is_finite() {
                return Err(PdfError::UnsortedEdges { index: i });
            }
        }
        Ok(())
    }

    fn accumulate(edges: &[f64], density: &[f64]) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(edges.len());
        cdf.push(0.0);
        let mut acc = 0.0;
        for (i, &d) in density.iter().enumerate() {
            acc += d * (edges[i + 1] - edges[i]);
            cdf.push(acc);
        }
        // Guard against tiny rounding drift on the last knot.
        let n = cdf.len();
        cdf[n - 1] = 1.0;
        cdf
    }

    /// Number of bars.
    pub fn bar_count(&self) -> usize {
        self.density.len()
    }

    /// Bin edges (length `bar_count() + 1`).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Bar heights (length `bar_count()`), normalized.
    pub fn densities(&self) -> &[f64] {
        &self.density
    }

    /// Cumulative masses at each edge (length `bar_count() + 1`).
    pub fn cdf_at_edges(&self) -> &[f64] {
        &self.cdf
    }

    /// Iterate over `(bin_lo, bin_hi, density)` triples.
    pub fn bars(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        (0..self.density.len()).map(|i| (self.edges[i], self.edges[i + 1], self.density[i]))
    }

    /// Bulk cdf evaluation over an **ascending** slice of points: one merge
    /// pass over the bin edges instead of a binary search per point, writing
    /// `Pdf::cdf(xs[i])` to `out[i]`. The subregion-table build fills each
    /// member's row with one call.
    ///
    /// Points sharing a bin form a *run*; each run is interpolated with the
    /// bin's constants hoisted. Results are bit-identical to the scalar
    /// [`Pdf::cdf`]: the same bin index is located (last bin whose left edge
    /// is `≤ x`) and the same interpolation expression is evaluated.
    ///
    /// Contract: `xs` ascends and `out.len() == xs.len()`, both
    /// `debug_assert`ed; the subregion end-point list already ascends.
    pub fn cdf_many(&self, xs: &[f64], out: &mut [f64]) {
        debug_assert!(
            xs.windows(2).all(|w| w[0] <= w[1]),
            "cdf_many requires ascending inputs"
        );
        debug_assert_eq!(xs.len(), out.len());
        let n = self.density.len();
        let lo = self.edges[0];
        let hi = self.edges[n];
        // Leading out-of-support run: cdf = 0 at or below the left edge.
        let mut i = 0usize;
        while i < xs.len() && xs[i] <= lo {
            out[i] = 0.0;
            i += 1;
        }
        // Trailing out-of-support run: cdf = 1 at or beyond the right edge.
        let mut end = xs.len();
        while end > i && xs[end - 1] >= hi {
            end -= 1;
            out[end] = 1.0;
        }
        // `b` is the current bin: the largest index with edges[b] <= x.
        // Because xs ascends, it only ever moves right.
        let mut b = 0usize;
        while i < end {
            let x0 = xs[i];
            while self.edges[b + 1] <= x0 {
                b += 1;
            }
            // The run of points that stay inside bin b (x0 always does).
            let (c, d, e) = (self.cdf[b], self.density[b], self.edges[b]);
            let next = self.edges[b + 1];
            loop {
                out[i] = (c + d * (xs[i] - e)).clamp(0.0, 1.0);
                i += 1;
                if i == end || xs[i] >= next {
                    break;
                }
            }
        }
    }

    /// Index of the bin containing `x` (bins are `[e_i, e_{i+1})`, with the
    /// final bin closed on the right). Returns `None` outside the support.
    #[inline]
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        let n = self.density.len();
        if x < self.edges[0] || x > self.edges[n] {
            return None;
        }
        if x == self.edges[n] {
            return Some(n - 1);
        }
        // partition_point returns the first index whose edge is > x.
        let idx = self.edges.partition_point(|&e| e <= x);
        Some(idx - 1)
    }
}

impl Pdf for HistogramPdf {
    #[inline]
    fn support(&self) -> (f64, f64) {
        (self.edges[0], *self.edges.last().expect("non-empty edges"))
    }

    #[inline]
    fn density(&self, x: f64) -> f64 {
        match self.bin_of(x) {
            Some(i) => self.density[i],
            None => 0.0,
        }
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        let n = self.density.len();
        if x <= self.edges[0] {
            return 0.0;
        }
        if x >= self.edges[n] {
            return 1.0;
        }
        let i = self.bin_of(x).expect("x inside support");
        (self.cdf[i] + self.density[i] * (x - self.edges[i])).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let n = self.density.len();
        if p <= 0.0 {
            return self.edges[0];
        }
        if p >= 1.0 {
            return self.edges[n];
        }
        // First knot with cumulative mass >= p.
        let j = self.cdf.partition_point(|&c| c < p);
        let i = j.saturating_sub(1).min(n - 1);
        let d = self.density[i];
        if d <= 0.0 {
            // Zero-density bin: jump to its right edge.
            return self.edges[i + 1];
        }
        self.edges[i] + (p - self.cdf[i]) / d
    }

    fn mean(&self) -> f64 {
        self.bars()
            .map(|(lo, hi, d)| d * 0.5 * (hi * hi - lo * lo))
            .sum()
    }

    fn variance(&self) -> f64 {
        let mu = self.mean();
        let e2: f64 = self
            .bars()
            .map(|(lo, hi, d)| d * (hi * hi * hi - lo * lo * lo) / 3.0)
            .sum();
        (e2 - mu * mu).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example() -> HistogramPdf {
        // Matches the spirit of paper Fig. 1(b): arbitrary histogram on [10, 20].
        HistogramPdf::from_masses(vec![10.0, 12.0, 15.0, 18.0, 20.0], vec![0.1, 0.4, 0.3, 0.2])
            .unwrap()
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(HistogramPdf::from_densities(vec![0.0], vec![]).is_err());
        assert!(HistogramPdf::from_densities(vec![0.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(HistogramPdf::from_densities(vec![1.0, 0.0], vec![1.0]).is_err());
        assert!(HistogramPdf::from_densities(vec![0.0, 0.0], vec![1.0]).is_err());
        assert!(HistogramPdf::from_densities(vec![0.0, 1.0], vec![-1.0]).is_err());
        assert!(HistogramPdf::from_densities(vec![0.0, 1.0], vec![0.0]).is_err());
        assert!(HistogramPdf::from_densities(vec![0.0, 1.0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn normalization_makes_unit_mass() {
        let h = HistogramPdf::from_densities(vec![0.0, 1.0, 3.0], vec![4.0, 2.0]).unwrap();
        // mass = 4*1 + 2*2 = 8 before normalization
        assert!((h.density(0.5) - 0.5).abs() < 1e-15);
        assert!((h.density(2.0) - 0.25).abs() < 1e-15);
        assert!((h.cdf(3.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cdf_is_piecewise_linear_and_exact() {
        let h = example();
        assert_eq!(h.cdf(10.0), 0.0);
        assert!((h.cdf(12.0) - 0.1).abs() < 1e-15);
        assert!((h.cdf(15.0) - 0.5).abs() < 1e-15);
        assert!((h.cdf(18.0) - 0.8).abs() < 1e-15);
        assert_eq!(h.cdf(20.0), 1.0);
        // Linear inside a bin: halfway through [12,15] adds half of 0.4.
        assert!((h.cdf(13.5) - 0.3).abs() < 1e-15);
    }

    #[test]
    fn bin_of_handles_edges() {
        let h = example();
        assert_eq!(h.bin_of(10.0), Some(0));
        assert_eq!(h.bin_of(12.0), Some(1)); // right-continuous
        assert_eq!(h.bin_of(20.0), Some(3)); // last edge belongs to last bin
        assert_eq!(h.bin_of(9.99), None);
        assert_eq!(h.bin_of(20.01), None);
    }

    #[test]
    fn quantile_is_exact_inverse() {
        let h = example();
        for p in [0.0, 0.05, 0.1, 0.3, 0.5, 0.8, 0.95, 1.0] {
            let x = h.quantile(p);
            assert!(
                (h.cdf(x) - p).abs() < 1e-12,
                "p = {p}, x = {x}, cdf = {}",
                h.cdf(x)
            );
        }
    }

    #[test]
    fn quantile_skips_zero_density_bins() {
        let h = HistogramPdf::from_masses(vec![0.0, 1.0, 2.0, 3.0], vec![0.5, 0.0, 0.5]).unwrap();
        // Exactly p = 0.5 must not land inside the dead bin (1,2).
        let x = h.quantile(0.5000001);
        assert!(x >= 2.0, "x = {x}");
    }

    #[test]
    fn uniform_single_bar_matches_uniform_pdf() {
        let h = HistogramPdf::uniform(2.0, 6.0).unwrap();
        let u = crate::UniformPdf::new(2.0, 6.0).unwrap();
        for x in [1.0, 2.0, 3.3, 6.0, 7.0] {
            assert!((h.density(x) - u.density(x)).abs() < 1e-15);
            assert!((h.cdf(x) - u.cdf(x)).abs() < 1e-15);
        }
    }

    #[test]
    fn equi_width_from_fn_recovers_triangle() {
        // Triangle density on [0,2] peaking at 1: f(x) = 1-|x-1|
        let h = HistogramPdf::equi_width_from_fn(0.0, 2.0, 400, |x| 1.0 - (x - 1.0).abs()).unwrap();
        assert!((h.cdf(1.0) - 0.5).abs() < 1e-6);
        assert!((h.cdf(0.5) - 0.125).abs() < 1e-4);
        assert!((h.mean() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moments_closed_form() {
        let h = HistogramPdf::uniform(0.0, 12.0).unwrap();
        assert!((h.mean() - 6.0).abs() < 1e-12);
        assert!((h.variance() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_inside_support() {
        let h = example();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let x = h.sample(&mut rng);
            assert!((10.0..=20.0).contains(&x));
        }
    }

    #[test]
    fn cdf_many_matches_scalar_bitwise() {
        let h = example();
        // Includes out-of-support points, exact edges, and interior points.
        let xs = [
            5.0, 9.99, 10.0, 10.5, 12.0, 12.0, 13.5, 15.0, 17.9, 18.0, 19.99, 20.0, 25.0,
        ];
        let mut out = vec![f64::NAN; xs.len()];
        h.cdf_many(&xs, &mut out);
        for (&x, &v) in xs.iter().zip(&out) {
            assert_eq!(v.to_bits(), h.cdf(x).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn cdf_many_random_grids_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(77);
        use rand::Rng;
        for _ in 0..50 {
            let h = example();
            let mut xs: Vec<f64> = (0..40).map(|_| rng.gen_range(8.0..22.0)).collect();
            xs.sort_by(f64::total_cmp);
            let mut out = vec![f64::NAN; xs.len()];
            h.cdf_many(&xs, &mut out);
            for (&x, &v) in xs.iter().zip(&out) {
                assert_eq!(v.to_bits(), h.cdf(x).to_bits(), "x = {x}");
            }
        }
    }

    /// Every slice length and offset of one ascending grid — runs that
    /// start mid-bin, end on an edge, or hold a single point — writes the
    /// per-point cdf into every slot of `out`.
    #[test]
    fn cdf_many_slices_equal_per_point_cdf() {
        let h = example();
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        let mut xs: Vec<f64> = (0..41).map(|_| rng.gen_range(8.0..22.0)).collect();
        xs.extend([10.0, 12.0, 15.0, 18.0, 20.0]);
        xs.sort_by(f64::total_cmp);
        for at in 0..xs.len() {
            for end in at..=xs.len() {
                let mut out = vec![f64::NAN; end - at];
                h.cdf_many(&xs[at..end], &mut out);
                for (&x, &v) in xs[at..end].iter().zip(&out) {
                    assert_eq!(v.to_bits(), h.cdf(x).to_bits(), "[{at}, {end}) x = {x}");
                }
            }
        }
    }

    #[test]
    fn mass_between_subsets() {
        let h = example();
        assert!((h.mass_between(10.0, 20.0) - 1.0).abs() < 1e-15);
        assert!((h.mass_between(12.0, 15.0) - 0.4).abs() < 1e-15);
        assert_eq!(h.mass_between(15.0, 12.0), 0.0);
    }
}
