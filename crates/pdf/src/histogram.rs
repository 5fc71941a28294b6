//! Piecewise-constant (histogram) pdfs — the paper's canonical form for
//! arbitrary uncertainty distributions (Fig. 1(b): "The pdf, represented as
//! a histogram, is an arbitrary distribution").
//!
//! A histogram pdf's cdf is piecewise *linear*, which is exactly the property
//! the subregion machinery relies on ("We represent a distance pdf of each
//! object as a histogram. The corresponding distance cdf is then a piecewise
//! linear function", Sec. IV-A).
//!
//! **Layout.** A histogram of `n` bars is one heap block of `3n + 2` values:
//! `edges (n + 1) | densities (n) | cdf (n + 1)`. Every stored object, every
//! candidate's folded distance pdf, every cache entry and every routed reply
//! item is one of these, so one block instead of three vectors is two fewer
//! allocations per histogram built, and a 24-byte struct instead of a
//! 72-byte one per histogram kept. The order is the one the wire's
//! `Candidates` item already uses, so a decoder reads an item straight into
//! the buffer ([`from_raw_parts`](HistogramPdf::from_raw_parts)) and an
//! encoder writes [`raw_parts`](HistogramPdf::raw_parts) as it stands.
//! Constructors size the block up front and append the cdf in place; the
//! [`from_packed_densities`](HistogramPdf::from_packed_densities) and
//! [`from_packed_masses`](HistogramPdf::from_packed_masses) forms take a
//! caller-filled `edges | densities` (or `| masses`) prefix, which is how
//! the distance fold and the snapshot reader build without side vectors.

use std::fmt;

use crate::error::PdfError;
use crate::traits::Pdf;
use crate::Result;

/// An arbitrary pdf stored as a histogram: `n` bars over strictly increasing
/// edges, normalized to total mass one.
///
/// One buffer holds `edges (n + 1) | densities (n) | cdf (n + 1)`; the
/// accessors ([`edges`](Self::edges), `densities`,
/// [`cdf_at_edges`](Self::cdf_at_edges)) are sub-slices of it. The cdf
/// knots satisfy `cdf[0] = 0` and `cdf[n] = 1`.
#[derive(Clone, PartialEq)]
pub struct HistogramPdf {
    /// `edges (n + 1) | densities (n) | cdf (n + 1)`: `3n + 2` values.
    buf: Vec<f64>,
}

impl fmt::Debug for HistogramPdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (edges, density, cdf) = self.parts();
        f.debug_struct("HistogramPdf")
            .field("edges", &edges)
            .field("density", &density)
            .field("cdf", &cdf)
            .finish()
    }
}

impl HistogramPdf {
    /// Build from explicit bin edges and (unnormalized) bar heights.
    ///
    /// Heights are rescaled so the total mass is one.
    pub fn from_densities(edges: Vec<f64>, density: Vec<f64>) -> Result<Self> {
        Self::validate_edges(&edges)?;
        Self::check_bar_count(&edges, density.len())?;
        let mut buf = Vec::with_capacity(3 * density.len() + 2);
        buf.extend_from_slice(&edges);
        buf.extend_from_slice(&density);
        Self::normalize(buf)
    }

    /// Build from explicit bin edges and per-bin probability masses.
    pub fn from_masses(edges: Vec<f64>, masses: Vec<f64>) -> Result<Self> {
        Self::validate_edges(&edges)?;
        Self::check_bar_count(&edges, masses.len())?;
        let mut buf = Vec::with_capacity(3 * masses.len() + 2);
        buf.extend_from_slice(&edges);
        buf.extend_from_slice(&masses);
        Self::masses_to_densities(&mut buf);
        Self::normalize(buf)
    }

    /// Build from one buffer holding `n + 1` bin edges followed by `n`
    /// (unnormalized) bar heights — [`from_densities`](Self::from_densities)
    /// without the two input vectors. The heights are normalized in place
    /// and the cdf is appended, so a buffer allocated with capacity
    /// `3n + 2` becomes the histogram without reallocating.
    pub fn from_packed_densities(buf: Vec<f64>) -> Result<Self> {
        Self::validate_packed(&buf)?;
        Self::normalize(buf)
    }

    /// Build from one buffer holding `n + 1` bin edges followed by `n`
    /// per-bin probability masses — [`from_masses`](Self::from_masses)
    /// without the two input vectors (same arithmetic, same errors). Size
    /// the buffer's capacity `3n + 2` to build without reallocating.
    pub fn from_packed_masses(mut buf: Vec<f64>) -> Result<Self> {
        Self::validate_packed(&buf)?;
        Self::masses_to_densities(&mut buf);
        Self::normalize(buf)
    }

    /// Single-bar histogram — the exact representation of a uniform pdf.
    pub fn uniform(lo: f64, hi: f64) -> Result<Self> {
        let mut buf = Vec::with_capacity(5);
        buf.extend_from_slice(&[lo, hi, 1.0]);
        Self::from_packed_densities(buf)
    }

    /// Reassemble a histogram from the exact buffer a previous instance
    /// exposed through [`raw_parts`](Self::raw_parts) —
    /// `edges (n + 1) | densities (n) | cdf (n + 1)` — the transport codec
    /// for shipping an already-normalized histogram across a process
    /// boundary **bit for bit**.
    ///
    /// Unlike [`from_densities`](Self::from_densities) this constructor
    /// never renormalizes (renormalizing divides every density by the
    /// computed mass, which is not an identity in floating point even for
    /// an already-normalized histogram) and never re-accumulates the cdf;
    /// every invariant is *checked* instead: a length of the form `3n + 2`
    /// with `n ≥ 1`, edges strictly increasing and finite, densities
    /// non-negative and finite, cdf knots a monotone sequence in `[0, 1]`
    /// starting at 0, ending at exactly 1, and consistent with the bar
    /// masses to within accumulation rounding. `raw_parts → from_raw_parts
    /// → accessors` is the identity, so a decoded distribution compares
    /// equal (`PartialEq` on the raw `f64`s) to the one encoded.
    pub fn from_raw_parts(buf: Vec<f64>) -> Result<Self> {
        let n = buf.len().saturating_sub(2) / 3;
        Self::validate_edges(&buf[..(n + 1).min(buf.len())])?;
        if buf.len() != 3 * n + 2 {
            return Err(PdfError::LengthMismatch {
                expected: 3 * n + 2,
                actual: buf.len(),
            });
        }
        let (edges, rest) = buf.split_at(n + 1);
        let (density, cdf) = rest.split_at(n);
        Self::check_densities(density)?;
        if cdf[0] != 0.0 {
            return Err(PdfError::InvalidCdf {
                index: 0,
                value: cdf[0],
            });
        }
        if cdf[n] != 1.0 {
            return Err(PdfError::InvalidCdf {
                index: n,
                value: cdf[n],
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
            // (`normalize` sums `d·width` in order; a foreign cdf that
            // disagrees beyond rounding is not this histogram's cdf).
            let mass = density[i] * (edges[i + 1] - edges[i]);
            if (w[1] - w[0] - mass).abs() > 1e-9 + 1e-9 * mass.abs() {
                return Err(PdfError::InvalidCdf {
                    index: i + 1,
                    value: w[1],
                });
            }
        }
        Ok(Self { buf })
    }

    /// Equi-width histogram over `[lo, hi]` whose bar masses are the
    /// differences of `cdf` at the bin edges, normalized to total mass one.
    /// `cdf` is evaluated once per edge, in ascending order.
    pub(crate) fn equi_width_from_cdf<F: FnMut(f64) -> f64>(
        lo: f64,
        hi: f64,
        bars: usize,
        mut cdf: F,
    ) -> Result<Self> {
        if bars == 0 {
            return Err(PdfError::NonPositiveParameter {
                name: "bars",
                value: 0.0,
            });
        }
        let mut buf = Self::equi_width_edges(lo, hi, bars);
        let mut prev = cdf(buf[0]);
        for i in 1..=bars {
            let knot = cdf(buf[i]);
            buf.push((knot - prev).max(0.0));
            prev = knot;
        }
        Self::from_packed_masses(buf)
    }

    /// The `bars + 1` equi-width edges, in a buffer with room for the
    /// whole histogram.
    fn equi_width_edges(lo: f64, hi: f64, bars: usize) -> Vec<f64> {
        let w = (hi - lo) / bars as f64;
        let mut buf = Vec::with_capacity(3 * bars + 2);
        buf.extend((0..=bars).map(|i| if i == bars { hi } else { lo + i as f64 * w }));
        buf
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

    fn check_bar_count(edges: &[f64], bars: usize) -> Result<()> {
        if bars + 1 != edges.len() {
            return Err(PdfError::LengthMismatch {
                expected: edges.len() - 1,
                actual: bars,
            });
        }
        Ok(())
    }

    /// Validate a packed `edges (n + 1) | values (n)` buffer: the first
    /// `n + 1 = ⌊len / 2⌋ + 1` values are the edges.
    fn validate_packed(buf: &[f64]) -> Result<()> {
        let edges = &buf[..(buf.len() / 2 + 1).min(buf.len())];
        Self::validate_edges(edges)?;
        Self::check_bar_count(edges, buf.len() - edges.len())
    }

    fn check_densities(density: &[f64]) -> Result<()> {
        for (i, &d) in density.iter().enumerate() {
            if !(d >= 0.0) || !d.is_finite() {
                return Err(PdfError::InvalidDensity { index: i, value: d });
            }
        }
        Ok(())
    }

    /// Divide each mass of a validated packed buffer by its bin width.
    fn masses_to_densities(buf: &mut [f64]) {
        let n = buf.len() / 2;
        let (edges, masses) = buf.split_at_mut(n + 1);
        for (i, m) in masses.iter_mut().enumerate() {
            *m /= edges[i + 1] - edges[i];
        }
    }

    /// Finish a validated packed `edges | densities` buffer: check the
    /// densities, rescale them to unit mass and append the cdf knots.
    fn normalize(mut buf: Vec<f64>) -> Result<Self> {
        let n = buf.len() / 2;
        let (edges, density) = buf.split_at_mut(n + 1);
        Self::check_densities(density)?;
        let mut mass = 0.0;
        for (i, &d) in density.iter().enumerate() {
            mass += d * (edges[i + 1] - edges[i]);
        }
        if !(mass > 0.0) {
            return Err(PdfError::ZeroMass);
        }
        for d in density.iter_mut() {
            *d /= mass;
        }
        buf.reserve_exact(n + 1);
        buf.push(0.0);
        let mut acc = 0.0;
        for i in 0..n {
            acc += buf[n + 1 + i] * (buf[i + 1] - buf[i]);
            buf.push(acc);
        }
        // Guard against tiny rounding drift on the last knot.
        buf[3 * n + 1] = 1.0;
        Ok(Self { buf })
    }

    /// `(edges, densities, cdf knots)`.
    #[inline]
    fn parts(&self) -> (&[f64], &[f64], &[f64]) {
        let n = self.bar_count();
        let (edges, rest) = self.buf.split_at(n + 1);
        let (density, cdf) = rest.split_at(n);
        (edges, density, cdf)
    }

    /// Number of bars.
    #[inline]
    pub fn bar_count(&self) -> usize {
        (self.buf.len() - 2) / 3
    }

    /// Bin edges (length `bar_count() + 1`).
    #[inline]
    pub fn edges(&self) -> &[f64] {
        &self.buf[..self.bar_count() + 1]
    }

    /// Bar heights (length `bar_count()`), normalized.
    #[inline]
    pub(crate) fn densities(&self) -> &[f64] {
        self.parts().1
    }

    /// Cumulative masses at each edge (length `bar_count() + 1`).
    #[inline]
    pub fn cdf_at_edges(&self) -> &[f64] {
        &self.buf[2 * self.bar_count() + 1..]
    }

    /// The whole buffer, `edges | densities | cdf` (length
    /// `3 · bar_count() + 2`) — what [`from_raw_parts`](Self::from_raw_parts)
    /// takes back.
    pub fn raw_parts(&self) -> &[f64] {
        &self.buf
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
        let (edges, density, cdf) = self.parts();
        let n = density.len();
        let lo = edges[0];
        let hi = edges[n];
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
            while edges[b + 1] <= x0 {
                b += 1;
            }
            // The run of points that stay inside bin b (x0 always does).
            let (c, d, e) = (cdf[b], density[b], edges[b]);
            let next = edges[b + 1];
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
    pub(crate) fn bin_of(&self, x: f64) -> Option<usize> {
        let edges = self.edges();
        let n = edges.len() - 1;
        if x < edges[0] || x > edges[n] {
            return None;
        }
        if x == edges[n] {
            return Some(n - 1);
        }
        // partition_point returns the first index whose edge is > x.
        let idx = edges.partition_point(|&e| e <= x);
        Some(idx - 1)
    }
}

impl Pdf for HistogramPdf {
    #[inline]
    fn support(&self) -> (f64, f64) {
        let edges = self.edges();
        (edges[0], edges[edges.len() - 1])
    }

    #[inline]
    fn density(&self, x: f64) -> f64 {
        match self.bin_of(x) {
            Some(i) => self.densities()[i],
            None => 0.0,
        }
    }

    #[inline]
    fn cdf(&self, x: f64) -> f64 {
        let (edges, density, cdf) = self.parts();
        let n = density.len();
        if x <= edges[0] {
            return 0.0;
        }
        if x >= edges[n] {
            return 1.0;
        }
        // x is strictly inside the support, so this is `bin_of(x)`.
        let i = edges.partition_point(|&e| e <= x) - 1;
        (cdf[i] + density[i] * (x - edges[i])).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let (edges, density, cdf) = self.parts();
        let p = p.clamp(0.0, 1.0);
        let n = density.len();
        if p <= 0.0 {
            return edges[0];
        }
        if p >= 1.0 {
            return edges[n];
        }
        // First knot with cumulative mass >= p.
        let j = cdf.partition_point(|&c| c < p);
        let i = j.saturating_sub(1).min(n - 1);
        let d = density[i];
        if d <= 0.0 {
            // Zero-density bin: jump to its right edge.
            return edges[i + 1];
        }
        edges[i] + (p - cdf[i]) / d
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
