//! Distance pdfs and cdfs (paper Definition 2, Fig. 6).
//!
//! For an uncertain object `Xi` and query point `q`, the random variable
//! `Ri = |Xi − q|` has a *distance pdf* `di(r)` and *distance cdf* `Di(r)`.
//! For a histogram uncertainty pdf the distance pdf is obtained exactly by
//! **folding** the histogram around `q`: `di(r) = f(q + r) + f(q − r)`, with
//! breakpoints at the folded images `|e − q|` of every bin edge `e` (plus 0
//! when `q` lies inside the region). The result is again a histogram, whose
//! cdf is piecewise linear — exactly the representation the subregion
//! machinery requires (Sec. IV-A).
//!
//! A 2-D region's distance cdf is a closed form instead, read on an
//! equi-width grid of knots that are computed only when first read
//! ([`crate::distance2d::KnotGrid`]). A [`DistanceDistribution`] is one of
//! the two; both are piecewise linear with their breakpoints known up
//! front, and the grid materialises as the histogram with the same knots
//! and the same reads ([`DistanceDistribution::histogram`]).

use std::borrow::Cow;

use cpnn_pdf::{discretize, HistogramPdf, Pdf};

use crate::distance2d::KnotGrid;
use crate::error::Result;

/// The distribution of `Ri = |Xi − q|` on `[near, far]` (paper
/// Definition 3: near point `ni`, far point `fi`): a histogram, or a
/// closed-form cdf on a knot grid.
///
/// Holds no memo: knots read through a grid go into a buffer the caller
/// owns (`cdf_many`), so a distribution shared between threads (a
/// cached candidate set) is never written.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceDistribution {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// A folded 1-D distance pdf, or a materialised grid (a decoded shard
    /// reply).
    Histogram(HistogramPdf),
    /// A 2-D distance cdf whose knots are computed when read.
    Knots(Box<KnotGrid>),
}

impl DistanceDistribution {
    /// Fold `pdf` around the query point `q`.
    ///
    /// The fold is exact: every returned histogram bin has constant density,
    /// with bin edges at the folded images of the source bin edges.
    ///
    /// It builds the histogram in one allocation: the folded breakpoints
    /// are merged straight into a buffer sized for the largest possible
    /// result (one breakpoint per source edge, plus 0 when `q` lies inside
    /// the support), the densities are appended behind them, and
    /// [`HistogramPdf::from_packed_densities`] normalizes them and appends
    /// the cdf in place.
    pub fn from_pdf(pdf: &HistogramPdf, q: f64) -> Result<Self> {
        let (lo, hi) = pdf.support();
        let edges = pdf.edges();
        // The folded breakpoints `|e − q|` form two sorted runs over the
        // ascending edges — strictly descending while `e < q`, ascending
        // from there — so merging the runs yields them sorted in O(n)
        // instead of a comparison sort. All values are non-negative
        // (`abs` never produces −0.0), so ties are bitwise equal and the
        // merged value sequence is exactly what sorting produced.
        let split = edges.partition_point(|&e| e < q);
        let n_edges = edges.len();
        let inside = q >= lo && q <= hi;
        // Largest breakpoint = what `breaks.last()` was after the old sort.
        let scale = (edges[0] - q)
            .abs()
            .max((edges[n_edges - 1] - q).abs())
            .max(1.0);
        // At most `m = n_edges + inside` breakpoints, so at most `m − 1`
        // bars and `3m − 1` values in the finished histogram (exactly that
        // for a uniform object unless two breakpoints coincide).
        let most = n_edges + usize::from(inside);
        let mut buf: Vec<f64> = Vec::with_capacity(3 * most - 1);
        let push = |buf: &mut Vec<f64>, v: f64| match buf.last() {
            Some(&last) if v - last <= 1e-12 * scale => {}
            _ => buf.push(v),
        };
        if inside {
            // 0 is the global minimum of `|e − q|`, so it merges in first.
            push(&mut buf, 0.0);
        }
        // `a` walks edges[..split] top-down (values ascending), `b` walks
        // edges[split..] bottom-up (values ascending).
        let (mut a, mut b) = (split, split);
        while a > 0 || b < n_edges {
            let va = if a > 0 {
                (edges[a - 1] - q).abs()
            } else {
                f64::INFINITY
            };
            let vb = if b < n_edges {
                (edges[b] - q).abs()
            } else {
                f64::INFINITY
            };
            if va <= vb {
                push(&mut buf, va);
                a -= 1;
            } else {
                push(&mut buf, vb);
                b += 1;
            }
        }
        debug_assert!(buf.len() >= 2, "degenerate distance support");
        let breaks = buf.len();
        for i in 1..breaks {
            let m = 0.5 * (buf[i - 1] + buf[i]);
            buf.push(pdf.density(q + m) + pdf.density(q - m));
        }
        Ok(Self::from_histogram(HistogramPdf::from_packed_densities(
            buf,
        )?))
    }

    /// Wrap an already-folded distance histogram — the decode half of the
    /// distributed-serving wire codec.
    ///
    /// A shard process builds its objects' distance distributions locally
    /// and ships each one's [`histogram`](Self::histogram) as raw parts;
    /// the router reassembles it through [`HistogramPdf::from_raw_parts`]
    /// (which validates every histogram invariant without renormalizing)
    /// and wraps it here. Because the round trip preserves every `f64` bit,
    /// and a knot grid reads exactly as its histogram, a routed
    /// candidate's cdf values are bitwise the ones a single-process
    /// [`ShardedDb`](crate::shard::ShardedDb) would have read, which is
    /// what makes routed answers bit-identical to local ones
    /// (property-tested in `crates/router/tests/proptest_router.rs`).
    pub fn from_histogram(hist: HistogramPdf) -> Self {
        Self {
            repr: Repr::Histogram(hist),
        }
    }

    /// A closed-form cdf on a knot grid (built by
    /// [`crate::distance2d::RadialCdf::distribution`]).
    pub(crate) fn from_knots(grid: KnotGrid) -> Self {
        Self {
            repr: Repr::Knots(Box::new(grid)),
        }
    }

    /// Re-bin onto at most `max_bins` equal-width bins (mass-preserving at
    /// the new edges). This is the paper's "represent a distance pdf as a
    /// histogram" step: it bounds the number of subregion endpoints, trading
    /// resolution for verifier cost. Folds of uniform objects (≤ 3 bins) are
    /// returned unchanged.
    pub(crate) fn with_max_bins(self, max_bins: usize) -> Result<Self> {
        if max_bins == 0 || self.breakpoints().len() - 1 <= max_bins {
            return Ok(self);
        }
        Ok(Self::from_histogram(discretize(
            self.histogram().as_ref(),
            max_bins,
        )?))
    }

    /// Near point `ni`: the minimum possible distance.
    pub(crate) fn near(&self) -> f64 {
        match &self.repr {
            Repr::Histogram(hist) => hist.support().0,
            Repr::Knots(grid) => grid.edge(0),
        }
    }

    /// Far point `fi`: the maximum possible distance.
    pub fn far(&self) -> f64 {
        match &self.repr {
            Repr::Histogram(hist) => hist.support().1,
            Repr::Knots(grid) => grid.edge(grid.bins()),
        }
    }

    /// Bulk cdf evaluation over an **ascending** slice of radii into
    /// `out[..rs.len()]`, bit-identical to the histogram's pointwise cdf:
    /// a single merge pass over the histogram edges
    /// ([`HistogramPdf::cdf_many`]), or over a knot grid's bins reading the
    /// knots `k_0 …` already in `knots` (empty at first) and extending them
    /// as far as it reads, counting closed-form evaluations in `evals`. A
    /// histogram leaves both alone. The caller owns the knots, so a
    /// distribution shared between threads is never written.
    pub(crate) fn cdf_many(
        &self,
        rs: &[f64],
        out: &mut [f64],
        knots: &mut Vec<f64>,
        evals: &mut usize,
    ) {
        match &self.repr {
            Repr::Histogram(hist) => hist.cdf_many(rs, out),
            Repr::Knots(grid) => grid.cdf_many(rs, out, knots, evals),
        }
    }

    /// Bin edges of the distance histogram, ascending — the "points at
    /// which the distance pdf changes" that must become subregion
    /// endpoints. A knot grid computes them without evaluating its cdf.
    pub fn breakpoints(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        let edges = match &self.repr {
            Repr::Histogram(hist) => hist.edges().len(),
            Repr::Knots(grid) => grid.bins() + 1,
        };
        (0..edges).map(|m| self.edge(m))
    }

    /// The distribution as a histogram: the stored one, or a knot grid
    /// materialised (one allocation, every knot computed).
    pub fn histogram(&self) -> Cow<'_, HistogramPdf> {
        match &self.repr {
            Repr::Histogram(hist) => Cow::Borrowed(hist),
            Repr::Knots(grid) => Cow::Owned(grid.histogram()),
        }
    }

    /// Is this a histogram already (rather than a knot grid)?
    pub fn is_histogram(&self) -> bool {
        matches!(self.repr, Repr::Histogram(_))
    }

    fn edge(&self, m: usize) -> f64 {
        match &self.repr {
            Repr::Histogram(hist) => hist.edges()[m],
            Repr::Knots(grid) => grid.edge(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 6(b): uniform object on [l, u], query inside.
    #[test]
    fn fold_uniform_query_inside() {
        // X1 uniform on [0, 10], q = 3. Distance pdf: 2/10 on [0,3], 1/10 on [3,7].
        let pdf = HistogramPdf::uniform(0.0, 10.0).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 3.0).unwrap();
        assert_eq!(d.near(), 0.0);
        assert_eq!(d.far(), 7.0);
        assert!((d.histogram().density(1.0) - 0.2).abs() < 1e-12);
        assert!((d.histogram().density(5.0) - 0.1).abs() < 1e-12);
        assert!((d.histogram().cdf(3.0) - 0.6).abs() < 1e-12);
        assert!((d.histogram().cdf(7.0) - 1.0).abs() < 1e-12);
        // cdf is piecewise linear: halfway along [3,7] adds half of 0.4.
        assert!((d.histogram().cdf(5.0) - 0.8).abs() < 1e-12);
    }

    /// Paper Fig. 6(c): query outside the region — the distance pdf is a
    /// pure shift of the uncertainty pdf.
    #[test]
    fn fold_uniform_query_outside() {
        let pdf = HistogramPdf::uniform(4.0, 9.0).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 1.0).unwrap();
        assert_eq!(d.near(), 3.0);
        assert_eq!(d.far(), 8.0);
        assert!((d.histogram().density(5.0) - 0.2).abs() < 1e-12);
        assert_eq!(d.histogram().density(2.0), 0.0);
        assert!((d.histogram().cdf(5.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fold_at_exact_center_merges_breakpoints() {
        let pdf = HistogramPdf::uniform(0.0, 10.0).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 5.0).unwrap();
        assert_eq!(d.near(), 0.0);
        assert_eq!(d.far(), 5.0);
        // All mass folds symmetrically: density 2·(1/10).
        assert!((d.histogram().density(2.0) - 0.2).abs() < 1e-12);
        assert!((d.histogram().cdf(5.0) - 1.0).abs() < 1e-12);
        assert_eq!(d.histogram().bar_count(), 1);
    }

    #[test]
    fn fold_multibar_histogram_is_exact() {
        // Two bars: [0,2] mass 0.25, [2,6] mass 0.75; q = 4 (inside bar 2).
        let pdf = HistogramPdf::from_masses(vec![0.0, 2.0, 6.0], vec![0.25, 0.75]).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 4.0).unwrap();
        assert_eq!(d.near(), 0.0);
        assert_eq!(d.far(), 4.0);
        // For r in [0, 2): density = f(4+r) + f(4-r) = 0.1875 + 0.1875 (both in bar 2,
        // height 0.75/4) except 4+r leaves support at r=2.
        assert!((d.histogram().density(1.0) - 0.375).abs() < 1e-12);
        // For r in (2, 4): 4+r outside; 4-r in bar 1 (height 0.125).
        assert!((d.histogram().density(3.0) - 0.125).abs() < 1e-12);
        // Total mass must be 1.
        assert!((d.histogram().cdf(4.0) - 1.0).abs() < 1e-12);
        // Cross-check masses: Pr[R ≤ 2] = mass of [2,6] = 0.75.
        assert!((d.histogram().cdf(2.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rebinning_preserves_mass_and_support() {
        let pdf = HistogramPdf::from_masses((0..=100).map(|i| i as f64).collect(), vec![0.01; 100])
            .unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 17.3).unwrap();
        let (near, far) = (d.near(), d.far());
        let coarse = d.clone().with_max_bins(16).unwrap();
        assert_eq!(coarse.histogram().bar_count(), 16);
        assert!((coarse.near() - near).abs() < 1e-12);
        assert!((coarse.far() - far).abs() < 1e-12);
        assert!((coarse.histogram().cdf(far) - 1.0).abs() < 1e-12);
        // Coarse cdf approximates the fine cdf.
        for r in [5.0, 20.0, 40.0, 70.0] {
            assert!(
                (coarse.histogram().cdf(r) - d.histogram().cdf(r)).abs() < 0.08,
                "r = {r}"
            );
        }
    }

    #[test]
    fn rebinning_noop_when_already_coarse() {
        let pdf = HistogramPdf::uniform(0.0, 1.0).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 0.5).unwrap();
        let same = d.clone().with_max_bins(64).unwrap();
        assert_eq!(d, same);
    }

    #[test]
    fn cdf_many_matches_scalar_bitwise() {
        let pdf = HistogramPdf::from_masses(vec![0.0, 2.0, 6.0], vec![0.25, 0.75]).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 4.0).unwrap();
        let rs = [-1.0, 0.0, 0.5, 1.0, 2.0, 2.0, 3.7, 4.0, 9.0];
        let mut out = [f64::NAN; 9];
        d.cdf_many(&rs, &mut out, &mut Vec::new(), &mut 0);
        for (&r, &v) in rs.iter().zip(&out) {
            assert_eq!(v.to_bits(), d.histogram().cdf(r).to_bits(), "r = {r}");
        }
    }

    #[test]
    fn quantile_round_trips() {
        let pdf = HistogramPdf::from_masses(vec![0.0, 1.0, 5.0], vec![0.5, 0.5]).unwrap();
        let d = DistanceDistribution::from_pdf(&pdf, 2.0).unwrap();
        for p in [0.1, 0.5, 0.9] {
            let r = d.histogram().quantile(p);
            assert!((d.histogram().cdf(r) - p).abs() < 1e-9);
        }
    }
}
