//! 2-D uncertainty: circular regions with uniform pdfs.
//!
//! The paper focuses on 1-D but notes (Sec. IV-A): "our solution only needs
//! distance pdfs and cdfs. Thus, our solution can be extended to 2D space,
//! by computing the distance pdf and cdf from the 2D uncertainty regions,
//! using the formulae discussed in \[8\]" — \[8\] derives them for circles.
//!
//! For a uniform disk of center `c`, radius `R`, and a query point `q` at
//! distance `d = |q − c|`, the distance cdf is a *lens area* ratio:
//!
//! ```text
//! D(r) = area( disk(q, r) ∩ disk(c, R) ) / (π R²)
//! ```
//!
//! which has a closed form — as has the rectangle's ([`crate::geometry2d`]).
//! The verifiers only ever read a distance cdf at subregion end-points, so a
//! 2-D distance distribution is not a histogram built up front but a
//! [`KnotGrid`]: the piecewise-linear cdf through *knots* of the closed form
//! on `bins` equi-width edges of `[near, far]`,
//!
//! ```text
//! k_0 = 0,   k_m = max(k_{m−1}, clamp(D(e_m), 0, 1)),   k_bins = 1,
//! ```
//!
//! read as `(k_m + d_m·(r − e_m)).clamp(0, 1)` on bin `m`, with
//! `d_m = (k_{m+1} − k_m)/(e_{m+1} − e_m)`. The edges are known before any
//! cdf is evaluated, and the knots are computed in edge order only as far
//! as a read needs them — for the subregion table, never past the first
//! edge beyond the candidate set's horizon (the knots live in the table,
//! which is per-query scratch). The knots are not renormalised: the closed
//! forms already are, and renormalising would need every knot before any
//! one could be read. [`DistanceDistribution::histogram`] materialises the
//! same knots, densities and reads as a [`HistogramPdf`] — what a shard
//! reply ships and what the Basic strategy integrates — bit for bit. After
//! that the entire 1-D verifier machinery — subregions, RS/L-SR/U-SR,
//! refinement — applies unchanged through
//! [`crate::candidate::CandidateSet::from_distances`]. This module holds
//! the geometry only; queries over disks and rectangles run through
//! [`crate::engine2d::UncertainDb2d`].

use cpnn_pdf::{HistogramPdf, PdfError};

use crate::distance::DistanceDistribution;
use crate::error::{CoreError, Result};
use crate::geometry2d::{disk_rect_intersection_area, Rect2};
use crate::object::ObjectId;

/// A 2-D uncertain object: uniform pdf over a disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleObject {
    /// Object identifier.
    pub(crate) id: ObjectId,
    /// Disk center.
    pub center: [f64; 2],
    /// Disk radius (must be positive).
    pub radius: f64,
}

impl CircleObject {
    /// Validated constructor.
    pub fn new(id: ObjectId, center: [f64; 2], radius: f64) -> Result<Self> {
        // `!(radius > 0.0)` rather than `radius <= 0.0`: also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(radius > 0.0) || !radius.is_finite() {
            return Err(CoreError::Pdf(cpnn_pdf::PdfError::NonPositiveParameter {
                name: "radius",
                value: radius,
            }));
        }
        check_finite_point(center)?;
        Ok(Self { id, center, radius })
    }

    /// Minimum possible distance from `q` (the near point).
    pub(crate) fn near(&self, q: [f64; 2]) -> f64 {
        (self.center_dist(q) - self.radius).max(0.0)
    }

    /// Maximum possible distance from `q` (the far point).
    pub(crate) fn far(&self, q: [f64; 2]) -> f64 {
        self.center_dist(q) + self.radius
    }

    fn center_dist(&self, q: [f64; 2]) -> f64 {
        let dx = self.center[0] - q[0];
        let dy = self.center[1] - q[1];
        (dx * dx + dy * dy).sqrt()
    }

    /// Distance cdf from `q`, `D(r) = lens(d, r, R)/(πR²)`, with the center
    /// distance computed once.
    pub fn radial(&self, q: [f64; 2]) -> RadialCdf {
        let (d, radius) = (self.center_dist(q), self.radius);
        RadialCdf {
            near: (d - radius).max(0.0),
            far: d + radius,
            shape: Shape::Disk { d, radius },
        }
    }
}

/// Reject a non-finite 2-D point, reporting the first coordinate that failed.
pub(crate) fn check_finite_point(p: [f64; 2]) -> Result<()> {
    match p.iter().find(|v| !v.is_finite()) {
        Some(&bad) => Err(CoreError::InvalidQueryPoint(bad)),
        None => Ok(()),
    }
}

/// The distance from a fixed query point to a uniform 2-D region: its
/// support `[near, far]` and its closed-form cdf ([`Self::cdf`]). Both
/// region shapes reduce to this, and [`RadialCdf::distribution`] is the one
/// place a cdf becomes a distance distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialCdf {
    /// Minimum possible distance.
    pub(crate) near: f64,
    /// Maximum possible distance.
    pub(crate) far: f64,
    shape: Shape,
}

/// The region a [`RadialCdf`] measures, as its closed form needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// A disk of `radius` whose center lies `d` from the query point.
    Disk { d: f64, radius: f64 },
    /// A rectangle seen from `q`.
    Rect { q: [f64; 2], rect: Rect2 },
}

impl RadialCdf {
    /// The distance cdf of `rect` from `q`.
    pub(crate) fn rect(q: [f64; 2], rect: Rect2) -> Self {
        Self {
            near: rect.near(q),
            far: rect.far(q),
            shape: Shape::Rect { q, rect },
        }
    }

    /// `Pr[distance ≤ r]`, clamped to `[0, 1]`.
    pub(crate) fn cdf(&self, r: f64) -> f64 {
        let area = match self.shape {
            Shape::Disk { d, radius } => {
                lens_area(d, r, radius) / (std::f64::consts::PI * radius * radius)
            }
            Shape::Rect { q, rect } => disk_rect_intersection_area(q, r, &rect) / rect.area(),
        };
        area.clamp(0.0, 1.0)
    }

    /// The distance distribution on `bins` equi-width bins of
    /// `[near, far]` (at least 2): a [`KnotGrid`], whose knots are computed
    /// when first read. Fails where a histogram on those edges could not
    /// exist (edges that do not strictly increase).
    pub fn distribution(&self, bins: usize) -> Result<DistanceDistribution> {
        Ok(DistanceDistribution::from_knots(KnotGrid::new(
            *self, bins,
        )?))
    }
}

/// A closed-form distance cdf on `bins` equi-width edges of `[near, far]`
/// (see the module docs): the edges are computed with the arithmetic of
/// [`HistogramPdf`]'s equi-width constructors, the knots only when read,
/// into a buffer the caller keeps ([`DistanceDistribution::cdf_many`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KnotGrid {
    radial: RadialCdf,
    bins: usize,
    /// `(far − near) / bins`.
    width: f64,
}

impl KnotGrid {
    /// Grid of `bins.max(2)` bins, rejecting edges a histogram would reject
    /// — not strictly increasing, not finite, or so close that a bar's
    /// density overflows — so [`Self::histogram`] cannot fail.
    fn new(radial: RadialCdf, bins: usize) -> Result<Self> {
        let bins = bins.max(2);
        let width = (radial.far - radial.near) / bins as f64;
        let grid = Self {
            radial,
            bins,
            width,
        };
        // Rounding moves an edge by at most a few ulps of the larger end
        // point, so edges this far apart increase without checking each.
        let scale = radial.near.abs().max(radial.far.abs());
        let spaced = width > 16.0 * f64::EPSILON * scale && (2.0 / width).is_finite();
        if !spaced {
            for m in 0..bins {
                let (e, next) = (grid.edge(m), grid.edge(m + 1));
                if !(e < next
                    && e.is_finite()
                    && next.is_finite()
                    && (2.0 / (next - e)).is_finite())
                {
                    return Err(CoreError::Pdf(PdfError::UnsortedEdges { index: m }));
                }
            }
        }
        Ok(grid)
    }

    /// Number of bins.
    pub(crate) fn bins(&self) -> usize {
        self.bins
    }

    /// Edge `e_m`, `m ∈ 0..=bins`: `near + m·width`, and exactly `far` at
    /// `m = bins`.
    #[inline]
    pub(crate) fn edge(&self, m: usize) -> f64 {
        if m == self.bins {
            self.radial.far
        } else {
            self.radial.near + m as f64 * self.width
        }
    }

    /// Knot `k_at`, given `k_{at−1}` (`None` at `at = 0`), counting a
    /// closed-form evaluation in `evals`.
    #[inline]
    fn knot(&self, at: usize, prev: Option<f64>, evals: &mut usize) -> f64 {
        match prev {
            None => 0.0,
            Some(_) if at == self.bins => 1.0,
            Some(prev) => {
                *evals += 1;
                prev.max(self.radial.cdf(self.edge(at)))
            }
        }
    }

    /// Extend `knots` (the knots `k_0 …` computed so far) through `k_m`.
    #[inline]
    fn extend(&self, knots: &mut Vec<f64>, m: usize, evals: &mut usize) {
        while knots.len() <= m {
            let knot = self.knot(knots.len(), knots.last().copied(), evals);
            knots.push(knot);
        }
    }

    /// The cdf over an **ascending** slice of radii into `out`, reading
    /// (and extending) the knots already in `knots`: `0` at or below
    /// `near`, `1` at or beyond `far`, and on bin `m` (the last whose left
    /// edge is `≤ r`) the read of the module docs — exactly the cdf of
    /// [`Self::histogram`]. A read on bin `m` needs `k_{m+1}`, so the knots
    /// end at the first edge past the largest radius read.
    pub(crate) fn cdf_many(
        &self,
        rs: &[f64],
        out: &mut [f64],
        knots: &mut Vec<f64>,
        evals: &mut usize,
    ) {
        debug_assert!(rs.windows(2).all(|w| w[0] <= w[1]), "ascending radii");
        debug_assert_eq!(rs.len(), out.len());
        let (lo, hi) = (self.radial.near, self.radial.far);
        // The runs outside the support, then one run per bin with the bin's
        // constants hoisted — the shape of `HistogramPdf::cdf_many`.
        let mut i = 0;
        while i < rs.len() && rs[i] <= lo {
            out[i] = 0.0;
            i += 1;
        }
        let mut end = rs.len();
        while end > i && rs[end - 1] >= hi {
            end -= 1;
            out[end] = 1.0;
        }
        let mut m = 0;
        while i < end {
            while self.edge(m + 1) <= rs[i] {
                m += 1;
            }
            self.extend(knots, m + 1, evals);
            let (e, next) = (self.edge(m), self.edge(m + 1));
            let (c, d) = (knots[m], (knots[m + 1] - knots[m]) / (next - e));
            loop {
                out[i] = (c + d * (rs[i] - e)).clamp(0.0, 1.0);
                i += 1;
                if i == end || rs[i] >= next {
                    break;
                }
            }
        }
    }

    /// Materialise every knot as a histogram — one allocation, laid out
    /// `edges | densities | knots` and checked by
    /// [`HistogramPdf::from_raw_parts`], never renormalised.
    pub(crate) fn histogram(&self) -> HistogramPdf {
        let n = self.bins;
        let mut buf = Vec::with_capacity(3 * n + 2);
        buf.extend((0..=n).map(|m| self.edge(m)));
        buf.resize(2 * n + 1, 0.0);
        for at in 0..=n {
            let prev = (at > 0).then(|| buf[buf.len() - 1]);
            let knot = self.knot(at, prev, &mut 0);
            buf.push(knot);
        }
        let (head, knots) = buf.split_at_mut(2 * n + 1);
        for m in 0..n {
            head[n + 1 + m] = (knots[m + 1] - knots[m]) / (head[m + 1] - head[m]);
        }
        HistogramPdf::from_raw_parts(buf).expect("a validated knot grid is a histogram")
    }
}

/// Area of the intersection of two disks with radii `r1`, `r2` and center
/// distance `d` (the circular lens).
pub(crate) fn lens_area(d: f64, r1: f64, r2: f64) -> f64 {
    if r1 <= 0.0 || r2 <= 0.0 {
        return 0.0;
    }
    if d >= r1 + r2 {
        return 0.0;
    }
    let rmin = r1.min(r2);
    if d <= (r1 - r2).abs() {
        return std::f64::consts::PI * rmin * rmin;
    }
    let alpha = ((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)).clamp(-1.0, 1.0);
    let beta = ((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)).clamp(-1.0, 1.0);
    let t1 = r1 * r1 * alpha.acos();
    let t2 = r2 * r2 * beta.acos();
    let s = ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)).max(0.0);
    t1 + t2 - 0.5 * s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_pdf::Pdf;

    use crate::engine2d::{Object2d, UncertainDb2d};
    use crate::geometry2d::Rect2;
    use crate::pipeline::DistanceModel;

    #[test]
    fn lens_area_limits() {
        let pi = std::f64::consts::PI;
        // Disjoint.
        assert_eq!(lens_area(5.0, 2.0, 2.0), 0.0);
        // Contained.
        assert!((lens_area(0.5, 1.0, 5.0) - pi).abs() < 1e-12);
        // Identical circles fully overlapping.
        assert!((lens_area(0.0, 2.0, 2.0) - 4.0 * pi).abs() < 1e-12);
        // Half-overlap symmetry: lens(d, r, r) at d = r is 2r²(π/3 − √3/4).
        let r: f64 = 3.0;
        let expect = 2.0 * r * r * (pi / 3.0 - 3.0f64.sqrt() / 4.0);
        assert!((lens_area(r, r, r) - expect).abs() < 1e-9);
    }

    #[test]
    fn cdf_from_disk_center_is_r_squared() {
        // q at the disk center: D(r) = (r/R)².
        let o = CircleObject::new(ObjectId(0), [0.0, 0.0], 2.0).unwrap();
        for r in [0.0, 0.5, 1.0, 1.5, 2.0] {
            let want = (r / 2.0) * (r / 2.0);
            let got = o.radial([0.0, 0.0]).cdf(r);
            assert!((got - want).abs() < 1e-12, "r = {r}: {got} vs {want}");
        }
    }

    #[test]
    fn distance_distribution_is_normalized_and_bounded() {
        let o = CircleObject::new(ObjectId(0), [3.0, 4.0], 1.5).unwrap();
        let q = [0.0, 0.0];
        let d = o.radial(q).distribution(64).unwrap();
        assert!((d.near() - 3.5).abs() < 1e-12); // |q−c| = 5, R = 1.5
        assert!((d.far() - 6.5).abs() < 1e-12);
        assert!((d.histogram().cdf(6.5) - 1.0).abs() < 1e-12);
        assert!(d.histogram().cdf(3.5) < 1e-12);
        // Monotone cdf.
        let mut prev = 0.0;
        for i in 0..=20 {
            let r = 3.5 + 3.0 * i as f64 / 20.0;
            let c = d.histogram().cdf(r);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn symmetric_circles_split_evenly() {
        let db = UncertainDb2d::build(vec![
            Object2d::circle(ObjectId(0), [2.0, 0.0], 1.0).unwrap(),
            Object2d::circle(ObjectId(1), [-2.0, 0.0], 1.0).unwrap(),
        ])
        .unwrap();
        for (_, p) in &db.pnn([0.0, 0.0]).unwrap().probabilities {
            assert!((p - 0.5).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn nearer_circle_dominates() {
        let db = UncertainDb2d::build(vec![
            Object2d::circle(ObjectId(0), [1.0, 0.0], 0.5).unwrap(),
            Object2d::circle(ObjectId(1), [5.0, 0.0], 0.5).unwrap(),
        ])
        .unwrap();
        let probs = db.pnn([0.0, 0.0]).unwrap().probabilities;
        assert_eq!(probs[0].0, ObjectId(0));
        assert!((probs[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cpnn_2d_answers_match_exact_thresholding() {
        let objects: Vec<Object2d> = (0..8)
            .map(|i| {
                let angle = i as f64 * 0.7;
                Object2d::circle(
                    ObjectId(i),
                    [
                        (2.0 + 0.4 * i as f64) * angle.cos(),
                        (2.0 + 0.4 * i as f64) * angle.sin(),
                    ],
                    0.8 + 0.1 * i as f64,
                )
                .unwrap()
            })
            .collect();
        let db = UncertainDb2d::build(objects).unwrap();
        let q = [0.5, 0.5];
        let exact = db.pnn(q).unwrap().probabilities;
        for threshold in [0.2, 0.4, 0.6] {
            let res = db.cpnn(q, threshold, 0.0).unwrap();
            let mut want: Vec<ObjectId> = exact
                .iter()
                .filter(|(_, p)| *p >= threshold)
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(res.answers, want, "P = {threshold}");
        }
    }

    #[test]
    fn probabilities_sum_to_one_2d() {
        let objects: Vec<Object2d> = (0..6)
            .map(|i| {
                Object2d::circle(
                    ObjectId(i),
                    [i as f64, (i % 3) as f64],
                    1.0 + 0.2 * i as f64,
                )
                .unwrap()
            })
            .collect();
        let db = UncertainDb2d::build(objects).unwrap();
        let total: f64 = db
            .pnn([1.5, 1.0])
            .unwrap()
            .probabilities
            .iter()
            .map(|(_, p)| p)
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn invalid_circles_rejected() {
        assert!(CircleObject::new(ObjectId(0), [0.0, 0.0], 0.0).is_err());
        assert!(CircleObject::new(ObjectId(0), [0.0, 0.0], -1.0).is_err());
        assert!(CircleObject::new(ObjectId(0), [f64::NAN, 0.0], 1.0).is_err());
    }

    #[test]
    fn non_finite_points_report_the_coordinate_that_failed() {
        let inf = f64::INFINITY;
        assert_eq!(
            CircleObject::new(ObjectId(0), [0.0, inf], 1.0),
            Err(CoreError::InvalidQueryPoint(inf))
        );
        assert_eq!(
            CircleObject::new(ObjectId(0), [-inf, 2.0], 1.0),
            Err(CoreError::InvalidQueryPoint(-inf))
        );
        let db = UncertainDb2d::build(Vec::new()).unwrap();
        assert_eq!(
            db.check_query(&[3.0, inf]),
            Err(CoreError::InvalidQueryPoint(inf))
        );
        assert!(matches!(
            db.check_query(&[3.0, f64::NAN]),
            Err(CoreError::InvalidQueryPoint(v)) if v.is_nan()
        ));
        assert_eq!(db.check_query(&[3.0, -4.0]), Ok(()));
    }

    /// Reads through the knot memo — at every edge, mid-bin and outside
    /// the support, in one ascending sweep and one radius at a time — are
    /// bit-equal to the materialised histogram's cdf, and a sweep stops
    /// computing knots at the first edge past the largest radius it reads.
    fn lazy_reads_match_histogram(grid: &KnotGrid, what: &str) {
        let hist = grid.histogram();
        let n = grid.bins();
        let mut rs = vec![grid.edge(0) - 1.0, grid.edge(n) + 1.0];
        for m in 0..=n {
            rs.push(grid.edge(m));
            if m < n {
                rs.push(0.5 * (grid.edge(m) + grid.edge(m + 1)));
            }
        }
        rs.sort_by(f64::total_cmp);
        let mut out = vec![f64::NAN; rs.len()];
        let (mut knots, mut evals) = (Vec::new(), 0);
        grid.cdf_many(&rs, &mut out, &mut knots, &mut evals);
        assert_eq!(&knots[..], hist.cdf_at_edges(), "{what}: knots");
        assert_eq!(evals, n - 1, "{what}: k_0 and k_n are not evaluated");
        for (&r, &v) in rs.iter().zip(&out) {
            assert_eq!(v.to_bits(), hist.cdf(r).to_bits(), "{what}: r = {r}");
            let (mut one, mut knots) = ([f64::NAN], Vec::new());
            grid.cdf_many(&[r], &mut one, &mut knots, &mut 0);
            assert_eq!(one[0].to_bits(), v.to_bits(), "{what}: alone, r = {r}");
            let needed = (0..=n).find(|&m| grid.edge(m) > r).unwrap_or(0);
            let past = if r > grid.edge(0) && r < grid.edge(n) {
                needed + 1
            } else {
                0
            };
            assert_eq!(knots.len(), past, "{what}: knots for r = {r}");
        }
    }

    /// Both shapes through the shared builder: the cdf is 0 at the near
    /// point, 1 at the far point, monotone in between, and the closed form's
    /// bin masses sum to one on every grid — which is why the knots need no
    /// renormalising.
    #[test]
    fn radial_cdfs_are_proper_for_both_shapes() {
        fn check(radial: RadialCdf, what: &str) {
            let RadialCdf { near, far, .. } = radial;
            let cdf = |r: f64| radial.cdf(r);
            assert!(
                cdf(near).abs() <= 1e-12,
                "{what}: cdf(near) = {}",
                cdf(near)
            );
            assert!(
                (cdf(far) - 1.0).abs() <= 1e-12,
                "{what}: cdf(far) = {}",
                cdf(far)
            );
            let mut prev = 0.0;
            for i in 0..=400 {
                let c = cdf(near + (far - near) * i as f64 / 400.0);
                assert!(c >= prev - 1e-12, "{what}: cdf falls at step {i}");
                prev = c;
            }
            for bins in [2, 48, 97] {
                let dist = radial.distribution(bins).unwrap();
                let edges: Vec<f64> = dist.breakpoints().collect();
                assert_eq!(edges.len(), bins + 1);
                assert_eq!((edges[0], edges[bins]), (near, far));
                assert_eq!(dist.histogram().edges(), &edges[..]);
                let raw: f64 = edges
                    .windows(2)
                    .map(|e| (cdf(e[1]) - cdf(e[0])).max(0.0))
                    .sum();
                assert!((raw - 1.0).abs() <= 1e-9, "{what}: raw mass {raw}");
                lazy_reads_match_histogram(&KnotGrid::new(radial, bins).unwrap(), what);
            }
        }
        let queries = [
            [0.0, 0.0],
            [2.5, 3.5],
            [2.0, 3.0],
            [-40.0, 17.0],
            [2.0, 90.0],
        ];
        let circles = [([2.5, 3.5], 1.5), ([0.3, -0.2], 0.01), ([-7.0, 2.0], 30.0)];
        let rects = [
            ([2.0, 3.0], [5.0, 4.0]),
            ([-1.0, -1.0], [1.0, 1.0]),
            ([0.0, 0.0], [300.0, 1.5]),
            ([1.75, -40.0], [2.25, 40.0]),
        ];
        for q in queries {
            for (center, radius) in circles {
                let c = CircleObject::new(ObjectId(0), center, radius).unwrap();
                check(c.radial(q), &format!("{c:?} from {q:?}"));
            }
            for (min, max) in rects {
                let r = Rect2::new(min, max).unwrap();
                check(r.radial(q), &format!("{r:?} from {q:?}"));
            }
        }
    }
}
