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
//! which has a closed form. The cdf is discretized (mass-preserving) into a
//! distance histogram ([`RadialCdf`], shared with rectangles), after which
//! the entire 1-D verifier machinery — subregions, RS/L-SR/U-SR,
//! refinement — applies unchanged through
//! [`crate::candidate::CandidateSet::from_distances`]. This module holds the
//! geometry only; queries over disks and rectangles run through
//! [`crate::engine2d::UncertainDb2d`].

use cpnn_pdf::HistogramPdf;

use crate::distance::DistanceDistribution;
use crate::error::{CoreError, Result};
use crate::object::ObjectId;

/// A 2-D uncertain object: uniform pdf over a disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircleObject {
    /// Object identifier.
    pub id: ObjectId,
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
    pub fn near(&self, q: [f64; 2]) -> f64 {
        (self.center_dist(q) - self.radius).max(0.0)
    }

    /// Maximum possible distance from `q` (the far point).
    pub fn far(&self, q: [f64; 2]) -> f64 {
        self.center_dist(q) + self.radius
    }

    fn center_dist(&self, q: [f64; 2]) -> f64 {
        let dx = self.center[0] - q[0];
        let dy = self.center[1] - q[1];
        (dx * dx + dy * dy).sqrt()
    }

    /// Distance cdf from `q`, `D(r) = lens(d, r, R)/(πR²)`, with the center
    /// distance and the disk area computed once.
    pub fn radial(&self, q: [f64; 2]) -> RadialCdf<impl Fn(f64) -> f64> {
        let (d, radius) = (self.center_dist(q), self.radius);
        let total = std::f64::consts::PI * radius * radius;
        RadialCdf {
            near: (d - radius).max(0.0),
            far: d + radius,
            cdf: move |r| (lens_area(d, r, radius) / total).clamp(0.0, 1.0),
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
/// support `[near, far]` and its cdf. Both region shapes reduce to this, and
/// [`RadialCdf::distribution`] is the one place a cdf becomes a histogram.
pub struct RadialCdf<F> {
    /// Minimum possible distance.
    pub near: f64,
    /// Maximum possible distance.
    pub far: f64,
    /// `Pr[distance ≤ r]`.
    pub cdf: F,
}

impl<F: Fn(f64) -> f64> RadialCdf<F> {
    /// Mass-preserving discretization onto `bins` equal-width bins, the cdf
    /// evaluated once per edge: already a histogram on the distance domain,
    /// so no fold is needed.
    pub fn distribution(&self, bins: usize) -> Result<DistanceDistribution> {
        let (near, far) = (self.near, self.far);
        let hist = HistogramPdf::equi_width_from_cdf(near, far, bins.max(2), &self.cdf)?;
        Ok(DistanceDistribution::from_histogram(hist))
    }
}

/// Area of the intersection of two disks with radii `r1`, `r2` and center
/// distance `d` (the circular lens).
pub fn lens_area(d: f64, r1: f64, r2: f64) -> f64 {
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
            let got = (o.radial([0.0, 0.0]).cdf)(r);
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
        assert!((d.cdf(6.5) - 1.0).abs() < 1e-12);
        assert!(d.cdf(3.5) < 1e-12);
        // Monotone cdf.
        let mut prev = 0.0;
        for i in 0..=20 {
            let r = 3.5 + 3.0 * i as f64 / 20.0;
            let c = d.cdf(r);
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

    /// Both shapes through the shared builder: the cdf is 0 at the near
    /// point, 1 at the far point, monotone in between, and the raw bin
    /// masses already sum to one before the histogram normalizes them.
    #[test]
    fn radial_cdfs_are_proper_for_both_shapes() {
        fn check<F: Fn(f64) -> f64>(radial: RadialCdf<F>, what: &str) {
            let RadialCdf { near, far, ref cdf } = radial;
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
                let edges = dist.breakpoints();
                assert_eq!(edges.len(), bins + 1);
                assert_eq!((edges[0], edges[bins]), (near, far));
                // The masses the builder saw, before the histogram
                // normalized them.
                let raw: f64 = edges
                    .windows(2)
                    .map(|e| (cdf(e[1]) - cdf(e[0])).max(0.0))
                    .sum();
                assert!((raw - 1.0).abs() <= 1e-9, "{what}: raw mass {raw}");
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
