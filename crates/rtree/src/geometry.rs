//! Axis-aligned rectangles and the distance metrics used by the filtering
//! phase of the C-PNN pipeline.
//!
//! The paper's filtering step (\[8\], Sec. III) prunes every object whose
//! *minimum* distance from the query point exceeds `fmin`, the smallest
//! *maximum* distance among all objects. Both metrics ([`Rect::min_dist`] and
//! [`Rect::max_dist`]) are defined here for arbitrary dimension `D`; the
//! paper's experiments use `D = 1` (intervals) and the 2-D extension uses
//! `D = 2`.

/// An axis-aligned rectangle in `D` dimensions (an interval when `D = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    min: [f64; D],
    max: [f64; D],
}

impl<const D: usize> Rect<D> {
    /// Create a rectangle from its min and max corners.
    ///
    /// # Panics
    /// Panics if any `min[d] > max[d]` or any coordinate is not finite —
    /// geometry bugs should fail fast rather than corrupt the index.
    pub fn new(min: [f64; D], max: [f64; D]) -> Self {
        for d in 0..D {
            assert!(
                min[d].is_finite() && max[d].is_finite() && min[d] <= max[d],
                "invalid rect on dim {d}: [{}, {}]",
                min[d],
                max[d]
            );
        }
        Self { min, max }
    }

    /// Min corner.
    pub fn min(&self) -> &[f64; D] {
        &self.min
    }

    /// Max corner.
    pub fn max(&self) -> &[f64; D] {
        &self.max
    }

    /// Center point.
    pub(crate) fn center(&self) -> [f64; D] {
        let mut c = [0.0; D];
        for (d, v) in c.iter_mut().enumerate() {
            *v = 0.5 * (self.min[d] + self.max[d]);
        }
        c
    }

    /// Extent along dimension `d`.
    pub(crate) fn extent(&self, d: usize) -> f64 {
        self.max[d] - self.min[d]
    }

    /// Hyper-volume (length in 1-D, area in 2-D).
    pub(crate) fn area(&self) -> f64 {
        (0..D).map(|d| self.extent(d)).product()
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub(crate) fn union(&self, other: &Self) -> Self {
        let mut min = self.min;
        let mut max = self.max;
        for d in 0..D {
            min[d] = min[d].min(other.min[d]);
            max[d] = max[d].max(other.max[d]);
        }
        Self { min, max }
    }

    /// Area increase needed to absorb `other` (the Guttman insertion
    /// criterion).
    pub(crate) fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Do the two rectangles overlap (closed-boundary semantics)?
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Does `self` fully contain `other`?
    pub(crate) fn contains_rect(&self, other: &Self) -> bool {
        (0..D).all(|d| self.min[d] <= other.min[d] && other.max[d] <= self.max[d])
    }

    /// Euclidean distance from `p` to the *nearest* point of the rectangle
    /// (zero if `p` is inside). This is the `MINDIST` of Roussopoulos et al.
    /// and the paper's *near point* `ni` when applied to an uncertainty
    /// region.
    pub fn min_dist(&self, p: &[f64; D]) -> f64 {
        let mut s = 0.0;
        for (d, &x) in p.iter().enumerate() {
            let diff = if x < self.min[d] {
                self.min[d] - x
            } else if x > self.max[d] {
                x - self.max[d]
            } else {
                0.0
            };
            s += diff * diff;
        }
        s.sqrt()
    }

    /// Euclidean distance from `p` to the *farthest* point of the rectangle —
    /// the paper's *far point* `fi` when applied to an uncertainty region.
    pub fn max_dist(&self, p: &[f64; D]) -> f64 {
        let mut s = 0.0;
        for (d, &x) in p.iter().enumerate() {
            let diff = (x - self.min[d]).abs().max((x - self.max[d]).abs());
            s += diff * diff;
        }
        s.sqrt()
    }
}

impl Rect<1> {
    /// Convenience constructor for 1-D intervals.
    pub fn interval(lo: f64, hi: f64) -> Self {
        Self::new([lo], [hi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid rect")]
    fn inverted_rect_panics() {
        let _ = Rect::new([1.0], [0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid rect")]
    fn nan_rect_panics() {
        let _ = Rect::new([f64::NAN], [0.0]);
    }

    #[test]
    fn area_margin_center() {
        let r = Rect::new([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.center(), [1.0, 1.5]);
        assert_eq!(r.extent(1), 3.0);
    }

    #[test]
    fn union_and_enlargement() {
        let a = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let b = Rect::new([2.0, 0.0], [3.0, 2.0]);
        let u = a.union(&b);
        assert_eq!(u, Rect::new([0.0, 0.0], [3.0, 2.0]));
        assert_eq!(a.enlargement(&b), 6.0 - 1.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn intersection_predicates() {
        let a = Rect::interval(0.0, 2.0);
        let b = Rect::interval(2.0, 4.0); // touching counts as intersecting
        let c = Rect::interval(2.1, 4.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains_rect(&Rect::interval(0.5, 1.5)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn min_and_max_dist_1d() {
        let r = Rect::interval(2.0, 6.0);
        // Query left of the interval.
        assert_eq!(r.min_dist(&[0.0]), 2.0);
        assert_eq!(r.max_dist(&[0.0]), 6.0);
        // Query inside: near point 0, far point = distance to far edge.
        assert_eq!(r.min_dist(&[3.0]), 0.0);
        assert_eq!(r.max_dist(&[3.0]), 3.0);
        // Query right.
        assert_eq!(r.min_dist(&[8.0]), 2.0);
        assert_eq!(r.max_dist(&[8.0]), 6.0);
    }

    #[test]
    fn min_and_max_dist_2d() {
        let r = Rect::new([0.0, 0.0], [1.0, 1.0]);
        let q = [2.0, 0.5];
        assert!((r.min_dist(&q) - 1.0).abs() < 1e-12);
        // Farthest corner is (0,0) or (0,1): dist = sqrt(4 + 0.25)
        assert!((r.max_dist(&q) - (4.25f64).sqrt()).abs() < 1e-12);
        // Point inside.
        assert_eq!(r.min_dist(&[0.5, 0.5]), 0.0);
    }

    #[test]
    fn min_dist_never_exceeds_max_dist() {
        let r = Rect::new([-1.0, 2.0], [3.0, 5.0]);
        for q in [[-5.0, 0.0], [1.0, 3.0], [10.0, 10.0], [0.0, 4.9]] {
            assert!(r.min_dist(&q) <= r.max_dist(&q) + 1e-15);
        }
    }

    #[test]
    fn point_rect_is_degenerate() {
        let p = Rect::new([1.0, 2.0], [1.0, 2.0]);
        assert_eq!(p.area(), 0.0);
        assert_eq!(p.min_dist(&[1.0, 2.0]), 0.0);
        assert_eq!(p.max_dist(&[1.0, 2.0]), 0.0);
    }
}
