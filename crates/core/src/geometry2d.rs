//! 2-D geometry for rectangular uncertainty regions.
//!
//! A uniform pdf over an axis-aligned rectangle has distance cdf
//! `D(r) = area(disk(q, r) ∩ rect) / area(rect)` — the rectangle analogue
//! of the circular lens of [`crate::distance2d`], and closed-form like it.
//! In query-centred coordinates the disk's chord at height `y` is
//! `[−w(y), w(y)]`, `w(y) = √(r² − y²)`, so the area is `K(x_max) − K(x_min)`
//! with `K(a) = ∫ clamp(a, −w(y), w(y)) dy` over the rectangle's vertical
//! overlap with the disk. The integrand is `a` where the chord reaches past
//! `a` and `±w(y)` elsewhere; both pieces have elementary primitives.

use crate::distance2d::RadialCdf;
use crate::error::{CoreError, Result};

/// An axis-aligned rectangle `[min, max]` in 2-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect2 {
    /// Lower-left corner.
    pub min: [f64; 2],
    /// Upper-right corner.
    pub max: [f64; 2],
}

impl Rect2 {
    /// Validated constructor: every coordinate finite and `min < max` on
    /// both axes. The error names the first axis that fails.
    pub(crate) fn new(min: [f64; 2], max: [f64; 2]) -> Result<Self> {
        for axis in 0..2 {
            let (lo, hi) = (min[axis], max[axis]);
            if !(lo.is_finite() && hi.is_finite() && lo < hi) {
                return Err(CoreError::InvalidRectangle { axis, lo, hi });
            }
        }
        Ok(Self { min, max })
    }

    /// Rectangle area.
    pub(crate) fn area(&self) -> f64 {
        (self.max[0] - self.min[0]) * (self.max[1] - self.min[1])
    }

    /// Minimum distance from `q` to the rectangle (0 inside).
    pub(crate) fn near(&self, q: [f64; 2]) -> f64 {
        let mut s = 0.0;
        for (d, &x) in q.iter().enumerate() {
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

    /// Maximum distance from `q` to the rectangle (farthest corner).
    pub(crate) fn far(&self, q: [f64; 2]) -> f64 {
        let mut s = 0.0;
        for (d, &x) in q.iter().enumerate() {
            let diff = (x - self.min[d]).abs().max((x - self.max[d]).abs());
            s += diff * diff;
        }
        s.sqrt()
    }

    /// Distance cdf from `q`: `area(disk(q, r) ∩ rect) / area(rect)`.
    pub(crate) fn radial(&self, q: [f64; 2]) -> RadialCdf {
        RadialCdf::rect(q, *self)
    }
}

/// Area of `disk(q, r) ∩ rect`, in closed form (see the module docs).
pub(crate) fn disk_rect_intersection_area(q: [f64; 2], r: f64, rect: &Rect2) -> f64 {
    let (x_min, x_max) = (rect.min[0] - q[0], rect.max[0] - q[0]);
    let (y_lo, y_hi) = ((rect.min[1] - q[1]).max(-r), (rect.max[1] - q[1]).min(r));
    if r <= 0.0 || y_lo >= y_hi {
        return 0.0;
    }
    let r2 = r * r;
    // S(t) = ∫₀ᵗ w = ½(t·w(t) + r²·asin(t/r)); `atan2(t, w)` is `asin(t/r)`
    // without the ill-conditioning near t = ±r.
    let segment = |t: f64| {
        let w = ((r - t) * (r + t)).max(0.0).sqrt();
        0.5 * (t * w + r2 * t.atan2(w))
    };
    let (s_lo, s_hi) = (segment(y_lo), segment(y_hi));
    // K(a) is odd in `a`. With m = |a| and h = √(r² − m²) the integrand
    // min(m, w(y)) is m on |y| ≤ h and w(y) beyond, so its primitive is m·t
    // inside and S(t) ± cap outside, where cap = m·h − S(h) makes the two
    // pieces meet at ±h.
    let k = |a: f64| {
        let m = a.abs();
        let h = ((r - m) * (r + m)).max(0.0).sqrt();
        let cap = 0.5 * (m * h - r2 * h.atan2(m));
        let primitive = |t: f64, s: f64| {
            if t.abs() <= h {
                m * t
            } else {
                s + t.signum() * cap
            }
        };
        a.signum() * (primitive(y_hi, s_hi) - primitive(y_lo, s_lo))
    };
    (k(x_max) - k(x_min)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_pdf::integrate::adaptive_simpson;
    use std::f64::consts::PI;

    fn rect(min: [f64; 2], max: [f64; 2]) -> Rect2 {
        Rect2::new(min, max).unwrap()
    }

    /// The quadrature this module used before the closed form, kept as the
    /// oracle: integrate the chord-overlap length
    /// `max(0, min(x_hi, q_x + w(y)) − max(x_lo, q_x − w(y)))` over the
    /// vertical overlap. Unlike the old library code it integrates in 16
    /// panels: one adaptive pass over the whole overlap stops on its first
    /// five samples when they all land on the unclipped part of the chord,
    /// which happens at exact corner distances and cost 2e-8 of the area.
    fn quadrature_area(q: [f64; 2], r: f64, rect: &Rect2) -> f64 {
        if r <= 0.0 {
            return 0.0;
        }
        let y_lo = rect.min[1].max(q[1] - r);
        let y_hi = rect.max[1].min(q[1] + r);
        if y_lo >= y_hi {
            return 0.0;
        }
        let chord = |y: f64| {
            let dy = y - q[1];
            let w2 = r * r - dy * dy;
            if w2 <= 0.0 {
                return 0.0;
            }
            let w = w2.sqrt();
            let lo = rect.min[0].max(q[0] - w);
            let hi = rect.max[0].min(q[0] + w);
            (hi - lo).max(0.0)
        };
        const PANELS: usize = 16;
        let at = |i: usize| y_lo + (y_hi - y_lo) * i as f64 / PANELS as f64;
        (0..PANELS)
            .map(|i| adaptive_simpson(chord, at(i), at(i + 1), 1e-11))
            .sum::<f64>()
            .max(0.0)
    }

    #[test]
    fn invalid_rect_names_the_offending_axis() {
        assert_eq!(
            Rect2::new([1.0, 0.0], [0.0, 1.0]),
            Err(CoreError::InvalidRectangle {
                axis: 0,
                lo: 1.0,
                hi: 0.0
            })
        );
        assert_eq!(
            Rect2::new([0.0, 2.0], [1.0, 2.0]),
            Err(CoreError::InvalidRectangle {
                axis: 1,
                lo: 2.0,
                hi: 2.0
            })
        );
        let err = Rect2::new([0.0, 0.0], [1.0, f64::INFINITY]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidRectangle { axis: 1, .. }));
        assert!(err.to_string().contains("axis 1"), "{err}");
    }

    #[test]
    fn near_far_distances() {
        let rect = rect([1.0, 1.0], [3.0, 2.0]);
        // Query inside.
        assert_eq!(rect.near([2.0, 1.5]), 0.0);
        // Query left: near is horizontal gap.
        assert!((rect.near([0.0, 1.5]) - 1.0).abs() < 1e-12);
        // Far: farthest corner (3, 2) from (0, 0): √13.
        assert!((rect.far([0.0, 0.0]) - 13f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn disk_containing_rect_gives_rect_area() {
        let rect = rect([-1.0, -1.0], [1.0, 1.0]);
        let a = disk_rect_intersection_area([0.0, 0.0], 10.0, &rect);
        assert!((a - 4.0).abs() < 1e-12, "a = {a}");
    }

    #[test]
    fn rect_containing_disk_gives_disk_area() {
        let rect = rect([-10.0, -10.0], [10.0, 10.0]);
        let a = disk_rect_intersection_area([0.0, 0.0], 2.0, &rect);
        assert!((a - 4.0 * PI).abs() < 1e-12, "a = {a}");
    }

    #[test]
    fn disjoint_disk_gives_zero() {
        let rect = rect([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(disk_rect_intersection_area([0.0, 0.0], 1.0, &rect), 0.0);
    }

    #[test]
    fn half_plane_case() {
        // Disk centered on a rect edge that spans far beyond it: half disk.
        let rect = rect([0.0, -10.0], [10.0, 10.0]);
        let a = disk_rect_intersection_area([0.0, 0.0], 1.0, &rect);
        assert!((a - PI / 2.0).abs() < 1e-12, "a = {a}");
    }

    #[test]
    fn quarter_disk_at_corner() {
        let rect = rect([0.0, 0.0], [10.0, 10.0]);
        let a = disk_rect_intersection_area([0.0, 0.0], 2.0, &rect);
        assert!((a - PI).abs() < 1e-12, "a = {a}");
    }

    #[test]
    fn cdf_monotone_and_normalized() {
        let rect = rect([2.0, 3.0], [5.0, 4.0]);
        let q = [0.0, 0.0];
        let radial = rect.radial(q);
        let (near, far) = (radial.near, radial.far);
        let cdf = |r: f64| radial.cdf(r);
        let mut prev = 0.0;
        for i in 0..=30 {
            let r = far * i as f64 / 30.0;
            let c = cdf(r);
            assert!(c >= prev - 1e-12, "r = {r}");
            prev = c;
        }
        assert!((cdf(far) - 1.0).abs() < 1e-12);
        assert_eq!(cdf(near * 0.99), 0.0);
    }

    /// Closed form ≡ quadrature oracle to 1e-10 of the rectangle's area, for
    /// squat, wide-thin and tall-thin rectangles seen from inside, from an
    /// edge, from a corner and from outside, at radii through and around
    /// every corner distance and across the whole `[near, far]` span.
    #[test]
    fn closed_form_matches_quadrature_oracle() {
        let rects = [
            rect([2.0, 3.0], [5.0, 4.5]),
            rect([-1.0, -1.0], [1.0, 1.0]),
            rect([0.0, 0.0], [300.0, 1.5]),     // aspect 200
            rect([-0.25, -40.0], [0.25, 40.0]), // aspect 160
        ];
        let mut checked = 0;
        for rect in &rects {
            let (w, h) = (rect.max[0] - rect.min[0], rect.max[1] - rect.min[1]);
            let at = |fx: f64, fy: f64| [rect.min[0] + fx * w, rect.min[1] + fy * h];
            let queries = [
                at(0.5, 0.5),   // centre
                at(0.2, 0.9),   // inside, off-centre
                at(0.0, 0.3),   // on the left edge
                at(0.6, 1.0),   // on the top edge
                at(0.0, 0.0),   // on a corner
                at(1.0, 1.0),   // on the opposite corner
                at(-0.7, 0.4),  // outside, beside
                at(0.3, 1.8),   // outside, above
                at(1.5, -0.6),  // outside, diagonal
                at(-3.0, -5.0), // far outside
            ];
            for q in queries {
                let (near, far) = (rect.near(q), rect.far(q));
                let mut radii: Vec<f64> = (1..=32)
                    .map(|i| near + (far - near) * i as f64 / 32.0)
                    .collect();
                for cx in [rect.min[0], rect.max[0]] {
                    for cy in [rect.min[1], rect.max[1]] {
                        let d = ((cx - q[0]).powi(2) + (cy - q[1]).powi(2)).sqrt();
                        radii.extend([d * (1.0 - 1e-3), d, d * (1.0 + 1e-3)]);
                    }
                }
                for r in radii {
                    let got = disk_rect_intersection_area(q, r, rect);
                    let want = quadrature_area(q, r, rect);
                    assert!(
                        (got - want).abs() <= 1e-10 * rect.area(),
                        "{rect:?} q = {q:?} r = {r}: closed form {got} vs quadrature {want}"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 4 * 10 * (32 + 12));
    }
}
