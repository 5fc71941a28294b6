//! Probability bounds `[p.l, p.u]` (paper Sec. III-A).

/// A closed interval `[lo, hi] ⊆ [0, 1]` known to contain an object's
/// qualification probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbBound {
    lo: f64,
    hi: f64,
}

impl ProbBound {
    /// The vacuous bound `[0, 1]` every candidate starts with.
    pub(crate) fn vacuous() -> Self {
        Self { lo: 0.0, hi: 1.0 }
    }

    /// An exact (collapsed) bound `[p, p]`.
    pub(crate) fn exact(p: f64) -> Self {
        let p = p.clamp(0.0, 1.0);
        Self { lo: p, hi: p }
    }

    /// Construct from raw endpoints, clamping to `[0, 1]` and repairing
    /// inversions smaller than numerical noise.
    pub(crate) fn new(lo: f64, hi: f64) -> Self {
        let lo = lo.clamp(0.0, 1.0);
        let hi = hi.clamp(0.0, 1.0);
        if lo > hi {
            debug_assert!(
                lo - hi < 1e-6,
                "probability bound badly inverted: [{lo}, {hi}]"
            );
            let mid = 0.5 * (lo + hi);
            Self { lo: mid, hi: mid }
        } else {
            Self { lo, hi }
        }
    }

    /// Lower probability bound `p.l`.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper probability bound `p.u`.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Bound width `p.u − p.l` (the estimation error of Sec. III-A).
    pub(crate) fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Tighten the lower bound if `lo` improves it (the framework "only
    /// adjusts the probability bound … if this new bound is smaller than
    /// the one previously computed").
    pub(crate) fn raise_lo(&mut self, lo: f64) {
        if lo > self.lo {
            *self = Self::new(lo, self.hi.max(lo.min(1.0)));
        }
    }

    /// Tighten the upper bound if `hi` improves it.
    pub(crate) fn lower_hi(&mut self, hi: f64) {
        if hi < self.hi {
            *self = Self::new(self.lo.min(hi.max(0.0)), hi);
        }
    }

    /// Does the bound contain `p` (with slack for numerical noise)?
    pub fn contains(&self, p: f64, eps: f64) -> bool {
        p >= self.lo - eps && p <= self.hi + eps
    }
}

impl std::fmt::Display for ProbBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vacuous_and_exact() {
        let v = ProbBound::vacuous();
        assert_eq!((v.lo(), v.hi()), (0.0, 1.0));
        let e = ProbBound::exact(0.3);
        assert_eq!((e.lo(), e.hi()), (0.3, 0.3));
        assert_eq!(e.width(), 0.0);
    }

    #[test]
    fn new_clamps_to_unit_interval() {
        let b = ProbBound::new(-0.5, 1.5);
        assert_eq!((b.lo(), b.hi()), (0.0, 1.0));
    }

    #[test]
    fn tightening_is_monotone() {
        let mut b = ProbBound::vacuous();
        b.raise_lo(0.2);
        b.lower_hi(0.8);
        assert_eq!((b.lo(), b.hi()), (0.2, 0.8));
        // Worse bounds are ignored.
        b.raise_lo(0.1);
        b.lower_hi(0.9);
        assert_eq!((b.lo(), b.hi()), (0.2, 0.8));
        // Better bounds apply.
        b.raise_lo(0.5);
        assert_eq!((b.lo(), b.hi()), (0.5, 0.8));
    }

    #[test]
    fn tiny_inversions_are_repaired() {
        let b = ProbBound::new(0.5 + 1e-12, 0.5);
        assert!(b.lo() <= b.hi());
        assert!((b.lo() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn contains_with_slack() {
        let b = ProbBound::new(0.2, 0.4);
        assert!(b.contains(0.3, 0.0));
        assert!(b.contains(0.2, 0.0));
        assert!(!b.contains(0.41, 1e-6));
        assert!(b.contains(0.400001, 1e-5));
    }
}
