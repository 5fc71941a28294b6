//! The classifier (paper Definition 1 and Fig. 4).

use crate::bounds::ProbBound;
use crate::error::{CoreError, Result};

/// Verdict for a candidate object (Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Qualifies as a C-PNN answer (Fig. 4 (a), (b)).
    Satisfy,
    /// Can never qualify: the upper bound is below the threshold (Fig. 4 (c)).
    Fail,
    /// Not yet decidable (Fig. 4 (d)); passes to the next verifier or to
    /// refinement.
    Unknown,
}

/// The C-PNN acceptance rule: threshold `P ∈ (0, 1]` and tolerance
/// `Δ ∈ [0, 1]`.
///
/// An object **satisfies** the query iff `p.u ≥ P` and (`p.l ≥ P` or
/// `p.u − p.l ≤ Δ`); it **fails** iff `p.u < P`. The comparisons are
/// inclusive, matching Fig. 4(a) where `p.l = P` is accepted (the scan of
/// the paper is ambiguous between `>` and `≥`; this implementation
/// pins `≥`, matching Definition 1's "at least `P`").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classifier {
    threshold: f64,
    tolerance: f64,
}

impl Classifier {
    /// Validated constructor.
    pub fn new(threshold: f64, tolerance: f64) -> Result<Self> {
        if !(threshold > 0.0 && threshold <= 1.0) {
            return Err(CoreError::InvalidThreshold(threshold));
        }
        if !(0.0..=1.0).contains(&tolerance) {
            return Err(CoreError::InvalidTolerance(tolerance));
        }
        Ok(Self {
            threshold,
            tolerance,
        })
    }

    /// Apply Definition 1 to a probability bound.
    pub(crate) fn classify(&self, bound: &ProbBound) -> Label {
        if bound.hi() < self.threshold {
            Label::Fail
        } else if bound.lo() >= self.threshold || bound.width() <= self.tolerance {
            Label::Satisfy
        } else {
            Label::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four cases of paper Fig. 4 with P = 0.8, Δ = 0.15.
    #[test]
    fn figure4_cases() {
        let c = Classifier::new(0.8, 0.15).unwrap();
        // (a) [0.8, 0.96]: lower bound meets P.
        assert_eq!(c.classify(&ProbBound::new(0.8, 0.96)), Label::Satisfy);
        // (b) [0.75, 0.85]: u ≥ P and width 0.1 ≤ Δ.
        assert_eq!(c.classify(&ProbBound::new(0.75, 0.85)), Label::Satisfy);
        // (c) [0.65, 0.78]: u < P.
        assert_eq!(c.classify(&ProbBound::new(0.65, 0.78)), Label::Fail);
        // (d) [0.1, 0.85]: u ≥ P but wide and l < P.
        assert_eq!(c.classify(&ProbBound::new(0.1, 0.85)), Label::Unknown);
        // (d) continued: if l later rises to 0.81 the object satisfies.
        assert_eq!(c.classify(&ProbBound::new(0.81, 0.85)), Label::Satisfy);
    }

    #[test]
    fn tolerance_zero_needs_lower_bound_to_clear_threshold() {
        let c = Classifier::new(0.3, 0.0).unwrap();
        assert_eq!(c.classify(&ProbBound::new(0.29, 0.9)), Label::Unknown);
        assert_eq!(c.classify(&ProbBound::new(0.3, 0.9)), Label::Satisfy);
        // Exact value below threshold: width 0 ≤ Δ but u < P → fail.
        assert_eq!(c.classify(&ProbBound::exact(0.29)), Label::Fail);
        // Exact at threshold: satisfies.
        assert_eq!(c.classify(&ProbBound::exact(0.3)), Label::Satisfy);
    }

    #[test]
    fn tolerance_admits_straddling_bounds() {
        // The introduction's example: P = 30%, Δ = 2%; an object whose true
        // probability is 29% can be accepted while its bound straddles P
        // with width ≤ Δ.
        let c = Classifier::new(0.3, 0.02).unwrap();
        assert_eq!(c.classify(&ProbBound::new(0.29, 0.305)), Label::Satisfy);
    }

    #[test]
    fn vacuous_bound_is_unknown() {
        let c = Classifier::new(0.5, 0.01).unwrap();
        assert_eq!(c.classify(&ProbBound::vacuous()), Label::Unknown);
    }

    #[test]
    fn threshold_one_is_allowed() {
        let c = Classifier::new(1.0, 0.0).unwrap();
        assert_eq!(c.classify(&ProbBound::exact(1.0)), Label::Satisfy);
        assert_eq!(c.classify(&ProbBound::new(0.99, 0.999)), Label::Fail);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Classifier::new(0.0, 0.1).is_err());
        assert!(Classifier::new(1.1, 0.1).is_err());
        assert!(Classifier::new(-0.2, 0.1).is_err());
        assert!(Classifier::new(0.5, -0.1).is_err());
        assert!(Classifier::new(0.5, 1.1).is_err());
    }
}
