//! The verification framework (paper Fig. 5): run a verifier chain,
//! classify after each stage, stop as soon as every object is decided.

use std::time::{Duration, Instant};

use crate::classify::{Classifier, Label};
use crate::subregion::TableSource;
use crate::verifiers::{
    LowerSubregion, RightmostSubregion, UpperSubregion, VerificationState, Verifier,
};

/// Outcome of one verifier stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Verifier name ("RS", "U-SR", "L-SR", "SR-k").
    pub name: &'static str,
    /// Objects still `Unknown` after this stage's classification.
    pub unknown_after: usize,
    /// Wall-clock time of the stage (bound tightening + classification).
    pub duration: Duration,
}

/// The 1-NN verifier chain: RS, then U-SR — which beyond the paper also
/// keeps the lower half of its split (`verifiers/usr.rs`) — then L-SR on
/// the rows U-SR left `Unknown`. U-SR goes before L-SR, against the paper's
/// cost order, because its two bounds decide most rows RS leaves open and
/// L-SR adds nothing to build: both read one table of exclude-one products.
pub fn default_verifiers() -> Vec<Box<dyn Verifier>> {
    vec![
        Box::new(RightmostSubregion),
        Box::new(UpperSubregion),
        Box::new(LowerSubregion),
    ]
}

/// The k-NN verifier chain, cheapest first: RS (unchanged — mass beyond the
/// `k`-horizon never qualifies), then the Poisson-binomial subregion
/// verifier ([`crate::knn::KnnSubregion`], the L-SR/U-SR analogue for
/// `k > 1`) twice — on the `⌈√L⌉`-column partition, then on the table
/// itself. Both report as `"SR-k"`; [`run_verification_into`] classifies
/// after each, so the fine stage serves only the objects the coarse one
/// left `Unknown` and is not run at all when it left none.
pub fn knn_verifiers(k: usize) -> Vec<Box<dyn Verifier>> {
    vec![
        Box::new(RightmostSubregion),
        Box::new(crate::knn::KnnSubregion::coarse(k)),
        Box::new(crate::knn::KnnSubregion::new(k)),
    ]
}

/// Classify every `Unknown` object against its current bound.
pub fn classify_all(classifier: &Classifier, state: &mut VerificationState) {
    for i in 0..state.labels.len() {
        if state.labels[i] == Label::Unknown {
            state.labels[i] = classifier.classify(&state.bounds[i]);
        }
    }
}

/// Run `verifiers` over the table, classifying after each; stops early once
/// all objects are decided. Writes into caller-owned state and stage
/// buffers — the allocation-free form the batch executor drives with
/// per-thread scratch. `state` must already be [`VerificationState::reset`]
/// for the table; `stages` is appended to.
///
/// `table` is a filled `&SubregionTable`, or a `FillOnDemand` that fills
/// the columns each stage reads ([`Verifier::columns`]) just before the
/// stage runs — so a chain that stops at RS or at the coarse SR-k stage
/// never fills the rest. A stage's reported duration excludes its fill.
pub fn run_verification_into(
    mut table: impl TableSource,
    classifier: &Classifier,
    verifiers: &[Box<dyn Verifier>],
    state: &mut VerificationState,
    stages: &mut Vec<StageReport>,
) {
    for v in verifiers {
        let table = table.for_stage(v.as_ref());
        let start = Instant::now();
        v.apply(table, state);
        classify_all(classifier, state);
        stages.push(StageReport {
            name: v.name(),
            unknown_after: state.unknown_count(),
            duration: start.elapsed(),
        });
        if state.unknown_count() == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subregion::SubregionTable;
    use crate::testutil::{fig7_exact, fig7_scenario, run_default_chain};

    #[test]
    fn pipeline_tightens_bounds_monotonically_and_contains_exact() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.3, 0.0).unwrap();
        let (state, _) = run_default_chain(&table, &classifier);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].contains(*p, 1e-9),
                "object {i}: {} vs {p}",
                state.bounds[i]
            );
        }
    }

    #[test]
    fn high_threshold_resolves_without_refinement() {
        // P = 0.6: all three upper bounds (.478, .5, .066) fall below it.
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.6, 0.0).unwrap();
        let (state, _) = run_default_chain(&table, &classifier);
        assert!(state.unknown_count() == 0);
        assert!(state.labels.iter().all(|&l| l == Label::Fail));
    }

    #[test]
    fn low_threshold_accepts_via_lsr_lower_bound() {
        // P = 0.2: the chain proves X1 and X2 exceed it; X3's upper bound
        // (.066) fails it. U-SR's Pr[F] half (.35, .35) decides first, but
        // L-SR's own bound (.349, .281) clears P as well.
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.2, 0.0).unwrap();
        let (state, _) = run_default_chain(&table, &classifier);
        assert!(state.unknown_count() == 0);
        assert_eq!(state.labels[0], Label::Satisfy);
        assert_eq!(state.labels[1], Label::Satisfy);
        assert_eq!(state.labels[2], Label::Fail);
        let mut lsr_only = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_only);
        assert!(lsr_only.bounds[0].lo() > 0.2 && lsr_only.bounds[1].lo() > 0.2);
    }

    #[test]
    fn ambiguous_threshold_leaves_unknowns() {
        // P = 0.45 sits inside X1's bound [.349, .478] and X2's [.281, .5].
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.45, 0.0).unwrap();
        let (state, stages) = run_default_chain(&table, &classifier);
        assert!(state.unknown_count() > 0);
        assert_eq!(state.labels[2], Label::Fail);
        assert_eq!(state.unknown_count(), 2);
        // All three stages ran.
        assert_eq!(stages.len(), 3);
        let names: Vec<_> = stages.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["RS", "U-SR", "L-SR"]);
    }

    #[test]
    fn stage_reports_are_monotone_in_unknowns() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.45, 0.0).unwrap();
        let (_, stages) = run_default_chain(&table, &classifier);
        let unknowns: Vec<usize> = stages.iter().map(|s| s.unknown_after).collect();
        for w in unknowns.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn generous_tolerance_short_circuits() {
        // Δ = 1: every bound has width ≤ Δ, so the first verifier decides all
        // (u ≥ P → satisfy, else fail).
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.3, 1.0).unwrap();
        let (state, stages) = run_default_chain(&table, &classifier);
        assert!(state.unknown_count() == 0);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].name, "RS");
    }
}
