//! Property tests for the paper's central soundness invariants, on random
//! workloads:
//!
//! 1. every verifier's bound always contains the exact qualification
//!    probability (the whole C-PNN framework rests on this);
//! 2. qualification probabilities form a distribution (sum to one);
//! 3. all evaluation strategies return the same C-PNN answer set when the
//!    tolerance is zero;
//! 4. Basic (per-subregion exact evaluation at every k) agrees with the
//!    subregion-decomposed oracle to rounding;
//! 5. verifier bounds only tighten as the pipeline progresses.

use cpnn_core::classify::Label;
use cpnn_core::exact::exact_probabilities;
use cpnn_core::framework::{classify_all, default_verifiers};
use cpnn_core::verifiers::VerificationState;
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    CandidateSet, Classifier, CpnnQuery, EngineConfig, ObjectId, SubregionTable, UncertainDb,
    UncertainObject,
};
use proptest::prelude::*;

/// Random mix of uniform and 2–4-bar histogram objects on [-50, 50].
fn objects_strategy(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    let one = (
        -50.0f64..50.0,
        0.5f64..20.0,
        prop::collection::vec(0.05f64..1.0, 1..4),
    );
    prop::collection::vec(one, 2..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, width, bars))| {
                if bars.len() == 1 {
                    UncertainObject::uniform(ObjectId(i as u64), lo, lo + width).unwrap()
                } else {
                    let n = bars.len();
                    let edges: Vec<f64> =
                        (0..=n).map(|k| lo + width * k as f64 / n as f64).collect();
                    let pdf = cpnn_pdf::HistogramPdf::from_masses(edges, bars).unwrap();
                    UncertainObject::from_histogram(ObjectId(i as u64), pdf)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verifier_bounds_always_contain_exact_probability(
        objects in objects_strategy(14),
        q in -60.0f64..60.0,
    ) {
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let (exact, _) = exact_probabilities(&table);

        let mut state = VerificationState::new(&table);
        for v in default_verifiers() {
            v.apply(&table, &mut state);
            for (i, p) in exact.iter().enumerate() {
                prop_assert!(
                    state.bounds[i].contains(*p, 1e-7),
                    "{} violated for object {i}: exact {p}, bound {}",
                    v.name(),
                    state.bounds[i]
                );
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one(objects in objects_strategy(12), q in -60.0f64..60.0) {
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let (exact, _) = exact_probabilities(&table);
        let total: f64 = exact.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn strategies_agree_on_answers(
        objects in objects_strategy(10),
        q in -60.0f64..60.0,
        threshold in 0.05f64..0.95,
    ) {
        let db = UncertainDb::build(objects).unwrap();
        let query = CpnnQuery::new(q, threshold, 0.0);
        let basic = db.cpnn(&query, EvalStrategy::Basic).unwrap();
        let refine = db.cpnn(&query, EvalStrategy::RefineOnly).unwrap();
        let vr = db.cpnn(&query, EvalStrategy::Verified).unwrap();
        // Guard against knife-edge thresholds where rounding legitimately
        // flips an answer: skip cases with a probability within 1e-9 of the
        // threshold (the slack of `pipeline_parity.rs::ties`).
        let knife_edge = basic
            .reports
            .iter()
            .any(|r| (r.bound.lo() - threshold).abs() < 1e-9);
        prop_assume!(!knife_edge);
        prop_assert_eq!(&basic.answers, &refine.answers);
        prop_assert_eq!(&basic.answers, &vr.answers);
    }

    #[test]
    fn basic_matches_subregion_decomposition(
        objects in objects_strategy(10),
        q in -60.0f64..60.0,
    ) {
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let (subregion, _) = exact_probabilities(&table);
        // The same exact folds as `cands` (no re-binning), so Basic's
        // reports carry the probabilities of the same candidates.
        let exact_folds = EngineConfig {
            max_distance_bins: 0,
            ..EngineConfig::default()
        };
        let db = UncertainDb::with_config(objects, exact_folds).unwrap();
        let basic = db.cpnn(&CpnnQuery::new(q, 0.5, 0.0), EvalStrategy::Basic).unwrap();
        prop_assert_eq!(basic.reports.len(), cands.len());
        for (r, (m, b)) in basic.reports.iter().zip(cands.members().iter().zip(&subregion)) {
            prop_assert_eq!(r.id, m.id);
            let a = r.bound.lo();
            prop_assert!((a - b).abs() < 1e-9, "object {}: basic {a} vs subregion {b}", r.id);
        }
    }

    #[test]
    fn bounds_tighten_monotonically(
        objects in objects_strategy(12),
        q in -60.0f64..60.0,
    ) {
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        let mut prev: Vec<(f64, f64)> =
            state.bounds.iter().map(|b| (b.lo(), b.hi())).collect();
        for v in default_verifiers() {
            v.apply(&table, &mut state);
            for (i, b) in state.bounds.iter().enumerate() {
                prop_assert!(b.lo() >= prev[i].0 - 1e-12);
                prop_assert!(b.hi() <= prev[i].1 + 1e-12);
            }
            prev = state.bounds.iter().map(|b| (b.lo(), b.hi())).collect();
        }
    }

    #[test]
    fn subregion_table_is_a_valid_decomposition(
        objects in objects_strategy(14),
        q in -60.0f64..60.0,
    ) {
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let l = table.left_regions();
        // End-points strictly increasing; last = fmin = horizon.
        for w in table.endpoints().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!((table.fmin() - cands.horizon()).abs() < 1e-9);
        for i in 0..table.n_objects() {
            // Masses + rightmost form a distribution.
            let total: f64 = (0..l).map(|j| table.mass(i, j)).sum::<f64>() + table.rightmost(i);
            prop_assert!((total - 1.0).abs() < 1e-6, "object {i}: {total}");
            // cdf at end-points is monotone and consistent with masses.
            for j in 0..l {
                prop_assert!(table.cdf_at(i, j + 1) >= table.cdf_at(i, j) - 1e-12);
                prop_assert!(
                    (table.cdf_at(i, j + 1) - table.cdf_at(i, j) - table.mass(i, j)).abs()
                        < 1e-9
                );
            }
        }
        // Counts match the mass matrix.
        for j in 0..l {
            let want = (0..table.n_objects())
                .filter(|&i| table.mass(i, j) > 1e-12)
                .count();
            prop_assert_eq!(table.count(j), want);
        }
    }

    #[test]
    fn classified_objects_are_final(
        objects in objects_strategy(10),
        q in -60.0f64..60.0,
        threshold in 0.1f64..0.9,
    ) {
        // Once a verifier classifies an object, refinement must agree:
        // Fail objects really are below P, Satisfy objects really clear it
        // (up to tolerance = 0 semantics on the exact value).
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let (exact, _) = exact_probabilities(&table);
        let classifier = Classifier::new(threshold, 0.0).unwrap();
        let mut state = VerificationState::new(&table);
        for v in default_verifiers() {
            v.apply(&table, &mut state);
            classify_all(&classifier, &mut state);
        }
        for (i, p) in exact.iter().enumerate() {
            match state.labels[i] {
                Label::Fail => prop_assert!(*p < threshold + 1e-7, "object {i}: {p}"),
                Label::Satisfy => prop_assert!(*p >= threshold - 1e-7, "object {i}: {p}"),
                Label::Unknown => {}
            }
        }
    }
}
