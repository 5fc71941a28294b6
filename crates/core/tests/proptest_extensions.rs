//! Property tests for the extensions: probabilistic k-NN and 2-D regions.

use cpnn_core::exact::exact_probabilities;
use cpnn_core::knn::{knn_probabilities, knn_upper_bounds, knn_verifier_bounds};
use cpnn_core::{CandidateSet, Object2d, ObjectId, SubregionTable, UncertainDb2d, UncertainObject};
use proptest::prelude::*;

fn objects_strategy(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..15.0), 2..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

fn circles_strategy(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0, 0.3f64..5.0), 2..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r))| Object2d::circle(ObjectId(i as u64), [x, y], r).unwrap())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn knn_sums_to_min_k_n(objects in objects_strategy(10), q in -50.0f64..50.0, k in 1usize..5) {
        let cands = CandidateSet::build_k(&objects, q, 0, k).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let probs = knn_probabilities(&table, k);
        let total: f64 = probs.iter().sum();
        let want = k.min(cands.len()) as f64;
        prop_assert!((total - want).abs() < 1e-5, "k = {k}: sum {total} vs {want}");
    }

    #[test]
    fn knn_k1_equals_pnn(objects in objects_strategy(10), q in -50.0f64..50.0) {
        let cands = CandidateSet::build_k(&objects, q, 0, 1).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let knn = knn_probabilities(&table, 1);
        let (pnn, _) = exact_probabilities(&table);
        for (a, b) in knn.iter().zip(&pnn) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn knn_bounds_contain_exact(
        objects in objects_strategy(9),
        q in -50.0f64..50.0,
        k in 1usize..4,
    ) {
        let cands = CandidateSet::build_k(&objects, q, 0, k).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let exact = knn_probabilities(&table, k);
        let rs = knn_upper_bounds(&table);
        let (lo, hi) = knn_verifier_bounds(&table, k);
        for i in 0..exact.len() {
            prop_assert!(exact[i] <= rs[i] + 1e-7, "RS-k: {} vs {}", exact[i], rs[i]);
            prop_assert!(lo[i] <= exact[i] + 1e-7, "L-SR-k: {} vs {}", lo[i], exact[i]);
            prop_assert!(hi[i] >= exact[i] - 1e-7, "U-SR-k: {} vs {}", hi[i], exact[i]);
        }
    }

    #[test]
    fn knn_monotone_in_k(objects in objects_strategy(9), q in -50.0f64..50.0) {
        // Build at the widest horizon (k = 3) so candidate sets align.
        let cands = CandidateSet::build_k(&objects, q, 0, 3).unwrap();
        prop_assume!(!cands.is_empty());
        let table = SubregionTable::build(&cands);
        let p1 = knn_probabilities(&table, 1);
        let p2 = knn_probabilities(&table, 2);
        let p3 = knn_probabilities(&table, 3);
        for i in 0..p1.len() {
            prop_assert!(p1[i] <= p2[i] + 1e-9);
            prop_assert!(p2[i] <= p3[i] + 1e-9);
        }
    }

    #[test]
    fn circles_probabilities_form_distribution(
        circles in circles_strategy(8),
        qx in -25.0f64..25.0,
        qy in -25.0f64..25.0,
    ) {
        let probs = UncertainDb2d::build(circles).unwrap().pnn([qx, qy]).unwrap().probabilities;
        let total: f64 = probs.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-4, "sum = {total}");
        for (_, p) in &probs {
            prop_assert!((0.0..=1.0 + 1e-9).contains(p));
        }
    }

    #[test]
    fn circle_strictly_dominating_wins(
        qx in -5.0f64..5.0,
        qy in -5.0f64..5.0,
        r in 0.5f64..2.0,
    ) {
        // One circle hugging the query, another certainly farther.
        let near = Object2d::circle(ObjectId(0), [qx + 0.1, qy], r).unwrap();
        let far = Object2d::circle(ObjectId(1), [qx + 100.0, qy], r).unwrap();
        let db = UncertainDb2d::build(vec![near, far]).unwrap();
        let probs = db.pnn([qx, qy]).unwrap().probabilities;
        prop_assert_eq!(probs[0].0, ObjectId(0));
        prop_assert!((probs[0].1 - 1.0).abs() < 1e-9);
    }
}
