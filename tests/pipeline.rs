//! End-to-end integration tests: generated workloads through the full
//! filter → verify → refine pipeline, cross-validated across strategies.

use cpnn::core::{CpnnQuery, Strategy, UncertainDb};
use cpnn::datagen::{
    gaussian_variant, longbeach::longbeach_with, query_points, uniform_intervals, LongBeachConfig,
    SyntheticConfig,
};

fn small_longbeach(seed: u64, count: usize) -> UncertainDb {
    let cfg = LongBeachConfig {
        count,
        ..LongBeachConfig::default()
    };
    UncertainDb::build(longbeach_with(seed, cfg)).unwrap()
}

#[test]
fn strategies_agree_on_generated_workload() {
    let db = small_longbeach(11, 4_000);
    for (qi, q) in query_points(21, 8).into_iter().enumerate() {
        for p in [0.1, 0.3, 0.6] {
            let query = CpnnQuery::new(q, p, 0.0);
            let basic = db.cpnn(&query, Strategy::Basic).unwrap();
            let vr = db.cpnn(&query, Strategy::Verified).unwrap();
            let refine = db.cpnn(&query, Strategy::RefineOnly).unwrap();
            // Skip knife-edge cases where a probability sits within the
            // Basic integrator's tolerance of the threshold.
            if basic
                .reports
                .iter()
                .any(|r| (r.bound.lo() - p).abs() < 1e-4)
            {
                continue;
            }
            assert_eq!(basic.answers, vr.answers, "query {qi}, P = {p}");
            assert_eq!(basic.answers, refine.answers, "query {qi}, P = {p}");
        }
    }
}

#[test]
fn verified_strategy_does_less_refinement_work() {
    let db = small_longbeach(13, 4_000);
    let mut vr_integrations = 0usize;
    let mut refine_integrations = 0usize;
    for q in query_points(33, 10) {
        let query = CpnnQuery::new(q, 0.3, 0.01);
        vr_integrations += db
            .cpnn(&query, Strategy::Verified)
            .unwrap()
            .stats
            .integrations;
        refine_integrations += db
            .cpnn(&query, Strategy::RefineOnly)
            .unwrap()
            .stats
            .integrations;
    }
    assert!(
        vr_integrations < refine_integrations,
        "verification should reduce integrations: VR {vr_integrations} vs Refine {refine_integrations}"
    );
}

#[test]
fn stats_are_internally_consistent() {
    let db = small_longbeach(17, 3_000);
    let query = CpnnQuery::new(5_000.0, 0.3, 0.01);
    let res = db.cpnn(&query, Strategy::Verified).unwrap();
    assert_eq!(res.stats.total_objects, 3_000);
    assert!(res.stats.candidates >= 1);
    assert_eq!(res.reports.len(), res.stats.candidates);
    assert!(res.stats.subregions >= 2);
    assert!(!res.stats.stages.is_empty());
    // Unknown counts per stage are non-increasing.
    let unknowns: Vec<usize> = res.stats.stages.iter().map(|s| s.unknown_after).collect();
    for w in unknowns.windows(2) {
        assert!(w[1] <= w[0]);
    }
    // Answers are exactly the Satisfy-labelled reports.
    let satisfies = res
        .reports
        .iter()
        .filter(|r| r.label == cpnn::core::Label::Satisfy)
        .count();
    assert_eq!(satisfies, res.answers.len());
}

#[test]
fn gaussian_workload_runs_end_to_end() {
    // Fig. 14 configuration: same geometry, Gaussian pdfs (300-bar).
    let base = uniform_intervals(
        7,
        SyntheticConfig {
            count: 800,
            ..SyntheticConfig::default()
        },
    );
    let db = UncertainDb::build(gaussian_variant(&base, 300)).unwrap();
    let query = CpnnQuery::new(4_321.0, 0.3, 0.01);
    let vr = db.cpnn(&query, Strategy::Verified).unwrap();
    let basic = db.cpnn(&query, Strategy::Basic).unwrap();
    assert_eq!(vr.answers, basic.answers);
    // Distance histograms were re-binned: M stays bounded.
    assert!(vr.stats.subregions <= 70 * vr.stats.candidates.max(2));
}

#[test]
fn tolerance_increases_queries_finished_by_verification() {
    // Fig. 13's effect: more tolerance → more queries resolved without
    // refinement.
    let db = small_longbeach(19, 4_000);
    let queries = query_points(55, 16);
    let finished = |tol: f64| -> usize {
        queries
            .iter()
            .filter(|&&q| {
                db.cpnn(&CpnnQuery::new(q, 0.3, tol), Strategy::Verified)
                    .unwrap()
                    .stats
                    .resolved_by_verification
            })
            .count()
    };
    let f0 = finished(0.0);
    let f16 = finished(0.16);
    assert!(
        f16 >= f0,
        "tolerance should not reduce verification-resolved queries ({f0} -> {f16})"
    );
}

#[test]
fn min_query_on_workload_matches_leftmost_mass() {
    let db = small_longbeach(29, 1_000);
    let res = db.pnn_min().unwrap();
    let total: f64 = res.probabilities.iter().map(|(_, p)| p).sum();
    assert!((total - 1.0).abs() < 1e-6);
    // The top answer's region must start at (or before) every far point.
    let (top_id, top_p) = res.probabilities[0];
    assert!(top_p > 0.0);
    let objects = db.objects();
    let top_obj = objects
        .iter()
        .find(|o| o.id() == top_id)
        .expect("answer exists");
    let fmin = objects
        .iter()
        .map(|o| o.region().1)
        .fold(f64::INFINITY, f64::min);
    assert!(top_obj.region().0 <= fmin);
}
