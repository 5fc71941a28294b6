//! Integration tests for the beyond-the-paper features on generated
//! workloads: the verifier chain against Basic, persistence, batch
//! execution and k-NN.

use cpnn::core::persist::{load_snapshot, save_snapshot};
use cpnn::core::{CpnnQuery, Strategy, UncertainDb};
use cpnn::datagen::{longbeach::longbeach_with, query_points, LongBeachConfig};

fn dataset(seed: u64, count: usize) -> Vec<cpnn::core::UncertainObject> {
    longbeach_with(
        seed,
        LongBeachConfig {
            count,
            ..LongBeachConfig::default()
        },
    )
}

/// The verifier chain (U-SR's two bounds, then L-SR) and refinement give
/// the answers of integrating every subregion, with no tolerance to hide a
/// wrong label behind, in the verifier regime and in the refine regime.
#[test]
fn verified_answers_match_basic_on_workload() {
    let db = UncertainDb::build(dataset(41, 4_000)).unwrap();
    for q in query_points(42, 12) {
        for p in [0.05, 0.1, 0.3] {
            let query = CpnnQuery::new(q, p, 0.0);
            let basic = db.cpnn(&query, Strategy::Basic).unwrap();
            let verified = db.cpnn(&query, Strategy::Verified).unwrap();
            assert_eq!(basic.answers, verified.answers, "q = {q}, P = {p}");
        }
    }
}

#[test]
fn snapshot_round_trip_on_generated_workload() {
    let db = UncertainDb::build(dataset(43, 2_500)).unwrap();
    let mut buf = Vec::new();
    save_snapshot(&db, &mut buf).unwrap();
    let loaded = load_snapshot(buf.as_slice()).unwrap();
    assert_eq!(loaded.len(), db.len());
    for q in query_points(44, 6) {
        let query = CpnnQuery::new(q, 0.3, 0.01);
        let a = db.cpnn(&query, Strategy::Verified).unwrap();
        let b = loaded.cpnn(&query, Strategy::Verified).unwrap();
        assert_eq!(a.answers, b.answers, "q = {q}");
    }
}

#[test]
fn parallel_batch_equals_sequential_on_workload() {
    let db = UncertainDb::build(dataset(45, 3_000)).unwrap();
    let queries: Vec<CpnnQuery> = query_points(46, 24)
        .into_iter()
        .map(|q| CpnnQuery::new(q, 0.3, 0.01))
        .collect();
    let seq = db.cpnn_batch(&queries, Strategy::Verified, 1);
    let par = db.cpnn_batch(&queries, Strategy::Verified, 8);
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.as_ref().unwrap().answers, p.as_ref().unwrap().answers);
    }
}

#[test]
fn knn_on_workload_is_consistent_across_k() {
    let db = UncertainDb::build(dataset(47, 2_000)).unwrap();
    let q = 5_000.0;
    let p1 = db.pknn(q, 1).unwrap();
    let p3 = db.pknn(q, 3).unwrap();
    // k = 3 probabilities sum to ~3 and dominate the k = 1 values of the
    // same objects.
    let total: f64 = p3.probabilities.iter().map(|(_, p)| p).sum();
    assert!((total - 3.0).abs() < 1e-4, "sum = {total}");
    for (id, p) in &p1.probabilities {
        let p3v = p3
            .probabilities
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        assert!(p3v >= p - 1e-6, "object {id}: k3 {p3v} < k1 {p}");
    }
    // Constrained variant agrees with thresholding.
    let res = db.cknn(q, 3, 0.5, 0.0).unwrap();
    let want: Vec<_> = {
        let mut v: Vec<_> = p3
            .probabilities
            .iter()
            .filter(|(_, p)| *p >= 0.5)
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(res.answers, want);
}
