//! Parity properties for the unified pipeline, on random workloads:
//!
//! 1. the generic verify → refine pipeline (`EvalStrategy::Verified` and
//!    `EvalStrategy::RefineOnly`) returns exactly the answers and labels of the
//!    `EvalStrategy::Basic` exact evaluation in 1-D;
//! 2. 2-D circle and rectangle objects evaluated through the same pipeline
//!    agree with a from-scratch Monte-Carlo possible-worlds simulation
//!    within sampling tolerance;
//! 3. a batched run over N queries equals N sequential runs (answers and
//!    classifications), for every thread count tried;
//! 4. on exact ties every strategy meets Definition 1 at Δ = 0 within
//!    1e-9 of the tied probability (`ties`).

use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CpnnQuery, Label, Object2d, ObjectId, UncertainDb, UncertainDb2d,
    UncertainObject,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mix of uniform and multi-bar histogram objects on [-50, 50].
fn objects_1d(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
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

/// Random mix of 2-D circles and rectangles around the origin.
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    let one = (
        -10.0f64..10.0,
        -10.0f64..10.0,
        0.4f64..3.0,
        0.4f64..4.0,
        0u32..2,
    );
    prop::collection::vec(one, 2..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, a, b, kind))| {
                let id = ObjectId(i as u64);
                if kind == 0 {
                    Object2d::circle(id, [x, y], a).unwrap()
                } else {
                    Object2d::rectangle(id, [x - a, y - b], [x + a, y + b]).unwrap()
                }
            })
            .collect()
    })
}

/// From-scratch Monte-Carlo PNN over 2-D objects: sample one concrete
/// position per object per world (uniform in its region), the closest
/// object wins the world.
fn monte_carlo_pnn_2d(objects: &[Object2d], q: [f64; 2], worlds: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wins = vec![0usize; objects.len()];
    for _ in 0..worlds {
        let mut best = 0usize;
        let mut best_d2 = f64::INFINITY;
        for (i, o) in objects.iter().enumerate() {
            let p = match o {
                Object2d::Circle(c) => {
                    // Polar sampling, uniform over the disk.
                    let r = c.radius * rng.gen::<f64>().sqrt();
                    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
                    [c.center[0] + r * theta.cos(), c.center[1] + r * theta.sin()]
                }
                Object2d::Rectangle { rect, .. } => [
                    rng.gen_range(rect.min[0]..rect.max[0]),
                    rng.gen_range(rect.min[1]..rect.max[1]),
                ],
            };
            let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
            if d2 < best_d2 {
                best_d2 = d2;
                best = i;
            }
        }
        wins[best] += 1;
    }
    wins.into_iter().map(|w| w as f64 / worlds as f64).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unified pipeline == Basic exact evaluation: same answer sets AND the
    /// same per-object labels, away from the integrator's knife edge.
    #[test]
    fn unified_pipeline_matches_basic_exactly_1d(
        objects in objects_1d(12),
        q in -60.0f64..60.0,
        p in 0.05f64..0.95,
    ) {
        let db = UncertainDb::build(objects).unwrap();
        let query = CpnnQuery::new(q, p, 0.0);
        let basic = db.cpnn(&query, EvalStrategy::Basic).unwrap();
        // Skip cases where an exact probability sits within the Basic
        // integrator's tolerance of the threshold (label is then genuinely
        // ambiguous between evaluators).
        prop_assume!(basic
            .reports
            .iter()
            .all(|r| (r.bound.lo() - p).abs() > 1e-4));
        for strategy in [EvalStrategy::Verified, EvalStrategy::RefineOnly] {
            let unified = db.cpnn(&query, strategy).unwrap();
            prop_assert_eq!(&basic.answers, &unified.answers,
                "answers diverge under {:?}", strategy);
            prop_assert_eq!(basic.reports.len(), unified.reports.len());
            for (b, u) in basic.reports.iter().zip(&unified.reports) {
                prop_assert_eq!(b.id, u.id);
                prop_assert!(u.label != Label::Unknown, "pipeline left {:?} unknown", u.id);
                prop_assert_eq!(b.label, u.label,
                    "label diverges for {:?} under {:?}", b.id, strategy);
            }
        }
    }

    /// 2-D mixed circle/rectangle databases: pipeline probabilities agree
    /// with possible-worlds Monte-Carlo within sampling tolerance.
    #[test]
    fn pipeline_2d_agrees_with_monte_carlo(
        objects in objects_2d(6),
        qx in -12.0f64..12.0,
        qy in -12.0f64..12.0,
    ) {
        let q = [qx, qy];
        let db = UncertainDb2d::build(objects.clone()).unwrap();
        let exact = db.pnn(q).unwrap();
        let mc = monte_carlo_pnn_2d(&objects, q, 30_000, 0xC0FFEE);
        for (i, o) in objects.iter().enumerate() {
            let p_exact = exact
                .probabilities
                .iter()
                .find(|(id, _)| *id == o.id())
                .map(|(_, p)| *p)
                .unwrap_or(0.0);
            // 30k worlds: σ ≤ 0.003; allow discretization error on top
            // (48-bin distance histograms).
            prop_assert!(
                (p_exact - mc[i]).abs() < 0.02,
                "object {i}: pipeline {p_exact} vs MC {}", mc[i]
            );
        }
    }

    /// Batched == sequential, regardless of thread count.
    #[test]
    fn batch_equals_sequential_runs(
        objects in objects_1d(10),
        qs in prop::collection::vec(-60.0f64..60.0, 1..12),
        p in 0.05f64..0.95,
        threads in 1usize..9,
    ) {
        let db = UncertainDb::build(objects).unwrap();
        let queries: Vec<CpnnQuery> =
            qs.into_iter().map(|q| CpnnQuery::new(q, p, 0.01)).collect();
        let cfg = db.config().pipeline();
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| db.cpnn(q, EvalStrategy::Verified).unwrap())
            .collect();
        let batched = BatchExecutor::new(threads)
            .run_cpnn(&db, &queries, EvalStrategy::Verified, &cfg);
        prop_assert_eq!(sequential.len(), batched.results.len());
        for (s, b) in sequential.iter().zip(&batched.results) {
            let b = b.as_ref().unwrap();
            prop_assert_eq!(&s.answers, &b.answers);
            for (rs, rb) in s.reports.iter().zip(&b.reports) {
                prop_assert_eq!(rs.id, rb.id);
                prop_assert_eq!(rs.label, rb.label);
                prop_assert_eq!(rs.bound.lo(), rb.bound.lo());
                prop_assert_eq!(rs.bound.hi(), rb.bound.hi());
            }
        }
    }
}

/// `n` identical uniforms each hold probability exactly `1/n`: at Δ = 0
/// every strategy must accept all of them just below `1/n` and none just
/// above, down to 1e-9 of it (Definition 1 on ties).
#[test]
fn ties() {
    for n in [4u64, 8, 16] {
        let objects = (0..n)
            .map(|i| UncertainObject::uniform(ObjectId(i), 0.1, 0.7).unwrap())
            .collect();
        let db = UncertainDb::build(objects).unwrap();
        let p = 1.0 / n as f64;
        let all: Vec<ObjectId> = (0..n).map(ObjectId).collect();
        for strategy in [
            EvalStrategy::Basic,
            EvalStrategy::RefineOnly,
            EvalStrategy::Verified,
        ] {
            for (threshold, want) in [
                (p - 1e-7, &all[..]),
                (p - 1e-9, &all[..]),
                (p + 1e-9, &[][..]),
                (p + 1e-7, &[][..]),
            ] {
                let res = db
                    .cpnn(&CpnnQuery::new(0.33, threshold, 0.0), strategy)
                    .unwrap();
                assert_eq!(
                    res.answers,
                    want,
                    "n = {n}, {strategy:?}, P = 1/n {:+e}",
                    threshold - p
                );
            }
        }
    }
}
