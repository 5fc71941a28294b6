//! Properties of the asynchronous [`QueryServer`] on random workloads:
//!
//! 1. **streaming parity** — a query stream served by any number of worker
//!    threads (T ∈ {1, 2, 4, 8}) returns exactly the answers, labels, and
//!    probability bounds of sequential evaluation, in submission order;
//! 2. **snapshot atomicity** — under interleaved `insert`/`remove`
//!    updates, every response is consistent with *exactly one* snapshot
//!    version (the one its worker pinned at dequeue time): re-evaluating
//!    the query sequentially against that recorded version reproduces the
//!    response bit-for-bit, so no response ever observes a half-applied
//!    (torn) update.

use std::sync::Arc;

use cpnn_core::pipeline::cpnn;
use cpnn_core::QueryServer;
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    CpnnResult, ObjectId, PipelineConfig, QuerySpec, Snapshot, UncertainDb, UncertainObject,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Random uniform-pdf objects with ids `0..n` on a bounded domain.
fn objects(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

fn spec() -> QuerySpec {
    QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified)
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(
        got.reports.len(),
        want.reports.len(),
        "reports differ: {}",
        ctx
    );
    for (a, b) in got.reports.iter().zip(&want.reports) {
        prop_assert_eq!(a.id, b.id, "id: {}", ctx);
        prop_assert_eq!(a.label, b.label, "label of {:?}: {}", a.id, ctx);
        prop_assert_eq!(
            a.bound.lo(),
            b.bound.lo(),
            "lower bound of {:?}: {}",
            a.id,
            ctx
        );
        prop_assert_eq!(
            a.bound.hi(),
            b.bound.hi(),
            "upper bound of {:?}: {}",
            a.id,
            ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: streamed ≡ sequential, at every thread count.
    #[test]
    fn streamed_stream_equals_sequential_evaluation(
        objs in objects(16),
        points in prop::collection::vec(-60.0f64..60.0, 1..24),
    ) {
        let db = Arc::new(UncertainDb::build(objs).unwrap());
        let cfg = PipelineConfig::default();
        let expected: Vec<CpnnResult> = points
            .iter()
            .map(|q| cpnn(&*db, q, &spec(), &cfg).unwrap())
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let server = QueryServer::<UncertainDb>::start(Arc::clone(&db), threads, cfg);
            let tickets: Vec<_> = points.iter().map(|&q| server.submit(q, spec())).collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let served = ticket.wait();
                prop_assert_eq!(served.snapshot_version, 0);
                let got = served.result.unwrap();
                assert_same(&got, &expected[i], &format!("query {i}, T = {threads}"))?;
            }
            let stats = server.shutdown();
            prop_assert_eq!(stats.served, points.len() as u64);
        }
    }

    /// Property 2: under interleaved inserts/removes, every response is
    /// consistent with exactly one snapshot version — never a mix.
    #[test]
    fn concurrent_updates_never_tear_a_snapshot(
        objs in objects(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..20),
        threads in 1usize..9,
        update_stride in 1usize..4,
    ) {
        let base = objs.len() as u64;
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let server = QueryServer::start(db, threads, cfg);

        // Every version the server ever serves from, recorded exactly once:
        // v0 up front, each later version from its `update` return value.
        let mut versions: Vec<Snapshot<UncertainDb>> = vec![server.snapshot()];
        let mut tickets = Vec::new();
        let mut inserted: u64 = 0;
        // Interleave: queries enqueue (and start evaluating on the worker
        // pool) while the main thread keeps swapping snapshots underneath
        // them, alternating insert and remove.
        for (i, &q) in points.iter().enumerate() {
            tickets.push((q, server.submit(q, spec())));
            if i % update_stride == 0 {
                let snap = if i % (2 * update_stride) == 0 {
                    inserted += 1;
                    server
                        .insert(
                            UncertainObject::uniform(
                                ObjectId(base + inserted),
                                q - 1.0,
                                q + 1.0,
                            )
                            .unwrap(),
                        )
                        .unwrap()
                } else {
                    server.remove(ObjectId(base + inserted)).unwrap()
                };
                versions.push(snap);
            }
        }
        for (i, (q, ticket)) in tickets.into_iter().enumerate() {
            let served = ticket.wait();
            let v = served.snapshot_version as usize;
            prop_assert!(v < versions.len(), "unknown version {v}");
            prop_assert_eq!(versions[v].version, v as u64);
            // Consistency with exactly the pinned version: sequential
            // re-evaluation against that snapshot reproduces the response.
            let want = cpnn(&*versions[v].model, &q, &spec(), &cfg).unwrap();
            let got = served.result.unwrap();
            assert_same(&got, &want, &format!("query {i} at v{v}, T = {threads}"))?;
        }
    }
}
