//! Properties of the domain-partitioned [`ShardedDb`] on random
//! workloads — the correctness contract of the sharding layer:
//!
//! 1. **1-D equivalence** — at every tested shard count (1, 2, 3, 8), a
//!    sharded C-PNN query returns exactly the verdicts and probability
//!    bounds of the unsharded database (fan-out + merge ≡ flat filter);
//! 2. **k-NN equivalence** — same, for C-PkNN (`k > 1`), where the
//!    pruning horizon is the `k`-th smallest far point and shard
//!    selection must account for partially-filled candidate sets;
//! 3. **2-D equivalence** — same, over the disk/rectangle engine (bbox
//!    tiles instead of domain intervals);
//! 4. **batch equivalence** — a batch over the sharded database matches
//!    sequential unsharded evaluation at any thread count;
//! 5. **per-shard snapshot atomicity** — under interleaved
//!    `insert`/`remove` (each rebuilding only the owning shard), every
//!    served response is consistent with exactly one snapshot version:
//!    re-evaluating against the recorded version reproduces it
//!    bit-for-bit, so per-shard swaps never tear.

use cpnn_core::pipeline::{cpnn, PipelineConfig, QuerySpec};
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CpnnResult, Object2d, ObjectId, QueryServer, ShardedDb, Snapshot, UncertainDb,
    UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::TestCaseError;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Random uniform-pdf 1-D objects with ids `0..n` on a bounded domain.
fn objects(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

/// Random 2-D objects: disks and axis-aligned rectangles, ids `0..n`.
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec(
        (-30.0f64..30.0, -30.0f64..30.0, 0.5f64..5.0, prop::bool::ANY),
        3..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r, disk))| {
                let id = ObjectId(i as u64);
                if disk {
                    Object2d::circle(id, [x, y], r).unwrap()
                } else {
                    Object2d::rectangle(id, [x - r, y - r * 0.7], [x + r, y + r * 0.7]).unwrap()
                }
            })
            .collect()
    })
}

fn spec() -> QuerySpec {
    QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified)
}

/// Bit-for-bit result comparison: answers plus every report (id, label,
/// and probability bounds — `ObjectReport` derives `PartialEq`).
fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: sharded ≡ unsharded for 1-D C-PNN at every shard count.
    #[test]
    fn sharded_equals_unsharded_1d(
        objs in objects(24),
        points in prop::collection::vec(-60.0f64..60.0, 1..16),
        threshold in 0.05f64..0.95,
    ) {
        let flat = UncertainDb::build(objs.clone()).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(threshold, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            prop_assert_eq!(sharded.num_shards(), shards);
            prop_assert_eq!(sharded.len(), objs.len());
            for &q in &points {
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                assert_same(&got, &want, &format!("q = {q}, {shards} shards, P = {threshold}"))?;
            }
        }
    }

    /// Property 2: sharded ≡ unsharded for C-PkNN (the k-NN horizon is
    /// the k-th smallest far point; shard selection must stay sound while
    /// fewer than k candidates have been collected).
    #[test]
    fn sharded_equals_unsharded_knn(
        objs in objects(20),
        points in prop::collection::vec(-60.0f64..60.0, 1..10),
        k in 2usize..5,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.4, 0.0, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            for &q in &points {
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                assert_same(&got, &want, &format!("q = {q}, k = {k}, {shards} shards"))?;
            }
        }
    }

    /// Property 3: sharded ≡ unsharded over the 2-D engine (bbox tiles),
    /// for both 1-NN and k-NN specs.
    #[test]
    fn sharded_equals_unsharded_2d(
        objs in objects_2d(16),
        points in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..8),
        k in 1usize..4,
    ) {
        let flat = UncertainDb2d::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.3, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            for &(x, y) in &points {
                let q = [x, y];
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                assert_same(&got, &want, &format!("q = {q:?}, k = {k}, {shards} shards"))?;
            }
        }
    }

    /// Property 4: a batch over the sharded database (one worker per query,
    /// each fanning out) matches unsharded sequential evaluation at any
    /// thread count.
    #[test]
    fn sharded_batch_equals_unsharded_sequential(
        objs in objects(20),
        points in prop::collection::vec(-60.0f64..60.0, 1..14),
        threads in 1usize..5,
        shards in 1usize..9,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let jobs: Vec<(f64, QuerySpec)> = points.iter().map(|&q| (q, spec())).collect();
        let sharded = ShardedDb::from_model(&flat, shards).unwrap();
        let out = BatchExecutor::new(threads).run(&sharded, &jobs, &cfg);
        prop_assert_eq!(out.results.len(), points.len());
        for (i, (&q, got)) in points.iter().zip(&out.results).enumerate() {
            let want = cpnn(&flat, &q, &spec(), &cfg).unwrap();
            assert_same(
                got.as_ref().unwrap(),
                &want,
                &format!("query {i}, {shards} shards, T = {threads}"),
            )?;
        }
    }

    /// Property 5: per-shard snapshot swaps never tear. Every response
    /// under interleaved insert/remove cites one snapshot version, and
    /// re-evaluating against exactly that version reproduces the response.
    #[test]
    fn per_shard_snapshot_swaps_never_tear(
        objs in objects(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..20),
        threads in 1usize..5,
        shards in 1usize..9,
        update_stride in 1usize..4,
    ) {
        let base = objs.len() as u64;
        let db = ShardedDb::<UncertainDb>::build(objs, Default::default(), shards).unwrap();
        let cfg = PipelineConfig::default();
        let server = QueryServer::start(db, threads, cfg);

        let mut versions: Vec<Snapshot<ShardedDb<UncertainDb>>> = vec![server.snapshot()];
        let mut tickets = Vec::new();
        let mut inserted: u64 = 0;
        for (i, &q) in points.iter().enumerate() {
            tickets.push((q, server.submit(q, spec())));
            if i % update_stride == 0 {
                let snap = if i % (2 * update_stride) == 0 {
                    inserted += 1;
                    server
                        .insert(
                            UncertainObject::uniform(ObjectId(base + inserted), q - 1.0, q + 1.0)
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
            prop_assert!(v < versions.len(), "unknown version {}", v);
            prop_assert_eq!(versions[v].version, v as u64);
            let want = cpnn(&*versions[v].model, &q, &spec(), &cfg).unwrap();
            let got = served.result.unwrap();
            assert_same(&got, &want, &format!("query {i} at v{v}, T = {threads}, {shards} shards"))?;
        }
        // Every version is still internally consistent after the fact
        // (shard Arcs shared across versions were never mutated).
        for snap in &versions {
            let total: usize = snap.model.shard_sizes().iter().sum();
            prop_assert_eq!(total, snap.model.len());
        }
    }
}
