//! Properties of the verification-state cache (`cache.rs`) on random
//! workloads:
//!
//! 1. **exact-reuse equivalence** — at quantum 0, evaluating a query
//!    stream (with repeats) through a cached scratch returns bit-for-bit
//!    the verdicts and probability bounds of fresh uncached evaluation,
//!    for 1-D, 2-D, and k-NN specs, at capacities small enough to force
//!    LRU eviction — including entry hits under a second Verified band at
//!    the same `k`, which rebuild the subregion table from the cached
//!    candidates and re-run verify/refine;
//! 2. **quantization determinism** — at quantum ε > 0 every response
//!    equals the *uncached* evaluation of the snapped query point,
//!    regardless of cache capacity or arrival order (the approximation is
//!    the snap, never the cache);
//! 3. **no stale-snapshot hits** — a cache-enabled `QueryServer` under
//!    interleaved `insert`/`remove` answers every query exactly as
//!    sequential evaluation against the snapshot version the response
//!    cites (version invalidation keeps COW updates from serving stale
//!    bounds);
//! 4. **sharded parity** — a cached batch over a sharded database matches
//!    flat sequential uncached evaluation.

use std::sync::Arc;

use cpnn_core::cache::{quantize_coord, CacheConfig};
use cpnn_core::pipeline::{cpnn, cpnn_with};
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CpnnResult, Object2d, ObjectId, PipelineConfig, QueryScratch, QuerySpec,
    Snapshot, UncertainDb, UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Random uniform-pdf objects with ids `0..n` on a bounded domain.
fn objects_1d(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

/// Random mixed 2-D objects (disks and rectangles).
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0, 0.5f64..6.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r))| {
                let id = ObjectId(i as u64);
                if i % 3 == 0 {
                    Object2d::rectangle(id, [x, y], [x + r, y + 0.5 * r + 0.1]).unwrap()
                } else {
                    Object2d::circle(id, [x, y], r).unwrap()
                }
            })
            .collect()
    })
}

/// A query stream with guaranteed repeats: each base point is visited
/// several times, interleaved.
fn with_repeats(points: Vec<f64>, rounds: usize) -> Vec<f64> {
    let mut stream = Vec::with_capacity(points.len() * rounds);
    for _ in 0..rounds {
        stream.extend(points.iter().copied());
    }
    stream
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1 (1-D + k-NN): cached ≡ uncached bit-for-bit at quantum
    /// 0, across strategies, with capacity 2 forcing constant eviction.
    #[test]
    fn cached_equals_uncached_1d(
        objs in objects_1d(14),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
        capacity in prop::sample::select(vec![2usize, 64]),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let stream = with_repeats(base, 3);
        let cfg = PipelineConfig {
            cache: CacheConfig::new(capacity, 0.0),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Basic),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
        let mut scratch = QueryScratch::new();
        for (i, &q) in stream.iter().enumerate() {
            for spec in &specs {
                let got = cpnn_with(&db, &q, spec, &cfg, &mut scratch).unwrap();
                let want = cpnn(&db, &q, spec, &uncached_cfg).unwrap();
                assert_same(&got, &want, &format!("q = {q}, query {i}, k = {}", spec.k))?;
            }
        }
        // The repeated rounds must actually hit (3 rounds × shared entry
        // per (point, k); capacity 2 still hits within a round across specs
        // of equal k), and some hits must land on a band the entry has no
        // outcome for yet (the table-rebuild path).
        let s = scratch.cache_stats();
        prop_assert!(s.hits > 0, "stream produced no hits");
        prop_assert!(s.hits > s.outcome_hits, "no hit under a new band");
    }

    /// Property 1 (2-D): same equivalence over the 2-D engine.
    #[test]
    fn cached_equals_uncached_2d(
        objs in objects_2d(10),
        base in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..5),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(32, 0.0),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
        let mut scratch = QueryScratch::new();
        for round in 0..3 {
            for (i, &(x, y)) in base.iter().enumerate() {
                for spec in &specs {
                    let q = [x, y];
                    let got = cpnn_with(&db, &q, spec, &cfg, &mut scratch).unwrap();
                    let want = cpnn(&db, &q, spec, &uncached_cfg).unwrap();
                    assert_same(
                        &got,
                        &want,
                        &format!("q = {q:?}, query {i}, round {round}, k = {}", spec.k),
                    )?;
                }
            }
        }
        let s = scratch.cache_stats();
        prop_assert!(s.hits > s.outcome_hits, "no hit under a new band");
    }

    /// Property 2: with quantum ε, every answer equals uncached evaluation
    /// of the snapped point — independent of cache state.
    #[test]
    fn quantized_equals_uncached_at_snapped_point(
        objs in objects_1d(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..16),
        quantum in prop::sample::select(vec![0.5f64, 2.0, 10.0]),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(8, quantum),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let mut scratch = QueryScratch::new();
        for (i, &q) in points.iter().enumerate() {
            let got = cpnn_with(&db, &q, &spec, &cfg, &mut scratch).unwrap();
            let snapped = quantize_coord(q, quantum);
            let want = cpnn(&db, &snapped, &spec, &uncached_cfg).unwrap();
            assert_same(&got, &want, &format!("q = {q} → {snapped}, query {i}"))?;
        }
    }

    /// Property 3: cache-enabled serving under interleaved updates — every
    /// response matches sequential uncached evaluation against exactly the
    /// snapshot version it cites. Updates now invalidate worker caches
    /// *incrementally* (only entries whose candidate horizon intersects
    /// the updated region drop), so this is also the stale-bounds safety
    /// proof for region-scoped invalidation.
    #[test]
    fn server_cache_never_serves_stale_snapshots(
        objs in objects_1d(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..20),
        threads in 1usize..5,
        update_stride in 1usize..4,
    ) {
        use cpnn_core::server::QueryServer;
        let base = objs.len() as u64;
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(64, 0.0),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let server = QueryServer::start(db, threads, cfg);

        let mut versions: Vec<Snapshot<UncertainDb>> = vec![server.snapshot()];
        let mut tickets = Vec::new();
        let mut inserted: u64 = 0;
        // Repeat every point immediately so caches warm up, then keep
        // swapping snapshots underneath the stream.
        for (i, &q) in points.iter().enumerate() {
            tickets.push((q, server.submit(q, spec)));
            tickets.push((q, server.submit(q, spec)));
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
            let want = cpnn(&*versions[v].model, &q, &spec, &uncached_cfg).unwrap();
            let got = served.result.unwrap();
            assert_same(&got, &want, &format!("query {i} at v{v}, T = {threads}"))?;
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.served, 2 * points.len() as u64);
        prop_assert!(
            stats.cache_hits + stats.cache_misses >= stats.served,
            "every query consults the cache"
        );
    }

    /// Property 3b: the same stale-bounds safety when updates flow through
    /// the write-coalescing lane — whole bursts publish as one version
    /// with one (incremental) invalidation pass, and every response still
    /// matches sequential evaluation against the version it cites.
    #[test]
    fn server_cache_never_serves_stale_bounds_with_coalesced_bursts(
        objs in objects_1d(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..14),
        threads in 1usize..4,
        burst in 1usize..4,
    ) {
        use cpnn_core::server::QueryServer;
        let base = objs.len() as u64;
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(64, 0.0),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        // `models[v]` mirrors the contents the server publishes as
        // version v (each burst = one version): the persistent store makes
        // keeping every historical handle free.
        let mut models = vec![db.clone()];
        let mut mirror = db.clone();
        let server = QueryServer::start(db, threads, cfg);

        let mut tickets = Vec::new();
        let mut update_tickets = Vec::new();
        let mut fresh: u64 = 0;
        for (i, &q) in points.iter().enumerate() {
            tickets.push((q, server.submit(q, spec)));
            tickets.push((q, server.submit(q, spec)));
            // Queue a small burst, publish it in one coalesced flush.
            if i % 2 == 0 {
                for _ in 0..burst {
                    fresh += 1;
                    let object =
                        UncertainObject::uniform(ObjectId(base + fresh), q - 1.0, q + 1.0)
                            .unwrap();
                    mirror.insert(object.clone()).unwrap();
                    update_tickets.push(server.queue_insert(object));
                }
                let report = server.flush_writes();
                prop_assert_eq!(report.applied, burst);
                prop_assert!(report.published.is_some());
                models.push(mirror.clone());
            }
        }
        for (i, (q, ticket)) in tickets.into_iter().enumerate() {
            let served = ticket.wait();
            let v = served.snapshot_version as usize;
            prop_assert!(v < models.len(), "unknown version {}", v);
            let want = cpnn(&models[v], &q, &spec, &uncached_cfg).unwrap();
            let got = served.result.unwrap();
            assert_same(&got, &want, &format!("query {i} at v{v}, T = {threads}"))?;
        }
        for t in update_tickets {
            prop_assert!(t.wait().result.is_ok());
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.served, 2 * points.len() as u64);
    }

    /// Property 4: sharded batch with caching on ≡ flat sequential uncached
    /// evaluation.
    #[test]
    fn sharded_batch_with_cache_matches_flat(
        objs in objects_1d(16),
        base in prop::collection::vec(-60.0f64..60.0, 2..8),
        shards in prop::sample::select(vec![1usize, 3, 8]),
    ) {
        let flat = UncertainDb::build(objs.clone()).unwrap();
        let sharded = UncertainDb::build_sharded(objs, shards).unwrap();
        let stream = with_repeats(base, 2);
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let jobs: Vec<(f64, QuerySpec)> = stream.iter().map(|&q| (q, spec)).collect();
        let mut cfg = sharded.pipeline_config();
        cfg.cache = CacheConfig::new(64, 0.0);
        let out = BatchExecutor::new(2).run(&sharded, &jobs, &cfg);
        prop_assert_eq!(out.results.len(), jobs.len());
        let uncached_cfg = PipelineConfig::default();
        for (i, ((q, spec), got)) in jobs.iter().zip(&out.results).enumerate() {
            let want = cpnn(&flat, q, spec, &uncached_cfg).unwrap();
            assert_same(got.as_ref().unwrap(), &want, &format!("query {i}, {shards} shards"))?;
        }
        prop_assert!(
            out.summary.cache_hits + out.summary.cache_misses == jobs.len() as u64,
            "every query consults the cache"
        );
    }
}

/// Non-proptest regression: an *in-place* mutation of the database (no
/// snapshot version in sight) must not serve stale cached state through
/// the same scratch — the object-count pin catches it.
#[test]
fn in_place_mutation_invalidates_cached_scratch() {
    let mut db = UncertainDb::build(vec![
        UncertainObject::uniform(ObjectId(1), 1.0, 4.0).unwrap(),
        UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap(),
    ])
    .unwrap();
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let cfg = PipelineConfig {
        cache: CacheConfig::new(16, 0.0),
        ..Default::default()
    };
    let mut scratch = QueryScratch::with_cache(cfg.cache);
    let before = cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
    assert_eq!(before.answers, vec![ObjectId(1)]);
    // In-place insert of a dominating object, same scratch, same point.
    db.insert(UncertainObject::uniform(ObjectId(3), 0.05, 0.15).unwrap())
        .unwrap();
    let after = cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
    assert_eq!(
        after.answers,
        vec![ObjectId(3)],
        "stale cached candidates served after an in-place insert"
    );
    // And removal flips it back.
    db.remove(ObjectId(3)).unwrap();
    let back = cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
    assert_eq!(back.answers, before.answers);
}

/// Non-proptest regression: incremental invalidation keeps cached entries
/// whose candidate horizon the update provably cannot touch — a far-away
/// insert still hits, a nearby insert drops the entry (and the fresh
/// answer is correct, never stale).
#[test]
fn incremental_invalidation_preserves_unaffected_entries() {
    use cpnn_core::server::QueryServer;
    // Tight cluster near 0; queries at 0 have a small candidate horizon.
    let objects: Vec<UncertainObject> = (0..8)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 0.5, i as f64 * 0.5 + 0.4).unwrap()
        })
        .collect();
    let db = UncertainDb::build(objects).unwrap();
    let cfg = PipelineConfig {
        cache: CacheConfig::new(32, 0.0),
        ..Default::default()
    };
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let server = QueryServer::start(db, 1, cfg);
    let warm = server.submit(0.0, spec).wait();
    let baseline = warm.result.unwrap();

    // A far-away insert (mindist from q=0 is ~1000, way past the cluster
    // horizon of ~4): the worker advances incrementally and the entry
    // survives — the repeat is a HIT, with identical answers.
    server
        .insert(UncertainObject::uniform(ObjectId(500), 1000.0, 1001.0).unwrap())
        .unwrap();
    let again = server.submit(0.0, spec).wait();
    assert_eq!(again.snapshot_version, 1);
    let again = again.result.unwrap();
    assert_eq!(again.answers, baseline.answers);
    assert_eq!(again.reports, baseline.reports);
    let stats = server.stats();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (1, 1),
        "entry survived the far-away update"
    );

    // A nearby insert (inside the horizon) must drop the entry — and the
    // fresh answer reflects the new object, never the stale bounds.
    server
        .insert(UncertainObject::uniform(ObjectId(501), 0.01, 0.05).unwrap())
        .unwrap();
    let after = server.submit(0.0, spec).wait();
    assert_eq!(after.snapshot_version, 2);
    let after = after.result.unwrap();
    assert_eq!(after.answers, vec![ObjectId(501)]);
    let stats = server.shutdown();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (1, 2),
        "entry dropped by the nearby update"
    );
}

/// Non-proptest regression: an `Arc`-shared database plus two scratches
/// hit independently (per-thread caches never share state).
#[test]
fn per_thread_caches_are_independent() {
    let objects: Vec<UncertainObject> = (0..10)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 3.0, i as f64 * 3.0 + 2.0).unwrap()
        })
        .collect();
    let db = Arc::new(UncertainDb::build(objects).unwrap());
    let cfg = PipelineConfig {
        cache: CacheConfig::new(16, 0.0),
        ..Default::default()
    };
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let mut a = QueryScratch::new();
    let mut b = QueryScratch::new();
    for _ in 0..2 {
        cpnn_with(&*db, &5.0, &spec, &cfg, &mut a).unwrap();
        cpnn_with(&*db, &5.0, &spec, &cfg, &mut b).unwrap();
    }
    assert_eq!(a.cache_stats().hits, 1);
    assert_eq!(b.cache_stats().hits, 1);
    assert_eq!(a.cache_stats().misses, 1);
}
