//! Properties of the verification-state cache (`cache.rs`) — the
//! per-thread tier, the process-wide shared tier behind it, and the
//! per-band outcome memoization both carry — on random workloads:
//!
//! 1. **exact-reuse equivalence** — at quantum 0, evaluating a query
//!    stream (with repeats) through cached scratches returns bit-for-bit
//!    the verdicts and probability bounds of fresh uncached evaluation,
//!    for 1-D, 2-D, and k-NN specs, at capacities small enough to force
//!    LRU eviction in both tiers — including entry hits under a second
//!    Verified band at the same `k`, which rebuild the subregion table
//!    from the cached candidates and re-run verify/refine — and, with
//!    scratches sharing one tier, the tier actually serves cross-scratch
//!    hits;
//! 2. **quantization determinism** — at quantum ε > 0 every response
//!    equals the *uncached* evaluation of the snapped query point,
//!    regardless of cache capacity or arrival order (the approximation is
//!    the snap, never the cache);
//! 3. **no stale-snapshot hits** — a cache-enabled `QueryServer` (with or
//!    without the shared tier) under interleaved `insert`/`remove` and
//!    coalesced update bursts answers every query exactly as sequential
//!    evaluation against the snapshot version the response cites (the
//!    shared tier advances *before* the swap publishes);
//! 4. **batch parity** — a cached batch over a sharded database, and a
//!    batch with the shared tier behind its per-worker caches, match flat
//!    sequential uncached evaluation, with every query counted exactly
//!    once (local hits + shared hits + misses = queries);
//! 5. **admission neutrality** — second-sight admission changes hit
//!    counters only, never answers.
//!
//! Deterministic regressions at the bottom pin in-place mutation, scratch
//! reuse across configs, the incremental invalidation walk of both tiers,
//! and the cross-scratch counters.

use std::sync::Arc;

use cpnn_core::cache::{quantize_coord, CacheConfig, SharedCacheConfig};
use cpnn_core::pipeline::{cpnn, cpnn_with};
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CpnnResult, Extent, Object2d, ObjectId, PipelineConfig, QueryScratch, QuerySpec,
    SharedVerifyCache, Snapshot, UncertainDb, UncertainDb2d, UncertainObject,
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

/// The 1-D equivalence specs: two Verified bands at `k = 1` (a hit under
/// the second rebuilds the table), Basic, and a k-NN band.
fn specs_1d() -> [QuerySpec; 4] {
    [
        QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
        QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
        QuerySpec::nn(0.5, 0.0, EvalStrategy::Basic),
        QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
    ]
}

/// The 2-D equivalence specs.
fn specs_2d() -> [QuerySpec; 3] {
    [
        QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
        QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
        QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
    ]
}

/// A config with both tiers enabled, its shared tier, and `n` worker
/// scratches attached to it.
fn tier_setup(
    capacity: usize,
    shared: usize,
    n: usize,
) -> (PipelineConfig, Arc<SharedVerifyCache>, Vec<QueryScratch>) {
    let cfg = PipelineConfig {
        cache: CacheConfig::new(capacity, 0.0),
        shared_cache: SharedCacheConfig::new(shared),
        ..Default::default()
    };
    let tier = SharedVerifyCache::for_config(&cfg, 0).expect("both tiers enabled");
    let scratches = (0..n)
        .map(|_| {
            let mut s = QueryScratch::new();
            s.attach_shared(Arc::clone(&tier));
            s
        })
        .collect();
    (cfg, tier, scratches)
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
        let specs = specs_1d();
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
        let specs = specs_2d();
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
        use cpnn_core::QueryServer;
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
        use cpnn_core::QueryServer;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1 (1-D + k-NN, shared tier): three scratches sharing one
    /// tier ≡ uncached bit-for-bit at quantum 0, across strategies, with
    /// capacity 2 forcing constant eviction in both tiers — and at least
    /// one lookup is served *by the tier*.
    #[test]
    fn shared_tier_equals_uncached_1d(
        objs in objects_1d(14),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
        capacity in prop::sample::select(vec![2usize, 64]),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let (cfg, tier, mut scratches) = tier_setup(capacity, capacity, 3);
        let uncached_cfg = PipelineConfig::default();
        let specs = specs_1d();
        for round in 0..2 {
            for (i, &q) in base.iter().enumerate() {
                for spec in &specs {
                    let want = cpnn(&db, &q, spec, &uncached_cfg).unwrap();
                    // Every scratch must agree, whichever mix of local
                    // hits, shared hits, and misses each one sees.
                    for (w, scratch) in scratches.iter_mut().enumerate() {
                        let got = cpnn_with(&db, &q, spec, &cfg, scratch).unwrap();
                        assert_same(
                            &got,
                            &want,
                            &format!("q = {q}, query {i}, round {round}, k = {}, worker {w}", spec.k),
                        )?;
                    }
                }
            }
        }
        // Worker 0's publish records a sighting and worker 1's admits the
        // entry; worker 2's first visit to the same point must then be
        // served by the tier, not recomputed.
        let shared_hits: u64 = scratches.iter().map(|s| s.cache_stats().shared_hits).sum();
        prop_assert!(shared_hits > 0, "tier never served a cross-worker hit");
        prop_assert!(!tier.is_empty(), "tier never admitted an entry");
    }

    /// Property 1 (2-D, shared tier): the same cross-worker equivalence
    /// over the 2-D engine.
    #[test]
    fn shared_tier_equals_uncached_2d(
        objs in objects_2d(10),
        base in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..5),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        let (cfg, tier, mut scratches) = tier_setup(32, 32, 3);
        let uncached_cfg = PipelineConfig::default();
        let specs = specs_2d();
        for round in 0..2 {
            for (i, &(x, y)) in base.iter().enumerate() {
                for spec in &specs {
                    let q = [x, y];
                    let want = cpnn(&db, &q, spec, &uncached_cfg).unwrap();
                    for (w, scratch) in scratches.iter_mut().enumerate() {
                        let got = cpnn_with(&db, &q, spec, &cfg, scratch).unwrap();
                        assert_same(
                            &got,
                            &want,
                            &format!(
                                "q = {q:?}, query {i}, round {round}, k = {}, worker {w}",
                                spec.k
                            ),
                        )?;
                    }
                }
            }
        }
        let shared_hits: u64 = scratches.iter().map(|s| s.cache_stats().shared_hits).sum();
        prop_assert!(shared_hits > 0, "tier never served a cross-worker hit");
        prop_assert!(tier.len() <= 32, "tier exceeded its capacity");
    }

    /// Property 4: batch execution with the shared tier behind the
    /// per-worker caches ≡ flat sequential uncached evaluation, with
    /// every query counted exactly once across the three counters.
    #[test]
    fn batch_with_shared_tier_matches_uncached(
        objs in objects_1d(16),
        base in prop::collection::vec(-60.0f64..60.0, 2..8),
        threads in prop::sample::select(vec![2usize, 4]),
        capacity in prop::sample::select(vec![2usize, 64]),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
        // Three passes over every (point, spec) pair so repeats cross
        // worker boundaries.
        let mut jobs: Vec<(f64, QuerySpec)> = Vec::new();
        for _ in 0..3 {
            for &q in &base {
                for spec in &specs {
                    jobs.push((q, *spec));
                }
            }
        }
        let cfg = PipelineConfig {
            cache: CacheConfig::new(capacity, 0.0),
            shared_cache: SharedCacheConfig::new(capacity),
            ..Default::default()
        };
        let out = BatchExecutor::new(threads).run(&db, &jobs, &cfg);
        prop_assert_eq!(out.results.len(), jobs.len());
        let uncached_cfg = PipelineConfig::default();
        for (i, ((q, spec), got)) in jobs.iter().zip(&out.results).enumerate() {
            let want = cpnn(&db, q, spec, &uncached_cfg).unwrap();
            assert_same(
                got.as_ref().unwrap(),
                &want,
                &format!("query {i}, T = {threads}, capacity {capacity}"),
            )?;
        }
        let s = &out.summary;
        prop_assert_eq!(
            s.cache_hits + s.shared_hits + s.cache_misses,
            jobs.len() as u64,
            "every query consults the cache exactly once"
        );
    }

    /// Property 3c: shared-tier serving under interleaved coalesced update
    /// bursts — every response matches sequential uncached evaluation
    /// against exactly the snapshot version it cites. The tier advances
    /// before each burst's swap publishes, so a passing run means no
    /// worker ever read a shared entry (or memoized outcome) the burst
    /// should have dropped.
    #[test]
    fn server_shared_tier_never_serves_stale_bounds(
        objs in objects_1d(12),
        points in prop::collection::vec(-60.0f64..60.0, 4..14),
        threads in 2usize..5,
        burst in 1usize..4,
    ) {
        use cpnn_core::QueryServer;
        let base = objs.len() as u64;
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(64, 0.0),
            shared_cache: SharedCacheConfig::new(64),
            ..Default::default()
        };
        let uncached_cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        // `models[v]` mirrors the contents the server publishes as
        // version v (each burst = one version).
        let mut models = vec![db.clone()];
        let mut mirror = db.clone();
        let server = QueryServer::start(db, threads, cfg);

        let mut tickets = Vec::new();
        let mut update_tickets = Vec::new();
        let mut fresh: u64 = 0;
        for (i, &q) in points.iter().enumerate() {
            tickets.push((q, server.submit(q, spec)));
            tickets.push((q, server.submit(q, spec)));
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
        prop_assert!(
            stats.cache_hits + stats.shared_hits + stats.cache_misses >= stats.served,
            "every query consults the cache"
        );
    }

    /// Property 5: second-sight admission shifts traffic between the
    /// counters but never changes answers.
    #[test]
    fn admission_never_changes_answers(
        objs in objects_1d(12),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let (cfg, _tier, mut scratches) = tier_setup(32, 32, 3);
        let uncached_cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let mut evaluations = 0u64;
        for round in 0..2 {
            for (i, &q) in base.iter().enumerate() {
                let want = cpnn(&db, &q, &spec, &uncached_cfg).unwrap();
                for (w, scratch) in scratches.iter_mut().enumerate() {
                    let got = cpnn_with(&db, &q, &spec, &cfg, scratch).unwrap();
                    evaluations += 1;
                    assert_same(
                        &got,
                        &want,
                        &format!("q = {q}, query {i}, round {round}, worker {w}"),
                    )?;
                }
            }
        }
        let totals = scratches
            .iter()
            .fold((0u64, 0u64, 0u64), |(h, s, m), sc| {
                let st = sc.cache_stats();
                (h + st.hits, s + st.shared_hits, m + st.misses)
            });
        prop_assert_eq!(
            totals.0 + totals.1 + totals.2,
            evaluations,
            "every evaluation counted exactly once"
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
    let mut scratch = QueryScratch::new();
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

/// Non-proptest regression: a reused scratch follows the cache config of
/// each call. A call with caching disabled neither snaps its point nor
/// reads what an earlier cached call stored, and a changed capacity
/// rebuilds the cache with its counters intact.
#[test]
fn reused_scratch_follows_each_calls_cache_config() {
    let db = UncertainDb::build(vec![
        UncertainObject::uniform(ObjectId(1), 0.0, 1.0).unwrap(),
        UncertainObject::uniform(ObjectId(2), 20.0, 21.0).unwrap(),
    ])
    .unwrap();
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let coarse = PipelineConfig {
        cache: CacheConfig::new(16, 100.0),
        ..Default::default()
    };
    let mut scratch = QueryScratch::new();
    // On the 100-wide grid q = 18 snaps to 0, where object 1 is nearest.
    let snapped = cpnn_with(&db, &18.0, &spec, &coarse, &mut scratch).unwrap();
    assert_eq!(snapped.answers, vec![ObjectId(1)]);
    let uncached = PipelineConfig::default();
    let want = cpnn(&db, &18.0, &spec, &uncached).unwrap();
    assert_eq!(want.answers, vec![ObjectId(2)]);
    let got = cpnn_with(&db, &18.0, &spec, &uncached, &mut scratch).unwrap();
    assert_eq!(got.answers, want.answers, "the uncached call snapped");
    assert_eq!(got.reports, want.reports);
    let exact = PipelineConfig {
        cache: CacheConfig::new(8, 0.0),
        ..Default::default()
    };
    let got = cpnn_with(&db, &18.0, &spec, &exact, &mut scratch).unwrap();
    assert_eq!(got.reports, want.reports);
    let s = scratch.cache_stats();
    assert_eq!((s.hits, s.misses), (0, 2), "two cached calls, both misses");
}

/// Non-proptest regression: incremental invalidation keeps cached entries
/// whose candidate horizon the update provably cannot touch — a far-away
/// insert still hits, a nearby insert drops the entry (and the fresh
/// answer is correct, never stale).
#[test]
fn incremental_invalidation_preserves_unaffected_entries() {
    use cpnn_core::QueryServer;
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

/// Non-proptest regression: the incremental invalidation walk over the
/// shared tier — a far-away update preserves shared entries (a second
/// worker gets a shared hit and a memoized outcome, bit-identical), a
/// nearby update drops them (the fresh answer reflects the new object).
#[test]
fn far_update_preserves_shared_entries_nearby_update_drops_them() {
    // Tight cluster near 0; queries at 0 have a small candidate horizon.
    let objects: Vec<UncertainObject> = (0..8)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 0.5, i as f64 * 0.5 + 0.4).unwrap()
        })
        .collect();
    let mut db = UncertainDb::build(objects).unwrap();
    let (cfg, tier, mut workers) = tier_setup(32, 32, 4);
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);

    // Workers 0 and 1 warm the tier at version 0: the first fill only
    // records the key, the second sighting admits it.
    let baseline = cpnn_with(&db, &0.0, &spec, &cfg, &mut workers[0]).unwrap();
    assert!(tier.is_empty(), "a first sighting admits nothing");
    cpnn_with(&db, &0.0, &spec, &cfg, &mut workers[1]).unwrap();
    assert_eq!(tier.len(), 1, "the second sighting admitted the fill");

    // A far-away insert (mindist from q = 0 is ~1000, way past the
    // cluster horizon of ~4): the tier walks its segments and the entry
    // survives.
    db.insert(UncertainObject::uniform(ObjectId(500), 1000.0, 1001.0).unwrap())
        .unwrap();
    tier.advance_version(1, Some(&[Extent::new(vec![1000.0], vec![1001.0])]));
    assert_eq!(tier.len(), 1, "far-away update preserved the entry");

    // A fresh worker 2 pinned to v1 is served entirely by the tier: a
    // shared hit plus a memoized outcome, bit-identical to the baseline.
    let b = &mut workers[2];
    b.set_snapshot_version(1);
    let again = cpnn_with(&db, &0.0, &spec, &cfg, b).unwrap();
    assert_eq!(again.answers, baseline.answers);
    assert_eq!(again.reports, baseline.reports);
    let sb = b.cache_stats();
    assert_eq!(
        (sb.hits, sb.shared_hits, sb.misses, sb.outcome_hits),
        (0, 1, 0, 1),
        "worker 2 was served by the shared tier, skipping verify/refine"
    );

    // A nearby insert (inside the horizon) must drop the entry — worker
    // 3 misses and the fresh answer reflects the new object.
    db.insert(UncertainObject::uniform(ObjectId(501), 0.01, 0.05).unwrap())
        .unwrap();
    tier.advance_version(2, Some(&[Extent::new(vec![0.01], vec![0.05])]));
    assert_eq!(tier.len(), 0, "nearby update dropped the entry");
    let c = &mut workers[3];
    c.set_snapshot_version(2);
    let after = cpnn_with(&db, &0.0, &spec, &cfg, c).unwrap();
    assert_eq!(after.answers, vec![ObjectId(501)]);
    let sc = c.cache_stats();
    assert_eq!((sc.hits, sc.shared_hits, sc.misses), (0, 0, 1));
}

/// Non-proptest regression: cross-scratch counter semantics under
/// second-sight admission — the first two sightings are misses (the
/// second admits), the third scratch's lookup is a shared hit, and the
/// per-scratch `lookups()` totals stay exact.
#[test]
fn second_sight_admission_counts_cross_scratch_hits_exactly() {
    let objects: Vec<UncertainObject> = (0..10)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 3.0, i as f64 * 3.0 + 2.0).unwrap()
        })
        .collect();
    let db = UncertainDb::build(objects).unwrap();
    let (cfg, tier, mut scratches) = tier_setup(16, 16, 3);
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let mut results = Vec::new();
    for (i, scratch) in scratches.iter_mut().enumerate() {
        results.push(cpnn_with(&db, &5.0, &spec, &cfg, scratch).unwrap());
        // Scratch 0's publish only records the key; scratch 1's admits it.
        assert_eq!(tier.len(), i.min(1), "tier size after scratch {i}");
    }
    assert_eq!(results[0].answers, results[1].answers);
    assert_eq!(results[0].reports, results[1].reports);
    assert_eq!(results[0].answers, results[2].answers);
    assert_eq!(results[0].reports, results[2].reports);
    // Scratch 0: miss, publish deferred (first sighting). Scratch 1:
    // miss, publish admitted (second sighting). Scratch 2: shared hit.
    let s0 = scratches[0].cache_stats();
    let s1 = scratches[1].cache_stats();
    let s2 = scratches[2].cache_stats();
    assert_eq!((s0.hits, s0.shared_hits, s0.misses), (0, 0, 1));
    assert_eq!((s1.hits, s1.shared_hits, s1.misses), (0, 0, 1));
    assert_eq!((s2.hits, s2.shared_hits, s2.misses), (0, 1, 0));
    assert_eq!(
        s2.outcome_hits, 1,
        "the shared hit replayed the memoized outcome"
    );
    let t = tier.stats();
    assert_eq!((t.hits, t.misses), (1, 2));
}

/// Non-proptest regression: second-sight sightings outlive snapshot
/// versions. One worker with a one-entry local tier serves two points in
/// alternation, with a far-away insert between rounds, so each point is
/// seen exactly once per version. The sightings recorded before an
/// update admit both points after it, and by the third round a read is
/// served by the shared tier — bit-identical to uncached evaluation.
#[test]
fn alternating_points_hit_the_shared_tier_across_far_updates() {
    use cpnn_core::QueryServer;
    let objects: Vec<UncertainObject> = (0..10)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 3.0, i as f64 * 3.0 + 2.0).unwrap()
        })
        .collect();
    let mut mirror = UncertainDb::build(objects).unwrap();
    let cfg = PipelineConfig {
        cache: CacheConfig::new(1, 0.0),
        shared_cache: SharedCacheConfig::new(64),
        ..Default::default()
    };
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let server = QueryServer::start(mirror.clone(), 1, cfg);
    for round in 0..3u64 {
        for q in [4.0, 20.0] {
            let served = server.submit(q, spec).wait();
            assert_eq!(served.snapshot_version, round);
            let want = cpnn(&mirror, &q, &spec, &PipelineConfig::default()).unwrap();
            let got = served.result.unwrap();
            assert_eq!(got.answers, want.answers, "q = {q}, round {round}");
            assert_eq!(got.reports, want.reports, "q = {q}, round {round}");
        }
        let far = UncertainObject::uniform(ObjectId(1_000 + round), 5_000.0, 5_001.0).unwrap();
        mirror.insert(far.clone()).unwrap();
        server.insert(far).unwrap();
    }
    let stats = server.shutdown();
    assert!(
        stats.shared_hits >= 1,
        "no shared hit: sightings did not survive the version advances"
    );
}
