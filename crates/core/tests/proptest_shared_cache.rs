//! Properties of the process-wide shared cache tier
//! (`cache::SharedVerifyCache`) and the per-band outcome memoization it
//! carries, on random workloads:
//!
//! 1. **cross-worker equivalence** — scratches that share one tier
//!    return bit-for-bit the verdicts and probability bounds of fresh
//!    uncached evaluation, for 1-D, 2-D, and k-NN specs, at capacities
//!    small enough to force both LRU tiers to evict, under both
//!    admission policies, and under a second Verified band at the same
//!    `k` (an entry hit without that band's outcome rebuilds the subregion
//!    table and re-runs verify/refine) — and the tier actually serves
//!    cross-scratch hits;
//! 2. **batch equivalence** — the batch executor with the shared tier
//!    layered behind its per-worker caches matches flat sequential
//!    uncached evaluation, and every query consults the cache exactly
//!    once (local hits + shared hits + misses = queries);
//! 3. **no stale outcomes under serving** — a shared-tier-enabled
//!    `QueryServer` under interleaved coalesced update bursts answers
//!    every query exactly as sequential evaluation against the snapshot
//!    version the response cites (the tier advances *before* the swap
//!    publishes, so no worker ever reads entries the burst should have
//!    dropped);
//! 4. **admission neutrality** — either admission policy changes hit
//!    counters only, never answers.
//!
//! Deterministic regressions at the bottom pin the incremental
//! invalidation walk (far-away updates preserve shared entries, nearby
//! ones drop them) and the cross-scratch promote/outcome counters.

use std::sync::Arc;

use cpnn_core::cache::{CacheConfig, SharedCacheConfig};
use cpnn_core::pipeline::{cpnn, cpnn_with};
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CpnnResult, Extent, Object2d, ObjectId, PipelineConfig, QueryScratch, QuerySpec,
    SharedVerifyCache, UncertainDb, UncertainDb2d, UncertainObject,
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

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

/// A tier-enabled config plus the tier itself and `n` worker scratches
/// attached to it.
fn tier_setup(
    capacity: usize,
    shared: SharedCacheConfig,
    n: usize,
) -> (PipelineConfig, Arc<SharedVerifyCache>, Vec<QueryScratch>) {
    let cfg = PipelineConfig {
        cache: CacheConfig::new(capacity, 0.0),
        shared_cache: shared,
        ..Default::default()
    };
    let tier = Arc::new(SharedVerifyCache::new(cfg.shared_cache));
    let scratches = (0..n)
        .map(|_| {
            let mut s = QueryScratch::with_cache(cfg.cache);
            s.attach_shared(Arc::clone(&tier));
            s
        })
        .collect();
    (cfg, tier, scratches)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property 1 (1-D + k-NN): three scratches sharing one tier ≡
    /// uncached bit-for-bit at quantum 0, across strategies and both
    /// admission policies, with capacity 2 forcing constant eviction in
    /// both tiers — and at least one lookup is served *by the tier*.
    #[test]
    fn shared_tier_equals_uncached_1d(
        objs in objects_1d(14),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
        capacity in prop::sample::select(vec![2usize, 64]),
        admit_first in prop::bool::ANY,
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let shared = if admit_first {
            SharedCacheConfig::new(capacity).admit_immediately()
        } else {
            SharedCacheConfig::new(capacity)
        };
        let (cfg, tier, mut scratches) = tier_setup(capacity, shared, 3);
        let uncached_cfg = PipelineConfig::default();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Basic),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
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
        // Worker 0 publishes (immediately or on second sight via worker
        // 1); a later worker's first visit to the same point must then
        // be served by the tier, not recomputed.
        let shared_hits: u64 = scratches.iter().map(|s| s.cache_stats().shared_hits).sum();
        prop_assert!(shared_hits > 0, "tier never served a cross-worker hit");
        prop_assert!(tier.stats().admitted > 0, "tier never admitted an entry");
    }

    /// Property 1 (2-D): the same cross-worker equivalence over the 2-D
    /// engine.
    #[test]
    fn shared_tier_equals_uncached_2d(
        objs in objects_2d(10),
        base in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..5),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        let (cfg, tier, mut scratches) =
            tier_setup(32, SharedCacheConfig::new(32).admit_immediately(), 2);
        let uncached_cfg = PipelineConfig::default();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
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

    /// Property 2: batch execution with the shared tier behind the
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
        let mut cfg = PipelineConfig {
            cache: CacheConfig::new(capacity, 0.0),
            shared_cache: SharedCacheConfig::new(capacity).admit_immediately(),
            ..Default::default()
        };
        cfg.cache.quantum = 0.0;
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

    /// Property 3: shared-tier serving under interleaved coalesced update
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
        use cpnn_core::server::QueryServer;
        let base = objs.len() as u64;
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(64, 0.0),
            shared_cache: SharedCacheConfig::new(64).admit_immediately(),
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

    /// Property 4: the admission policy shifts traffic between the
    /// counters but never changes answers.
    #[test]
    fn admission_never_changes_answers(
        objs in objects_1d(12),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
        admit_first in prop::bool::ANY,
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let mut shared = SharedCacheConfig::new(32);
        if admit_first {
            shared = shared.admit_immediately();
        }
        let (cfg, _tier, mut scratches) = tier_setup(32, shared, 3);
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
    let cfg = PipelineConfig {
        cache: CacheConfig::new(32, 0.0),
        shared_cache: SharedCacheConfig::new(32).admit_immediately(),
        ..Default::default()
    };
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let tier = Arc::new(SharedVerifyCache::new(cfg.shared_cache));

    // Worker A warms the tier at version 0.
    let mut a = QueryScratch::with_cache(cfg.cache);
    a.attach_shared(Arc::clone(&tier));
    let baseline = cpnn_with(&db, &0.0, &spec, &cfg, &mut a).unwrap();
    assert_eq!(tier.len(), 1, "worker A published its fill");

    // A far-away insert (mindist from q = 0 is ~1000, way past the
    // cluster horizon of ~4): the tier walks its segments and the entry
    // survives.
    db.insert(UncertainObject::uniform(ObjectId(500), 1000.0, 1001.0).unwrap())
        .unwrap();
    tier.advance_version(1, Some(&[Extent::new(vec![1000.0], vec![1001.0])]));
    assert_eq!(tier.len(), 1, "far-away update preserved the entry");

    // A fresh worker B pinned to v1 is served entirely by the tier: a
    // shared hit plus a memoized outcome, bit-identical to the baseline.
    let mut b = QueryScratch::with_cache(cfg.cache);
    b.attach_shared(Arc::clone(&tier));
    b.set_snapshot_version(1);
    let again = cpnn_with(&db, &0.0, &spec, &cfg, &mut b).unwrap();
    assert_eq!(again.answers, baseline.answers);
    assert_eq!(again.reports, baseline.reports);
    let sb = b.cache_stats();
    assert_eq!(
        (sb.hits, sb.shared_hits, sb.misses, sb.outcome_hits),
        (0, 1, 0, 1),
        "worker B was served by the shared tier, skipping verify/refine"
    );

    // A nearby insert (inside the horizon) must drop the entry — worker
    // C misses and the fresh answer reflects the new object.
    db.insert(UncertainObject::uniform(ObjectId(501), 0.01, 0.05).unwrap())
        .unwrap();
    tier.advance_version(2, Some(&[Extent::new(vec![0.01], vec![0.05])]));
    assert_eq!(tier.len(), 0, "nearby update dropped the entry");
    let mut c = QueryScratch::with_cache(cfg.cache);
    c.attach_shared(Arc::clone(&tier));
    c.set_snapshot_version(2);
    let after = cpnn_with(&db, &0.0, &spec, &cfg, &mut c).unwrap();
    assert_eq!(after.answers, vec![ObjectId(501)]);
    let sc = c.cache_stats();
    assert_eq!((sc.hits, sc.shared_hits, sc.misses), (0, 0, 1));
}

/// Non-proptest regression: cross-scratch counter semantics under
/// second-sight admission — the first two sightings are misses (the
/// second admits), the third scratch's lookup is reclassified from miss
/// to shared hit, and the per-scratch `lookups()` totals stay exact.
#[test]
fn second_sight_admission_counts_cross_scratch_hits_exactly() {
    let objects: Vec<UncertainObject> = (0..10)
        .map(|i| {
            UncertainObject::uniform(ObjectId(i), i as f64 * 3.0, i as f64 * 3.0 + 2.0).unwrap()
        })
        .collect();
    let db = UncertainDb::build(objects).unwrap();
    let cfg = PipelineConfig {
        cache: CacheConfig::new(16, 0.0),
        shared_cache: SharedCacheConfig::new(16),
        ..Default::default()
    };
    let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
    let tier = Arc::new(SharedVerifyCache::new(cfg.shared_cache));
    let mut scratches: Vec<QueryScratch> = (0..3)
        .map(|_| {
            let mut s = QueryScratch::with_cache(cfg.cache);
            s.attach_shared(Arc::clone(&tier));
            s
        })
        .collect();
    let mut results = Vec::new();
    for scratch in scratches.iter_mut() {
        results.push(cpnn_with(&db, &5.0, &spec, &cfg, scratch).unwrap());
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
    assert_eq!((t.deferred, t.admitted, t.hits), (1, 1, 1));
}

/// Non-proptest regression: second-sight sightings outlive snapshot
/// versions. One worker with a one-entry local tier serves two points in
/// alternation, with a far-away insert between rounds, so each point is
/// seen exactly once per version. The sightings recorded before an
/// update admit both points after it, and by the third round a read is
/// served by the shared tier — bit-identical to uncached evaluation.
#[test]
fn alternating_points_hit_the_shared_tier_across_far_updates() {
    use cpnn_core::server::QueryServer;
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
