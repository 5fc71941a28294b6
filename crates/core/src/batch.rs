//! Parallel batch execution of constrained queries.
//!
//! A production deployment of the paper's engine does not answer one query
//! at a time: location services and sensor dashboards issue thousands of
//! C-PNN queries against the same immutable snapshot. [`BatchExecutor`]
//! evaluates a batch concurrently with plain `std::thread` scoped workers
//! (no external runtime):
//!
//! * the database ([`DistanceModel`]) is shared by reference — queries are
//!   read-only, so no locking is needed on the data;
//! * workers pull query indices from a shared atomic counter
//!   (work-stealing by construction: short and long queries balance
//!   automatically, unlike static chunking);
//! * each worker owns a [`QueryScratch`], so the verification state and
//!   stage buffers are reused across the queries it executes instead of
//!   being reallocated per query;
//! * results come back in input order and are bitwise identical to a
//!   sequential run, whatever the thread count — each query's evaluation
//!   is deterministic and independent.
//!
//! A [`crate::shard::ShardedDb`] is a [`DistanceModel`] like any other, so
//! a sharded batch is the same [`BatchExecutor::run`] call: each worker
//! fans its query out over the shards and verifies the merged candidates
//! once.
//!
//! [`BatchSummary`] aggregates the per-phase [`QueryStats`] the paper's
//! figures plot, plus wall-clock time and throughput.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cache::{CacheStats, SharedVerifyCache};
use crate::error::Result;
use crate::pipeline::{
    cpnn_with, CpnnQuery, CpnnResult, DistanceModel, PipelineConfig, QueryScratch, QuerySpec,
    QueryStats, Strategy,
};

/// Evaluates batches of constrained queries across worker threads.
///
/// ```
/// use cpnn_core::{
///     BatchExecutor, CpnnQuery, ObjectId, Strategy, UncertainDb, UncertainObject,
/// };
///
/// let db = UncertainDb::build(vec![
///     UncertainObject::uniform(ObjectId(1), 1.0, 4.0).unwrap(),
///     UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap(),
/// ])
/// .unwrap();
/// let queries: Vec<CpnnQuery> =
///     (0..8).map(|i| CpnnQuery::new(i as f64, 0.3, 0.01)).collect();
/// let out = BatchExecutor::new(2).run_cpnn(
///     &db,
///     &queries,
///     Strategy::Verified,
///     &db.config().pipeline(),
/// );
/// assert_eq!(out.summary.queries, 8);
/// // Results are in input order and identical to a sequential run.
/// assert!(out.results.iter().all(|r| r.is_ok()));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

impl BatchExecutor {
    /// Executor with an explicit thread count; `0` means "one per available
    /// core".
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// Evaluate `(query point, spec)` pairs against `model`. Results are in
    /// input order; per-query errors surface in their slot.
    pub fn run<M>(
        &self,
        model: &M,
        queries: &[(M::Query, QuerySpec)],
        cfg: &PipelineConfig,
    ) -> BatchOutcome
    where
        M: DistanceModel + Sync,
        M::Query: Sync,
    {
        self.run_indexed(model, queries.len(), cfg, |i| queries[i])
    }

    /// Evaluate many query points under one shared spec.
    pub fn run_uniform<M>(
        &self,
        model: &M,
        points: &[M::Query],
        spec: &QuerySpec,
        cfg: &PipelineConfig,
    ) -> BatchOutcome
    where
        M: DistanceModel + Sync,
        M::Query: Sync,
    {
        self.run_indexed(model, points.len(), cfg, |i| (points[i], *spec))
    }

    /// 1-D convenience: evaluate [`CpnnQuery`]s (point + threshold +
    /// tolerance) under one strategy against any `f64`-queried model.
    pub fn run_cpnn<M>(
        &self,
        model: &M,
        queries: &[CpnnQuery],
        strategy: Strategy,
        cfg: &PipelineConfig,
    ) -> BatchOutcome
    where
        M: DistanceModel<Query = f64> + Sync,
    {
        self.run_indexed(model, queries.len(), cfg, |i| {
            let q = queries[i];
            (q.q, QuerySpec::nn(q.threshold, q.tolerance, strategy))
        })
    }

    fn run_indexed<M, F>(&self, model: &M, n: usize, cfg: &PipelineConfig, job: F) -> BatchOutcome
    where
        M: DistanceModel + Sync,
        F: Fn(usize) -> (M::Query, QuerySpec) + Sync,
    {
        let threads = self.threads.min(n.max(1));
        let wall_start = Instant::now();
        let mut cache_totals = CacheStats::default();
        // One shared L2 tier per batch run, attached to every worker's
        // scratch, so a hot point computed by one worker hits on all of
        // them (inert unless both cache knobs are enabled).
        let tier = SharedVerifyCache::for_config(cfg, 0);
        let worker_scratch = || {
            let mut scratch = QueryScratch::new();
            if let Some(tier) = &tier {
                scratch.attach_shared(Arc::clone(tier));
            }
            scratch
        };
        let results: Vec<Result<CpnnResult>> = if threads <= 1 {
            let mut scratch = worker_scratch();
            let results = (0..n)
                .map(|i| {
                    let (q, spec) = job(i);
                    cpnn_with(model, &q, &spec, cfg, &mut scratch)
                })
                .collect();
            cache_totals.accumulate(&scratch.cache_stats());
            results
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, Result<CpnnResult>)>> =
                Mutex::new(Vec::with_capacity(n));
            let cache_acc: Mutex<CacheStats> = Mutex::new(CacheStats::default());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut scratch = worker_scratch();
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (q, spec) = job(i);
                            local.push((i, cpnn_with(model, &q, &spec, cfg, &mut scratch)));
                        }
                        collected.lock().expect("no worker panics").extend(local);
                        cache_acc
                            .lock()
                            .expect("no worker panics")
                            .accumulate(&scratch.cache_stats());
                    });
                }
            });
            cache_totals = cache_acc.into_inner().expect("no worker panics");
            let mut slots: Vec<Option<Result<CpnnResult>>> = Vec::new();
            slots.resize_with(n, || None);
            for (i, r) in collected.into_inner().expect("no worker panics") {
                slots[i] = Some(r);
            }
            slots
                .into_iter()
                .map(|s| s.expect("every index was claimed by exactly one worker"))
                .collect()
        };
        let wall_time = wall_start.elapsed();
        let mut summary = BatchSummary::aggregate(&results, threads, wall_time);
        summary.cache_hits = cache_totals.hits;
        summary.cache_misses = cache_totals.misses;
        summary.shared_hits = cache_totals.shared_hits;
        summary.outcome_hits = cache_totals.outcome_hits;
        BatchOutcome { results, summary }
    }
}

impl Default for BatchExecutor {
    /// One worker per available core.
    fn default() -> Self {
        Self::new(0)
    }
}

/// Results plus aggregate statistics for one batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query results, in input order.
    pub results: Vec<Result<CpnnResult>>,
    /// Aggregated statistics.
    pub summary: BatchSummary,
}

/// Aggregated statistics over a batch (sums of the per-query
/// [`QueryStats`], wall-clock time, and derived throughput).
#[derive(Debug, Clone, Default)]
pub struct BatchSummary {
    /// Queries submitted.
    pub queries: usize,
    /// Queries that returned an error.
    pub errors: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall_time: Duration,
    /// Summed per-query time across all phases (CPU-time proxy; exceeds
    /// `wall_time` when scaling across cores).
    pub(crate) query_time: Duration,
    /// Summed filtering time.
    pub filter_time: Duration,
    /// Summed initialization time.
    pub init_time: Duration,
    /// Summed verification time.
    pub verify_time: Duration,
    /// Summed refinement time.
    pub refine_time: Duration,
    /// Summed candidate-set sizes.
    pub candidates: usize,
    /// Queries fully resolved by verification alone.
    pub resolved_by_verification: usize,
    /// Total answers returned.
    pub answers: usize,
    /// Local (per-thread) verification-cache hits across all workers (0
    /// unless [`crate::PipelineConfig`]'s `cache` was enabled).
    pub cache_hits: u64,
    /// Verification-cache misses across all workers (neither tier had
    /// the entry).
    pub cache_misses: u64,
    /// Local misses answered by the shared L2 tier (0 unless
    /// `shared_cache` was enabled too), attributed to the worker that
    /// served the reply.
    pub shared_hits: u64,
    /// Entry hits that replayed a memoized verification outcome,
    /// skipping verify/refine entirely.
    pub outcome_hits: u64,
}

impl BatchSummary {
    fn aggregate(results: &[Result<CpnnResult>], threads: usize, wall_time: Duration) -> Self {
        let mut s = BatchSummary {
            queries: results.len(),
            threads,
            wall_time,
            ..Default::default()
        };
        for r in results {
            match r {
                Err(_) => s.errors += 1,
                Ok(res) => {
                    let st: &QueryStats = &res.stats;
                    s.query_time += st.total_time();
                    s.filter_time += st.filter_time;
                    s.init_time += st.init_time;
                    s.verify_time += st.verify_time;
                    s.refine_time += st.refine_time;
                    s.candidates += st.candidates;
                    if st.resolved_by_verification {
                        s.resolved_by_verification += 1;
                    }
                    s.answers += res.answers.len();
                }
            }
        }
        s
    }

    /// Queries per second of wall-clock time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / secs
    }

    /// Verification-cache entry hits (either tier) per lookup in
    /// `[0, 1]` (0 when caching was off or no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.shared_hits + self.cache_misses;
        if lookups == 0 {
            return 0.0;
        }
        (self.cache_hits + self.shared_hits) as f64 / lookups as f64
    }

    /// Ratio of summed per-query time to wall time — approaches the thread
    /// count under perfect scaling.
    pub fn parallel_efficiency(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.query_time.as_secs_f64() / wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, UncertainDb};
    use crate::object::{ObjectId, UncertainObject};
    use crate::pipeline::Strategy;

    fn db(n: u64) -> UncertainDb {
        let objects: Vec<UncertainObject> = (0..n)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 100.0;
                UncertainObject::uniform(ObjectId(i), lo, lo + 3.0 + (i % 5) as f64).unwrap()
            })
            .collect();
        UncertainDb::build(objects).unwrap()
    }

    fn queries(n: usize) -> Vec<CpnnQuery> {
        (0..n)
            .map(|i| CpnnQuery::new((i as f64 * 13.7) % 110.0 - 5.0, 0.3, 0.01))
            .collect()
    }

    #[test]
    fn batch_equals_sequential_for_any_thread_count() {
        let db = db(60);
        let qs = queries(40);
        let cfg = EngineConfig::default().pipeline();
        let seq = BatchExecutor::new(1).run_cpnn(&db, &qs, Strategy::Verified, &cfg);
        for threads in [2, 3, 8] {
            let par = BatchExecutor::new(threads).run_cpnn(&db, &qs, Strategy::Verified, &cfg);
            assert_eq!(seq.results.len(), par.results.len());
            for (i, (a, b)) in seq.results.iter().zip(&par.results).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.answers, b.answers, "query {i}, {threads} threads");
                assert_eq!(a.reports.len(), b.reports.len());
                for (ra, rb) in a.reports.iter().zip(&b.reports) {
                    assert_eq!(ra.id, rb.id);
                    assert_eq!(ra.label, rb.label);
                    assert_eq!(ra.bound.lo(), rb.bound.lo());
                    assert_eq!(ra.bound.hi(), rb.bound.hi());
                }
            }
        }
    }

    #[test]
    fn summary_aggregates_and_counts_errors() {
        let db = db(30);
        let mut qs = queries(10);
        qs.push(CpnnQuery::new(f64::NAN, 0.3, 0.01));
        let cfg = EngineConfig::default().pipeline();
        let out = BatchExecutor::new(4).run_cpnn(&db, &qs, Strategy::Verified, &cfg);
        assert_eq!(out.summary.queries, 11);
        assert_eq!(out.summary.errors, 1);
        assert!(out.results[10].is_err());
        assert!(out.summary.candidates > 0);
        assert!(out.summary.wall_time > Duration::ZERO);
        assert!(out.summary.throughput() > 0.0);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let ex = BatchExecutor::new(0);
        assert!(ex.threads >= 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = db(5);
        let cfg = EngineConfig::default().pipeline();
        let out = BatchExecutor::new(4).run_cpnn(&db, &[], Strategy::Verified, &cfg);
        assert!(out.results.is_empty());
        assert_eq!(out.summary.queries, 0);
    }

    #[test]
    fn sharded_batch_matches_sequential_and_unsharded() {
        let objs: Vec<UncertainObject> = (0..60)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 100.0;
                UncertainObject::uniform(ObjectId(i), lo, lo + 3.0 + (i % 5) as f64).unwrap()
            })
            .collect();
        let flat = UncertainDb::build(objs.clone()).unwrap();
        let cfg = EngineConfig::default().pipeline();
        let jobs: Vec<(f64, QuerySpec)> = (0..30)
            .map(|i| {
                let q = (i as f64 * 13.7) % 110.0 - 5.0;
                let spec = if i % 4 == 0 {
                    QuerySpec::knn(2, 0.4, 0.0, Strategy::Verified)
                } else {
                    QuerySpec::nn(0.3, 0.01, Strategy::Verified)
                };
                (q, spec)
            })
            .collect();
        let want = BatchExecutor::new(1).run(&flat, &jobs, &cfg);
        for shards in [1, 3, 8] {
            let db = UncertainDb::build_sharded(objs.clone(), shards).unwrap();
            for threads in [1, 4] {
                let got = BatchExecutor::new(threads).run(&db, &jobs, &cfg);
                assert_eq!(got.results.len(), want.results.len());
                for (i, (a, b)) in want.results.iter().zip(&got.results).enumerate() {
                    let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                    assert_eq!(a.answers, b.answers, "query {i}, {shards}x{threads}");
                    // `ObjectReport` derives `PartialEq`: ids, labels, and
                    // probability bounds all compare bit-for-bit.
                    assert_eq!(a.reports, b.reports, "query {i}, {shards}x{threads}");
                }
            }
        }
    }

    #[test]
    fn sharded_batch_reports_per_query_errors() {
        let objs: Vec<UncertainObject> = (0..20)
            .map(|i| UncertainObject::uniform(ObjectId(i), i as f64, i as f64 + 1.0).unwrap())
            .collect();
        let db = UncertainDb::build_sharded(objs, 4).unwrap();
        let cfg = EngineConfig::default().pipeline();
        let jobs: Vec<(f64, QuerySpec)> = vec![
            (5.0, QuerySpec::nn(0.3, 0.01, Strategy::Verified)),
            (f64::NAN, QuerySpec::nn(0.3, 0.01, Strategy::Verified)),
            (7.0, QuerySpec::nn(0.0, 0.0, Strategy::Verified)), // invalid threshold
        ];
        let out = BatchExecutor::new(3).run(&db, &jobs, &cfg);
        assert!(out.results[0].is_ok());
        assert!(out.results[1].is_err());
        assert!(out.results[2].is_err());
        assert_eq!(out.summary.errors, 2);
    }

    #[test]
    fn sharded_batch_on_empty_db_and_empty_jobs() {
        let db = UncertainDb::build_sharded(Vec::new(), 4).unwrap();
        let cfg = EngineConfig::default().pipeline();
        let out = BatchExecutor::new(2).run(&db, &[], &cfg);
        assert!(out.results.is_empty());
        let jobs = vec![(0.0, QuerySpec::nn(0.3, 0.01, Strategy::Verified))];
        let out = BatchExecutor::new(2).run(&db, &jobs, &cfg);
        assert!(out.results[0].as_ref().unwrap().answers.is_empty());
    }

    #[test]
    fn mixed_specs_run_through_the_generic_entry_point() {
        let db = db(30);
        let cfg = EngineConfig::default().pipeline();
        let jobs: Vec<(f64, QuerySpec)> = vec![
            (10.0, QuerySpec::nn(0.3, 0.0, Strategy::Basic)),
            (20.0, QuerySpec::nn(0.3, 0.0, Strategy::Verified)),
            (30.0, QuerySpec::knn(2, 0.5, 0.0, Strategy::Verified)),
        ];
        let out = BatchExecutor::new(2).run(&db, &jobs, &cfg);
        assert_eq!(out.results.len(), 3);
        assert!(out.results.iter().all(|r| r.is_ok()));
    }
}
