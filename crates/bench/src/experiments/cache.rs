//! Verification-cache experiment — beyond the paper: throughput of the
//! batch executor on a skewed, repeated-query workload with the
//! per-thread [`VerifyCache`](cpnn_core::VerifyCache) off and on, across
//! hot-spot counts (which set the achievable hit rate), one quantization
//! row, and a thread sweep comparing the per-thread tier alone against
//! the process-wide [`SharedVerifyCache`](cpnn_core::SharedVerifyCache)
//! layered behind it.
//!
//! The workload is Zipf-skewed repeat traffic
//! ([`cpnn_datagen::zipfian_query_points`]): a handful of hot query
//! points dominate the stream, exactly the regime the ROADMAP's caching
//! item targets. With the cache on, repeats skip filter and distribution
//! construction (the candidate set comes from the LRU; a band seen before
//! replays its memoized outcome, a new band rebuilds the subregion table
//! from the cached candidates); the shared tier lets one worker's entries
//! and outcomes serve every worker, so repeats in the same threshold band
//! skip verify + refine on any worker. Answers are
//! bit-identical in every mode — asserted per row against the uncached
//! run. The quantization row jitters every point around its hot spot and
//! snaps with `quantum` wider than the jitter, showing nearby-point
//! traffic collapsing onto shared entries.
//!
//! The hot-spot and quantization rows run on one worker, so their hit and
//! miss counts are work: equal on every run and host. The thread sweep
//! compares per-thread caches, which *divide* the hot set across T
//! workers (each worker must re-miss every hot point), with the shared
//! tier, which lets one worker's miss warm all of them — so the effective
//! hit rate holds (and outcome memoization compounds) as T grows. Which
//! worker takes which query is up to the scheduler, so the sweep's
//! counters are measured, not work.

use cpnn_core::{BatchExecutor, CacheConfig, CpnnQuery, SharedCacheConfig, Strategy};
use cpnn_datagen::zipfian_query_points;

use crate::experiments::{longbeach_db, DEFAULT_DELTA, DEFAULT_P};
use crate::report::{key, measured, work, Table};

/// Hot-spot counts to sweep (fewer hot spots → higher hit rate).
const HOT_SPOT_SWEEP: [usize; 3] = [8, 64, 512];
/// Worker-thread counts for the shared-tier sweep.
const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Zipf exponent of the rank-frequency law.
const ZIPF_EXPONENT: f64 = 1.1;
/// Cache capacity under test (entries per worker thread, and again for
/// the shared tier).
const CAPACITY: usize = 1_024;

/// Counters and throughput of one measured batch run (best-of-2
/// throughput; counters and answers from the last run).
struct Measured {
    qps: f64,
    hits: u64,
    shared_hits: u64,
    misses: u64,
    outcome_hits: u64,
    answers: Vec<Vec<cpnn_core::ObjectId>>,
}

impl Measured {
    /// Effective hit rate: local + shared hits over all lookups.
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.shared_hits + self.misses;
        (self.hits + self.shared_hits) as f64 / total.max(1) as f64
    }
}

fn measure(
    db: &cpnn_core::UncertainDb,
    queries: &[f64],
    threads: usize,
    cache: CacheConfig,
    shared: SharedCacheConfig,
) -> Measured {
    let batch: Vec<CpnnQuery> = queries
        .iter()
        .map(|&q| CpnnQuery::new(q, DEFAULT_P, DEFAULT_DELTA))
        .collect();
    let mut cfg = db.config().pipeline();
    cfg.cache = cache;
    cfg.shared_cache = shared;
    let mut m = Measured {
        qps: 0.0,
        hits: 0,
        shared_hits: 0,
        misses: 0,
        outcome_hits: 0,
        answers: Vec::new(),
    };
    for _ in 0..2 {
        let out = BatchExecutor::new(threads).run_cpnn(db, &batch, Strategy::Verified, &cfg);
        assert_eq!(out.summary.errors, 0, "benchmark queries are valid");
        if out.summary.throughput() >= m.qps {
            m.qps = out.summary.throughput();
        }
        m.hits = out.summary.cache_hits;
        m.shared_hits = out.summary.shared_hits;
        m.misses = out.summary.cache_misses;
        m.outcome_hits = out.summary.outcome_hits;
        m.answers = out
            .results
            .iter()
            .map(|r| r.as_ref().expect("valid query").answers.clone())
            .collect();
    }
    m
}

/// Run the experiment. Columns: hot-spot count, quantum, worker threads,
/// the single-worker rows' cache hits and misses, uncached /
/// per-thread-cached / shared-cached throughput, the effective hit rates
/// of both cached modes, and the outcome-memo short-circuits of the
/// shared mode ("—" where a mode is not measured on that row).
pub fn run(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let n_queries = if quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        "Cache",
        &format!(
            "VerifyCache on Zipf({ZIPF_EXPONENT}) repeat traffic: uncached vs. per-thread vs. \
             per-thread + shared tier across hot-spot counts and worker threads, {n_queries} \
             queries"
        ),
        &[
            key("hot spots"),
            key("quantum"),
            key("threads"),
            work("hits"),
            work("misses"),
            measured("uncached q/s"),
            measured("cached q/s"),
            measured("shared q/s"),
            measured("hit rate"),
            measured("shared hit rate"),
            measured("memo hits"),
        ],
    );
    table.note(format!(
        "|T| = {}, P = {DEFAULT_P}, Δ = {DEFAULT_DELTA}, strategy VR, cache capacity \
         {CAPACITY}/worker (+{CAPACITY} shared), best-of-2; answers asserted identical in every \
         mode on every row (quantum-0 rows) / vs. the snapped stream (quantum row); thread-sweep \
         rows fix 64 hot spots on a longer trace and layer the shared tier behind the per-thread \
         caches",
        db.len()
    ));
    let l1 = CacheConfig::new(CAPACITY, 0.0);
    for hot_spots in HOT_SPOT_SWEEP {
        let queries = zipfian_query_points(
            0xCACE,
            n_queries,
            0.0,
            10_000.0,
            hot_spots,
            ZIPF_EXPONENT,
            0.0,
        );
        let off = measure(
            &db,
            &queries,
            1,
            CacheConfig::disabled(),
            SharedCacheConfig::disabled(),
        );
        let on = measure(&db, &queries, 1, l1, SharedCacheConfig::disabled());
        assert_eq!(
            off.answers, on.answers,
            "cached answers must equal uncached at quantum 0"
        );
        table.push_row(vec![
            hot_spots.to_string(),
            "0".into(),
            "1".into(),
            on.hits.to_string(),
            on.misses.to_string(),
            format!("{:.0}", off.qps),
            format!("{:.0}", on.qps),
            "—".into(),
            format!("{:.1}%", 100.0 * on.hit_rate()),
            "—".into(),
            "—".into(),
        ]);
    }
    // Quantization row: jittered traffic (±2 units around each hot spot)
    // with a 10-unit grid — nearby points share entries, and every cached
    // answer must equal uncached evaluation of the *snapped* stream.
    let quantum = 10.0;
    let jittered = zipfian_query_points(0xCACE, n_queries, 0.0, 10_000.0, 64, ZIPF_EXPONENT, 2.0);
    let snapped: Vec<f64> = jittered
        .iter()
        .map(|&q| cpnn_core::cache::quantize_coord(q, quantum))
        .collect();
    let off = measure(
        &db,
        &jittered,
        1,
        CacheConfig::disabled(),
        SharedCacheConfig::disabled(),
    );
    let snapped_run = measure(
        &db,
        &snapped,
        1,
        CacheConfig::disabled(),
        SharedCacheConfig::disabled(),
    );
    let on = measure(
        &db,
        &jittered,
        1,
        CacheConfig::new(CAPACITY, quantum),
        SharedCacheConfig::disabled(),
    );
    assert_eq!(
        snapped_run.answers, on.answers,
        "quantized answers must equal uncached evaluation of the snapped stream"
    );
    table.push_row(vec![
        "64±2".into(),
        format!("{quantum}"),
        "1".into(),
        on.hits.to_string(),
        on.misses.to_string(),
        format!("{:.0}", off.qps),
        format!("{:.0}", on.qps),
        "—".into(),
        format!("{:.1}%", 100.0 * on.hit_rate()),
        "—".into(),
        "—".into(),
    ]);
    // Thread sweep: one Zipf trace, T ∈ {1, 2, 4, 8}.
    // Per-thread caches split the hot set T ways (every worker re-misses
    // every hot point), so their hit rate *decays* with T; the shared tier
    // restores it — one worker's miss warms all — and its outcome memo
    // skips verify/refine on every repeat in the same threshold band. The
    // trace is longer than the hot-spot sweep's so every worker overlaps
    // every hot point (cached queries are microsecond-fast: a short trace
    // drains before the last workers spin up, hiding the contrast).
    let sweep_n = if quick { 20_000 } else { 50_000 };
    let queries = zipfian_query_points(0xCACE, sweep_n, 0.0, 10_000.0, 64, ZIPF_EXPONENT, 0.0);
    let shared_cfg = SharedCacheConfig::new(CAPACITY);
    for t in THREAD_SWEEP {
        let off = measure(
            &db,
            &queries,
            t,
            CacheConfig::disabled(),
            SharedCacheConfig::disabled(),
        );
        let local = measure(&db, &queries, t, l1, SharedCacheConfig::disabled());
        let shared = measure(&db, &queries, t, l1, shared_cfg);
        assert_eq!(
            off.answers, local.answers,
            "per-thread-cached answers must equal uncached at quantum 0 ({t} threads)"
        );
        assert_eq!(
            off.answers, shared.answers,
            "shared-cached answers must equal uncached at quantum 0 ({t} threads)"
        );
        // Second-sight admission means a hot point costs the shared tier
        // two misses (the admitting sightings); per-thread caches cost one
        // miss *per worker*. The structural gap therefore opens at T ≥ 4 —
        // at T = 2 the two modes tie modulo work-stealing noise.
        if t >= 4 {
            assert!(
                shared.hit_rate() > local.hit_rate(),
                "shared tier must lift the effective hit rate at {t} threads \
                 (shared {:.3} vs. local {:.3})",
                shared.hit_rate(),
                local.hit_rate()
            );
            assert!(
                shared.outcome_hits > 0,
                "repeat traffic must short-circuit verify/refine via the outcome memo"
            );
        }
        table.push_row(vec![
            "64".into(),
            "0".into(),
            t.to_string(),
            "—".into(),
            "—".into(),
            format!("{:.0}", off.qps),
            format!("{:.0}", local.qps),
            format!("{:.0}", shared.qps),
            format!("{:.1}%", 100.0 * local.hit_rate()),
            format!("{:.1}%", 100.0 * shared.hit_rate()),
            shared.outcome_hits.to_string(),
        ]);
    }
    table
}
