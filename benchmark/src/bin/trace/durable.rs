//! `mixed_durable`'s layers: the cache tiers (replayed in-process so the
//! per-thread counters the server does not export can be read), the
//! store's copy-on-write apply against the journal's fsync, and the
//! checkpoint.

use std::sync::Arc;
use std::time::Instant;

use cpnn_benchmark::inputs::{self, Burst, MixedPlan, Workload};
use cpnn_benchmark::stats::median;
use cpnn_benchmark::workloads::{self, Outcome, RunDir};
use cpnn_core::pipeline::cpnn_with;
use cpnn_core::store::CowModel;
use cpnn_core::{Extent, ObjectId, QueryScratch, QueryServer, SharedVerifyCache, UncertainDb};

use crate::serving::diagnostic;
use crate::spans::Tracer;
use crate::Metrics;

/// Apply one burst the way `flush_writes` does: ops in queue order onto
/// one successor model, collecting the regions they touched.
fn apply(model: &UncertainDb, burst: &Burst) -> (UncertainDb, Vec<Extent>) {
    let mut next = model.clone();
    let mut regions = Vec::new();
    for o in &burst.inserts {
        regions.push(UncertainDb::object_extent(o));
        next = next
            .with_inserted(o.clone())
            .expect("planned insert applies");
    }
    for &id in &burst.removes {
        let (after, removed) = next.with_removed(id);
        regions.extend(removed.as_ref().map(UncertainDb::object_extent));
        next = after;
    }
    (next, regions)
}

/// A one-worker `QueryServer`'s cache behaviour, mirrored in-process:
/// one scratch and one shared tier; every publish advances the tier
/// first, and the next read re-pins the scratch with that publish's
/// regions — exactly the order the server's writer and worker use.
struct Mirror {
    model: UncertainDb,
    version: u64,
    /// Regions of a publish the scratch has not re-pinned across yet.
    unseen: Option<Vec<Extent>>,
    scratch: QueryScratch,
    tier: Arc<SharedVerifyCache>,
}

impl Mirror {
    fn start() -> Self {
        let tier = Arc::new(SharedVerifyCache::new_at(
            workloads::mixed_config().shared_cache,
            0,
        ));
        let mut scratch = QueryScratch::new();
        scratch.attach_shared(Arc::clone(&tier));
        Self {
            model: workloads::build_1d(),
            version: 0,
            unseen: None,
            scratch,
            tier,
        }
    }

    fn publish(&mut self, burst: &Burst) {
        let (next, regions) = apply(&self.model, burst);
        self.model = next;
        self.version += 1;
        self.tier.advance_version(self.version, Some(&regions));
        self.unseen = Some(regions);
    }

    /// One read under a span named for whether either tier held the entry.
    fn read(&mut self, q: f64, tracer: &mut Tracer, query: u32) -> Vec<ObjectId> {
        match self.unseen.take() {
            Some(regions) => self.scratch.advance_snapshot(self.version, Some(&regions)),
            None => self.scratch.set_snapshot_version(self.version),
        }
        let before = self.scratch.cache_stats();
        let span = tracer.enter("cache.miss", query);
        let result = cpnn_with(
            &self.model,
            &q,
            &Workload::MixedDurable.spec(),
            &workloads::mixed_config(),
            &mut self.scratch,
        )
        .expect("read succeeds");
        tracer.exit(span);
        let after = self.scratch.cache_stats();
        if after.hits + after.shared_hits > before.hits + before.shared_hits {
            tracer.rename(span, "cache.hit");
        }
        result.answers
    }
}

/// What one replay of the read/burst stream saw.
struct Replay {
    wall: std::time::Duration,
    cache: cpnn_core::CacheStats,
    shared_region_evictions: u64,
}

/// Replay seed burst, warm-up, reads and bursts through a [`Mirror`]; the
/// answers must be the server's.
fn replay(plan: &MixedPlan, tracer: &mut Tracer, expected: &Outcome) -> Replay {
    let mut mirror = Mirror::start();
    mirror.publish(&plan.seed_burst);
    for &q in &plan.warmup {
        mirror.read(q, &mut Tracer::new(false), 0);
    }
    let start = Instant::now();
    for (b, burst) in plan.bursts.iter().enumerate() {
        for i in b * inputs::READS_PER_BURST..(b + 1) * inputs::READS_PER_BURST {
            let answers = mirror.read(plan.reads[i], tracer, i as u32);
            assert_eq!(
                answers, expected.answers[i],
                "in-process replay of read {i} disagrees with the server"
            );
        }
        mirror.publish(burst);
    }
    Replay {
        wall: start.elapsed(),
        cache: mirror.scratch.cache_stats(),
        shared_region_evictions: mirror.tier.stats().region_evictions,
    }
}

pub fn budget(seed: u64, seconds: f64, untraced: &Outcome, metrics: &mut Metrics) -> Tracer {
    let reads = Workload::MixedDurable.queries(seconds);
    let plan = inputs::mixed_plan(seed, reads);
    let bursts = plan.bursts.len() as f64;

    // Traced first: whatever a first pass pays for being first is then
    // charged to tracing, never credited to it.
    let mut tracer = Tracer::new(true);
    let traced = replay(&plan, &mut tracer, untraced);
    let plain = replay(&plan, &mut Tracer::new(false), untraced);
    // The replay is the server's cache behaviour, not an approximation
    // of it: same lookups, same hits (warm-up included on both sides).
    let replayed_rate = traced.cache.hit_rate();
    let served_rate = diagnostic(untraced, "cache.hit_rate");
    assert!(
        (replayed_rate - served_rate).abs() < 1e-12,
        "replayed hit rate {replayed_rate} != served {served_rate}"
    );
    metrics.set(
        "cache.region_evictions_per_burst",
        (traced.cache.region_evictions + traced.shared_region_evictions) as f64 / bursts,
    );
    let totals = tracer.totals();
    for (metric, span) in [
        ("cache.hit_us", "cache.hit"),
        ("cache.miss_us", "cache.miss"),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        metrics.set(metric, t.total_us / t.spans.max(1) as f64);
    }
    metrics.set(
        "trace.untraced_e2e_us",
        plain.wall.as_secs_f64() * 1e6 / reads as f64,
    );
    metrics.set(
        "trace.overhead_frac",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
    );

    // The same bursts through a server with no backend: what a flush
    // costs without the journal. The durable run's median burst minus
    // this is the journal append + fsync.
    let volatile = QueryServer::start(workloads::build_1d(), 1, workloads::mixed_config());
    workloads::apply_burst(&volatile, &plan.seed_burst);
    let volatile_us: Vec<f64> = plan
        .bursts
        .iter()
        .map(|b| workloads::apply_burst(&volatile, b).0.as_secs_f64() * 1e6)
        .collect();
    drop(volatile);
    let volatile_p50 = median(&volatile_us);
    metrics.set(
        "store.apply_us_per_op",
        volatile_p50 / inputs::BURST_OPS as f64,
    );
    metrics.set(
        "storage.journal_us_per_burst",
        diagnostic(untraced, "storage.update_burst_p50_us") - volatile_p50,
    );

    // Checkpoint cost and size, on a durable server in its steady state.
    let dir = RunDir::create(Workload::MixedDurable).expect("run dir inside the checkout");
    let durable = workloads::start_durable(dir.path().join("checkpoint"), &plan);
    let checkpoint_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            durable.server.checkpoint_now().expect("checkpoint");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    metrics.set("storage.checkpoint_ms", median(&checkpoint_ms));
    metrics.set(
        "persist.snapshot_bytes",
        std::fs::metadata(durable.dir.join("checkpoint.cpnn")).map_or(0.0, |m| m.len() as f64),
    );
    tracer
}
