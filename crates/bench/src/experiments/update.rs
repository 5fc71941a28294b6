//! Update-path experiment — beyond the paper: per-update latency and
//! sustained mixed read/write throughput of the persistent (path-copying)
//! storage stack, against the rebuild baseline it replaced.
//!
//! Three write paths are compared at each database size and shard count:
//!
//! * **rebuild** — the pre-persistent behavior: materialize the owning
//!   shard's objects and bulk-build a fresh model around the change
//!   (O(|shard| log |shard|) per update);
//! * **path-copy** — [`cpnn_core::QueryServer::insert`]/`remove`: a
//!   copy-on-write snapshot swap that clones only the root-to-leaf index
//!   path and the id-map path (O(log n) — flat-ish as |T| grows);
//! * **coalesced** — a burst of [`queue_insert`]s published by one
//!   [`flush_writes`]: one version bump and one cache-invalidation pass
//!   amortized over the whole burst.
//!
//! The mixed column streams a read-heavy workload (15 queries : 1 queued
//! update, flushed every burst) through a running server — the sustained
//! regime the moving-object workloads of the related literature imply.
//!
//! [`queue_insert`]: cpnn_core::QueryServer::queue_insert
//! [`flush_writes`]: cpnn_core::QueryServer::flush_writes

use std::time::{Duration, Instant};

use cpnn_core::{
    ObjectId, QueryServer, QuerySpec, ShardableModel, ShardedDb, Strategy, UncertainDb,
    UncertainObject,
};
use cpnn_datagen::query_points;

use crate::experiments::{longbeach_objects, DEFAULT_DELTA, DEFAULT_P};
use crate::report::{key, measured, work, Table};

/// Size of one coalesced burst.
const BURST: usize = 16;

/// A fresh update object far from collision with generated ids.
fn update_object(i: usize) -> UncertainObject {
    let lo = (i as f64 * 37.3) % 9_000.0;
    UncertainObject::uniform(ObjectId(10_000_000 + i as u64), lo, lo + 5.0)
        .expect("valid update object")
}

/// The rebuild baseline: per update, materialize the owning shard's
/// objects and bulk-build a replacement shard (what `insert` did before
/// the index went persistent). Averaged over `reps` inserts.
fn rebuild_latency(db: &ShardedDb<UncertainDb>, reps: usize) -> Duration {
    let mut total = Duration::ZERO;
    for i in 0..reps {
        let object = update_object(i);
        // Identify the shard the object routes to — the cost we charge is
        // the rebuild itself, as the old code path would pay it.
        let shard = (0..db.num_shards())
            .min_by(|&a, &b| {
                let d = |s: usize| {
                    db.shard_model(s)
                        .model_extent()
                        .map(|e| e.mindist(&((object.region().0 + object.region().1) * 0.5)))
                        .unwrap_or(f64::INFINITY)
                };
                d(a).total_cmp(&d(b))
            })
            .unwrap_or(0);
        let start = Instant::now();
        let mut objects = db.shard_model(shard).shard_objects();
        objects.push(object);
        let rebuilt = UncertainDb::build_shard(objects, db.shard_model(shard).config())
            .expect("rebuild of a valid shard");
        total += start.elapsed();
        std::hint::black_box(&rebuilt);
    }
    total / reps.max(1) as u32
}

/// Mean per-update snapshot-swap latency through the persistent path
/// (`insert` + `remove` round-trips against a running server).
fn path_copy_latency(db: &ShardedDb<UncertainDb>, reps: usize) -> Duration {
    let server = QueryServer::start(db.clone(), 1, db.pipeline_config());
    let mut total = Duration::ZERO;
    for i in 0..reps {
        let object = update_object(i);
        let id = ObjectId(10_000_000 + i as u64);
        let start = Instant::now();
        server.insert(object).expect("fresh id inserts cleanly");
        server.remove(id).expect("update applies");
        total += start.elapsed();
    }
    server.shutdown();
    total / (2 * reps.max(1)) as u32
}

/// Mean per-op latency when updates coalesce: queue `BURST` inserts, one
/// flush, then the same for removes. One publish per burst.
fn coalesced_latency(db: &ShardedDb<UncertainDb>, rounds: usize) -> Duration {
    let server = QueryServer::start(db.clone(), 1, db.pipeline_config());
    let mut total = Duration::ZERO;
    let mut ops = 0usize;
    for round in 0..rounds {
        let base = round * BURST;
        let start = Instant::now();
        let tickets: Vec<_> = (0..BURST)
            .map(|i| server.queue_insert(update_object(base + i)))
            .collect();
        let report = server.flush_writes();
        total += start.elapsed();
        assert_eq!(report.applied, BURST, "burst applies cleanly");
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
        ops += BURST;
        let start = Instant::now();
        let tickets: Vec<_> = (0..BURST)
            .map(|i| server.queue_remove(ObjectId(10_000_000 + (base + i) as u64)))
            .collect();
        server.flush_writes();
        total += start.elapsed();
        for t in tickets {
            assert!(t.wait().result.is_ok());
        }
        ops += BURST;
    }
    let stats = server.shutdown();
    assert!(stats.coalesced_batches >= 2 * rounds as u64);
    total / ops.max(1) as u32
}

/// Post-workload R-tree quality counters, aggregated over every shard of
/// the server's final snapshot: total node count, and the average leaf
/// fill factor (leaf entries / leaf capacity).
fn index_quality(db: &ShardedDb<UncertainDb>) -> (usize, f64) {
    let mut stats = cpnn_core::TreeStats::default();
    let mut max_entries = 0;
    for s in 0..db.num_shards() {
        let model = db.shard_model(s);
        let t = model.index_stats();
        stats.nodes += t.nodes;
        stats.leaves += t.leaves;
        stats.leaf_entries += t.leaf_entries;
        max_entries = max_entries.max(model.index_params().max_entries);
    }
    (stats.nodes, stats.leaf_fill(max_entries))
}

/// Sustained mixed read/write throughput: a read-heavy stream (15 : 1)
/// with queued updates flushed per burst, through a multi-worker server.
/// Returns queries per second of wall-clock time, plus the post-workload
/// [`index_quality`] counters of the final snapshot (how healthy the
/// persistent R-tree is after the update churn).
fn mixed_throughput(
    db: &ShardedDb<UncertainDb>,
    n_queries: usize,
    threads: usize,
) -> (f64, usize, f64) {
    let server = QueryServer::start(db.clone(), threads, db.pipeline_config());
    let points = query_points(0x0DDC0DE, n_queries);
    let spec = QuerySpec::nn(DEFAULT_P, DEFAULT_DELTA, Strategy::Verified);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(n_queries);
    let mut updates = Vec::new();
    let mut upd = 0usize;
    for (i, &q) in points.iter().enumerate() {
        if i % 15 == 14 {
            if upd.is_multiple_of(2) {
                updates.push(server.queue_insert(update_object(upd / 2)));
            } else {
                updates.push(server.queue_remove(ObjectId(10_000_000 + (upd / 2) as u64)));
            }
            upd += 1;
            server.flush_writes();
        }
        tickets.push(server.submit(q, spec));
    }
    for t in tickets {
        t.wait().result.expect("benchmark queries are valid");
    }
    for t in updates {
        assert!(t.wait().result.is_ok());
    }
    let wall = start.elapsed();
    let (nodes, leaf_fill) = index_quality(&server.snapshot().model);
    server.shutdown();
    let qps = n_queries as f64 / wall.as_secs_f64().max(1e-9);
    (qps, nodes, leaf_fill)
}

/// Run the experiment. Rows sweep |T| × shard count; columns compare the
/// three write paths (mean µs per update, speedup of path-copy over
/// rebuild) plus the sustained mixed read/write throughput.
pub fn run(quick: bool) -> Table {
    let sizes: &[usize] = if quick {
        &[1_000, 4_000, 16_000]
    } else {
        &[1_000, 8_000, 32_000]
    };
    let shard_sweep = [1usize, 8];
    let reps = if quick { 16 } else { 40 };
    let rounds = if quick { 2 } else { 5 };
    let n_queries = if quick { 600 } else { 3_000 };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Table::new(
        "Update",
        "Per-update latency and mixed read/write throughput: full-rebuild \
         baseline vs. persistent path-copy vs. coalesced bursts",
        &[
            key("|T|"),
            key("shards"),
            measured("rebuild (µs)"),
            measured("path-copy (µs)"),
            measured("speedup"),
            measured("coalesced (µs/op)"),
            measured("mixed q/s"),
            work("rtree nodes"),
            work("leaf fill"),
        ],
    );
    table.note(format!(
        "path-copy / coalesced are QueryServer snapshot swaps (persistent \
         R-tree + id map, O(log n) structural edits); rebuild is the \
         pre-persistent baseline (owning shard re-bulk-loaded per update); \
         coalesced bursts are {BURST} queued ops per flush (one publish \
         each); mixed streams {n_queries} VR queries (P = {DEFAULT_P}, \
         Δ = {DEFAULT_DELTA}) with 1 flushed update per 15 queries on \
         {threads} worker thread(s); {reps} reps per latency cell; \
         rtree nodes / leaf fill are post-workload counters of the final \
         snapshot's shard indexes (avg leaf entries over leaf capacity)"
    ));
    for &size in sizes {
        let objects = longbeach_objects(size);
        for shards in shard_sweep {
            let db = ShardedDb::<UncertainDb>::build(objects.clone(), Default::default(), shards)
                .expect("valid generated data");
            let rebuild = rebuild_latency(&db, reps);
            let path = path_copy_latency(&db, reps);
            let coalesced = coalesced_latency(&db, rounds);
            let (qps, nodes, leaf_fill) = mixed_throughput(&db, n_queries, threads);
            let rebuild_us = rebuild.as_secs_f64() * 1e6;
            let path_us = path.as_secs_f64() * 1e6;
            table.push_row(vec![
                size.to_string(),
                shards.to_string(),
                format!("{rebuild_us:.1}"),
                format!("{path_us:.1}"),
                format!("{:.1}x", rebuild_us / path_us.max(1e-9)),
                format!("{:.1}", coalesced.as_secs_f64() * 1e6),
                format!("{qps:.0}"),
                nodes.to_string(),
                format!("{leaf_fill:.3}"),
            ]);
        }
    }
    table
}
