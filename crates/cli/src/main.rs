//! `cpnn` — command-line front end for the uncertain-data query engine.
//!
//! ```text
//! cpnn generate --count 53144 --seed 7 --out data.cpnn     # build a dataset snapshot
//! cpnn info data.cpnn                                      # dataset statistics
//! cpnn pnn data.cpnn --q 4200                              # exact probabilities
//! cpnn cpnn data.cpnn --q 4200 --p 0.3 --delta 0.01        # constrained query (VR)
//! cpnn cpnn data.cpnn --q 4200 --p 0.3 --strategy basic    # baseline strategies
//! cpnn cpnn data.cpnn --batch 10000 --threads 8 --p 0.3    # parallel batch over
//!                                                          # random query points
//! cpnn knn data.cpnn --q 4200 --k 3 --p 0.5                # constrained k-NN
//! cpnn serve data.cpnn --threads 8                         # long-lived query server
//!                                                          # (streams queries from stdin)
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::io::{BufRead, IsTerminal as _, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cpnn_core::persist::{load_from_path, load_objects_from_path, save_to_path};
use cpnn_core::{
    pipeline, BatchExecutor, CacheConfig, CowModel, CpnnQuery, EngineConfig, FileBackend, ObjectId,
    QueryServer, QuerySpec, Served, ServerStats, ShardBalance, ShardedDb, SharedCacheConfig,
    Strategy, Ticket, UncertainDb, UncertainDb2d, UncertainObject, UpdateOp, UpdateOutcome,
};
use cpnn_datagen::{
    longbeach::longbeach_with, objects_2d, query_points_in, LongBeachConfig, Synthetic2dConfig,
};

mod args;
mod distributed;

use args::{ArgBag, UsageError};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some(cmd) = argv.first() else {
        print_usage();
        return Ok(());
    };
    let mut bag = ArgBag::parse(&argv[1..])?;
    match cmd.as_str() {
        "generate" => generate(&mut bag),
        "info" => info(&mut bag),
        "pnn" => pnn(&mut bag),
        "cpnn" => cpnn(&mut bag),
        "knn" => knn(&mut bag),
        "knn2d" => knn2d(&mut bag),
        "serve" => serve(&mut bag),
        "shard-split" => distributed::shard_split(&mut bag),
        "shard-serve" => distributed::shard_serve(&mut bag),
        "route" => distributed::route(&mut bag),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(Box::new(UsageError(format!("unknown command `{other}`")))),
    }
}

fn print_usage() {
    eprintln!(
        "usage: cpnn <command> [options]\n\n\
         commands:\n\
         \x20 generate --out FILE [--count N] [--seed S]   create a synthetic dataset snapshot\n\
         \x20 info FILE                                    dataset statistics\n\
         \x20 pnn FILE --q Q [--top N]                     exact qualification probabilities\n\
         \x20 cpnn FILE --q Q --p P [--delta D] [--strategy vr|basic|refine] [--cache N]\n\
         \x20           [--cache-quantum EPS] [--shared-cache N]\n\
         \x20 cpnn FILE --batch N --p P [--threads T] [--seed S] [--delta D] [--strategy S]\n\
         \x20           [--cache N] [--cache-quantum EPS] [--shared-cache N]\n\
         \x20                                              batch over N random query points\n\
         \x20                                              (T = 0 means one per core; --cache N\n\
         \x20                                              memoizes verification state for up\n\
         \x20                                              to N query points per worker, snapped\n\
         \x20                                              to an EPS-wide grid; --shared-cache N\n\
         \x20                                              adds a process-wide second tier that\n\
         \x20                                              all workers consult on local misses\n\
         \x20                                              and memoizes verification outcomes)\n\
         \x20 knn FILE --q Q --k K --p P [--delta D]       constrained probabilistic k-NN\n\
         \x20 knn2d --qx X --qy Y --p P [--k K] [--count N] [--seed S] [--delta D]\n\
         \x20       [--domain D] [--cache N] [--cache-quantum EPS] [--shared-cache N]\n\
         \x20                                              constrained 2-D k-NN over a synthetic\n\
         \x20                                              disk/rectangle dataset on [0, D]²\n\
         \x20 serve FILE [--threads T] [--queries FILE] [--shards N] [--shard-balance B]\n\
         \x20       [--cache N] [--cache-quantum EPS]      long-lived query server: stream\n\
         \x20       [--shared-cache N]\n\
         \x20       [--data-dir DIR] [--checkpoint-every N] queries from stdin (or FILE) through\n\
         \x20                                              a worker pool; insert/remove are\n\
         \x20                                              O(log n) path-copying snapshot swaps,\n\
         \x20                                              and consecutive update lines coalesce\n\
         \x20                                              into one swap; --data-dir makes every\n\
         \x20                                              publish durable (checkpoint + write-\n\
         \x20                                              ahead journal) and recovers from DIR\n\
         \x20                                              on restart (FILE then only seeds a\n\
         \x20                                              fresh DIR); `serve help` for the\n\
         \x20                                              protocol\n\
         \x20 shard-split FILE --out DIR [--shards N]      partition a dataset into per-shard\n\
         \x20             [--shard-balance width|quantile] durable data dirs (DIR/shard{{i}})\n\
         \x20                                              plus a DIR/shards.cpsm map for\n\
         \x20                                              `route`\n\
         \x20 shard-serve DIR [--listen ADDR] [--threads T] [--checkpoint-every N]\n\
         \x20                                              host one shard as its own process:\n\
         \x20                                              recover DIR (checkpoint + journal),\n\
         \x20                                              serve filter/update frames on a\n\
         \x20                                              socket (default DIR/shard.sock)\n\
         \x20                                              until killed; restart to recover\n\
         \x20 route MAPFILE [--queries FILE] [--timeout-ms N] [--retries N] [--backoff-ms N]\n\
         \x20                                              query router over shard processes:\n\
         \x20                                              same line protocol as `serve`, with\n\
         \x20                                              horizon-pruned fan-out, router-side\n\
         \x20                                              verification, and typed `unavailable`\n\
         \x20                                              degradation when a shard dies"
    );
}

fn load(bag: &mut ArgBag) -> Result<UncertainDb, Box<dyn std::error::Error>> {
    let path: PathBuf = bag.positional("dataset file")?;
    Ok(load_from_path(&path)?)
}

fn generate(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let out: PathBuf = bag.required("out")?;
    let count: usize = bag.optional("count")?.unwrap_or(53_144);
    let seed: u64 = bag.optional("seed")?.unwrap_or(0xC0FFEE);
    bag.finish()?;
    let cfg = LongBeachConfig {
        count,
        ..LongBeachConfig::default()
    };
    let db = UncertainDb::build(longbeach_with(seed, cfg))?;
    save_to_path(&db, &out)?;
    println!(
        "wrote {} objects (seed {seed}) to {}",
        db.len(),
        out.display()
    );
    Ok(())
}

fn info(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let db = load(bag)?;
    bag.finish()?;
    let (lo, hi) = db.domain().unwrap_or((0.0, 0.0));
    let mut widths: Vec<f64> = db
        .objects()
        .iter()
        .map(|o| {
            let (a, b) = o.region();
            b - a
        })
        .collect();
    widths.sort_by(f64::total_cmp);
    let mid = widths.len() / 2;
    println!("objects : {}", db.len());
    println!("domain  : [{lo:.2}, {hi:.2}]");
    if !widths.is_empty() {
        println!(
            "widths  : min {:.3}  median {:.3}  max {:.3}",
            widths[0],
            widths[mid],
            widths[widths.len() - 1]
        );
    }
    Ok(())
}

fn pnn(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let db = load(bag)?;
    let q: f64 = bag.required("q")?;
    let top: usize = bag.optional("top")?.unwrap_or(10);
    bag.finish()?;
    let res = db.pnn(q)?;
    println!(
        "{} candidates, {} subregions, evaluated in {:?}",
        res.stats.candidates,
        res.stats.subregions,
        res.stats.total_time()
    );
    for (id, p) in res.probabilities.iter().take(top) {
        println!("  {id}: {:.4}", p);
    }
    Ok(())
}

fn parse_strategy(name: &str) -> Result<Strategy, UsageError> {
    match name {
        "vr" | "verified" => Ok(Strategy::Verified),
        "basic" => Ok(Strategy::Basic),
        "refine" => Ok(Strategy::RefineOnly),
        other => Err(UsageError(format!("unknown strategy `{other}`"))),
    }
}

/// Shared `--shard-balance width|quantile` parsing (equal-width slabs by
/// default; `quantile` places slab boundaries at object-center quantiles
/// so clustered data still shards evenly).
fn shard_balance_args(bag: &mut ArgBag) -> Result<ShardBalance, UsageError> {
    match bag.optional::<String>("shard-balance")? {
        None => Ok(ShardBalance::default()),
        Some(name) => ShardBalance::parse(&name).ok_or_else(|| {
            UsageError(format!(
                "unknown --shard-balance `{name}` (expected `width` or `quantile`)"
            ))
        }),
    }
}

/// Shared `--cache N` / `--cache-quantum EPS` / `--shared-cache N`
/// parsing (capacity 0, the default, disables each tier). `--shared-cache` alone implies a per-thread L1 of the same
/// capacity, since the shared tier is only consulted on L1 misses.
fn cache_args(bag: &mut ArgBag) -> Result<(CacheConfig, SharedCacheConfig), UsageError> {
    let capacity: Option<usize> = bag.optional("cache")?;
    let quantum: f64 = bag.optional("cache-quantum")?.unwrap_or(0.0);
    let shared: usize = bag.optional("shared-cache")?.unwrap_or(0);
    if !(quantum.is_finite() && quantum >= 0.0) {
        return Err(UsageError(format!(
            "--cache-quantum must be a finite value >= 0, got {quantum}"
        )));
    }
    if capacity == Some(0) && shared > 0 {
        return Err(UsageError(
            "--shared-cache requires the per-thread cache: drop `--cache 0`".into(),
        ));
    }
    // The shared tier sits behind the per-thread tier, so enabling it
    // without --cache defaults the per-thread capacity to match.
    let capacity = capacity.unwrap_or(if shared > 0 { shared } else { 0 });
    if quantum > 0.0 && capacity == 0 {
        return Err(UsageError(
            "--cache-quantum has no effect without --cache N (N > 0 enables the cache)".into(),
        ));
    }
    Ok((
        CacheConfig::new(capacity, quantum),
        SharedCacheConfig::new(shared),
    ))
}

fn cpnn(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let path: PathBuf = bag.positional("dataset file")?;
    let batch = bag.optional::<usize>("batch")?;
    let (cache, shared_cache) = cache_args(bag)?;
    // Built from the snapshot's raw objects, so a sharded snapshot loads
    // as one flat database too.
    let db = UncertainDb::build(load_objects_from_path(&path)?)?;
    let mut cfg = db.config().pipeline();
    cfg.cache = cache;
    cfg.shared_cache = shared_cache;
    if let Some(count) = batch {
        return cpnn_batch(bag, &db, count, &cfg);
    }
    let (query, strategy) = cpnn_query_args(bag)?;
    let spec = QuerySpec::nn(query.threshold, query.tolerance, strategy);
    warn_snapped(&cfg.cache, &[query.q]);
    print_cpnn_result(&pipeline::cpnn(&db, &query.q, &spec, &cfg)?);
    Ok(())
}

/// One-shot queries with `--cache-quantum` evaluate the *snapped* point;
/// say so, since the output otherwise gives no hint the point moved.
fn warn_snapped(cache: &CacheConfig, coords: &[f64]) {
    if !cache.is_enabled() || cache.quantum <= 0.0 {
        return;
    }
    let snapped: Vec<f64> = coords
        .iter()
        .map(|&c| cpnn_core::cache::quantize_coord(c, cache.quantum))
        .collect();
    if snapped != coords {
        eprintln!(
            "cache quantum {} snapped the query point {:?} -> {:?}",
            cache.quantum, coords, snapped
        );
    }
}

/// `--q/--p/--delta/--strategy` parsing for the one-shot `cpnn` path.
fn cpnn_query_args(bag: &mut ArgBag) -> Result<(CpnnQuery, Strategy), Box<dyn std::error::Error>> {
    let q: f64 = bag.required("q")?;
    let p: f64 = bag.required("p")?;
    let delta: f64 = bag.optional("delta")?.unwrap_or(0.01);
    let strategy = parse_strategy(
        &bag.optional::<String>("strategy")?
            .unwrap_or_else(|| "vr".into()),
    )?;
    bag.finish()?;
    Ok((CpnnQuery::new(q, p, delta), strategy))
}

fn print_cpnn_result(res: &cpnn_core::CpnnResult) {
    println!(
        "answers: {:?}",
        res.answers.iter().map(|id| id.0).collect::<Vec<_>>()
    );
    println!(
        "candidates {} | resolved by verification: {} | refined {} | total {:?}",
        res.stats.candidates,
        res.stats.resolved_by_verification,
        res.stats.refined_objects,
        res.stats.total_time()
    );
    for r in res.reports.iter().filter(|r| r.bound.hi() > 0.01) {
        println!("  {}: {} -> {:?}", r.id, r.bound, r.label);
    }
}

/// `cpnn FILE --batch N`: evaluate `N` random query points concurrently
/// through the batch executor and report aggregate statistics.
fn cpnn_batch(
    bag: &mut ArgBag,
    db: &UncertainDb,
    count: usize,
    cfg: &cpnn_core::PipelineConfig,
) -> Result<(), Box<dyn std::error::Error>> {
    let p: f64 = bag.required("p")?;
    let delta: f64 = bag.optional("delta")?.unwrap_or(0.01);
    let threads: usize = bag.optional("threads")?.unwrap_or(0);
    let seed: u64 = bag.optional("seed")?.unwrap_or(42);
    let strategy = parse_strategy(
        &bag.optional::<String>("strategy")?
            .unwrap_or_else(|| "vr".into()),
    )?;
    bag.finish()?;
    let (lo, hi) = db.domain().unwrap_or((0.0, 1.0));
    let queries: Vec<CpnnQuery> = query_points_in(seed, count, lo, hi)
        .into_iter()
        .map(|q| CpnnQuery::new(q, p, delta))
        .collect();
    let out = BatchExecutor::new(threads).run_cpnn(db, &queries, strategy, cfg);
    print_batch_outcome(&out)
}

fn print_batch_outcome(out: &cpnn_core::BatchOutcome) -> Result<(), Box<dyn std::error::Error>> {
    let s = &out.summary;
    println!(
        "{} queries on {} threads in {:?}  ({:.0} queries/s, parallel efficiency {:.2}x)",
        s.queries,
        s.threads,
        s.wall_time,
        s.throughput(),
        s.parallel_efficiency()
    );
    println!(
        "errors {} | answers {} | avg candidates {:.1} | resolved by verification {:.1}%",
        s.errors,
        s.answers,
        s.candidates as f64 / s.queries.max(1) as f64,
        100.0 * s.resolved_by_verification as f64 / s.queries.max(1) as f64
    );
    println!(
        "per-query time: filter {:?} | init {:?} | verify {:?} | refine {:?}",
        s.filter_time / s.queries.max(1) as u32,
        s.init_time / s.queries.max(1) as u32,
        s.verify_time / s.queries.max(1) as u32,
        s.refine_time / s.queries.max(1) as u32
    );
    if s.cache_hits + s.shared_hits + s.cache_misses > 0 {
        println!(
            "cache: {} hits / {} shared hits / {} misses ({:.1}% hit rate, {} memo \
             short-circuits)",
            s.cache_hits,
            s.shared_hits,
            s.cache_misses,
            100.0 * s.cache_hit_rate(),
            s.outcome_hits
        );
    }
    if let Some(err) = out.results.iter().filter_map(|r| r.as_ref().err()).next() {
        if s.errors == s.queries {
            // Every query failed (e.g. an invalid threshold): that is a
            // usage error, not a result.
            return Err(Box::new(err.clone()));
        }
        eprintln!("first of {} error(s): {err}", s.errors);
    }
    Ok(())
}

fn knn(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let db = load(bag)?;
    let q: f64 = bag.required("q")?;
    let k: usize = bag.required("k")?;
    let p: f64 = bag.required("p")?;
    let delta: f64 = bag.optional("delta")?.unwrap_or(0.0);
    bag.finish()?;
    let res = db.cknn(q, k, p, delta)?;
    println!(
        "answers: {:?}  ({} candidates, {} integrations)",
        res.answers.iter().map(|id| id.0).collect::<Vec<_>>(),
        res.stats.candidates,
        res.stats.integrations
    );
    Ok(())
}

/// `cpnn knn2d`: constrained probabilistic k-NN over a synthetic 2-D
/// dataset (mixed uniform disks and rectangles) — the ROADMAP's "2-D k-NN"
/// workload, running `pipeline::cpnn` with `k > 1` over `UncertainDb2d`.
fn knn2d(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let qx: f64 = bag.required("qx")?;
    let qy: f64 = bag.required("qy")?;
    let p: f64 = bag.required("p")?;
    let k: usize = bag.optional("k")?.unwrap_or(3);
    let delta: f64 = bag.optional("delta")?.unwrap_or(0.0);
    let count: usize = bag.optional("count")?.unwrap_or(5_000);
    let seed: u64 = bag.optional("seed")?.unwrap_or(0x2D);
    let domain: f64 = bag.optional("domain")?.unwrap_or(1_000.0);
    let (cache, shared_cache) = cache_args(bag)?;
    bag.finish()?;
    let cfg2d = Synthetic2dConfig {
        count,
        domain,
        ..Synthetic2dConfig::default()
    };
    if !(domain.is_finite() && domain > 2.0 * cfg2d.max_radius) {
        return Err(Box::new(UsageError(format!(
            "--domain must be a finite value greater than {} (2x the max object radius)",
            2.0 * cfg2d.max_radius
        ))));
    }
    let objects = objects_2d(seed, cfg2d);
    let db = UncertainDb2d::build(objects)?;
    let spec = QuerySpec::knn(k, p, delta, Strategy::Verified);
    let cfg = cpnn_core::PipelineConfig {
        cache,
        shared_cache,
        ..Default::default()
    };
    warn_snapped(&cfg.cache, &[qx, qy]);
    let res = pipeline::cpnn(&db, &[qx, qy], &spec, &cfg)?;
    println!("{} objects, query ({qx}, {qy}), k = {k}, P = {p}", db.len());
    println!(
        "answers: {:?}  ({} candidates, {} subregions, {} integrations, {:?})",
        res.answers.iter().map(|id| id.0).collect::<Vec<_>>(),
        res.stats.candidates,
        res.stats.subregions,
        res.stats.integrations,
        res.stats.total_time()
    );
    for r in res.reports.iter().filter(|r| r.bound.hi() > 0.01) {
        println!("  {}: {} -> {:?}", r.id, r.bound, r.label);
    }
    Ok(())
}

const SERVE_PROTOCOL: &str = "\
serve line protocol (stdin or --queries FILE; one request per line):
  <q> <p> [delta]           constrained 1-NN query (delta defaults to 0.01,
                            matching the one-shot `cpnn` command)
  cpnn <q> <p> [delta]      constrained 1-NN query
  knn <q> <k> <p> [delta]   constrained k-NN query (delta defaults to 0)
  insert <id> <lo> <hi>     queue a new uniform object on the
                            write-coalescing lane (O(log n) path copy)
  remove <id>               queue the object's removal
  stats                     drain pending responses and flush queued
                            updates, then report server counters:
                            `stats served=<n> updates=<n>
                            coalesced_batches=<n> applied_updates=<n>
                            cache_hits=<n> cache_misses=<n>
                            shared_hits=<n> outcome_hits=<n>
                            wal_records=<n> checkpoints=<n>` (cache
                            counters stay 0 unless --cache is on;
                            shared_hits/outcome_hits stay 0 unless
                            --shared-cache is on; durability counters
                            stay 0 unless --data-dir is on)
  quit                      drain pending responses, flush updates, exit
consecutive insert/remove lines form one burst: they publish together as
ONE snapshot swap (one version bump, one cache-invalidation pass) when
the next query/stats line — or end of input — flushes them, printing one
`update v<version> objects=<n> batch=<burst>` line per applied op (or
`update rejected: <err>`). A query therefore always observes every
update queued before it. Relevant flags: --threads T (worker pool),
--shards N (domain partitioning; updates path-copy only the owning
shard), --shard-balance width|quantile (slab scheme), --cache N
[--cache-quantum EPS] (verification-state cache; updates invalidate it
incrementally by region), --shared-cache N (a process-wide second cache
tier all workers consult on local misses and publish fills into, with
verification outcomes memoized per threshold band; entries admit on
second sight),
--data-dir DIR (durable storage: each burst
appends one fsync'd write-ahead journal record BEFORE it publishes, and
a restart pointing at the same DIR recovers checkpoint + journal tail —
FILE then only seeds a fresh DIR), --checkpoint-every N (fold the
journal into a fresh checkpoint every N bursts; 0 = only at startup and
clean shutdown). Blank lines and lines starting with `#` are ignored;
responses stream back in submission order as
`#<n> v<version> answers=[..]`.";

/// `cpnn serve FILE`: long-lived [`QueryServer`] session. Reads requests
/// line by line, submits them to the worker pool without waiting, and
/// streams responses back in submission order as they complete. Updates
/// (`insert` / `remove`) queue on the server's write-coalescing lane and
/// publish as **one** snapshot swap per burst (flushed before the next
/// query, `stats`, or end of input — so a query always observes every
/// update queued before it); each response reports the snapshot version
/// that served it.
///
/// The backend is always a domain-partitioned [`ShardedDb`] (`--shards`
/// slabs, default 1; `--shard-balance quantile` for equal-count slabs):
/// updates **path-copy** only the owning shard — O(log |shard|)
/// structural edits, never rebuilds. The single-shard case is the
/// unsharded behavior.
///
/// With `--data-dir DIR` the session is durable: a
/// [`FileBackend`] is attached before any write is accepted, so every
/// burst appends one fsync'd write-ahead journal record *before* it
/// publishes, and a restart pointing at the same DIR recovers
/// checkpoint + journal tail and resumes at the pre-crash snapshot
/// version (the positional FILE then only seeds a fresh, empty DIR).
fn serve(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    if bag.peek_positional() == Some("help") {
        println!("{SERVE_PROTOCOL}");
        return Ok(());
    }
    let path: Option<PathBuf> = match bag.peek_positional() {
        Some(_) => Some(bag.positional("dataset file")?),
        None => None,
    };
    let threads: usize = bag.optional("threads")?.unwrap_or(0);
    let shards: usize = bag.optional("shards")?.unwrap_or(1);
    let balance = shard_balance_args(bag)?;
    let queries: Option<PathBuf> = bag.optional("queries")?;
    let (cache, shared_cache) = cache_args(bag)?;
    let data_dir: Option<PathBuf> = bag.optional("data-dir")?;
    let checkpoint_every: u64 = bag.optional("checkpoint-every")?.unwrap_or(0);
    bag.finish()?;

    // Recover from the data directory when it already holds a checkpoint;
    // otherwise seed from the positional FILE (building the sharded store
    // directly from the snapshot's objects — one index build total, not a
    // flat database torn down and re-sharded).
    let mut backend = match &data_dir {
        Some(dir) => Some(FileBackend::open(dir)?),
        None => None,
    };
    let recovered = match backend.as_mut() {
        Some(b) => b.recover::<ShardedDb<UncertainDb>>(&EngineConfig::default())?,
        None => None,
    };
    let (sharded, initial_version) = match recovered {
        Some(rec) => {
            if let Some(off) = rec.torn_at {
                eprintln!(
                    "journal tail torn at byte {off}; recovered the last durable burst instead"
                );
            }
            eprintln!(
                "recovered {} objects at v{} ({} journal record(s) replayed) from {}",
                rec.model.len(),
                rec.version,
                rec.records,
                data_dir
                    .as_ref()
                    .expect("recovery implies data dir")
                    .display()
            );
            if shards != 1 && rec.model.num_shards() != shards {
                eprintln!(
                    "note: --shards {shards} ignored — the recovered layout has {} shard(s) \
                     (sharding is fixed at seed time)",
                    rec.model.num_shards()
                );
            }
            (rec.model, rec.version)
        }
        None => {
            let path = path.ok_or("missing dataset file (and --data-dir holds no checkpoint)")?;
            let db =
                UncertainDb::build_sharded_with(load_objects_from_path(&path)?, shards, balance)?;
            (db, 0)
        }
    };
    let mut pipeline = sharded.pipeline_config();
    pipeline.cache = cache;
    pipeline.shared_cache = shared_cache;
    let num_shards = sharded.num_shards();
    let server = QueryServer::start_at(sharded, initial_version, threads, pipeline);
    if let Some(backend) = backend {
        // Attach before accepting any write, then checkpoint immediately:
        // a seeded database becomes durable from line one, and a recovered
        // journal tail is folded into a fresh checkpoint (truncating the
        // journal the replay just consumed).
        server.attach_storage(Box::new(backend));
        server.checkpoint_now()?;
    }
    let mut checkpoint_policy = CheckpointPolicy {
        every: checkpoint_every,
        since: 0,
    };
    eprintln!(
        "serving on {} worker thread(s) over {} shard(s); send `quit` or EOF to stop",
        server.threads(),
        num_shards
    );

    // On a terminal, each response is awaited before the next prompt read
    // (a human wants the answer now); on piped/file input, submissions
    // pipeline and responses are drained opportunistically.
    let interactive = queries.is_none() && std::io::stdin().is_terminal();
    let start = Instant::now();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Responses print strictly in submission order: completed tickets are
    // drained from the front opportunistically, so results stream while the
    // reader is still feeding the queue.
    let mut pending: VecDeque<(u64, Ticket)> = VecDeque::new();
    // Updates queued on the write-coalescing lane, awaiting the flush at
    // the current burst's end.
    let mut queued_updates: Vec<Ticket<UpdateOutcome>> = Vec::new();
    let mut submitted: u64 = 0;
    let mut line_no = 0u64;

    let reader: Box<dyn BufRead> = match queries {
        Some(path) => Box::new(std::io::BufReader::new(std::fs::File::open(path)?)),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };
    for line in reader.lines() {
        let line = line?;
        line_no += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "quit" {
            break;
        }
        match parse_serve_line(line) {
            Ok(ServeRequest::Query(q, spec)) => {
                // A queued update burst ends here: settle earlier queries
                // (output order), publish the burst as one snapshot swap,
                // and only then submit — the query must observe every
                // update queued before it.
                if !queued_updates.is_empty() {
                    drain_all(&mut pending, &mut out)?;
                    flush_updates(
                        &server,
                        &mut queued_updates,
                        &mut checkpoint_policy,
                        &mut out,
                    )?;
                }
                // Bound the backlog: piped input can outrun the workers, and
                // every pending ticket buffers a full response.
                const MAX_IN_FLIGHT: usize = 1024;
                if pending.len() >= MAX_IN_FLIGHT {
                    let (seq, ticket) = pending.pop_front().expect("backlog is non-empty");
                    print_served(&mut out, seq, &ticket.wait())?;
                }
                pending.push_back((submitted, server.submit(q, spec)));
                submitted += 1;
            }
            Ok(ServeRequest::Update(op)) => {
                // Queue only — consecutive update lines coalesce into one
                // publish at the burst's end.
                queued_updates.push(server.queue_update(op));
            }
            Ok(ServeRequest::Stats) => {
                // Settle earlier queries and flush queued updates first so
                // the counters cover every request that precedes this line.
                drain_all(&mut pending, &mut out)?;
                flush_updates(
                    &server,
                    &mut queued_updates,
                    &mut checkpoint_policy,
                    &mut out,
                )?;
                write_stats_line(&mut out, &server.stats())?;
            }
            Err(msg) => {
                eprintln!("line {line_no}: {msg}");
                eprintln!("{SERVE_PROTOCOL}");
            }
        }
        if interactive {
            // A human wants effects now: settle queries and publish any
            // queued update immediately (bursts still coalesce when pasted
            // as one multi-line block — the reader sees them in one gulp).
            drain_all(&mut pending, &mut out)?;
            flush_updates(
                &server,
                &mut queued_updates,
                &mut checkpoint_policy,
                &mut out,
            )?;
            out.flush()?;
            continue;
        }
        // Stream any responses that are already done (front first: output
        // stays in submission order).
        while let Some((seq, ticket)) = pending.front() {
            match ticket.try_wait() {
                Some(served) => {
                    print_served(&mut out, *seq, &served)?;
                    pending.pop_front();
                }
                None => break,
            }
        }
    }
    // EOF / quit: wait out the tail, then publish any trailing burst. A
    // clean shutdown folds the journal into one final checkpoint, so the
    // next start recovers from the checkpoint alone (no replay).
    drain_all(&mut pending, &mut out)?;
    flush_updates(
        &server,
        &mut queued_updates,
        &mut checkpoint_policy,
        &mut out,
    )?;
    server.checkpoint_now()?;
    let stats = server.shutdown();
    let wall = start.elapsed();
    let cache_note = if stats.cache_hits + stats.shared_hits + stats.cache_misses > 0 {
        format!(
            ", cache {} hits / {} shared / {} misses ({} memo short-circuits)",
            stats.cache_hits, stats.shared_hits, stats.cache_misses, stats.outcome_hits
        )
    } else {
        String::new()
    };
    eprintln!(
        "served {} queries, {} snapshot update(s) in {:.3?} ({:.0} queries/s{})",
        stats.served,
        stats.updates,
        wall,
        stats.served as f64 / wall.as_secs_f64().max(1e-9),
        cache_note
    );
    Ok(())
}

/// Block until every pending response has been printed (submission order).
fn drain_all(
    pending: &mut VecDeque<(u64, Ticket)>,
    out: &mut impl std::io::Write,
) -> Result<(), std::io::Error> {
    for (seq, ticket) in pending.drain(..) {
        print_served(out, seq, &ticket.wait())?;
    }
    Ok(())
}

/// When to fold the write-ahead journal into a fresh checkpoint:
/// every `every` published bursts (`0` = never on the hot path — only
/// the startup and clean-shutdown checkpoints bound the journal).
struct CheckpointPolicy {
    every: u64,
    since: u64,
}

impl CheckpointPolicy {
    /// Count one published burst; checkpoint when the budget is spent.
    /// No-op without an attached backend (`checkpoint_now` returns
    /// `None`) or with `every == 0`.
    fn after_burst(
        &mut self,
        server: &QueryServer<ShardedDb<UncertainDb>>,
    ) -> Result<(), cpnn_core::CoreError> {
        if self.every == 0 {
            return Ok(());
        }
        self.since += 1;
        if self.since >= self.every {
            self.since = 0;
            server.checkpoint_now()?;
        }
        Ok(())
    }
}

/// End the current update burst: publish every queued update as one
/// snapshot swap ([`QueryServer::flush_writes`]) and print each op's
/// outcome in queue order. No-op when nothing is queued. With durable
/// storage attached the publish appends one journal record first
/// (inside `flush_writes`); `policy` decides when the journal gets
/// folded into a fresh checkpoint.
fn flush_updates(
    server: &QueryServer<ShardedDb<UncertainDb>>,
    queued: &mut Vec<Ticket<UpdateOutcome>>,
    policy: &mut CheckpointPolicy,
    out: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    if queued.is_empty() {
        return Ok(());
    }
    server.flush_writes();
    let objects = server.snapshot().model.len() as u64;
    for ticket in queued.drain(..) {
        let outcome = ticket.wait();
        write_update_line(
            out,
            &outcome.result,
            outcome.snapshot_version,
            objects,
            outcome.batch,
        )?;
    }
    policy.after_burst(server)?;
    Ok(())
}

/// The `stats served=… checkpoints=…` line `serve` and `route` print.
fn write_stats_line(out: &mut impl std::io::Write, s: &ServerStats) -> std::io::Result<()> {
    writeln!(
        out,
        "stats served={} updates={} coalesced_batches={} applied_updates={} cache_hits={} \
         cache_misses={} shared_hits={} outcome_hits={} wal_records={} checkpoints={}",
        s.served,
        s.updates,
        s.coalesced_batches,
        s.applied_updates,
        s.cache_hits,
        s.cache_misses,
        s.shared_hits,
        s.outcome_hits,
        s.wal_records,
        s.checkpoints
    )
}

/// One op's line after its burst published: `update v<version>
/// objects=<n> batch=<burst>` when it applied, `update rejected: <err>`
/// when it did not — the lines `serve` and `route` print alike.
fn write_update_line(
    out: &mut impl std::io::Write,
    result: &Result<(), impl std::fmt::Display>,
    version: u64,
    objects: u64,
    batch: usize,
) -> std::io::Result<()> {
    match result {
        Ok(()) => writeln!(out, "update v{version} objects={objects} batch={batch}"),
        Err(e) => writeln!(out, "update rejected: {e}"),
    }
}

/// One parsed line of the serve protocol, for a model `M` of uniform
/// 1-D objects (the flat database behind `route`, the sharded one behind
/// `serve`).
enum ServeRequest<M: CowModel<Object = UncertainObject>> {
    Query(f64, QuerySpec),
    Update(UpdateOp<M>),
    Stats,
}

/// Parse one line of the serve protocol (see [`SERVE_PROTOCOL`]).
fn parse_serve_line<M: CowModel<Object = UncertainObject>>(
    line: &str,
) -> Result<ServeRequest<M>, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let num = |s: &str, what: &str| -> Result<f64, String> {
        s.parse::<f64>()
            .map_err(|_| format!("invalid {what} `{s}`"))
    };
    let int = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|_| format!("invalid {what} `{s}`"))
    };
    match fields.as_slice() {
        ["knn", q, k, p] => Ok(ServeRequest::Query(
            num(q, "query point")?,
            QuerySpec::knn(
                int(k, "k")? as usize,
                num(p, "threshold")?,
                0.0,
                Strategy::Verified,
            ),
        )),
        ["knn", q, k, p, d] => Ok(ServeRequest::Query(
            num(q, "query point")?,
            QuerySpec::knn(
                int(k, "k")? as usize,
                num(p, "threshold")?,
                num(d, "tolerance")?,
                Strategy::Verified,
            ),
        )),
        ["insert", id, lo, hi] => Ok(ServeRequest::Update(UpdateOp::Insert(
            UncertainObject::uniform(
                ObjectId(int(id, "object id")?),
                num(lo, "lower bound")?,
                num(hi, "upper bound")?,
            )
            .map_err(|e| e.to_string())?,
        ))),
        ["remove", id] => {
            let id = ObjectId(int(id, "object id")?);
            Ok(ServeRequest::Update(UpdateOp::Remove(id)))
        }
        ["stats"] => Ok(ServeRequest::Stats),
        // Bare and `cpnn`-prefixed 1-NN queries come last: a two- or
        // three-field line that is not a keyword request is `<q> <p> [delta]`.
        // The tolerance default matches the one-shot `cpnn` command (0.01),
        // so a streamed query answers exactly like its one-shot twin.
        ["cpnn", q, p] | [q, p] => Ok(ServeRequest::Query(
            num(q, "query point")?,
            QuerySpec::nn(num(p, "threshold")?, 0.01, Strategy::Verified),
        )),
        ["cpnn", q, p, d] | [q, p, d] => Ok(ServeRequest::Query(
            num(q, "query point")?,
            QuerySpec::nn(
                num(p, "threshold")?,
                num(d, "tolerance")?,
                Strategy::Verified,
            ),
        )),
        _ => Err(format!("unrecognized request `{line}`")),
    }
}

fn print_served(
    out: &mut impl std::io::Write,
    seq: u64,
    served: &Served,
) -> Result<(), std::io::Error> {
    match &served.result {
        Ok(res) => writeln!(
            out,
            "#{seq} v{} answers={:?} cands={} t={:?}",
            served.snapshot_version,
            res.answers.iter().map(|id| id.0).collect::<Vec<_>>(),
            res.stats.candidates,
            res.stats.total_time()
        ),
        Err(e) => writeln!(out, "#{seq} v{} error: {e}", served.snapshot_version),
    }
}
