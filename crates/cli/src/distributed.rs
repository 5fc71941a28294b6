//! Distributed serving commands: `shard-split` (partition a dataset into
//! per-shard durable data directories + a shard map), `shard-serve` (host
//! one shard's slab as its own OS process on a socket), and `route` (the
//! query router front-end speaking the same line protocol as `serve`).
//!
//! The three commands compose into a fleet that answers bit-for-bit like
//! the single-process `serve` loop:
//!
//! ```text
//! cpnn shard-split data.cpnn --out fleet --shards 4
//! cpnn shard-serve fleet/shard0 &    # ... one process per shard
//! cpnn shard-serve fleet/shard1 &
//! cpnn route fleet/shards.cpsm --queries workload.txt
//! ```

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cpnn_core::persist::load_objects_from_path;
use cpnn_core::{EngineConfig, FileBackend, QueryServer, ShardableModel, UncertainDb};
use cpnn_router::{
    QueryRouter, RouterConfig, ShardAddr, ShardListener, ShardMap, ShardServeConfig,
    ShardServerHandle, UpdateOp,
};

use crate::args::ArgBag;
use crate::{
    parse_serve_line, shard_balance_args, write_stats_line, write_update_line, ServeRequest,
};

/// The shard-map file name `shard-split` writes and `route` loads.
pub const SHARD_MAP_FILE: &str = "shards.cpsm";
/// The socket file each shard process binds inside its data directory.
pub const SHARD_SOCKET_FILE: &str = "shard.sock";

/// `cpnn shard-split FILE --out DIR [--shards N] [--shard-balance B]` —
/// partition a dataset snapshot into per-shard durable data directories
/// (each holding its slab's checkpoint, ready for `shard-serve`) plus a
/// `shards.cpsm` map for `route`. The axis and slab boundaries are the
/// ones a single-process `--shards N` serve would use, which is what
/// makes the routed fleet answer identically.
pub fn shard_split(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let path: PathBuf = bag.positional("dataset file")?;
    let out: PathBuf = bag.required("out")?;
    let shards: usize = bag.optional("shards")?.unwrap_or(4);
    let balance = shard_balance_args(bag)?;
    bag.finish()?;

    let sharded = UncertainDb::build_sharded_with(load_objects_from_path(&path)?, shards, balance)?;
    std::fs::create_dir_all(&out)?;
    let mut addrs = Vec::with_capacity(shards);
    for i in 0..sharded.num_shards() {
        let dir = out.join(format!("shard{i}"));
        // Seed each shard's data directory through the same durable seam
        // a live shard process uses: attach a FileBackend, checkpoint,
        // shut down — so `shard-serve DIR` recovers exactly this state.
        let model = UncertainDb::with_config(
            sharded.shard_model(i).shard_objects(),
            *sharded.shard_configuration(),
        )?;
        let objects = model.len();
        let backend = FileBackend::open(&dir)?;
        let server = QueryServer::start(model, 1, sharded.pipeline_config());
        server.attach_storage(Box::new(backend));
        server.checkpoint_now()?;
        server.shutdown();
        println!("shard{i}: {objects} object(s) -> {}", dir.display());
        addrs.push(ShardAddr::Unix(dir.join(SHARD_SOCKET_FILE)));
    }
    let map = ShardMap {
        axis: sharded.partition_axis(),
        bounds: sharded.slab_bounds().to_vec(),
        addrs,
    };
    let map_path = out.join(SHARD_MAP_FILE);
    map.write_to_path(&map_path)?;
    println!(
        "shard map: {} shard(s) along axis {} -> {}",
        map.shard_count(),
        map.axis,
        map_path.display()
    );
    Ok(())
}

/// `cpnn shard-serve DIR [--listen ADDR] [--threads T]
/// [--checkpoint-every N]` — host one shard as its own OS process:
/// recover the slab from DIR (checkpoint + write-ahead journal tail),
/// then answer filter/update requests over a socket until killed. A
/// restart with the same DIR resumes from the last durable burst — no
/// global rebuild, which is what lets `route` restart a dead shard
/// independently.
pub fn shard_serve(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let dir: PathBuf = bag.positional("shard data directory")?;
    let listen: Option<String> = bag.optional("listen")?;
    let threads: usize = bag.optional("threads")?.unwrap_or(1);
    let checkpoint_every: u64 = bag.optional("checkpoint-every")?.unwrap_or(8);
    bag.finish()?;

    let mut backend = FileBackend::open(&dir)?;
    let recovered = backend
        .recover::<UncertainDb>(&EngineConfig::default())?
        .ok_or_else(|| {
            format!(
                "no checkpoint in {} — run `cpnn shard-split` first",
                dir.display()
            )
        })?;
    if let Some(off) = recovered.torn_at {
        eprintln!("journal tail torn at byte {off}; recovered the last durable burst instead");
    }
    let addr = match listen {
        Some(raw) => ShardAddr::parse(&raw),
        None => ShardAddr::Unix(dir.join(SHARD_SOCKET_FILE)),
    };
    let objects = recovered.model.len();
    let version = recovered.version;
    let records = recovered.records;
    let pipeline = recovered.model.pipeline_config();
    let server = std::sync::Arc::new(QueryServer::start_at(
        recovered.model,
        version,
        threads,
        pipeline,
    ));
    // Attach before accepting any write, then fold the replayed journal
    // into a fresh checkpoint (mirrors the single-process serve loop).
    server.attach_storage(Box::new(backend));
    server.checkpoint_now()?;
    let listener = ShardListener::bind(&addr)?;
    let handle = ShardServerHandle::spawn(server, listener, ShardServeConfig { checkpoint_every })?;
    eprintln!(
        "shard serving {objects} object(s) at v{version} ({records} journal record(s) replayed) \
         on {} — kill the process to stop",
        handle.addr()
    );
    // A shard process lives until killed; durability is the write-ahead
    // journal's job, not a graceful shutdown's.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// `cpnn route MAPFILE [--queries FILE] [--timeout-ms N] [--retries N]
/// [--backoff-ms N]` — the router front-end: load the shard map, connect
/// to every shard process, and serve the same line protocol as `serve`
/// (same request grammar, same response lines), fanning each query out
/// with horizon pruning and merging candidates router-side. A dead shard
/// degrades queries that need it to a typed `unavailable` line; queries
/// whose horizon excludes it keep answering, and the router reconnects
/// automatically once the shard comes back.
pub fn route(bag: &mut ArgBag) -> Result<(), Box<dyn std::error::Error>> {
    let map_path: PathBuf = bag.positional("shard map file")?;
    let queries: Option<PathBuf> = bag.optional("queries")?;
    let timeout_ms: u64 = bag.optional("timeout-ms")?.unwrap_or(5_000);
    let retries: u32 = bag.optional("retries")?.unwrap_or(2);
    let backoff_ms: u64 = bag.optional("backoff-ms")?.unwrap_or(50);
    bag.finish()?;

    let map = ShardMap::read_from_path(&map_path)?;
    let cfg = RouterConfig {
        timeout: Duration::from_millis(timeout_ms.max(1)),
        retries,
        backoff: Duration::from_millis(backoff_ms),
    };
    let mut router: QueryRouter<UncertainDb> =
        QueryRouter::connect(&map, Default::default(), cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "routing over {} shard(s), {} object(s) at v{}; send `quit` or EOF to stop",
        map.shard_count(),
        router.objects(),
        router.version()
    );

    let start = Instant::now();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut queued: Vec<UpdateOp<UncertainDb>> = Vec::new();
    let mut seq = 0u64;
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
                // A queued update burst ends here, exactly like `serve`:
                // the query must observe every update queued before it.
                flush_burst(&mut router, &mut queued, &mut out)?;
                match router.query(&q, &spec) {
                    Ok(res) => {
                        writeln!(
                            out,
                            "#{seq} v{} answers={:?} cands={} t={:?}",
                            router.version(),
                            res.answers.iter().map(|id| id.0).collect::<Vec<_>>(),
                            res.stats.candidates,
                            res.stats.total_time()
                        )?;
                    }
                    // Typed degradation: the line names the dead shard and
                    // the router keeps serving (it will reconnect once the
                    // shard returns).
                    Err(e) => writeln!(out, "#{seq} v{} error: {e}", router.version())?,
                }
                seq += 1;
            }
            Ok(ServeRequest::Update(op)) => queued.push(op),
            Ok(ServeRequest::Stats) => {
                flush_burst(&mut router, &mut queued, &mut out)?;
                match router.stats() {
                    Ok(s) => {
                        write_stats_line(&mut out, &s.server)?;
                        let r = &s.router;
                        writeln!(
                            out,
                            "router objects={} shard_filters={} fanned_out={} pruned={} \
                             retries={} reconnects={} bursts={} ops_forwarded={}",
                            s.objects,
                            s.shard_filters,
                            r.fanned_out,
                            r.pruned,
                            r.retries,
                            r.reconnects,
                            r.bursts,
                            r.ops_forwarded
                        )?;
                    }
                    Err(e) => writeln!(out, "stats error: {e}")?,
                }
            }
            Err(msg) => eprintln!("line {line_no}: {msg}"),
        }
        out.flush()?;
    }
    flush_burst(&mut router, &mut queued, &mut out)?;
    out.flush()?;
    let wall = start.elapsed();
    let stats = router.router_stats();
    eprintln!(
        "routed {} queries ({} shard filters fanned out, {} shards pruned by selection or \
         by the horizon of earlier replies), {} update burst(s) in {wall:.3?}",
        stats.queries, stats.fanned_out, stats.pruned, stats.bursts
    );
    Ok(())
}

/// End the current update burst: forward it as one coalesced frame per
/// owning shard and print each op's outcome in queue order — the same
/// lines `serve` prints, so routed and single-process transcripts diff
/// clean.
fn flush_burst(
    router: &mut QueryRouter<UncertainDb>,
    queued: &mut Vec<UpdateOp<UncertainDb>>,
    out: &mut impl Write,
) -> Result<(), Box<dyn std::error::Error>> {
    if queued.is_empty() {
        return Ok(());
    }
    match router.update(std::mem::take(queued)) {
        Ok(report) => {
            for outcome in &report.outcomes {
                write_update_line(out, outcome, report.version, report.objects, report.batch)?;
            }
        }
        // The burst could not reach its shard: typed, loud, non-fatal.
        Err(e) => writeln!(out, "update failed: {e}")?,
    }
    Ok(())
}
