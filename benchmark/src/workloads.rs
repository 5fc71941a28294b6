//! The six end-to-end workloads, measured with tracing off.
//!
//! This module is the *gated* half of the benchmark and touches the
//! library only through the narrow façade listed in `README.md`
//! (generators, `build`, `pipeline::{cpnn_with, pnn}`, the `QueryServer`
//! submit / write-lane / storage calls, `FileBackend::{open, recover}`,
//! `ShardedDb::from_model`, the shard-server handle and the router). Every
//! deeper call lives in the `trace` binary, so a refactor of library
//! internals can break the traced run but never these numbers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpnn_core::cache::{CacheConfig, SharedCacheConfig};
use cpnn_core::pipeline::cpnn_with;
use cpnn_core::store::CowModel;
use cpnn_core::{
    DistanceModel, EngineConfig, FileBackend, ObjectId, PipelineConfig, QueryScratch, QueryServer,
    QuerySpec, ShardableModel, ShardedDb, UncertainDb, UncertainDb2d,
};
use cpnn_router::{
    QueryRouter, RouterConfig, ShardAddr, ShardListener, ShardMap, ShardServeConfig,
    ShardServerHandle,
};

use crate::check::unsound_queries;
use crate::inputs::{self, Burst, MixedPlan, Workload};
use crate::openloop::run_step;
use crate::stats::{percentile, sorted};

/// What one untraced run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition (dataset generation, index
    /// build, server start / fleet spawn / data-dir seed + first
    /// checkpoint: everything before the first timed operation).
    pub setup_s: Vec<f64>,
    /// The measured window.
    pub wall: Duration,
    /// Latency of every query completed in the window (closed loop: call
    /// to return; open loop: due time to completion).
    pub latencies_us: Vec<f64>,
    /// When each of those queries completed, in µs from the start of the
    /// window, ascending.
    pub completed_at_us: Vec<f64>,
    /// Operations attempted (timed queries and update ops, plus every
    /// checked item) and how many errored, were refused, went undrained
    /// or failed a correctness check.
    pub attempted: usize,
    pub failed: usize,
    /// Answer set per timed query, index-aligned with the seeded inputs
    /// (the traced replay must reproduce them).
    pub answers: Vec<Vec<ObjectId>>,
    /// Workload-specific user-visible numbers that only this workload
    /// has, under their per-layer metric names (reported by the traced
    /// run, not gated).
    pub diagnostics: Vec<(String, f64)>,
}

/// Per-thread and shared cache tiers of `mixed_durable`: the zipfian
/// working set (1,024 hot spots) overflows the first and fits the second.
pub fn mixed_config() -> PipelineConfig {
    PipelineConfig {
        cache: CacheConfig::new(256, 0.0),
        shared_cache: SharedCacheConfig::new(4_096),
        ..EngineConfig::default().pipeline()
    }
}

/// A scratch directory inside the checkout (the benchmark writes nowhere
/// else), removed on drop. Relative, so Unix-socket paths stay short.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(workload: Workload) -> std::io::Result<Self> {
        let dir = PathBuf::from(format!(
            "benchmark/.run/{}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times repeated set-ups of the system under test: [`inputs::SETUP_REPEATS`]
/// before the measured window (the last one is the system measured) and as
/// many after it, so the reported median straddles whatever the machine's
/// speed did over the run. Only one instance is alive at a time.
struct Setups<F> {
    build: F,
    times_s: Vec<f64>,
}

impl<T, F: FnMut(usize) -> T> Setups<F> {
    /// `build(i)` performs the `i`-th set-up from nothing.
    fn new(build: F) -> Self {
        Self {
            build,
            times_s: Vec::with_capacity(2 * inputs::SETUP_REPEATS),
        }
    }

    fn once(&mut self) -> T {
        let start = Instant::now();
        let built = (self.build)(self.times_s.len());
        self.times_s.push(start.elapsed().as_secs_f64());
        built
    }

    fn before(&mut self) -> T {
        for _ in 1..inputs::SETUP_REPEATS {
            drop(self.once());
        }
        self.once()
    }

    /// Call once the measured system has been dropped.
    fn after(mut self) -> Vec<f64> {
        for _ in 0..inputs::SETUP_REPEATS {
            drop(self.once());
        }
        self.times_s
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let n = workload.queries(seconds);
    let spec = workload.spec();
    match workload {
        Workload::Nn1dVerify | Workload::Nn1dRefine => direct(
            |_| build_1d(),
            &inputs::warmup_1d(seed, inputs::warmup_len(n)),
            &inputs::points_1d(seed, n),
            &spec,
            &EngineConfig::default().pipeline(),
            seed,
        ),
        Workload::Knn2dK4 => direct(
            |_| build_2d(),
            &inputs::warmup_2d(seed, inputs::warmup_len(n)),
            &inputs::points_2d(seed, n),
            &spec,
            &PipelineConfig::default(),
            seed,
        ),
        Workload::ServeOpen => serve_open(seed, seconds, &[inputs::OPEN_RATE], &["r1k"]),
        Workload::MixedDurable => mixed_durable(seed, n),
        Workload::Routed2Shard => routed_2shard(seed, n),
    }
}

pub fn build_1d() -> UncertainDb {
    UncertainDb::build(inputs::dataset_1d()).expect("generated 1-D data is valid")
}

pub fn build_2d() -> UncertainDb2d {
    UncertainDb2d::build(inputs::dataset_2d()).expect("generated 2-D data is valid")
}

/// A direct workload: build the database, then one closed-loop client.
fn direct<M: DistanceModel>(
    build: impl FnMut(usize) -> M,
    warmup: &[M::Query],
    points: &[M::Query],
    spec: &QuerySpec,
    cfg: &PipelineConfig,
    seed: u64,
) -> Outcome {
    let mut setups = Setups::new(build);
    let model = setups.before();
    let mut out = closed_loop(&model, warmup, points, spec, cfg);
    check_sample(&mut out, &model, points, seed, spec);
    drop(model);
    out.setup_s = setups.after();
    out
}

/// One client, one reused scratch, no cache: call → answer → next call.
fn closed_loop<M: DistanceModel>(
    model: &M,
    warmup: &[M::Query],
    points: &[M::Query],
    spec: &QuerySpec,
    cfg: &PipelineConfig,
) -> Outcome {
    let mut scratch = QueryScratch::new();
    for q in warmup {
        let _ = std::hint::black_box(cpnn_with(model, q, spec, cfg, &mut scratch));
    }
    let mut out = Outcome::with_capacity(points.len());
    let window = Window::start();
    for q in points {
        let begin = window.now_us();
        let result = cpnn_with(model, q, spec, cfg, &mut scratch);
        out.record(begin, &window, result.map(|r| r.answers));
    }
    out.wall = window.elapsed();
    out
}

/// The measured window's clock. It can be stopped around work that is
/// not the window's to time.
struct Window {
    start: Instant,
    paused: Duration,
}

impl Window {
    fn start() -> Self {
        Self {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    fn elapsed(&self) -> Duration {
        self.start.elapsed() - self.paused
    }

    fn now_us(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e6
    }

    /// Run `work` with the clock stopped.
    fn pause<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let begin = Instant::now();
        let done = work();
        self.paused += begin.elapsed();
        done
    }
}

impl Outcome {
    fn with_capacity(queries: usize) -> Self {
        Self {
            latencies_us: Vec::with_capacity(queries),
            completed_at_us: Vec::with_capacity(queries),
            answers: Vec::with_capacity(queries),
            attempted: queries,
            ..Self::default()
        }
    }

    /// Record one closed-loop query that began at `begin_us` and has just
    /// returned `answers` (an error counts as a failed operation).
    fn record<E>(&mut self, begin_us: f64, window: &Window, answers: Result<Vec<ObjectId>, E>) {
        let end_us = window.now_us();
        self.latencies_us.push(end_us - begin_us);
        self.completed_at_us.push(end_us);
        self.failed += usize::from(answers.is_err());
        self.answers.push(answers.unwrap_or_default());
    }
}

/// Soundness of the seeded 1% sample against exact probabilities.
fn check_sample<M: DistanceModel>(
    out: &mut Outcome,
    model: &M,
    points: &[M::Query],
    seed: u64,
    spec: &QuerySpec,
) {
    let sample = inputs::sample_indices(seed, points.len());
    out.attempted += sample.len();
    out.failed += unsound_queries(model, points, &out.answers, &sample, spec);
}

/// `serve_open` (one step at [`inputs::OPEN_RATE`]), also reused by the
/// traced run for the rest of its rate ladder: one open-loop step per entry
/// of `rates` (each tagged for its diagnostics), `seconds / rates.len()`
/// each, against a one-worker server over the `nn1d_verify` data and spec. The
/// generator and the worker share one CPU (see [`crate::openloop`]).
pub fn serve_open(seed: u64, seconds: f64, rates: &[f64], tags: &[&str]) -> Outcome {
    let spec = Workload::ServeOpen.spec();
    let cfg = EngineConfig::default().pipeline();
    let mut setups = Setups::new(|_| {
        let db = build_1d();
        let server = QueryServer::start(db.clone(), 1, cfg);
        (db, server)
    });
    let (db, server) = setups.before();
    let window = Duration::from_secs_f64(seconds / rates.len() as f64);
    let schedules: Vec<Vec<Duration>> = rates
        .iter()
        .enumerate()
        .map(|(step, &rate)| inputs::poisson_schedule(seed, step, rate, window))
        .collect();
    let total: usize = schedules.iter().map(Vec::len).sum();
    let points = inputs::points_1d(seed, total);
    for q in inputs::warmup_1d(seed, inputs::warmup_len(total)) {
        let _ = server.submit(q, spec).wait();
    }

    let mut out = Outcome {
        attempted: total,
        answers: vec![Vec::new(); total],
        ..Outcome::default()
    };
    let mut base = 0;
    let mut gen_late_max_us = 0.0f64;
    for (due, tag) in schedules.iter().zip(tags) {
        let step = run_step(
            due,
            |i| server.submit(points[base + i], spec),
            |ticket| ticket.wait(),
        );
        let step_start_us = out.wall.as_secs_f64() * 1e6;
        out.wall += step.wall;
        out.failed += step.undrained;
        let mut lat = Vec::with_capacity(step.completed.len());
        for (i, served, latency_us) in step.completed {
            lat.push(latency_us);
            out.completed_at_us
                .push(step_start_us + due[i].as_secs_f64() * 1e6 + latency_us);
            match served.result {
                Ok(r) => out.answers[base + i] = r.answers,
                Err(_) => out.failed += 1,
            }
        }
        out.latencies_us.extend_from_slice(&lat);
        let lat = sorted(lat);
        let mut diag = |name: &str, value: f64| {
            out.diagnostics
                .push((format!("server.{name}.{tag}"), value));
        };
        if !lat.is_empty() {
            diag("open_p50_us", percentile(&lat, 0.50));
            diag("open_p99_us", percentile(&lat, 0.99));
        }
        diag("backlog_peak", step.backlog_peak as f64);
        let window = due.last().map_or(1.0, Duration::as_secs_f64);
        diag("goodput_qps", step.completed_in_window as f64 / window);
        gen_late_max_us = gen_late_max_us.max(step.gen_late_max_us);
        base += due.len();
    }
    out.diagnostics
        .push(("server.gen_late_max_us".into(), gen_late_max_us));
    drop(server);
    check_sample(&mut out, &db, &points, seed, &spec);
    drop(db);
    out.setup_s = setups.after();
    out
}

/// A durable server in a fresh data directory, seeded and checkpointed.
pub struct Durable {
    pub server: QueryServer<UncertainDb>,
    pub dir: PathBuf,
    pub wal: PathBuf,
}

pub fn start_durable(dir: PathBuf, plan: &MixedPlan) -> Durable {
    let server = QueryServer::start(build_1d(), 1, mixed_config());
    let backend = FileBackend::open(&dir).expect("data dir inside the checkout");
    let wal = backend.wal_path();
    server.attach_storage(Box::new(backend));
    let (_, failed) = apply_burst(&server, &plan.seed_burst);
    assert_eq!(failed, 0, "seed burst applies");
    server
        .checkpoint_now()
        .expect("first checkpoint")
        .expect("backend attached");
    Durable { server, dir, wal }
}

/// Queue one burst, flush it, wait for every ticket: the time until all
/// its ops are applied, durable and acknowledged, and how many failed.
pub fn apply_burst(server: &QueryServer<UncertainDb>, burst: &Burst) -> (Duration, usize) {
    let start = Instant::now();
    let tickets: Vec<_> = burst
        .inserts
        .iter()
        .map(|o| server.queue_insert(o.clone()))
        .chain(burst.removes.iter().map(|&id| server.queue_remove(id)))
        .collect();
    server.flush_writes();
    let failed = tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(|outcome| outcome.result.is_err())
        .count();
    (start.elapsed(), failed)
}

/// Journal bytes currently on disk, excluding the 8-byte file header.
fn journal_len(wal: &Path) -> u64 {
    std::fs::metadata(wal).map_or(0, |m| m.len().saturating_sub(8))
}

struct Recovery {
    /// Cold `FileBackend::recover` + `QueryServer::start_at` until the
    /// first probe query is answered.
    seconds: f64,
    replayed_records: u64,
    checks: usize,
    violations: usize,
}

/// Recover from `dir` and check that exactly the acknowledged state came
/// back: the live object count, every insert of the last burst and none
/// of its removes, the same answers to the probe set as before the crash
/// — and that those answers are sound.
fn recover_and_check(dir: &Path, plan: &MixedPlan, before: &[Option<Vec<ObjectId>>]) -> Recovery {
    let spec = Workload::MixedDurable.spec();
    let start = Instant::now();
    let recovered = FileBackend::open(dir).ok().and_then(|mut backend| {
        backend
            .recover::<UncertainDb>(&EngineConfig::default())
            .ok()
            .flatten()
    });
    let Some(recovered) = recovered else {
        return Recovery {
            seconds: start.elapsed().as_secs_f64(),
            replayed_records: 0,
            checks: 1,
            violations: 1,
        };
    };
    let model = recovered.model.clone();
    let server = QueryServer::start_at(recovered.model, recovered.version, 1, mixed_config());
    let ask = |q: f64| server.submit(q, spec).wait().result.ok().map(|r| r.answers);
    let first = ask(plan.probes[0]);
    let seconds = start.elapsed().as_secs_f64();

    let last = plan.bursts.last().unwrap_or(&plan.seed_burst);
    let mut violations =
        usize::from(model.len() != inputs::dataset_1d().len() + last.inserts.len());
    violations += last
        .inserts
        .iter()
        .filter(|o| !model.contains_id(o.id()))
        .count();
    violations += last
        .removes
        .iter()
        .filter(|&&id| model.contains_id(id))
        .count();
    let mut after = vec![first];
    after.extend(plan.probes[1..].iter().map(|&q| ask(q)));
    violations += before
        .iter()
        .zip(&after)
        .filter(|(b, a)| b.is_none() || b != a)
        .count();
    let answers: Vec<Vec<ObjectId>> = after.into_iter().map(Option::unwrap_or_default).collect();
    let sample: Vec<usize> = (0..plan.probes.len().min(inputs::SAMPLE_CAP)).collect();
    violations += unsound_queries(&model, &plan.probes, &answers, &sample, &spec);
    Recovery {
        seconds,
        replayed_records: recovered.records,
        checks: 1 + last.inserts.len() + last.removes.len() + before.len() + sample.len(),
        violations,
    }
}

fn mixed_durable(seed: u64, reads: usize) -> Outcome {
    let spec = Workload::MixedDurable.spec();
    let plan = inputs::mixed_plan(seed, reads);
    let run_dir = RunDir::create(Workload::MixedDurable).expect("run dir inside the checkout");
    let mut setups =
        Setups::new(|rep| start_durable(run_dir.path().join(format!("d{rep}")), &plan));
    let Durable { server, dir, wal } = setups.before();
    for &q in &plan.warmup {
        let _ = server.submit(q, spec).wait();
    }

    let update_ops = plan.bursts.len() * inputs::BURST_OPS;
    let mut out = Outcome::with_capacity(reads);
    out.attempted += update_ops;
    let mut burst_us = Vec::with_capacity(plan.bursts.len());
    let mut journal_bytes = 0u64;
    // The window's clock runs while reads are served and stops for the
    // bursts and checkpoints between them: those are fsyncs and snapshot
    // writes on the sandbox's shared virtual disk, whose latency is the
    // host's and not the program's. Their cost is reported by name
    // (`storage.*`); what the gated numbers see of the write path is what
    // it does to the reads — invalidated cache entries, new snapshots.
    let mut window = Window::start();
    for (b, burst) in plan.bursts.iter().enumerate() {
        for &q in &plan.reads[b * inputs::READS_PER_BURST..(b + 1) * inputs::READS_PER_BURST] {
            let begin = window.now_us();
            let served = server.submit(q, spec).wait();
            out.record(begin, &window, served.result.map(|r| r.answers));
        }
        window.pause(|| {
            let (took, failed) = apply_burst(&server, burst);
            burst_us.push(took.as_secs_f64() * 1e6);
            out.failed += failed;
            if (b + 1) % inputs::BURSTS_PER_CHECKPOINT == 0 {
                journal_bytes += journal_len(&wal);
                if server.checkpoint_now().is_err() {
                    out.failed += 1;
                }
            }
        });
    }
    out.wall = window.elapsed();
    journal_bytes += journal_len(&wal);
    let served = server.stats();

    // Crash: the probe answers are taken, then the server goes away with
    // no final checkpoint, so recovery has a journal tail to replay.
    let before: Vec<Option<Vec<ObjectId>>> = plan
        .probes
        .iter()
        .map(|&q| server.submit(q, spec).wait().result.ok().map(|r| r.answers))
        .collect();
    drop(server);
    let recovery = recover_and_check(&dir, &plan, &before);
    out.attempted += recovery.checks;
    out.failed += recovery.violations;

    let burst_us = sorted(burst_us);
    let lookups = (served.cache_hits + served.shared_hits + served.cache_misses) as f64;
    out.diagnostics = vec![
        (
            "cache.hit_rate".into(),
            (served.cache_hits + served.shared_hits) as f64 / lookups,
        ),
        (
            "cache.shared_hit_rate".into(),
            served.shared_hits as f64 / lookups,
        ),
        (
            "cache.outcome_hit_rate".into(),
            served.outcome_hits as f64 / lookups,
        ),
        (
            "storage.update_burst_p50_us".into(),
            percentile(&burst_us, 0.50),
        ),
        ("storage.flush_p99_us".into(), percentile(&burst_us, 0.99)),
        (
            "storage.wal_bytes_per_update".into(),
            journal_bytes as f64 / update_ops as f64,
        ),
        ("storage.wal_records".into(), plan.bursts.len() as f64),
        ("storage.recovery_s".into(), recovery.seconds),
        (
            "storage.recover_replayed_records".into(),
            recovery.replayed_records as f64,
        ),
    ];
    out.setup_s = setups.after();
    out
}

/// One shard server per shard of `db` on Unix sockets under `dir`, and
/// the map a router needs to reach them.
pub fn spawn_fleet(
    db: &ShardedDb<UncertainDb>,
    dir: &Path,
) -> (Vec<ShardServerHandle<UncertainDb>>, ShardMap) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..db.num_shards() {
        let model =
            UncertainDb::with_config(db.shard_model(i).shard_objects(), *db.shard_configuration())
                .expect("shard model rebuilds");
        let server = Arc::new(QueryServer::start(model, 1, db.pipeline_config()));
        let addr = ShardAddr::Unix(dir.join(format!("s{i}.sock")));
        let _ = std::fs::remove_file(dir.join(format!("s{i}.sock")));
        let listener = ShardListener::bind(&addr).expect("bind shard socket");
        handles.push(
            ShardServerHandle::spawn(server, listener, ShardServeConfig::default())
                .expect("spawn shard server"),
        );
        addrs.push(addr);
    }
    let map = ShardMap {
        axis: db.partition_axis(),
        bounds: db.slab_bounds().to_vec(),
        addrs,
    };
    (handles, map)
}

/// The routed fleet of `routed_2shard`; shard servers stop when dropped.
pub struct Fleet {
    pub flat: UncertainDb,
    pub sharded: ShardedDb<UncertainDb>,
    pub router: QueryRouter<UncertainDb>,
    _handles: Vec<ShardServerHandle<UncertainDb>>,
}

pub const ROUTED_SHARDS: usize = 2;

pub fn start_fleet(dir: &Path) -> Fleet {
    let flat = build_1d();
    let sharded = ShardedDb::from_model(&flat, ROUTED_SHARDS).expect("shardable dataset");
    let (handles, map) = spawn_fleet(&sharded, dir);
    let router = QueryRouter::connect(&map, sharded.pipeline_config(), RouterConfig::default())
        .expect("connect to the fleet");
    Fleet {
        flat,
        sharded,
        router,
        _handles: handles,
    }
}

fn routed_2shard(seed: u64, n: usize) -> Outcome {
    let spec = Workload::Routed2Shard.spec();
    let run_dir = RunDir::create(Workload::Routed2Shard).expect("run dir inside the checkout");
    let mut setups = Setups::new(|_| start_fleet(run_dir.path()));
    let mut fleet = setups.before();
    let points = inputs::points_1d(seed, n);
    for q in inputs::warmup_1d(seed, inputs::warmup_len(n)) {
        let _ = fleet.router.query(&q, &spec);
    }
    let mut out = Outcome::with_capacity(n);
    let window = Window::start();
    for q in &points {
        let begin = window.now_us();
        let result = fleet.router.query(q, &spec);
        out.record(begin, &window, result.map(|r| r.answers));
    }
    out.wall = window.elapsed();

    // Routed answers are sound, and equal the in-process answers.
    check_sample(&mut out, &fleet.flat, &points, seed, &spec);
    let sample = inputs::sample_indices(seed, n);
    let cfg = fleet.sharded.pipeline_config();
    let mut scratch = QueryScratch::new();
    out.attempted += sample.len();
    out.failed += sample
        .iter()
        .filter(|&&i| {
            cpnn_with(&fleet.flat, &points[i], &spec, &cfg, &mut scratch)
                .map_or(true, |direct| direct.answers != out.answers[i])
        })
        .count();
    drop(fleet);
    out.setup_s = setups.after();
    out
}
