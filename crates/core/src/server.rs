//! Asynchronous query serving: a long-lived worker pool with
//! snapshot-swap updates.
//!
//! [`crate::batch::BatchExecutor`] answers a *batch* the caller assembled
//! up front; a standing service (the moving-object workloads of the
//! related literature, and the paper's own interactive-use motivation,
//! Sec. I) instead absorbs a continuous query *stream* while the
//! underlying uncertain objects change. [`QueryServer`] provides exactly
//! that on plain `std` primitives (no external runtime):
//!
//! * **submission queue** — callers [`submit`](QueryServer::submit)
//!   queries one at a time into an `std::mpsc` channel and receive a
//!   [`Ticket`] that resolves to the result through a per-request
//!   response channel — no up-front batching;
//! * **persistent workers** — `threads` long-lived `std::thread` workers
//!   drain the queue, each owning a [`QueryScratch`] so steady-state
//!   throughput matches the batch executor (same reuse of
//!   verification/refinement buffers across queries);
//! * **snapshot-swap updates** — the database lives behind an [`Arc`] in
//!   a versioned [`Snapshot`]. Writers never mutate it in place: every
//!   update is an [`UpdateOp`] whose [`apply`](UpdateOp::apply) builds a
//!   *new* model, and a publish swaps the `Arc` atomically. For any
//!   [`CowModel`](crate::store::CowModel) (the 1-D/2-D databases and
//!   [`ShardedDb`]) the successor is a **path copy** — O(log n)
//!   structural edits, never rebuilds. A worker pins the snapshot it
//!   dequeued a job with, so every response is evaluated against exactly
//!   one consistent database version — reads never block on writes and
//!   never observe a half-applied update (property-tested in
//!   `tests/proptest_server.rs`).
//! * **one write lane** — writers enqueue ops without publishing
//!   ([`queue_update`](QueryServer::queue_update), or its
//!   [`queue_insert`](QueryServer::queue_insert) /
//!   [`queue_remove`](QueryServer::queue_remove) shorthands, each
//!   returning a [`Ticket`]); [`flush_writes`](QueryServer::flush_writes)
//!   drains the whole burst into **one** snapshot publish — one version
//!   bump, one cache-invalidation pass, N applied updates. Per-op outcomes
//!   resolve through the tickets at flush time.
//!   [`insert`](QueryServer::insert) / [`remove`](QueryServer::remove) are
//!   the same lane: queue, flush, wait.
//! * **incremental cache invalidation** — every publish records the
//!   extents its ops touched in a bounded journal; workers re-pinning onto a
//!   newer snapshot drop only the cached verification state whose
//!   candidate horizon intersects those regions
//!   ([`crate::QueryScratch::advance_snapshot`]) instead of clearing
//!   their whole cache.
//! * **shared cache tier** — when the config enables both cache knobs,
//!   all workers share one [`crate::cache::SharedVerifyCache`] L2: a
//!   local miss consults it, a local fill publishes upward, so a query
//!   warmed by one worker hits on every worker. Publishes fan the same
//!   region-scoped invalidation out to every tier segment *before* the
//!   new snapshot becomes visible.
//! * **durability (opt-in)** — with a [`crate::storage::StorageBackend`]
//!   [attached](QueryServer::attach_storage), every publish is made
//!   durable **before** it becomes visible: each burst appends one
//!   write-ahead journal record holding the ops that applied, encoded at
//!   flush time by [`UpdateOp::write_op`], and
//!   [`checkpoint_now`](QueryServer::checkpoint_now) truncates the
//!   journal on demand. A server restarted from
//!   [`crate::storage::FileBackend::recover`] resumes via
//!   [`start_at`](QueryServer::start_at) with the recovered version, so
//!   clients see one uninterrupted citation sequence across the crash.
//!
//! Results for a given snapshot version are bitwise identical to a
//! sequential [`crate::pipeline::cpnn`] run at any thread count: each
//! query's evaluation is deterministic and independent.
//!
//! # Example
//!
//! ```
//! use cpnn_core::QueryServer;
//! use cpnn_core::{
//!     CpnnQuery, ObjectId, PipelineConfig, QuerySpec, Strategy, UncertainDb, UncertainObject,
//! };
//!
//! let db = UncertainDb::build(vec![
//!     UncertainObject::uniform(ObjectId(1), 1.0, 4.0).unwrap(),
//!     UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap(),
//! ])
//! .unwrap();
//! let server = QueryServer::start(db, 2, PipelineConfig::default());
//!
//! // Stream queries; each ticket resolves independently.
//! let ticket = server.submit(0.0, QuerySpec::nn(0.3, 0.01, Strategy::Verified));
//! let served = ticket.wait();
//! assert_eq!(served.result.unwrap().answers, vec![ObjectId(1)]);
//! assert_eq!(served.snapshot_version, 0);
//!
//! // Updates swap in a new snapshot; later queries see the new version.
//! let snap = server
//!     .insert(UncertainObject::uniform(ObjectId(3), 0.1, 0.2).unwrap())
//!     .unwrap();
//! assert_eq!(snap.version, 1);
//! let served = server
//!     .submit(0.0, QuerySpec::nn(0.3, 0.01, Strategy::Verified))
//!     .wait();
//! assert_eq!(served.snapshot_version, 1);
//! assert_eq!(served.result.unwrap().answers, vec![ObjectId(3)]);
//! let stats = server.shutdown();
//! assert_eq!(stats.served, 2);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::cache::SharedVerifyCache;
use crate::error::CoreError;
use crate::error::Result;
use crate::object::ObjectId;
use crate::persist::{PersistentModel, SnapshotWriter};
use crate::pipeline::{
    cpnn_with, CpnnResult, DistanceModel, PipelineConfig, QueryScratch, QuerySpec,
};
use crate::shard::Extent;
#[cfg(doc)]
use crate::shard::ShardedDb;
use crate::storage::StorageBackend;
use crate::update::UpdateOp;

/// How many published versions the region journal remembers. A worker
/// that fell further behind than this simply clears its whole cache — the
/// journal bounds memory, not correctness.
const JOURNAL_CAP: usize = 128;

/// A versioned, immutable database snapshot.
///
/// Version `0` is the model the server [started](QueryServer::start) with
/// (a server [recovered](QueryServer::start_at) from durable storage
/// starts at its pre-crash version instead); every published burst
/// ([`QueryServer::flush_writes`]) increments it by one. Holding a
/// `Snapshot` keeps that database version alive (it is an [`Arc`]) without
/// blocking the server from swapping in newer ones.
#[derive(Debug)]
pub struct Snapshot<M> {
    /// Monotone snapshot version (0 = the initial model).
    pub version: u64,
    /// The immutable model this version pins.
    pub model: Arc<M>,
}

impl<M> Clone for Snapshot<M> {
    fn clone(&self) -> Self {
        Self {
            version: self.version,
            model: Arc::clone(&self.model),
        }
    }
}

/// One served response: the query result plus the version of the snapshot
/// it was evaluated against.
#[derive(Debug)]
pub struct Served {
    /// The query outcome (per-query errors surface here, exactly as in a
    /// sequential run).
    pub result: Result<CpnnResult>,
    /// Which [`Snapshot::version`] answered this request.
    pub snapshot_version: u64,
}

/// Handle to one in-flight response (a single-use receiver).
#[derive(Debug)]
pub struct Ticket<T = Served>(Receiver<T>);

impl<T> Ticket<T> {
    /// Block until the response arrives.
    ///
    /// # Panics
    /// Panics if the serving worker died before responding (workers only
    /// terminate at shutdown, after the queue has drained).
    pub fn wait(self) -> T {
        self.0
            .recv()
            .expect("server worker alive while ticket pending")
    }

    /// Non-blocking poll: the response if it is ready, `None` if not yet.
    ///
    /// # Panics
    /// Panics if the serving worker died before responding (same contract
    /// as [`wait`](Self::wait)) — a dead worker must not look like a
    /// not-ready response to a polling loop.
    pub fn try_wait(&self) -> Option<T> {
        match self.0.try_recv() {
            Ok(v) => Some(v),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                panic!("server worker alive while ticket pending")
            }
        }
    }
}

/// Aggregate counters reported at [`QueryServer::shutdown`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Individual query responses sent.
    pub served: u64,
    /// Snapshot swaps applied (a coalesced burst counts once).
    pub updates: u64,
    /// Write-lane bursts published by [`QueryServer::flush_writes`] (each
    /// is one snapshot swap covering one or more applied updates; every
    /// swap is one, so this equals `updates`).
    pub coalesced_batches: u64,
    /// Individual updates applied through the write lane (direct
    /// [`QueryServer::insert`]/[`remove`](QueryServer::remove) calls
    /// included — they ride the same lane).
    pub applied_updates: u64,
    /// Local (per-worker) verification-cache hits across all workers (0
    /// unless the server's [`PipelineConfig`] enabled the cache; see
    /// [`crate::cache`]).
    pub cache_hits: u64,
    /// Verification-cache misses across all workers (neither tier had
    /// the entry).
    pub cache_misses: u64,
    /// Local misses answered by the server's shared
    /// [`SharedVerifyCache`] tier — state another worker computed and
    /// published (0 unless `shared_cache` was enabled too). Attributed
    /// to the worker that served the reply.
    pub shared_hits: u64,
    /// Entry hits that replayed a memoized verification outcome,
    /// skipping verify/refine entirely.
    pub outcome_hits: u64,
    /// Write-ahead journal records appended (0 unless a storage backend
    /// is [attached](QueryServer::attach_storage); one per durable burst).
    pub wal_records: u64,
    /// Checkpoints written through the attached storage backend (the
    /// [`QueryServer::checkpoint_now`] calls).
    pub checkpoints: u64,
}

/// Outcome of one queued write, resolved when its burst is flushed.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// Per-op result (e.g. a duplicate-id insert fails while the rest of
    /// its burst still applies).
    pub result: Result<()>,
    /// The snapshot version this op is visible in (for a failed op: the
    /// version current when its burst published).
    pub snapshot_version: u64,
    /// How many ops shared the burst (1 = no coalescing happened).
    pub batch: usize,
}

/// What [`QueryServer::flush_writes`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Ops drained from the queue.
    pub queued: usize,
    /// Ops that applied successfully.
    pub applied: usize,
    /// The version the burst published under, `None` when nothing was
    /// queued or every op failed (no swap happened).
    pub published: Option<u64>,
}

/// One submitted query and the channel its response goes back on.
struct Job<M: DistanceModel> {
    q: M::Query,
    spec: QuerySpec,
    reply: Sender<Served>,
}

struct Shared<M> {
    /// The current snapshot. The lock is held only to clone or swap the
    /// `Arc` — never across query evaluation or snapshot rebuilding — so
    /// readers are effectively lock-free.
    current: Mutex<Snapshot<M>>,
    /// Mirror of `current.version`, updated *after* the swap. Workers keep
    /// a locally pinned snapshot and re-pin only when this moves, so the
    /// steady-state read path touches neither the lock nor the shared
    /// refcount (no cache-line ping-pong between workers).
    version: AtomicU64,
    /// Serializes writers so copy-on-write rebuilds never race (readers are
    /// unaffected).
    writer: Mutex<()>,
    /// Bounded history of `(version, regions touched by that publish)`.
    /// Entries are pushed *before* the version atomic moves, so any
    /// observed version is already journaled.
    journal: Mutex<VecDeque<(u64, Vec<Extent>)>>,
    served: AtomicU64,
    updates: AtomicU64,
    coalesced_batches: AtomicU64,
    applied_updates: AtomicU64,
    /// Per-worker verification-cache hits/misses, flushed after every job
    /// so [`QueryServer::stats`] reads are current.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    shared_hits: AtomicU64,
    outcome_hits: AtomicU64,
    wal_records: AtomicU64,
    checkpoints: AtomicU64,
    /// The process-wide L2 every worker's scratch consults on local
    /// misses, when the server's config enables both cache tiers. The
    /// writer advances it inside [`publish`](Self::publish), *before*
    /// the new snapshot becomes visible, so no worker is ever pinned to
    /// a version whose segments have not been walked.
    shared_cache: Option<Arc<SharedVerifyCache>>,
}

impl<M> Shared<M> {
    fn pin(&self) -> Snapshot<M> {
        self.current
            .lock()
            .expect("snapshot lock unpoisoned")
            .clone()
    }

    /// Swap `next` in and publish its version. Caller must hold the
    /// writer lock; `regions` is this publish's update footprint for the
    /// journal.
    fn publish(&self, next: Snapshot<M>, regions: Vec<Extent>) {
        let version = next.version;
        // Fan the invalidation out to the shared cache tier *before* the
        // snapshot swap: workers only evaluate at the new version after
        // the swap lands, so by then every segment has been walked (a
        // racing publish into an already-walked segment carries the old
        // version and is dropped by the per-segment version check).
        if let Some(tier) = &self.shared_cache {
            tier.advance_version(version, Some(&regions));
        }
        // Journal *before* swapping the snapshot in: a worker can pin
        // whatever sits behind `current` the moment the swap lands (it
        // re-pins on any version movement, not just this one), so the
        // journal entry must already be there — otherwise the worker's
        // regions_between lookup would miss and force a spurious full
        // cache clear.
        let mut journal = self.journal.lock().expect("journal lock unpoisoned");
        journal.push_back((version, regions));
        while journal.len() > JOURNAL_CAP {
            journal.pop_front();
        }
        drop(journal);
        let mut current = self.current.lock().expect("snapshot lock unpoisoned");
        debug_assert_eq!(
            current.version + 1,
            version,
            "writers are serialized, so the base cannot move underneath us"
        );
        *current = next;
        drop(current);
        // Publish last: a worker that observes the new version finds both
        // the snapshot and its journal entry.
        self.version.store(version, Ordering::Release);
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// The concatenated update regions for versions `(old, new]`, or
    /// `None` when any of them is missing from the journal (→ the caller
    /// must fully clear its cache).
    fn regions_between(&self, old: u64, new: u64) -> Option<Vec<Extent>> {
        let journal = self.journal.lock().expect("journal lock unpoisoned");
        let mut out = Vec::new();
        for v in old + 1..=new {
            let (_, regions) = journal.iter().find(|(ver, _)| *ver == v)?;
            out.extend(regions.iter().cloned());
        }
        Some(out)
    }
}

/// One queued write: the op, and the reply channel its
/// [`UpdateOutcome`] resolves through at flush time.
struct QueuedWrite<M: PersistentModel> {
    op: UpdateOp<M>,
    reply: Sender<UpdateOutcome>,
}

/// A long-lived query-serving worker pool over an immutable, swappable
/// database snapshot; `server.rs`'s module docs describe the full design.
///
/// Any [`PersistentModel`] can be served — the 1-D/2-D databases (O(log
/// n) store path copies) and [`ShardedDb`] (path copy of the owning
/// shard only, all other shard `Arc`s shared between snapshots) — so
/// every queued op can be journaled once a backend is attached.
pub struct QueryServer<M: DistanceModel + PersistentModel> {
    shared: Arc<Shared<M>>,
    /// `Some` while serving; taken (and dropped, closing the queue) at
    /// shutdown.
    tx: Option<Sender<Job<M>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
    /// The write-coalescing lane: queued (unpublished) updates, drained
    /// into one snapshot publish by [`flush_writes`](Self::flush_writes).
    queued: Mutex<Vec<QueuedWrite<M>>>,
    /// Durable storage sink, when [attached](Self::attach_storage).
    /// Written to under the writer lock, strictly *before* the publish
    /// each write covers (write-ahead).
    storage: Mutex<Option<Box<dyn StorageBackend<M>>>>,
}

impl<M> QueryServer<M>
where
    M: DistanceModel + PersistentModel + Send + Sync + 'static,
    M::Query: Send + 'static,
{
    /// Start a server over `model` with `threads` persistent workers
    /// (`0` = one per available core) evaluating under `cfg`.
    ///
    /// Accepts the model by value or pre-wrapped in an [`Arc`] (so callers
    /// benchmarking several servers over one large database don't rebuild
    /// it).
    pub fn start(model: impl Into<Arc<M>>, threads: usize, cfg: PipelineConfig) -> Self {
        Self::start_at(model, 0, threads, cfg)
    }

    /// As [`start`](Self::start), but the initial snapshot carries
    /// `initial_version` instead of 0 — the entry point for serving a
    /// database recovered from durable storage
    /// ([`crate::storage::FileBackend::recover`]), where response
    /// citations must continue the pre-crash version sequence.
    pub fn start_at(
        model: impl Into<Arc<M>>,
        initial_version: u64,
        threads: usize,
        cfg: PipelineConfig,
    ) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        // One shared L2 tier per server, started at the initial version
        // so recovered servers keep one coherent version sequence.
        let shared_cache = SharedVerifyCache::for_config(&cfg, initial_version);
        let shared = Arc::new(Shared {
            current: Mutex::new(Snapshot {
                version: initial_version,
                model: model.into(),
            }),
            version: AtomicU64::new(initial_version),
            writer: Mutex::new(()),
            journal: Mutex::new(VecDeque::new()),
            served: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            applied_updates: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            shared_hits: AtomicU64::new(0),
            outcome_hits: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            shared_cache,
        });
        let (tx, rx) = mpsc::channel::<Job<M>>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared, &cfg))
            })
            .collect();
        Self {
            shared,
            tx: Some(tx),
            workers,
            threads,
            queued: Mutex::new(Vec::new()),
            storage: Mutex::new(None),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pin the current snapshot (clones the `Arc`; the momentary lock is
    /// never held across evaluation or rebuilding).
    pub fn snapshot(&self) -> Snapshot<M> {
        self.shared.pin()
    }

    /// Enqueue one query; returns immediately with a [`Ticket`] for the
    /// response. The worker that dequeues it pins whatever snapshot is
    /// current *at dequeue time*.
    pub fn submit(&self, q: M::Query, spec: QuerySpec) -> Ticket {
        let (reply, ticket) = mpsc::channel();
        self.sender()
            .send(Job { q, spec, reply })
            .expect("serving queue open while server alive");
        Ticket(ticket)
    }
}

/// Update, flush, and lifecycle surface (no `Send`/`Sync` bounds:
/// nothing here crosses a thread).
impl<M: DistanceModel + PersistentModel> QueryServer<M> {
    /// Attach a durable storage sink: every subsequent publish becomes
    /// durable **before** it becomes visible — each burst appends one
    /// write-ahead journal record, ops queued before the attach included
    /// (they are encoded when they flush).
    pub fn attach_storage(&self, backend: Box<dyn StorageBackend<M>>) {
        *self.storage.lock().expect("storage lock unpoisoned") = Some(backend);
    }

    /// Checkpoint the current snapshot through the attached backend,
    /// which truncates its journal (recovery cost drops back to the
    /// checkpoint read). Returns the checkpointed version, or `None`
    /// when no backend is attached.
    pub fn checkpoint_now(&self) -> Result<Option<u64>> {
        let _writers = self.shared.writer.lock().expect("writer lock unpoisoned");
        let base = self.shared.pin();
        let mut storage = self.storage.lock().expect("storage lock unpoisoned");
        let Some(sink) = storage.as_mut() else {
            return Ok(None);
        };
        sink.checkpoint(&base.model, base.version)
            .map_err(|e| CoreError::Storage(e.to_string()))?;
        self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(Some(base.version))
    }

    /// Copy-on-write insert, published now: queues the op and flushes the
    /// lane — this op and any queued before it publish as one burst. Fails
    /// on a duplicate id. Returns the snapshot current after the flush.
    pub fn insert(&self, object: M::Object) -> Result<Snapshot<M>> {
        self.update_now(UpdateOp::Insert(object))
    }

    /// Copy-on-write remove: as [`insert`](Self::insert). Removing an
    /// absent id still publishes (contents unchanged, version advanced)
    /// with an empty footprint, so caches survive untouched.
    pub fn remove(&self, id: ObjectId) -> Result<Snapshot<M>> {
        self.update_now(UpdateOp::Remove(id))
    }

    fn update_now(&self, op: UpdateOp<M>) -> Result<Snapshot<M>> {
        let ticket = self.queue_update(op);
        self.flush_writes();
        ticket.wait().result.map(|()| self.shared.pin())
    }

    /// Queue an insert on the write lane **without** publishing; see
    /// [`queue_update`](Self::queue_update).
    pub fn queue_insert(&self, object: M::Object) -> Ticket<UpdateOutcome> {
        self.queue_update(UpdateOp::Insert(object))
    }

    /// Queue a remove on the write lane; see
    /// [`queue_update`](Self::queue_update).
    pub fn queue_remove(&self, id: ObjectId) -> Ticket<UpdateOutcome> {
        self.queue_update(UpdateOp::Remove(id))
    }

    /// Queue one op on the write lane **without** publishing. The
    /// returned ticket resolves when a [`flush_writes`](Self::flush_writes)
    /// drains the burst (shutdown and drop flush too, so tickets never
    /// dangle).
    pub fn queue_update(&self, op: UpdateOp<M>) -> Ticket<UpdateOutcome> {
        let (reply, ticket) = mpsc::channel();
        self.queued
            .lock()
            .expect("write queue unpoisoned")
            .push(QueuedWrite { op, reply });
        Ticket(ticket)
    }

    /// Drain every queued write into **one** snapshot publish: ops apply
    /// in queue order onto a single successor model, the swap happens
    /// once, and every op's [`Ticket`] resolves with its
    /// [`UpdateOutcome`]. An op that fails (e.g. a duplicate-id insert)
    /// reports its error without blocking the rest of the burst. No-op
    /// (and no version bump) when nothing is queued or every op failed.
    ///
    /// With a storage backend [attached](Self::attach_storage), the
    /// burst's applied ops are appended to the write-ahead journal as
    /// **one** fsync'd record *before* the publish; if that append fails
    /// the burst is not published and every op's ticket reports the
    /// storage error.
    pub fn flush_writes(&self) -> FlushReport {
        // Take the writer lock *before* draining the queue, so a flush is
        // linearizable: by the time any flush_writes returns, every write
        // queued before the call is published (possibly by a concurrent
        // flusher that held the lock — and therefore finished — first).
        let _writers = self.shared.writer.lock().expect("writer lock unpoisoned");
        let burst: Vec<QueuedWrite<M>> =
            std::mem::take(&mut *self.queued.lock().expect("write queue unpoisoned"));
        let total = burst.len();
        let base = self.shared.pin();
        // Held until the append, so the backend cannot change mid-burst.
        let mut storage = self.storage.lock().expect("storage lock unpoisoned");
        let mut acc: Option<M> = None;
        let mut regions: Vec<Extent> = Vec::new();
        let mut replies: Vec<(Sender<UpdateOutcome>, Result<()>)> = Vec::with_capacity(total);
        // The journal record's ops, encoded only with a backend attached:
        // exactly the ops that *applied* (failed ops changed nothing, so
        // replay must not see them).
        let mut wal = Vec::new();
        for QueuedWrite { op, reply } in burst {
            let mark = wal.len();
            if storage.is_some() {
                op.write_op(&mut SnapshotWriter::new(&mut wal))
                    .expect("write to Vec<u8> is infallible");
            }
            match op.apply(acc.as_ref().unwrap_or(&base.model)) {
                Ok((next, touched)) => {
                    acc = Some(next);
                    regions.extend(touched);
                    replies.push((reply, Ok(())));
                }
                Err(e) => {
                    wal.truncate(mark);
                    replies.push((reply, Err(e)));
                }
            }
        }
        let mut applied = replies.iter().filter(|(_, r)| r.is_ok()).count();
        let mut published = None;
        if let Some(model) = acc {
            let next = Snapshot {
                version: base.version + 1,
                model: Arc::new(model),
            };
            // Write-ahead: one journal record per published burst, durable
            // before it is visible.
            let durable = match storage.as_mut() {
                Some(sink) => sink
                    .append_burst(next.version, applied as u32, &wal)
                    .map(|()| {
                        self.shared.wal_records.fetch_add(1, Ordering::Relaxed);
                    })
                    .map_err(|e| CoreError::Storage(e.to_string())),
                None => Ok(()),
            };
            match durable {
                Ok(()) => {
                    published = Some(next.version);
                    self.shared.publish(next, regions);
                    self.shared
                        .coalesced_batches
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .applied_updates
                        .fetch_add(applied as u64, Ordering::Relaxed);
                }
                Err(e) => {
                    // The burst could not be made durable, so it was not
                    // published: every op in it — including ones that
                    // applied cleanly in memory — reports the storage
                    // error, and the discarded successor model is dropped.
                    applied = 0;
                    for (_, result) in replies.iter_mut() {
                        if result.is_ok() {
                            *result = Err(e.clone());
                        }
                    }
                }
            }
        }
        let version = published.unwrap_or(base.version);
        for (reply, result) in replies {
            // A dropped ticket (fire-and-forget writer) is fine.
            let _ = reply.send(UpdateOutcome {
                result,
                snapshot_version: version,
                batch: total,
            });
        }
        FlushReport {
            queued: total,
            applied,
            published,
        }
    }

    /// Counters so far (also returned by [`shutdown`](Self::shutdown)).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.shared.served.load(Ordering::Relaxed),
            updates: self.shared.updates.load(Ordering::Relaxed),
            coalesced_batches: self.shared.coalesced_batches.load(Ordering::Relaxed),
            applied_updates: self.shared.applied_updates.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache_misses.load(Ordering::Relaxed),
            shared_hits: self.shared.shared_hits.load(Ordering::Relaxed),
            outcome_hits: self.shared.outcome_hits.load(Ordering::Relaxed),
            wal_records: self.shared.wal_records.load(Ordering::Relaxed),
            checkpoints: self.shared.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Flush any queued writes, close the queue, drain every pending job,
    /// join the workers, and report totals. Dropping the server does the
    /// same without the report.
    pub fn shutdown(mut self) -> ServerStats {
        self.flush_writes();
        self.join_workers();
        self.stats()
    }

    fn sender(&self) -> &Sender<Job<M>> {
        self.tx.as_ref().expect("sender taken only at shutdown")
    }

    fn join_workers(&mut self) {
        // Dropping the sender closes the queue; workers finish what is
        // enqueued and exit on the resulting RecvError.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            w.join().expect("serving worker exits cleanly");
        }
    }
}

impl<M: DistanceModel + PersistentModel> Drop for QueryServer<M> {
    fn drop(&mut self) {
        // Resolve queued write tickets (flush needs no Send/Sync bounds),
        // then close the queue and join. `join_workers` is inlined: Drop
        // cannot rely on the Send/Sync bounds of the inherent impl, but
        // dropping the sender and joining needs neither.
        self.flush_writes();
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop<M>(rx: &Mutex<Receiver<Job<M>>>, shared: &Shared<M>, cfg: &PipelineConfig)
where
    M: DistanceModel,
{
    let mut scratch = QueryScratch::new();
    // Every worker consults the same shared L2 on local misses; shared
    // hits flush through *this* worker's counters, so they are
    // attributed to the worker that served the reply.
    if let Some(tier) = &shared.shared_cache {
        scratch.attach_shared(Arc::clone(tier));
    }
    // Last cache counters flushed to `shared` (deltas go out after every
    // job so `stats()` reads stay current).
    let mut flushed = crate::cache::CacheStats::default();
    // The worker's locally pinned snapshot: refreshed from `shared` only
    // when the published version moves, so steady-state serving touches
    // neither the snapshot lock nor the shared `Arc` refcount.
    let mut pinned = shared.pin();
    loop {
        // Take the queue lock only for the dequeue itself, never across
        // query evaluation.
        let Ok(Job { q, spec, reply }) = rx.lock().expect("queue lock unpoisoned").recv() else {
            return; // queue closed and drained: shutdown
        };
        if shared.version.load(Ordering::Acquire) != pinned.version {
            let old = pinned.version;
            pinned = shared.pin();
            // Pin the evaluated version on the scratch *before* evaluating:
            // no response is ever served from state computed against a
            // version other than the one it cites. When the journal knows
            // every crossed version, the worker's verification cache is
            // invalidated *incrementally* — only entries whose candidate
            // horizon intersects an updated region drop; otherwise (a
            // journal gap) the cache clears entirely.
            let regions = shared.regions_between(old, pinned.version);
            scratch.advance_snapshot(pinned.version, regions.as_deref());
        } else {
            scratch.set_snapshot_version(pinned.version);
        }
        let result = cpnn_with(&*pinned.model, &q, &spec, cfg, &mut scratch);
        shared.served.fetch_add(1, Ordering::Relaxed);
        // Counters flush *before* the reply: once a ticket resolves,
        // `stats()` already covers its query.
        flush_cache_counters(shared, &scratch, &mut flushed);
        // A dropped ticket (fire-and-forget caller) is fine.
        let _ = reply.send(Served {
            result,
            snapshot_version: pinned.version,
        });
    }
}

/// Push the delta between a worker's scratch counters and its last flush
/// into the shared totals.
fn flush_cache_counters<M>(
    shared: &Shared<M>,
    scratch: &QueryScratch,
    flushed: &mut crate::cache::CacheStats,
) {
    let now = scratch.cache_stats();
    shared
        .cache_hits
        .fetch_add(now.hits - flushed.hits, Ordering::Relaxed);
    shared
        .cache_misses
        .fetch_add(now.misses - flushed.misses, Ordering::Relaxed);
    shared
        .shared_hits
        .fetch_add(now.shared_hits - flushed.shared_hits, Ordering::Relaxed);
    shared
        .outcome_hits
        .fetch_add(now.outcome_hits - flushed.outcome_hits, Ordering::Relaxed);
    *flushed = now;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, UncertainDb};
    use crate::object::UncertainObject;
    use crate::pipeline::{cpnn, Strategy};
    use crate::shard::ShardedDb;

    fn db(n: u64) -> UncertainDb {
        let objects: Vec<UncertainObject> = (0..n)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 100.0;
                UncertainObject::uniform(ObjectId(i), lo, lo + 3.0 + (i % 5) as f64).unwrap()
            })
            .collect();
        UncertainDb::build(objects).unwrap()
    }

    fn spec() -> QuerySpec {
        QuerySpec::nn(0.3, 0.01, Strategy::Verified)
    }

    #[test]
    fn streamed_results_match_sequential_at_any_thread_count() {
        let db = Arc::new(db(40));
        let cfg = EngineConfig::default().pipeline();
        let points: Vec<f64> = (0..30).map(|i| (i as f64 * 13.7) % 110.0 - 5.0).collect();
        let expected: Vec<CpnnResult> = points
            .iter()
            .map(|q| cpnn(&*db, q, &spec(), &cfg).unwrap())
            .collect();
        for threads in [1, 2, 4, 8] {
            let server = QueryServer::<UncertainDb>::start(Arc::clone(&db), threads, cfg);
            let tickets: Vec<Ticket> = points.iter().map(|&q| server.submit(q, spec())).collect();
            for (i, t) in tickets.into_iter().enumerate() {
                let served = t.wait();
                assert_eq!(served.snapshot_version, 0);
                let got = served.result.unwrap();
                assert_eq!(
                    got.answers, expected[i].answers,
                    "query {i}, {threads} threads"
                );
                assert_eq!(got.reports.len(), expected[i].reports.len());
                for (a, b) in got.reports.iter().zip(&expected[i].reports) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.label, b.label);
                    assert_eq!(a.bound.lo(), b.bound.lo());
                    assert_eq!(a.bound.hi(), b.bound.hi());
                }
            }
            let stats = server.shutdown();
            assert_eq!(stats.served, points.len() as u64);
            assert_eq!(stats.updates, 0);
        }
    }

    #[test]
    fn updates_advance_versions_and_change_answers() {
        let server = QueryServer::start(db(10), 2, PipelineConfig::default());
        let before = server.submit(0.0, spec()).wait();
        assert_eq!(before.snapshot_version, 0);
        let snap = server
            .insert(UncertainObject::uniform(ObjectId(777), 0.05, 0.15).unwrap())
            .unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.model.len(), 11);
        let after = server.submit(0.0, spec()).wait();
        assert_eq!(after.snapshot_version, 1);
        assert!(after.result.unwrap().answers.contains(&ObjectId(777)));
        let removed = server.remove(ObjectId(777)).unwrap();
        assert_eq!(removed.version, 2);
        let back = server.submit(0.0, spec()).wait();
        assert_eq!(back.snapshot_version, 2);
        assert_eq!(back.result.unwrap().answers, before.result.unwrap().answers);
        let stats = server.shutdown();
        assert_eq!(stats.served, 3);
        assert_eq!(stats.updates, 2);
    }

    #[test]
    fn duplicate_insert_fails_without_touching_the_snapshot() {
        let server = QueryServer::start(db(5), 1, PipelineConfig::default());
        let err = server.insert(UncertainObject::uniform(ObjectId(2), 0.0, 1.0).unwrap());
        assert!(err.is_err());
        assert_eq!(server.snapshot().version, 0);
        assert_eq!(server.stats().updates, 0);
    }

    #[test]
    fn per_query_errors_surface_in_their_ticket() {
        let server = QueryServer::start(db(5), 2, PipelineConfig::default());
        let bad = server.submit(f64::NAN, spec()).wait();
        assert!(bad.result.is_err());
        let good = server.submit(10.0, spec()).wait();
        assert!(good.result.is_ok());
    }

    #[test]
    fn pinned_snapshot_outlives_later_updates() {
        let server = QueryServer::start(db(8), 1, PipelineConfig::default());
        let pinned = server.snapshot();
        server.remove(ObjectId(0)).unwrap();
        server.remove(ObjectId(1)).unwrap();
        assert_eq!(pinned.version, 0);
        assert_eq!(pinned.model.len(), 8);
        assert_eq!(server.snapshot().model.len(), 6);
    }

    #[test]
    fn sharded_server_updates_rebuild_only_the_owning_shard() {
        let sharded = ShardedDb::<UncertainDb>::from_model(&db(40), 4).unwrap();
        let server = QueryServer::start(sharded, 2, PipelineConfig::default());
        let v0 = server.snapshot();
        let snap = server
            .insert(UncertainObject::uniform(ObjectId(700), 0.05, 0.15).unwrap())
            .unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.model.len(), 41);
        // Per-shard COW: all but one shard Arc is shared with v0.
        let shared = (0..4)
            .filter(|&s| std::ptr::eq(v0.model.shard_model(s), snap.model.shard_model(s)))
            .count();
        assert_eq!(shared, 3);
        let served = server.submit(0.1, spec()).wait();
        assert_eq!(served.snapshot_version, 1);
        assert!(served.result.unwrap().answers.contains(&ObjectId(700)));
        let removed = server.remove(ObjectId(700)).unwrap();
        assert_eq!(removed.model.len(), 40);
        let dup = server.insert(UncertainObject::uniform(ObjectId(3), 0.0, 1.0).unwrap());
        assert!(dup.is_err());
        assert_eq!(server.snapshot().version, 2);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let server = QueryServer::start(db(30), 2, PipelineConfig::default());
        let tickets: Vec<Ticket> = (0..50)
            .map(|i| server.submit(i as f64 * 2.0, spec()))
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.served, 50);
        for t in tickets {
            // Workers drained the queue before exiting, so every response
            // is already buffered in its channel.
            assert!(t.try_wait().is_some());
        }
    }
}
