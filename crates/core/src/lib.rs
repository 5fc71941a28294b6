//! # cpnn-core — Constrained Probabilistic Nearest-Neighbor queries
//!
//! A from-scratch implementation of
//! *"Probabilistic Verifiers: Evaluating Constrained Nearest-Neighbor
//! Queries over Uncertain Data"* (Cheng, Chen, Mokbel, Chow — ICDE 2008).
//!
//! ## The problem
//!
//! Over uncertain data (each object a closed interval with a pdf), a
//! **PNN** query returns each object's probability of being the nearest
//! neighbor of a query point. Exact evaluation needs numerical integration
//! over products of distance cdfs — expensive. The paper's **C-PNN** asks
//! only for objects whose probability clears a threshold `P`, within a
//! tolerance `Δ`, which lets most objects be accepted/rejected from cheap
//! algebraic *bounds*.
//!
//! ## Pipeline (paper Fig. 3/5)
//!
//! 1. **Filter** — an R-tree prunes objects that provably have zero
//!    probability ([`cpnn_rtree`]).
//! 2. **Verify** — the [`verifiers`] (RS, U-SR, L-SR) tighten per-object
//!    probability bounds over the [`SubregionTable`]; the
//!    [`classify::Classifier`] labels objects `Satisfy`/`Fail`/`Unknown`.
//! 3. **Refine** — leftovers get exact per-subregion integration,
//!    incrementally ([`refine`]).
//!
//! All query flavors — 1-D ([`UncertainDb`]), 2-D ([`UncertainDb2d`]),
//! and k-NN — share one generic implementation of this flow in
//! [`pipeline`], parameterized by a [`pipeline::DistanceModel`].
//!
//! ## Sharding
//!
//! [`shard::ShardedDb`] partitions any [`shard::ShardableModel`] by
//! domain (equal-width slabs or equal-count quantiles —
//! [`shard::ShardBalance`]): each shard owns its own R-tree, a query
//! fans out only to shards overlapping its candidate horizon, and the
//! merged candidates run the shared verify/refine flow once (results
//! are identical to unsharded evaluation — property-tested).
//! `insert`/`remove` path-copy only the owning shard.
//!
//! ## Persistent storage
//!
//! Storage is copy-on-write all the way down: objects live in the
//! leaves of a persistent path-copying R-tree, with a persistent id map
//! alongside (the crate's `IndexedStore`, over a [`cpnn_rtree::RTree`]).
//! Any [`store::CowModel`] — the 1-D/2-D databases and [`ShardedDb`] —
//! produces an O(log n) successor snapshot per update instead of a
//! rebuild, and old handles keep answering for exactly their historical
//! contents (property-tested in `tests/proptest_persistent.rs`).
//!
//! ## Durability
//!
//! Snapshots can outlive the process: [`persist`] defines a versioned,
//! dimension-tagged, checksummed snapshot format (1-D, 2-D, and sharded
//! — [`persist::PersistentModel`]), and the storage layer composes it
//! with a CRC'd, fsync'd **write-ahead journal** behind the
//! [`StorageBackend`] seam. A [`QueryServer`] with a backend
//! [attached](QueryServer::attach_storage) makes every publish durable
//! *before* it becomes visible (one journal record per burst, holding the
//! ops that applied in the [`UpdateOp`] codec the router's wire shares;
//! checkpoints truncate the journal), and [`FileBackend::recover`]
//! replays checkpoint + journal tail
//! — surviving a crash at **any** byte of the journal — into a live
//! database that is bit-for-bit the pre-crash state (property-tested in
//! `tests/proptest_recovery.rs`).
//!
//! ## Execution modes
//!
//! * **one-shot** — [`UncertainDb::cpnn`] / [`pipeline::cpnn`];
//! * **batch** — [`BatchExecutor`] evaluates an up-front batch
//!   concurrently across scoped worker threads;
//! * **serving** — [`QueryServer`] keeps a persistent worker pool
//!   behind a submission queue, streaming responses per request while
//!   `insert`/`remove` swap immutable, path-copied database snapshots
//!   underneath the stream (every response cites the snapshot version
//!   that answered it). Every update is one [`UpdateOp`] — the
//!   value the serve loops parse, the journal records and the router
//!   ships — queued on the server's single write lane
//!   ([`QueryServer::queue_update`] +
//!   [`QueryServer::flush_writes`]) and published a whole burst
//!   per swap.
//!
//! ## Caching
//!
//! Repeated (or, after quantization, nearby) query points skip filter and
//! distribution construction: [`cache::VerifyCache`] — a per-thread LRU
//! sized by [`PipelineConfig`]'s `cache` knob and owned by
//! [`QueryScratch`] — memoizes candidate sets, distance distributions, and
//! per-band verification outcomes by quantized query point (a new band
//! rebuilds its subregion table from the cached candidates). Snapshot
//! swaps invalidate it *incrementally*: only entries whose candidate
//! horizon intersects an updated region drop
//! ([`QueryScratch::advance_snapshot`]); the rest keep serving hits across
//! versions.
//!
//! Behind the per-thread cache sits an optional **shared tier**
//! ([`cache::SharedVerifyCache`], built by
//! [`cache::SharedVerifyCache::for_config`] when [`PipelineConfig`]'s
//! `shared_cache` knob is on too): a lock-striped process-wide L2 that
//! batch workers and server workers consult on local misses and publish
//! local fills into, so one worker's miss warms every worker. Both tiers
//! are the same LRU segment type, and the L1 → L2 policy lives in
//! [`cache`]. Entries also memoize **verification outcomes** per exact
//! (threshold, tolerance, strategy, config) band —
//! a repeat query in a known band replays the memoized verdicts and
//! bounds without touching verify or refine at all. Both layers are
//! answer-invariant: cached, shared, and uncached evaluation agree
//! bit-for-bit at quantum 0 (property-tested in
//! `tests/proptest_cache.rs`).
//!
//! ## Entry point
//!
//! ```
//! use cpnn_core::{CpnnQuery, ObjectId, Strategy, UncertainDb, UncertainObject};
//!
//! let objects = vec![
//!     UncertainObject::uniform(ObjectId(1), 1.0, 4.0).unwrap(),
//!     UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap(),
//! ];
//! let db = UncertainDb::build(objects).unwrap();
//! let result = db
//!     .cpnn(&CpnnQuery::new(0.0, 0.3, 0.01), Strategy::Verified)
//!     .unwrap();
//! assert_eq!(result.answers, vec![ObjectId(1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
mod bounds;
pub mod cache;
pub mod candidate;
pub mod classify;
mod distance;
mod distance2d;
mod engine;
mod engine2d;
mod error;
pub mod exact;
pub mod framework;
mod geometry2d;
mod idmap;
pub mod knn;
mod object;
pub mod persist;
pub mod pipeline;
pub mod refine;
mod server;
pub mod shard;
mod storage;
pub mod store;
mod subregion;
mod update;
pub mod verifiers;

#[cfg(test)]
pub(crate) mod testutil;

pub use batch::{BatchExecutor, BatchOutcome, BatchSummary};
pub use bounds::ProbBound;
pub use cache::{CacheConfig, CacheStats, SharedCacheConfig, SharedVerifyCache, VerifyCache};
pub use candidate::{CandidateMember, CandidateSet};
pub use classify::{Classifier, Label};
pub use cpnn_rtree::TreeStats;
pub use distance::DistanceDistribution;
pub use distance2d::CircleObject;
pub use engine::{
    CpnnQuery, CpnnResult, EngineConfig, ObjectReport, PnnResult, QueryStats, Strategy, UncertainDb,
};
pub use engine2d::{Object2d, UncertainDb2d};
pub use error::{CoreError, Result};
pub use geometry2d::Rect2;
pub use object::{ObjectId, UncertainObject};
pub use persist::{PersistentModel, SnapshotError};
pub use pipeline::{DistanceModel, PipelineConfig, QueryScratch, QuerySpec};
pub use refine::RefinementOrder;
pub use server::{FlushReport, QueryServer, Served, ServerStats, Snapshot, Ticket, UpdateOutcome};
pub use shard::{Extent, ShardBalance, ShardPoint, ShardableModel, ShardedDb};
pub use storage::{
    encode_record, replay_wal, wal_header, CrashWriter, FileBackend, MemoryBackend, Recovered,
    StorageBackend, StorageError,
};
pub use store::CowModel;
pub use subregion::{Columns, SubregionTable, TableSource, MASS_EPS};
pub use update::UpdateOp;
