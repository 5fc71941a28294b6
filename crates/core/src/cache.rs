//! Verification-state caching: quantized-query LRU memoization of the
//! expensive, *query-point-determined* half of the pipeline.
//!
//! The paper's verify/refine flow recomputes per-object distance
//! distributions and the dense subregion table from scratch for every
//! query, even though real traffic issues repeated (or, after
//! quantization, identical) query points whose candidate sets and
//! distributions are the same — precomputing query-independent
//! probabilistic structure is how Probabilistic Voronoi Diagrams amortize
//! repeated PNN evaluation. [`VerifyCache`] memoizes exactly the state
//! that depends only on `(query point, k, snapshot)`:
//!
//! * the **filter output** — the candidate set, including every
//!   survivor's distance distribution (the product of phases 1–2,
//!   dominated by pdf folding / 2-D cdf integration);
//! * the **outcomes** — the reports of every (spec, config) band already
//!   evaluated at that point ([`OutcomeKey`]), replayed on a repeat.
//!
//! The subregion table is *not* memoized: at ≈ 4× the size of the
//! candidate set it would dominate the cache's footprint, and a repeat
//! under a known band never reads it. A hit under a new band rebuilds it
//! from the cached candidate set ([`SubregionTable::build`] is
//! deterministic) and runs verify/refine, so one entry serves every
//! `P`/`Δ`/strategy at that point. The cache therefore never changes any
//! verdict or probability bound — it only skips recomputing inputs that
//! are bit-identical by construction.
//!
//! [`SubregionTable::build`]: crate::subregion::SubregionTable::build
//!
//! # Quantization correctness
//!
//! With `quantum == 0` a lookup key is the exact bit pattern of the query
//! point: cached and uncached evaluation are bit-for-bit identical
//! (property-tested in `tests/proptest_cache.rs`). With `quantum = ε > 0`
//! every query point is first **snapped to its grid representative**
//! (each coordinate rounded to the nearest multiple of ε) and then
//! evaluated — on a hit *and* on a miss. Snapping is a pure function of
//! the point, so the answer a query receives is independent of cache
//! state, arrival order, and capacity: it is always the uncached answer
//! *of the snapped point*. The approximation is the snap, never the
//! cache.
//!
//! # Snapshot-version invalidation
//!
//! A cache is only sound against one immutable database. Every execution
//! surface that evaluates against a [`crate::server::Snapshot`] tells its
//! scratch the pinned version ([`crate::QueryScratch::set_snapshot_version`])
//! before evaluating; when the version moves, the cache clears itself, so
//! a copy-on-write update can never serve stale candidate sets or bounds
//! (property-tested under interleaved `insert`/`remove` through
//! [`crate::server::QueryServer`]). As defense in depth for callers
//! driving `cpnn_with` directly, the cache also pins the database's
//! object count on every query ([`VerifyCache::pin_source`]): an
//! in-place `insert`/`remove` on the model, or reusing one scratch
//! across differently-sized databases, invalidates automatically even
//! though no version ever moved. An equal-count swap is the one case the
//! guards cannot see — use a fresh scratch (or bump the version) when
//! substituting objects behind a cached scratch.
//!
//! # Example
//!
//! ```
//! use cpnn_core::cache::CacheConfig;
//! use cpnn_core::{
//!     pipeline, ObjectId, PipelineConfig, QueryScratch, QuerySpec, Strategy, UncertainDb,
//!     UncertainObject,
//! };
//!
//! let db = UncertainDb::build(vec![
//!     UncertainObject::uniform(ObjectId(1), 1.0, 4.0).unwrap(),
//!     UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap(),
//! ])
//! .unwrap();
//! let mut cfg = PipelineConfig::default();
//! cfg.cache = CacheConfig::new(128, 0.0);
//! let mut scratch = QueryScratch::new();
//! let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
//!
//! let first = pipeline::cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
//! let second = pipeline::cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
//! assert_eq!(first.answers, second.answers);
//! let stats = scratch.cache_stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::candidate::CandidateSet;
use crate::shard::Extent;

/// Tuning for a per-thread [`VerifyCache`]. Lives inside
/// [`crate::PipelineConfig`], so every execution surface — one-shot,
/// batch, server, sharded — picks it up without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum memoized query points per thread; `0` disables caching
    /// entirely (the default).
    pub capacity: usize,
    /// Quantization grid width ε. `0.0` reuses exact repeats only;
    /// `ε > 0` snaps every query coordinate to the nearest multiple of ε
    /// **before** evaluation, so nearby points share one entry (see the
    /// [module docs](self) for why this never makes answers depend on
    /// cache state).
    pub quantum: f64,
}

impl CacheConfig {
    /// A cache of `capacity` entries with grid width `quantum`.
    ///
    /// ```
    /// use cpnn_core::cache::CacheConfig;
    /// let cfg = CacheConfig::new(256, 0.5);
    /// assert!(cfg.is_enabled());
    /// assert!(!CacheConfig::disabled().is_enabled());
    /// ```
    pub fn new(capacity: usize, quantum: f64) -> Self {
        Self { capacity, quantum }
    }

    /// The no-cache configuration (also the [`Default`]).
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            quantum: 0.0,
        }
    }

    /// Does this configuration cache anything at all?
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Cumulative cache counters. Survive [`VerifyCache`] invalidations, so a
/// long-running worker reports its lifetime hit rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the *local* (per-thread) cache.
    pub hits: u64,
    /// Lookups that had to filter and build distributions from scratch
    /// (neither tier had the entry).
    pub misses: u64,
    /// Local misses answered by the shared [`SharedVerifyCache`] tier —
    /// i.e. state another worker computed and published. Counted on the
    /// worker that served the reply, never double-counted with `hits` or
    /// `misses`.
    pub shared_hits: u64,
    /// Entry hits (local or shared) that *also* carried a memoized
    /// verification outcome for the exact spec, short-circuiting
    /// verify/refine entirely. Always `≤ hits + shared_hits`; counted in
    /// addition to the entry hit, not instead of it.
    pub outcome_hits: u64,
    /// Whole-cache clears caused by a snapshot-version change.
    pub invalidations: u64,
    /// Entries dropped by *incremental* (region-scoped) invalidation —
    /// entries whose candidate horizon intersected an updated region (see
    /// [`VerifyCache::advance_version`]). Entries that survive such a
    /// pass keep serving hits across snapshot versions.
    pub region_evictions: u64,
}

impl CacheStats {
    /// Total lookups (each query counted once: local hit, shared hit, or
    /// miss).
    pub fn lookups(&self) -> u64 {
        self.hits + self.shared_hits + self.misses
    }

    /// Entry hits (either tier) per lookup in `[0, 1]` (`0` before the
    /// first lookup).
    pub fn hit_rate(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            return 0.0;
        }
        (self.hits + self.shared_hits) as f64 / n as f64
    }

    /// Fold another counter set into this one (batch workers aggregate
    /// their per-thread caches this way).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.shared_hits += other.shared_hits;
        self.outcome_hits += other.outcome_hits;
        self.invalidations += other.invalidations;
        self.region_evictions += other.region_evictions;
    }
}

/// Snap one coordinate to the nearest multiple of `quantum`
/// (identity when `quantum` is zero, negative, or not finite).
///
/// ```
/// use cpnn_core::cache::quantize_coord;
/// assert_eq!(quantize_coord(4203.7, 10.0), 4200.0);
/// assert_eq!(quantize_coord(4203.7, 0.0), 4203.7);
/// ```
pub fn quantize_coord(c: f64, quantum: f64) -> f64 {
    if quantum > 0.0 && quantum.is_finite() && c.is_finite() {
        (c / quantum).round() * quantum
    } else {
        c
    }
}

/// Bit-exact key of a 1-D query point (already snapped).
pub fn point_key_1d(q: f64) -> u128 {
    q.to_bits() as u128
}

/// Bit-exact key of a 2-D query point (already snapped).
pub fn point_key_2d(q: [f64; 2]) -> u128 {
    ((q[0].to_bits() as u128) << 64) | q[1].to_bits() as u128
}

/// Bit-exact key of one memoized *verification outcome* at a cached
/// query point: the exact threshold/tolerance band, the strategy, and the
/// pipeline knobs that shape verify/refine (`refinement_order`,
/// `extended_verifiers`). `k` and the snapped point are already part of
/// the *entry* key, so they are not repeated here.
///
/// Keying the band **exactly** (by bit pattern) is what makes the
/// short-circuit trivially sound: a memo hit replays the reports of a
/// prior evaluation of the *same* candidate set under the *same* spec and
/// config — and since every strategy is a deterministic function of
/// (candidates, spec, config), the replayed reports are bit-for-bit what
/// re-running verify/refine would produce (property-tested in
/// `tests/proptest_shared_cache.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutcomeKey {
    threshold: u64,
    tolerance: u64,
    strategy: crate::pipeline::Strategy,
    refinement: crate::refine::RefinementOrder,
    extended_verifiers: bool,
}

impl OutcomeKey {
    /// The outcome key for evaluating `spec` under `cfg`.
    pub fn new(spec: &crate::pipeline::QuerySpec, cfg: &crate::pipeline::PipelineConfig) -> Self {
        Self {
            threshold: spec.threshold.to_bits(),
            tolerance: spec.tolerance.to_bits(),
            strategy: spec.strategy,
            refinement: cfg.refinement_order,
            extended_verifiers: cfg.extended_verifiers,
        }
    }
}

/// One memoized verification state: the candidate set (filter output +
/// per-candidate distance distributions) and the outcomes of the bands
/// evaluated on it. The candidate set sits behind an [`Arc`], so a hit
/// costs a refcount bump, not a copy. The subregion table is not kept: a
/// hit under a band without an outcome rebuilds it from the candidates
/// (see the [module docs](self)).
///
/// For **incremental invalidation** the entry also remembers the (snapped)
/// query point it was computed at and its *candidate horizon* — the
/// `k`-th smallest far point the filter pruned against. An update whose
/// region lies entirely beyond the horizon provably cannot change this
/// entry's candidate set (its near distance exceeds the horizon, so it is
/// not a candidate; its far distance exceeds the `k`-th far, so it cannot
/// tighten the horizon either), so the entry survives the snapshot swap.
#[derive(Debug, Clone)]
pub struct CachedQuery {
    cands: Arc<CandidateSet>,
    /// Coordinates of the (snapped) query point, `None` when the model
    /// cannot expose them — such entries drop on any region invalidation.
    coords: Option<Box<[f64]>>,
    /// The filter's pruning horizon at this point (`INFINITY` when the
    /// candidate set covered the whole database, i.e. `|C| < k`).
    horizon: f64,
    /// Memoized verification outcomes at this point, one per exact
    /// (spec, config) band ([`OutcomeKey`]), oldest-first and bounded by
    /// `OUTCOME_CAP`. They live *inside* the entry so every
    /// invalidation rule (version, source pin, region pass, eviction)
    /// covers them for free: an outcome is replayable exactly as long as
    /// its candidate set is.
    outcomes: Vec<(OutcomeKey, Arc<Vec<crate::pipeline::ObjectReport>>)>,
}

/// Distinct (spec, config) bands memoized per cached entry; real traffic
/// reuses a handful of thresholds, so a small bound keeps entries cheap
/// to clone while adversarial spec churn evicts oldest-first.
const OUTCOME_CAP: usize = 8;

impl CachedQuery {
    /// An entry holding filter output only (outcomes attach later).
    /// Without query coordinates the entry is dropped by *any* region
    /// invalidation; prefer [`for_query`](Self::for_query).
    pub fn new(cands: Arc<CandidateSet>) -> Self {
        Self {
            cands,
            coords: None,
            horizon: f64::INFINITY,
            outcomes: Vec::new(),
        }
    }

    /// An entry that can survive incremental invalidation: remembers the
    /// snapped query coordinates and derives the candidate horizon from
    /// the candidate set (`INFINITY` when fewer than `k` candidates exist
    /// — then the whole database was in range and any update may matter).
    pub fn for_query(cands: Arc<CandidateSet>, coords: Option<Vec<f64>>, k: usize) -> Self {
        let horizon = if cands.len() < k.max(1) {
            f64::INFINITY
        } else {
            cands.horizon()
        };
        Self {
            cands,
            coords: coords.map(Vec::into_boxed_slice),
            horizon,
            outcomes: Vec::new(),
        }
    }

    /// The memoized candidate set.
    pub fn candidates(&self) -> &Arc<CandidateSet> {
        &self.cands
    }

    /// The memoized reports for an exact (spec, config) band, if this
    /// entry has seen that band before.
    pub fn outcome(&self, key: &OutcomeKey) -> Option<Arc<Vec<crate::pipeline::ObjectReport>>> {
        self.outcomes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, reports)| Arc::clone(reports))
    }

    /// Memoize the reports of one evaluated (spec, config) band, evicting
    /// the oldest band beyond `OUTCOME_CAP`. First writer wins on a
    /// duplicate key (the reports are deterministic, so copies agree).
    pub fn record_outcome(
        &mut self,
        key: OutcomeKey,
        reports: Arc<Vec<crate::pipeline::ObjectReport>>,
    ) {
        if self.outcomes.iter().any(|(k, _)| *k == key) {
            return;
        }
        if self.outcomes.len() >= OUTCOME_CAP {
            self.outcomes.remove(0);
        }
        self.outcomes.push((key, reports));
    }

    /// Can this entry survive an update confined to `region`? True only
    /// when the region's minimum distance from the entry's query point
    /// strictly exceeds the candidate horizon (see the type docs for the
    /// soundness argument). Conservative on missing/mismatched
    /// coordinates: the entry does not survive.
    fn survives(&self, region: &Extent) -> bool {
        let Some(coords) = self.coords.as_deref() else {
            return false;
        };
        if coords.len() != region.dims() {
            return false;
        }
        region.mindist(&coords) > self.horizon
    }
}

/// Key of one memoized query: the snapped point's bit pattern plus the
/// neighbor count `k` (a `k = 1` candidate set prunes against a tighter
/// horizon than a `k = 3` one, so they cannot share state). The snapshot
/// version is *not* in the key — a version change clears the whole cache
/// instead, so stale entries cannot linger in the LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    point: u128,
    k: usize,
}

/// A per-thread LRU memoizing filter output, distance distributions, and
/// verification outcomes by quantized query point. See the [module
/// docs](self) for the key design and the correctness argument; the
/// high-level entry points are [`crate::QueryScratch::with_cache`] and
/// [`crate::PipelineConfig`]'s `cache` field.
///
/// ```
/// use cpnn_core::cache::{CacheConfig, CachedQuery, VerifyCache};
/// use cpnn_core::{CandidateSet, ObjectId, UncertainObject};
/// use std::sync::Arc;
///
/// let objects = vec![UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap()];
/// let cands = Arc::new(CandidateSet::build(&objects, 0.0, 0).unwrap());
/// let mut cache = VerifyCache::new(CacheConfig::new(2, 0.0));
///
/// let point = cpnn_core::cache::point_key_1d(0.0);
/// assert!(cache.lookup(point, 1).is_none()); // miss
/// cache.insert(point, 1, CachedQuery::new(cands));
/// assert!(cache.lookup(point, 1).is_some()); // hit
///
/// // A snapshot-version change invalidates everything.
/// cache.set_version(1);
/// assert!(cache.lookup(point, 1).is_none());
/// assert_eq!(cache.stats().invalidations, 1);
/// ```
#[derive(Debug)]
pub struct VerifyCache {
    config: CacheConfig,
    /// The snapshot version the cached entries were computed against.
    version: u64,
    /// Object count of the database the entries were computed against
    /// (`None` until the first query) — a defense-in-depth guard for the
    /// public `cpnn_with` seam: an in-place `insert`/`remove` on the
    /// model, or reusing one scratch across differently-sized databases,
    /// changes the count and invalidates even though no snapshot version
    /// ever moved. Equal-count mutations still need
    /// [`set_version`](Self::set_version) (or a fresh scratch) — the
    /// serving path always provides exactly that.
    source_objects: Option<usize>,
    /// Entry → (last-use tick, state). Eviction scans for the minimum
    /// tick — O(capacity), fine for the few-hundred-entry caches this is
    /// built for and free of unsafe linked-list bookkeeping.
    map: HashMap<Key, (u64, CachedQuery)>,
    tick: u64,
    stats: CacheStats,
}

impl VerifyCache {
    /// A fresh cache (snapshot version 0).
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            version: 0,
            source_objects: None,
            map: HashMap::with_capacity(config.capacity.min(1024)),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache runs under.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The quantization grid width.
    pub fn quantum(&self) -> f64 {
        self.config.quantum
    }

    /// The snapshot version current entries belong to.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of memoized query points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative counters (not reset by invalidation).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Pin the snapshot version. Moving to a *different* version drops
    /// every entry — the memoized candidate sets were computed against a
    /// database that no longer serves — and counts one invalidation (if
    /// anything was dropped). Idempotent for the current version.
    pub fn set_version(&mut self, version: u64) {
        if version == self.version {
            return;
        }
        self.version = version;
        if !self.map.is_empty() {
            self.map.clear();
            self.stats.invalidations += 1;
        }
    }

    /// Pin the snapshot version **incrementally**: instead of clearing,
    /// drop only the entries whose cached candidate horizon intersects one
    /// of the `regions` the intervening updates touched (see
    /// [`CachedQuery::for_query`] for why surviving entries are provably
    /// still exact). Entries without query coordinates are dropped
    /// conservatively. Idempotent for the current version; moving
    /// *backwards* falls back to a full clear (the regions walked forward
    /// do not describe the reverse trip).
    pub fn advance_version(&mut self, version: u64, regions: &[Extent]) {
        if version == self.version {
            return;
        }
        if version < self.version {
            self.set_version(version);
            return;
        }
        self.version = version;
        // The source-object count moves with every applied update; the
        // version move is the sanctioned invalidation here, so re-arm the
        // count guard instead of letting it clear the survivors.
        self.source_objects = None;
        let before = self.map.len();
        self.map
            .retain(|_, (_, entry)| regions.iter().all(|r| entry.survives(r)));
        self.stats.region_evictions += (before - self.map.len()) as u64;
    }

    /// Drop every entry without touching counters or version.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Pin the object count of the database about to be queried,
    /// invalidating every entry if it moved since the last query (see
    /// the `source_objects` field docs — the guard that catches in-place
    /// mutation and cross-database scratch reuse without a version
    /// change). The pipeline calls this on every cached query.
    pub fn pin_source(&mut self, total_objects: usize) {
        if self.source_objects == Some(total_objects) {
            return;
        }
        if self.source_objects.is_some() && !self.map.is_empty() {
            self.map.clear();
            self.stats.invalidations += 1;
        }
        self.source_objects = Some(total_objects);
    }

    /// Look up the memoized state for a snapped point and neighbor count,
    /// counting a hit or miss.
    pub fn lookup(&mut self, point: u128, k: usize) -> Option<CachedQuery> {
        self.tick += 1;
        match self.map.get_mut(&Key { point, k }) {
            Some((tick, entry)) => {
                *tick = self.tick;
                self.stats.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoize freshly computed state, evicting the least-recently-used
    /// entry if the cache is full. No-op at capacity 0.
    pub fn insert(&mut self, point: u128, k: usize, entry: CachedQuery) {
        if self.config.capacity == 0 {
            return;
        }
        let key = Key { point, k };
        if self.map.len() >= self.config.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, entry));
    }

    /// Attach a just-evaluated verification outcome to an existing entry
    /// (see [`CachedQuery::record_outcome`]). Ignored if the entry was
    /// evicted in the meantime.
    pub fn attach_outcome(
        &mut self,
        point: u128,
        k: usize,
        key: OutcomeKey,
        reports: Arc<Vec<crate::pipeline::ObjectReport>>,
    ) {
        if let Some((_, entry)) = self.map.get_mut(&Key { point, k }) {
            entry.record_outcome(key, reports);
        }
    }

    /// Reclassify the latest counted miss as a shared-tier hit: the
    /// pipeline counts a local miss in [`lookup`](Self::lookup) first,
    /// then consults the L2, and calls this when the L2 answered. Keeps
    /// `lookups()` counting every query exactly once.
    pub fn promote_miss_to_shared_hit(&mut self) {
        debug_assert!(self.stats.misses > 0, "no miss to promote");
        self.stats.misses = self.stats.misses.saturating_sub(1);
        self.stats.shared_hits += 1;
    }

    /// Count one outcome-memo hit (an entry hit whose memoized reports
    /// short-circuited verify/refine).
    pub fn note_outcome_hit(&mut self) {
        self.stats.outcome_hits += 1;
    }
}

/// Tuning for the process-wide [`SharedVerifyCache`] tier. Lives inside
/// [`crate::PipelineConfig`] next to the per-thread `cache` knob; the
/// tier only engages when **both** are enabled (the shared tier is an L2
/// behind the local L1 — a local miss consults it, a local fill
/// publishes upward).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedCacheConfig {
    /// Total memoized query points across all segments; `0` disables the
    /// tier entirely (the default).
    pub capacity: usize,
    /// Admit a key on its first publish attempt instead of the default
    /// **second-sight** admission (first attempt only records the key;
    /// the next attempt admits it). Second sight keeps adversarial
    /// point churn — a stream of never-repeated points — from thrashing
    /// entries that are actually hot.
    pub admit_first_sight: bool,
}

impl SharedCacheConfig {
    /// A shared tier of `capacity` entries with second-sight admission.
    ///
    /// ```
    /// use cpnn_core::cache::SharedCacheConfig;
    /// let cfg = SharedCacheConfig::new(1024);
    /// assert!(cfg.is_enabled());
    /// assert!(!SharedCacheConfig::disabled().is_enabled());
    /// ```
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            admit_first_sight: false,
        }
    }

    /// The no-tier configuration (also the [`Default`]).
    pub fn disabled() -> Self {
        Self {
            capacity: 0,
            admit_first_sight: false,
        }
    }

    /// Same configuration admitting entries on first sight (useful when
    /// the workload is known-hot, and in tests that need deterministic
    /// single-pass warming).
    pub fn admit_immediately(mut self) -> Self {
        self.admit_first_sight = true;
        self
    }

    /// Does this configuration share anything at all?
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

impl Default for SharedCacheConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Cumulative counters of a [`SharedVerifyCache`], aggregated across all
/// segments (relaxed atomics — totals, not a consistent snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the tier.
    pub hits: u64,
    /// Lookups the tier could not answer (absent or wrong version).
    pub misses: u64,
    /// Entries admitted into a segment.
    pub admitted: u64,
    /// Publish attempts deferred by second-sight admission (the key was
    /// only recorded; its next publish admits).
    pub deferred: u64,
    /// Segment clears (version mismatch, backwards move, or unknown
    /// update footprint).
    pub invalidations: u64,
    /// Entries dropped by incremental (region-scoped) invalidation.
    pub region_evictions: u64,
}

/// Upper bound on lock-striped segments; the actual count never exceeds
/// the configured capacity, so tiny tiers do not scatter one entry per
/// lock.
const SHARED_SEGMENTS: usize = 16;

/// One lock-striped segment of the shared tier. The version and source
/// pin are **per segment**, checked under the segment's own mutex: a
/// publish racing an [`SharedVerifyCache::advance_version`] walk either
/// lands before the walk reaches the segment (and is region-checked by
/// it) or carries a stale version and is dropped — no global lock, no
/// stale entry, in either order.
#[derive(Debug)]
struct Segment {
    version: u64,
    source: Option<usize>,
    tick: u64,
    map: HashMap<Key, SharedSlot>,
    /// Second-sight admission ledger: key → tick of its recorded first
    /// sighting. Bounded; oldest sightings are forgotten under churn. It
    /// holds keys, never state, so it outlives version advances: a hot
    /// spot seen once before an update burst is admitted on its next
    /// publish after it.
    seen: HashMap<Key, u64>,
}

#[derive(Debug)]
struct SharedSlot {
    tick: u64,
    entry: CachedQuery,
}

/// The process-wide L2 behind every worker's [`VerifyCache`]: a
/// lock-striped concurrent map over the same `(snapped point bits, k)`
/// keys, so one worker's miss warms every worker. At `T` serve threads
/// the effective hit rate on hot-spot traffic multiplies instead of
/// dividing by `T` — a repeat query hits no matter which worker the
/// scheduler lands it on.
///
/// **Eviction** is segmented LRU: each segment evicts its own
/// least-recently-used entry under its own mutex, so a hot segment never
/// takes a global lock. **Invalidation** mirrors the local tier:
/// [`advance_version`](Self::advance_version) walks the segments with
/// the same region-journal survivor test the per-thread map uses, and
/// the server fans it out *before* a new snapshot becomes visible (see
/// `server.rs`), so no worker can be pinned to a version whose segments
/// have not been walked. **Second-sight admission**
/// ([`SharedCacheConfig`]) keeps adversarial point churn from thrashing
/// the tier.
///
/// ```
/// use cpnn_core::cache::{CachedQuery, SharedCacheConfig, SharedVerifyCache};
/// use cpnn_core::{CandidateSet, ObjectId, UncertainObject};
/// use std::sync::Arc;
///
/// let objects = vec![UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap()];
/// let cands = Arc::new(CandidateSet::build(&objects, 0.0, 0).unwrap());
/// let tier = SharedVerifyCache::new(SharedCacheConfig::new(64).admit_immediately());
///
/// let point = cpnn_core::cache::point_key_1d(0.0);
/// assert!(tier.lookup(point, 1, 0, 1).is_none()); // miss
/// assert!(tier.publish(point, 1, 0, 1, CachedQuery::new(cands)));
/// assert!(tier.lookup(point, 1, 0, 1).is_some()); // any thread hits now
/// assert!(tier.lookup(point, 1, 9, 1).is_none()); // other versions never hit
/// ```
#[derive(Debug)]
pub struct SharedVerifyCache {
    config: SharedCacheConfig,
    /// Per-segment entry budget (`ceil(capacity / segments)`).
    per_segment: usize,
    segments: Vec<Mutex<Segment>>,
    hits: AtomicU64,
    misses: AtomicU64,
    admitted: AtomicU64,
    deferred: AtomicU64,
    invalidations: AtomicU64,
    region_evictions: AtomicU64,
}

impl SharedVerifyCache {
    /// A fresh tier at snapshot version 0.
    pub fn new(config: SharedCacheConfig) -> Self {
        Self::new_at(config, 0)
    }

    /// A fresh tier whose segments start pinned at `version` (servers
    /// resuming from a recovered snapshot start their tier at the
    /// recovered version).
    pub fn new_at(config: SharedCacheConfig, version: u64) -> Self {
        let nsegs = SHARED_SEGMENTS.min(config.capacity.max(1));
        let per_segment = config.capacity.max(1).div_ceil(nsegs);
        let segments = (0..nsegs)
            .map(|_| {
                Mutex::new(Segment {
                    version,
                    source: None,
                    tick: 0,
                    map: HashMap::new(),
                    seen: HashMap::new(),
                })
            })
            .collect();
        Self {
            config,
            per_segment,
            segments,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            region_evictions: AtomicU64::new(0),
        }
    }

    /// The configuration this tier runs under.
    pub fn config(&self) -> &SharedCacheConfig {
        &self.config
    }

    /// Number of lock-striped segments.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Total entries across all segments (advisory; segments are locked
    /// one at a time).
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.lock().expect("shared-cache segment poisoned").map.len())
            .sum()
    }

    /// Is the tier empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters across all segments.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            region_evictions: self.region_evictions.load(Ordering::Relaxed),
        }
    }

    fn segment_of(&self, key: &Key) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.segments.len() as u64) as usize
    }

    /// Pin `seg` to (version, source). Returns `false` — caller must
    /// bail — when the caller's version does not match the segment's.
    /// A moved source count clears the segment (same in-place-mutation
    /// guard as [`VerifyCache::pin_source`], striped per segment).
    fn pin(&self, seg: &mut Segment, version: u64, total_objects: usize) -> bool {
        if seg.version != version {
            return false;
        }
        if seg.source != Some(total_objects) {
            if seg.source.is_some() && !seg.map.is_empty() {
                seg.map.clear();
                seg.seen.clear();
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            seg.source = Some(total_objects);
        }
        true
    }

    /// Look up the shared state for a snapped point and neighbor count,
    /// on behalf of a caller pinned to snapshot `version` of a database
    /// with `total_objects` objects. Counts a hit or miss; a hit clones
    /// the entry out (two refcount bumps) and refreshes its LRU tick.
    pub fn lookup(
        &self,
        point: u128,
        k: usize,
        version: u64,
        total_objects: usize,
    ) -> Option<CachedQuery> {
        if !self.config.is_enabled() {
            return None;
        }
        let key = Key { point, k };
        let mut seg = self.segments[self.segment_of(&key)]
            .lock()
            .expect("shared-cache segment poisoned");
        if !self.pin(&mut seg, version, total_objects) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        seg.tick += 1;
        let tick = seg.tick;
        match seg.map.get_mut(&key) {
            Some(slot) => {
                slot.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.entry.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publish freshly computed state upward. Returns whether the entry
    /// was actually admitted: a stale `version` is dropped (the tier has
    /// moved on), second-sight admission defers a first-seen key, and a
    /// full segment evicts its LRU entry to make room. Republishing an
    /// existing key replaces the entry.
    pub fn publish(
        &self,
        point: u128,
        k: usize,
        version: u64,
        total_objects: usize,
        entry: CachedQuery,
    ) -> bool {
        if !self.config.is_enabled() {
            return false;
        }
        let key = Key { point, k };
        let mut seg = self.segments[self.segment_of(&key)]
            .lock()
            .expect("shared-cache segment poisoned");
        if !self.pin(&mut seg, version, total_objects) {
            return false;
        }
        seg.tick += 1;
        let tick = seg.tick;
        if let Some(slot) = seg.map.get_mut(&key) {
            *slot = SharedSlot { tick, entry };
            return true;
        }
        let admit = self.config.admit_first_sight || seg.seen.remove(&key).is_some();
        if !admit {
            // Record the sighting; bound the ledger by forgetting the
            // oldest sightings under churn.
            if seg.seen.len() >= self.per_segment.saturating_mul(4).max(8) {
                if let Some(oldest) = seg.seen.iter().min_by_key(|(_, t)| **t).map(|(k, _)| *k) {
                    seg.seen.remove(&oldest);
                }
            }
            seg.seen.insert(key, tick);
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if seg.map.len() >= self.per_segment {
            if let Some(oldest) = seg
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| *k)
            {
                seg.map.remove(&oldest);
            }
        }
        seg.map.insert(key, SharedSlot { tick, entry });
        self.admitted.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Attach a just-evaluated verification outcome to a shared entry
    /// (no-op if the entry is absent or the caller's version is stale).
    pub fn attach_outcome(
        &self,
        point: u128,
        k: usize,
        version: u64,
        okey: OutcomeKey,
        reports: Arc<Vec<crate::pipeline::ObjectReport>>,
    ) {
        let key = Key { point, k };
        let mut seg = self.segments[self.segment_of(&key)]
            .lock()
            .expect("shared-cache segment poisoned");
        if seg.version != version {
            return;
        }
        if let Some(slot) = seg.map.get_mut(&key) {
            slot.entry.record_outcome(okey, reports);
        }
    }

    /// Advance every segment to snapshot `version`, dropping only entries
    /// whose candidate horizon one of the update `regions` intersects —
    /// the same survivor test as [`VerifyCache::advance_version`], striped
    /// per segment. `None` regions (unknown footprint) or a backwards
    /// move clears the segment's entries; the second-sight ledger is kept
    /// (it names keys, not state, so no answer can depend on it). The
    /// server calls this under its writer lock *before* the new snapshot
    /// becomes visible, so no worker is ever pinned to a version whose
    /// segments still hold unwalked entries; a concurrent publish carrying
    /// the old version is dropped by the per-segment version check (each
    /// segment records the last version walked).
    pub fn advance_version(&self, version: u64, regions: Option<&[Extent]>) {
        for segment in &self.segments {
            let mut seg = segment.lock().expect("shared-cache segment poisoned");
            if seg.version == version {
                continue;
            }
            let forward = version > seg.version;
            seg.version = version;
            seg.source = None;
            match regions {
                Some(regions) if forward => {
                    let before = seg.map.len();
                    seg.map
                        .retain(|_, slot| regions.iter().all(|r| slot.entry.survives(r)));
                    self.region_evictions
                        .fetch_add((before - seg.map.len()) as u64, Ordering::Relaxed);
                }
                _ => {
                    if !seg.map.is_empty() {
                        seg.map.clear();
                        self.invalidations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, UncertainObject};

    fn entry(q: f64) -> CachedQuery {
        let objects = vec![UncertainObject::uniform(ObjectId(7), 1.0, 3.0).unwrap()];
        CachedQuery::new(Arc::new(CandidateSet::build(&objects, q, 0).unwrap()))
    }

    #[test]
    fn quantize_snaps_to_grid_and_zero_is_identity() {
        assert_eq!(quantize_coord(4203.7, 10.0), 4200.0);
        assert_eq!(quantize_coord(-4203.7, 10.0), -4200.0);
        assert_eq!(quantize_coord(4205.0, 10.0), 4210.0); // ties round away
        assert_eq!(quantize_coord(1.23456, 0.0), 1.23456);
        assert_eq!(quantize_coord(1.23456, -1.0), 1.23456);
        assert!(quantize_coord(f64::NAN, 1.0).is_nan());
    }

    #[test]
    fn point_keys_are_bit_exact_and_dimension_distinct() {
        assert_eq!(point_key_1d(1.5), point_key_1d(1.5));
        assert_ne!(point_key_1d(1.5), point_key_1d(1.5 + f64::EPSILON));
        assert_ne!(point_key_2d([1.0, 2.0]), point_key_2d([2.0, 1.0]));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = VerifyCache::new(CacheConfig::new(2, 0.0));
        cache.insert(1, 1, entry(0.0));
        cache.insert(2, 1, entry(0.0));
        // Touch 1, then insert 3: 2 is the LRU victim.
        assert!(cache.lookup(1, 1).is_some());
        cache.insert(3, 1, entry(0.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, 1).is_some());
        assert!(cache.lookup(2, 1).is_none());
        assert!(cache.lookup(3, 1).is_some());
    }

    #[test]
    fn k_is_part_of_the_key() {
        let mut cache = VerifyCache::new(CacheConfig::new(4, 0.0));
        cache.insert(1, 1, entry(0.0));
        assert!(cache.lookup(1, 2).is_none());
        assert!(cache.lookup(1, 1).is_some());
    }

    #[test]
    fn version_change_clears_but_counters_survive() {
        let mut cache = VerifyCache::new(CacheConfig::new(4, 0.0));
        cache.insert(1, 1, entry(0.0));
        assert!(cache.lookup(1, 1).is_some());
        cache.set_version(1);
        assert!(cache.is_empty());
        assert!(cache.lookup(1, 1).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 1));
        // Same version again: no further invalidation.
        cache.set_version(1);
        assert_eq!(cache.stats().invalidations, 1);
        // Clearing an empty cache on a version move counts nothing.
        cache.set_version(2);
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn hit_under_a_new_band_records_a_second_outcome() {
        use crate::pipeline::{cpnn, cpnn_with, PipelineConfig, QueryScratch, QuerySpec};
        use crate::{Strategy, UncertainDb};
        let (_, objects) = crate::testutil::fig7_scenario();
        let db = UncertainDb::build(objects).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(4, 0.0),
            ..Default::default()
        };
        let mut scratch = QueryScratch::new();
        let a = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
        let b = QuerySpec::nn(0.5, 0.0, Strategy::Verified);
        // Miss: fill the entry and record a's outcome.
        cpnn_with(&db, &0.0, &a, &cfg, &mut scratch).unwrap();
        // Entry hit, no outcome for b: the table is rebuilt from the
        // cached candidates and verify/refine run.
        let hit_b = cpnn_with(&db, &0.0, &b, &cfg, &mut scratch).unwrap();
        assert!(hit_b.stats.subregions > 0, "table rebuilt on the hit");
        assert_eq!(scratch.cache_stats().outcome_hits, 0);
        // Both bands now replay from the one entry.
        for spec in [a, b] {
            let replay = cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap();
            let fresh = cpnn(&db, &0.0, &spec, &PipelineConfig::default()).unwrap();
            assert_eq!(replay.reports, fresh.reports);
        }
        let s = scratch.cache_stats();
        assert_eq!((s.misses, s.hits, s.outcome_hits), (1, 3, 2));
    }

    #[test]
    fn pin_source_invalidates_on_count_change_only() {
        let mut cache = VerifyCache::new(CacheConfig::new(4, 0.0));
        cache.pin_source(10);
        cache.insert(1, 1, entry(0.0));
        // Same count: entries survive.
        cache.pin_source(10);
        assert!(cache.lookup(1, 1).is_some());
        // Count moved (in-place insert / different database): clear.
        cache.pin_source(11);
        assert!(cache.lookup(1, 1).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn capacity_zero_never_stores() {
        let mut cache = VerifyCache::new(CacheConfig::disabled());
        cache.insert(1, 1, entry(0.0));
        assert!(cache.is_empty());
        assert!(cache.lookup(1, 1).is_none());
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(a.hit_rate(), 0.75);
        a.accumulate(&CacheStats {
            hits: 1,
            misses: 3,
            shared_hits: 2,
            outcome_hits: 1,
            invalidations: 2,
            region_evictions: 5,
        });
        assert_eq!((a.hits, a.misses, a.invalidations), (4, 4, 2));
        assert_eq!((a.shared_hits, a.outcome_hits), (2, 1));
        assert_eq!(a.region_evictions, 5);
        assert_eq!(a.lookups(), 10);
        assert_eq!(a.hit_rate(), 0.6);
    }

    #[test]
    fn promote_and_outcome_counters_keep_lookups_consistent() {
        let mut cache = VerifyCache::new(CacheConfig::new(4, 0.0));
        assert!(cache.lookup(1, 1).is_none()); // miss...
        cache.promote_miss_to_shared_hit(); // ...answered by the L2
        cache.note_outcome_hit();
        let s = cache.stats();
        assert_eq!((s.hits, s.shared_hits, s.misses), (0, 1, 0));
        assert_eq!(s.outcome_hits, 1);
        assert_eq!(s.lookups(), 1);
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn advance_version_drops_only_intersecting_entries() {
        let objects = vec![UncertainObject::uniform(ObjectId(7), 1.0, 3.0).unwrap()];
        let at = |q: f64| {
            CachedQuery::for_query(
                Arc::new(CandidateSet::build(&objects, q, 0).unwrap()),
                Some(vec![q]),
                1,
            )
        };
        let mut cache = VerifyCache::new(CacheConfig::new(8, 0.0));
        // Entry at q = 0: horizon = far point of [1, 3] from 0 → 3.
        cache.insert(point_key_1d(0.0), 1, at(0.0));
        // Entry without coordinates: always dropped on region passes.
        cache.insert(
            point_key_1d(50.0),
            1,
            CachedQuery::new(Arc::new(CandidateSet::build(&objects, 50.0, 0).unwrap())),
        );
        // Far-away update region [100, 101]: mindist from q = 0 is 100 > 3,
        // so the coordinate-bearing entry survives; the bare one drops.
        cache.advance_version(1, &[Extent::new(vec![100.0], vec![101.0])]);
        assert_eq!(cache.version(), 1);
        assert!(cache.lookup(point_key_1d(0.0), 1).is_some());
        assert!(cache.lookup(point_key_1d(50.0), 1).is_none());
        assert_eq!(cache.stats().region_evictions, 1);
        assert_eq!(cache.stats().invalidations, 0, "no full clear happened");
        // A region inside the horizon (mindist 1 ≤ 3) drops the entry.
        cache.advance_version(2, &[Extent::new(vec![-2.0], vec![-1.0])]);
        assert!(cache.lookup(point_key_1d(0.0), 1).is_none());
        assert_eq!(cache.stats().region_evictions, 2);
        // Same version again: no-op. Backwards: full clear.
        cache.insert(point_key_1d(0.0), 1, at(0.0));
        cache.advance_version(2, &[Extent::new(vec![0.0], vec![1.0])]);
        assert!(cache.lookup(point_key_1d(0.0), 1).is_some());
        cache.advance_version(0, &[]);
        assert!(cache.is_empty());
    }

    /// A coordinate-bearing shared entry at query point `q`.
    fn shared_entry(q: f64) -> CachedQuery {
        let objects = vec![UncertainObject::uniform(ObjectId(7), 1.0, 3.0).unwrap()];
        CachedQuery::for_query(
            Arc::new(CandidateSet::build(&objects, q, 0).unwrap()),
            Some(vec![q]),
            1,
        )
    }

    #[test]
    fn shared_tier_second_sight_admission() {
        let tier = SharedVerifyCache::new(SharedCacheConfig::new(64));
        let p = point_key_1d(0.0);
        // First publish only records the sighting.
        assert!(!tier.publish(p, 1, 0, 1, shared_entry(0.0)));
        assert!(tier.lookup(p, 1, 0, 1).is_none());
        // Second publish admits.
        assert!(tier.publish(p, 1, 0, 1, shared_entry(0.0)));
        assert!(tier.lookup(p, 1, 0, 1).is_some());
        let s = tier.stats();
        assert_eq!((s.deferred, s.admitted), (1, 1));
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn shared_tier_version_and_source_guards() {
        let tier = SharedVerifyCache::new(SharedCacheConfig::new(64).admit_immediately());
        let p = point_key_1d(0.0);
        assert!(tier.publish(p, 1, 0, 1, shared_entry(0.0)));
        // A stale-version publish or lookup never touches current state.
        assert!(!tier.publish(p, 1, 7, 1, shared_entry(0.0)));
        assert!(tier.lookup(p, 1, 7, 1).is_none());
        assert!(tier.lookup(p, 1, 0, 1).is_some());
        // A moved object count clears the segment (in-place mutation guard).
        assert!(tier.lookup(p, 1, 0, 2).is_none());
        assert!(tier.lookup(p, 1, 0, 2).is_none());
        assert!(tier.stats().invalidations >= 1);
    }

    #[test]
    fn shared_tier_sightings_survive_a_version_advance() {
        let tier = SharedVerifyCache::new(SharedCacheConfig::new(64));
        let p = point_key_1d(0.0);
        // Seen once at version 0: deferred.
        assert!(!tier.publish(p, 1, 0, 1, shared_entry(0.0)));
        // A far-away update advances the tier without touching the key.
        tier.advance_version(1, Some(&[Extent::new(vec![100.0], vec![101.0])]));
        // Its next publish, at the new version, is its second sighting.
        assert!(tier.publish(p, 1, 1, 1, shared_entry(0.0)));
        assert!(tier.lookup(p, 1, 1, 1).is_some());
        let s = tier.stats();
        assert_eq!((s.deferred, s.admitted), (1, 1));
    }

    #[test]
    fn shared_tier_segmented_lru_eviction_is_bounded() {
        let tier = SharedVerifyCache::new(SharedCacheConfig::new(16).admit_immediately());
        assert!(tier.segments() <= SHARED_SEGMENTS);
        for i in 0..200u64 {
            tier.publish(point_key_1d(i as f64), 1, 0, 1, shared_entry(i as f64));
        }
        // Per-segment LRU keeps the total at or under capacity.
        assert!(tier.len() <= 16, "len {} exceeds capacity", tier.len());
    }

    #[test]
    fn shared_tier_advance_version_walks_every_segment() {
        let tier = SharedVerifyCache::new(SharedCacheConfig::new(256).admit_immediately());
        // Spread entries across segments; all have horizon 3 around ~0.
        for i in 0..32u64 {
            let q = i as f64 * 0.001;
            assert!(tier.publish(point_key_1d(q), 1, 0, 1, shared_entry(q)));
        }
        assert_eq!(tier.len(), 32);
        // Far-away region: every entry survives, in every segment.
        tier.advance_version(1, Some(&[Extent::new(vec![100.0], vec![101.0])]));
        assert_eq!(tier.len(), 32);
        assert!(tier.lookup(point_key_1d(0.0), 1, 1, 1).is_some());
        assert!(
            tier.lookup(point_key_1d(0.0), 1, 0, 1).is_none(),
            "old version"
        );
        // Near region: every entry drops, in every segment.
        tier.advance_version(2, Some(&[Extent::new(vec![0.5], vec![1.5])]));
        assert!(tier.is_empty());
        assert_eq!(tier.stats().region_evictions, 32);
        // Unknown footprint clears.
        assert!(tier.publish(point_key_1d(0.0), 1, 2, 1, shared_entry(0.0)));
        tier.advance_version(3, None);
        assert!(tier.is_empty());
    }

    #[test]
    fn cached_query_outcome_memo_is_bounded_and_exact() {
        use crate::pipeline::{PipelineConfig, QuerySpec};
        use crate::Strategy;
        let mut e = shared_entry(0.0);
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
        let key = OutcomeKey::new(&spec, &cfg);
        assert!(e.outcome(&key).is_none());
        e.record_outcome(key, Arc::new(Vec::new()));
        assert!(e.outcome(&key).is_some());
        // A different band misses; the threshold is keyed bit-exactly.
        let other = OutcomeKey::new(&QuerySpec::nn(0.4, 0.01, Strategy::Verified), &cfg);
        assert!(e.outcome(&other).is_none());
        // The memo list is bounded, evicting oldest-first.
        for i in 0..(OUTCOME_CAP + 2) {
            let spec = QuerySpec::nn(0.01 + i as f64 * 0.05, 0.0, Strategy::Verified);
            e.record_outcome(OutcomeKey::new(&spec, &cfg), Arc::new(Vec::new()));
        }
        assert!(e.outcome(&key).is_none(), "oldest band evicted");
    }
}
