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
//!   evaluated at that point (keyed by `OutcomeKey`), replayed on a repeat.
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
//! # Two tiers, one segment
//!
//! Both tiers are built from one private LRU segment: an entry map keyed
//! by `(snapped point, k)`, pinned to a `(snapshot version, object count)`
//! pair, with region-scoped advance, outcome attach and its own counters.
//! A [`VerifyCache`] — the per-thread L1 every [`crate::QueryScratch`]
//! owns — is one segment, lock-free. A [`SharedVerifyCache`] — the
//! process-wide L2 — is a set of lock-striped segments plus a
//! second-sight admission ledger. The L1 → L2 policy lives here too: a
//! local miss consults the shared tier and installs its hit locally, a
//! fresh fill publishes upward, and a new outcome attaches to both copies.
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
//! driving `cpnn_with` directly, every segment also pins the database's
//! object count on every query: an in-place `insert`/`remove` on the
//! model, or reusing one scratch across differently-sized databases,
//! invalidates automatically even though no version ever moved. An
//! equal-count swap is the one case the guards cannot see — use a fresh
//! scratch (or bump the version) when substituting objects behind a
//! cached scratch.
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
use std::sync::{Arc, Mutex, MutexGuard};

use crate::candidate::CandidateSet;
use crate::pipeline::{ObjectReport, PipelineConfig, QuerySpec, Strategy};
use crate::refine::RefinementOrder;
use crate::shard::Extent;

/// Tuning for a per-thread [`VerifyCache`]. Lives inside
/// [`crate::PipelineConfig`], so every execution surface — one-shot,
/// batch, server, sharded — picks it up without new plumbing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Maximum memoized query points per thread; `0` disables caching
    /// entirely (the default).
    pub(crate) capacity: usize,
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

/// Cumulative counters of one cache tier. Survive invalidations, so a
/// long-running worker reports its lifetime hit rate.
///
/// A [`VerifyCache`] counts each query exactly once as a local hit, a
/// shared hit or a miss. A [`SharedVerifyCache`] counts its own lookups
/// in `hits` and `misses` and leaves `shared_hits` and `outcome_hits` at
/// zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by the tier itself.
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
    /// Whole-segment clears caused by a snapshot-version change, an
    /// unknown update footprint, or a moved object count.
    pub invalidations: u64,
    /// Entries dropped by *incremental* (region-scoped) invalidation —
    /// entries whose candidate horizon intersected an updated region (see
    /// [`crate::QueryScratch::advance_snapshot`]). Entries that survive
    /// such a pass keep serving hits across snapshot versions.
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
    /// their per-thread caches, the shared tier its segments, this way).
    pub(crate) fn accumulate(&mut self, other: &CacheStats) {
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
pub(crate) fn point_key_1d(q: f64) -> u128 {
    q.to_bits() as u128
}

/// Bit-exact key of a 2-D query point (already snapped).
pub(crate) fn point_key_2d(q: [f64; 2]) -> u128 {
    ((q[0].to_bits() as u128) << 64) | q[1].to_bits() as u128
}

/// Bit-exact key of one memoized *verification outcome* at a cached
/// query point: the exact threshold/tolerance band, the strategy, and the
/// pipeline knob that shapes verify/refine (`refinement_order`). `k` and
/// the snapped point are already part of the *entry* key, so they are not
/// repeated here.
///
/// Keying the band **exactly** (by bit pattern) is what makes the
/// short-circuit trivially sound: a memo hit replays the reports of a
/// prior evaluation of the *same* candidate set under the *same* spec and
/// config — and since every strategy is a deterministic function of
/// (candidates, spec, config), the replayed reports are bit-for-bit what
/// re-running verify/refine would produce (property-tested in
/// `tests/proptest_cache.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct OutcomeKey {
    threshold: u64,
    tolerance: u64,
    strategy: Strategy,
    refinement: RefinementOrder,
}

impl OutcomeKey {
    /// The outcome key for evaluating `spec` under `cfg`.
    pub(crate) fn new(spec: &QuerySpec, cfg: &PipelineConfig) -> Self {
        Self {
            threshold: spec.threshold.to_bits(),
            tolerance: spec.tolerance.to_bits(),
            strategy: spec.strategy,
            refinement: cfg.refinement_order,
        }
    }
}

/// Reports of one evaluated band, shared between a cache entry and its
/// copies in other tiers.
type Reports = Arc<Vec<ObjectReport>>;

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
struct CachedQuery {
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
    outcomes: Vec<(OutcomeKey, Reports)>,
}

/// What a cache hit hands the pipeline: the memoized candidates and, when
/// the entry already holds the probe's band, that band's reports.
#[derive(Debug)]
pub(crate) struct Hit {
    pub(crate) cands: Arc<CandidateSet>,
    pub(crate) reports: Option<Reports>,
}

/// Distinct (spec, config) bands memoized per cached entry; real traffic
/// reuses a handful of thresholds, so a small bound keeps entries cheap
/// to clone while adversarial spec churn evicts oldest-first.
const OUTCOME_CAP: usize = 8;

impl CachedQuery {
    /// An entry for the candidates at a (snapped) query point with
    /// coordinates `coords`. The candidate horizon is `INFINITY` when
    /// fewer than `k` candidates exist — then the whole database was in
    /// range and any update may matter.
    fn new(cands: Arc<CandidateSet>, coords: Option<Vec<f64>>, k: usize) -> Self {
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

    /// The memoized reports for an exact (spec, config) band, if this
    /// entry has seen that band before.
    fn outcome(&self, key: &OutcomeKey) -> Option<&Reports> {
        self.outcomes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, reports)| reports)
    }

    /// This entry as a hit for `band`.
    fn hit(&self, band: &OutcomeKey) -> Hit {
        Hit {
            cands: Arc::clone(&self.cands),
            reports: self.outcome(band).cloned(),
        }
    }

    /// Memoize the reports of one evaluated (spec, config) band, evicting
    /// the oldest band beyond `OUTCOME_CAP`. First writer wins on a
    /// duplicate key (the reports are deterministic, so copies agree).
    fn record_outcome(&mut self, key: OutcomeKey, reports: Reports) {
        if self.outcome(&key).is_some() {
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
        coords.len() == region.dims() && region.mindist(&coords) > self.horizon
    }
}

/// Key of one memoized query: the snapped point's bit pattern plus the
/// neighbor count `k` (a `k = 1` candidate set prunes against a tighter
/// horizon than a `k = 3` one, so they cannot share state). The snapshot
/// version is *not* in the key — a segment is pinned to one version and
/// advancing it drops every entry the update could have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    point: u128,
    k: usize,
}

/// One cached query in flight, carried from [`VerifyCache::lookup`] to
/// [`VerifyCache::fill`] / [`VerifyCache::record_outcome`]: the entry key,
/// the object count of the database it is evaluated against, and the
/// band being evaluated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe {
    key: Key,
    total_objects: usize,
    outcome: OutcomeKey,
}

impl Probe {
    /// A probe for the snapped point `point` under `spec` and `cfg`
    /// against a database of `total_objects` objects.
    pub(crate) fn new(
        point: u128,
        spec: &QuerySpec,
        cfg: &PipelineConfig,
        total_objects: usize,
    ) -> Self {
        Self {
            key: Key {
                point,
                k: spec.k.max(1),
            },
            total_objects,
            outcome: OutcomeKey::new(spec, cfg),
        }
    }
}

/// One LRU map of memoized queries, pinned to the snapshot its entries
/// were computed against — the one building block of both tiers.
#[derive(Debug, Default)]
struct Segment {
    /// Entry budget; `0` stores nothing.
    capacity: usize,
    /// The snapshot version the entries were computed against.
    version: u64,
    /// Object count of the database the entries were computed against
    /// (`None` until the first query after a version move) — a
    /// defense-in-depth guard for the public `cpnn_with` seam: an
    /// in-place `insert`/`remove` on the model, or reusing one scratch
    /// across differently-sized databases, changes the count and
    /// invalidates even though no snapshot version ever moved.
    source: Option<usize>,
    /// Entry → (last-use tick, state). Eviction scans for the minimum
    /// tick — O(capacity), fine for the few-hundred-entry segments this is
    /// built for and free of unsafe linked-list bookkeeping.
    map: HashMap<Key, (u64, CachedQuery)>,
    tick: u64,
    /// This segment's counters. It counts its own invalidations and
    /// region evictions; the tier that owns it counts hits and misses.
    stats: CacheStats,
}

impl Segment {
    fn new(capacity: usize, version: u64) -> Self {
        Self {
            capacity,
            version,
            ..Self::default()
        }
    }

    /// Pin a caller evaluating snapshot `version` of a database with
    /// `total_objects` objects. Returns `false` — the caller must bail —
    /// when the segment holds another version; a moved object count
    /// clears the segment.
    fn pin(&mut self, version: u64, total_objects: usize) -> bool {
        if self.version != version {
            return false;
        }
        if self.source != Some(total_objects) {
            if self.source.is_some() {
                self.clear();
            }
            self.source = Some(total_objects);
        }
        true
    }

    /// Drop every entry, counting one invalidation if there was any.
    fn clear(&mut self) {
        if !self.map.is_empty() {
            self.map.clear();
            self.stats.invalidations += 1;
        }
    }

    /// Move to snapshot `version`. Forward with the `regions` the
    /// intervening updates touched, drop only the entries whose candidate
    /// horizon one of them intersects (see [`CachedQuery`] for why the
    /// survivors are still exact); an unknown footprint (`None`) or a
    /// backwards move clears. Idempotent for the current version.
    fn advance(&mut self, version: u64, regions: Option<&[Extent]>) {
        if version == self.version {
            return;
        }
        let forward = version > self.version;
        self.version = version;
        // The object count moves with every applied update; the version
        // move is the sanctioned invalidation here, so re-arm the count
        // guard instead of letting it clear the survivors.
        self.source = None;
        match regions {
            Some(regions) if forward => {
                let before = self.map.len();
                self.map
                    .retain(|_, (_, entry)| regions.iter().all(|r| entry.survives(r)));
                self.stats.region_evictions += (before - self.map.len()) as u64;
            }
            _ => self.clear(),
        }
    }

    /// The entry under `key` for a caller pinned as in [`pin`](Self::pin),
    /// refreshing its LRU tick. Counts nothing.
    fn get(&mut self, key: &Key, version: u64, total_objects: usize) -> Option<&CachedQuery> {
        if !self.pin(version, total_objects) {
            return None;
        }
        self.tick += 1;
        let (tick, entry) = self.map.get_mut(key)?;
        *tick = self.tick;
        Some(entry)
    }

    /// Memoize `entry` (replacing any entry under `key`), evicting the
    /// least-recently-used entry when full. No-op at capacity 0.
    fn insert(&mut self, key: Key, entry: CachedQuery) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, entry));
    }

    /// Attach a just-evaluated outcome to the entry under `key` (see
    /// [`CachedQuery::record_outcome`]); ignored if the entry is gone.
    fn attach(&mut self, key: &Key, outcome: OutcomeKey, reports: Reports) {
        if let Some((_, entry)) = self.map.get_mut(key) {
            entry.record_outcome(outcome, reports);
        }
    }
}

/// The per-thread L1: one LRU segment memoizing filter output, distance
/// distributions and verification outcomes by quantized query point,
/// plus the process-wide [`SharedVerifyCache`] behind it, when the owning
/// execution surface attached one. See the [module docs](self) for the
/// key design and the correctness argument. Every
/// [`crate::QueryScratch`] owns one, sized by [`crate::PipelineConfig`]'s
/// `cache` field on every query.
///
/// ```
/// use cpnn_core::cache::CacheConfig;
/// use cpnn_core::{pipeline, ObjectId, PipelineConfig, QueryScratch, QuerySpec, Strategy};
/// use cpnn_core::{UncertainDb, UncertainObject};
///
/// let db = UncertainDb::build(vec![UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap()])
///     .unwrap();
/// let cfg = PipelineConfig {
///     cache: CacheConfig::new(2, 0.0),
///     ..Default::default()
/// };
/// let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
/// let mut scratch = QueryScratch::new();
/// pipeline::cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap(); // miss
/// pipeline::cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap(); // hit
///
/// // A snapshot-version change invalidates everything.
/// scratch.set_snapshot_version(1);
/// pipeline::cpnn_with(&db, &0.0, &spec, &cfg, &mut scratch).unwrap(); // miss
/// let stats = scratch.cache_stats();
/// assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 2, 1));
/// ```
#[derive(Debug, Default)]
pub struct VerifyCache {
    local: Segment,
    shared: Option<Arc<SharedVerifyCache>>,
}

impl VerifyCache {
    /// Follow `config`: a changed capacity rebuilds the local segment
    /// empty; its pins and counters carry over.
    pub(crate) fn configure(&mut self, config: &CacheConfig) {
        if self.local.capacity != config.capacity {
            self.local.capacity = config.capacity;
            self.local.map = HashMap::new();
        }
    }

    /// Does the current configuration cache anything?
    pub(crate) fn is_enabled(&self) -> bool {
        self.local.capacity > 0
    }

    /// Consult `tier` on local misses and publish fresh fills into it.
    pub(crate) fn attach_shared(&mut self, tier: Arc<SharedVerifyCache>) {
        self.shared = Some(tier);
    }

    /// Move to snapshot `version` (see `Segment::advance`: only entries
    /// the update `regions` can reach drop; `None` clears).
    pub(crate) fn advance_version(&mut self, version: u64, regions: Option<&[Extent]>) {
        self.local.advance(version, regions);
    }

    /// Cumulative counters (not reset by invalidation or reconfiguration).
    pub(crate) fn stats(&self) -> CacheStats {
        self.local.stats
    }

    /// Two-tier lookup: the local segment, then the shared tier, whose
    /// hit is installed locally so repeats on this thread stay lock-free.
    /// Counts the query exactly once — a hit, a shared hit or a miss —
    /// plus an outcome hit when the entry already holds the probe's band.
    pub(crate) fn lookup(&mut self, probe: &Probe) -> Option<Hit> {
        let (key, version, total) = (probe.key, self.local.version, probe.total_objects);
        let local = self.local.get(&key, version, total);
        let hit = if let Some(hit) = local.map(|entry| entry.hit(&probe.outcome)) {
            self.local.stats.hits += 1;
            hit
        } else if let Some(entry) = self
            .shared
            .as_ref()
            .and_then(|t| t.lookup(key, version, total))
        {
            let hit = entry.hit(&probe.outcome);
            self.local.insert(key, entry);
            self.local.stats.shared_hits += 1;
            hit
        } else {
            self.local.stats.misses += 1;
            return None;
        };
        if hit.reports.is_some() {
            self.local.stats.outcome_hits += 1;
        }
        Some(hit)
    }

    /// Memoize a fresh fill — the candidates filtered at the probe's
    /// point (with coordinates `coords`) and the reports of its band:
    /// insert locally and publish upward (second-sight admission applies
    /// in the shared tier).
    pub(crate) fn fill(
        &mut self,
        probe: &Probe,
        cands: Arc<CandidateSet>,
        coords: Option<Vec<f64>>,
        reports: Reports,
    ) {
        let mut entry = CachedQuery::new(cands, coords, probe.key.k);
        entry.record_outcome(probe.outcome, reports);
        if let Some(tier) = &self.shared {
            tier.publish(
                probe.key,
                self.local.version,
                probe.total_objects,
                entry.clone(),
            );
        }
        self.local.insert(probe.key, entry);
    }

    /// Memoize the reports of a band evaluated on a cached entry, on the
    /// local entry and on the shared copy, wherever they still exist.
    pub(crate) fn record_outcome(&mut self, probe: &Probe, reports: Reports) {
        if let Some(tier) = &self.shared {
            tier.attach(probe, self.local.version, Arc::clone(&reports));
        }
        self.local.attach(&probe.key, probe.outcome, reports);
    }
}

/// Tuning for the process-wide [`SharedVerifyCache`] tier. Lives inside
/// [`crate::PipelineConfig`] next to the per-thread `cache` knob; the
/// tier only exists when **both** are enabled
/// ([`SharedVerifyCache::for_config`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheConfig {
    /// Total memoized query points across all segments; `0` disables the
    /// tier entirely (the default).
    pub(crate) capacity: usize,
}

impl SharedCacheConfig {
    /// A shared tier of `capacity` entries.
    ///
    /// ```
    /// use cpnn_core::cache::SharedCacheConfig;
    /// let cfg = SharedCacheConfig::new(1024);
    /// assert!(cfg.is_enabled());
    /// assert!(!SharedCacheConfig::disabled().is_enabled());
    /// ```
    pub fn new(capacity: usize) -> Self {
        Self { capacity }
    }

    /// The no-tier configuration (also the [`Default`]).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Does this configuration share anything at all?
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

/// Upper bound on lock-striped segments; the actual count never exceeds
/// the configured capacity, so tiny tiers do not scatter one entry per
/// lock.
const SHARED_SEGMENTS: usize = 16;

/// Second-sight admission ledger of one shared segment: key → tick of
/// its recorded first sighting.
type Sightings = HashMap<Key, u64>;

/// The process-wide L2 behind every worker's [`VerifyCache`]: lock-striped
/// segments over the same `(snapped point bits, k)` keys, so one worker's
/// miss warms every worker. At `T` serve threads the effective hit rate
/// on hot-spot traffic multiplies instead of dividing by `T` — a repeat
/// query hits no matter which worker the scheduler lands it on.
///
/// Each segment is the same LRU segment a [`VerifyCache`] owns, behind
/// its own mutex, with its own version and object-count pin: every tier
/// operation pins, so a publish racing an
/// [`advance_version`](Self::advance_version) walk either lands before
/// the walk reaches the segment (and is region-checked by it) or carries
/// a stale version and is dropped — no global lock, no stale entry, in
/// either order. The server fans the walk out *before* a new snapshot
/// becomes visible (see `server.rs`), so no worker can be pinned to a
/// version whose segments have not been walked.
///
/// **Second-sight admission** keeps adversarial point churn — a stream
/// of never-repeated points — from thrashing entries that are actually
/// hot: a key's first publish only records a sighting, its next one
/// admits it. The ledger holds keys, never state, so it outlives version
/// advances (a hot spot seen once before an update burst is admitted on
/// its next publish after it) and no answer can depend on it.
///
/// ```
/// use cpnn_core::cache::{CacheConfig, SharedCacheConfig};
/// use cpnn_core::{pipeline, ObjectId, PipelineConfig, QueryScratch, QuerySpec, Strategy};
/// use cpnn_core::{SharedVerifyCache, UncertainDb, UncertainObject};
///
/// let db = UncertainDb::build(vec![UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap()])
///     .unwrap();
/// let cfg = PipelineConfig {
///     cache: CacheConfig::new(8, 0.0),
///     shared_cache: SharedCacheConfig::new(64),
///     ..Default::default()
/// };
/// let tier = SharedVerifyCache::for_config(&cfg, 0).expect("both tiers enabled");
/// let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
/// let mut workers: Vec<QueryScratch> = (0..3).map(|_| QueryScratch::new()).collect();
/// for scratch in &mut workers {
///     scratch.attach_shared(tier.clone());
///     pipeline::cpnn_with(&db, &0.0, &spec, &cfg, scratch).unwrap();
/// }
/// // The first two workers miss (the second sighting admits the entry);
/// // the third is served by the tier.
/// assert_eq!(workers[2].cache_stats().shared_hits, 1);
/// assert_eq!(tier.len(), 1);
/// ```
#[derive(Debug)]
pub struct SharedVerifyCache {
    segments: Vec<Mutex<(Segment, Sightings)>>,
}

impl SharedVerifyCache {
    /// The tier a batch run or server with configuration `cfg` shares
    /// across its workers, starting at snapshot `version` — `None` unless
    /// both the per-thread `cache` and `shared_cache` are enabled (the
    /// shared tier is an L2 behind the local L1). The one place that
    /// decides whether a shared tier exists.
    pub fn for_config(cfg: &PipelineConfig, version: u64) -> Option<Arc<Self>> {
        (cfg.cache.is_enabled() && cfg.shared_cache.is_enabled())
            .then(|| Arc::new(Self::new_at(cfg.shared_cache, version)))
    }

    /// A fresh tier whose segments start pinned at `version` (servers
    /// resuming from a recovered snapshot start their tier at the
    /// recovered version).
    pub fn new_at(config: SharedCacheConfig, version: u64) -> Self {
        let nsegs = SHARED_SEGMENTS.min(config.capacity.max(1));
        let per_segment = config.capacity.div_ceil(nsegs);
        let segments = (0..nsegs)
            .map(|_| Mutex::new((Segment::new(per_segment, version), Sightings::new())))
            .collect();
        Self { segments }
    }

    /// Total entries across all segments (advisory; segments are locked
    /// one at a time).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| lock(s).0.map.len()).sum()
    }

    /// Is the tier empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative counters across all segments (each segment read under
    /// its own lock — totals, not a consistent snapshot).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for segment in &self.segments {
            total.accumulate(&lock(segment).0.stats);
        }
        total
    }

    /// Advance every segment to snapshot `version`, dropping only entries
    /// whose candidate horizon one of the update `regions` intersects —
    /// the same segment walk as the per-thread tier's. `None` regions
    /// (unknown footprint) or a backwards move clears the segment's
    /// entries; the second-sight ledger is kept. The server calls this
    /// under its writer lock *before* the new snapshot becomes visible.
    pub fn advance_version(&self, version: u64, regions: Option<&[Extent]>) {
        for segment in &self.segments {
            lock(segment).0.advance(version, regions);
        }
    }

    /// The segment (and its ledger) that owns `key`.
    fn segment(&self, key: &Key) -> MutexGuard<'_, (Segment, Sightings)> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        lock(&self.segments[(hasher.finish() % self.segments.len() as u64) as usize])
    }

    /// The shared state under `key` for a caller pinned to snapshot
    /// `version` of a database with `total_objects` objects, counting a
    /// hit or a miss.
    fn lookup(&self, key: Key, version: u64, total_objects: usize) -> Option<CachedQuery> {
        let mut guard = self.segment(&key);
        let seg = &mut guard.0;
        let entry = seg.get(&key, version, total_objects).cloned();
        match entry {
            Some(_) => seg.stats.hits += 1,
            None => seg.stats.misses += 1,
        }
        entry
    }

    /// Publish a fresh fill. Dropped under a stale version; a key already
    /// held is replaced; otherwise the first publish of a key only records
    /// a sighting and the next one admits it, evicting the segment's LRU
    /// entry when full.
    fn publish(&self, key: Key, version: u64, total_objects: usize, entry: CachedQuery) {
        let mut guard = self.segment(&key);
        let (seg, seen) = &mut *guard;
        if !seg.pin(version, total_objects) {
            return;
        }
        if seg.map.contains_key(&key) || seen.remove(&key).is_some() {
            seg.insert(key, entry);
            return;
        }
        // Record the sighting; bound the ledger by forgetting the oldest
        // sightings under churn.
        seg.tick += 1;
        if seen.len() >= seg.capacity.saturating_mul(4).max(8) {
            if let Some(oldest) = seen.iter().min_by_key(|(_, t)| **t).map(|(k, _)| *k) {
                seen.remove(&oldest);
            }
        }
        seen.insert(key, seg.tick);
    }

    /// Attach a just-evaluated outcome to the shared copy of the probe's
    /// entry, under the same pin as every other tier operation.
    fn attach(&self, probe: &Probe, version: u64, reports: Reports) {
        let mut guard = self.segment(&probe.key);
        let seg = &mut guard.0;
        if seg.pin(version, probe.total_objects) {
            seg.attach(&probe.key, probe.outcome, reports);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("shared-cache segment poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, UncertainObject};
    use crate::pipeline::{cpnn, cpnn_with, QueryScratch};
    use crate::UncertainDb;

    /// An entry at query point `q` over one object on `[1, 3]`.
    fn entry(q: f64) -> CachedQuery {
        let objects = vec![UncertainObject::uniform(ObjectId(7), 1.0, 3.0).unwrap()];
        let cands = CandidateSet::build(&objects, q, 0).unwrap();
        CachedQuery::new(Arc::new(cands), Some(vec![q]), 1)
    }

    fn key(point: u64) -> Key {
        Key {
            point: point as u128,
            k: 1,
        }
    }

    /// A segment of `capacity` entries pinned to version 0 of a
    /// one-object database.
    fn segment(capacity: usize) -> Segment {
        let mut seg = Segment::new(capacity, 0);
        assert!(seg.pin(0, 1));
        seg
    }

    fn has(seg: &mut Segment, key: Key) -> bool {
        seg.get(&key, seg.version, 1).is_some()
    }

    fn tier(capacity: usize) -> SharedVerifyCache {
        SharedVerifyCache::new_at(SharedCacheConfig::new(capacity), 0)
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
        let mut seg = segment(2);
        seg.insert(key(1), entry(0.0));
        seg.insert(key(2), entry(0.0));
        // Touch 1, then insert 3: 2 is the LRU victim.
        assert!(has(&mut seg, key(1)));
        seg.insert(key(3), entry(0.0));
        assert_eq!(seg.map.len(), 2);
        assert!(has(&mut seg, key(1)));
        assert!(!has(&mut seg, key(2)));
        assert!(has(&mut seg, key(3)));
        // Replacing a held key evicts nothing.
        seg.insert(key(3), entry(0.0));
        assert!(has(&mut seg, key(1)));
    }

    #[test]
    fn k_is_part_of_the_key() {
        let mut seg = segment(4);
        seg.insert(key(1), entry(0.0));
        assert!(seg.get(&Key { point: 1, k: 2 }, 0, 1).is_none());
        assert!(has(&mut seg, key(1)));
    }

    #[test]
    fn version_change_clears_but_counters_survive() {
        let mut seg = segment(4);
        seg.insert(key(1), entry(0.0));
        seg.advance(1, None);
        assert!(seg.map.is_empty());
        assert_eq!(seg.stats.invalidations, 1);
        // Callers still on the old version no longer pin.
        assert!(!seg.pin(0, 1));
        assert!(seg.pin(1, 1));
        // Same version again: no further invalidation; clearing an empty
        // segment on a version move counts nothing.
        seg.advance(1, None);
        seg.advance(2, None);
        assert_eq!(seg.stats.invalidations, 1);
    }

    #[test]
    fn pin_source_invalidates_on_count_change_only() {
        let mut seg = segment(4);
        seg.insert(key(1), entry(0.0));
        // Same count: entries survive.
        assert!(seg.pin(0, 1));
        assert!(has(&mut seg, key(1)));
        // Another version bails without touching anything.
        assert!(!seg.pin(7, 2));
        assert!(seg.get(&key(1), 7, 1).is_none());
        assert!(has(&mut seg, key(1)));
        // Count moved (in-place insert / different database): clear.
        assert!(seg.pin(0, 2));
        assert!(seg.map.is_empty());
        assert_eq!(seg.stats.invalidations, 1);
    }

    #[test]
    fn capacity_zero_never_stores() {
        let mut seg = segment(0);
        seg.insert(key(1), entry(0.0));
        assert!(seg.map.is_empty());
        assert!(!has(&mut seg, key(1)));
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
    fn hit_under_a_new_band_records_a_second_outcome() {
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

    /// The two-tier lookup: a local miss answered by the shared tier is
    /// promoted into the local segment and counted once, as a shared hit.
    #[test]
    fn promote_and_outcome_counters_keep_lookups_consistent() {
        let cfg = PipelineConfig {
            cache: CacheConfig::new(4, 0.0),
            shared_cache: SharedCacheConfig::new(4),
            ..Default::default()
        };
        let tier = SharedVerifyCache::for_config(&cfg, 0).expect("both tiers enabled");
        let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
        let probe = Probe::new(1, &spec, &cfg, 1);
        let mut workers: Vec<VerifyCache> = (0..3)
            .map(|_| {
                let mut cache = VerifyCache::default();
                cache.configure(&cfg.cache);
                cache.attach_shared(Arc::clone(&tier));
                cache
            })
            .collect();
        // Two workers miss and fill: the second fill is the key's second
        // sighting, so the tier admits it (with the band's outcome).
        for w in &mut workers[..2] {
            assert!(w.lookup(&probe).is_none());
            w.fill(&probe, Arc::clone(&entry(0.0).cands), None, Arc::default());
            assert_eq!(w.local.map.len(), 1);
        }
        let third = &mut workers[2];
        assert!(third.lookup(&probe).is_some(), "shared hit");
        assert_eq!(third.local.map.len(), 1, "promoted into the local segment");
        assert!(third.lookup(&probe).is_some(), "local hit");
        let s = third.stats();
        assert_eq!((s.hits, s.shared_hits, s.misses), (1, 1, 0));
        assert_eq!(s.outcome_hits, 2);
        assert_eq!(s.lookups(), 2);
        assert_eq!(s.hit_rate(), 1.0);
        assert_eq!(workers[0].stats().lookups(), 1);
    }

    #[test]
    fn advance_version_drops_only_intersecting_entries() {
        let mut seg = segment(8);
        // Entry at q = 0: horizon = far point of [1, 3] from 0 → 3.
        seg.insert(key(0), entry(0.0));
        // Entry without coordinates: always dropped on region passes.
        let mut bare = entry(50.0);
        bare.coords = None;
        seg.insert(key(50), bare);
        // Far-away update region [100, 101]: mindist from q = 0 is 100 > 3,
        // so the coordinate-bearing entry survives; the bare one drops.
        seg.advance(1, Some(&[Extent::new(vec![100.0], vec![101.0])]));
        assert_eq!(seg.version, 1);
        assert!(has(&mut seg, key(0)));
        assert!(!has(&mut seg, key(50)));
        assert_eq!(seg.stats.region_evictions, 1);
        assert_eq!(seg.stats.invalidations, 0, "no full clear happened");
        // A region inside the horizon (mindist 1 ≤ 3) drops the entry.
        seg.advance(2, Some(&[Extent::new(vec![-2.0], vec![-1.0])]));
        assert!(!has(&mut seg, key(0)));
        assert_eq!(seg.stats.region_evictions, 2);
        // Same version again: no-op. Backwards: full clear.
        seg.insert(key(0), entry(0.0));
        seg.advance(2, Some(&[Extent::new(vec![0.0], vec![1.0])]));
        assert!(has(&mut seg, key(0)));
        seg.advance(0, Some(&[]));
        assert!(seg.map.is_empty());
        assert_eq!(seg.stats.invalidations, 1);
    }

    #[test]
    fn shared_tier_second_sight_admission() {
        let tier = tier(64);
        // First publish only records the sighting.
        tier.publish(key(0), 0, 1, entry(0.0));
        assert!(tier.lookup(key(0), 0, 1).is_none());
        assert!(tier.is_empty());
        // Second publish admits.
        tier.publish(key(0), 0, 1, entry(0.0));
        assert!(tier.lookup(key(0), 0, 1).is_some());
        let s = tier.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    /// Every tier operation goes through the segment pin — `attach` too.
    #[test]
    fn shared_tier_version_and_source_guards() {
        let tier = tier(64);
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
        let probe = Probe::new(0, &spec, &cfg, 1);
        for _ in 0..2 {
            tier.publish(probe.key, 0, 1, entry(0.0));
        }
        // A stale-version publish, lookup or attach never touches current
        // state.
        tier.publish(probe.key, 7, 1, entry(0.0));
        assert!(tier.lookup(probe.key, 7, 1).is_none());
        tier.attach(&probe, 7, Arc::default());
        let held = tier.lookup(probe.key, 0, 1).expect("entry survives");
        assert!(held.outcome(&probe.outcome).is_none());
        // The current version attaches.
        tier.attach(&probe, 0, Arc::default());
        let held = tier.lookup(probe.key, 0, 1).unwrap();
        assert!(held.outcome(&probe.outcome).is_some());
        // A moved object count clears the segment (in-place mutation
        // guard), whichever operation sees it first.
        tier.attach(&Probe::new(0, &spec, &cfg, 2), 0, Arc::default());
        assert!(tier.is_empty());
        assert_eq!(tier.stats().invalidations, 1);
    }

    #[test]
    fn shared_tier_sightings_survive_a_version_advance() {
        let tier = tier(64);
        // Seen once at version 0: deferred.
        tier.publish(key(0), 0, 1, entry(0.0));
        // A far-away update advances the tier without touching the key.
        tier.advance_version(1, Some(&[Extent::new(vec![100.0], vec![101.0])]));
        // Its next publish, at the new version, is its second sighting.
        tier.publish(key(0), 1, 1, entry(0.0));
        assert!(tier.lookup(key(0), 1, 1).is_some());
        assert_eq!(tier.len(), 1);
    }

    #[test]
    fn shared_tier_segmented_lru_eviction_is_bounded() {
        let tier = tier(16);
        assert!(tier.segments.len() <= SHARED_SEGMENTS);
        for _ in 0..2 {
            for i in 0..200u64 {
                tier.publish(key(i), 0, 1, entry(i as f64));
            }
        }
        // Per-segment LRU keeps the total at or under capacity.
        assert!(!tier.is_empty());
        assert!(tier.len() <= 16, "len {} exceeds capacity", tier.len());
    }

    #[test]
    fn shared_tier_advance_version_walks_every_segment() {
        let tier = tier(256);
        // Spread entries across segments; all have horizon 3 around ~0.
        for i in 0..32u64 {
            for _ in 0..2 {
                tier.publish(key(i), 0, 1, entry(i as f64 * 0.001));
            }
        }
        assert_eq!(tier.len(), 32);
        let filled = |tier: &SharedVerifyCache| {
            let segs = tier.segments.iter();
            segs.filter(|s| !lock(s).0.map.is_empty()).count()
        };
        assert!(filled(&tier) > 1, "entries spread over several segments");
        // Far-away region: every entry survives, in every segment.
        tier.advance_version(1, Some(&[Extent::new(vec![100.0], vec![101.0])]));
        assert_eq!(tier.len(), 32);
        assert!(tier.lookup(key(0), 1, 1).is_some());
        assert!(tier.lookup(key(0), 0, 1).is_none(), "old version");
        // Near region: every entry drops, in every segment.
        tier.advance_version(2, Some(&[Extent::new(vec![0.5], vec![1.5])]));
        assert!(tier.is_empty());
        assert_eq!(tier.stats().region_evictions, 32);
        // Unknown footprint clears.
        for _ in 0..2 {
            tier.publish(key(0), 2, 1, entry(0.0));
        }
        assert_eq!(tier.len(), 1);
        tier.advance_version(3, None);
        assert!(tier.is_empty());
    }

    #[test]
    fn cached_query_outcome_memo_is_bounded_and_exact() {
        let mut e = entry(0.0);
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
        assert_eq!(e.outcomes.len(), OUTCOME_CAP);
    }
}
