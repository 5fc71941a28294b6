//! Domain-partitioned sharded storage: [`ShardedDb`] splits an uncertain
//! database into shards along its domain and fans each query out only to
//! the shards that can matter.
//!
//! The paper's filter → verify → refine pipeline partitions cleanly by
//! domain: filtering prunes against a *horizon* (the `k`-th smallest far
//! point, Sec. III / IV-A), so a query only ever needs the shards whose
//! extents intersect that horizon. Concretely:
//!
//! * **partitioning** — objects are assigned to `N` slabs of the
//!   build-time domain along its widest axis (1-D: domain intervals;
//!   2-D: bounding-box tiles), keyed by the center of their uncertainty
//!   region. Slab boundaries come from either scheme of [`ShardBalance`]:
//!   equal-**width** slabs (the default) or equal-**count** quantiles of
//!   the object centers, which keeps shard populations balanced under
//!   clustered data (Long Beach clustering makes the widest equal-width
//!   shard ~2.4× the mean). Each shard is a complete [`ShardableModel`] —
//!   it owns its own objects *and its own R-tree* — so the single-shard
//!   case is literally `shards = 1`, with no second code path.
//! * **fan-out** — [`ShardedDb::overlapping`] selects the shards a query
//!   must visit (a static horizon bound from shard MBRs), and
//!   [`crate::pipeline::fan_out_filter`] merges their survivor sets while
//!   tightening the horizon incrementally. The merged candidates then run
//!   through the *shared* verify/refine flow once — results are provably
//!   identical to unsharded evaluation (see the equivalence argument on
//!   [`fan_out_filter`](crate::pipeline::fan_out_filter) and
//!   `tests/proptest_shard.rs`).
//! * **per-shard path-copying** — every shard sits behind an [`Arc`];
//!   [`CowModel::with_inserted`] / [`CowModel::with_removed`] **path-copy
//!   only the owning shard** (O(log |shard|) via the persistent store —
//!   see [`crate::store`]) and share every other shard `Arc`, which is
//!   what turns [`crate::server::QueryServer`] updates from rebuilds into
//!   structural edits.
//!
//! ```
//! use cpnn_core::{CpnnQuery, ObjectId, ShardedDb, Strategy, UncertainDb, UncertainObject};
//!
//! let objects: Vec<UncertainObject> = (0..100)
//!     .map(|i| UncertainObject::uniform(ObjectId(i), i as f64, i as f64 + 1.5).unwrap())
//!     .collect();
//! let sharded = ShardedDb::<UncertainDb>::build(objects, Default::default(), 4).unwrap();
//! assert_eq!(sharded.num_shards(), 4);
//! let res = sharded
//!     .cpnn(&CpnnQuery::new(10.2, 0.3, 0.01), Strategy::Verified)
//!     .unwrap();
//! assert_eq!(res.answers, vec![ObjectId(9), ObjectId(10)]);
//! ```

use std::sync::Arc;
use std::time::Instant;

use crate::engine::{CpnnQuery, CpnnResult, Strategy};
use crate::error::{CoreError, Result};
use crate::object::ObjectId;
use crate::pipeline::{self, DistanceModel, Filtered, PipelineConfig, QuerySpec};
use crate::store::CowModel;

/// Axis-aligned extent (a minimum bounding box) of a set of objects, in
/// the model's native dimension — the only geometry sharding needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Extent {
    /// Per-axis minima.
    pub lo: Vec<f64>,
    /// Per-axis maxima.
    pub hi: Vec<f64>,
}

impl Extent {
    /// An extent from per-axis bounds (`lo.len()` = dimension).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        debug_assert_eq!(lo.len(), hi.len());
        Self { lo, hi }
    }

    /// Dimension count.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// The smallest extent covering both `self` and `other`.
    pub(crate) fn union(mut self, other: &Extent) -> Extent {
        for a in 0..self.lo.len() {
            self.lo[a] = self.lo[a].min(other.lo[a]);
            self.hi[a] = self.hi[a].max(other.hi[a]);
        }
        self
    }

    /// Midpoint along `axis` (the partitioning key).
    pub fn center(&self, axis: usize) -> f64 {
        0.5 * (self.lo[axis] + self.hi[axis])
    }

    /// Euclidean distance from `p` to the nearest point of the extent
    /// (0 when `p` is inside) — a lower bound on the near distance of
    /// every object the extent covers.
    pub fn mindist<P: ShardPoint>(&self, p: &P) -> f64 {
        (0..self.lo.len())
            .map(|a| {
                let c = p.coord(a);
                let d = (self.lo[a] - c).max(c - self.hi[a]).max(0.0);
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Euclidean distance from `p` to the farthest point of the extent —
    /// an upper bound on the far distance of every object it covers.
    pub(crate) fn maxdist<P: ShardPoint>(&self, p: &P) -> f64 {
        (0..self.lo.len())
            .map(|a| {
                let c = p.coord(a);
                let d = (c - self.lo[a]).abs().max((self.hi[a] - c).abs());
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }
}

/// Query-point types that can measure distances to an axis-aligned
/// [`Extent`]. Implemented for the pipeline's query points (`f64`,
/// `[f64; 2]`); sharding needs nothing else from the geometry — the
/// extent itself knows its dimension.
pub trait ShardPoint: Copy {
    /// The `axis`-th coordinate.
    fn coord(&self, axis: usize) -> f64;
}

impl ShardPoint for f64 {
    fn coord(&self, _axis: usize) -> f64 {
        *self
    }
}

impl ShardPoint for [f64; 2] {
    fn coord(&self, axis: usize) -> f64 {
        self[axis]
    }
}

/// Dimension-erased coordinates (the verification cache stores query
/// points this way for incremental invalidation).
impl ShardPoint for &[f64] {
    fn coord(&self, axis: usize) -> f64 {
        self[axis]
    }
}

/// How slab boundaries along the partitioning axis are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBalance {
    /// Equal-width slabs of the build-time domain (the original scheme).
    /// Simple and stable, but clustered data skews shard populations.
    #[default]
    Width,
    /// Equal-count slabs: boundaries at the quantiles of the object
    /// centers along the partitioning axis, so every shard starts with
    /// (nearly) the same number of objects regardless of clustering.
    Quantile,
}

impl ShardBalance {
    /// Parse a CLI name (`width` | `quantile`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "width" => Some(Self::Width),
            "quantile" => Some(Self::Quantile),
            _ => None,
        }
    }
}

/// A [`DistanceModel`] that a [`ShardedDb`] can partition by domain: a
/// [`CowModel`] (copy-on-write successors, id membership, per-object
/// extents) that additionally exposes its stored objects and can rebuild
/// itself over any subset (each shard is one such build, with its own
/// index).
///
/// Implementations: [`crate::engine::UncertainDb`] (1-D intervals) and
/// [`crate::engine2d::UncertainDb2d`] (2-D bounding boxes).
pub trait ShardableModel: DistanceModel + CowModel {
    /// Tuning configuration, shared by every shard.
    type Config: Clone;

    /// The model's configuration (propagated to each shard on build).
    fn shard_config(&self) -> Self::Config;
    /// A copy of the stored objects (used for shard builds/re-shards).
    fn shard_objects(&self) -> Vec<Self::Object>;
    /// Build one shard — a complete model with its own index — over
    /// `objects`.
    fn build_shard(objects: Vec<Self::Object>, config: &Self::Config) -> Result<Self>;
    /// The exact extent of the stored objects (`None` when empty) — kept
    /// current by the persistent index across updates, so shard routing
    /// never works from stale bounds.
    fn model_extent(&self) -> Option<Extent>;
    /// The pipeline-level slice of the model's configuration.
    fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig::default()
    }
}

/// A domain-partitioned database of uncertain objects: `N` shards, each a
/// complete [`ShardableModel`] behind an [`Arc`]. See the [module
/// docs](self) for the partitioning schemes, fan-out, and per-shard
/// path-copying semantics.
#[derive(Debug)]
pub struct ShardedDb<M: ShardableModel> {
    shards: Vec<Arc<M>>,
    /// Partitioning axis: the widest axis of the build-time domain.
    axis: usize,
    /// `shards.len() + 1` ascending slab boundaries along `axis`; inserts
    /// route by region center, clamped into the outer slabs.
    bounds: Vec<f64>,
    config: M::Config,
}

/// Cheap: clones the per-shard [`Arc`]s, not the shards.
impl<M: ShardableModel> Clone for ShardedDb<M> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.clone(),
            axis: self.axis,
            bounds: self.bounds.clone(),
            config: self.config.clone(),
        }
    }
}

impl<M: ShardableModel> ShardedDb<M> {
    /// Partition `objects` into `shards` equal-width domain slabs and
    /// build one model per slab. `shards = 0` is treated as 1; fails on
    /// duplicate object ids (checked across the whole database).
    pub fn build(objects: Vec<M::Object>, config: M::Config, shards: usize) -> Result<Self> {
        Self::build_with(objects, config, shards, ShardBalance::Width)
    }

    /// Partition with an explicit balancing scheme (see [`ShardBalance`]).
    pub fn build_with(
        objects: Vec<M::Object>,
        config: M::Config,
        shards: usize,
        balance: ShardBalance,
    ) -> Result<Self> {
        let n = shards.max(1);
        let mut ids: Vec<u64> = objects.iter().map(|o| M::object_id(o).0).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(CoreError::DuplicateObjectId(w[0]));
        }
        // Widest axis of the global extent is the partitioning axis.
        let global = objects
            .iter()
            .map(M::object_extent)
            .reduce(|a, b| a.union(&b));
        let (axis, lo, hi) = match &global {
            Some(e) => {
                let axis = (0..e.dims())
                    .max_by(|&a, &b| (e.hi[a] - e.lo[a]).total_cmp(&(e.hi[b] - e.lo[b])))
                    .unwrap_or(0);
                (axis, e.lo[axis], e.hi[axis])
            }
            None => (0, 0.0, 0.0),
        };
        let bounds = match balance {
            ShardBalance::Width => {
                let width = (hi - lo).max(0.0);
                (0..=n)
                    .map(|i| {
                        if i == n {
                            hi
                        } else {
                            lo + width * i as f64 / n as f64
                        }
                    })
                    .collect()
            }
            ShardBalance::Quantile => {
                // Interior boundaries at the object-center quantiles: slab
                // i holds (roughly) centers of rank [i·|T|/N, (i+1)·|T|/N).
                let mut centers: Vec<f64> = objects
                    .iter()
                    .map(|o| M::object_extent(o).center(axis))
                    .collect();
                centers.sort_by(f64::total_cmp);
                let mut bounds = Vec::with_capacity(n + 1);
                bounds.push(lo);
                for i in 1..n {
                    let rank = (i * centers.len()) / n;
                    bounds.push(centers.get(rank).copied().unwrap_or(hi));
                }
                bounds.push(hi);
                // Quantiles of clustered data can repeat; keep the
                // boundary list non-decreasing so slab routing stays a
                // partition point (duplicate boundaries yield empty slabs,
                // which the fan-out skips for free).
                for i in 1..bounds.len() {
                    if bounds[i] < bounds[i - 1] {
                        bounds[i] = bounds[i - 1];
                    }
                }
                bounds
            }
        };
        let mut buckets: Vec<Vec<M::Object>> = (0..n).map(|_| Vec::new()).collect();
        for o in objects {
            let slab = slab_of(&bounds, M::object_extent(&o).center(axis));
            buckets[slab].push(o);
        }
        let shards = buckets
            .into_iter()
            .map(|b| M::build_shard(b, &config).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            axis,
            bounds,
            config,
        })
    }

    /// Re-shard an existing model's objects into `shards` equal-width
    /// slabs, keeping its configuration. `shards = 1` wraps the same
    /// contents in a single shard.
    pub fn from_model(model: &M, shards: usize) -> Result<Self> {
        Self::build(model.shard_objects(), model.shard_config(), shards)
    }

    /// Number of shards (always at least 1; empty shards are kept so slab
    /// routing stays stable).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Objects stored per shard, in slab order.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.total_objects()).collect()
    }

    /// Total objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.total_objects()).sum()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard models, in slab order.
    pub fn shard_model(&self, shard: usize) -> &M {
        &self.shards[shard]
    }

    /// The pipeline configuration the shards evaluate under.
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.shards[0].pipeline_config()
    }

    /// The partitioning axis (the widest axis of the build-time domain).
    pub fn partition_axis(&self) -> usize {
        self.axis
    }

    /// The ascending slab boundaries along the partition axis
    /// (`num_shards() + 1` values).
    pub fn slab_bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The configuration every shard was built with.
    pub fn shard_configuration(&self) -> &M::Config {
        &self.config
    }

    /// Reassemble a sharded database from persisted parts: the partition
    /// `axis`, the slab boundary list (`buckets.len() + 1` finite,
    /// non-decreasing values), and each slab's objects in slab order.
    ///
    /// This is the recovery entry point ([`crate::persist`] /
    /// [`crate::FileBackend::recover`]): the persisted boundaries are adopted **as
    /// is**, rather than re-derived from the recovered objects, so slab
    /// routing after recovery is bit-identical to the pre-crash database
    /// even when serve-lane churn has drifted the contents away from the
    /// build-time distribution.
    pub fn from_parts(
        axis: usize,
        bounds: Vec<f64>,
        buckets: Vec<Vec<M::Object>>,
        config: M::Config,
    ) -> Result<Self> {
        if buckets.is_empty() || bounds.len() != buckets.len() + 1 {
            return Err(CoreError::Storage(format!(
                "malformed shard layout: {} boundaries for {} shards",
                bounds.len(),
                buckets.len()
            )));
        }
        if axis > 8 {
            return Err(CoreError::Storage(format!(
                "malformed shard layout: implausible partition axis {axis}"
            )));
        }
        if bounds.iter().any(|b| !b.is_finite()) || bounds.windows(2).any(|w| w[1] < w[0]) {
            return Err(CoreError::Storage(
                "malformed shard layout: slab boundaries not finite and non-decreasing".into(),
            ));
        }
        let mut ids: Vec<u64> = buckets
            .iter()
            .flatten()
            .map(|o| M::object_id(o).0)
            .collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(CoreError::DuplicateObjectId(w[0]));
        }
        let shards = buckets
            .into_iter()
            .map(|b| M::build_shard(b, &config).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            axis,
            bounds,
            config,
        })
    }

    /// Which slab an object with partition-key `center` belongs to.
    fn route(&self, object: &M::Object) -> usize {
        slab_of(&self.bounds, M::object_extent(object).center(self.axis))
    }

    /// Insert an object in place, path-copying only the owning shard (the
    /// other shard `Arc`s are untouched; clones of this handle keep the
    /// old snapshot). Fails on a duplicate id anywhere in the database.
    pub fn insert(&mut self, object: M::Object) -> Result<()> {
        let id = M::object_id(&object);
        if self.shards.iter().any(|s| s.contains_id(id)) {
            return Err(CoreError::DuplicateObjectId(id.0));
        }
        let target = self.route(&object);
        self.shards[target] = Arc::new(self.shards[target].with_inserted(object)?);
        Ok(())
    }

    /// Remove an object by id in place, path-copying only the shard that
    /// stored it. Returns the removed object, or `None` if the id was
    /// absent.
    pub fn remove(&mut self, id: ObjectId) -> Option<M::Object> {
        let shard = self.shards.iter().position(|s| s.contains_id(id))?;
        let (next, removed) = self.shards[shard].with_removed(id);
        self.shards[shard] = Arc::new(next);
        removed
    }

    /// The shards a query must visit, as `(mindist, shard)` pairs sorted
    /// ascending by distance bound (ties by shard index).
    ///
    /// Selection is a static horizon argument: sort shards by
    /// `maxdist(q, MBR)`; once the visited shards hold at least `k`
    /// objects, that maxdist `H₀` upper-bounds the true candidate horizon
    /// (those `k` objects all have far points within `H₀`), so any shard
    /// with `mindist > H₀` cannot contribute a candidate.
    /// [`pipeline::fan_out_filter`] tightens further per shard.
    pub fn overlapping(&self, q: &M::Query, k: usize) -> Vec<(f64, usize)>
    where
        M::Query: ShardPoint,
    {
        let summaries: Vec<(Option<Extent>, usize)> = self
            .shards
            .iter()
            .map(|s| (s.model_extent(), s.total_objects()))
            .collect();
        select_overlapping(&summaries, q, k)
    }
}

/// Shard selection over `(extent, object count)` summaries — the shared
/// core of [`ShardedDb::overlapping`] and the socket router's fan-out
/// pruning (`cpnn-router`), which runs the **same algorithm** over
/// summaries reported by remote shard processes so that routed and local
/// queries visit identical shard sets in an identical order.
///
/// `shards[i]` describes shard `i`: its exact extent (`None` when empty —
/// empty shards are never selected) and its object count. Returns the
/// `(mindist, shard index)` pairs a `k`-NN query at `q` must visit,
/// sorted ascending by distance bound (ties by shard index). See
/// [`ShardedDb::overlapping`] for the horizon argument.
pub fn select_overlapping<P: ShardPoint>(
    shards: &[(Option<Extent>, usize)],
    q: &P,
    k: usize,
) -> Vec<(f64, usize)> {
    let k = k.max(1);
    // (mindist, maxdist, object count, shard index) per non-empty shard.
    let info: Vec<(f64, f64, usize, usize)> = shards
        .iter()
        .enumerate()
        .filter_map(|(i, (extent, count))| {
            extent
                .as_ref()
                .map(|e| (e.mindist(q), e.maxdist(q), *count, i))
        })
        .collect();
    let mut by_far: Vec<(f64, usize)> = info.iter().map(|&(_, far, c, _)| (far, c)).collect();
    by_far.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut h0 = f64::INFINITY;
    let mut seen = 0usize;
    for (far, count) in by_far {
        seen += count;
        if seen >= k {
            h0 = far;
            break;
        }
    }
    let mut selected: Vec<(f64, usize)> = info
        .into_iter()
        .filter(|&(near, _, _, _)| near <= h0)
        .map(|(near, _, _, i)| (near, i))
        .collect();
    selected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    selected
}

/// Copy-on-write successors touching only the owning shard: the
/// [`CowModel`] seam over a sharded database — what
/// [`crate::server::QueryServer::insert`]/[`remove`](crate::server::QueryServer::remove)
/// and the write-coalescing lane swap in.
impl<M: ShardableModel> CowModel for ShardedDb<M> {
    type Object = M::Object;

    fn object_id(object: &M::Object) -> ObjectId {
        M::object_id(object)
    }

    fn object_extent(object: &M::Object) -> Extent {
        M::object_extent(object)
    }

    fn contains_id(&self, id: ObjectId) -> bool {
        self.shards.iter().any(|s| s.contains_id(id))
    }

    /// A new `ShardedDb` sharing every untouched shard `Arc`, with only
    /// the owning shard path-copied.
    fn with_inserted(&self, object: M::Object) -> Result<Self> {
        let mut next = self.clone();
        next.insert(object)?;
        Ok(next)
    }

    /// As [`with_inserted`](Self::with_inserted); removing an absent id
    /// returns an unchanged (but distinct) database, mirroring
    /// [`crate::server::QueryServer::remove`]'s swap semantics.
    fn with_removed(&self, id: ObjectId) -> (Self, Option<M::Object>) {
        let mut next = self.clone();
        let removed = next.remove(id);
        (next, removed)
    }
}

impl<M> DistanceModel for ShardedDb<M>
where
    M: ShardableModel,
    M::Query: ShardPoint,
{
    type Query = M::Query;

    fn total_objects(&self) -> usize {
        self.len()
    }

    fn check_query(&self, q: &M::Query) -> Result<()> {
        self.shards[0].check_query(q)
    }

    /// The fan-out step: select overlapping shards, filter each through
    /// its own index, and merge the survivors
    /// ([`pipeline::fan_out_filter`]). The merged set feeds the shared
    /// verify/refine flow exactly once.
    fn filter(&self, q: &M::Query, k: usize) -> Result<Filtered> {
        let start = Instant::now();
        let selected = self.overlapping(q, k);
        let select_time = start.elapsed();
        let mut filtered = pipeline::fan_out_filter(
            selected
                .iter()
                .map(|&(d, i)| (d, move || self.shards[i].filter(q, k))),
            k,
        )?;
        filtered.filter_time += select_time;
        Ok(filtered)
    }

    /// Sharding is invisible to the verification cache: snap and key
    /// exactly as the shard model does (equal keys ⇒ equal merged filter
    /// output, by the fan-out equivalence).
    fn quantize_query(&self, q: &M::Query, quantum: f64) -> M::Query {
        self.shards[0].quantize_query(q, quantum)
    }

    fn cache_key(&self, q: &M::Query) -> Option<u128> {
        self.shards[0].cache_key(q)
    }

    fn query_coords(&self, q: &M::Query) -> Option<Vec<f64>> {
        self.shards[0].query_coords(q)
    }
}

/// Convenience query surface mirroring [`crate::engine::UncertainDb`]
/// for 1-D-queried shard models.
impl<M> ShardedDb<M>
where
    M: ShardableModel<Query = f64>,
{
    /// Execute a C-PNN query through the unified pipeline (fan-out filter,
    /// shared verify → refine).
    pub fn cpnn(&self, query: &CpnnQuery, strategy: Strategy) -> Result<CpnnResult> {
        pipeline::cpnn(
            self,
            &query.q,
            &QuerySpec::nn(query.threshold, query.tolerance, strategy),
            &self.pipeline_config(),
        )
    }
}

/// Index of the slab whose `[bounds[i], bounds[i+1])` interval holds
/// `center`, clamped into `[0, n)` — the routing key shared by
/// [`ShardedDb`] inserts and the socket router (`cpnn-router`), which
/// must route an insert to the same shard process the in-process
/// database would have path-copied.
pub fn slab_of(bounds: &[f64], center: f64) -> usize {
    let n = bounds.len() - 1;
    let i = bounds.partition_point(|b| *b <= center);
    i.saturating_sub(1).min(n.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::UncertainDb;
    use crate::engine2d::{Object2d, UncertainDb2d};
    use crate::object::UncertainObject;

    fn objects(n: u64) -> Vec<UncertainObject> {
        (0..n)
            .map(|i| {
                let lo = (i as f64 * 7.3) % 100.0;
                UncertainObject::uniform(ObjectId(i), lo, lo + 3.0 + (i % 5) as f64).unwrap()
            })
            .collect()
    }

    /// Bit-for-bit equivalence: answers plus every report (id, label, and
    /// probability bounds — `ObjectReport` derives `PartialEq`).
    fn assert_equivalent(a: &CpnnResult, b: &CpnnResult, ctx: &str) {
        assert_eq!(a.answers, b.answers, "{ctx}");
        assert_eq!(a.reports, b.reports, "{ctx}");
    }

    #[test]
    fn partition_covers_every_object_exactly_once() {
        let objs = objects(50);
        let db = ShardedDb::<UncertainDb>::build(objs.clone(), Default::default(), 4).unwrap();
        assert_eq!(db.num_shards(), 4);
        assert_eq!(db.len(), 50);
        assert_eq!(db.shard_sizes().iter().sum::<usize>(), 50);
        let mut seen: Vec<u64> = (0..db.num_shards())
            .flat_map(|s| {
                db.shard_model(s)
                    .objects()
                    .iter()
                    .map(|o| o.id().0)
                    .collect::<Vec<_>>()
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn sharded_matches_unsharded_1d() {
        let objs = objects(60);
        let flat = UncertainDb::build(objs.clone()).unwrap();
        for shards in [1, 2, 3, 8] {
            let sharded =
                ShardedDb::<UncertainDb>::build(objs.clone(), Default::default(), shards).unwrap();
            for q in [-5.0, 0.0, 13.7, 50.2, 99.0, 140.0] {
                let query = CpnnQuery::new(q, 0.3, 0.01);
                let a = flat.cpnn(&query, Strategy::Verified).unwrap();
                let b = sharded.cpnn(&query, Strategy::Verified).unwrap();
                assert_equivalent(&a, &b, &format!("q = {q}, {shards} shards"));
            }
        }
    }

    #[test]
    fn quantile_sharding_matches_unsharded_too() {
        let objs = objects(60);
        let flat = UncertainDb::build(objs.clone()).unwrap();
        for shards in [2, 5] {
            let sharded = ShardedDb::<UncertainDb>::build_with(
                objs.clone(),
                Default::default(),
                shards,
                ShardBalance::Quantile,
            )
            .unwrap();
            for q in [-5.0, 13.7, 50.2, 140.0] {
                let query = CpnnQuery::new(q, 0.3, 0.01);
                let a = flat.cpnn(&query, Strategy::Verified).unwrap();
                let b = sharded.cpnn(&query, Strategy::Verified).unwrap();
                assert_equivalent(&a, &b, &format!("q = {q}, {shards} quantile shards"));
            }
        }
    }

    #[test]
    fn quantile_sharding_balances_clustered_data() {
        // Heavy cluster near 0, sparse tail: equal-width slabs dump almost
        // everything into shard 0; quantile slabs stay balanced.
        let objs: Vec<UncertainObject> = (0..120)
            .map(|i| {
                let lo = if i < 100 {
                    (i as f64) * 0.01 // dense cluster in [0, 1]
                } else {
                    (i - 99) as f64 * 50.0 // sparse tail out to 1000+
                };
                UncertainObject::uniform(ObjectId(i), lo, lo + 0.5).unwrap()
            })
            .collect();
        let width = ShardedDb::<UncertainDb>::build(objs.clone(), Default::default(), 4).unwrap();
        let quant = ShardedDb::<UncertainDb>::build_with(
            objs,
            Default::default(),
            4,
            ShardBalance::Quantile,
        )
        .unwrap();
        let wmax = *width.shard_sizes().iter().max().unwrap();
        let qmax = *quant.shard_sizes().iter().max().unwrap();
        let mean = 120.0 / 4.0;
        assert!(
            wmax as f64 > 2.0 * mean,
            "width slabs should be skewed here, max {wmax}"
        );
        assert!(
            (qmax as f64) < 1.5 * mean,
            "quantile slabs should be balanced, max {qmax} (sizes {:?})",
            quant.shard_sizes()
        );
        assert_eq!(quant.len(), 120);
    }

    #[test]
    fn sharded_matches_unsharded_knn() {
        let objs = objects(40);
        let flat = UncertainDb::build(objs.clone()).unwrap();
        for shards in [2, 5] {
            let sharded =
                ShardedDb::<UncertainDb>::build(objs.clone(), Default::default(), shards).unwrap();
            for q in [0.0, 31.4, 77.7] {
                for k in [2, 3] {
                    let a = flat.cknn(q, k, 0.4, 0.0).unwrap();
                    let b = pipeline::cpnn(
                        &sharded,
                        &q,
                        &QuerySpec::knn(k, 0.4, 0.0, Strategy::Verified),
                        &sharded.pipeline_config(),
                    )
                    .unwrap();
                    assert_equivalent(&a, &b, &format!("q = {q}, k = {k}, {shards} shards"));
                }
            }
        }
    }

    #[test]
    fn sharded_matches_unsharded_2d() {
        let objs: Vec<Object2d> = (0..30)
            .map(|i| {
                let x = (i as f64 * 11.3) % 80.0;
                let y = (i as f64 * 5.7) % 60.0;
                if i % 3 == 0 {
                    Object2d::rectangle(ObjectId(i), [x, y], [x + 2.0, y + 3.0]).unwrap()
                } else {
                    Object2d::circle(ObjectId(i), [x, y], 1.0 + (i % 4) as f64 * 0.5).unwrap()
                }
            })
            .collect();
        let flat = UncertainDb2d::build(objs.clone()).unwrap();
        for shards in [1, 3, 8] {
            let sharded = ShardedDb::<UncertainDb2d>::build(objs.clone(), (), shards).unwrap();
            for q in [[0.0, 0.0], [40.0, 30.0], [79.0, 59.0]] {
                let a = pipeline::cpnn(
                    &flat,
                    &q,
                    &QuerySpec::nn(0.3, 0.01, Strategy::Verified),
                    &PipelineConfig::default(),
                )
                .unwrap();
                let b = pipeline::cpnn(
                    &sharded,
                    &q,
                    &QuerySpec::nn(0.3, 0.01, Strategy::Verified),
                    &PipelineConfig::default(),
                )
                .unwrap();
                assert_equivalent(&a, &b, &format!("q = {q:?}, {shards} shards"));
            }
        }
    }

    #[test]
    fn duplicate_ids_rejected_across_shards() {
        let mut objs = objects(10);
        objs.push(UncertainObject::uniform(ObjectId(3), 0.0, 1.0).unwrap());
        assert!(matches!(
            ShardedDb::<UncertainDb>::build(objs, Default::default(), 4),
            Err(CoreError::DuplicateObjectId(3))
        ));
    }

    #[test]
    fn insert_path_copies_only_the_owning_shard() {
        let mut db = ShardedDb::<UncertainDb>::build(objects(40), Default::default(), 4).unwrap();
        let before: Vec<*const UncertainDb> =
            (0..4).map(|s| db.shard_model(s) as *const _).collect();
        db.insert(UncertainObject::uniform(ObjectId(1000), 1.0, 2.0).unwrap())
            .unwrap();
        let after: Vec<*const UncertainDb> =
            (0..4).map(|s| db.shard_model(s) as *const _).collect();
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1, "exactly one shard replaced");
        assert_eq!(db.len(), 41);
        // The inserted object is findable.
        let res = pipeline::pnn(&db, &1.5, 1).unwrap();
        assert_eq!(res.probabilities[0].0, ObjectId(1000));
    }

    #[test]
    fn cow_insert_shares_untouched_shards() {
        let db = ShardedDb::<UncertainDb>::build(objects(40), Default::default(), 4).unwrap();
        let next = db
            .with_inserted(UncertainObject::uniform(ObjectId(1000), 1.0, 2.0).unwrap())
            .unwrap();
        let shared = (0..4)
            .filter(|&s| std::ptr::eq(db.shard_model(s), next.shard_model(s)))
            .count();
        assert_eq!(shared, 3, "three of four shard Arcs shared");
        assert_eq!(db.len(), 40, "original untouched");
        assert_eq!(next.len(), 41);
    }

    #[test]
    fn insert_duplicate_id_rejected() {
        let mut db = ShardedDb::<UncertainDb>::build(objects(10), Default::default(), 3).unwrap();
        assert!(matches!(
            db.insert(UncertainObject::uniform(ObjectId(4), 0.0, 1.0).unwrap()),
            Err(CoreError::DuplicateObjectId(4))
        ));
    }

    #[test]
    fn remove_roundtrip_restores_results() {
        let objs = objects(30);
        let mut db = ShardedDb::<UncertainDb>::build(objs.clone(), Default::default(), 3).unwrap();
        db.insert(UncertainObject::uniform(ObjectId(500), 10.0, 10.5).unwrap())
            .unwrap();
        assert!(db.remove(ObjectId(500)).is_some());
        assert!(db.remove(ObjectId(500)).is_none());
        let fresh = ShardedDb::<UncertainDb>::build(objs, Default::default(), 3).unwrap();
        for q in [0.0, 10.2, 55.0] {
            let a = pipeline::pnn(&db, &q, 1).unwrap();
            let b = pipeline::pnn(&fresh, &q, 1).unwrap();
            assert_eq!(a.probabilities.len(), b.probabilities.len());
            for ((ida, pa), (idb, pb)) in a.probabilities.iter().zip(&b.probabilities) {
                assert_eq!(ida, idb);
                assert!((pa - pb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn outlier_inserts_route_to_edge_shards() {
        let mut db = ShardedDb::<UncertainDb>::build(objects(20), Default::default(), 4).unwrap();
        // Far outside the build-time domain on both sides.
        db.insert(UncertainObject::uniform(ObjectId(600), -500.0, -499.0).unwrap())
            .unwrap();
        db.insert(UncertainObject::uniform(ObjectId(601), 900.0, 901.0).unwrap())
            .unwrap();
        assert_eq!(db.len(), 22);
        assert_eq!(
            pipeline::pnn(&db, &-499.5, 1).unwrap().probabilities[0].0,
            ObjectId(600)
        );
        assert_eq!(
            pipeline::pnn(&db, &900.5, 1).unwrap().probabilities[0].0,
            ObjectId(601)
        );
    }

    #[test]
    fn empty_database_still_answers() {
        let db = ShardedDb::<UncertainDb>::build(Vec::new(), Default::default(), 4).unwrap();
        assert!(db.is_empty());
        let res = db
            .cpnn(&CpnnQuery::new(0.0, 0.3, 0.0), Strategy::Verified)
            .unwrap();
        assert!(res.answers.is_empty());
    }

    #[test]
    fn more_shards_than_objects_is_fine() {
        let db = ShardedDb::<UncertainDb>::build(objects(3), Default::default(), 16).unwrap();
        assert_eq!(db.num_shards(), 16);
        let flat = UncertainDb::build(objects(3)).unwrap();
        let a = flat.pnn(5.0).unwrap();
        let b = pipeline::pnn(&db, &5.0, 1).unwrap();
        assert_eq!(a.probabilities.len(), b.probabilities.len());
    }

    #[test]
    fn overlapping_prunes_distant_shards() {
        // 100 tightly clustered objects per decade: a query inside one
        // cluster must not fan out to every shard.
        let objs: Vec<UncertainObject> = (0..100)
            .map(|i| {
                let lo = (i / 10) as f64 * 1000.0 + (i % 10) as f64;
                UncertainObject::uniform(ObjectId(i as u64), lo, lo + 0.5).unwrap()
            })
            .collect();
        let db = ShardedDb::<UncertainDb>::build(objs, Default::default(), 10).unwrap();
        let visited = db.overlapping(&5.0, 1);
        assert!(
            visited.len() < 10,
            "expected pruning, visited {} shards",
            visited.len()
        );
    }

    #[test]
    fn extent_distances_are_consistent() {
        let e = Extent::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        assert_eq!(e.mindist(&[1.0, 1.0]), 0.0);
        assert!((e.maxdist(&[1.0, 1.0]) - 2f64.sqrt()).abs() < 1e-12);
        assert!((e.mindist(&[5.0, 1.0]) - 3.0).abs() < 1e-12);
        let e1 = Extent::new(vec![1.0], vec![3.0]);
        assert_eq!(e1.mindist(&0.0), 1.0);
        assert_eq!(e1.maxdist(&0.0), 3.0);
    }

    #[test]
    fn shard_balance_parses_cli_names() {
        assert_eq!(ShardBalance::parse("width"), Some(ShardBalance::Width));
        assert_eq!(
            ShardBalance::parse("quantile"),
            Some(ShardBalance::Quantile)
        );
        assert_eq!(ShardBalance::parse("zipf"), None);
    }
}
