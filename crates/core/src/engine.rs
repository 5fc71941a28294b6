//! The 1-D uncertain-object database: R-tree filtering over interval
//! uncertainty regions, queried through the unified pipeline of
//! [`crate::pipeline`] (paper Fig. 3: filter → verify → refine).
//!
//! This module owns only the *configuration and query surface*: storage is
//! the shared persistent [`IndexedStore`] (objects live in the
//! path-copying R-tree's leaves, with an id map alongside — see
//! [`crate::store`]), so [`UncertainDb::with_inserted`] /
//! [`UncertainDb::with_removed`] produce copy-on-write snapshots in
//! O(log n) instead of rebuilding. The pipeline control flow (strategy
//! dispatch, verification, refinement, statistics) lives in
//! [`crate::pipeline`] and is shared with the 2-D database and the k-NN
//! extension.

use std::time::Instant;

use cpnn_rtree::{Params, Rect};

use crate::distance::DistanceDistribution;
use crate::error::{CoreError, Result};
use crate::object::{ObjectId, UncertainObject};
use crate::pipeline::{self, DistanceModel, Filtered, PipelineConfig, QuerySpec};
use crate::refine::RefinementOrder;
use crate::shard::{Extent, ShardBalance, ShardableModel, ShardedDb};
use crate::store::{CowModel, IndexedStore, StoredObject};

pub use crate::pipeline::{CpnnQuery, CpnnResult, ObjectReport, PnnResult, QueryStats, Strategy};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Cap on distance-histogram resolution (0 = exact folds). Bounds the
    /// subregion count `M`; see `DistanceDistribution::with_max_bins`.
    pub max_distance_bins: usize,
    /// Subregion visiting order during incremental refinement.
    pub refinement_order: RefinementOrder,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_distance_bins: 64,
            refinement_order: RefinementOrder::DescendingMass,
        }
    }
}

impl EngineConfig {
    /// The pipeline-level slice of this configuration (caching stays at
    /// its disabled default; callers opt in by setting
    /// `PipelineConfig::cache`).
    pub fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            refinement_order: self.refinement_order,
            ..PipelineConfig::default()
        }
    }
}

/// A 1-D interval is stored under its uncertainty region.
impl StoredObject<1> for UncertainObject {
    fn object_id(&self) -> ObjectId {
        self.id()
    }

    fn bounding_rect(&self) -> Rect<1> {
        let (lo, hi) = self.region();
        Rect::interval(lo, hi)
    }
}

/// An in-memory database of 1-D uncertain objects over the shared
/// persistent store (path-copying R-tree + id map — see [`crate::store`]).
/// `Clone` is O(1) and shares all structure until one handle is updated.
#[derive(Debug, Clone)]
pub struct UncertainDb {
    store: IndexedStore<UncertainObject, 1>,
    config: EngineConfig,
}

impl DistanceModel for UncertainDb {
    type Query = f64;

    fn total_objects(&self) -> usize {
        self.store.len()
    }

    fn check_query(&self, q: &f64) -> Result<()> {
        if !q.is_finite() {
            return Err(CoreError::InvalidQueryPoint(*q));
        }
        Ok(())
    }

    fn filter(&self, q: &f64, k: usize) -> Result<Filtered> {
        let start = Instant::now();
        let (cands, _) = self.store.candidates_k(&[*q], k.max(1));
        let filter_time = start.elapsed();
        let mut items = Vec::with_capacity(cands.len());
        for c in cands {
            let o = c.item;
            let dist = DistanceDistribution::from_pdf(o.pdf(), *q)?
                .with_max_bins(self.config.max_distance_bins)?;
            items.push((o.id(), dist));
        }
        Ok(Filtered { items, filter_time })
    }

    fn quantize_query(&self, q: &f64, quantum: f64) -> f64 {
        crate::cache::quantize_coord(*q, quantum)
    }

    fn cache_key(&self, q: &f64) -> Option<u128> {
        Some(crate::cache::point_key_1d(*q))
    }

    fn query_coords(&self, q: &f64) -> Option<Vec<f64>> {
        Some(vec![*q])
    }
}

/// Copy-on-write successors via the persistent store: O(log n) per
/// update, never a rebuild.
impl CowModel for UncertainDb {
    type Object = UncertainObject;

    fn object_id(object: &UncertainObject) -> ObjectId {
        object.id()
    }

    fn object_extent(object: &UncertainObject) -> Extent {
        let (lo, hi) = object.region();
        Extent::new(vec![lo], vec![hi])
    }

    fn contains_id(&self, id: ObjectId) -> bool {
        self.store.contains(id)
    }

    fn with_inserted(&self, object: UncertainObject) -> Result<Self> {
        Ok(Self {
            store: self.store.with_inserted(object)?,
            config: self.config,
        })
    }

    fn with_removed(&self, id: ObjectId) -> (Self, Option<UncertainObject>) {
        let (store, removed) = self.store.with_removed(id);
        (
            Self {
                store,
                config: self.config,
            },
            removed,
        )
    }
}

/// One [`UncertainDb`] is one shard: it owns its objects and its own
/// R-tree, so a [`ShardedDb`] of these partitions the index along with the
/// data. The single-shard case is just `shards = 1`.
impl ShardableModel for UncertainDb {
    type Config = EngineConfig;

    fn shard_config(&self) -> EngineConfig {
        self.config
    }

    fn shard_objects(&self) -> Vec<UncertainObject> {
        self.store.objects()
    }

    fn build_shard(objects: Vec<UncertainObject>, config: &EngineConfig) -> Result<Self> {
        Self::with_config(objects, *config)
    }

    fn model_extent(&self) -> Option<Extent> {
        self.store.extent()
    }

    fn pipeline_config(&self) -> PipelineConfig {
        self.config.pipeline()
    }
}

impl UncertainDb {
    /// Build with default configuration. Fails on duplicate object ids.
    pub fn build(objects: Vec<UncertainObject>) -> Result<Self> {
        Self::with_config(objects, EngineConfig::default())
    }

    /// Structural quality counters of the spatial index (node and leaf
    /// counts, leaf occupancy) — index-health diagnostics for sustained
    /// update workloads.
    pub fn index_stats(&self) -> cpnn_rtree::TreeStats {
        self.store.index().stats()
    }

    /// The spatial index's fan-out parameters (for fill-factor reporting).
    pub fn index_params(&self) -> cpnn_rtree::Params {
        self.store.index().params()
    }

    /// Partition `objects` into a domain-sharded database
    /// ([`ShardedDb`]): each shard owns its own R-tree, queries fan out
    /// only to overlapping shards, and updates path-copy only the owning
    /// shard. `shards = 1` is equivalent to an unsharded build.
    pub fn build_sharded(
        objects: Vec<UncertainObject>,
        shards: usize,
    ) -> Result<ShardedDb<UncertainDb>> {
        ShardedDb::build(objects, EngineConfig::default(), shards)
    }

    /// As [`build_sharded`](Self::build_sharded) with an explicit
    /// partitioning scheme (equal-width slabs or equal-count quantiles —
    /// see [`ShardBalance`]).
    pub fn build_sharded_with(
        objects: Vec<UncertainObject>,
        shards: usize,
        balance: ShardBalance,
    ) -> Result<ShardedDb<UncertainDb>> {
        ShardedDb::build_with(objects, EngineConfig::default(), shards, balance)
    }

    /// Build with explicit configuration.
    pub fn with_config(objects: Vec<UncertainObject>, config: EngineConfig) -> Result<Self> {
        Ok(Self {
            store: IndexedStore::build(objects, Params::default())?,
            config,
        })
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Materialize the stored objects (deterministic order; O(n) — the
    /// query and update paths never call this).
    pub fn objects(&self) -> Vec<UncertainObject> {
        self.store.objects()
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Insert a new object in place (path-copies the root-to-leaf path;
    /// other clones of this handle keep the old snapshot). Fails on a
    /// duplicate id.
    pub fn insert(&mut self, object: UncertainObject) -> Result<()> {
        self.store.insert(object)
    }

    /// Remove an object by id in place, returning it if present
    /// (condense-tree deletion, path-copied).
    pub fn remove(&mut self, id: ObjectId) -> Option<UncertainObject> {
        self.store.remove(id)
    }

    /// The extent of all uncertainty regions `[min, max]`, or `None` if
    /// empty.
    pub fn domain(&self) -> Option<(f64, f64)> {
        self.store.mbr().map(|r| (r.min()[0], r.max()[0]))
    }

    /// Execute a C-PNN query with the given strategy (one trip through the
    /// unified pipeline).
    pub fn cpnn(&self, query: &CpnnQuery, strategy: Strategy) -> Result<CpnnResult> {
        pipeline::cpnn(
            self,
            &query.q,
            &QuerySpec::nn(query.threshold, query.tolerance, strategy),
            &self.config.pipeline(),
        )
    }

    /// Plain PNN: exact qualification probabilities for every candidate
    /// (via the subregion decomposition).
    pub fn pnn(&self, q: f64) -> Result<PnnResult> {
        pipeline::pnn(self, &q, 1)
    }

    /// Exact probabilistic k-NN: for every candidate, the probability of
    /// being among the `k` nearest neighbors of `q` (the paper's future-work
    /// query; see [`crate::knn`]). Probabilities sum to `min(k, |C|)`.
    pub fn pknn(&self, q: f64, k: usize) -> Result<PnnResult> {
        pipeline::pnn(self, &q, k)
    }

    /// Constrained probabilistic k-NN (C-PkNN): objects whose probability
    /// of being among the `k` nearest clears the threshold, evaluated with
    /// the RS-k / SR-k verifiers plus incremental exact refinement.
    pub fn cknn(&self, q: f64, k: usize, threshold: f64, tolerance: f64) -> Result<CpnnResult> {
        pipeline::cpnn(
            self,
            &q,
            &QuerySpec::knn(k, threshold, tolerance, Strategy::Verified),
            &self.config.pipeline(),
        )
    }

    /// Evaluate a batch of C-PNN queries, optionally in parallel.
    ///
    /// The database is immutable and shared by reference across
    /// `threads` worker threads (see [`crate::batch::BatchExecutor`]);
    /// results come back in input order. `threads = 0` or `1` runs
    /// sequentially. Errors surface per query position.
    pub fn cpnn_batch(
        &self,
        queries: &[CpnnQuery],
        strategy: Strategy,
        threads: usize,
    ) -> Vec<Result<CpnnResult>> {
        crate::batch::BatchExecutor::new(threads.max(1))
            .run_cpnn(self, queries, strategy, &self.config.pipeline())
            .results
    }

    /// Minimum query (paper Sec. I): which object has the minimum value? A
    /// PNN with the query point left of every region.
    pub fn pnn_min(&self) -> Result<PnnResult> {
        let (lo, _) = self.domain().unwrap_or((0.0, 0.0));
        self.pnn(lo - 1.0)
    }

    /// Maximum query: which object has the maximum value? A PNN with the
    /// query point right of every region.
    pub fn pnn_max(&self) -> Result<PnnResult> {
        let (_, hi) = self.domain().unwrap_or((0.0, 0.0));
        self.pnn(hi + 1.0)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig2_scenario, fig7_scenario};

    fn fig7_db() -> UncertainDb {
        let (_, objects) = fig7_scenario();
        UncertainDb::build(objects).unwrap()
    }

    #[test]
    fn duplicate_ids_rejected() {
        let objects = vec![
            UncertainObject::uniform(ObjectId(1), 0.0, 1.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 2.0, 3.0).unwrap(),
        ];
        assert!(matches!(
            UncertainDb::build(objects),
            Err(CoreError::DuplicateObjectId(1))
        ));
    }

    #[test]
    fn all_strategies_agree_on_answers() {
        let db = fig7_db();
        for p in [0.05, 0.1, 0.3, 0.45, 0.5, 0.7, 0.9] {
            let query = CpnnQuery::new(0.0, p, 0.0);
            let basic = db.cpnn(&query, Strategy::Basic).unwrap();
            let refine = db.cpnn(&query, Strategy::RefineOnly).unwrap();
            let vr = db.cpnn(&query, Strategy::Verified).unwrap();
            assert_eq!(basic.answers, refine.answers, "P = {p}");
            assert_eq!(basic.answers, vr.answers, "P = {p}");
        }
    }

    #[test]
    fn verified_strategy_reports_stage_progress() {
        let db = fig7_db();
        let query = CpnnQuery::new(0.0, 0.45, 0.0);
        let res = db.cpnn(&query, Strategy::Verified).unwrap();
        assert_eq!(res.stats.stages.len(), 3);
        assert!(!res.stats.resolved_by_verification);
        assert_eq!(res.stats.refined_objects, 2);
        // Exact probabilities: .464 and .485 ≥ .45 → two answers.
        assert_eq!(res.answers.len(), 2);
    }

    #[test]
    fn verification_alone_resolves_high_thresholds() {
        let db = fig7_db();
        let query = CpnnQuery::new(0.0, 0.6, 0.0);
        let res = db.cpnn(&query, Strategy::Verified).unwrap();
        assert!(res.stats.resolved_by_verification);
        assert_eq!(res.stats.refined_objects, 0);
        assert!(res.answers.is_empty());
    }

    #[test]
    fn pnn_returns_descending_probabilities_summing_to_one() {
        let db = fig7_db();
        let res = db.pnn(0.0).unwrap();
        let total: f64 = res.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for w in res.probabilities.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(res.probabilities[0].0, ObjectId(2)); // X2 = .485
    }

    #[test]
    fn fig2_style_scenario_has_sensible_shape() {
        let (objects, q) = fig2_scenario();
        let db = UncertainDb::build(objects).unwrap();
        let res = db.pnn(q).unwrap();
        let by_id = |id: u64| {
            res.probabilities
                .iter()
                .find(|(o, _)| o.0 == id)
                .map(|(_, p)| *p)
                .unwrap_or(0.0)
        };
        // Paper Fig. 2: B = 41%, D = 29%, A = 20%, C = 10%. Our analytic
        // geometry lands at (41.0, 28.9, 18.9, 11.3)%.
        assert!((by_id(1) - 0.41).abs() < 0.01, "B = {}", by_id(1));
        assert!((by_id(3) - 0.29).abs() < 0.01, "D = {}", by_id(3));
        assert!((by_id(0) - 0.20).abs() < 0.02, "A = {}", by_id(0));
        assert!((by_id(2) - 0.10).abs() < 0.02, "C = {}", by_id(2));
        let total: f64 = res.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_and_max_queries_are_pnn_special_cases() {
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 0.0, 2.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap(),
            UncertainObject::uniform(ObjectId(2), 10.0, 11.0).unwrap(),
        ];
        let db = UncertainDb::build(objects).unwrap();
        let min = db.pnn_min().unwrap();
        // Object 2 can never be the minimum.
        assert!(min.probabilities.iter().all(|(id, _)| id.0 != 2));
        assert_eq!(min.probabilities[0].0, ObjectId(0));
        let max = db.pnn_max().unwrap();
        assert_eq!(max.probabilities[0].0, ObjectId(2));
        assert!((max.probabilities[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pknn_sums_to_k_and_k1_matches_pnn() {
        let db = fig7_db();
        let p1 = db.pknn(0.0, 1).unwrap();
        let pnn = db.pnn(0.0).unwrap();
        for ((a, pa), (b, pb)) in p1.probabilities.iter().zip(&pnn.probabilities) {
            assert_eq!(a, b);
            assert!((pa - pb).abs() < 1e-9);
        }
        let p2 = db.pknn(0.0, 2).unwrap();
        let total: f64 = p2.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 2.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn cknn_matches_exact_thresholding() {
        let db = fig7_db();
        let exact = db.pknn(0.0, 2).unwrap();
        for threshold in [0.4, 0.7, 0.95] {
            let res = db.cknn(0.0, 2, threshold, 0.0).unwrap();
            let mut want: Vec<ObjectId> = exact
                .probabilities
                .iter()
                .filter(|(_, p)| *p >= threshold)
                .map(|(id, _)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(res.answers, want, "P = {threshold}");
        }
    }

    #[test]
    fn cknn_keeps_objects_the_1nn_filter_would_prune() {
        // X2's near point (4) exceeds fmin_1 (= 2), so it is not a 1-NN
        // candidate — but it is a 2-NN candidate.
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 2.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 4.0, 6.0).unwrap(),
        ];
        let db = UncertainDb::build(objects).unwrap();
        let p1 = db.pknn(0.0, 1).unwrap();
        assert_eq!(p1.probabilities.len(), 1);
        let p2 = db.pknn(0.0, 2).unwrap();
        assert_eq!(p2.probabilities.len(), 2);
        for (_, p) in &p2.probabilities {
            assert!((p - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tolerance_widens_the_answer_set_monotonically() {
        let db = fig7_db();
        let strict = db
            .cpnn(&CpnnQuery::new(0.0, 0.47, 0.0), Strategy::Verified)
            .unwrap();
        let loose = db
            .cpnn(&CpnnQuery::new(0.0, 0.47, 0.25), Strategy::Verified)
            .unwrap();
        for id in &strict.answers {
            assert!(loose.answers.contains(id));
        }
    }

    #[test]
    fn insert_and_remove_keep_queries_consistent() {
        let (_, objects) = fig7_scenario();
        let mut db = UncertainDb::build(objects.clone()).unwrap();
        // Insert a new dominating object right next to q = 0.
        db.insert(UncertainObject::uniform(ObjectId(99), 0.1, 0.2).unwrap())
            .unwrap();
        assert_eq!(db.len(), 4);
        let res = db.pnn(0.0).unwrap();
        assert_eq!(res.probabilities[0].0, ObjectId(99));
        assert!((res.probabilities[0].1 - 1.0).abs() < 1e-9);
        // Remove it again: results must match a fresh build.
        let removed = db.remove(ObjectId(99)).unwrap();
        assert_eq!(removed.id(), ObjectId(99));
        let fresh = UncertainDb::build(objects).unwrap();
        let a = db.pnn(0.0).unwrap();
        let b = fresh.pnn(0.0).unwrap();
        assert_eq!(a.probabilities.len(), b.probabilities.len());
        for ((ida, pa), (idb, pb)) in a.probabilities.iter().zip(&b.probabilities) {
            assert_eq!(ida, idb);
            assert!((pa - pb).abs() < 1e-9);
        }
    }

    #[test]
    fn remove_backfills_swapped_index() {
        // Removing a middle object must re-key the moved last object, or
        // later queries would resolve the wrong index.
        let objects: Vec<UncertainObject> = (0..6)
            .map(|i| {
                UncertainObject::uniform(ObjectId(i), i as f64 * 10.0, i as f64 * 10.0 + 1.0)
                    .unwrap()
            })
            .collect();
        let mut db = UncertainDb::build(objects).unwrap();
        assert!(db.remove(ObjectId(2)).is_some());
        assert!(db.remove(ObjectId(0)).is_some());
        assert_eq!(db.len(), 4);
        assert!(db.remove(ObjectId(2)).is_none());
        // Each survivor is still individually findable as certain NN.
        for id in [1u64, 3, 4, 5] {
            let q = id as f64 * 10.0 + 0.5;
            let res = db.pnn(q).unwrap();
            assert_eq!(res.probabilities[0].0, ObjectId(id), "query at {q}");
        }
    }

    #[test]
    fn insert_duplicate_id_rejected() {
        let (_, objects) = fig7_scenario();
        let mut db = UncertainDb::build(objects).unwrap();
        let dup = UncertainObject::uniform(ObjectId(1), 0.0, 1.0).unwrap();
        assert!(matches!(
            db.insert(dup),
            Err(CoreError::DuplicateObjectId(1))
        ));
    }

    #[test]
    fn batch_matches_sequential_and_is_order_preserving() {
        let db = fig7_db();
        let queries: Vec<CpnnQuery> = (0..12)
            .map(|i| CpnnQuery::new(i as f64 * 0.5, 0.3, 0.01))
            .collect();
        let seq = db.cpnn_batch(&queries, Strategy::Verified, 1);
        let par = db.cpnn_batch(&queries, Strategy::Verified, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.as_ref().unwrap().answers, p.as_ref().unwrap().answers);
        }
    }

    #[test]
    fn batch_reports_per_query_errors() {
        let db = fig7_db();
        let queries = vec![
            CpnnQuery::new(0.0, 0.3, 0.01),
            CpnnQuery::new(f64::NAN, 0.3, 0.01),
        ];
        let res = db.cpnn_batch(&queries, Strategy::Verified, 2);
        assert!(res[0].is_ok());
        assert!(res[1].is_err());
    }

    #[test]
    fn invalid_queries_rejected() {
        let db = fig7_db();
        assert!(db
            .cpnn(&CpnnQuery::new(f64::NAN, 0.3, 0.0), Strategy::Verified)
            .is_err());
        assert!(db
            .cpnn(&CpnnQuery::new(0.0, 0.0, 0.0), Strategy::Verified)
            .is_err());
        assert!(db
            .cpnn(&CpnnQuery::new(0.0, 0.3, 2.0), Strategy::Verified)
            .is_err());
        assert!(db.pnn(f64::INFINITY).is_err());
    }

    #[test]
    fn empty_database_yields_empty_results() {
        let db = UncertainDb::build(Vec::new()).unwrap();
        let res = db
            .cpnn(&CpnnQuery::new(0.0, 0.3, 0.0), Strategy::Verified)
            .unwrap();
        assert!(res.answers.is_empty());
        assert!(res.reports.is_empty());
        assert_eq!(res.stats.candidates, 0);
    }
}
