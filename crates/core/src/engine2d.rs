//! A 2-D uncertain-object database: the paper's "extension to 2D space"
//! (Sec. IV-A) made concrete, with R-tree filtering over bounding boxes and
//! the unchanged 1-D verifier machinery running on 2-D distance cdfs.
//!
//! Supported region shapes: uniform disks (circular-lens area —
//! [`crate::distance2d`]) and uniform axis-aligned rectangles (disk ∩
//! rectangle area — [`crate::geometry2d`]); both distance cdfs are closed
//! forms. The R-tree indexes conservative bounding boxes; candidate pruning
//! is finished with exact region near/far distances, mirroring \[8\]'s 2-D
//! treatment.
//!
//! Like the 1-D database, this module only owns storage and filtering: it
//! instantiates [`crate::pipeline`]'s [`DistanceModel`] and the shared
//! verify → refine control flow does the rest.

use std::time::Instant;

use cpnn_rtree::{Params, Rect};

use crate::distance::DistanceDistribution;
use crate::distance2d::{check_finite_point, CircleObject};
use crate::engine::{CpnnResult, PnnResult, Strategy};
use crate::error::Result;
use crate::geometry2d::Rect2;
use crate::object::ObjectId;
use crate::pipeline::{self, DistanceModel, Filtered, PipelineConfig, QuerySpec};
use crate::shard::{Extent, ShardableModel};
use crate::store::{CowModel, IndexedStore, StoredObject};

/// A 2-D uncertain object: an id plus a uniform uncertainty region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Object2d {
    /// Uniform pdf over a disk.
    Circle(CircleObject),
    /// Uniform pdf over an axis-aligned rectangle.
    Rectangle {
        /// Object identifier.
        id: ObjectId,
        /// The rectangle.
        rect: Rect2,
    },
}

impl Object2d {
    /// Uniform disk constructor.
    pub fn circle(id: ObjectId, center: [f64; 2], radius: f64) -> Result<Self> {
        Ok(Object2d::Circle(CircleObject::new(id, center, radius)?))
    }

    /// Uniform rectangle constructor: every coordinate finite and
    /// `min < max` on both axes, else [`crate::CoreError::InvalidRectangle`]
    /// naming the first axis that fails.
    pub fn rectangle(id: ObjectId, min: [f64; 2], max: [f64; 2]) -> Result<Self> {
        Ok(Object2d::Rectangle {
            id,
            rect: Rect2::new(min, max)?,
        })
    }

    /// The object's identifier.
    pub fn id(&self) -> ObjectId {
        match self {
            Object2d::Circle(c) => c.id,
            Object2d::Rectangle { id, .. } => *id,
        }
    }

    /// Minimum possible distance from `q`.
    pub(crate) fn near(&self, q: [f64; 2]) -> f64 {
        match self {
            Object2d::Circle(c) => c.near(q),
            Object2d::Rectangle { rect, .. } => rect.near(q),
        }
    }

    /// Maximum possible distance from `q`.
    pub(crate) fn far(&self, q: [f64; 2]) -> f64 {
        match self {
            Object2d::Circle(c) => c.far(q),
            Object2d::Rectangle { rect, .. } => rect.far(q),
        }
    }

    /// Conservative bounding box (exact for rectangles).
    pub fn bounding_box(&self) -> Rect<2> {
        match self {
            Object2d::Circle(c) => Rect::new(
                [c.center[0] - c.radius, c.center[1] - c.radius],
                [c.center[0] + c.radius, c.center[1] + c.radius],
            ),
            Object2d::Rectangle { rect, .. } => Rect::new(rect.min, rect.max),
        }
    }

    /// Distance distribution from `q` on `bins` equi-width bins, its knots
    /// computed when first read ([`crate::distance2d::KnotGrid`]).
    pub(crate) fn distance_distribution(
        &self,
        q: [f64; 2],
        bins: usize,
    ) -> Result<DistanceDistribution> {
        match self {
            Object2d::Circle(c) => c.radial(q).distribution(bins),
            Object2d::Rectangle { rect, .. } => rect.radial(q).distribution(bins),
        }
    }
}

/// Distance-histogram resolution per 2-D object.
const DISTANCE_BINS: usize = 48;

/// A 2-D object is stored under its conservative bounding box.
impl StoredObject<2> for Object2d {
    fn object_id(&self) -> ObjectId {
        self.id()
    }

    fn bounding_rect(&self) -> Rect<2> {
        self.bounding_box()
    }
}

/// An in-memory database of 2-D uncertain objects over the shared
/// persistent store (path-copying bbox R-tree + id map — see
/// [`crate::store`]). `Clone` is O(1); insert/remove are O(log n) path
/// copies, exactly like the 1-D database.
#[derive(Debug, Clone)]
pub struct UncertainDb2d {
    store: IndexedStore<Object2d, 2>,
}

impl UncertainDb2d {
    /// Build the database. Fails on duplicate ids.
    pub fn build(objects: Vec<Object2d>) -> Result<Self> {
        Ok(Self {
            store: IndexedStore::build(objects, Params::default())?,
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

    /// Materialize the stored objects (deterministic order; O(n)).
    pub(crate) fn objects(&self) -> Vec<Object2d> {
        self.store.objects()
    }

    /// Insert a new object in place (O(log n) path copy). Fails on a
    /// duplicate id. New with the persistent store: the 2-D database now
    /// has the same dynamic-update surface as the 1-D one.
    pub fn insert(&mut self, object: Object2d) -> Result<()> {
        self.store.insert(object)
    }

    /// Remove an object by id in place, returning it if present.
    pub fn remove(&mut self, id: ObjectId) -> Option<Object2d> {
        self.store.remove(id)
    }

    /// C-PNN over 2-D objects: the unified verify → refine pipeline, as in
    /// the 1-D engine.
    pub fn cpnn(&self, q: [f64; 2], threshold: f64, tolerance: f64) -> Result<CpnnResult> {
        pipeline::cpnn(
            self,
            &q,
            &QuerySpec::nn(threshold, tolerance, Strategy::Verified),
            &PipelineConfig::default(),
        )
    }

    /// Constrained probabilistic k-NN over 2-D objects: the C-PkNN
    /// extension through the shared pipeline — the same evaluation the
    /// `cpnn knn2d` command and the `knn2d` bench experiment run via
    /// [`pipeline::cpnn`] with `k > 1`.
    pub fn cknn(
        &self,
        q: [f64; 2],
        k: usize,
        threshold: f64,
        tolerance: f64,
    ) -> Result<CpnnResult> {
        pipeline::cpnn(
            self,
            &q,
            &QuerySpec::knn(k, threshold, tolerance, Strategy::Verified),
            &PipelineConfig::default(),
        )
    }

    /// Exact 2-D PNN probabilities, descending.
    pub fn pnn(&self, q: [f64; 2]) -> Result<PnnResult> {
        pipeline::pnn(self, &q, 1)
    }
}

/// Copy-on-write successors via the persistent store — the seam that
/// gives the 2-D database the same serving-layer update surface
/// ([`crate::server::QueryServer::insert`] and the write-coalescing lane)
/// as the 1-D one.
impl CowModel for UncertainDb2d {
    type Object = Object2d;

    fn object_id(object: &Object2d) -> ObjectId {
        object.id()
    }

    fn object_extent(object: &Object2d) -> Extent {
        let bbox = object.bounding_box();
        Extent::new(bbox.min().to_vec(), bbox.max().to_vec())
    }

    fn contains_id(&self, id: ObjectId) -> bool {
        self.store.contains(id)
    }

    fn with_inserted(&self, object: Object2d) -> Result<Self> {
        Ok(Self {
            store: self.store.with_inserted(object)?,
        })
    }

    fn with_removed(&self, id: ObjectId) -> (Self, Option<Object2d>) {
        let (store, removed) = self.store.with_removed(id);
        (Self { store }, removed)
    }
}

/// One [`UncertainDb2d`] is one shard (its own bbox R-tree); a
/// [`ShardedDb`](crate::shard::ShardedDb) of these tiles the plane along
/// the widest axis.
impl ShardableModel for UncertainDb2d {
    type Config = ();

    fn shard_config(&self) {}

    fn shard_objects(&self) -> Vec<Object2d> {
        self.store.objects()
    }

    fn build_shard(objects: Vec<Object2d>, _: &()) -> Result<Self> {
        Self::build(objects)
    }

    fn model_extent(&self) -> Option<Extent> {
        self.store.extent()
    }
}

impl DistanceModel for UncertainDb2d {
    type Query = [f64; 2];

    fn total_objects(&self) -> usize {
        self.store.len()
    }

    fn check_query(&self, q: &[f64; 2]) -> Result<()> {
        check_finite_point(*q)
    }

    fn filter(&self, q: &[f64; 2], k: usize) -> Result<Filtered> {
        let filter_start = Instant::now();
        // Conservative bbox pruning (bbox near ≤ region near; bbox far ≥
        // region far, so the bbox horizon over-estimates and never wrongly
        // prunes), then exact pruning with true region distances against
        // the k-th smallest far point.
        let (coarse, _) = self.store.candidates_k(q, k.max(1));
        let mut survivors: Vec<&Object2d> = coarse.iter().map(|c| c.item).collect();
        let mut fars: Vec<f64> = survivors.iter().map(|o| o.far(*q)).collect();
        let horizon = crate::candidate::k_horizon(&mut fars, k);
        survivors.retain(|o| o.near(*q) <= horizon);
        let filter_time = filter_start.elapsed();

        let mut items: Vec<(ObjectId, DistanceDistribution)> = Vec::with_capacity(survivors.len());
        for o in survivors {
            items.push((o.id(), o.distance_distribution(*q, DISTANCE_BINS)?));
        }
        Ok(Filtered { items, filter_time })
    }

    fn quantize_query(&self, q: &[f64; 2], quantum: f64) -> [f64; 2] {
        [
            crate::cache::quantize_coord(q[0], quantum),
            crate::cache::quantize_coord(q[1], quantum),
        ]
    }

    fn cache_key(&self, q: &[f64; 2]) -> Option<u128> {
        Some(crate::cache::point_key_2d(*q))
    }

    fn query_coords(&self, q: &[f64; 2]) -> Option<Vec<f64>> {
        Some(q.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use cpnn_pdf::Pdf as _;

    fn mixed_db() -> UncertainDb2d {
        let objects = vec![
            Object2d::circle(ObjectId(0), [2.0, 0.0], 1.0).unwrap(),
            Object2d::rectangle(ObjectId(1), [-3.0, -1.0], [-1.0, 1.0]).unwrap(),
            Object2d::circle(ObjectId(2), [0.0, 5.0], 0.5).unwrap(),
            Object2d::rectangle(ObjectId(3), [40.0, 40.0], [41.0, 41.0]).unwrap(),
        ];
        UncertainDb2d::build(objects).unwrap()
    }

    #[test]
    fn duplicate_ids_rejected() {
        let objects = vec![
            Object2d::circle(ObjectId(0), [0.0, 0.0], 1.0).unwrap(),
            Object2d::circle(ObjectId(0), [5.0, 0.0], 1.0).unwrap(),
        ];
        assert!(UncertainDb2d::build(objects).is_err());
    }

    #[test]
    fn invalid_rectangle_rejected() {
        assert!(Object2d::rectangle(ObjectId(0), [1.0, 0.0], [0.0, 1.0]).is_err());
        assert!(Object2d::rectangle(ObjectId(0), [0.0, 0.0], [f64::NAN, 1.0]).is_err());
        // Only axis 1 is inverted: the error says so, with that axis' ends.
        assert_eq!(
            Object2d::rectangle(ObjectId(0), [0.0, 5.0], [1.0, 4.0]),
            Err(CoreError::InvalidRectangle {
                axis: 1,
                lo: 5.0,
                hi: 4.0
            })
        );
    }

    #[test]
    fn non_finite_query_reports_the_coordinate_that_failed() {
        let db = mixed_db();
        let inf = f64::INFINITY;
        assert_eq!(
            db.cpnn([0.0, inf], 0.3, 0.0).unwrap_err(),
            CoreError::InvalidQueryPoint(inf)
        );
        assert_eq!(
            db.cknn([-inf, 1.0], 2, 0.3, 0.0).unwrap_err(),
            CoreError::InvalidQueryPoint(-inf)
        );
    }

    #[test]
    fn far_objects_are_filtered() {
        let db = mixed_db();
        let res = db.pnn([0.0, 0.0]).unwrap();
        // Object 3 (far corner) can never be nearest.
        assert!(res.probabilities.iter().all(|(id, _)| id.0 != 3));
        let total: f64 = res.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-6, "sum = {total}");
    }

    #[test]
    fn symmetric_mixed_shapes_split_probability() {
        // A disk and a square of equal area, mirrored about the query.
        let r = 1.0;
        let side = (std::f64::consts::PI * r * r).sqrt();
        let objects = vec![
            Object2d::circle(ObjectId(0), [3.0, 0.0], r).unwrap(),
            Object2d::rectangle(
                ObjectId(1),
                [-3.0 - side / 2.0, -side / 2.0],
                [-3.0 + side / 2.0, side / 2.0],
            )
            .unwrap(),
        ];
        let db = UncertainDb2d::build(objects).unwrap();
        let res = db.pnn([0.0, 0.0]).unwrap();
        // Not exactly 50/50 (shapes differ), but both substantial.
        for (_, p) in &res.probabilities {
            assert!(*p > 0.25 && *p < 0.75, "p = {p}");
        }
    }

    #[test]
    fn cpnn_2d_matches_exact_thresholding() {
        let db = mixed_db();
        let q = [0.0, 0.5];
        let exact = db.pnn(q).unwrap();
        for threshold in [0.15, 0.4, 0.8] {
            let res = db.cpnn(q, threshold, 0.0).unwrap();
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
    fn rectangle_inside_query_point_has_zero_near() {
        let o = Object2d::rectangle(ObjectId(0), [0.0, 0.0], [2.0, 2.0]).unwrap();
        assert_eq!(o.near([1.0, 1.0]), 0.0);
        assert!((o.far([1.0, 1.0]) - 2f64.sqrt()).abs() < 1e-12);
        let d = o.distance_distribution([1.0, 1.0], 32).unwrap();
        assert!((d.histogram().cdf(d.far()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cknn_2d_matches_exact_pknn_thresholding() {
        let db = mixed_db();
        let q = [0.0, 0.5];
        let exact = pipeline::pnn(&db, &q, 2).unwrap();
        let total: f64 = exact.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 2.0).abs() < 1e-6, "sum = {total}");
        for threshold in [0.3, 0.6, 0.95] {
            let res = db.cknn(q, 2, threshold, 0.0).unwrap();
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
    fn query_stats_are_populated() {
        let db = mixed_db();
        let res = db.cpnn([0.0, 0.0], 0.3, 0.01).unwrap();
        assert_eq!(res.stats.total_objects, 4);
        assert!(res.stats.candidates >= 2);
        assert!(!res.stats.stages.is_empty());
    }
}
