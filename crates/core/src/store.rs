//! The shared storage layer: one persistent, id-addressable object store
//! over a path-copying [`RTree`], used by both the 1-D and 2-D databases.
//!
//! Before this module existed, `engine.rs` and `engine2d.rs` each carried
//! their own copy of the index plumbing — duplicate-id checks, bulk
//! loading, dynamic insert/remove with index re-keying. `IndexedStore`
//! is that plumbing written once, with two persistent structures per
//! store:
//!
//! * the **spatial index** (a path-copying [`RTree`]) holds the objects
//!   themselves in its leaves — the filter reads candidates straight out
//!   of the index, no side table;
//! * a persistent **id map** (`IdMap`) from object id to
//!   stored rect — duplicate detection on insert and id → rect lookup on
//!   remove, both O(log n) with path-copying updates.
//!
//! Because both structures are persistent, `IndexedStore::with_inserted`
//! and `IndexedStore::with_removed` produce a full copy-on-write
//! snapshot in **O(log n)** — this is what turns the serving layer's
//! snapshot-swap updates from rebuilds into structural edits.
//!
//! [`CowModel`] is the corresponding model-level seam: any database that
//! can produce copy-on-write successors of itself (the 1-D and 2-D
//! engines via their stores, [`crate::shard::ShardedDb`] via per-shard
//! path copies) implements it, and [`crate::server::QueryServer`] builds
//! its update surface — including the write-coalescing lane — on top.

use cpnn_rtree::{Candidate, FilterStats, Params, RTree, Rect};

use crate::error::{CoreError, Result};
use crate::idmap::IdMap;
use crate::object::ObjectId;
use crate::shard::Extent;

/// A storable object: identified, rectangle-bounded, cloneable.
pub(crate) trait StoredObject<const D: usize>: Clone {
    /// The object's identifier.
    fn object_id(&self) -> ObjectId;
    /// The axis-aligned bounding rectangle indexed for this object (the
    /// uncertainty region in 1-D, its bbox in 2-D).
    fn bounding_rect(&self) -> Rect<D>;
}

/// A persistent, id-addressable object store over an [`RTree`].
/// `Clone` is O(1); [`with_inserted`](Self::with_inserted) /
/// [`with_removed`](Self::with_removed) are O(log n) path copies. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct IndexedStore<O, const D: usize> {
    index: RTree<O, D>,
    ids: IdMap<Rect<D>>,
    _marker: std::marker::PhantomData<O>,
}

impl<O, const D: usize> Clone for IndexedStore<O, D> {
    fn clone(&self) -> Self {
        Self {
            index: self.index.clone(),
            ids: self.ids.clone(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<O: StoredObject<D>, const D: usize> IndexedStore<O, D> {
    /// Bulk-build the store (packed index + packed id map). Fails on
    /// duplicate object ids.
    pub(crate) fn build(objects: Vec<O>, params: Params) -> Result<Self> {
        let mut pairs: Vec<(u64, Rect<D>)> = objects
            .iter()
            .map(|o| (o.object_id().0, o.bounding_rect()))
            .collect();
        pairs.sort_unstable_by_key(|(id, _)| *id);
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(CoreError::DuplicateObjectId(w[0].0));
        }
        let ids = IdMap::from_sorted(pairs);
        let index = RTree::bulk_load_with(
            objects
                .into_iter()
                .map(|o| (o.bounding_rect(), o))
                .collect(),
            params,
        );
        Ok(Self {
            index,
            ids,
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of stored objects.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Is an object with this id stored?
    pub(crate) fn contains(&self, id: ObjectId) -> bool {
        self.ids.contains(id.0)
    }

    /// Minimum bounding rectangle of every stored object (`None` when
    /// empty) — kept exact by the index across updates, so it doubles as
    /// the store's domain extent for shard routing.
    pub(crate) fn mbr(&self) -> Option<Rect<D>> {
        self.index.mbr()
    }

    /// The store's extent as a dimension-erased [`Extent`] (`None` when
    /// empty).
    pub(crate) fn extent(&self) -> Option<Extent> {
        self.mbr()
            .map(|r| Extent::new(r.min().to_vec(), r.max().to_vec()))
    }

    /// Copy-on-write insert: a new store sharing all untouched structure.
    /// O(log n). Fails on a duplicate id (`self` unchanged either way).
    pub(crate) fn with_inserted(&self, object: O) -> Result<Self> {
        let id = object.object_id();
        let rect = object.bounding_rect();
        let ids = self
            .ids
            .with_inserted(id.0, rect)
            .ok_or(CoreError::DuplicateObjectId(id.0))?;
        Ok(Self {
            index: self.index.with_inserted(rect, object),
            ids,
            _marker: std::marker::PhantomData,
        })
    }

    /// Copy-on-write remove by id: the new store plus the removed object
    /// (`None` if the id was absent — the returned store then shares
    /// everything with `self`). O(log n).
    pub(crate) fn with_removed(&self, id: ObjectId) -> (Self, Option<O>) {
        let Some((ids, rect)) = self.ids.with_removed(id.0) else {
            return (self.clone(), None);
        };
        let (index, removed) = self.index.with_removed(&rect, |o: &O| o.object_id() == id);
        debug_assert!(removed.is_some(), "id map and index agree on membership");
        (
            Self {
                index,
                ids,
                _marker: std::marker::PhantomData,
            },
            removed,
        )
    }

    /// In-place insert (replaces this handle with the path-copied
    /// successor; other clones are unaffected).
    pub(crate) fn insert(&mut self, object: O) -> Result<()> {
        *self = self.with_inserted(object)?;
        Ok(())
    }

    /// In-place remove by id, returning the object if present.
    pub(crate) fn remove(&mut self, id: ObjectId) -> Option<O> {
        let (next, removed) = self.with_removed(id);
        if removed.is_some() {
            *self = next;
        }
        removed
    }

    /// The PNN filtering phase over the stored objects.
    pub(crate) fn candidates_k(
        &self,
        q: &[f64; D],
        k: usize,
    ) -> (Vec<Candidate<'_, O, D>>, FilterStats) {
        self.index.pnn_candidates_k(q, k)
    }

    /// Visit every stored object (deterministic order).
    pub(crate) fn for_each<F: FnMut(&O)>(&self, mut f: F) {
        self.index.for_each(|_, o| f(o));
    }

    /// Materialize the stored objects (deterministic order). O(n) — used
    /// by persistence, re-sharding, and diagnostics, never by the query
    /// or update paths.
    pub(crate) fn objects(&self) -> Vec<O> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|o| out.push(o.clone()));
        out
    }

    /// The underlying index.
    pub(crate) fn index(&self) -> &RTree<O, D> {
        &self.index
    }
}

/// A database that can produce **copy-on-write successors** of itself:
/// the model-level seam the serving layer's snapshot swaps (and the
/// write-coalescing lane) are built on. Implementations:
/// [`crate::engine::UncertainDb`], [`crate::engine2d::UncertainDb2d`]
/// (O(log n) store path copies), and [`crate::shard::ShardedDb`] (path
/// copy of the owning shard only).
pub trait CowModel: Sized {
    /// The stored-object type.
    type Object: Clone;

    /// An object's identifier.
    fn object_id(object: &Self::Object) -> ObjectId;

    /// An object's axis-aligned extent (its uncertainty-region bbox) —
    /// the region an update touches, used for shard routing and for the
    /// verification cache's incremental invalidation.
    fn object_extent(object: &Self::Object) -> Extent;

    /// Is an object with this id stored? O(log n).
    fn contains_id(&self, id: ObjectId) -> bool;

    /// Copy-on-write insert: a successor model with `object` added,
    /// sharing all untouched structure with `self`. Fails on a duplicate
    /// id (`self` unchanged either way).
    fn with_inserted(&self, object: Self::Object) -> Result<Self>;

    /// Copy-on-write remove: a successor model without `id`, plus the
    /// removed object (`None` when absent — the successor then has the
    /// same contents).
    fn with_removed(&self, id: ObjectId) -> (Self, Option<Self::Object>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::UncertainObject;

    fn obj(id: u64, lo: f64) -> UncertainObject {
        UncertainObject::uniform(ObjectId(id), lo, lo + 1.0).unwrap()
    }

    fn store(n: u64) -> IndexedStore<UncertainObject, 1> {
        IndexedStore::build(
            (0..n).map(|i| obj(i, i as f64 * 3.0)).collect(),
            Params::default(),
        )
        .unwrap()
    }

    #[test]
    fn build_rejects_duplicates() {
        let objects = vec![obj(1, 0.0), obj(1, 5.0)];
        assert!(matches!(
            IndexedStore::<UncertainObject, 1>::build(objects, Params::default()),
            Err(CoreError::DuplicateObjectId(1))
        ));
    }

    #[test]
    fn cow_insert_and_remove_share_with_old_snapshot() {
        let v0 = store(200);
        let v1 = v0.with_inserted(obj(999, 50.5)).unwrap();
        assert_eq!(v0.len(), 200);
        assert_eq!(v1.len(), 201);
        assert!(!v0.contains(ObjectId(999)));
        assert!(v1.contains(ObjectId(999)));
        let (v2, removed) = v1.with_removed(ObjectId(999));
        assert_eq!(removed.unwrap().id(), ObjectId(999));
        assert_eq!(v2.len(), 200);
        assert!(v1.contains(ObjectId(999)), "old snapshot untouched");
        // Duplicate insert fails without touching anything.
        assert!(v2.with_inserted(obj(7, 0.0)).is_err());
    }

    #[test]
    fn remove_absent_id_is_a_noop() {
        let s = store(10);
        let (t, removed) = s.with_removed(ObjectId(999));
        assert!(removed.is_none());
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn rect_lookup_and_extent_track_updates() {
        let mut s = store(5);
        assert_eq!(s.ids.get(2), Some(&Rect::interval(6.0, 7.0)));
        s.insert(obj(100, 1000.0)).unwrap();
        let e = s.extent().unwrap();
        assert_eq!(e.hi[0], 1001.0);
        s.remove(ObjectId(100)).unwrap();
        let e = s.extent().unwrap();
        assert!(e.hi[0] < 1000.0, "mbr shrinks after remove: {:?}", e);
    }

    #[test]
    fn objects_materializes_everything_exactly_once() {
        let s = store(37);
        let mut ids: Vec<u64> = s.objects().iter().map(|o| o.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..37).collect::<Vec<u64>>());
    }
}
