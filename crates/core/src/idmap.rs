//! A persistent (path-copying) ordered map from object ids to small
//! values.
//!
//! The storage layer ([`crate::store::IndexedStore`]) keeps objects inside
//! the persistent R-tree, but two operations still need an id-keyed side
//! structure: duplicate-id detection on insert and id → rect lookup on
//! remove. A plain `Vec`/`HashMap` would make every copy-on-write update
//! O(n) again — exactly the cost the path-copying index removes — so this
//! module provides the same trick for the id dimension: a B-tree with
//! `Arc`-shared nodes where [`IdMap::with_inserted`] /
//! [`IdMap::with_removed`] clone only the root-to-leaf path.
//!
//! Deletions do not rebalance: nodes only ever split (on insert), so the
//! height is bounded by the insert history and lookups stay O(log n);
//! removals shrink nodes in place (path-copied) and dissolve them when
//! empty. This keeps the structure ~100 lines and is plenty for id sets.

use std::sync::Arc;

/// Fan-out: max keys per node before a split.
const MAX_KEYS: usize = 16;

#[derive(Debug)]
enum MapNode<V> {
    /// Sorted `(key, value)` records.
    Leaf(Vec<(u64, V)>),
    /// `(max key in subtree, child)` in ascending max-key order.
    Internal(Vec<(u64, Arc<MapNode<V>>)>),
}

impl<V> MapNode<V> {
    /// Largest key in the subtree (`None` when empty).
    fn max_key(&self) -> Option<u64> {
        match self {
            MapNode::Leaf(v) => v.last().map(|(k, _)| *k),
            MapNode::Internal(v) => v.last().map(|(k, _)| *k),
        }
    }
}

/// A persistent sorted map `u64 → V` with O(log n) path-copying updates.
/// `Clone` is O(1) (shares the root).
#[derive(Debug)]
pub(crate) struct IdMap<V> {
    root: Arc<MapNode<V>>,
}

impl<V> Clone for IdMap<V> {
    fn clone(&self) -> Self {
        Self {
            root: Arc::clone(&self.root),
        }
    }
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IdMap<V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        Self {
            root: Arc::new(MapNode::Leaf(Vec::new())),
        }
    }

    /// Is `key` present?
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Look up `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let mut node: &MapNode<V> = &self.root;
        loop {
            match node {
                MapNode::Leaf(v) => {
                    return v
                        .binary_search_by_key(&key, |(k, _)| *k)
                        .ok()
                        .map(|i| &v[i].1);
                }
                MapNode::Internal(children) => {
                    let i = children.partition_point(|(max, _)| *max < key);
                    if i == children.len() {
                        return None;
                    }
                    node = &children[i].1;
                }
            }
        }
    }
}

impl<V: Clone> IdMap<V> {
    /// Bulk-build from pairs **sorted ascending by key, without
    /// duplicates** (the caller checks — see
    /// [`crate::store::IndexedStore::build`]).
    pub(crate) fn from_sorted(pairs: Vec<(u64, V)>) -> Self {
        if pairs.is_empty() {
            return Self::new();
        }
        let mut level: Vec<Arc<MapNode<V>>> = pairs
            .chunks(MAX_KEYS)
            .map(|c| Arc::new(MapNode::Leaf(c.to_vec())))
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(MAX_KEYS)
                .map(|c| {
                    let children: Vec<(u64, Arc<MapNode<V>>)> = c
                        .iter()
                        .map(|n| {
                            (
                                n.max_key().expect("packed nodes are non-empty"),
                                Arc::clone(n),
                            )
                        })
                        .collect();
                    Arc::new(MapNode::Internal(children))
                })
                .collect();
        }
        Self {
            root: level.pop().expect("at least one node"),
        }
    }

    /// Path-copying insert. `None` if the key is already present (`self`
    /// is never changed).
    pub(crate) fn with_inserted(&self, key: u64, value: V) -> Option<Self> {
        let (new_root, sibling) = ins(&self.root, key, value)?;
        let root = match sibling {
            None => Arc::new(new_root),
            Some(sibling) => {
                let left = (new_root.max_key().expect("non-empty"), Arc::new(new_root));
                let right = (sibling.max_key().expect("non-empty"), Arc::new(sibling));
                Arc::new(MapNode::Internal(vec![left, right]))
            }
        };
        Some(Self { root })
    }

    /// Path-copying remove. `None` if the key is absent (`self` is never
    /// changed); otherwise the new map and the removed value.
    pub(crate) fn with_removed(&self, key: u64) -> Option<(Self, V)> {
        let (replacement, value) = rem(&self.root, key)?;
        let mut root = match replacement {
            Some(node) => Arc::new(node),
            None => Arc::new(MapNode::Leaf(Vec::new())),
        };
        loop {
            let collapsed = match &*root {
                MapNode::Internal(children) if children.len() == 1 => Arc::clone(&children[0].1),
                _ => break,
            };
            root = collapsed;
        }
        Some((Self { root }, value))
    }
}

/// Recursive path-copying insert: the copied node plus an optional split
/// sibling; `None` on a duplicate key.
fn ins<V: Clone>(
    node: &MapNode<V>,
    key: u64,
    value: V,
) -> Option<(MapNode<V>, Option<MapNode<V>>)> {
    match node {
        MapNode::Leaf(records) => {
            let at = match records.binary_search_by_key(&key, |(k, _)| *k) {
                Ok(_) => return None, // duplicate
                Err(at) => at,
            };
            let mut records = records.clone();
            records.insert(at, (key, value));
            if records.len() > MAX_KEYS {
                let right = records.split_off(records.len() / 2);
                Some((MapNode::Leaf(records), Some(MapNode::Leaf(right))))
            } else {
                Some((MapNode::Leaf(records), None))
            }
        }
        MapNode::Internal(children) => {
            // Descend into the first child whose max covers the key (the
            // last child absorbs keys beyond every max).
            let i = children
                .partition_point(|(max, _)| *max < key)
                .min(children.len() - 1);
            let (new_child, sibling) = ins(&children[i].1, key, value)?;
            let mut children = children.clone();
            children[i] = (new_child.max_key().expect("non-empty"), Arc::new(new_child));
            if let Some(sibling) = sibling {
                children.insert(
                    i + 1,
                    (sibling.max_key().expect("non-empty"), Arc::new(sibling)),
                );
                if children.len() > MAX_KEYS {
                    let right = children.split_off(children.len() / 2);
                    return Some((MapNode::Internal(children), Some(MapNode::Internal(right))));
                }
            }
            Some((MapNode::Internal(children), None))
        }
    }
}

/// Recursive path-copying remove: the copied replacement (`None` when the
/// node dissolved) plus the removed value; outer `None` when absent.
fn rem<V: Clone>(node: &MapNode<V>, key: u64) -> Option<(Option<MapNode<V>>, V)> {
    match node {
        MapNode::Leaf(records) => {
            let at = records.binary_search_by_key(&key, |(k, _)| *k).ok()?;
            let value = records[at].1.clone();
            let mut records = records.clone();
            records.remove(at);
            let replacement = (!records.is_empty()).then_some(MapNode::Leaf(records));
            Some((replacement, value))
        }
        MapNode::Internal(children) => {
            let i = children.partition_point(|(max, _)| *max < key);
            if i == children.len() {
                return None;
            }
            let (replacement, value) = rem(&children[i].1, key)?;
            let mut children = children.clone();
            match replacement {
                Some(new_child) => {
                    children[i] = (new_child.max_key().expect("non-empty"), Arc::new(new_child));
                }
                None => {
                    children.remove(i);
                }
            }
            let replacement = (!children.is_empty()).then_some(MapNode::Internal(children));
            Some((replacement, value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of stored keys (a full walk).
    fn len<V>(m: &IdMap<V>) -> usize {
        fn walk<V>(node: &MapNode<V>) -> usize {
            match node {
                MapNode::Leaf(v) => v.len(),
                MapNode::Internal(children) => children.iter().map(|(_, c)| walk(c)).sum(),
            }
        }
        walk(&m.root)
    }

    #[test]
    fn empty_map_behaviour() {
        let m: IdMap<u32> = IdMap::new();
        assert!(len(&m) == 0);
        assert!(!m.contains(3));
        assert!(m.with_removed(3).is_none());
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut m: IdMap<u64> = IdMap::new();
        for k in (0..500u64).map(|i| (i * 37) % 1000) {
            m = m.with_inserted(k, k * 2).unwrap();
        }
        assert_eq!(len(&m), 500);
        for k in (0..500u64).map(|i| (i * 37) % 1000) {
            assert_eq!(m.get(k), Some(&(k * 2)), "key {k}");
        }
        assert!(m.with_inserted(37, 0).is_none(), "duplicate rejected");
        for k in (0..500u64).map(|i| (i * 37) % 1000).step_by(3) {
            let (next, v) = m.with_removed(k).unwrap();
            assert_eq!(v, k * 2);
            m = next;
            assert!(!m.contains(k));
        }
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let pairs: Vec<(u64, u64)> = (0..300).map(|k| (k, k + 7)).collect();
        let bulk = IdMap::from_sorted(pairs.clone());
        let mut incr: IdMap<u64> = IdMap::new();
        for &(k, v) in &pairs {
            incr = incr.with_inserted(k, v).unwrap();
        }
        assert_eq!(len(&bulk), len(&incr));
        for &(k, v) in &pairs {
            assert_eq!(bulk.get(k), Some(&v));
            assert_eq!(incr.get(k), Some(&v));
        }
        assert!(bulk.get(300).is_none());
    }

    #[test]
    fn old_snapshots_survive_updates() {
        let v0 = IdMap::from_sorted((0..100).map(|k| (k, k)).collect());
        let v1 = v0.with_inserted(1000, 1).unwrap();
        let (v2, _) = v1.with_removed(50).unwrap();
        assert_eq!(len(&v0), 100);
        assert!(v0.contains(50));
        assert!(!v0.contains(1000));
        assert!(v1.contains(1000));
        assert!(v1.contains(50));
        assert!(!v2.contains(50));
    }

    #[test]
    fn remove_everything_leaves_empty() {
        let mut m = IdMap::from_sorted((0..64).map(|k| (k, ())).collect());
        for k in 0..64 {
            let (next, ()) = m.with_removed(k).unwrap();
            m = next;
        }
        assert!(len(&m) == 0);
        assert!(m.with_inserted(5, ()).is_some());
    }
}
