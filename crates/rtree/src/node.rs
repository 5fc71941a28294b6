//! Tree node representation and fan-out parameters.
//!
//! Nodes are **persistent**: every child pointer is an [`Arc`], so a tree
//! handle is an immutable snapshot and "mutation" is path-copying — an
//! update clones only the nodes on the root-to-leaf path it touches and
//! shares every other subtree with the previous snapshot (see
//! [`crate::RTree::with_inserted`]). Cloning a [`Node`] is therefore the
//! path-copy primitive: an internal node clone is `O(fan-out)` `Arc`
//! bumps, a leaf clone copies its records.

use std::sync::Arc;

use crate::geometry::Rect;

/// Fan-out configuration for the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Maximum entries per node before a split.
    pub max_entries: usize,
    /// Minimum entries per node (underflow threshold for deletion and the
    /// quadratic split's forced assignment).
    pub(crate) min_entries: usize,
}

impl Params {
    /// Validated constructor. `min_entries` must be at least 1 and at most
    /// half of `max_entries`; `max_entries` must be at least 4.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be >= 4");
        assert!(
            (1..=max_entries / 2).contains(&min_entries),
            "min_entries must be in 1..=max_entries/2"
        );
        Self {
            max_entries,
            min_entries,
        }
    }
}

impl Default for Params {
    /// Guttman's classic 40% fill with a fan-out of 16 — a good default for
    /// the in-memory filtering workloads of the paper.
    fn default() -> Self {
        Self::new(16, 6)
    }
}

/// A leaf-level record: a bounding rect and the stored item.
#[derive(Debug, Clone)]
pub(crate) struct LeafEntry<T, const D: usize> {
    /// Bounding rectangle (for uncertain objects: the uncertainty region).
    pub(crate) rect: Rect<D>,
    /// The stored payload.
    pub(crate) item: T,
}

/// An internal-node slot: the child subtree plus its cached MBR.
///
/// Cloning a `Child` never clones the subtree — it bumps the [`Arc`]
/// refcount, which is what makes path-copying cheap.
#[derive(Debug)]
pub(crate) struct Child<T, const D: usize> {
    /// Cached minimum bounding rectangle of `node`.
    pub(crate) rect: Rect<D>,
    /// The (shared, immutable) child subtree.
    pub(crate) node: Arc<Node<T, D>>,
}

impl<T, const D: usize> Clone for Child<T, D> {
    fn clone(&self) -> Self {
        Self {
            rect: self.rect,
            node: Arc::clone(&self.node),
        }
    }
}

/// A tree node: either a leaf of records or an internal node of children.
#[derive(Debug)]
pub(crate) enum Node<T, const D: usize> {
    /// Leaf node holding data records.
    Leaf(Vec<LeafEntry<T, D>>),
    /// Internal node holding child subtrees.
    Internal(Vec<Child<T, D>>),
}

/// The path-copy primitive: cloning an internal node shares all its
/// subtrees (`Arc` bumps); cloning a leaf copies its records.
impl<T: Clone, const D: usize> Clone for Node<T, D> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(entries) => Node::Leaf(entries.clone()),
            Node::Internal(children) => Node::Internal(children.clone()),
        }
    }
}

/// Anything with a bounding rectangle — lets the split and bulk-load
/// algorithms work uniformly on leaf records and internal children.
pub(crate) trait Bounded<const D: usize> {
    /// The bounding rectangle.
    fn bounds(&self) -> Rect<D>;
}

impl<T, const D: usize> Bounded<D> for LeafEntry<T, D> {
    fn bounds(&self) -> Rect<D> {
        self.rect
    }
}

impl<T, const D: usize> Bounded<D> for Child<T, D> {
    fn bounds(&self) -> Rect<D> {
        self.rect
    }
}

impl<T, const D: usize> Node<T, D> {
    /// An empty leaf (the initial root).
    pub(crate) fn empty() -> Self {
        Node::Leaf(Vec::new())
    }

    /// Number of slots directly in this node.
    pub(crate) fn slot_count(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Internal(v) => v.len(),
        }
    }

    /// Minimum bounding rectangle over this node's slots, or `None` if empty.
    pub(crate) fn mbr(&self) -> Option<Rect<D>> {
        match self {
            Node::Leaf(v) => v.iter().map(|e| e.rect).reduce(|a, b| a.union(&b)),
            Node::Internal(v) => v.iter().map(|c| c.rect).reduce(|a, b| a.union(&b)),
        }
    }

    /// Height of the subtree (a leaf has height 1).
    #[cfg(test)]
    pub(crate) fn height(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(v) => 1 + v.first().map_or(0, |c| c.node.height()),
        }
    }

    /// Total number of leaf records in the subtree.
    pub(crate) fn record_count(&self) -> usize {
        match self {
            Node::Leaf(v) => v.len(),
            Node::Internal(v) => v.iter().map(|c| c.node.record_count()).sum(),
        }
    }

    /// Total number of nodes in the subtree (including this one).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal(v) => 1 + v.iter().map(|c| c.node.node_count()).sum::<usize>(),
        }
    }
}

impl<T: Clone, const D: usize> Node<T, D> {
    /// Copy every leaf record in the subtree into `out` (used by deletion's
    /// condense step to reinsert orphans — the subtree itself may still be
    /// shared with older snapshots, so records are cloned, never drained).
    pub(crate) fn collect_records(&self, out: &mut Vec<LeafEntry<T, D>>) {
        match self {
            Node::Leaf(v) => out.extend(v.iter().cloned()),
            Node::Internal(v) => {
                for c in v {
                    c.node.collect_records(out);
                }
            }
        }
    }
}
