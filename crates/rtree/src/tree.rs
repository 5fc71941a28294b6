//! The public [`RTree`] type: a **persistent** (path-copying) R-tree with
//! dynamic insertion, deletion, bulk loading, range search,
//! nearest-neighbor search and the PNN candidate filter.
//!
//! Every node sits behind an [`Arc`]; a tree handle is an immutable
//! snapshot. [`RTree::with_inserted`] / [`RTree::with_removed`] return a
//! *new* handle that clones only the root-to-leaf path the update touches
//! (classic Guttman ChooseSubtree / CondenseTree adapted to shared
//! ownership) and shares every untouched subtree with the old snapshot —
//! an update is `O(height × fan-out)` work, not a rebuild, and readers
//! holding the old handle are never torn. The in-place [`RTree::insert`] /
//! [`RTree::remove_one`] are thin wrappers that replace `self` with the
//! path-copied successor.

use std::sync::Arc;

use crate::bulk::str_bulk_load;
use crate::geometry::Rect;
use crate::node::{Child, LeafEntry, Node, Params};
use crate::split::quadratic_split;

/// An in-memory persistent R-tree over items of type `T` in `D` dimensions.
///
/// This is the substrate for the paper's filtering phase — the original used
/// Hadjieleftheriou's spatial index library \[18\]; this one is built from
/// scratch with Guttman quadratic splits, STR bulk loading, and
/// path-copying updates. Cloning a tree is two refcount bumps — the clone
/// and the original share every node until one of them is updated.
#[derive(Debug)]
pub struct RTree<T, const D: usize> {
    root: Arc<Node<T, D>>,
    len: usize,
    params: Params,
}

/// Structural quality counters returned by [`RTree::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Total nodes, internal and leaf.
    pub nodes: usize,
    /// Leaf nodes.
    pub leaves: usize,
    /// Entries stored across all leaves (equals [`RTree::len`]).
    pub leaf_entries: usize,
}

impl TreeStats {
    /// Average leaf fill factor in `[0, 1]` against a fan-out cap of
    /// `max_entries` per leaf. 0.0 for an empty tree.
    pub fn leaf_fill(&self, max_entries: usize) -> f64 {
        let capacity = self.leaves * max_entries;
        if capacity == 0 {
            return 0.0;
        }
        self.leaf_entries as f64 / capacity as f64
    }
}

/// Cheap: clones the root `Arc`, not the tree.
impl<T, const D: usize> Clone for RTree<T, D> {
    fn clone(&self) -> Self {
        Self {
            root: Arc::clone(&self.root),
            len: self.len,
            params: self.params,
        }
    }
}

impl<T, const D: usize> Default for RTree<T, D> {
    fn default() -> Self {
        Self::new(Params::default())
    }
}

impl<T, const D: usize> RTree<T, D> {
    /// An empty tree with the given fan-out parameters.
    pub fn new(params: Params) -> Self {
        Self {
            root: Arc::new(Node::empty()),
            len: 0,
            params,
        }
    }

    /// Bulk-load a packed tree (STR) from `(rect, item)` pairs.
    pub fn bulk_load(items: Vec<(Rect<D>, T)>) -> Self {
        Self::bulk_load_with(items, Params::default())
    }

    /// Bulk-load with explicit parameters.
    pub fn bulk_load_with(items: Vec<(Rect<D>, T)>, params: Params) -> Self {
        let len = items.len();
        let records = items
            .into_iter()
            .map(|(rect, item)| LeafEntry { rect, item })
            .collect();
        Self {
            root: Arc::new(str_bulk_load(records, &params)),
            len,
            params,
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Structural quality counters (one depth-first walk): total nodes,
    /// leaf nodes, and entries stored across leaves. Average leaf fill
    /// factor is [`TreeStats::leaf_fill`] against
    /// [`Params::max_entries`] — a health signal for sustained update
    /// workloads, where repeated splits and underfull merges degrade it.
    pub fn stats(&self) -> TreeStats {
        fn walk<T, const D: usize>(node: &Node<T, D>, s: &mut TreeStats) {
            s.nodes += 1;
            match node {
                Node::Leaf(entries) => {
                    s.leaves += 1;
                    s.leaf_entries += entries.len();
                }
                Node::Internal(children) => {
                    for c in children {
                        walk(&c.node, s);
                    }
                }
            }
        }
        let mut s = TreeStats::default();
        walk(&self.root, &mut s);
        s
    }

    /// The tree's fan-out parameters.
    pub fn params(&self) -> Params {
        self.params
    }

    /// Root MBR, or `None` when empty.
    pub fn mbr(&self) -> Option<Rect<D>> {
        self.root.mbr()
    }

    /// Access the root node (crate-internal: used by search modules).
    pub(crate) fn root(&self) -> &Node<T, D> {
        &self.root
    }

    /// Collect references to all items whose rects intersect `query`.
    pub fn search_intersecting(&self, query: &Rect<D>) -> Vec<(&Rect<D>, &T)> {
        let mut out = Vec::new();
        search_rec(&self.root, query, &mut out);
        out
    }

    /// Visit every `(rect, item)` pair in the tree (deterministic
    /// depth-first order).
    pub fn for_each<F: FnMut(&Rect<D>, &T)>(&self, mut f: F) {
        fn walk<T, const D: usize, F: FnMut(&Rect<D>, &T)>(node: &Node<T, D>, f: &mut F) {
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        f(&e.rect, &e.item);
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        walk(&c.node, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Check structural invariants (tests/debugging): child MBRs contain
    /// their subtrees, all leaves at the same depth, fill bounds respected
    /// for non-root nodes.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn check<T, const D: usize>(
            node: &Node<T, D>,
            is_root: bool,
            params: &Params,
        ) -> Result<usize, String> {
            match node {
                Node::Leaf(entries) => {
                    if !is_root && entries.len() < params.min_entries {
                        return Err(format!("leaf underfull: {}", entries.len()));
                    }
                    if entries.len() > params.max_entries {
                        return Err(format!("leaf overfull: {}", entries.len()));
                    }
                    Ok(1)
                }
                Node::Internal(children) => {
                    // No minimum-fill check for internal nodes: STR bulk
                    // loading under-fills interiors by construction, and
                    // deletion tolerates sparse internals instead of
                    // dissolving whole subtrees (see `remove_rec`).
                    if children.is_empty() {
                        return Err("empty internal node".into());
                    }
                    if children.len() > params.max_entries {
                        return Err(format!("internal overfull: {}", children.len()));
                    }
                    let mut depth = None;
                    for c in children {
                        let actual = c.node.mbr().ok_or("empty child subtree")?;
                        if !c.rect.contains_rect(&actual) {
                            return Err("cached child rect does not contain subtree".into());
                        }
                        let d = check(&c.node, false, params)?;
                        if *depth.get_or_insert(d) != d {
                            return Err("leaves at different depths".into());
                        }
                    }
                    Ok(depth.unwrap_or(0) + 1)
                }
            }
        }
        check(&self.root, true, &self.params)?;
        let records = self.root.record_count();
        if records != self.len {
            return Err(format!(
                "record count {records} disagrees with tracked len {}",
                self.len
            ));
        }
        Ok(())
    }
}

impl<T: Clone, const D: usize> RTree<T, D> {
    /// Path-copying insert: a new tree handle containing `item`, sharing
    /// every subtree off the insertion path with `self` (which is
    /// unchanged). `O(height × fan-out)` node copies.
    pub fn with_inserted(&self, rect: Rect<D>, item: T) -> Self {
        let entry = LeafEntry { rect, item };
        let (new_root, sibling) = insert_rec(&self.root, entry, &self.params);
        let root = match sibling {
            None => Arc::new(new_root),
            Some(sibling) => Arc::new(grow_root(new_root, sibling)),
        };
        Self {
            root,
            len: self.len + 1,
            params: self.params,
        }
    }

    /// Path-copying remove: a new tree handle without the first item whose
    /// stored rect equals `rect` and for which `pred` returns true, plus
    /// the removed item (cloned — the old snapshot still owns its copy).
    /// If nothing matches, the returned handle shares the entire tree with
    /// `self`.
    ///
    /// Underfull nodes along the path are dissolved and their records
    /// reinserted (Guttman's condense-tree, adapted to shared ownership:
    /// dissolved subtrees are *copied out*, never drained, because older
    /// snapshots may still reference them).
    pub fn with_removed<F: FnMut(&T) -> bool>(
        &self,
        rect: &Rect<D>,
        mut pred: F,
    ) -> (Self, Option<T>) {
        let mut orphans: Vec<LeafEntry<T, D>> = Vec::new();
        let Some((replacement, removed)) =
            remove_rec(&self.root, rect, &mut pred, &self.params, &mut orphans)
        else {
            return (self.clone(), None);
        };
        let mut root = match replacement {
            Some(node) => Arc::new(node),
            None => Arc::new(Node::empty()),
        };
        // Collapse a root chain with single children.
        loop {
            let collapsed = match &*root {
                Node::Internal(children) if children.len() == 1 => Arc::clone(&children[0].node),
                _ => break,
            };
            root = collapsed;
        }
        let mut next = Self {
            root,
            len: self.len - 1,
            params: self.params,
        };
        for orphan in orphans {
            // Reinsert orphans through the normal path (len unchanged:
            // they were never counted as removed).
            let (new_root, sibling) = insert_rec(&next.root, orphan, &next.params);
            next.root = match sibling {
                None => Arc::new(new_root),
                Some(sibling) => Arc::new(grow_root(new_root, sibling)),
            };
        }
        (next, Some(removed))
    }

    /// Insert an item with its bounding rectangle (in place: replaces this
    /// handle with the path-copied successor — other clones of the old
    /// handle are unaffected).
    pub fn insert(&mut self, rect: Rect<D>, item: T) {
        *self = self.with_inserted(rect, item);
    }

    /// Remove one item whose stored rect equals `rect` and for which `pred`
    /// returns true. Returns the removed item, if found. In-place twin of
    /// [`with_removed`](Self::with_removed).
    pub fn remove_one<F: FnMut(&T) -> bool>(&mut self, rect: &Rect<D>, pred: F) -> Option<T> {
        let (next, removed) = self.with_removed(rect, pred);
        if removed.is_some() {
            *self = next;
        }
        removed
    }
}

/// A split root: grow the tree by one level over the two halves.
fn grow_root<T, const D: usize>(left: Node<T, D>, right: Node<T, D>) -> Node<T, D> {
    let left = Child {
        rect: left.mbr().expect("split half is non-empty"),
        node: Arc::new(left),
    };
    let right = Child {
        rect: right.mbr().expect("split half is non-empty"),
        node: Arc::new(right),
    };
    Node::Internal(vec![left, right])
}

/// Recursive path-copying insert: returns the copied node and, if it
/// overflowed, a split-off sibling. `node` itself is never mutated.
fn insert_rec<T: Clone, const D: usize>(
    node: &Node<T, D>,
    entry: LeafEntry<T, D>,
    params: &Params,
) -> (Node<T, D>, Option<Node<T, D>>) {
    match node {
        Node::Leaf(entries) => {
            let mut entries = entries.clone();
            entries.push(entry);
            if entries.len() > params.max_entries {
                let (a, b) = quadratic_split(entries, params.min_entries);
                (Node::Leaf(a), Some(Node::Leaf(b)))
            } else {
                (Node::Leaf(entries), None)
            }
        }
        Node::Internal(children) => {
            let idx = choose_subtree(children, &entry.rect);
            let (new_child, sibling) = insert_rec(&children[idx].node, entry, params);
            // Path copy: clone the child list (Arc bumps), then replace the
            // slot on the insertion path with its updated copy.
            let mut children = children.clone();
            children[idx] = Child {
                rect: new_child.mbr().expect("inserted child is non-empty"),
                node: Arc::new(new_child),
            };
            if let Some(sibling) = sibling {
                let rect = sibling.mbr().expect("split sibling is non-empty");
                children.push(Child {
                    rect,
                    node: Arc::new(sibling),
                });
                if children.len() > params.max_entries {
                    let (a, b) = quadratic_split(children, params.min_entries);
                    return (Node::Internal(a), Some(Node::Internal(b)));
                }
            }
            (Node::Internal(children), None)
        }
    }
}

/// Guttman ChooseLeaf criterion: least enlargement, ties by smallest area.
fn choose_subtree<T, const D: usize>(children: &[Child<T, D>], rect: &Rect<D>) -> usize {
    let mut best = 0;
    let mut best_growth = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, c) in children.iter().enumerate() {
        let growth = c.rect.enlargement(rect);
        let area = c.rect.area();
        if growth < best_growth || (growth == best_growth && area < best_area) {
            best = i;
            best_growth = growth;
            best_area = area;
        }
    }
    best
}

fn search_rec<'a, T, const D: usize>(
    node: &'a Node<T, D>,
    query: &Rect<D>,
    out: &mut Vec<(&'a Rect<D>, &'a T)>,
) {
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if e.rect.intersects(query) {
                    out.push((&e.rect, &e.item));
                }
            }
        }
        Node::Internal(children) => {
            for c in children {
                if c.rect.intersects(query) {
                    search_rec(&c.node, query, out);
                }
            }
        }
    }
}

/// Recursive path-copying delete with condense. Returns `None` when
/// nothing matched; otherwise the copied replacement node (`None` if this
/// node dissolved entirely) plus the removed item. Underfull children are
/// dissolved into `orphans` (their records *copied*, since the subtree may
/// be shared with older snapshots).
fn remove_rec<T: Clone, const D: usize, F: FnMut(&T) -> bool>(
    node: &Node<T, D>,
    rect: &Rect<D>,
    pred: &mut F,
    params: &Params,
    orphans: &mut Vec<LeafEntry<T, D>>,
) -> Option<(Option<Node<T, D>>, T)> {
    match node {
        Node::Leaf(entries) => {
            let pos = entries
                .iter()
                .position(|e| e.rect == *rect && pred(&e.item))?;
            let removed = entries[pos].item.clone();
            let remaining: Vec<LeafEntry<T, D>> = entries
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, e)| e.clone())
                .collect();
            Some((Some(Node::Leaf(remaining)), removed))
        }
        Node::Internal(children) => {
            for (i, child) in children.iter().enumerate() {
                // The target entry's rect is stored verbatim, so every
                // ancestor MBR *contains* it — containment (not mere
                // intersection) prunes here, which keeps deletion cost at
                // O(log n) even on densely overlapping data.
                if !child.rect.contains_rect(rect) {
                    continue;
                }
                if let Some((replacement, item)) =
                    remove_rec(&child.node, rect, pred, params, orphans)
                {
                    let mut children = children.clone();
                    match replacement {
                        // Dissolve an underfull *leaf* and reinsert its
                        // few records (copied — the shared original keeps
                        // its own). Underfull *internal* nodes are kept:
                        // dissolving one would reinsert a whole subtree —
                        // O(n) churn per delete on bad luck — so sparse
                        // internals are tolerated instead, exactly like
                        // STR bulk loading under-fills interior nodes.
                        Some(new_child @ Node::Leaf(_))
                            if new_child.slot_count() < params.min_entries =>
                        {
                            new_child.collect_records(orphans);
                            children.swap_remove(i);
                        }
                        Some(new_child) => {
                            children[i] = Child {
                                rect: new_child.mbr().expect("filled child has an MBR"),
                                node: Arc::new(new_child),
                            };
                        }
                        None => {
                            children.swap_remove(i);
                        }
                    }
                    if children.is_empty() {
                        return Some((None, item));
                    }
                    return Some((Some(Node::Internal(children)), item));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval_tree(ranges: &[(f64, f64)]) -> RTree<usize, 1> {
        let mut t = RTree::default();
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            t.insert(Rect::interval(lo, hi), i);
        }
        t
    }

    /// Collect the raw node pointers of every node in the tree.
    fn node_ptrs(t: &RTree<usize, 1>) -> Vec<*const Node<usize, 1>> {
        fn walk(node: &Arc<Node<usize, 1>>, out: &mut Vec<*const Node<usize, 1>>) {
            out.push(Arc::as_ptr(node));
            if let Node::Internal(children) = &**node {
                for c in children {
                    walk(&c.node, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&t.root, &mut out);
        out
    }

    #[test]
    fn stats_count_nodes_leaves_and_entries() {
        let t = interval_tree(
            &(0..100)
                .map(|i| (i as f64, i as f64 + 0.5))
                .collect::<Vec<_>>(),
        );
        let s = t.stats();
        assert_eq!(s.nodes, t.root.node_count());
        assert_eq!(s.leaf_entries, t.len());
        assert!(s.leaves >= 1 && s.leaves <= s.nodes);
        let fill = s.leaf_fill(t.params().max_entries);
        assert!(fill > 0.0 && fill <= 1.0, "fill = {fill}");
        // Empty tree: zero entries, fill reported as 0.
        let empty: RTree<usize, 1> = RTree::default();
        assert_eq!(empty.stats().leaf_entries, 0);
        assert_eq!(empty.stats().leaf_fill(empty.params().max_entries), 0.0);
    }

    #[test]
    fn insert_and_search_small() {
        let t = interval_tree(&[(0.0, 1.0), (2.0, 3.0), (2.5, 4.0), (10.0, 12.0)]);
        assert_eq!(t.len(), 4);
        let hits: Vec<usize> = t
            .search_intersecting(&Rect::interval(2.6, 3.5))
            .into_iter()
            .map(|(_, &i)| i)
            .collect();
        let mut hits = hits;
        hits.sort_unstable();
        assert_eq!(hits, vec![1, 2]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn grows_through_splits_and_stays_consistent() {
        let ranges: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = (i * 37 % 1000) as f64;
                (x, x + 5.0)
            })
            .collect();
        let t = interval_tree(&ranges);
        assert_eq!(t.len(), 500);
        assert!(t.root.height() > 1);
        t.check_invariants().unwrap();
        // Every inserted item must be findable via its own rect.
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let hits = t.search_intersecting(&Rect::interval(lo, hi));
            assert!(hits.iter().any(|(_, &id)| id == i), "item {i} not found");
        }
    }

    #[test]
    fn bulk_load_matches_incremental_search_results() {
        let ranges: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let x = ((i * 61) % 777) as f64;
                (x, x + 3.0)
            })
            .collect();
        let incremental = interval_tree(&ranges);
        let packed = RTree::bulk_load(
            ranges
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| (Rect::interval(lo, hi), i))
                .collect(),
        );
        packed.check_invariants().err(); // packed trees may under-fill interior nodes; only check consistency below
        for q in [(0.0, 10.0), (100.0, 120.0), (770.0, 800.0), (-5.0, -1.0)] {
            let rect = Rect::interval(q.0, q.1);
            let mut a: Vec<usize> = incremental
                .search_intersecting(&rect)
                .into_iter()
                .map(|(_, &i)| i)
                .collect();
            let mut b: Vec<usize> = packed
                .search_intersecting(&rect)
                .into_iter()
                .map(|(_, &i)| i)
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q:?}");
        }
    }

    #[test]
    fn remove_deletes_exactly_one_and_keeps_invariants() {
        let ranges: Vec<(f64, f64)> = (0..200).map(|i| (i as f64, i as f64 + 1.5)).collect();
        let mut t = interval_tree(&ranges);
        for i in (0..200).step_by(3) {
            let rect = Rect::interval(i as f64, i as f64 + 1.5);
            let removed = t.remove_one(&rect, |&id| id == i);
            assert_eq!(removed, Some(i));
        }
        assert_eq!(t.len(), 200 - 67);
        t.check_invariants().unwrap();
        // Removed items are gone; survivors remain.
        for i in 0..200 {
            let rect = Rect::interval(i as f64, i as f64 + 1.5);
            let found = t.search_intersecting(&rect).iter().any(|(_, &id)| id == i);
            assert_eq!(found, i % 3 != 0, "item {i}");
        }
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut t = interval_tree(&[(0.0, 1.0)]);
        assert_eq!(t.remove_one(&Rect::interval(5.0, 6.0), |_| true), None);
        assert_eq!(t.remove_one(&Rect::interval(0.0, 1.0), |_| false), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: RTree<usize, 1> = RTree::default();
        assert!(t.is_empty());
        assert_eq!(t.mbr(), None);
        assert!(t.search_intersecting(&Rect::interval(0.0, 1.0)).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn for_each_visits_everything() {
        let t = interval_tree(&[(0.0, 1.0), (5.0, 6.0), (9.0, 11.0)]);
        let mut seen = Vec::new();
        t.for_each(|_, &i| seen.push(i));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn with_inserted_leaves_the_original_untouched() {
        let ranges: Vec<(f64, f64)> = (0..64)
            .map(|i| (i as f64 * 4.0, i as f64 * 4.0 + 3.0))
            .collect();
        let old = interval_tree(&ranges);
        let new = old.with_inserted(Rect::interval(13.0, 14.0), 999);
        assert_eq!(old.len(), 64);
        assert_eq!(new.len(), 65);
        old.check_invariants().unwrap();
        new.check_invariants().unwrap();
        let probe = Rect::interval(13.2, 13.8);
        assert!(!old
            .search_intersecting(&probe)
            .iter()
            .any(|(_, &i)| i == 999));
        assert!(new
            .search_intersecting(&probe)
            .iter()
            .any(|(_, &i)| i == 999));
    }

    #[test]
    fn path_copy_shares_all_off_path_subtrees() {
        // 4096 records at fan-out 16 → height ≥ 3: an update must copy at
        // most one path of nodes, sharing everything else.
        let ranges: Vec<(f64, f64)> = (0..4096)
            .map(|i| {
                let x = ((i * 37) % 16384) as f64;
                (x, x + 2.0)
            })
            .collect();
        let old = interval_tree(&ranges);
        assert!(old.root.height() >= 3, "height {}", old.root.height());
        let new = old.with_inserted(Rect::interval(100.0, 101.0), 9999);
        let old_nodes: std::collections::HashSet<_> = node_ptrs(&old).into_iter().collect();
        let new_nodes = node_ptrs(&new);
        let fresh = new_nodes.iter().filter(|p| !old_nodes.contains(*p)).count();
        // Only the root-to-leaf insertion path (± one split) is new.
        assert!(
            fresh <= new.root.height() + 2,
            "{fresh} fresh nodes for a height-{} tree",
            new.root.height()
        );
        assert!(
            fresh >= new.root.height().min(2),
            "no path was copied at all?"
        );

        // And a remove shares the same way (condense may add a few more
        // copied nodes through orphan reinsertion).
        let (after, removed) = new.with_removed(&Rect::interval(100.0, 101.0), |&i| i == 9999);
        assert_eq!(removed, Some(9999));
        let new_set: std::collections::HashSet<_> = node_ptrs(&new).into_iter().collect();
        let fresh_after = node_ptrs(&after)
            .iter()
            .filter(|p| !new_set.contains(*p))
            .count();
        assert!(
            fresh_after <= 3 * after.root.height(),
            "{fresh_after} fresh nodes after remove (height {})",
            after.root.height()
        );
    }

    #[test]
    fn old_snapshots_answer_after_later_updates() {
        let ranges: Vec<(f64, f64)> = (0..128)
            .map(|i| (i as f64 * 3.0, i as f64 * 3.0 + 2.0))
            .collect();
        let v0 = interval_tree(&ranges);
        let mut snapshots = vec![v0.clone()];
        let mut cur = v0;
        for i in 0..40 {
            cur = if i % 3 == 2 {
                let victim = i * 2;
                let rect = Rect::interval(victim as f64 * 3.0, victim as f64 * 3.0 + 2.0);
                let (next, removed) = cur.with_removed(&rect, |&id| id == victim);
                assert_eq!(removed, Some(victim));
                next
            } else {
                cur.with_inserted(
                    Rect::interval(1000.0 + i as f64, 1001.0 + i as f64),
                    500 + i,
                )
            };
            snapshots.push(cur.clone());
        }
        // The original snapshot still answers exactly as a fresh build.
        let fresh = interval_tree(&ranges);
        for q in [(0.0, 10.0), (100.0, 130.0), (1000.0, 1050.0)] {
            let rect = Rect::interval(q.0, q.1);
            let norm = |t: &RTree<usize, 1>| {
                let mut v: Vec<usize> = t
                    .search_intersecting(&rect)
                    .into_iter()
                    .map(|(_, &i)| i)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(norm(&snapshots[0]), norm(&fresh), "q = {q:?}");
        }
        for s in &snapshots {
            s.check_invariants().unwrap();
        }
    }

    #[test]
    fn clone_is_the_same_snapshot_until_updated() {
        let t = interval_tree(&[(0.0, 1.0), (2.0, 3.0)]);
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.root, &c.root));
        let u = c.with_inserted(Rect::interval(5.0, 6.0), 7);
        assert!(!Arc::ptr_eq(&t.root, &u.root));
        assert_eq!(t.len(), 2);
        assert_eq!(u.len(), 3);
    }

    /// The storage layer's usage pattern: bulk build, path-copying insert
    /// and remove that leave older handles intact, then filter, mbr,
    /// intersection search and a full visit on the result.
    #[test]
    fn bulk_built_tree_serves_the_store_round_trip() {
        let idx = RTree::bulk_load_with(
            (0..50)
                .map(|i| (Rect::interval(i as f64, i as f64 + 0.5), i))
                .collect(),
            Params::default(),
        );
        assert_eq!(idx.len(), 50);
        let grown = idx.with_inserted(Rect::interval(7.1, 7.2), 999);
        assert_eq!(idx.len(), 50, "original snapshot untouched");
        assert_eq!(grown.len(), 51);
        let (shrunk, removed) = grown.with_removed(&Rect::interval(7.1, 7.2), |&i| i == 999);
        assert_eq!(removed, Some(999));
        assert_eq!(grown.len(), 51, "grown snapshot untouched");
        assert_eq!(shrunk.len(), 50);
        let (cands, stats) = shrunk.pnn_candidates_k(&[7.25], 1);
        assert!(!cands.is_empty());
        assert!(stats.fmin.is_finite());
        let mut seen = 0usize;
        shrunk.for_each(|_, _| seen += 1);
        assert_eq!(seen, 50);
        assert!(shrunk.mbr().is_some());
        assert!(!shrunk
            .search_intersecting(&Rect::interval(3.0, 4.0))
            .is_empty());
    }
}
