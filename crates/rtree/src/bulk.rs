//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Packs `n` records into `⌈n/M⌉` full leaves by recursively slicing the
//! data into slabs along each dimension, then builds the upper levels the
//! same way. Produces a tree with ~100% leaf fill, which is what the paper's
//! static Long Beach workload wants.

use std::sync::Arc;

use crate::node::{Bounded, Child, LeafEntry, Node, Params};

/// Build a packed tree from `records`, returning the root node.
pub(crate) fn str_bulk_load<T, const D: usize>(
    records: Vec<LeafEntry<T, D>>,
    params: &Params,
) -> Node<T, D> {
    if records.is_empty() {
        return Node::empty();
    }
    let cap = params.max_entries;
    // Pack records into leaves.
    let mut level: Vec<Node<T, D>> = str_partition(records, cap, 0)
        .into_iter()
        .map(Node::Leaf)
        .collect();
    // Pack nodes upward until a single root remains.
    while level.len() > 1 {
        let children: Vec<Child<T, D>> = level
            .into_iter()
            .map(|node| Child {
                rect: node.mbr().expect("packed nodes are non-empty"),
                node: Arc::new(node),
            })
            .collect();
        level = str_partition(children, cap, 0)
            .into_iter()
            .map(Node::Internal)
            .collect();
    }
    level.pop().expect("at least one node")
}

/// Recursively tile `items` into groups of at most `cap`, slicing along
/// dimension `dim` first.
fn str_partition<E: Bounded<D>, const D: usize>(
    mut items: Vec<E>,
    cap: usize,
    dim: usize,
) -> Vec<Vec<E>> {
    let n = items.len();
    if n <= cap {
        return vec![items];
    }
    let leaves_needed = n.div_ceil(cap);
    if dim + 1 == D {
        // Last dimension: chunk sequentially.
        sort_by_center(&mut items, dim);
        return chunk(items, cap);
    }
    // Number of slabs along this dimension ~ P^(1/k) for k remaining dims.
    let k = (D - dim) as f64;
    let slabs = (leaves_needed as f64).powf(1.0 / k).ceil() as usize;
    let slab_size = n.div_ceil(slabs.max(1));
    sort_by_center(&mut items, dim);
    let mut out = Vec::new();
    for slab in chunk(items, slab_size) {
        out.extend(str_partition(slab, cap, dim + 1));
    }
    out
}

fn sort_by_center<E: Bounded<D>, const D: usize>(items: &mut [E], dim: usize) {
    items.sort_by(|a, b| a.bounds().center()[dim].total_cmp(&b.bounds().center()[dim]));
}

fn chunk<E>(items: Vec<E>, size: usize) -> Vec<Vec<E>> {
    let mut out = Vec::with_capacity(items.len().div_ceil(size));
    let mut cur = Vec::with_capacity(size);
    for it in items {
        cur.push(it);
        if cur.len() == size {
            out.push(std::mem::replace(&mut cur, Vec::with_capacity(size)));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    fn records_1d(n: usize) -> Vec<LeafEntry<usize, 1>> {
        (0..n)
            .map(|i| LeafEntry {
                rect: Rect::interval(i as f64, i as f64 + 0.5),
                item: i,
            })
            .collect()
    }

    #[test]
    fn empty_input_gives_empty_leaf() {
        let root: Node<usize, 1> = str_bulk_load(Vec::new(), &Params::default());
        assert_eq!(root.record_count(), 0);
        assert_eq!(root.height(), 1);
    }

    #[test]
    fn all_records_survive_packing() {
        let root = str_bulk_load(records_1d(1000), &Params::default());
        assert_eq!(root.record_count(), 1000);
    }

    #[test]
    fn packed_tree_is_shallow_and_full() {
        let params = Params::default();
        let root = str_bulk_load(records_1d(1000), &params);
        // 1000 records at fan-out 16: leaves = 63, level2 = 4, root. Height 3.
        assert_eq!(root.height(), 3);
        // Leaf fill should be near 100%: node count close to the minimum.
        let min_nodes = 63 + 4 + 1;
        assert!(
            root.node_count() <= min_nodes + 3,
            "node count {} too high",
            root.node_count()
        );
    }

    #[test]
    fn packs_2d_grids() {
        let records: Vec<LeafEntry<usize, 2>> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                LeafEntry {
                    rect: Rect::new([x, y], [x + 0.5, y + 0.5]),
                    item: i,
                }
            })
            .collect();
        let root = str_bulk_load(records, &Params::default());
        assert_eq!(root.record_count(), 400);
        assert!(root.height() >= 2);
    }
}
