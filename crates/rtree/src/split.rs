//! Guttman's quadratic node split.
//!
//! When a node overflows, pick the two entries that would waste the most
//! area if grouped together as seeds, then assign the rest greedily to the
//! group whose MBR grows least, forcing assignment when a group must absorb
//! all remaining entries to reach the minimum fill.

use crate::geometry::Rect;
use crate::node::Bounded;

/// Split `entries` (which has overflowed) into two groups, each with at
/// least `min_fill` entries.
pub(crate) fn quadratic_split<E: Bounded<D>, const D: usize>(
    mut entries: Vec<E>,
    min_fill: usize,
) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() >= 2);
    debug_assert!(2 * min_fill <= entries.len());

    let (seed_a, seed_b) = pick_seeds(&entries);
    // Remove the later index first so the earlier stays valid.
    let (hi, lo) = if seed_a > seed_b {
        (seed_a, seed_b)
    } else {
        (seed_b, seed_a)
    };
    let e_hi = entries.swap_remove(hi);
    let e_lo = entries.swap_remove(lo);

    let mut rect_a = e_lo.bounds();
    let mut rect_b = e_hi.bounds();
    let mut group_a = vec![e_lo];
    let mut group_b = vec![e_hi];

    while let Some(idx) = pick_next(&entries, &rect_a, &rect_b) {
        let remaining = entries.len();
        // Forced assignment: a group must take everything left to reach fill.
        if group_a.len() + remaining == min_fill {
            for e in entries.drain(..) {
                rect_a = rect_a.union(&e.bounds());
                group_a.push(e);
            }
            break;
        }
        if group_b.len() + remaining == min_fill {
            for e in entries.drain(..) {
                rect_b = rect_b.union(&e.bounds());
                group_b.push(e);
            }
            break;
        }

        let e = entries.swap_remove(idx);
        let r = e.bounds();
        let grow_a = rect_a.enlargement(&r);
        let grow_b = rect_b.enlargement(&r);
        let to_a = match grow_a.partial_cmp(&grow_b) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => match rect_a.area().partial_cmp(&rect_b.area()) {
                Some(std::cmp::Ordering::Less) => true,
                Some(std::cmp::Ordering::Greater) => false,
                _ => group_a.len() <= group_b.len(),
            },
        };
        if to_a {
            rect_a = rect_a.union(&r);
            group_a.push(e);
        } else {
            rect_b = rect_b.union(&r);
            group_b.push(e);
        }
    }
    (group_a, group_b)
}

/// PickSeeds: the pair wasting the most area when joined.
fn pick_seeds<E: Bounded<D>, const D: usize>(entries: &[E]) -> (usize, usize) {
    let mut best = (0, 1);
    let mut best_waste = f64::NEG_INFINITY;
    for (i, ei) in entries.iter().enumerate() {
        let ri = ei.bounds();
        for (j, ej) in entries.iter().enumerate().skip(i + 1) {
            let rj = ej.bounds();
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > best_waste {
                best_waste = waste;
                best = (i, j);
            }
        }
    }
    best
}

/// PickNext: the entry with the strongest preference between the two groups.
fn pick_next<E: Bounded<D>, const D: usize>(
    entries: &[E],
    rect_a: &Rect<D>,
    rect_b: &Rect<D>,
) -> Option<usize> {
    if entries.is_empty() {
        return None;
    }
    let mut best = 0;
    let mut best_pref = f64::NEG_INFINITY;
    for (i, e) in entries.iter().enumerate() {
        let r = e.bounds();
        let pref = (rect_a.enlargement(&r) - rect_b.enlargement(&r)).abs();
        if pref > best_pref {
            best_pref = pref;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::LeafEntry;

    fn entry(lo: f64, hi: f64, id: usize) -> LeafEntry<usize, 1> {
        LeafEntry {
            rect: Rect::interval(lo, hi),
            item: id,
        }
    }

    #[test]
    fn split_separates_distant_clusters() {
        // Two obvious clusters: around 0 and around 100.
        let entries = vec![
            entry(0.0, 1.0, 0),
            entry(0.5, 1.5, 1),
            entry(100.0, 101.0, 2),
            entry(100.5, 101.5, 3),
            entry(1.0, 2.0, 4),
            entry(101.0, 102.0, 5),
        ];
        let (a, b) = quadratic_split(entries, 2);
        let (left, right): (Vec<usize>, Vec<usize>) = {
            let ids = |g: &[LeafEntry<usize, 1>]| g.iter().map(|e| e.item).collect::<Vec<_>>();
            let (mut ia, mut ib) = (ids(&a), ids(&b));
            ia.sort_unstable();
            ib.sort_unstable();
            if ia.contains(&0) {
                (ia, ib)
            } else {
                (ib, ia)
            }
        };
        assert_eq!(left, vec![0, 1, 4]);
        assert_eq!(right, vec![2, 3, 5]);
    }

    #[test]
    fn split_respects_min_fill() {
        // Pathological: all entries identical; forced assignment must still
        // give each side at least min_fill.
        let entries: Vec<_> = (0..10).map(|i| entry(0.0, 1.0, i)).collect();
        let (a, b) = quadratic_split(entries, 4);
        assert!(a.len() >= 4, "group a has {}", a.len());
        assert!(b.len() >= 4, "group b has {}", b.len());
        assert_eq!(a.len() + b.len(), 10);
    }

    #[test]
    fn split_preserves_all_entries() {
        let entries: Vec<_> = (0..20)
            .map(|i| entry(i as f64 * 3.0, i as f64 * 3.0 + 2.0, i))
            .collect();
        let (a, b) = quadratic_split(entries, 8);
        let mut ids: Vec<usize> = a.iter().chain(b.iter()).map(|e| e.item).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }
}
