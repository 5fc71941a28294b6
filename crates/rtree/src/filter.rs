//! The PNN **filtering** phase (paper Sec. III, after \[8\]).
//!
//! Any object whose minimum possible distance from `q` exceeds `fmin` — the
//! smallest *maximum* distance among all objects — has zero qualification
//! probability: the object realizing `fmin` is certainly closer. Filtering
//! therefore returns the *candidate set*
//! `C = { Xi : min_dist(q, Ui) ≤ min_k max_dist(q, Uk) }`
//! in a single best-first traversal, pruning subtrees by the running `fmin`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::node::Node;
use crate::tree::RTree;

/// One member of the candidate set, with the distance bounds the later
/// phases (subregion construction) need.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a, T, const D: usize> {
    /// The stored item.
    pub item: &'a T,
    /// Near point `ni = min_dist(q, Ui)`.
    pub(crate) near: f64,
}

/// Total-ordered f64 for use in heaps (distances are never NaN here).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

struct QueueItem<'a, T, const D: usize> {
    min_dist: f64,
    node: &'a Node<T, D>,
}

impl<T, const D: usize> PartialEq for QueueItem<'_, T, D> {
    fn eq(&self, other: &Self) -> bool {
        self.min_dist == other.min_dist
    }
}
impl<T, const D: usize> Eq for QueueItem<'_, T, D> {}
impl<T, const D: usize> PartialOrd for QueueItem<'_, T, D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, const D: usize> Ord for QueueItem<'_, T, D> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.min_dist.total_cmp(&self.min_dist)
    }
}

/// Statistics from one filtering pass (reported in Fig. 9-style analyses).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FilterStats {
    /// Nodes popped from the priority queue.
    pub nodes_visited: usize,
    /// Leaf records inspected.
    pub records_inspected: usize,
    /// Final pruning distance `fmin`.
    pub fmin: f64,
}

impl<T, const D: usize> RTree<T, D> {
    /// Compute the PNN candidate set for query point `q`.
    ///
    /// Returns candidates (in arbitrary order) plus traversal statistics.
    /// The true `fmin` is in [`FilterStats::fmin`]; every returned candidate
    /// satisfies `near ≤ fmin`, and every pruned object provably has zero
    /// qualification probability.
    pub fn pnn_candidates(&self, q: &[f64; D]) -> (Vec<Candidate<'_, T, D>>, FilterStats) {
        self.pnn_candidates_k(q, 1)
    }

    /// k-NN generalization of the filter (the paper's future-work
    /// direction): prune by `fmin_k`, the `k`-th smallest max-distance.
    /// Any object farther than `fmin_k` has at least `k` objects certainly
    /// closer, so its probability of being among the `k` nearest is zero.
    pub fn pnn_candidates_k(
        &self,
        q: &[f64; D],
        k: usize,
    ) -> (Vec<Candidate<'_, T, D>>, FilterStats) {
        let k = k.max(1);
        let mut stats = FilterStats {
            fmin: f64::INFINITY,
            ..Default::default()
        };
        let mut collected: Vec<Candidate<'_, T, D>> = Vec::new();
        if self.is_empty() {
            return (collected, stats);
        }
        // Max-heap of the k smallest record far-distances seen so far;
        // its top is the current pruning horizon fmin_k. Only *record*
        // far-distances enter (node MBR far-distances are upper bounds for
        // a single record, not k of them, unless the node holds ≥ k records
        // — a refinement we skip for clarity).
        let mut kth: BinaryHeap<OrdF64> = BinaryHeap::new();
        let horizon = |kth: &BinaryHeap<OrdF64>| {
            if kth.len() == k {
                kth.peek().expect("non-empty").0
            } else {
                f64::INFINITY
            }
        };
        let mut heap = BinaryHeap::new();
        heap.push(QueueItem {
            min_dist: 0.0,
            node: self.root(),
        });
        while let Some(QueueItem { min_dist, node }) = heap.pop() {
            // Pops arrive in ascending min_dist; once past the horizon
            // nothing else can be a candidate.
            if min_dist > horizon(&kth) {
                break;
            }
            stats.nodes_visited += 1;
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        stats.records_inspected += 1;
                        let near = e.rect.min_dist(q);
                        if near <= horizon(&kth) {
                            let far = e.rect.max_dist(q);
                            if kth.len() < k {
                                kth.push(OrdF64(far));
                            } else if far < kth.peek().expect("non-empty").0 {
                                kth.pop();
                                kth.push(OrdF64(far));
                            }
                            collected.push(Candidate {
                                item: &e.item,
                                near,
                            });
                        }
                    }
                }
                Node::Internal(children) => {
                    for c in children {
                        let nd = c.rect.min_dist(q);
                        if nd <= horizon(&kth) {
                            heap.push(QueueItem {
                                min_dist: nd,
                                node: &c.node,
                            });
                        }
                    }
                }
            }
        }
        stats.fmin = horizon(&kth);
        // The horizon may have shrunk after a candidate was collected.
        collected.retain(|c| c.near <= stats.fmin);
        (collected, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    fn build(ranges: &[(f64, f64)]) -> RTree<usize, 1> {
        RTree::bulk_load(
            ranges
                .iter()
                .enumerate()
                .map(|(i, &(lo, hi))| (Rect::interval(lo, hi), i))
                .collect(),
        )
    }

    /// Brute-force reference implementation of the pruning rule.
    fn brute_candidates(ranges: &[(f64, f64)], q: f64) -> Vec<usize> {
        let far = |&(lo, hi): &(f64, f64)| (q - lo).abs().max((q - hi).abs());
        let near = |&(lo, hi): &(f64, f64)| {
            if q >= lo && q <= hi {
                0.0
            } else {
                (lo - q).abs().min((q - hi).abs())
            }
        };
        let fmin = ranges.iter().map(far).fold(f64::INFINITY, f64::min);
        ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| near(r) <= fmin)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn empty_tree_has_no_candidates() {
        let t: RTree<usize, 1> = RTree::default();
        let (c, s) = t.pnn_candidates(&[0.0]);
        assert!(c.is_empty());
        assert_eq!(s.fmin, f64::INFINITY);
    }

    #[test]
    fn single_object_is_its_own_candidate() {
        let t = build(&[(5.0, 7.0)]);
        let (c, s) = t.pnn_candidates(&[0.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].near, 5.0);
        assert_eq!(s.fmin, 7.0);
    }

    #[test]
    fn far_objects_are_pruned() {
        // Object 0 tightly brackets q; object 2 is far away.
        let t = build(&[(0.9, 1.1), (0.5, 2.0), (50.0, 51.0)]);
        let (c, _) = t.pnn_candidates(&[1.0]);
        let mut ids: Vec<usize> = c.iter().map(|c| *c.item).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn matches_brute_force_on_dense_overlaps() {
        let ranges: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = ((i * 131) % 997) as f64 / 10.0;
                let w = 1.0 + ((i * 17) % 23) as f64 / 4.0;
                (x, x + w)
            })
            .collect();
        let t = build(&ranges);
        for q in [0.0, 13.7, 50.0, 99.0, 120.0] {
            let (c, stats) = t.pnn_candidates(&[q]);
            let mut got: Vec<usize> = c.iter().map(|c| *c.item).collect();
            got.sort_unstable();
            let want = brute_candidates(&ranges, q);
            assert_eq!(got, want, "q = {q}");
            assert!(stats.nodes_visited >= 1);
            // Candidate bounds must be consistent.
            for cand in &c {
                let (lo, hi) = ranges[*cand.item];
                assert!(cand.near <= (q - lo).abs().max((q - hi).abs()));
                assert!(cand.near <= stats.fmin);
            }
        }
    }

    #[test]
    fn k_filter_matches_brute_force() {
        let ranges: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let x = ((i * 113) % 991) as f64 / 5.0;
                (x, x + 1.0 + ((i * 7) % 13) as f64)
            })
            .collect();
        let t = build(&ranges);
        let near = |&(lo, hi): &(f64, f64), q: f64| {
            if q >= lo && q <= hi {
                0.0
            } else {
                (lo - q).abs().min((q - hi).abs())
            }
        };
        let far = |&(lo, hi): &(f64, f64), q: f64| (q - lo).abs().max((q - hi).abs());
        for q in [0.0, 50.0, 120.0, 199.0] {
            for k in [1usize, 2, 3, 8] {
                let (c, stats) = t.pnn_candidates_k(&[q], k);
                let mut got: Vec<usize> = c.iter().map(|c| *c.item).collect();
                got.sort_unstable();
                let mut fars: Vec<f64> = ranges.iter().map(|r| far(r, q)).collect();
                fars.sort_by(f64::total_cmp);
                let fmin_k = fars[k - 1];
                let want: Vec<usize> = ranges
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| near(r, q) <= fmin_k)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(got, want, "q = {q}, k = {k}");
                assert!((stats.fmin - fmin_k).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn k_filter_with_k_one_equals_pnn_filter() {
        let ranges = vec![(0.0, 3.0), (1.0, 6.0), (10.0, 12.0), (2.5, 4.0)];
        let t = build(&ranges);
        let (a, sa) = t.pnn_candidates(&[2.0]);
        let (b, sb) = t.pnn_candidates_k(&[2.0], 1);
        let ids = |v: &[Candidate<'_, usize, 1>]| {
            let mut out: Vec<usize> = v.iter().map(|c| *c.item).collect();
            out.sort_unstable();
            out
        };
        assert_eq!(ids(&a), ids(&b));
        assert_eq!(sa.fmin, sb.fmin);
    }

    #[test]
    fn candidate_containing_fmin_object_is_kept() {
        // The object with the smallest far point must always be a candidate.
        let ranges = vec![(10.0, 11.0), (10.5, 30.0), (9.0, 40.0)];
        let t = build(&ranges);
        let (c, s) = t.pnn_candidates(&[10.2]);
        assert!((s.fmin - 0.8).abs() < 1e-12);
        let ids: Vec<usize> = c.iter().map(|c| *c.item).collect();
        assert!(ids.contains(&0));
    }
}
