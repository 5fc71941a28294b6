//! Property tests: the R-tree must agree with brute force on every
//! operation, for arbitrary inputs.

use cpnn_rtree::{Params, RTree, Rect};
use proptest::prelude::*;

/// Strategy: a list of random 1-D intervals in [-100, 100].
fn intervals(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-100.0f64..100.0, 0.01f64..20.0), 1..max_len)
        .prop_map(|v| v.into_iter().map(|(lo, w)| (lo, lo + w)).collect())
}

fn build(ranges: &[(f64, f64)]) -> RTree<usize, 1> {
    let mut t = RTree::new(Params::new(8, 3));
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        t.insert(Rect::interval(lo, hi), i);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn range_search_matches_brute_force(
        ranges in intervals(200),
        q_lo in -120.0f64..120.0,
        q_w in 0.0f64..50.0,
    ) {
        let tree = build(&ranges);
        prop_assert!(tree.check_invariants().is_ok());
        let query = Rect::interval(q_lo, q_lo + q_w);
        let mut got: Vec<usize> = tree
            .search_intersecting(&query)
            .into_iter()
            .map(|(_, &i)| i)
            .collect();
        got.sort_unstable();
        let want: Vec<usize> = ranges
            .iter()
            .enumerate()
            .filter(|(_, &(lo, hi))| lo <= q_lo + q_w && q_lo <= hi)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bulk_load_equals_incremental(ranges in intervals(150), q in -120.0f64..120.0) {
        let incr = build(&ranges);
        let packed = RTree::bulk_load(
            ranges.iter().enumerate().map(|(i, &(lo, hi))| (Rect::interval(lo, hi), i)).collect(),
        );
        prop_assert_eq!(incr.len(), packed.len());
        let query = Rect::interval(q, q + 10.0);
        let norm = |mut v: Vec<usize>| { v.sort_unstable(); v };
        let a = norm(incr.search_intersecting(&query).into_iter().map(|(_, &i)| i).collect());
        let b = norm(packed.search_intersecting(&query).into_iter().map(|(_, &i)| i).collect());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn pnn_filter_matches_brute_force(ranges in intervals(150), q in -120.0f64..120.0) {
        let tree = build(&ranges);
        let (cands, stats) = tree.pnn_candidates(&[q]);
        let mut got: Vec<usize> = cands.iter().map(|c| *c.item).collect();
        got.sort_unstable();

        let near = |&(lo, hi): &(f64, f64)| if q >= lo && q <= hi { 0.0 } else { (lo - q).abs().min((q - hi).abs()) };
        let far = |&(lo, hi): &(f64, f64)| (q - lo).abs().max((q - hi).abs());
        let fmin = ranges.iter().map(far).fold(f64::INFINITY, f64::min);
        let want: Vec<usize> = ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| near(r) <= fmin)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!((stats.fmin - fmin).abs() < 1e-9);
    }

    #[test]
    fn insert_then_remove_everything_leaves_empty_tree(ranges in intervals(80)) {
        let mut tree = build(&ranges);
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let removed = tree.remove_one(&Rect::interval(lo, hi), |&id| id == i);
            prop_assert_eq!(removed, Some(i));
            prop_assert!(tree.check_invariants().is_ok());
        }
        prop_assert!(tree.is_empty());
    }

    /// Persistent snapshots: an interleaved insert/remove sequence applied
    /// through path-copying handles must (a) agree with brute force on the
    /// final contents and (b) leave every intermediate snapshot answering
    /// exactly for its own historical contents.
    #[test]
    fn path_copied_snapshots_answer_their_history(
        ranges in intervals(100),
        extra in prop::collection::vec((-100.0f64..100.0, 0.01f64..20.0), 1..30),
        q_lo in -120.0f64..120.0,
    ) {
        let tree = build(&ranges);
        // live[id] = rect currently stored under id (ids: base set 0..n,
        // inserts n..n+extra).
        let mut live: Vec<Option<(f64, f64)>> = ranges.iter().map(|r| Some(*r)).collect();
        let mut snapshots = vec![(tree.clone(), live.clone())];
        let mut cur = tree;
        for (j, &(lo, w)) in extra.iter().enumerate() {
            let id = ranges.len() + j;
            cur = cur.with_inserted(Rect::interval(lo, lo + w), id);
            live.push(Some((lo, lo + w)));
            // Every third step also removes the oldest still-live entry.
            if j % 3 == 2 {
                if let Some(victim) = live.iter().position(|r| r.is_some()) {
                    let (vlo, vhi) = live[victim].unwrap();
                    let (next, removed) =
                        cur.with_removed(&Rect::interval(vlo, vhi), |&i| i == victim);
                    prop_assert_eq!(removed, Some(victim));
                    cur = next;
                    live[victim] = None;
                }
            }
            snapshots.push((cur.clone(), live.clone()));
        }
        let query = Rect::interval(q_lo, q_lo + 15.0);
        for (v, (snap, contents)) in snapshots.iter().enumerate() {
            prop_assert!(snap.check_invariants().is_ok(), "version {}", v);
            let mut got: Vec<usize> = snap
                .search_intersecting(&query)
                .into_iter()
                .map(|(_, &i)| i)
                .collect();
            got.sort_unstable();
            let want: Vec<usize> = contents
                .iter()
                .enumerate()
                .filter_map(|(i, r)| {
                    r.and_then(|(lo, hi)| {
                        (lo <= q_lo + 15.0 && q_lo <= hi).then_some(i)
                    })
                })
                .collect();
            prop_assert_eq!(got, want, "version {} diverged from its history", v);
        }
    }

    #[test]
    fn two_dimensional_search_matches_brute_force(
        boxes in prop::collection::vec(
            (-50.0f64..50.0, -50.0f64..50.0, 0.1f64..10.0, 0.1f64..10.0),
            1..120,
        ),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        qw in 0.0f64..30.0,
    ) {
        let rects: Vec<Rect<2>> = boxes
            .iter()
            .map(|&(x, y, w, h)| Rect::new([x, y], [x + w, y + h]))
            .collect();
        let mut tree: RTree<usize, 2> = RTree::new(Params::new(8, 3));
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        prop_assert!(tree.check_invariants().is_ok());
        let query = Rect::new([qx, qy], [qx + qw, qy + qw]);
        let mut got: Vec<usize> = tree
            .search_intersecting(&query)
            .into_iter()
            .map(|(_, &i)| i)
            .collect();
        got.sort_unstable();
        let want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
        // And the 2-D PNN filter agrees with brute force.
        let q = [qx, qy];
        let (cands, stats) = tree.pnn_candidates(&q);
        let fmin = rects.iter().map(|r| r.max_dist(&q)).fold(f64::INFINITY, f64::min);
        let mut got: Vec<usize> = cands.iter().map(|c| *c.item).collect();
        got.sort_unstable();
        let want: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.min_dist(&q) <= fmin)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!((stats.fmin - fmin).abs() < 1e-9);
    }
}
