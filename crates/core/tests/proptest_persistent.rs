//! Properties of the persistent (path-copying) storage stack on random
//! workloads:
//!
//! 1. **persistent ≡ bulk-rebuilt** — an interleaved insert/remove
//!    sequence applied through path-copying updates yields query results
//!    bit-identical to a fresh bulk-load of the same final object set,
//!    for 1-D, 2-D, k-NN, and sharded databases;
//! 2. **old-snapshot safety** — handles pinned before later updates keep
//!    answering exactly as a fresh build of their historical contents
//!    (structural sharing never lets a newer version bleed into an older
//!    one);
//! 3. **server path-copy atomicity** — a `QueryServer` applying the same
//!    op sequence (direct and write-coalesced) serves every response
//!    exactly as sequential evaluation against the snapshot version it
//!    cites.

use cpnn_core::pipeline::{cpnn, PipelineConfig};
use cpnn_core::{
    CowModel, CpnnQuery, CpnnResult, Object2d, ObjectId, QuerySpec, ShardBalance, ShardedDb,
    Strategy, UncertainDb, UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::Strategy as _;
use proptest::TestCaseError;

/// One step of a random update workload.
#[derive(Debug, Clone)]
enum Op {
    /// Insert a fresh object at (lo, width-index).
    Insert(f64, f64),
    /// Remove the `i`-th still-live object (modulo live count).
    Remove(usize),
}

fn ops(max: usize) -> impl proptest::Strategy<Value = Vec<Op>> {
    // ~60% inserts, ~40% removals (the shim has no `prop_oneof!`; a
    // discriminant field selects the variant instead).
    prop::collection::vec((0u32..5, -80.0f64..80.0, 0.5f64..10.0, 0usize..64), 1..max).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(kind, lo, w, idx)| {
                    if kind < 3 {
                        Op::Insert(lo, w)
                    } else {
                        Op::Remove(idx)
                    }
                })
                .collect()
        },
    )
}

fn objects_1d(n: usize) -> Vec<UncertainObject> {
    (0..n)
        .map(|i| {
            let lo = (i as f64 * 7.3) % 60.0 - 30.0;
            UncertainObject::uniform(ObjectId(i as u64), lo, lo + 2.0 + (i % 4) as f64).unwrap()
        })
        .collect()
}

/// Apply `ops` to a live id ledger, returning the object each op resolves
/// to (inserts get fresh ids starting at `base`).
fn resolve_ops(
    ops: &[Op],
    live: &mut Vec<UncertainObject>,
    base: u64,
) -> Vec<(bool, UncertainObject)> {
    let mut fresh = 0u64;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Insert(lo, w) => {
                let o = UncertainObject::uniform(ObjectId(base + fresh), *lo, lo + w).unwrap();
                fresh += 1;
                live.push(o.clone());
                out.push((true, o));
            }
            Op::Remove(i) => {
                if live.is_empty() {
                    continue;
                }
                let victim = live.remove(i % live.len());
                out.push((false, victim));
            }
        }
    }
    out
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1 (1-D + k-NN): path-copied updates ≡ fresh bulk build of
    /// the same final object set, bit for bit, for C-PNN and C-PkNN.
    #[test]
    fn persistent_equals_bulk_rebuilt_1d(
        seq in ops(24),
        points in prop::collection::vec(-90.0f64..90.0, 2..5),
    ) {
        let initial = objects_1d(20);
        let mut live = initial.clone();
        let resolved = resolve_ops(&seq, &mut live, 1_000);
        let mut db = UncertainDb::build(initial).unwrap();
        for (is_insert, o) in &resolved {
            if *is_insert {
                db.insert(o.clone()).unwrap();
            } else {
                let removed = db.remove(o.id()).expect("victim is live");
                prop_assert_eq!(removed.id(), o.id());
            }
        }
        prop_assert_eq!(db.len(), live.len());
        let fresh = UncertainDb::build(live).unwrap();
        for &q in &points {
            let a = db.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
            let b = fresh.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("cpnn q = {q}"))?;
            let a = db.cknn(q, 2, 0.4, 0.0).unwrap();
            let b = fresh.cknn(q, 2, 0.4, 0.0).unwrap();
            assert_same(&a, &b, &format!("cknn q = {q}"))?;
        }
    }

    /// Property 1 (2-D): the 2-D database's new dynamic updates agree
    /// with fresh builds too.
    #[test]
    fn persistent_equals_bulk_rebuilt_2d(
        inserts in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0, 0.5f64..5.0), 1..12),
        removals in prop::collection::vec(0usize..48, 0..10),
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..4),
    ) {
        let initial: Vec<Object2d> = (0..16)
            .map(|i| {
                let x = (i as f64 * 9.7) % 60.0 - 30.0;
                let y = (i as f64 * 5.3) % 40.0 - 20.0;
                if i % 3 == 0 {
                    Object2d::rectangle(ObjectId(i), [x, y], [x + 3.0, y + 2.0]).unwrap()
                } else {
                    Object2d::circle(ObjectId(i), [x, y], 1.0 + (i % 3) as f64).unwrap()
                }
            })
            .collect();
        let mut live = initial.clone();
        let mut db = UncertainDb2d::build(initial).unwrap();
        for (i, &(x, y, r)) in inserts.iter().enumerate() {
            let o = Object2d::circle(ObjectId(1_000 + i as u64), [x, y], r).unwrap();
            live.push(o);
            db.insert(o).unwrap();
        }
        for &r in &removals {
            if live.is_empty() { break; }
            let victim = live.remove(r % live.len());
            prop_assert_eq!(db.remove(victim.id()).map(|o| o.id()), Some(victim.id()));
        }
        let fresh = UncertainDb2d::build(live).unwrap();
        for &(x, y) in &points {
            let a = db.cpnn([x, y], 0.3, 0.01).unwrap();
            let b = fresh.cpnn([x, y], 0.3, 0.01).unwrap();
            assert_same(&a, &b, &format!("2d q = ({x}, {y})"))?;
            let a = db.cknn([x, y], 2, 0.4, 0.0).unwrap();
            let b = fresh.cknn([x, y], 2, 0.4, 0.0).unwrap();
            assert_same(&a, &b, &format!("2d knn q = ({x}, {y})"))?;
        }
    }

    /// Property 1 (sharded, both balancing schemes): per-shard path
    /// copies ≡ fresh sharded and fresh flat builds.
    #[test]
    fn persistent_equals_bulk_rebuilt_sharded(
        seq in ops(20),
        points in prop::collection::vec(-90.0f64..90.0, 2..5),
        shards in prop::sample::select(vec![1usize, 3, 8]),
        quantile in prop::bool::ANY,
    ) {
        let balance = if quantile { ShardBalance::Quantile } else { ShardBalance::Width };
        let initial = objects_1d(24);
        let mut live = initial.clone();
        let resolved = resolve_ops(&seq, &mut live, 1_000);
        let mut db =
            ShardedDb::<UncertainDb>::build_with(initial, Default::default(), shards, balance)
                .unwrap();
        for (is_insert, o) in &resolved {
            if *is_insert {
                db.insert(o.clone()).unwrap();
            } else {
                prop_assert_eq!(db.remove(o.id()).map(|r| r.id()), Some(o.id()));
            }
        }
        let flat = UncertainDb::build(live).unwrap();
        for &q in &points {
            let a = db.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
            let b = flat.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("sharded q = {q}, {shards} shards, {balance:?}"))?;
        }
    }

    /// Property 2: snapshots pinned at every step of an update sequence
    /// answer exactly as fresh builds of their historical contents, even
    /// after the head has moved far past them.
    #[test]
    fn old_snapshots_answer_their_own_history(
        seq in ops(16),
        points in prop::collection::vec(-90.0f64..90.0, 2..4),
    ) {
        let initial = objects_1d(16);
        let mut live = initial.clone();
        let mut db = UncertainDb::build(initial).unwrap();
        // (pinned handle, its historical contents)
        let mut history: Vec<(UncertainDb, Vec<UncertainObject>)> =
            vec![(db.clone(), live.clone())];
        let resolved = resolve_ops(&seq, &mut live, 1_000);
        let mut contents = history[0].1.clone();
        for (is_insert, o) in &resolved {
            if *is_insert {
                db.insert(o.clone()).unwrap();
                contents.push(o.clone());
            } else {
                db.remove(o.id()).expect("victim is live");
                contents.retain(|x| x.id() != o.id());
            }
            history.push((db.clone(), contents.clone()));
        }
        // Check a spread of pinned versions (first, middle, last).
        let picks = [0, history.len() / 2, history.len() - 1];
        for &v in &picks {
            let (snap, contents) = &history[v];
            let fresh = UncertainDb::build(contents.clone()).unwrap();
            prop_assert_eq!(snap.len(), fresh.len(), "version {}", v);
            for &q in &points {
                let a = snap.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
                let b = fresh.cpnn(&CpnnQuery::new(q, 0.3, 0.01), Strategy::Verified).unwrap();
                assert_same(&a, &b, &format!("version {v}, q = {q}"))?;
            }
        }
    }

    /// Property 2 (COW seam): `with_inserted`/`with_removed` leave the
    /// receiver untouched, byte for byte, at every step.
    #[test]
    fn cow_successors_never_disturb_the_receiver(
        seq in ops(12),
        q in -90.0f64..90.0,
    ) {
        let initial = objects_1d(12);
        let mut live = initial.clone();
        let resolved = resolve_ops(&seq, &mut live, 1_000);
        let mut cur = UncertainDb::build(initial).unwrap();
        let spec = CpnnQuery::new(q, 0.3, 0.01);
        for (is_insert, o) in &resolved {
            let before = cur.cpnn(&spec, Strategy::Verified).unwrap();
            let next = if *is_insert {
                cur.with_inserted(o.clone()).unwrap()
            } else {
                let (next, removed) = cur.with_removed(o.id());
                prop_assert!(removed.is_some());
                next
            };
            let after = cur.cpnn(&spec, Strategy::Verified).unwrap();
            assert_same(&after, &before, "receiver changed under a COW op")?;
            cur = next;
        }
    }

    /// Property 3: a server applying the ops through BOTH update lanes
    /// (direct swaps and coalesced bursts) serves every query exactly as
    /// sequential evaluation against the version it cites.
    #[test]
    fn server_path_copied_versions_serve_consistently(
        seq in ops(12),
        points in prop::collection::vec(-90.0f64..90.0, 2..6),
        threads in 1usize..4,
        coalesce in prop::bool::ANY,
    ) {
        use cpnn_core::QueryServer;
        use cpnn_core::Snapshot;
        let initial = objects_1d(14);
        let mut live = initial.clone();
        let resolved = resolve_ops(&seq, &mut live, 1_000);
        let db = UncertainDb::build(initial).unwrap();
        let server = QueryServer::start(db, threads, PipelineConfig::default());
        let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
        let mut versions: Vec<Snapshot<UncertainDb>> = vec![server.snapshot()];
        let mut tickets = Vec::new();
        for (i, (is_insert, o)) in resolved.iter().enumerate() {
            for &q in &points {
                tickets.push((q, server.submit(q, spec)));
            }
            if coalesce {
                let t = if *is_insert {
                    server.queue_insert(o.clone())
                } else {
                    server.queue_remove(o.id())
                };
                if i % 2 == 1 {
                    // Flush every other op: bursts of 1–2 coalesced writes.
                    let report = server.flush_writes();
                    prop_assert!(report.published.is_some());
                    versions.push(server.snapshot());
                }
                let _ = t;
            } else {
                let snap = if *is_insert {
                    server.insert(o.clone()).unwrap()
                } else {
                    server.remove(o.id()).unwrap()
                };
                versions.push(snap);
            }
        }
        // Trailing flush so every queued write publishes.
        if server.flush_writes().published.is_some() {
            versions.push(server.snapshot());
        }
        let uncached = PipelineConfig::default();
        for (i, (q, ticket)) in tickets.into_iter().enumerate() {
            let served = ticket.wait();
            let snap = versions
                .iter()
                .find(|s| s.version == served.snapshot_version)
                .expect("every cited version was captured");
            let want = cpnn(&*snap.model, &q, &spec, &uncached).unwrap();
            assert_same(&served.result.unwrap(), &want, &format!("query {i} at v{}", snap.version))?;
        }
        server.shutdown();
    }
}

/// Non-proptest regression: a coalesced burst publishes exactly one
/// version covering every member, and a mid-burst failure (duplicate id)
/// fails alone.
#[test]
fn coalesced_burst_publishes_once_with_per_op_outcomes() {
    use cpnn_core::QueryServer;
    let db = UncertainDb::build(objects_1d(10)).unwrap();
    let server = QueryServer::start(db, 1, PipelineConfig::default());
    let t1 = server.queue_insert(UncertainObject::uniform(ObjectId(100), 0.0, 1.0).unwrap());
    let t2 = server.queue_insert(UncertainObject::uniform(ObjectId(3), 0.0, 1.0).unwrap()); // dup
    let t3 = server.queue_remove(ObjectId(0));
    let report = server.flush_writes();
    assert_eq!(report.queued, 3);
    assert_eq!(report.applied, 2);
    assert_eq!(report.published, Some(1));
    let (o1, o2, o3) = (t1.wait(), t2.wait(), t3.wait());
    assert!(o1.result.is_ok());
    assert!(o2.result.is_err(), "duplicate insert fails alone");
    assert!(o3.result.is_ok());
    assert_eq!(o1.snapshot_version, 1);
    assert_eq!(o3.snapshot_version, 1);
    assert_eq!(o1.batch, 3);
    let stats = server.stats();
    assert_eq!(stats.updates, 1, "one swap for the whole burst");
    assert_eq!(stats.coalesced_batches, 1);
    assert_eq!(stats.applied_updates, 2);
    let snap = server.snapshot();
    assert_eq!(snap.version, 1);
    assert_eq!(snap.model.len(), 10); // +1 insert, -1 remove
    assert!(snap.model.contains_id(ObjectId(100)));
    assert!(!snap.model.contains_id(ObjectId(0)));
    server.shutdown();
}

/// Non-proptest regression: an all-failed burst publishes nothing.
#[test]
fn all_failed_burst_does_not_bump_the_version() {
    use cpnn_core::QueryServer;
    let db = UncertainDb::build(objects_1d(5)).unwrap();
    let server = QueryServer::start(db, 1, PipelineConfig::default());
    let t = server.queue_insert(UncertainObject::uniform(ObjectId(2), 0.0, 1.0).unwrap());
    let report = server.flush_writes();
    assert_eq!(
        (report.queued, report.applied, report.published),
        (1, 0, None)
    );
    assert!(t.wait().result.is_err());
    assert_eq!(server.snapshot().version, 0);
    assert_eq!(server.stats().updates, 0);
    server.shutdown();
}
