//! Crash-recovery properties of the durable storage seam: a server that
//! journals every publish through a [`StorageBackend`] can be recovered
//! — checkpoint + write-ahead-journal replay — into a database that is
//! **bit-for-bit** the live one (verdicts *and* bounds through the full
//! verify/refine pipeline), for 1-D, 2-D, k-NN, and sharded models,
//! under arbitrary interleavings of direct writes, coalesced bursts,
//! queries, and mid-stream checkpoints.
//!
//! The crash half: replaying every byte-prefix of the journal (driven
//! through the fault-injecting [`CrashWriter`]) recovers *some* state
//! the server actually published — the pre-crash state or the last
//! durable burst — never a torn in-between, and the recovered version
//! is monotone in the surviving prefix length.
//!
//! Objects are uniform with integer low edges and power-of-two widths,
//! so every mass/density conversion in the codec is exact (see
//! `proptest_persist.rs` for the dyadic-exactness argument).

use std::collections::BTreeMap;
use std::io::Write as _;

use cpnn_core::persist;
use cpnn_core::{
    replay_wal, CpnnQuery, CpnnResult, CrashWriter, EngineConfig, MemoryBackend, Object2d,
    ObjectId, PersistentModel, QueryServer, ShardBalance, ShardedDb, Strategy, UncertainDb,
    UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::Strategy as _;
use proptest::TestCaseError;

/// One step of a random durable workload.
#[derive(Debug, Clone)]
enum Op {
    /// Queue an insert on the coalescing lane (fresh id, dyadic bar).
    QueueInsert(i32, f64),
    /// Queue a remove of the `i`-th live id (possibly already queued for
    /// removal — absent removes still publish and journal).
    QueueRemove(usize),
    /// Publish the queued burst as one swap (one journal record).
    Flush,
    /// Direct (unqueued) insert: its own swap, its own journal record.
    DirectInsert(i32, f64),
    /// Fold the journal into a fresh checkpoint mid-stream.
    Checkpoint,
}

fn workload(max: usize) -> impl proptest::Strategy<Value = Vec<Op>> {
    // The shim has no `prop_oneof!`; a discriminant field selects the
    // variant. Weights: ~40% queued inserts, ~20% removes, ~20% flushes,
    // ~10% direct inserts, ~10% checkpoints.
    prop::collection::vec(
        (
            0u32..10,
            -64i32..64,
            prop::sample::select(vec![1.0f64, 2.0, 4.0]),
            0usize..64,
        ),
        1..max,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, lo, w, idx)| match kind {
                0..=3 => Op::QueueInsert(lo, w),
                4 | 5 => Op::QueueRemove(idx),
                6 | 7 => Op::Flush,
                8 => Op::DirectInsert(lo, w),
                _ => Op::Checkpoint,
            })
            .collect()
    })
}

fn uniform(id: u64, lo: i32, w: f64) -> UncertainObject {
    UncertainObject::uniform(ObjectId(id), lo as f64, lo as f64 + w).unwrap()
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

/// Drive `server` through `ops` with `backend` attached, returning the
/// version → pinned-model history of every published state.
fn drive<M>(
    server: &QueryServer<M>,
    ops: &[Op],
    mut insert: impl FnMut(u64, i32, f64) -> M::Object,
) -> BTreeMap<u64, std::sync::Arc<M>>
where
    M: cpnn_core::DistanceModel + PersistentModel + Send + Sync + 'static,
    M::Query: Send + 'static,
    M::Object: Send + 'static,
{
    let mut history = BTreeMap::new();
    let snap = server.snapshot();
    history.insert(snap.version, snap.model);
    let mut live: Vec<u64> = Vec::new();
    let mut fresh: u64 = 10_000;
    let mut queued = 0usize;
    for op in ops {
        match op {
            Op::QueueInsert(lo, w) => {
                let o = insert(fresh, *lo, *w);
                live.push(fresh);
                fresh += 1;
                drop(server.queue_insert(o));
                queued += 1;
            }
            Op::QueueRemove(idx) => {
                if live.is_empty() {
                    continue;
                }
                let id = live.remove(idx % live.len());
                drop(server.queue_remove(ObjectId(id)));
                queued += 1;
            }
            Op::Flush => {
                if queued > 0 {
                    server.flush_writes();
                    queued = 0;
                    let snap = server.snapshot();
                    history.insert(snap.version, snap.model);
                }
            }
            Op::DirectInsert(lo, w) => {
                let o = insert(fresh, *lo, *w);
                live.push(fresh);
                fresh += 1;
                server.insert(o).unwrap();
                let snap = server.snapshot();
                history.insert(snap.version, snap.model);
            }
            Op::Checkpoint => {
                server.checkpoint_now().unwrap();
            }
        }
    }
    if queued > 0 {
        server.flush_writes();
        let snap = server.snapshot();
        history.insert(snap.version, snap.model);
    }
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 1-D + k-NN: full recovery (checkpoint + journal replay) is
    /// bit-for-bit the live state, and every journal byte-prefix
    /// recovers some *published* state exactly.
    #[test]
    fn recovery_matches_live_state_1d(
        ops in workload(24),
        points in prop::collection::vec(-70.0f64..70.0, 2..4),
    ) {
        let initial: Vec<UncertainObject> =
            (0..8).map(|i| uniform(i, (i as i32) * 7 - 28, 4.0)).collect();
        let db = UncertainDb::build(initial).unwrap();
        let backend = MemoryBackend::new();
        let server = QueryServer::start(db, 1, Default::default());
        server.attach_storage(Box::new(backend.clone()));
        server.checkpoint_now().unwrap();

        let history = drive(&server, &ops, uniform);
        let live = server.snapshot();

        // Full recovery ≡ live, bit for bit through the pipeline.
        let rec = backend.recover::<UncertainDb>(&EngineConfig::default()).unwrap().unwrap();
        prop_assert_eq!(rec.version, live.version);
        prop_assert!(rec.torn_at.is_none());
        prop_assert_eq!(rec.model.len(), live.model.len());
        for &q in &points {
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = live.model.cpnn(&query, Strategy::Verified).unwrap();
            let b = rec.model.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("recovered cpnn q = {q}"))?;
            let a = live.model.cknn(q, 2, 0.4, 0.0).unwrap();
            let b = rec.model.cknn(q, 2, 0.4, 0.0).unwrap();
            assert_same(&a, &b, &format!("recovered cknn q = {q}"))?;
        }

        // Crash sweep: every byte-prefix of the journal — produced by
        // crashing a CrashWriter at that exact budget — recovers a
        // version the server actually published, with *exactly* that
        // version's contents. Never a torn in-between.
        let wal = backend.wal_bytes();
        let checkpoint = backend.checkpoint_bytes().expect("checkpoint written");
        let (base, base_version) = persist::read_model::<UncertainDb, _>(
            checkpoint.as_slice(),
            &EngineConfig::default(),
        )
        .unwrap();
        let mut last_version = 0u64;
        for budget in 0..=wal.len() {
            let mut crashing = CrashWriter::new(Vec::new(), budget);
            let _ = crashing.write_all(&wal);
            let survived = crashing.into_inner();
            prop_assert_eq!(survived.len(), budget.min(wal.len()));
            let rec = replay_wal(&survived, base.clone(), base_version).unwrap();
            let expected = history.get(&rec.version).unwrap_or_else(|| {
                panic!("recovered v{} was never published", rec.version)
            });
            prop_assert_eq!(rec.model.len(), expected.len(), "len at budget {}", budget);
            prop_assert!(rec.version >= last_version, "recovery went backwards");
            last_version = rec.version;
            let q = points[0];
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = expected.cpnn(&query, Strategy::Verified).unwrap();
            let b = rec.model.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("crash budget {budget} -> v{}", rec.version))?;
        }
        prop_assert_eq!(last_version, live.version, "full journal must reach the live state");
    }

    /// Sharded 1-D: recovery preserves the partitioning (axis + exact
    /// slab bounds) and every query agrees bit for bit.
    #[test]
    fn recovery_matches_live_state_sharded(
        ops in workload(18),
        points in prop::collection::vec(-70.0f64..70.0, 2..4),
        shards in prop::sample::select(vec![2usize, 4]),
        quantile in prop::bool::ANY,
    ) {
        let balance = if quantile { ShardBalance::Quantile } else { ShardBalance::Width };
        let initial: Vec<UncertainObject> =
            (0..10).map(|i| uniform(i, (i as i32) * 9 - 45, 4.0)).collect();
        let db = ShardedDb::<UncertainDb>::build_with(
            initial,
            EngineConfig::default(),
            shards,
            balance,
        )
        .unwrap();
        let backend = MemoryBackend::new();
        let server = QueryServer::start(db, 1, Default::default());
        server.attach_storage(Box::new(backend.clone()));
        server.checkpoint_now().unwrap();

        let history = drive(&server, &ops, uniform);
        let live = server.snapshot();

        let rec = backend
            .recover::<ShardedDb<UncertainDb>>(&EngineConfig::default())
            .unwrap()
            .unwrap();
        prop_assert_eq!(rec.version, live.version);
        prop_assert_eq!(rec.model.num_shards(), live.model.num_shards());
        prop_assert_eq!(rec.model.partition_axis(), live.model.partition_axis());
        prop_assert_eq!(rec.model.slab_bounds(), live.model.slab_bounds());
        for &q in &points {
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = live.model.cpnn(&query, Strategy::Verified).unwrap();
            let b = rec.model.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("sharded recovered q = {q}"))?;
        }

        // Prefix sweep (coarser: every 7th byte keeps the sharded case
        // fast; the 1-D test sweeps every byte).
        let wal = backend.wal_bytes();
        let checkpoint = backend.checkpoint_bytes().expect("checkpoint written");
        let (base, base_version) = persist::read_model::<ShardedDb<UncertainDb>, _>(
            checkpoint.as_slice(),
            &EngineConfig::default(),
        )
        .unwrap();
        for budget in (0..=wal.len()).step_by(7) {
            let rec = replay_wal(&wal[..budget], base.clone(), base_version).unwrap();
            let expected = history.get(&rec.version).unwrap_or_else(|| {
                panic!("recovered v{} was never published", rec.version)
            });
            let q = points[0];
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = expected.cpnn(&query, Strategy::Verified).unwrap();
            let b = rec.model.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("sharded crash budget {budget}"))?;
        }
    }

    /// 2-D: raw-f64 objects make every coordinate exact; recovery and
    /// the prefix sweep agree bit for bit on 2-D k-NN.
    #[test]
    fn recovery_matches_live_state_2d(
        ops in workload(16),
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..4),
    ) {
        let initial: Vec<Object2d> = (0..8)
            .map(|i| {
                let x = (i as f64 * 9.7) % 60.0 - 30.0;
                let y = (i as f64 * 5.3) % 40.0 - 20.0;
                Object2d::circle(ObjectId(i), [x, y], 1.0 + (i % 3) as f64).unwrap()
            })
            .collect();
        let db = UncertainDb2d::build(initial).unwrap();
        let backend = MemoryBackend::new();
        let server = QueryServer::start(db, 1, Default::default());
        server.attach_storage(Box::new(backend.clone()));
        server.checkpoint_now().unwrap();

        let history = drive(&server, &ops, |id, lo, w| {
            Object2d::circle(ObjectId(id), [lo as f64, (lo as f64) / 2.0], w).unwrap()
        });
        let live = server.snapshot();

        let rec = backend
            .recover::<UncertainDb2d>(&())
            .unwrap()
            .unwrap();
        prop_assert_eq!(rec.version, live.version);
        prop_assert_eq!(rec.model.len(), live.model.len());
        for &(x, y) in &points {
            let a = live.model.cknn([x, y], 2, 0.3, 0.01).unwrap();
            let b = rec.model.cknn([x, y], 2, 0.3, 0.01).unwrap();
            assert_same(&a, &b, &format!("2d recovered q = ({x}, {y})"))?;
        }

        let wal = backend.wal_bytes();
        let checkpoint = backend.checkpoint_bytes().expect("checkpoint written");
        let (base, base_version) =
            persist::read_model::<UncertainDb2d, _>(checkpoint.as_slice(), &Default::default())
                .unwrap();
        for budget in (0..=wal.len()).step_by(5) {
            let rec = replay_wal(&wal[..budget], base.clone(), base_version).unwrap();
            let expected = history.get(&rec.version).unwrap_or_else(|| {
                panic!("recovered v{} was never published", rec.version)
            });
            let (x, y) = points[0];
            let a = expected.cknn([x, y], 2, 0.3, 0.01).unwrap();
            let b = rec.model.cknn([x, y], 2, 0.3, 0.01).unwrap();
            assert_same(&a, &b, &format!("2d crash budget {budget}"))?;
        }
    }
}

/// Deterministic end-to-end crash drill on the file backend: burst →
/// no checkpoint → reopen the directory cold — the journal tail must
/// carry the burst across the "crash" (the dropped backend stands in
/// for a killed process).
#[test]
fn file_backend_survives_an_unclean_drop() {
    let dir = std::env::temp_dir().join(format!("cpnn-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let backend = cpnn_core::FileBackend::open(&dir).unwrap();
        let db = UncertainDb::build(
            (0..6)
                .map(|i| uniform(i, i as i32 * 5, 4.0))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let server = QueryServer::start(db, 1, Default::default());
        server.attach_storage(Box::new(backend));
        server.checkpoint_now().unwrap();
        drop(server.queue_insert(uniform(100, 3, 2.0)));
        drop(server.queue_remove(ObjectId(2)));
        server.flush_writes();
        // No checkpoint, no clean shutdown: the WAL holds the burst.
    }
    let mut backend = cpnn_core::FileBackend::open(&dir).unwrap();
    let rec = backend
        .recover::<UncertainDb>(&EngineConfig::default())
        .unwrap()
        .expect("checkpoint exists");
    assert_eq!(rec.version, 1, "one burst after the v0 checkpoint");
    assert_eq!(rec.records, 1, "exactly one journal record replayed");
    assert!(rec.torn_at.is_none());
    assert_eq!(rec.model.len(), 6); // 6 - 1 removed + 1 inserted
    assert!(rec.model.objects().iter().any(|o| o.id() == ObjectId(100)));
    assert!(rec.model.objects().iter().all(|o| o.id() != ObjectId(2)));
    let _ = std::fs::remove_dir_all(&dir);
}
