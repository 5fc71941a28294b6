//! Fault injection: a shard killed mid-workload degrades to a *typed*
//! [`RouterError::ShardUnavailable`] — never a panic, never a wrong
//! answer — and a restart that recovers the shard's own `--data-dir`
//! (checkpoint + write-ahead journal) brings the fleet back to answers
//! bit-for-bit identical to an uninterrupted single-process run.
//!
//! The scenario uses two far-apart clusters so the partition puts each
//! cluster on its own shard: queries near the surviving cluster are
//! provably unaffected (horizon pruning never selects the dead shard),
//! while queries near the dead cluster *must* fail typed rather than
//! answer from partial data.

use std::sync::Arc;
use std::time::Duration;

use cpnn_core::pipeline::{cpnn, PipelineConfig, QuerySpec};
use cpnn_core::{
    CpnnResult, FileBackend, ObjectId, QueryServer, ShardableModel, ShardedDb, Strategy,
    UncertainDb, UncertainObject,
};
use cpnn_router::{
    QueryRouter, RouterConfig, RouterError, ShardAddr, ShardListener, ShardMap, ShardServeConfig,
    ShardServerHandle, UpdateOp,
};

/// Two clusters, far apart: ids 0..4 near the origin, ids 4..8 near 100.
fn clustered_objects() -> Vec<UncertainObject> {
    (0..8)
        .map(|i| {
            let base = if i < 4 {
                i as f64 * 1.5
            } else {
                100.0 + (i - 4) as f64 * 1.5
            };
            UncertainObject::uniform(ObjectId(i), base, base + 1.0).unwrap()
        })
        .collect()
}

fn quick_cfg() -> RouterConfig {
    RouterConfig {
        timeout: Duration::from_secs(5),
        retries: 1,
        backoff: Duration::from_millis(5),
    }
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) {
    assert_eq!(got.answers, want.answers, "answers differ: {ctx}");
    assert_eq!(got.reports, want.reports, "reports differ: {ctx}");
}

/// Spawn shard `i` of `db` on `socket`, durable in `data_dir`: recover
/// whatever the directory holds (empty on first boot), fall back to the
/// reference model, attach the backend, checkpoint immediately.
fn spawn_durable_shard(
    db: &ShardedDb<UncertainDb>,
    i: usize,
    data_dir: &std::path::Path,
    socket: &std::path::Path,
) -> ShardServerHandle<UncertainDb> {
    let mut backend = FileBackend::open(data_dir).expect("open shard data dir");
    let recovered = backend
        .recover::<UncertainDb>(db.shard_configuration())
        .expect("shard recovery must not fail");
    let (model, version) = match recovered {
        Some(rec) => (rec.model, rec.version),
        None => (
            UncertainDb::with_config(db.shard_model(i).shard_objects(), *db.shard_configuration())
                .unwrap(),
            0,
        ),
    };
    let server = Arc::new(QueryServer::start_at(
        model,
        version,
        1,
        db.pipeline_config(),
    ));
    server.attach_storage(Box::new(backend));
    server.checkpoint_now().expect("seed checkpoint");
    let listener = ShardListener::bind(&ShardAddr::Unix(socket.to_path_buf())).unwrap();
    ShardServerHandle::spawn(
        server,
        listener,
        ShardServeConfig {
            checkpoint_every: 2,
        },
    )
    .unwrap()
}

/// One volatile shard server per shard of `db`, on sockets under `dir`,
/// and a router connected to them.
fn spawn_fleet(
    db: &ShardedDb<UncertainDb>,
    dir: &std::path::Path,
) -> (
    Vec<ShardServerHandle<UncertainDb>>,
    QueryRouter<UncertainDb>,
) {
    let socket = |i: usize| dir.join(format!("s{i}.sock"));
    let mut handles = Vec::new();
    for i in 0..db.num_shards() {
        let model =
            UncertainDb::with_config(db.shard_model(i).shard_objects(), *db.shard_configuration())
                .unwrap();
        let server = Arc::new(QueryServer::start(model, 1, db.pipeline_config()));
        let listener = ShardListener::bind(&ShardAddr::Unix(socket(i))).unwrap();
        handles
            .push(ShardServerHandle::spawn(server, listener, ShardServeConfig::default()).unwrap());
    }
    let map = ShardMap {
        axis: db.partition_axis(),
        bounds: db.slab_bounds().to_vec(),
        addrs: (0..db.num_shards())
            .map(|i| ShardAddr::Unix(socket(i)))
            .collect(),
    };
    let router = QueryRouter::connect(&map, db.pipeline_config(), quick_cfg()).unwrap();
    (handles, router)
}

/// Two shards that selection always pairs near the slab boundary: shard 0
/// holds a far outlier (its extent's maxdist exceeds shard 1's, so a query
/// near the origin selects both) and a straddler reaching into shard 1's
/// extent (so a query at 24.5 is inside both extents).
fn overlapping_fleet_db() -> ShardedDb<UncertainDb> {
    let obj = |id: u64, lo: f64, hi: f64| UncertainObject::uniform(ObjectId(id), lo, hi).unwrap();
    ShardedDb::from_parts(
        0,
        vec![-60.0, 22.0, 31.0],
        vec![
            vec![
                obj(10, -60.0, -59.0),
                obj(11, 0.0, 1.0),
                obj(12, 2.0, 3.0),
                obj(13, 14.0, 26.0),
            ],
            vec![obj(14, 24.0, 25.0), obj(15, 30.0, 31.0)],
        ],
        Default::default(),
    )
    .unwrap()
}

/// The router asks the selected shards nearest bound first and stops once
/// the horizon over the replies in hand excludes the next bound: a query
/// deep inside shard 0 asks one shard although selection keeps both, while
/// a query inside both extents (bound 0 for each) asks both in one group.
/// Every answer is the in-process one, bit for bit.
#[test]
fn horizon_stops_the_fan_out_after_the_first_group() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-groups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local = overlapping_fleet_db();
    let cfg = local.pipeline_config();
    let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
    let (handles, mut router) = spawn_fleet(&local, &dir);

    assert_eq!(local.overlapping(&0.5, 1).len(), 2, "selection keeps both");
    let before = router.router_stats().clone();
    let want = cpnn(&local, &0.5, &spec, &cfg).unwrap();
    assert_same(&router.query(&0.5, &spec).unwrap(), &want, "q = 0.5");
    let after = router.router_stats().clone();
    assert_eq!(after.fanned_out - before.fanned_out, 1, "one shard asked");
    assert_eq!(after.pruned - before.pruned, 1, "the far shard pruned");

    let bounds: Vec<f64> = local.overlapping(&24.5, 1).iter().map(|s| s.0).collect();
    assert_eq!(bounds, vec![0.0, 0.0], "q = 24.5 is inside both extents");
    let want = cpnn(&local, &24.5, &spec, &cfg).unwrap();
    assert_same(&router.query(&24.5, &spec).unwrap(), &want, "q = 24.5");
    let last = router.router_stats().clone();
    assert_eq!(last.fanned_out - after.fanned_out, 2, "both shards asked");
    assert_eq!(last.pruned, after.pruned, "nothing pruned");

    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A burst bumps the router's version exactly once, like `flush_writes`:
/// the owning shard's own post-burst version must not add a second bump.
#[test]
fn one_burst_bumps_the_router_version_once() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-version-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local =
        ShardedDb::<UncertainDb>::from_model(&UncertainDb::build(clustered_objects()).unwrap(), 2)
            .unwrap();
    let (handles, mut router) = spawn_fleet(&local, &dir);
    assert_eq!(router.version(), 0);
    let inserted = UncertainObject::uniform(ObjectId(100), 102.0, 103.5).unwrap();
    let report = router.update(vec![UpdateOp::Insert(inserted)]).unwrap();
    assert!(report.outcomes.iter().all(Result::is_ok));
    assert_eq!(report.version, 1);
    assert_eq!(router.version(), 1);
    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dead shard that selection keeps but the first group's horizon
/// excludes is never asked, so the query still answers, bit for bit.
#[test]
fn dead_shard_beyond_the_horizon_does_not_fail_the_query() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-beyond-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let local = overlapping_fleet_db();
    let cfg = local.pipeline_config();
    let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
    let (mut handles, mut router) = spawn_fleet(&local, &dir);

    // q = 30.5 selects shard 1 (bound 0) and shard 0 (bound 4.5); shard
    // 1's nearest object puts the horizon at 0.5.
    assert_eq!(local.overlapping(&30.5, 1).len(), 2, "selection keeps both");
    handles.remove(0).kill();
    let want = cpnn(&local, &30.5, &spec, &cfg).unwrap();
    assert_same(
        &router.query(&30.5, &spec).unwrap(),
        &want,
        "q = 30.5 with shard 0 dead",
    );
    // A query that needs the dead shard still degrades typed; the request
    // already written to shard 1 in the same group is abandoned with its
    // connection, so its reply cannot answer the next query.
    match router.query(&24.5, &spec) {
        Err(RouterError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("expected ShardUnavailable for the dead shard, got {other:?}"),
    }
    assert_same(
        &router.query(&30.5, &spec).unwrap(),
        &want,
        "q = 30.5 after a failed group",
    );

    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_shard_degrades_typed_then_recovers_from_its_data_dir() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let flat = UncertainDb::build(clustered_objects()).unwrap();
    // `local` is the uninterrupted single-process run the routed answers
    // must keep matching through crash and recovery.
    let mut local = ShardedDb::from_model(&flat, 2).unwrap();
    let cfg = PipelineConfig::default();
    let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);

    let data_dir = |i: usize| dir.join(format!("shard{i}"));
    let socket = |i: usize| dir.join(format!("s{i}.sock"));
    let mut handles: Vec<Option<ShardServerHandle<UncertainDb>>> = (0..2)
        .map(|i| Some(spawn_durable_shard(&local, i, &data_dir(i), &socket(i))))
        .collect();
    let map = ShardMap {
        axis: local.partition_axis(),
        bounds: local.slab_bounds().to_vec(),
        addrs: (0..2).map(|i| ShardAddr::Unix(socket(i))).collect(),
    };
    let mut router: QueryRouter<UncertainDb> =
        QueryRouter::connect(&map, cfg, quick_cfg()).unwrap();

    // Baseline: both clusters answer, bit for bit.
    for q in [0.5, 100.5, 50.0] {
        let want = cpnn(&local, &q, &spec, &cfg).unwrap();
        let got = router.query(&q, &spec).unwrap();
        assert_same(&got, &want, &format!("baseline q = {q}"));
    }

    // A durable burst before the crash: insert into the far cluster,
    // remove from the near one. This is the state recovery must restore.
    let inserted = UncertainObject::uniform(ObjectId(100), 102.0, 103.5).unwrap();
    local.insert(inserted.clone()).unwrap();
    assert!(local.remove(ObjectId(0)).is_some());
    let report = router
        .update(vec![
            UpdateOp::Insert(inserted.clone()),
            UpdateOp::Remove(ObjectId(0)),
        ])
        .unwrap();
    assert_eq!(report.outcomes, vec![Ok(()), Ok(())]);
    assert_eq!(report.objects as usize, local.len());
    for q in [0.5, 100.5] {
        let want = cpnn(&local, &q, &spec, &cfg).unwrap();
        assert_same(
            &router.query(&q, &spec).unwrap(),
            &want,
            &format!("post-burst q = {q}"),
        );
    }

    // Crash the far-cluster shard: sockets severed mid-conversation, no
    // farewell — the in-process twin of `kill -9`.
    handles[1].take().unwrap().kill();

    // Near-cluster queries are untouched: horizon pruning never selects
    // the dead shard, so the answer is still bit-for-bit correct.
    let want = cpnn(&local, &0.5, &spec, &cfg).unwrap();
    assert_same(
        &router.query(&0.5, &spec).unwrap(),
        &want,
        "near cluster during outage",
    );

    // Far-cluster queries must degrade typed — no panic, no wrong answer.
    match router.query(&100.5, &spec) {
        Err(RouterError::ShardUnavailable { shard: 1, detail }) => {
            assert!(
                RouterError::ShardUnavailable { shard: 1, detail }
                    .to_string()
                    .contains("unavailable"),
                "degradation line must name the failure"
            );
        }
        other => panic!("expected ShardUnavailable for the dead shard, got {other:?}"),
    }

    // Updates routed to the dead shard degrade the same way, and must
    // not half-apply: the tentative id-map entry is retracted.
    let doomed = UncertainObject::uniform(ObjectId(200), 104.0, 105.0).unwrap();
    match router.update(vec![UpdateOp::Insert(doomed)]) {
        Err(RouterError::ShardUnavailable { shard: 1, .. }) => {}
        other => panic!("expected ShardUnavailable for a dead-shard update, got {other:?}"),
    }

    // Restart the shard on the same socket, recovering from its own
    // data dir — checkpoint + journal tail, no global rebuild. The
    // pre-crash burst (insert 100) must come back with it.
    handles[1] = Some(spawn_durable_shard(&local, 1, &data_dir(1), &socket(1)));

    // The router reconnects lazily on the next request and resyncs its
    // id map from the recovered shard.
    for q in [0.5, 100.5, 50.0] {
        let want = cpnn(&local, &q, &spec, &cfg).unwrap();
        let got = router.query(&q, &spec).unwrap();
        assert_same(&got, &want, &format!("post-recovery q = {q}"));
    }

    // The recovered id map still enforces cross-shard uniqueness: the
    // pre-crash insert survives as a duplicate, the doomed one (never
    // applied) inserts cleanly — exactly like the uninterrupted run.
    let dup = UncertainObject::uniform(ObjectId(100), 1.0, 2.0).unwrap();
    let retry = UncertainObject::uniform(ObjectId(200), 104.0, 105.0).unwrap();
    let expected = vec![
        local.insert(dup.clone()).map_err(|e| e.to_string()),
        local.insert(retry.clone()).map_err(|e| e.to_string()),
    ];
    assert!(expected[0].is_err(), "id 100 must be a duplicate");
    assert!(expected[1].is_ok(), "id 200 never applied, must insert");
    let report = router
        .update(vec![UpdateOp::Insert(dup), UpdateOp::Insert(retry)])
        .unwrap();
    assert_eq!(report.outcomes, expected);
    assert_eq!(report.objects as usize, local.len());
    for q in [0.5, 100.5] {
        let want = cpnn(&local, &q, &spec, &cfg).unwrap();
        assert_same(
            &router.query(&q, &spec).unwrap(),
            &want,
            &format!("final q = {q}"),
        );
    }

    // One more crash/recover cycle, immediately after a burst that was
    // journaled but (checkpoint_every = 2) possibly not yet folded into
    // a checkpoint: the journal tail alone must carry it.
    handles[1].take().unwrap().kill();
    handles[1] = Some(spawn_durable_shard(&local, 1, &data_dir(1), &socket(1)));
    for q in [0.5, 100.5] {
        let want = cpnn(&local, &q, &spec, &cfg).unwrap();
        assert_same(
            &router.query(&q, &spec).unwrap(),
            &want,
            &format!("second recovery q = {q}"),
        );
    }

    for h in handles.into_iter().flatten() {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The typed degradation is stable under repeated attempts: every retry
/// against a dead shard keeps failing `ShardUnavailable` (no panics, no
/// hangs), and the router's own counters record the reconnect attempts.
#[test]
fn repeated_queries_against_a_dead_shard_stay_typed() {
    let dir = std::env::temp_dir().join(format!("cpnn-router-deadloop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let flat = UncertainDb::build(clustered_objects()).unwrap();
    let local = ShardedDb::from_model(&flat, 2).unwrap();
    let cfg = PipelineConfig::default();
    let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);

    let (mut handles, mut router) = spawn_fleet(&local, &dir);

    handles.remove(1).kill();
    let before = router.router_stats().retries;
    for attempt in 0..3 {
        match router.query(&100.5, &spec) {
            Err(RouterError::ShardUnavailable { shard: 1, .. }) => {}
            other => panic!("attempt {attempt}: expected ShardUnavailable, got {other:?}"),
        }
        // The near cluster keeps answering between failed attempts.
        let want = cpnn(&local, &0.5, &spec, &cfg).unwrap();
        assert_same(&router.query(&0.5, &spec).unwrap(), &want, "near cluster");
    }
    assert!(
        router.router_stats().retries > before,
        "redial attempts against the dead shard must be counted"
    );

    for h in handles {
        h.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
