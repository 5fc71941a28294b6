//! The distributed-serving correctness contract, on random workloads:
//!
//! 1. **1-D equivalence** — at shard-process counts 1, 2, and 4, a
//!    routed C-PNN query (socket fan-out, wire-shipped histograms,
//!    router-side merge + verify/refine) returns **bit-for-bit** the
//!    verdicts and probability bounds of the in-process [`ShardedDb`];
//! 2. **k-NN equivalence** — same, for C-PkNN (`k > 1`);
//! 3. **2-D equivalence** — same, over the disk/rectangle engine;
//! 4. **update equivalence** — under interleaved coalesced update
//!    bursts (inserts, removes, duplicate inserts, removes of absent
//!    ids), routed per-op outcomes match the in-process ones and every
//!    post-burst query still matches bit-for-bit;
//! 5. **merge determinism** — [`merge_replies`] is a pure function of
//!    the reply *contents*: shuffling shard reply arrival order changes
//!    nothing;
//! 6. **candidate codec identity** — a `Candidates` reply decodes to
//!    exactly the histograms that were encoded, every `f64` bit intact
//!    (the keystone under properties 1–4).

use std::sync::Arc;

use cpnn_core::pipeline::{cpnn, PipelineConfig, QuerySpec};
use cpnn_core::{
    CpnnResult, DistanceModel, Object2d, ObjectId, QueryServer, ShardedDb,
    Strategy as EvalStrategy, UncertainDb, UncertainDb2d, UncertainObject,
};
use cpnn_router::{
    merge_replies, QueryRouter, Response, RoutedModel, RouterConfig, ShardAddr, ShardListener,
    ShardMap, ShardReply, ShardServeConfig, ShardServerHandle, UpdateOp,
};
use proptest::prelude::*;
use proptest::TestCaseError;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// Random uniform-pdf 1-D objects with ids `0..n` on a bounded domain.
fn objects(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

/// Random 2-D objects: disks and axis-aligned rectangles, ids `0..n`.
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec(
        (-30.0f64..30.0, -30.0f64..30.0, 0.5f64..5.0, prop::bool::ANY),
        3..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r, disk))| {
                let id = ObjectId(i as u64);
                if disk {
                    Object2d::circle(id, [x, y], r).unwrap()
                } else {
                    Object2d::rectangle(id, [x - r, y - r * 0.7], [x + r, y + r * 0.7]).unwrap()
                }
            })
            .collect()
    })
}

/// A quick-failing router config for tests (no multi-second stalls).
fn router_cfg() -> RouterConfig {
    RouterConfig {
        timeout: std::time::Duration::from_secs(10),
        retries: 1,
        backoff: std::time::Duration::from_millis(10),
    }
}

/// Bit-for-bit result comparison: answers plus every report (id, label,
/// and probability bounds — `ObjectReport` derives `PartialEq`).
fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

/// A fleet of in-test shard processes (thread-hosted, Unix-domain
/// sockets in a per-test temp directory) mirroring `db`'s partitioning.
struct Fleet<M: RoutedModel> {
    handles: Vec<ShardServerHandle<M>>,
    map: ShardMap,
}

fn spawn_fleet<M: RoutedModel>(db: &ShardedDb<M>, tag: &str) -> Fleet<M> {
    let dir = std::env::temp_dir().join(format!("cpnn-router-pt-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket dir");
    let mut addrs = Vec::with_capacity(db.num_shards());
    let mut handles = Vec::with_capacity(db.num_shards());
    for i in 0..db.num_shards() {
        // Rebuild the slab's model exactly as `from_parts` would — same
        // objects, same config, its own index.
        let model = M::build_shard(db.shard_model(i).shard_objects(), db.shard_configuration())
            .expect("shard rebuild");
        let server = Arc::new(QueryServer::start(model, 1, db.pipeline_config()));
        let addr = ShardAddr::Unix(dir.join(format!("s{i}.sock")));
        let listener = ShardListener::bind(&addr).expect("bind shard socket");
        let handle = ShardServerHandle::spawn(server, listener, ShardServeConfig::default())
            .expect("spawn shard server");
        addrs.push(handle.addr().clone());
        handles.push(handle);
    }
    let map = ShardMap {
        axis: db.partition_axis(),
        bounds: db.slab_bounds().to_vec(),
        addrs,
    };
    Fleet { handles, map }
}

impl<M: RoutedModel> Fleet<M> {
    fn router(&self, pipeline: PipelineConfig) -> QueryRouter<M> {
        QueryRouter::connect(&self.map, pipeline, router_cfg()).expect("router connect")
    }

    fn shutdown(self) {
        for h in self.handles {
            h.shutdown();
        }
    }
}

/// A deterministic index permutation from a seed (splitmix-style LCG;
/// the shuffle only needs to be arbitrary, not uniform).
fn permute<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: routed ≡ single-process for 1-D C-PNN at every
    /// shard-process count.
    #[test]
    fn routed_equals_single_process_1d(
        objs in objects(18),
        points in prop::collection::vec(-60.0f64..60.0, 1..8),
        threshold in 0.05f64..0.95,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(threshold, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            let fleet = spawn_fleet(&sharded, "eq1d");
            let mut router = fleet.router(cfg);
            for &q in &points {
                let want = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                let got = router.query(&q, &spec).unwrap();
                assert_same(&got, &want, &format!("q = {q}, {shards} shard procs"))?;
            }
            fleet.shutdown();
        }
    }

    /// Property 2: routed ≡ single-process for C-PkNN.
    #[test]
    fn routed_equals_single_process_knn(
        objs in objects(16),
        points in prop::collection::vec(-60.0f64..60.0, 1..6),
        k in 2usize..5,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.4, 0.0, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            let fleet = spawn_fleet(&sharded, "eqknn");
            let mut router = fleet.router(cfg);
            for &q in &points {
                let want = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                let got = router.query(&q, &spec).unwrap();
                assert_same(&got, &want, &format!("q = {q}, k = {k}, {shards} shard procs"))?;
            }
            fleet.shutdown();
        }
    }

    /// Property 3: routed ≡ single-process over the 2-D engine.
    #[test]
    fn routed_equals_single_process_2d(
        objs in objects_2d(12),
        points in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..5),
        k in 1usize..4,
    ) {
        let flat = UncertainDb2d::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.3, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = ShardedDb::from_model(&flat, shards).unwrap();
            let fleet = spawn_fleet(&sharded, "eq2d");
            let mut router = fleet.router(cfg);
            for &(x, y) in &points {
                let q = [x, y];
                let want = cpnn(&sharded, &q, &spec, &cfg).unwrap();
                let got = router.query(&q, &spec).unwrap();
                assert_same(&got, &want, &format!("q = {q:?}, k = {k}, {shards} shard procs"))?;
            }
            fleet.shutdown();
        }
    }

    /// Property 4: routed ≡ single-process under interleaved coalesced
    /// update bursts — per-op outcomes match (including duplicate-insert
    /// failures and remove-absent no-ops), and every post-burst query
    /// still matches bit-for-bit.
    #[test]
    fn routed_matches_under_interleaved_updates(
        objs in objects(14),
        points in prop::collection::vec(-60.0f64..60.0, 2..6),
        bursts in prop::collection::vec(
            prop::collection::vec((0u32..3, 0u64..6, -50.0f64..50.0), 1..5),
            1..4,
        ),
        shards in prop::sample::select(vec![2usize, 4]),
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let mut local = ShardedDb::from_model(&flat, shards).unwrap();
        let fleet = spawn_fleet(&local, "upd");
        let mut router = fleet.router(cfg);
        for (b, burst) in bursts.iter().enumerate() {
            let mut ops = Vec::with_capacity(burst.len());
            let mut expected = Vec::with_capacity(burst.len());
            for &(kind, slot, pos) in burst {
                // A small id pool (1000..1006) makes duplicate inserts
                // and absent removes common.
                let id = ObjectId(1000 + slot);
                if kind < 2 {
                    let object = UncertainObject::uniform(id, pos, pos + 2.0).unwrap();
                    expected.push(local.insert(object.clone()).map_err(|e| e.to_string()));
                    ops.push(UpdateOp::Insert(object));
                } else {
                    let _ = local.remove(id);
                    // Remove is a no-op success even when absent.
                    expected.push(Ok(()));
                    ops.push(UpdateOp::Remove(id));
                }
            }
            let report = router.update(ops).unwrap();
            prop_assert_eq!(report.batch, burst.len());
            prop_assert_eq!(&report.outcomes, &expected, "burst {} outcomes", b);
            prop_assert_eq!(report.objects as usize, local.len(), "burst {} size", b);
            for &q in &points {
                let want = cpnn(&local, &q, &spec, &cfg).unwrap();
                let got = router.query(&q, &spec).unwrap();
                assert_same(&got, &want, &format!("q = {q} after burst {b}, {shards} shard procs"))?;
            }
        }
        fleet.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 5: the router-side merge is independent of reply arrival
    /// order — shuffled replies produce the identical merged survivor
    /// list (same items, same order, same bits).
    #[test]
    fn merge_is_order_independent(
        objs in objects(24),
        q in -60.0f64..60.0,
        k in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let sharded = ShardedDb::from_model(&flat, 4).unwrap();
        let selected = sharded.overlapping(&q, k);
        let replies = |order_seed: Option<u64>| {
            let mut rs: Vec<ShardReply> = selected
                .iter()
                .map(|&(near, i)| ShardReply {
                    near,
                    shard: i,
                    items: sharded.shard_model(i).filter(&q, k).unwrap().items,
                })
                .collect();
            if let Some(s) = order_seed {
                permute(&mut rs, s);
            }
            rs
        };
        let want = merge_replies(replies(None), k).unwrap();
        let got = merge_replies(replies(Some(seed)), k).unwrap();
        prop_assert_eq!(got.items, want.items, "merged survivors differ after shuffle");
    }

    /// Property 6: the `Candidates` wire codec is the identity on filter
    /// output — decode(encode(items)) == items, bit for bit (histograms
    /// cross as raw parts; nothing is renormalized).
    #[test]
    fn candidates_round_trip_bitwise(
        objs in objects(24),
        q in -60.0f64..60.0,
        k in 1usize..4,
        version in 0u64..u64::MAX,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let items = flat.filter(&q, k).unwrap().items;
        let payload = Response::Candidates { version, items: items.clone() }.encode();
        match Response::decode(&payload).unwrap() {
            Response::Candidates { version: v, items: got } => {
                prop_assert_eq!(v, version);
                prop_assert_eq!(got, items, "decoded candidates differ from encoded");
            }
            other => prop_assert!(false, "unexpected decode: {:?}", other),
        }
    }
}
