//! `routed_2shard`'s layers. The router's own steps cannot be timed from
//! inside without library spans, so each query is replayed in-process
//! through the same public pieces the router and shard servers call —
//! `select_overlapping`, each shard's `filter`, `Response::encode` /
//! `decode` on the very `Candidates` replies, `merge_replies`, candidate
//! assembly + `evaluate_candidates` — and what is left of the routed
//! round trip is sockets, framing syscalls and thread hand-offs.

use std::time::Instant;

use cpnn_benchmark::inputs::{self, Workload};
use cpnn_benchmark::workloads::{self, Outcome, RunDir};
use cpnn_core::pipeline::{cpnn_with, evaluate_candidates, QueryStats};
use cpnn_core::shard::select_overlapping;
use cpnn_core::{
    CandidateSet, DistanceModel, Extent, ObjectId, QueryScratch, ShardableModel, ShardedDb,
    UncertainDb,
};
use cpnn_router::{merge_replies, Response, ShardReply};

use crate::spans::Tracer;
use crate::Metrics;

/// One query through the in-process twin of the routed path.
fn replay(
    t: &mut Tracer,
    query: u32,
    sharded: &ShardedDb<UncertainDb>,
    summaries: &[(Option<Extent>, usize)],
    q: f64,
    scratch: &mut QueryScratch,
    wire_bytes: &mut usize,
) -> Vec<ObjectId> {
    let spec = Workload::Routed2Shard.spec();
    let k = spec.k.max(1);
    let root = t.enter("replay", query);

    let select = t.enter("shard.select", query);
    let selected = select_overlapping(summaries, &q, k);
    t.exit(select);

    let mut replies = Vec::with_capacity(selected.len());
    for (near, shard) in selected {
        let filter = t.enter("shard.filter", query);
        let items = sharded
            .shard_model(shard)
            .filter(&q, k)
            .expect("shard filter")
            .items;
        t.exit(filter);
        let encode = t.enter("wire.encode", query);
        let frame = Response::Candidates { version: 0, items }.encode();
        t.exit(encode);
        *wire_bytes += frame.len();
        let decode = t.enter("wire.decode", query);
        let decoded = Response::decode(&frame).expect("own frame decodes");
        t.exit(decode);
        let Response::Candidates { items, .. } = decoded else {
            unreachable!("a Candidates frame decodes to Candidates");
        };
        replies.push(ShardReply { near, shard, items });
    }

    let merge = t.enter("router.merge", query);
    let filtered = merge_replies(replies, k).expect("merge");
    t.exit(merge);

    let evaluate = t.enter("router.evaluate", query);
    let cands = CandidateSet::from_distances(filtered.items, k);
    let result = evaluate_candidates(
        &cands,
        &spec,
        &sharded.pipeline_config(),
        scratch,
        QueryStats::default(),
    )
    .expect("evaluate");
    t.exit(evaluate);
    t.exit(root);
    result.answers
}

pub fn budget(seed: u64, seconds: f64, untraced: &Outcome, metrics: &mut Metrics) -> Tracer {
    let spec = Workload::Routed2Shard.spec();
    let n = Workload::Routed2Shard.queries(seconds);
    let points = inputs::points_1d(seed, n);
    let dir = RunDir::create(Workload::Routed2Shard).expect("run dir inside the checkout");
    let mut fleet = workloads::start_fleet(dir.path());
    for q in inputs::warmup_1d(seed, inputs::warmup_len(n)) {
        fleet.router.query(&q, &spec).expect("warm-up query");
    }

    // The routed round trip, with one span per query and without.
    let fanned_before = fleet.router.router_stats().fanned_out;
    let router = &mut fleet.router;
    let mut pass = |tracer: &mut Tracer| {
        let start = Instant::now();
        for (i, q) in points.iter().enumerate() {
            let span = tracer.enter("router.query", i as u32);
            let routed = router.query(q, &spec).expect("routed query");
            tracer.exit(span);
            assert_eq!(routed.answers, untraced.answers[i], "routed answers repeat");
        }
        start.elapsed()
    };
    // Traced first: whatever a first pass pays for being first is then
    // charged to tracing, never credited to it.
    let mut tracer = Tracer::new(true);
    let traced_wall = pass(&mut tracer);
    let untraced_wall = pass(&mut Tracer::new(false));
    let fanned = fleet.router.router_stats().fanned_out - fanned_before;
    metrics.set("router.fanout_per_query", fanned as f64 / (2 * n) as f64);

    // The in-process twin of every step the router and the shards take.
    let sharded = &fleet.sharded;
    let summaries: Vec<(Option<Extent>, usize)> = (0..sharded.num_shards())
        .map(|i| {
            let shard = sharded.shard_model(i);
            (shard.model_extent(), shard.total_objects())
        })
        .collect();
    let mut scratch = QueryScratch::new();
    let mut wire_bytes = 0usize;
    for (i, &q) in points.iter().enumerate() {
        let answers = replay(
            &mut tracer,
            i as u32,
            sharded,
            &summaries,
            q,
            &mut scratch,
            &mut wire_bytes,
        );
        assert_eq!(
            answers, untraced.answers[i],
            "in-process replay of query {i} disagrees with the router"
        );
    }

    let totals = tracer.totals();
    let per_query = |span: &str| totals.get(span).map_or(0.0, |t| t.total_us) / n as f64;
    for (metric, span) in [
        ("shard.select_us", "shard.select"),
        ("wire.encode_us", "wire.encode"),
        ("wire.decode_us", "wire.decode"),
        ("router.merge_us", "router.merge"),
        ("router.evaluate_us", "router.evaluate"),
    ] {
        metrics.set(metric, per_query(span));
    }
    metrics.set("wire.bytes_per_query", wire_bytes as f64 / n as f64);
    metrics.set(
        "router.rtt_us",
        per_query("router.query")
            - per_query("shard.select")
            - per_query("router.merge")
            - per_query("router.evaluate"),
    );
    metrics.set(
        "trace.untraced_e2e_us",
        untraced_wall.as_secs_f64() * 1e6 / n as f64,
    );
    metrics.set(
        "trace.overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );

    // The same queries against the in-process sharded database and the
    // flat one: the bases the routed throughput is a ratio of.
    let mut qps = |model: &dyn Fn(&f64, &mut QueryScratch)| {
        let start = Instant::now();
        for q in &points {
            model(q, &mut scratch);
        }
        n as f64 / start.elapsed().as_secs_f64()
    };
    let cfg = sharded.pipeline_config();
    let inproc_qps = qps(&|q, scratch| {
        cpnn_with(sharded, q, &spec, &cfg, scratch).expect("sharded query");
    });
    let direct_qps = qps(&|q, scratch| {
        cpnn_with(&fleet.flat, q, &spec, &cfg, scratch).expect("direct query");
    });
    metrics.set("shard.inproc_qps", inproc_qps);
    metrics.set(
        "router.over_direct",
        n as f64 / untraced_wall.as_secs_f64() / direct_qps,
    );
    tracer
}
