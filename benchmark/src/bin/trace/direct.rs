//! The per-layer budget of the three direct workloads: the pipeline is
//! replayed through its decomposed public calls (`DistanceModel::filter`
//! → `CandidateSet::from_distances` → `SubregionTable::build` →
//! `run_verification_into` → `incremental_refine_with`) with a span at
//! every layer boundary. The replay must return the answers `cpnn_with`
//! returned for every query, so the budget cannot drift from the real
//! pipeline.

use std::time::Instant;

use cpnn_benchmark::inputs::Workload;
use cpnn_benchmark::workloads::Outcome;
use cpnn_core::framework::{default_verifiers, knn_verifiers, run_verification_into, StageReport};
use cpnn_core::refine::incremental_refine_with;
use cpnn_core::verifiers::{kernels, VerificationState};
use cpnn_core::{
    BatchExecutor, CandidateSet, Classifier, DistanceModel, Label, ObjectId, PipelineConfig,
    QuerySpec, SubregionTable,
};
use cpnn_rtree::{Params, RTree, Rect};

use crate::spans::Tracer;
use crate::Metrics;

/// What differs between the 1-D and 2-D replays: the span the
/// distance-distribution half of `DistanceModel::filter` is booked under
/// (so the two construction costs stay apart), and whether histogram
/// resolution is a reported layer metric.
pub struct Dimension {
    distance_span: &'static str,
    bins_metric: Option<&'static str>,
}

pub const ONE_D: Dimension = Dimension {
    distance_span: "distance.build",
    bins_metric: None,
};
pub const TWO_D: Dimension = Dimension {
    distance_span: "engine2d.distance_build",
    bins_metric: Some("engine2d.bins_per_object"),
};

/// Exact work counters, summed over the replayed queries.
#[derive(Default)]
struct Counters {
    candidates: usize,
    subregions: usize,
    bins: usize,
    unknown_after: [usize; 3],
    resolved: usize,
    integrations: usize,
    refined_objects: usize,
}

fn stage_span(stage: &str) -> (&'static str, Option<usize>) {
    match stage {
        "RS" => ("verifiers.rs", Some(0)),
        "L-SR" => ("verifiers.lsr", Some(1)),
        "U-SR" => ("verifiers.usr", Some(2)),
        "SR-k" => ("verifiers.srk", None),
        other => panic!("unknown verifier stage {other}: name its span here"),
    }
}

/// Run `f`, adding its wall time to `acc_ns`.
fn timed<R>(acc_ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let value = f();
    *acc_ns += start.elapsed().as_nanos() as u64;
    value
}

/// The decomposed pipeline and the state it carries across queries:
/// spans, reusable verification buffers (as `QueryScratch` does), and the
/// work counters.
struct Replay<'a, M> {
    tracer: Tracer,
    model: &'a M,
    spec: QuerySpec,
    cfg: &'a PipelineConfig,
    dim: &'a Dimension,
    state: VerificationState,
    stages: Vec<StageReport>,
    counts: Counters,
}

impl<M: DistanceModel> Replay<'_, M> {
    /// One query, layer by layer; mirrors `cpnn_with` without a cache.
    fn query(&mut self, query: u32, q: &M::Query) -> Vec<ObjectId> {
        let Self {
            tracer: t,
            model,
            spec,
            cfg,
            dim,
            state,
            stages,
            counts,
        } = self;
        let root = t.enter("pipeline", query);
        model.check_query(q).expect("seeded query point is valid");
        let classifier = Classifier::new(spec.threshold, spec.tolerance).expect("workload spec");
        let k = spec.k.max(1);

        let filter = t.enter("model.filter", query);
        let filtered = model.filter(q, k).expect("filter succeeds");
        t.exit(filter);
        // The library reports how much of the call was index pruning; the
        // rest is distance-distribution construction.
        let pruned = t.child(
            filter,
            "rtree.prune",
            0,
            filtered.filter_time.as_nanos() as u64,
        );
        t.child(filter, dim.distance_span, pruned, u64::MAX / 2);
        counts.bins += filtered
            .items
            .iter()
            .map(|(_, d)| d.breakpoints().len() - 1)
            .sum::<usize>();

        let assemble = t.enter("candidate.assemble", query);
        let cands = CandidateSet::from_distances(filtered.items, k);
        t.exit(assemble);
        let build = t.enter("subregion.build", query);
        let table = SubregionTable::build(&cands);
        t.exit(build);
        counts.candidates += cands.len();
        counts.subregions += table.subregion_count();
        state.reset(&table);
        stages.clear();

        let verify = t.enter("verifiers", query);
        let chain = if k == 1 {
            default_verifiers()
        } else {
            knn_verifiers(k)
        };
        run_verification_into(&table, &classifier, &chain, state, stages);
        t.exit(verify);
        let mut offset = 0;
        for stage in stages.iter() {
            let (name, slot) = stage_span(stage.name);
            offset = t.child(verify, name, offset, stage.duration.as_nanos() as u64);
            if let Some(slot) = slot {
                counts.unknown_after[slot] += stage.unknown_after;
            }
        }
        counts.resolved += usize::from(state.unknown_count() == 0);

        let refine = t.enter("refine", query);
        let mut qual_ns = 0u64;
        let report = if k == 1 {
            incremental_refine_with(
                &table,
                &classifier,
                state,
                cfg.refinement_order,
                |i, j, scr| {
                    timed(&mut qual_ns, || {
                        kernels::nn_qualification(&table, i, j, scr)
                    })
                },
            )
        } else {
            incremental_refine_with(
                &table,
                &classifier,
                state,
                cfg.refinement_order,
                |i, j, scr| {
                    timed(&mut qual_ns, || {
                        kernels::knn_qualification(&table, i, j, k, scr)
                    })
                },
            )
        };
        t.exit(refine);
        t.child(refine, "refine.qual", 0, qual_ns);
        counts.integrations += report.integrations;
        counts.refined_objects += report.refined_objects;

        let mut answers: Vec<ObjectId> = cands
            .members()
            .iter()
            .zip(&state.labels)
            .filter(|(_, &label)| label == Label::Satisfy)
            .map(|(m, _)| m.id)
            .collect();
        answers.sort_unstable();
        t.exit(root);
        answers
    }
}

/// Replay `points` through the decomposed pipeline, assert the answers
/// against the untraced run's, and fill in the per-layer metrics.
pub fn budget<M>(
    workload: Workload,
    model: &M,
    points: &[M::Query],
    cfg: &PipelineConfig,
    dim: &Dimension,
    untraced: &Outcome,
    metrics: &mut Metrics,
) -> Tracer
where
    M: DistanceModel + Sync,
    M::Query: Sync,
{
    let spec = workload.spec();
    let n = points.len() as f64;
    let mut replay = Replay {
        tracer: Tracer::new(true),
        model,
        spec,
        cfg,
        dim,
        state: VerificationState::default(),
        stages: Vec::new(),
        counts: Counters::default(),
    };
    let start = Instant::now();
    for (i, q) in points.iter().enumerate() {
        let answers = replay.query(i as u32, q);
        assert_eq!(
            answers, untraced.answers[i],
            "decomposed replay of query {i} disagrees with cpnn_with"
        );
    }
    let traced_wall = start.elapsed();
    let Replay { tracer, counts, .. } = replay;

    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_us) / n;
    let own = |name: &str| totals.get(name).map_or(0.0, |t| t.self_us) / n;
    for (metric, span) in [
        ("rtree.prune_us", "rtree.prune"),
        ("distance.build_us", "distance.build"),
        ("engine2d.distance_build_us", "engine2d.distance_build"),
        ("candidate.assemble_us", "candidate.assemble"),
        ("subregion.build_us", "subregion.build"),
        ("verifiers.total_us", "verifiers"),
        ("verifiers.rs_us", "verifiers.rs"),
        ("verifiers.lsr_us", "verifiers.lsr"),
        ("verifiers.usr_us", "verifiers.usr"),
        ("verifiers.srk_us", "verifiers.srk"),
        ("refine.total_us", "refine"),
        ("refine.qual_us", "refine.qual"),
        ("pipeline.e2e_us", "pipeline"),
    ] {
        if totals.contains_key(span) {
            metrics.set(metric, total(span));
        }
    }
    metrics.set("refine.bookkeeping_us", own("refine"));
    metrics.set(
        "pipeline.residual_frac",
        own("pipeline") / total("pipeline"),
    );
    let mean = |count: usize| count as f64 / n;
    if let Some(metric) = dim.bins_metric {
        metrics.set(metric, counts.bins as f64 / counts.candidates.max(1) as f64);
    }
    metrics.set("candidate.count", mean(counts.candidates));
    metrics.set("subregion.count", mean(counts.subregions));
    metrics.set("verifiers.unknown_after_rs", mean(counts.unknown_after[0]));
    metrics.set("verifiers.unknown_after_lsr", mean(counts.unknown_after[1]));
    metrics.set("verifiers.unknown_after_usr", mean(counts.unknown_after[2]));
    metrics.set("verifiers.resolved_frac", mean(counts.resolved));
    metrics.set("refine.integrations", mean(counts.integrations));
    metrics.set("refine.objects", mean(counts.refined_objects));

    let untraced_us = untraced.wall.as_secs_f64() * 1e6 / n;
    metrics.set("trace.untraced_e2e_us", untraced_us);
    metrics.set(
        "trace.overhead_frac",
        traced_wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
    );

    // Batch hand-off: the same queries through the batch executor at one
    // thread (its per-query cost over the bare pipeline) and at two.
    let one = BatchExecutor::new(1).run_uniform(model, points, &spec, cfg);
    let two = BatchExecutor::new(2).run_uniform(model, points, &spec, cfg);
    assert_eq!(
        one.summary.errors + two.summary.errors,
        0,
        "batch runs cleanly"
    );
    metrics.set(
        "batch.overhead_us",
        one.summary.wall_time.as_secs_f64() * 1e6 / n - untraced_us,
    );
    metrics.set(
        "batch.t2_speedup",
        one.summary.wall_time.as_secs_f64() / two.summary.wall_time.as_secs_f64(),
    );
    tracer
}

/// Index work per query, counted on a tree bulk-loaded from the same
/// rectangles with the same fan-out: nodes popped and leaf records
/// inspected by the best-first candidate search.
pub fn rtree_counts<const D: usize>(
    rects: Vec<Rect<D>>,
    params: Params,
    points: &[[f64; D]],
    k: usize,
    metrics: &mut Metrics,
) {
    let tree = RTree::bulk_load_with(rects.into_iter().map(|r| (r, ())).collect(), params);
    let (mut nodes, mut records) = (0, 0);
    for q in points {
        let (_, stats) = tree.pnn_candidates_k(q, k);
        nodes += stats.nodes_visited;
        records += stats.records_inspected;
    }
    metrics.set("rtree.nodes_visited", nodes as f64 / points.len() as f64);
    metrics.set(
        "rtree.records_inspected",
        records as f64 / points.len() as f64,
    );
}
