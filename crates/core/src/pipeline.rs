//! The unified C-PNN query pipeline (paper Fig. 3 / Fig. 5).
//!
//! Every query flavor this crate evaluates — 1-D intervals
//! ([`crate::UncertainDb`]), 2-D disks and rectangles
//! ([`crate::UncertainDb2d`]), and the
//! k-NN extension ([`crate::knn`]) — runs the *same* four phases:
//!
//! 1. **filter** — prune objects that provably cannot qualify (R-tree or
//!    near/far scan; Sec. III of the paper);
//! 2. **init** — build each survivor's distance distribution and the
//!    [`SubregionTable`] (Sec. IV-A, Fig. 7);
//! 3. **verify** — tighten probability bounds with algebraic verifiers
//!    (RS / U-SR / L-SR for 1-NN, Sec. IV-B/C; their k-ary analogues for
//!    k-NN) and classify against the threshold;
//! 4. **refine** — exact per-subregion integration for leftovers,
//!    incrementally (Sec. IV-D).
//!
//! The paper's observation that makes this factoring sound is Sec. IV-A:
//! *"our solution only needs distance pdfs and cdfs"* — once a
//! [`DistanceModel`] has turned its geometry into
//! [`DistanceDistribution`]s, phases 2–4 are dimension-agnostic. The
//! concrete databases are thin instantiations of this module; none of them
//! carries its own copy of the control flow.
//!
//! [`QueryScratch`] holds the allocations the verify/refine phases reuse
//! across queries, plus the per-thread [`VerifyCache`] that (when enabled
//! through [`PipelineConfig`]'s `cache` knob) memoizes filter output,
//! distance distributions, and verification outcomes by quantized query
//! point; [`cpnn_with`] only snaps and keys the point and hands the
//! lookup, fill and outcome record to it (the two-tier policy lives in
//! [`crate::cache`]). The batch executor ([`crate::BatchExecutor`]) keeps one
//! scratch per worker thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bounds::ProbBound;
use crate::cache::{
    CacheConfig, CacheStats, Probe, SharedCacheConfig, SharedVerifyCache, VerifyCache,
};
use crate::candidate::CandidateSet;
use crate::classify::{Classifier, Label};
use crate::distance::DistanceDistribution;
use crate::error::Result;
use crate::exact::exact_probabilities;
use crate::framework::{default_verifiers, knn_verifiers, run_verification_into, StageReport};
use crate::knn::knn_probabilities;
use crate::object::ObjectId;
use crate::refine::{incremental_refine_with, RefinementOrder};
use crate::subregion::{Columns, FillOnDemand, SubregionTable, MASS_EPS};
use crate::verifiers::{kernels, VerificationState};

/// Evaluation strategy — the three methods compared throughout Sec. V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Exact probabilities for every candidate (\[5\]), one exact
    /// integral per subregion an object has mass in (the integrals
    /// refinement evaluates, all of them, at every `k`); answers
    /// thresholded afterwards.
    Basic,
    /// Skip verification; incremental refinement directly ("Refine").
    RefineOnly,
    /// Verifiers first, refinement only for leftovers ("VR" — the paper's
    /// proposed method).
    Verified,
}

/// A C-PNN query: point, threshold `P`, tolerance `Δ` (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpnnQuery {
    /// The query point `q`.
    pub q: f64,
    /// Threshold `P ∈ (0, 1]`.
    pub threshold: f64,
    /// Tolerance `Δ ∈ [0, 1]`.
    pub tolerance: f64,
}

impl CpnnQuery {
    /// Convenience constructor.
    pub fn new(q: f64, threshold: f64, tolerance: f64) -> Self {
        Self {
            q,
            threshold,
            tolerance,
        }
    }
}

/// Per-candidate verdict in a query result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectReport {
    /// The object.
    pub id: ObjectId,
    /// Final probability bound (collapsed to a point for exact strategies).
    pub bound: ProbBound,
    /// Final classification.
    pub label: Label,
}

/// Wall-clock and work statistics for one query (feeds Figs. 9–13).
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Objects in the database.
    pub total_objects: usize,
    /// Candidate set size `|C|` after filtering.
    pub candidates: usize,
    /// Subregion count `M` (0 when no table was built).
    pub subregions: usize,
    /// Filtering (R-tree / near-far scan) time.
    pub filter_time: Duration,
    /// Initialization time (distance distributions + subregion table).
    pub init_time: Duration,
    /// Verification time (all verifier stages).
    pub verify_time: Duration,
    /// Refinement / exact-evaluation time.
    pub refine_time: Duration,
    /// Per-verifier-stage reports (empty for non-verified strategies).
    pub stages: Vec<StageReport>,
    /// Objects that entered refinement.
    pub refined_objects: usize,
    /// Work counter: subregion integrations, for every strategy.
    pub integrations: usize,
    /// Composite quadrature passes refinement ran for its `integrations`
    /// (VR/Refine; see [`crate::refine::RefineReport::column_passes`]).
    pub column_passes: usize,
    /// Poisson-binomial tails the SR-k stages evaluated (k-NN VR; one per
    /// object and visited end-point — see
    /// [`crate::knn::KnnSubregion`]).
    pub pb_tails: usize,
    /// Closed-form cdf knots the subregion table evaluated (2-D; 0 in 1-D,
    /// whose distance histograms are folds; 2-D cdfs are interpolated
    /// through closed-form knots).
    pub cdf_evals: usize,
    /// Did verification alone resolve the query (Fig. 13's metric)?
    pub resolved_by_verification: bool,
}

impl QueryStats {
    /// Total time across all phases.
    pub fn total_time(&self) -> Duration {
        self.filter_time + self.init_time + self.verify_time + self.refine_time
    }
}

/// Result of a C-PNN query.
#[derive(Debug, Clone)]
pub struct CpnnResult {
    /// IDs of objects satisfying the query, ascending.
    pub answers: Vec<ObjectId>,
    /// Verdict for every candidate (in candidate order).
    pub reports: Vec<ObjectReport>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Result of a plain PNN query: every candidate with its qualification
/// probability, descending.
#[derive(Debug, Clone)]
pub struct PnnResult {
    /// `(id, probability)` pairs, descending by probability.
    pub probabilities: Vec<(ObjectId, f64)>,
    /// Execution statistics.
    pub stats: QueryStats,
}

/// Everything about a constrained query except the query *point* (whose
/// type belongs to the [`DistanceModel`]): threshold, tolerance, horizon
/// `k`, and the evaluation strategy.
///
/// ```
/// use cpnn_core::{QuerySpec, Strategy};
///
/// // The paper's C-PNN (Definition 1): threshold P = 0.3, tolerance Δ = 0.01.
/// let nn = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
/// assert_eq!(nn.k, 1);
///
/// // The C-PkNN extension: among the 3 nearest with probability ≥ 0.5.
/// let knn = QuerySpec::knn(3, 0.5, 0.0, Strategy::Verified);
/// assert_eq!((knn.k, knn.threshold), (3, 0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Threshold `P ∈ (0, 1]`.
    pub threshold: f64,
    /// Tolerance `Δ ∈ [0, 1]`.
    pub tolerance: f64,
    /// Neighbor count: `1` is the paper's C-PNN, larger values the C-PkNN
    /// extension.
    pub k: usize,
    /// Evaluation strategy.
    pub strategy: Strategy,
}

impl QuerySpec {
    /// A 1-NN spec.
    pub fn nn(threshold: f64, tolerance: f64, strategy: Strategy) -> Self {
        Self {
            threshold,
            tolerance,
            k: 1,
            strategy,
        }
    }

    /// A k-NN spec.
    pub fn knn(k: usize, threshold: f64, tolerance: f64, strategy: Strategy) -> Self {
        Self {
            threshold,
            tolerance,
            k,
            strategy,
        }
    }
}

/// Pipeline tuning knobs shared by every model (the model-specific knobs —
/// histogram resolution, R-tree fan-out — live with the model).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Subregion visiting order during incremental refinement.
    pub refinement_order: RefinementOrder,
    /// Per-thread verification-state cache (see [`crate::cache`]):
    /// capacity 0 (the default) disables it, otherwise each
    /// [`QueryScratch`]'s [`VerifyCache`] is sized from it and the
    /// pipeline consults it transparently.
    pub cache: CacheConfig,
    /// Process-wide shared cache tier (see [`SharedVerifyCache`]): the L2
    /// behind every worker's per-thread cache. The execution surfaces
    /// (batch, server) build one tier with
    /// [`SharedVerifyCache::for_config`] — which builds none unless
    /// `cache` is enabled too — and attach it to each worker's scratch
    /// ([`QueryScratch::attach_shared`]).
    pub shared_cache: SharedCacheConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            refinement_order: RefinementOrder::DescendingMass,
            cache: CacheConfig::disabled(),
            shared_cache: SharedCacheConfig::disabled(),
        }
    }
}

/// Output of a model's filtering phase: the surviving objects' distance
/// distributions, plus how much of the call was *pruning* (R-tree probe,
/// near/far scan) as opposed to distribution construction — the pipeline
/// attributes the former to `filter_time` and the latter to `init_time`,
/// matching the paper's phase accounting.
#[derive(Debug)]
pub struct Filtered {
    /// `(id, distance distribution)` per surviving object. Order is
    /// irrelevant; the candidate set re-sorts by near point.
    pub items: Vec<(ObjectId, DistanceDistribution)>,
    /// Time spent pruning (not building distributions).
    pub filter_time: Duration,
}

/// A source of uncertain objects that can answer "which objects might be
/// among the `k` nearest of `q`, and what are their distance
/// distributions?" — the only geometry-specific piece of the pipeline.
///
/// Implementations: 1-D interval databases, 2-D disk/rectangle databases,
/// and plain object slices. Everything after
/// filtering is shared.
pub trait DistanceModel {
    /// The query-point type (`f64` for 1-D, `[f64; 2]` for 2-D, …).
    type Query: Copy;

    /// Total number of stored objects (for [`QueryStats::total_objects`]).
    fn total_objects(&self) -> usize;

    /// Validate a query point before any work happens.
    fn check_query(&self, q: &Self::Query) -> Result<()>;

    /// The filtering phase: prune and return distance distributions for the
    /// survivors. Over-approximation is sound (the candidate set re-prunes
    /// against the exact `k`-th smallest far point); under-approximation is
    /// not.
    fn filter(&self, q: &Self::Query, k: usize) -> Result<Filtered>;

    /// Snap a query point onto the verification-cache grid (see
    /// [`crate::cache::quantize_coord`]). The default is the identity —
    /// together with the default [`cache_key`](Self::cache_key) it opts a
    /// model out of caching entirely.
    fn quantize_query(&self, q: &Self::Query, quantum: f64) -> Self::Query {
        let _ = quantum;
        *q
    }

    /// Bit-exact cache key of an (already snapped) query point, or `None`
    /// to opt this model out of verification-state caching (the default:
    /// caching is only sound when equal keys imply equal filter output).
    fn cache_key(&self, q: &Self::Query) -> Option<u128> {
        let _ = q;
        None
    }

    /// The raw coordinates of a query point, or `None` when the model
    /// cannot expose them. Used only to let cached verification state
    /// survive *incremental* invalidation ([`QueryScratch::advance_snapshot`]):
    /// entries without coordinates are dropped conservatively whenever a
    /// region-scoped invalidation runs, so the default costs correctness
    /// nothing.
    fn query_coords(&self, q: &Self::Query) -> Option<Vec<f64>> {
        let _ = q;
        None
    }
}

/// Reusable per-query state: the subregion table (with its knot memo), the
/// verification buffers and the per-thread [`VerifyCache`] (with the
/// shared tier attached to it, if any). One scratch per worker thread lets
/// a batch run recycle these across the queries it executes instead of
/// reallocating them per query.
///
/// The cache follows each query's [`PipelineConfig`]: its `cache` field
/// sizes the per-thread segment on every call (capacity 0 bypasses it),
/// so the batch executor and query server enable caching purely through
/// configuration.
///
/// ```
/// use cpnn_core::QueryScratch;
///
/// let mut scratch = QueryScratch::new();
/// assert_eq!(scratch.cache_stats().lookups(), 0);
///
/// // Serving surfaces pin the snapshot version they evaluate against;
/// // moving it invalidates the cached verification state.
/// scratch.set_snapshot_version(3);
/// ```
#[derive(Debug, Default)]
pub struct QueryScratch {
    table: SubregionTable,
    state: VerificationState,
    stages: Vec<StageReport>,
    cache: VerifyCache,
}

impl QueryScratch {
    /// Fresh scratch (allocates lazily on first use); caches nothing
    /// until a [`PipelineConfig`] with caching enabled passes through.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative cache counters (all zero when caching never ran).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Attach the process-wide shared tier this scratch should consult on
    /// local misses (and publish fresh fills into). Batch and server
    /// surfaces call this once per worker with the tier
    /// [`SharedVerifyCache::for_config`] built; the tier only engages on
    /// queries whose config enables the per-thread cache.
    pub fn attach_shared(&mut self, tier: Arc<SharedVerifyCache>) {
        self.cache.attach_shared(tier);
    }

    /// Pin the snapshot version subsequent queries evaluate against.
    /// Moving to a different version drops every cached entry — the
    /// invalidation that keeps copy-on-write updates from serving stale
    /// candidate sets or bounds (see [`crate::cache`]).
    pub fn set_snapshot_version(&mut self, version: u64) {
        self.cache.advance_version(version, None);
    }

    /// Pin a newer snapshot version with the regions the intervening
    /// updates touched: cached entries provably unaffected by every
    /// region survive, the rest drop. `None` regions — the updates'
    /// footprint is unknown — fall back to the full clear of
    /// [`set_snapshot_version`](Self::set_snapshot_version), as does a
    /// move backwards.
    pub fn advance_snapshot(&mut self, version: u64, regions: Option<&[crate::shard::Extent]>) {
        self.cache.advance_version(version, regions);
    }
}

/// Evaluate a constrained query (C-PNN for `spec.k == 1`, C-PkNN above)
/// through the unified pipeline.
pub fn cpnn<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    cfg: &PipelineConfig,
) -> Result<CpnnResult> {
    cpnn_with(model, q, spec, cfg, &mut QueryScratch::new())
}

/// [`cpnn`] with caller-provided scratch buffers.
///
/// When `cfg` enables the verification-state cache, the query point is
/// first snapped onto the quantization grid
/// ([`DistanceModel::quantize_query`] — the identity at quantum 0) and
/// the memoized candidate set for that snapped point is reused instead of
/// re-running filter + distribution construction. A band already
/// evaluated there replays its memoized reports; any other band rebuilds
/// the subregion table from the cached candidates and runs verify/refine.
/// See [`crate::cache`] for the correctness argument.
pub fn cpnn_with<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    cfg: &PipelineConfig,
    scratch: &mut QueryScratch,
) -> Result<CpnnResult> {
    model.check_query(q)?;
    // Validate the spec before any filtering work happens.
    Classifier::new(spec.threshold, spec.tolerance)?;
    let k = spec.k.max(1);
    let mut stats = QueryStats {
        total_objects: model.total_objects(),
        ..Default::default()
    };

    // Cache consultation: snap the point and key it whenever the cache is
    // on — deterministically, so answers never depend on cache contents —
    // then look it up in both tiers.
    let mut q_eval = *q;
    let mut probe = None;
    let mut hit = None;
    scratch.cache.configure(&cfg.cache);
    if scratch.cache.is_enabled() {
        let snapped = model.quantize_query(q, cfg.cache.quantum);
        if let Some(point) = model.cache_key(&snapped) {
            q_eval = snapped;
            let p = Probe::new(point, spec, cfg, stats.total_objects);
            hit = scratch.cache.lookup(&p);
            probe = Some(p);
        }
    }

    let fresh = hit.is_none();
    let cands: Arc<CandidateSet> = match hit {
        Some(hit) => {
            stats.candidates = hit.cands.len();
            // An entry already evaluated under this exact (spec, config)
            // band replays its reports, skipping verify *and* refine —
            // strategies are deterministic functions of (candidates,
            // spec, config).
            if let Some(reports) = hit.reports {
                return Ok(collect(reports.as_ref().clone(), stats));
            }
            hit.cands
        }
        None => {
            let (cands, init_time) = prepare(model, &q_eval, k, &mut stats)?;
            stats.init_time = init_time;
            Arc::new(cands)
        }
    };
    let result = evaluate_candidates(&cands, spec, cfg, scratch, stats);
    if let (Some(probe), Ok(res)) = (probe, result.as_ref()) {
        let reports = Arc::new(res.reports.clone());
        if fresh {
            let coords = model.query_coords(&q_eval);
            scratch.cache.fill(&probe, cands, coords, reports);
        } else {
            scratch.cache.record_outcome(&probe, reports);
        }
    }
    result
}

/// The merged candidate horizon of a fan-out: the `k`-th smallest far
/// point over every filtered item pushed so far, or `∞` while fewer than
/// `k` are in hand (every object anywhere is then still a candidate).
/// [`fan_out_filter`] skips a shard whose bound exceeds it; the socket
/// router (`cpnn-router`) stops asking shards by the same value.
#[derive(Debug, Clone)]
pub struct Horizon {
    k: usize,
    /// The `k` smallest far points seen so far, ascending.
    fars: Vec<f64>,
}

impl Horizon {
    /// An empty horizon (`∞`) for a `k`-NN query (`k = 0` counts as 1).
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self {
            k,
            fars: Vec::with_capacity(k),
        }
    }

    /// Account for one filtered item with far point `far`.
    pub fn push(&mut self, far: f64) {
        if self.fars.len() < self.k || far < self.fars[self.k - 1] {
            let at = self.fars.partition_point(|f| *f <= far);
            self.fars.insert(at, far);
            self.fars.truncate(self.k);
        }
    }

    /// The current horizon.
    pub fn get(&self) -> f64 {
        if self.fars.len() == self.k {
            self.fars[self.k - 1]
        } else {
            f64::INFINITY
        }
    }
}

/// Fan a filtering pass out over shards and merge the survivors.
///
/// `shards` yields `(bound, source)` pairs where `bound` is a conservative
/// lower bound on the distance from the query to anything the shard
/// stores (e.g. the mindist from the query to the shard's minimum bounding
/// box) and `source` yields the shard's [`Filtered`] output — called at
/// most once, and only for a shard that is visited, whose items then move
/// into the merge. A shard whose bound exceeds the merged candidate
/// [`Horizon`] — the `k`-th smallest far point collected so far — is
/// skipped outright: every one of its objects has a near distance of at
/// least `bound`, so the candidate assembly
/// ([`CandidateSet::from_distances`]) would prune it anyway. The merged
/// result is therefore identical to filtering one unsharded model over the
/// same objects (property-tested in `tests/proptest_shard.rs`). Visit
/// shards in ascending `bound` order for maximal pruning; the order
/// affects how much work is skipped, never the merged candidate set.
pub fn fan_out_filter<I, F>(shards: I, k: usize) -> Result<Filtered>
where
    I: IntoIterator<Item = (f64, F)>,
    F: FnOnce() -> Result<Filtered>,
{
    let mut horizon = Horizon::new(k);
    let mut items: Vec<(ObjectId, DistanceDistribution)> = Vec::new();
    let mut filter_time = Duration::ZERO;
    for (bound, source) in shards {
        if bound > horizon.get() {
            continue;
        }
        let filtered = source()?;
        filter_time += filtered.filter_time;
        for (_, dist) in &filtered.items {
            horizon.push(dist.far());
        }
        items.extend(filtered.items);
    }
    Ok(Filtered { items, filter_time })
}

/// Run the strategy dispatch — verify → refine, refine alone, or exact —
/// over an already-assembled candidate set.
///
/// This is the back half of [`cpnn_with`]: the shard router calls it
/// directly after merging per-shard filter results, so the merged
/// evaluation is *the same code* as the unsharded one. `stats` carries
/// whatever the caller already measured (`total_objects`, `candidates`,
/// `filter_time`, and the distribution-construction share of `init_time`);
/// subregion-table construction time is added here.
pub fn evaluate_candidates(
    cands: &CandidateSet,
    spec: &QuerySpec,
    cfg: &PipelineConfig,
    scratch: &mut QueryScratch,
    mut stats: QueryStats,
) -> Result<CpnnResult> {
    let classifier = Classifier::new(spec.threshold, spec.tolerance)?;
    let k = spec.k.max(1);
    let init_time = stats.init_time;
    let init_start = Instant::now();

    match (spec.strategy, k) {
        (Strategy::Basic, k) => {
            let table = SubregionTable::build(cands);
            stats.subregions = table.subregion_count();
            stats.cdf_evals = table.cdf_evals();
            stats.init_time = init_time + init_start.elapsed();
            let start = Instant::now();
            let probs = exact_evaluation(&table, k);
            stats.refine_time = start.elapsed();
            stats.integrations = active_subregions(&table);
            Ok(finish_exact(cands, &classifier, &probs, stats))
        }
        (strategy, k) => {
            // Verify → refine (or refine alone), over the subregion table,
            // filled only as far as the stages that run read it.
            let QueryScratch {
                table,
                state,
                stages,
                ..
            } = scratch;
            table.layout(cands);
            stats.subregions = table.subregion_count();
            stats.init_time = init_time + init_start.elapsed();
            state.reset(table);
            stages.clear();
            let mut table = FillOnDemand::new(table, cands);
            if strategy == Strategy::Verified {
                let verify_start = Instant::now();
                let tails_before = state.kernel.pb_tails;
                let chain = match k {
                    1 => default_verifiers(),
                    k => knn_verifiers(k),
                };
                run_verification_into(&mut table, &classifier, &chain, state, stages);
                stats.verify_time = verify_start.elapsed().saturating_sub(table.fill_time());
                stats.pb_tails = state.kernel.pb_tails - tails_before;
                stats.resolved_by_verification = state.unknown_count() == 0;
                stats.stages = stages.clone();
            }
            // Refinement reads the whole table, and only rows still
            // `Unknown`: a resolved query never fills it.
            let need = if state.unknown_count() > 0 {
                Columns::All
            } else {
                Columns::Horizon
            };
            let table_ref = table.filled(need);
            let refine_start = Instant::now();
            let report = if k == 1 {
                incremental_refine_with(
                    table_ref,
                    &classifier,
                    state,
                    cfg.refinement_order,
                    |i, j, scr| kernels::nn_qualification(table_ref, i, j, scr),
                )
            } else {
                incremental_refine_with(
                    table_ref,
                    &classifier,
                    state,
                    cfg.refinement_order,
                    |i, j, scr| kernels::knn_qualification(table_ref, i, j, k, scr),
                )
            };
            stats.refine_time = refine_start.elapsed();
            stats.cdf_evals = table_ref.cdf_evals();
            stats.init_time += table.fill_time();
            stats.refined_objects = report.refined_objects;
            stats.integrations = report.integrations;
            stats.column_passes = report.column_passes;
            Ok(finish_state(cands, state, stats))
        }
    }
}

/// Exact qualification probabilities for every candidate (PNN for `k == 1`,
/// PkNN above), descending.
pub fn pnn<M: DistanceModel + ?Sized>(model: &M, q: &M::Query, k: usize) -> Result<PnnResult> {
    model.check_query(q)?;
    let k = k.max(1);
    let mut stats = QueryStats {
        total_objects: model.total_objects(),
        ..Default::default()
    };
    let (cands, init_time) = prepare(model, q, k, &mut stats)?;
    let init_start = Instant::now();
    let table = SubregionTable::build(&cands);
    stats.subregions = table.subregion_count();
    stats.cdf_evals = table.cdf_evals();
    stats.init_time = init_time + init_start.elapsed();
    let start = Instant::now();
    let probs = exact_evaluation(&table, k);
    stats.refine_time = start.elapsed();
    stats.integrations = active_subregions(&table);
    let mut probabilities: Vec<(ObjectId, f64)> = cands
        .members()
        .iter()
        .zip(&probs)
        .map(|(m, &p)| (m.id, p))
        .collect();
    probabilities.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(PnnResult {
        probabilities,
        stats,
    })
}

/// Filter + candidate-set assembly. Returns the candidates and the slice of
/// the model call that belongs to `init_time` (distribution construction).
fn prepare<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    k: usize,
    stats: &mut QueryStats,
) -> Result<(CandidateSet, Duration)> {
    let start = Instant::now();
    let filtered = model.filter(q, k)?;
    let elapsed = start.elapsed();
    stats.filter_time = filtered.filter_time.min(elapsed);
    let init_from_filter = elapsed.saturating_sub(stats.filter_time);
    let assemble_start = Instant::now();
    let cands = CandidateSet::from_distances(filtered.items, k);
    stats.candidates = cands.len();
    Ok((cands, init_from_filter + assemble_start.elapsed()))
}

/// Exact qualification probabilities of every candidate in `table` at `k`:
/// the one evaluator behind Basic and [`pnn`], so the two agree bit for
/// bit. At `k = 1` the Poisson-binomial tail of [`knn_probabilities`] is
/// Eq. 4's plain product, which [`exact_probabilities`] integrates over
/// only the factors not identically 1 — about 4× faster on Long Beach.
fn exact_evaluation(table: &SubregionTable, k: usize) -> Vec<f64> {
    if k == 1 {
        exact_probabilities(table).0
    } else {
        knn_probabilities(table, k)
    }
}

/// Number of `(object, left subregion)` cells with non-negligible mass —
/// the integration count of a full exact k-NN evaluation.
fn active_subregions(table: &SubregionTable) -> usize {
    let l = table.left_regions();
    (0..table.n_objects())
        .map(|i| (0..l).filter(|&j| table.mass(i, j) > MASS_EPS).count())
        .sum()
}

fn finish_exact(
    cands: &CandidateSet,
    classifier: &Classifier,
    probs: &[f64],
    stats: QueryStats,
) -> CpnnResult {
    let reports: Vec<ObjectReport> = cands
        .members()
        .iter()
        .zip(probs)
        .map(|(m, &p)| {
            let bound = ProbBound::exact(p);
            ObjectReport {
                id: m.id,
                bound,
                label: classifier.classify(&bound),
            }
        })
        .collect();
    collect(reports, stats)
}

fn finish_state(cands: &CandidateSet, state: &VerificationState, stats: QueryStats) -> CpnnResult {
    let reports: Vec<ObjectReport> = cands
        .members()
        .iter()
        .zip(state.bounds.iter().zip(&state.labels))
        .map(|(m, (&bound, &label))| ObjectReport {
            id: m.id,
            bound,
            label,
        })
        .collect();
    collect(reports, stats)
}

fn collect(reports: Vec<ObjectReport>, stats: QueryStats) -> CpnnResult {
    let mut answers: Vec<ObjectId> = reports
        .iter()
        .filter(|r| r.label == Label::Satisfy)
        .map(|r| r.id)
        .collect();
    answers.sort_unstable();
    CpnnResult {
        answers,
        reports,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::testutil::fig7_scenario;

    /// A model over a plain slice of 1-D objects: near/far scan filtering,
    /// no index. Used to test the pipeline in isolation from `UncertainDb`.
    struct SliceModel(Vec<crate::object::UncertainObject>);

    impl DistanceModel for SliceModel {
        type Query = f64;

        fn total_objects(&self) -> usize {
            self.0.len()
        }

        fn check_query(&self, q: &f64) -> Result<()> {
            if !q.is_finite() {
                return Err(CoreError::InvalidQueryPoint(*q));
            }
            Ok(())
        }

        fn filter(&self, q: &f64, _k: usize) -> Result<Filtered> {
            let start = Instant::now();
            let mut items = Vec::with_capacity(self.0.len());
            for o in &self.0 {
                items.push((o.id(), DistanceDistribution::from_pdf(o.pdf(), *q)?));
            }
            Ok(Filtered {
                items,
                filter_time: start.elapsed(),
            })
        }
    }

    fn fig7_model() -> SliceModel {
        let (_, objects) = fig7_scenario();
        SliceModel(objects)
    }

    #[test]
    fn all_strategies_agree_through_the_generic_pipeline() {
        let model = fig7_model();
        let cfg = PipelineConfig::default();
        for p in [0.05, 0.3, 0.45, 0.7] {
            let mut answers = Vec::new();
            for strategy in [Strategy::Basic, Strategy::RefineOnly, Strategy::Verified] {
                let res = cpnn(&model, &0.0, &QuerySpec::nn(p, 0.0, strategy), &cfg).unwrap();
                answers.push(res.answers);
            }
            assert_eq!(answers[0], answers[1], "P = {p}");
            assert_eq!(answers[0], answers[2], "P = {p}");
        }
    }

    #[test]
    fn knn_strategies_agree_through_the_generic_pipeline() {
        let model = fig7_model();
        let cfg = PipelineConfig::default();
        for p in [0.3, 0.6, 0.9] {
            let exact = cpnn(
                &model,
                &0.0,
                &QuerySpec::knn(2, p, 0.0, Strategy::Basic),
                &cfg,
            )
            .unwrap();
            let vr = cpnn(
                &model,
                &0.0,
                &QuerySpec::knn(2, p, 0.0, Strategy::Verified),
                &cfg,
            )
            .unwrap();
            assert_eq!(exact.answers, vr.answers, "P = {p}");
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let model = fig7_model();
        let cfg = PipelineConfig::default();
        let mut scratch = QueryScratch::new();
        for q in [-1.0, 0.0, 2.0, 5.0] {
            let spec = QuerySpec::nn(0.3, 0.01, Strategy::Verified);
            let reused = cpnn_with(&model, &q, &spec, &cfg, &mut scratch).unwrap();
            let fresh = cpnn(&model, &q, &spec, &cfg).unwrap();
            assert_eq!(reused.answers, fresh.answers, "q = {q}");
            assert_eq!(reused.reports.len(), fresh.reports.len());
            for (a, b) in reused.reports.iter().zip(&fresh.reports) {
                assert_eq!(a.label, b.label, "q = {q}");
            }
        }
    }

    #[test]
    fn pnn_and_pknn_share_the_same_entry_point() {
        let model = fig7_model();
        let p1 = pnn(&model, &0.0, 1).unwrap();
        let total: f64 = p1.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let p2 = pnn(&model, &0.0, 2).unwrap();
        let total2: f64 = p2.probabilities.iter().map(|(_, p)| p).sum();
        assert!((total2 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_inputs_rejected_before_any_work() {
        let model = fig7_model();
        let cfg = PipelineConfig::default();
        assert!(matches!(
            cpnn(
                &model,
                &f64::NAN,
                &QuerySpec::nn(0.3, 0.0, Strategy::Verified),
                &cfg
            ),
            Err(CoreError::InvalidQueryPoint(_))
        ));
        assert!(matches!(
            cpnn(
                &model,
                &0.0,
                &QuerySpec::nn(0.0, 0.0, Strategy::Verified),
                &cfg
            ),
            Err(CoreError::InvalidThreshold(_))
        ));
    }
}
