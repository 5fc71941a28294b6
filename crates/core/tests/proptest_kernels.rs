//! Kernel-path vs naive-reference parity, and soundness against the exact
//! oracles, on random workloads.
//!
//! The contract has three parts (see the module doc of
//! `verifiers::kernels`):
//!
//! * **1-NN verifier stages and the k-NN refine integrand** evaluate the
//!   *exact same floating-point expression sequence* as the retained naive
//!   code (`verifiers::reference`, `knn::knn_subregion_qualification`): an
//!   object the 1-NN verifiers decide — or RS decides in a k-NN query —
//!   compares bit for bit (`f64::to_bits`) with the reference evaluation.
//! * **The 1-NN refine integrand** shares one quadrature pass per subregion
//!   column among the objects still `Unknown`, which reorders the
//!   multiplications of a `q_ij`. For an object that went through 1-NN
//!   refinement the final bounds are within `1e-12` of the run that refines
//!   with the naive closure (`exact::subregion_qualification`), and the
//!   label is equal whenever the exact probability is farther than `1e-9`
//!   from `P` and from `P − Δ`. Independently of the reference run,
//!   refinement is *sound*: `p.l − 1e-9 ≤ p ≤ p.u + 1e-9` against
//!   `exact::exact_probabilities`, and the probabilities a Refine-only pass
//!   collapses to sum to 1.
//! * **The k-NN subregion verifier (SR-k)** runs twice — on the
//!   `⌈√L⌉`-column partition, then on the table itself — and an object stops
//!   at the first stage that decides it, so its final bound depends on where
//!   it stopped. (i) *Sound*: every candidate's final bound brackets the
//!   naive `knn::knn_probabilities` value within `1e-9` (k ∈ {2, 3, 4}, 1-D
//!   and 2-D, verifier-heavy and refine-heavy specs), and labels obey
//!   Definition 1 (`p ≥ P + 1e-9` ⇒ `Satisfy`, `p < P − Δ − 1e-9` ⇒ `Fail`,
//!   either in between). (ii) *Against `reference_knn_verifiers`* (fine
//!   partition only, every tail from scratch): an object that reaches the
//!   fine stage ends within `1e-12` of the reference bounds with the same
//!   label; one the coarse stage decided has bounds that contain the
//!   reference's. (iii) *Monotone*: the fine stage after the coarse one never
//!   loosens a cell or a bound, and coarse bounds contain fine-only bounds.
//!
//! All of it holds through eviction-forcing cache configurations and
//! sharded execution (mode ≡ mode stays bit-for-bit; `proptest_cache`,
//! `proptest_shard` and friends pin that).
//!
//! The pipeline fills its subregion table on demand (the end-points and
//! the horizon column first, the coarse SR-k columns next, the rest only
//! for a stage or a refinement that reads it), and reads 2-D distance cdfs
//! through knots computed when first read. Two more properties pin that it
//! changes no bit: every cell read on demand equals the materialised
//! histogram's cdf at that end-point (and a full build's cell), and the
//! pipeline's reports equal those of the same chain run over a full table.

use cpnn_core::cache::CacheConfig;
use cpnn_core::classify::{Classifier, Label};
use cpnn_core::exact::{exact_probabilities, subregion_qualification};
use cpnn_core::framework::{default_verifiers, knn_verifiers, run_verification_into, StageReport};
use cpnn_core::knn::{knn_probabilities, knn_subregion_qualification, KnnSubregion};
use cpnn_core::pipeline::{cpnn, cpnn_with, CpnnResult, DistanceModel};
use cpnn_core::refine::incremental_refine_with;
use cpnn_core::verifiers::reference::{reference_knn_verifiers, reference_verifiers};
use cpnn_core::verifiers::{kernels, VerificationState, Verifier};
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CandidateSet, Columns, Object2d, ObjectId, PipelineConfig, QueryScratch,
    QuerySpec, RefinementOrder, SubregionTable, UncertainDb, UncertainDb2d, UncertainObject,
    MASS_EPS,
};
use cpnn_pdf::Pdf;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Bounds of a refined 1-NN object: kernel run vs naive-closure run.
const BOUND_TOL: f64 = 1e-12;
/// Distance from a decision threshold inside which labels may differ, and
/// the slack of the soundness check against the exact oracle.
const EXACT_TOL: f64 = 1e-9;

/// How an object's kernel outcome compares with its reference outcome.
#[derive(Clone, Copy)]
enum Compare {
    /// Decided by a 1-NN verifier or by RS, or evaluated with no verifier
    /// chain at all: same expression sequence, compared with `to_bits`.
    Bitwise,
    /// Went through 1-NN refinement (`exact probability`): bounds within
    /// [`BOUND_TOL`], labels equal when the probability is decisive.
    Refined1nn(f64),
    /// k-NN, still `Unknown` after the coarse SR-k stage: the fine stage
    /// (and refinement after it) ends within [`BOUND_TOL`] of the reference,
    /// same label.
    KnnFine,
    /// k-NN, decided by the coarse SR-k stage: the bounds it stopped with
    /// contain the reference's.
    KnnCoarse,
}

/// Per-object outcome of the reference run.
struct Reference {
    id: ObjectId,
    lo: f64,
    hi: f64,
    label: Label,
    compare: Compare,
}

/// Evaluate `spec` at `q` through the *legacy* path: same filter and
/// candidate assembly as the pipeline, then the reference verifier chain
/// and the naive scalar refinement integrand.
fn reference_eval<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
) -> Vec<Reference> {
    let k = spec.k.max(1);
    let filtered = model.filter(q, k).expect("filter");
    let cands = CandidateSet::from_distances(filtered.items, k);
    let table = SubregionTable::build(&cands);
    let classifier = Classifier::new(spec.threshold, spec.tolerance).expect("spec");
    let mut state = VerificationState::new(&table);
    let mut stages = Vec::new();
    if spec.strategy == EvalStrategy::Verified {
        let chain = match k {
            1 => reference_verifiers(),
            k => reference_knn_verifiers(k),
        };
        run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
    }
    let entered: Vec<bool> = state.labels.iter().map(|&l| l == Label::Unknown).collect();
    let compare: Vec<Compare> = if k == 1 {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, _scr| subregion_qualification(&table, i, j),
        );
        let exact = exact_probabilities(&table).0;
        (entered.iter().zip(exact))
            .map(|(&refined, p)| match refined {
                true => Compare::Refined1nn(p),
                false => Compare::Bitwise,
            })
            .collect()
    } else {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, _scr| knn_subregion_qualification(&table, i, j, k),
        );
        if spec.strategy == EvalStrategy::Verified {
            knn_stage_reached(&table, &classifier, k)
        } else {
            vec![Compare::Bitwise; table.n_objects()]
        }
    };
    cands
        .members()
        .iter()
        .zip(compare)
        .enumerate()
        .map(|(i, (m, compare))| Reference {
            id: m.id,
            lo: state.bounds[i].lo(),
            hi: state.bounds[i].hi(),
            label: state.labels[i],
            compare,
        })
        .collect()
}

/// Where the kernel k-NN chain (RS → coarse SR-k → fine SR-k) stops each
/// object: replay its first two stages and look at what is still `Unknown`.
fn knn_stage_reached(table: &SubregionTable, classifier: &Classifier, k: usize) -> Vec<Compare> {
    let chain = knn_verifiers(k);
    let mut state = VerificationState::new(table);
    let mut stages = Vec::new();
    run_verification_into(table, classifier, &chain[..1], &mut state, &mut stages);
    let after_rs = state.labels.clone();
    if state.unknown_count() > 0 {
        run_verification_into(table, classifier, &chain[1..2], &mut state, &mut stages);
    }
    (after_rs.iter().zip(&state.labels))
        .map(|(&rs, &coarse)| match (rs, coarse) {
            (Label::Unknown, Label::Unknown) => Compare::KnnFine,
            (Label::Unknown, _) => Compare::KnnCoarse,
            _ => Compare::Bitwise,
        })
        .collect()
}

/// The reference half of the module doc's contract, object by object.
fn assert_matches_reference(
    got: &CpnnResult,
    want: &[Reference],
    spec: &QuerySpec,
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.reports.len(), want.len(), "candidate count: {}", ctx);
    for (g, w) in got.reports.iter().zip(want) {
        prop_assert_eq!(g.id, w.id, "candidate order: {}", ctx);
        let within_tol =
            (g.bound.lo() - w.lo).abs() <= BOUND_TOL && (g.bound.hi() - w.hi).abs() <= BOUND_TOL;
        match w.compare {
            Compare::Bitwise => prop_assert_eq!(
                (g.bound.lo().to_bits(), g.bound.hi().to_bits(), g.label),
                (w.lo.to_bits(), w.hi.to_bits(), w.label),
                "kernel vs reference, bit for bit, {:?}: {}",
                g.id,
                ctx
            ),
            Compare::Refined1nn(exact) => {
                prop_assert!(
                    within_tol,
                    "refined bounds {} vs [{}, {}], {:?}: {}",
                    g.bound,
                    w.lo,
                    w.hi,
                    g.id,
                    ctx
                );
                let decisive = [spec.threshold, spec.threshold - spec.tolerance]
                    .iter()
                    .all(|t| (exact - t).abs() > EXACT_TOL);
                if decisive {
                    prop_assert_eq!(g.label, w.label, "refined label, {:?}: {}", g.id, ctx);
                }
            }
            Compare::KnnFine => prop_assert!(
                within_tol && g.label == w.label,
                "fine-stage {} {:?} vs [{}, {}] {:?}, {:?}: {}",
                g.bound,
                g.label,
                w.lo,
                w.hi,
                w.label,
                g.id,
                ctx
            ),
            Compare::KnnCoarse => prop_assert!(
                g.bound.lo() <= w.lo + BOUND_TOL && w.hi <= g.bound.hi() + BOUND_TOL,
                "coarse-stage {} does not contain [{}, {}], {:?}: {}",
                g.bound,
                w.lo,
                w.hi,
                g.id,
                ctx
            ),
        }
    }
    Ok(())
}

/// Soundness of one k-NN query against the naive exact probabilities
/// (`knn::knn_probabilities`): every candidate's final bound brackets its
/// probability, wherever the chain or refinement stopped it, and its label
/// is one Definition 1 allows.
fn assert_sound_knn<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let got = cpnn(model, q, spec, &PipelineConfig::default()).unwrap();
    let filtered = model.filter(q, spec.k).expect("filter");
    let table = SubregionTable::build(&CandidateSet::from_distances(filtered.items, spec.k));
    let exact = knn_probabilities(&table, spec.k);
    prop_assert_eq!(got.reports.len(), exact.len(), "candidate count: {}", ctx);
    for (r, &p) in got.reports.iter().zip(&exact) {
        prop_assert!(
            r.bound.contains(p, EXACT_TOL),
            "{:?}: exact {} outside {:?}: {}",
            r.id,
            p,
            r.bound,
            ctx
        );
        if p >= spec.threshold + EXACT_TOL {
            prop_assert_eq!(r.label, Label::Satisfy, "{:?}, p = {}: {}", r.id, p, ctx);
        } else if p < spec.threshold - spec.tolerance - EXACT_TOL {
            prop_assert_eq!(r.label, Label::Fail, "{:?}, p = {}: {}", r.id, p, ctx);
        } else {
            prop_assert!(r.label != Label::Unknown, "{:?}, p = {}: {}", r.id, p, ctx);
        }
    }
    Ok(())
}

/// Monotonicity of the two SR-k stages on one table: coarse bounds contain
/// fine-only bounds, and the fine stage after the coarse one loosens
/// neither a cell nor a bound (and lands on the fine-only values).
fn assert_knn_stages_monotone(
    table: &SubregionTable,
    k: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let apply = |stages: &[KnnSubregion]| {
        let mut state = VerificationState::new(table);
        let mut snapshots = Vec::new();
        for stage in stages {
            stage.apply(table, &mut state);
            snapshots.push((
                state.bounds.clone(),
                state.qij_lo.clone(),
                state.qij_hi.clone(),
            ));
        }
        snapshots
    };
    let fine = apply(&[KnnSubregion::new(k)]).remove(0);
    let mut both = apply(&[KnnSubregion::coarse(k), KnnSubregion::new(k)]);
    let (after, coarse) = (both.remove(1), both.remove(0));
    for i in 0..table.n_objects() {
        let (c, a, f) = (coarse.0[i], after.0[i], fine.0[i]);
        prop_assert!(
            c.lo() <= f.lo() + BOUND_TOL && f.hi() <= c.hi() + BOUND_TOL,
            "coarse {} does not contain fine {}, object {}: {}",
            c,
            f,
            i,
            ctx
        );
        prop_assert!(
            c.lo() <= a.lo() && a.hi() <= c.hi(),
            "fine stage loosened {} to {}, object {}: {}",
            c,
            a,
            i,
            ctx
        );
        prop_assert!(
            (a.lo() - f.lo()).abs() <= BOUND_TOL && (a.hi() - f.hi()).abs() <= BOUND_TOL,
            "coarse-then-fine {} vs fine-only {}, object {}: {}",
            a,
            f,
            i,
            ctx
        );
    }
    for (cell, (c, a)) in coarse.1.iter().zip(&after.1).enumerate() {
        prop_assert!(c <= a, "q.l cell {} loosened {} -> {}: {}", cell, c, a, ctx);
    }
    for (cell, (c, a)) in coarse.2.iter().zip(&after.2).enumerate() {
        prop_assert!(a <= c, "q.u cell {} loosened {} -> {}: {}", cell, c, a, ctx);
    }
    Ok(())
}

/// Soundness of one query against the independent exact oracle: every
/// candidate's final bound brackets its exact probability (objects the
/// verifiers decided included).
fn assert_sound<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let got = cpnn(model, q, spec, &PipelineConfig::default()).unwrap();
    let filtered = model.filter(q, 1).expect("filter");
    let table = SubregionTable::build(&CandidateSet::from_distances(filtered.items, 1));
    let (exact, _) = exact_probabilities(&table);
    prop_assert_eq!(got.reports.len(), exact.len(), "candidate count: {}", ctx);
    for (r, &p) in got.reports.iter().zip(&exact) {
        prop_assert!(
            r.bound.contains(p, EXACT_TOL),
            "{:?}: exact {} outside {:?}: {}",
            r.id,
            p,
            r.bound,
            ctx
        );
    }
    // Refine-only, Δ = 0, run to full collapse. The classifier stops an
    // object at its verdict, so the first request of the pass collapses every
    // `q_ij` there and then: every row is pending, so each cell is served by
    // the shared column passes. `Σ_i Σ_j s_ij·q_ij` are the probabilities
    // the kernel computed; they sum to 1.
    let mut total = 0.0;
    let mut collapsed = false;
    let mut state = VerificationState::new(&table);
    let classifier = Classifier::new(spec.threshold, 0.0).unwrap();
    incremental_refine_with(
        &table,
        &classifier,
        &mut state,
        RefinementOrder::default(),
        |i, j, scr| {
            if !std::mem::replace(&mut collapsed, true) {
                for row in 0..table.n_objects() {
                    for col in 0..table.left_regions() {
                        let s = table.mass(row, col);
                        if s > MASS_EPS {
                            total += s * kernels::nn_qualification(&table, row, col, scr);
                        }
                    }
                }
            }
            kernels::nn_qualification(&table, i, j, scr)
        },
    );
    prop_assert!(
        (total - 1.0).abs() <= EXACT_TOL,
        "collapsed probabilities sum to {}: {}",
        total,
        ctx
    );
    Ok(())
}

/// A table laid out and filled level by level against the materialised
/// histograms: after each fill every filled cdf cell is bit-equal to
/// `histogram().cdf(e_j)`, the finished table is bit-equal to a full
/// build, and no knot past the first edge beyond the horizon was computed.
fn assert_on_demand_table_matches_histograms(
    cands: &CandidateSet,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let hists: Vec<_> = cands
        .members()
        .iter()
        .map(|m| m.dist.histogram().into_owned())
        .collect();
    let mut table = SubregionTable::default();
    table.layout(cands);
    let (n, l) = (table.n_objects(), table.left_regions());
    let stride = table.coarse_stride();
    let bits = |v: f64| v.to_bits();
    for need in [Columns::Horizon, Columns::Coarse, Columns::All] {
        table.fill(cands, need);
        let columns: Vec<usize> = (0..=l)
            .filter(|&j| match need {
                Columns::Horizon => j == l,
                Columns::Coarse => j.is_multiple_of(stride) || j == l,
                Columns::All => true,
            })
            .collect();
        for (i, hist) in hists.iter().enumerate() {
            for &j in &columns {
                let want = hist.cdf(table.endpoint(j));
                prop_assert_eq!(
                    bits(table.cdf_at(i, j)),
                    bits(want),
                    "{:?} cell ({}, {}): {}",
                    need,
                    i,
                    j,
                    ctx
                );
            }
            let want = (1.0 - hist.cdf(table.fmin())).max(0.0);
            prop_assert_eq!(
                bits(table.rightmost(i)),
                bits(want),
                "rightmost {}: {}",
                i,
                ctx
            );
        }
    }
    let full = SubregionTable::build(cands);
    prop_assert_eq!(table.endpoints(), full.endpoints(), "end-points: {}", ctx);
    for i in 0..n {
        prop_assert!(
            table
                .cdf_row(i)
                .iter()
                .map(|&v| bits(v))
                .eq(full.cdf_row(i).iter().map(|&v| bits(v))),
            "cdf row {}: {}",
            i,
            ctx
        );
        prop_assert!(
            table
                .mass_row(i)
                .iter()
                .map(|&v| bits(v))
                .eq(full.mass_row(i).iter().map(|&v| bits(v))),
            "mass row {}: {}",
            i,
            ctx
        );
    }
    for j in 0..l {
        prop_assert_eq!(table.count(j), full.count(j), "count {}: {}", j, ctx);
    }
    // Knot `k_m` (0 < m < bins) is the one closed-form evaluation; a
    // member computes them only through the first edge past the horizon.
    let horizon = cands.horizon();
    let most: usize = cands
        .members()
        .iter()
        .filter(|m| !m.dist.is_histogram())
        .map(|m| {
            let bins = m.dist.breakpoints().len() - 1;
            let past = m.dist.breakpoints().position(|e| e > horizon);
            past.map_or(bins, |p| p).min(bins - 1)
        })
        .sum();
    prop_assert_eq!(table.cdf_evals(), full.cdf_evals(), "knots: {}", ctx);
    prop_assert!(
        table.cdf_evals() <= most,
        "{} knots evaluated, at most {} lie at or before the first edge past the horizon: {}",
        table.cdf_evals(),
        most,
        ctx
    );
    Ok(())
}

/// The pipeline's reports (on-demand table, coarse stage first) against
/// the same chain and refinement run over a table built in full, bit for
/// bit.
fn assert_matches_full_table_chain<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let k = spec.k.max(1);
    let got = cpnn(model, q, spec, &PipelineConfig::default()).unwrap();
    let cands = CandidateSet::from_distances(model.filter(q, k).expect("filter").items, k);
    let table = SubregionTable::build(&cands);
    let classifier = Classifier::new(spec.threshold, spec.tolerance).expect("spec");
    let mut state = VerificationState::new(&table);
    let mut stages = Vec::new();
    let chain = if k == 1 {
        default_verifiers()
    } else {
        knn_verifiers(k)
    };
    run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
    if k == 1 {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, scr| kernels::nn_qualification(&table, i, j, scr),
        );
    } else {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, scr| kernels::knn_qualification(&table, i, j, k, scr),
        );
    }
    prop_assert_eq!(got.reports.len(), cands.len(), "candidate count: {}", ctx);
    let trace = |stages: &[StageReport]| -> Vec<(&'static str, usize)> {
        stages.iter().map(|s| (s.name, s.unknown_after)).collect()
    };
    prop_assert_eq!(trace(&got.stats.stages), trace(&stages), "stages: {}", ctx);
    for (i, (r, m)) in got.reports.iter().zip(cands.members()).enumerate() {
        prop_assert_eq!(r.id, m.id, "candidate order: {}", ctx);
        prop_assert_eq!(
            (r.bound.lo().to_bits(), r.bound.hi().to_bits(), r.label),
            (
                state.bounds[i].lo().to_bits(),
                state.bounds[i].hi().to_bits(),
                state.labels[i]
            ),
            "{:?}, on demand vs full table: {}",
            r.id,
            ctx
        );
    }
    Ok(())
}

/// Random uniform-pdf objects with ids `0..n` on a bounded domain.
fn objects_1d(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

/// Random mixed 2-D objects (disks and rectangles).
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0, 0.5f64..6.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r))| {
                let id = ObjectId(i as u64);
                if i % 3 == 0 {
                    Object2d::rectangle(id, [x, y], [x + r, y + 0.5 * r + 0.1]).unwrap()
                } else {
                    Object2d::circle(id, [x, y], r).unwrap()
                }
            })
            .collect()
    })
}

/// The specs every 1-D property sweeps: VR with and without tolerance,
/// Refine-only, and k-NN VR.
fn spec_grid() -> Vec<QuerySpec> {
    vec![
        QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
        QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified),
        QuerySpec::nn(0.4, 0.0, EvalStrategy::RefineOnly),
        QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        QuerySpec::knn(3, 0.2, 0.01, EvalStrategy::Verified),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 1-D parity: uncached kernel pipeline vs reference, every spec.
    #[test]
    fn kernel_pipeline_matches_reference_1d(
        objs in objects_1d(14),
        queries in prop::collection::vec(-60.0f64..60.0, 2..6),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        for spec in spec_grid() {
            for (i, &q) in queries.iter().enumerate() {
                let got = cpnn(&db, &q, &spec, &cfg).unwrap();
                let want = reference_eval(&db, &q, &spec);
                assert_matches_reference(
                    &got,
                    &want,
                    &spec,
                    &format!("1-D q = {q}, query {i}, k = {}", spec.k),
                )?;
            }
        }
    }

    /// 2-D parity: the same equivalence over the 2-D engine (disk and
    /// rectangle distance distributions feeding the same kernels).
    #[test]
    fn kernel_pipeline_matches_reference_2d(
        objs in objects_2d(10),
        queries in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..4),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::nn(0.4, 0.0, EvalStrategy::Verified),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
            // Refine-heavy: a low threshold with no tolerance leaves rows
            // `Unknown` after both SR-k stages.
            QuerySpec::knn(4, 0.05, 0.0, EvalStrategy::Verified),
        ];
        let cfg = PipelineConfig::default();
        for spec in specs {
            for (i, &(x, y)) in queries.iter().enumerate() {
                let q = [x, y];
                let got = cpnn(&db, &q, &spec, &cfg).unwrap();
                let want = reference_eval(&db, &q, &spec);
                assert_matches_reference(
                    &got,
                    &want,
                    &spec,
                    &format!("2-D q = {q:?}, query {i}, k = {}", spec.k),
                )?;
            }
        }
    }

    /// Cached parity: a repeated query stream through an eviction-forcing
    /// cache (capacity 2, quantum 0) still matches the naive reference —
    /// memoized tables feed the kernels the same columns.
    #[test]
    fn cached_kernel_pipeline_matches_reference(
        objs in objects_1d(12),
        base in prop::collection::vec(-60.0f64..60.0, 2..5),
        capacity in prop::sample::select(vec![2usize, 64]),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig {
            cache: CacheConfig::new(capacity, 0.0),
            ..Default::default()
        };
        let specs = [
            QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified),
            QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified),
        ];
        let mut scratch = QueryScratch::new();
        for round in 0..3 {
            for (i, &q) in base.iter().enumerate() {
                for spec in &specs {
                    // Twice back-to-back: the repeat is a guaranteed cache
                    // hit (MRU entry), so parity is checked on both the
                    // miss path and the hit path even while capacity 2
                    // keeps evicting across points and ks.
                    for pass in 0..2 {
                        let got = cpnn_with(&db, &q, spec, &cfg, &mut scratch).unwrap();
                        let want = reference_eval(&db, &q, spec);
                        assert_matches_reference(
                            &got,
                            &want,
                            spec,
                            &format!(
                                "cached q = {q}, query {i}, round {round}, pass {pass}, \
                                 k = {}, cap = {capacity}",
                                spec.k
                            ),
                        )?;
                    }
                }
            }
        }
        prop_assert!(scratch.cache_stats().hits > 0, "stream produced no hits");
    }

    /// Sharded parity: a batch over 1 and 8 shards matches the naive
    /// reference on the flat model.
    #[test]
    fn sharded_kernel_pipeline_matches_reference(
        objs in objects_1d(16),
        base in prop::collection::vec(-60.0f64..60.0, 2..6),
        shards in prop::sample::select(vec![1usize, 8]),
    ) {
        let flat = UncertainDb::build(objs.clone()).unwrap();
        let sharded = UncertainDb::build_sharded(objs, shards).unwrap();
        let spec = QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified);
        let jobs: Vec<(f64, QuerySpec)> = base.iter().map(|&q| (q, spec)).collect();
        let cfg = sharded.pipeline_config();
        let out = BatchExecutor::new(2).run(&sharded, &jobs, &cfg);
        prop_assert_eq!(out.results.len(), jobs.len());
        for (i, ((q, spec), got)) in jobs.iter().zip(&out.results).enumerate() {
            let want = reference_eval(&flat, q, spec);
            assert_matches_reference(
                got.as_ref().unwrap(),
                &want,
                spec,
                &format!("sharded q = {q}, query {i}, {shards} shards"),
            )?;
        }
    }

    /// Soundness, 1-D: final bounds bracket the exact oracle's probability
    /// under `Verified` and `RefineOnly`, and fully collapsed Refine-only
    /// probabilities sum to 1.
    #[test]
    fn refinement_is_sound_against_the_exact_oracle_1d(
        objs in objects_1d(14),
        queries in prop::collection::vec(-60.0f64..60.0, 2..5),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        for strategy in [EvalStrategy::Verified, EvalStrategy::RefineOnly] {
            for (threshold, tolerance) in [(0.3, 0.01), (0.1, 0.0)] {
                let spec = QuerySpec::nn(threshold, tolerance, strategy);
                for &q in &queries {
                    assert_sound(&db, &q, &spec, &format!("1-D q = {q}, {spec:?}"))?;
                }
            }
        }
    }

    /// Soundness, 2-D: the same over disk and rectangle distance
    /// distributions.
    #[test]
    fn refinement_is_sound_against_the_exact_oracle_2d(
        objs in objects_2d(10),
        queries in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..4),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        for strategy in [EvalStrategy::Verified, EvalStrategy::RefineOnly] {
            let spec = QuerySpec::nn(0.2, 0.0, strategy);
            for &(x, y) in &queries {
                let q = [x, y];
                assert_sound(&db, &q, &spec, &format!("2-D q = {q:?}, {spec:?}"))?;
            }
        }
    }

    /// k-NN soundness, 1-D: wherever the RS → coarse SR-k → fine SR-k →
    /// refine pipeline stops an object, its bound brackets the naive
    /// probability and its label obeys Definition 1.
    #[test]
    fn knn_verification_is_sound_against_the_naive_probabilities_1d(
        objs in objects_1d(14),
        queries in prop::collection::vec(-60.0f64..60.0, 2..5),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        for k in [2usize, 3, 4] {
            for (threshold, tolerance) in [(0.3, 0.01), (0.6, 0.0), (0.05, 0.0)] {
                let spec = QuerySpec::knn(k, threshold, tolerance, EvalStrategy::Verified);
                for &q in &queries {
                    assert_sound_knn(&db, &q, &spec, &format!("1-D q = {q}, {spec:?}"))?;
                }
            }
        }
    }

    /// k-NN soundness, 2-D, including the refine-heavy spec (`P = 0.05`,
    /// `Δ = 0`) that sends rows through `kernels::knn_qualification`.
    #[test]
    fn knn_verification_is_sound_against_the_naive_probabilities_2d(
        objs in objects_2d(10),
        queries in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 2..4),
    ) {
        let db = UncertainDb2d::build(objs).unwrap();
        for (k, threshold, tolerance) in
            [(2, 0.3, 0.01), (3, 0.5, 0.0), (4, 0.3, 0.01), (2, 0.05, 0.0), (4, 0.05, 0.0)]
        {
            let spec = QuerySpec::knn(k, threshold, tolerance, EvalStrategy::Verified);
            for &(x, y) in &queries {
                let q = [x, y];
                assert_sound_knn(&db, &q, &spec, &format!("2-D q = {q:?}, {spec:?}"))?;
            }
        }
    }

    /// The two SR-k stages are monotone on 1-D and 2-D tables: coarse ⊇
    /// coarse-then-fine = fine-only, cell by cell and bound by bound.
    #[test]
    fn knn_stages_only_tighten(
        objs1 in objects_1d(14),
        objs2 in objects_2d(10),
        q in -40.0f64..40.0,
    ) {
        let db1 = UncertainDb::build(objs1).unwrap();
        let db2 = UncertainDb2d::build(objs2).unwrap();
        for k in [2usize, 3, 4] {
            let filtered = DistanceModel::filter(&db1, &q, k).expect("filter");
            let table = SubregionTable::build(&CandidateSet::from_distances(filtered.items, k));
            assert_knn_stages_monotone(&table, k, &format!("1-D q = {q}, k = {k}"))?;
            let filtered = DistanceModel::filter(&db2, &[q, -q], k).expect("filter");
            let table = SubregionTable::build(&CandidateSet::from_distances(filtered.items, k));
            assert_knn_stages_monotone(&table, k, &format!("2-D q = [{q}, {}], k = {k}", -q))?;
        }
    }

    /// On-demand tables, 1-D and 2-D, k ∈ {1, 2, 4}: every cell equals the
    /// materialised histogram's cdf whenever it is filled, and the knots
    /// stop at the first edge past the horizon.
    #[test]
    fn on_demand_columns_match_the_materialised_histograms(
        objs1 in objects_1d(14),
        objs2 in objects_2d(10),
        q in -40.0f64..40.0,
    ) {
        let db1 = UncertainDb::build(objs1).unwrap();
        let db2 = UncertainDb2d::build(objs2).unwrap();
        for k in [1usize, 2, 4] {
            let filtered = DistanceModel::filter(&db1, &q, k).expect("filter");
            let cands = CandidateSet::from_distances(filtered.items, k);
            assert_on_demand_table_matches_histograms(&cands, &format!("1-D q = {q}, k = {k}"))?;
            let filtered = DistanceModel::filter(&db2, &[q, 0.5 * q], k).expect("filter");
            let cands = CandidateSet::from_distances(filtered.items, k);
            assert_on_demand_table_matches_histograms(
                &cands,
                &format!("2-D q = [{q}, {}], k = {k}", 0.5 * q),
            )?;
        }
    }

    /// The coarse-first chain on an on-demand table gives the bits of the
    /// same chain over a full table: 1-D k-NN (and 1-NN, and 2-D k-NN),
    /// verifier-heavy and refine-heavy specs.
    #[test]
    fn coarse_first_chain_matches_the_full_table_chain(
        objs1 in objects_1d(14),
        objs2 in objects_2d(10),
        queries in prop::collection::vec(-40.0f64..40.0, 2..4),
    ) {
        let db1 = UncertainDb::build(objs1).unwrap();
        let db2 = UncertainDb2d::build(objs2).unwrap();
        for k in [1usize, 2, 3, 4] {
            for (threshold, tolerance) in [(0.3, 0.01), (0.05, 0.0)] {
                let spec = QuerySpec::knn(k, threshold, tolerance, EvalStrategy::Verified);
                for &q in &queries {
                    assert_matches_full_table_chain(&db1, &q, &spec, &format!("1-D q = {q}, {spec:?}"))?;
                    let q2 = [q, -0.5 * q];
                    assert_matches_full_table_chain(&db2, &q2, &spec, &format!("2-D q = {q2:?}, {spec:?}"))?;
                }
            }
        }
    }
}
