//! Kernel-path ≡ naive-reference parity on random workloads.
//!
//! PR 6 rewired every verifier and both refinement integrands onto the
//! column-major kernels in `verifiers::kernels`. The kernels are written
//! to evaluate the *exact same floating-point expression sequence* as the
//! legacy row-major code, so this file proves the strongest possible
//! statement: for random 1-D, 2-D, and k-NN workloads, the full pipeline's
//! verdicts **and** probability bounds `(p.l, p.u)` are bit-for-bit
//! (`f64::to_bits`) identical to a reference evaluation assembled from
//! `verifiers::reference` (the retained legacy verifiers) plus the naive
//! scalar integrands (`exact::subregion_qualification`,
//! `knn::knn_subregion_qualification`) — including through
//! eviction-forcing cache configurations and sharded execution.

use cpnn_core::cache::CacheConfig;
use cpnn_core::classify::{Classifier, Label};
use cpnn_core::exact::subregion_qualification;
use cpnn_core::framework::run_verification_into;
use cpnn_core::knn::knn_subregion_qualification;
use cpnn_core::pipeline::{cpnn, cpnn_with, CpnnResult, DistanceModel};
use cpnn_core::refine::incremental_refine_with;
use cpnn_core::verifiers::reference::{
    reference_extended_verifiers, reference_knn_verifiers, reference_verifiers,
};
use cpnn_core::verifiers::VerificationState;
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    BatchExecutor, CandidateSet, Object2d, ObjectId, PipelineConfig, QueryScratch, QuerySpec,
    RefinementOrder, SubregionTable, UncertainDb, UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Per-object outcome with bit-exact bounds: `(id, lo bits, hi bits, label)`.
type Outcome = (ObjectId, u64, u64, Label);

/// Evaluate `spec` at `q` through the *legacy* path: same filter and
/// candidate assembly as the pipeline, then the reference verifier chain
/// and the naive scalar refinement integrand.
fn reference_eval<M: DistanceModel + ?Sized>(
    model: &M,
    q: &M::Query,
    spec: &QuerySpec,
    extended: bool,
) -> Vec<Outcome> {
    let k = spec.k.max(1);
    let filtered = model.filter(q, k).expect("filter");
    let cands = CandidateSet::from_distances(filtered.items, k);
    let table = SubregionTable::build(&cands);
    let classifier = Classifier::new(spec.threshold, spec.tolerance).expect("spec");
    let mut state = VerificationState::new(&table);
    let mut stages = Vec::new();
    if spec.strategy == EvalStrategy::Verified {
        let chain = match (k, extended) {
            (1, false) => reference_verifiers(),
            (1, true) => reference_extended_verifiers(),
            (k, _) => reference_knn_verifiers(k),
        };
        run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
    }
    if k == 1 {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, _scr| subregion_qualification(&table, i, j),
        );
    } else {
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, _scr| knn_subregion_qualification(&table, i, j, k),
        );
    }
    cands
        .members()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            (
                m.id,
                state.bounds[i].lo().to_bits(),
                state.bounds[i].hi().to_bits(),
                state.labels[i],
            )
        })
        .collect()
}

fn outcomes(result: &CpnnResult) -> Vec<Outcome> {
    result
        .reports
        .iter()
        .map(|r| {
            (
                r.id,
                r.bound.lo().to_bits(),
                r.bound.hi().to_bits(),
                r.label,
            )
        })
        .collect()
}

fn assert_bit_identical(
    got: &CpnnResult,
    want: &[Outcome],
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&outcomes(got), want, "kernel vs reference: {}", ctx);
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

/// The spec × config grid every property sweeps: VR with the paper chain,
/// VR with the FL-SR-extended chain, Refine-only, and k-NN VR.
fn spec_grid() -> Vec<(QuerySpec, bool)> {
    vec![
        (QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified), false),
        (QuerySpec::nn(0.5, 0.0, EvalStrategy::Verified), true),
        (QuerySpec::nn(0.4, 0.0, EvalStrategy::RefineOnly), false),
        (QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified), false),
        (QuerySpec::knn(3, 0.2, 0.01, EvalStrategy::Verified), false),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 1-D parity: uncached kernel pipeline ≡ reference, every spec.
    #[test]
    fn kernel_pipeline_matches_reference_1d(
        objs in objects_1d(14),
        queries in prop::collection::vec(-60.0f64..60.0, 2..6),
    ) {
        let db = UncertainDb::build(objs).unwrap();
        for (spec, extended) in spec_grid() {
            let cfg = PipelineConfig {
                extended_verifiers: extended,
                ..Default::default()
            };
            for (i, &q) in queries.iter().enumerate() {
                let got = cpnn(&db, &q, &spec, &cfg).unwrap();
                let want = reference_eval(&db, &q, &spec, extended);
                assert_bit_identical(
                    &got,
                    &want,
                    &format!("1-D q = {q}, query {i}, k = {}, ext = {extended}", spec.k),
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
            (QuerySpec::nn(0.3, 0.01, EvalStrategy::Verified), false),
            (QuerySpec::nn(0.4, 0.0, EvalStrategy::Verified), true),
            (QuerySpec::knn(2, 0.4, 0.0, EvalStrategy::Verified), false),
        ];
        for (spec, extended) in specs {
            let cfg = PipelineConfig {
                extended_verifiers: extended,
                ..Default::default()
            };
            for (i, &(x, y)) in queries.iter().enumerate() {
                let q = [x, y];
                let got = cpnn(&db, &q, &spec, &cfg).unwrap();
                let want = reference_eval(&db, &q, &spec, extended);
                assert_bit_identical(
                    &got,
                    &want,
                    &format!("2-D q = {q:?}, query {i}, k = {}, ext = {extended}", spec.k),
                )?;
            }
        }
    }

    /// Cached parity: a repeated query stream through an eviction-forcing
    /// cache (capacity 2, quantum 0) still answers bit-identically to the
    /// naive reference — memoized tables feed the kernels the same columns.
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
                        let want = reference_eval(&db, &q, spec, false);
                        assert_bit_identical(
                            &got,
                            &want,
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

    /// Sharded parity: the shard-aware batch executor at 1 and 8 shards
    /// answers bit-identically to the naive reference on the flat model.
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
        let out = BatchExecutor::new(2).run_sharded(&sharded, &jobs, &cfg);
        prop_assert_eq!(out.results.len(), jobs.len());
        for (i, ((q, spec), got)) in jobs.iter().zip(&out.results).enumerate() {
            let want = reference_eval(&flat, q, spec, cfg.extended_verifiers);
            assert_bit_identical(
                got.as_ref().unwrap(),
                &want,
                &format!("sharded q = {q}, query {i}, {shards} shards"),
            )?;
        }
    }
}
