//! Counting-allocator proof that the verify/refine hot loops are
//! allocation-free once the per-query scratch is warm.
//!
//! The kernel layer's contract is **zero heap allocations per subregion**:
//! after one warm-up query has grown the scratch buffers, re-running
//! verification or a full refinement pass must allocate nothing at all.
//!
//! The construction side has a contract of its own: a histogram is **one
//! heap block** (`edges | densities | cdf`), so building a stored object,
//! folding a distance pdf or materialising a 2-D distance is one
//! allocation, and a warm 1-D filter allocates about one block per
//! candidate. A whole warm 2-D k-NN query allocates no more than it did
//! when every candidate's histogram was built up front.
//!
//! The counter is per thread, so allocations by other threads of the test
//! binary never land in a measured section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpnn_core::classify::Classifier;
use cpnn_core::framework::{default_verifiers, knn_verifiers, run_verification_into};
use cpnn_core::pipeline::cpnn_with;
use cpnn_core::refine::{incremental_refine_with, RefinementOrder};
use cpnn_core::verifiers::{kernels, VerificationState};
use cpnn_core::{
    CandidateSet, CircleObject, DistanceDistribution, DistanceModel, Object2d, ObjectId,
    PipelineConfig, QueryScratch, QuerySpec, Strategy, SubregionTable, UncertainDb, UncertainDb2d,
    UncertainObject,
};
use cpnn_pdf::HistogramPdf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAlloc;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialised
    /// and without a destructor, so bumping it never allocates and never
    /// touches a torn-down slot.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// A crowded candidate set: 40 mutually overlapping uniforms, ~40 left
/// subregions, every object ambiguous near the 1/40 threshold.
fn crowded_candidates() -> CandidateSet {
    let objects: Vec<UncertainObject> = (0..40)
        .map(|i| {
            let lo = 1.0 + 0.05 * i as f64;
            UncertainObject::uniform(ObjectId(i as u64), lo, lo + 50.0).expect("valid region")
        })
        .collect();
    CandidateSet::build(&objects, 0.0, 0).expect("valid candidate set")
}

/// Heap allocations `f` performs.
fn count<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

/// Every histogram constructor on the query and load paths is one
/// allocation, and a warm 1-D filter pays about one per candidate.
fn histograms_are_one_block_each() {
    let (uniform, n) = count(|| HistogramPdf::uniform(2.0, 6.0).unwrap());
    assert_eq!(n, 1, "HistogramPdf::uniform: {n} allocations");

    let (edges, masses) = (vec![1.0, 3.0, 7.0, 8.0], vec![0.3, 0.5, 0.2]);
    let (three_bar, n) = count(|| HistogramPdf::from_masses(edges, masses).unwrap());
    assert_eq!(n, 1, "HistogramPdf::from_masses (3 bars): {n} allocations");

    for (name, pdf, q) in [
        ("uniform, q inside", &uniform, 3.0),
        ("uniform, q outside", &uniform, 9.0),
        ("3 bars, q inside", &three_bar, 4.0),
        ("3 bars, q outside", &three_bar, 0.0),
    ] {
        let (dist, n) = count(|| DistanceDistribution::from_pdf(pdf, q).unwrap());
        assert!(dist.histogram().bar_count() >= 1);
        assert_eq!(n, 1, "fold of {name}: {n} allocations");
    }

    let disk = CircleObject::new(ObjectId(0), [0.0, 0.0], 2.0).unwrap();
    let radial = disk.radial([5.0, 1.0]);
    let (dist, n) = count(|| radial.distribution(48).unwrap());
    assert_eq!(n, 1, "RadialCdf::distribution: {n} allocations");
    let (hist, n) = count(|| dist.histogram().into_owned());
    assert_eq!(hist.bar_count(), 48);
    assert_eq!(n, 1, "materialising a 2-D distance: {n} allocations");

    // 20 mutually overlapping objects, mixed uniform and 3-bar.
    let objects: Vec<UncertainObject> = (0..20u64)
        .map(|i| {
            let lo = 0.5 * i as f64;
            if i % 2 == 0 {
                UncertainObject::uniform(ObjectId(i), lo, lo + 30.0).unwrap()
            } else {
                let edges = vec![lo, lo + 10.0, lo + 20.0, lo + 30.0];
                let pdf = HistogramPdf::from_masses(edges, vec![0.2, 0.5, 0.3]).unwrap();
                UncertainObject::from_histogram(ObjectId(i), pdf)
            }
        })
        .collect();
    let db = UncertainDb::build(objects).unwrap();
    let q = 12.0;
    db.filter(&q, 1).unwrap();
    let (filtered, n) = count(|| db.filter(&q, 1).unwrap());
    let candidates = filtered.items.len();
    assert_eq!(candidates, 20, "every object overlaps q");
    assert!(
        n <= candidates + 16,
        "warm UncertainDb::filter: {n} allocations for {candidates} candidates"
    );
}

/// Allocations of three warm 2-D k = 4 queries through `cpnn_with`, end to
/// end: filter, candidate assembly, subregion table, verification,
/// refinement and the result.
fn warm_2d_knn_allocations() -> usize {
    let mut rng = StdRng::seed_from_u64(0x2d4);
    let objects: Vec<Object2d> = (0..400u64)
        .map(|i| {
            let x = rng.gen_range(5.0..95.0);
            let y = rng.gen_range(5.0..95.0);
            let r = rng.gen_range(0.5..4.0);
            let id = ObjectId(i);
            if i % 2 == 0 {
                Object2d::circle(id, [x, y], r).unwrap()
            } else {
                Object2d::rectangle(id, [x - r, y - 0.6 * r], [x + r, y + 0.6 * r]).unwrap()
            }
        })
        .collect();
    let db = UncertainDb2d::build(objects).unwrap();
    let spec = QuerySpec::knn(4, 0.3, 0.01, Strategy::Verified);
    let cfg = PipelineConfig::default();
    let mut scratch = QueryScratch::new();
    let points = [[50.0, 50.0], [20.0, 70.0], [81.5, 12.25]];
    let mut run = || {
        for q in &points {
            cpnn_with(&db, q, &spec, &cfg, &mut scratch).unwrap();
        }
    };
    run();
    count(run).1
}

#[test]
fn warm_verify_and_refine_do_not_allocate_per_subregion() {
    let cands = crowded_candidates();
    let table = SubregionTable::build(&cands);
    assert!(table.left_regions() >= 30, "want a crowded table");
    // Ambiguous threshold with zero tolerance: verification alone cannot
    // resolve, so refinement integrates many subregions.
    let classifier = Classifier::new(0.02, 0.0).unwrap();
    let chain = default_verifiers();
    let mut state = VerificationState::new(&table);
    let mut stages = Vec::new();

    // ---- Warm-up: grow every scratch buffer to its high-water mark. ----
    state.reset(&table);
    run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
    incremental_refine_with(
        &table,
        &classifier,
        &mut state,
        RefinementOrder::DescendingMass,
        |i, j, scr| kernels::nn_qualification(&table, i, j, scr),
    );
    for k in [2, 4] {
        state.reset(&table);
        stages.clear();
        run_verification_into(
            &table,
            &classifier,
            &knn_verifiers(k),
            &mut state,
            &mut stages,
        );
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, scr| kernels::knn_qualification(&table, i, j, k, scr),
        );
    }
    // Also warm the full-refinement path (every object, no verification) so
    // the visit-order buffer reaches its high-water mark.
    state.reset(&table);
    incremental_refine_with(
        &table,
        &classifier,
        &mut state,
        RefinementOrder::DescendingMass,
        |i, j, scr| kernels::nn_qualification(&table, i, j, scr),
    );

    // ---- Measured: one block per histogram (see the helper). ----
    histograms_are_one_block_each();

    // ---- Measured: three warm 2-D k = 4 queries, end to end. 129 is what
    // they allocated when the filter built every candidate's 48-bar
    // histogram and each query built its subregion table from fresh
    // vectors. ----
    let n = warm_2d_knn_allocations();
    assert!(n <= 129, "three warm 2-D k = 4 queries: {n} allocations");

    // ---- Measured: 1-NN verification must allocate nothing at all, through
    // every stage (U-SR builds the open-row product table, L-SR reads it,
    // and the first to read a `q_ij` cell sizes the cells). ----
    state.reset(&table);
    stages.clear();
    let before = allocations();
    run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
    let verify_allocs = allocations() - before;
    assert_eq!(
        stages.len(),
        chain.len(),
        "a stage before L-SR decided everything"
    );
    assert_eq!(
        verify_allocs, 0,
        "warm 1-NN verification performed {verify_allocs} allocations"
    );

    // ---- Measured: refinement allocates nothing. ----
    // Refine a fresh (unverified) state so every object takes the full
    // refinement path — hundreds of per-subregion integrations.
    state.reset(&table);
    let before = allocations();
    let report = incremental_refine_with(
        &table,
        &classifier,
        &mut state,
        RefinementOrder::DescendingMass,
        |i, j, scr| kernels::nn_qualification(&table, i, j, scr),
    );
    let refine_allocs = allocations() - before;
    assert!(
        report.integrations > 50,
        "refinement must actually integrate (got {})",
        report.integrations
    );
    assert_eq!(
        refine_allocs, 0,
        "warm refinement performed {refine_allocs} allocations over {} integrations",
        report.integrations
    );

    // ---- Measured: same contract for the k-NN chain, through both SR-k
    // stages (coarse partition, then the table itself). ----
    for k in [2, 4] {
        let knn_chain = knn_verifiers(k);
        state.reset(&table);
        stages.clear();
        let before = allocations();
        run_verification_into(&table, &classifier, &knn_chain, &mut state, &mut stages);
        let knn_verify_allocs = allocations() - before;
        assert_eq!(
            stages.len(),
            knn_chain.len(),
            "k = {k}: the coarse stage decided everything; the fine one never ran"
        );
        assert_eq!(
            knn_verify_allocs, 0,
            "warm {k}-NN verification performed {knn_verify_allocs} allocations"
        );

        state.reset(&table);
        let before = allocations();
        let report = incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
            |i, j, scr| kernels::knn_qualification(&table, i, j, k, scr),
        );
        let knn_refine_allocs = allocations() - before;
        assert_eq!(
            knn_refine_allocs, 0,
            "warm {k}-NN refinement performed {knn_refine_allocs} allocations over {} integrations",
            report.integrations
        );
    }
}
