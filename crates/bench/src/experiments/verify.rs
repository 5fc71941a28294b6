//! Verification-kernel micro-benchmark — beyond the paper: the kernels of
//! `cpnn_core::verifiers::kernels` against the retained legacy path
//! (`cpnn_core::verifiers::reference` + the naive scalar integrands), across
//! a |C| × M grid.
//!
//! Both paths run the *same* verify → refine pipeline (RS, U-SR, L-SR, then
//! incremental refinement at an ambiguous threshold P = 1/|C|, where
//! refinement integrates on most grid points; the `integrations` column
//! says where it does). The verifier stages are bit-identical; refined
//! bounds agree within 1e-12 and both are sound against the exact oracle
//! (`tests/proptest_kernels.rs`), so whatever separates the timings is pure
//! implementation: one shared survival-product table for the rows RS left
//! open, contiguous row sweeps, allocation-free scratch reuse and one shared
//! quadrature pass per subregion column vs. a fresh product per end-point
//! over every row, per-subregion allocations and one integral per `q_ij`.
//!
//! M is swept independently of |C| by duplicating near endpoints: with
//! group size g, only ⌈|C|/g⌉ distinct near points (hence proportionally
//! fewer left subregions) exist at the same candidate count.

use std::time::{Duration, Instant};

use cpnn_core::classify::Classifier;
use cpnn_core::exact::subregion_qualification;
use cpnn_core::framework::{default_verifiers, run_verification_into};
use cpnn_core::refine::{incremental_refine_with, RefineReport};
use cpnn_core::verifiers::reference::reference_verifiers;
use cpnn_core::verifiers::{kernels, VerificationState, Verifier};
use cpnn_core::{CandidateSet, ObjectId, RefinementOrder, SubregionTable, UncertainObject};

use crate::report::{key, measured, ms, work, Table};

/// `c` mutually overlapping uniforms; near points repeat in groups of `g`,
/// shrinking M (the subregion count) without changing |C|.
fn candidate_set(c: usize, g: usize) -> CandidateSet {
    let objects: Vec<UncertainObject> = (0..c)
        .map(|i| {
            let lo = 1.0 + 0.05 * (i / g) as f64;
            UncertainObject::uniform(ObjectId(i as u64), lo, lo + 50.0).expect("valid region")
        })
        .collect();
    CandidateSet::build(&objects, 0.0, 0).expect("valid candidate set")
}

/// One full verify → refine pass; `reps` repetitions, best (minimum) time
/// and the (deterministic) refinement report.
/// The state is reused across reps — exactly how the pipeline's
/// `QueryScratch` runs it — so the kernel path is measured at its
/// allocation-free steady state and the legacy path at its best case too.
fn time_pass(
    table: &SubregionTable,
    classifier: &Classifier,
    chain: &[Box<dyn Verifier>],
    state: &mut VerificationState,
    reps: usize,
    mut qual: impl FnMut(usize, usize, &mut kernels::KernelScratch) -> f64,
) -> (Duration, RefineReport) {
    let mut stages = Vec::new();
    let mut best = Duration::MAX;
    let mut report = RefineReport::default();
    // One untimed warm-up grows every buffer to its high-water mark.
    for rep in 0..=reps {
        state.reset(table);
        stages.clear();
        let start = Instant::now();
        run_verification_into(table, classifier, chain, state, &mut stages);
        report = incremental_refine_with(
            table,
            classifier,
            state,
            RefinementOrder::DescendingMass,
            &mut qual,
        );
        let elapsed = start.elapsed();
        if rep > 0 {
            best = best.min(elapsed);
        }
    }
    (best, report)
}

/// Run the kernel-vs-legacy grid. Columns: |C|, M, the table build-only
/// time (the row-major `SubregionTable::build`), the legacy pass, the
/// kernel pass, the legacy-over-kernel speedup, and the kernel pass's
/// refinement work: `q_ij` collapsed and quadrature passes run for them.
pub fn run(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick {
        vec![16, 64, 128]
    } else {
        vec![16, 64, 128, 256]
    };
    let groups = [1usize, 4];
    let reps = if quick { 15 } else { 40 };
    let mut table = Table::new(
        "Verify",
        "verification-kernel vs legacy-path time per query (build / verify + refine)",
        &[
            key("|C|"),
            work("M"),
            measured("build (ms)"),
            measured("legacy (ms)"),
            measured("kernel (ms)"),
            measured("speedup"),
            work("integrations"),
            work("column passes"),
        ],
    );
    table.note(format!(
        "best of {reps} passes; chain RS, U-SR, L-SR + incremental refinement at P = 1/|C|, Δ = 0.01; \
         legacy = verifiers::reference + naive integrand, kernel = verifiers::kernels; \
         build = row-major SubregionTable::build only; verifier stages bit-identical, \
         refined bounds within 1e-12 and sound against the exact oracle \
         (tests/proptest_kernels.rs); integrations = q_ij collapsed by the kernel pass, \
         column passes = quadrature passes it ran for them"
    ));
    for &c in &sizes {
        for &g in &groups {
            let cands = candidate_set(c, g);
            // Build-only lane: best-of-reps table construction (untimed
            // first build warms the allocator).
            let sub = SubregionTable::build(&cands);
            let mut build = Duration::MAX;
            for _ in 0..reps {
                let start = Instant::now();
                let t = std::hint::black_box(SubregionTable::build(&cands));
                build = build.min(start.elapsed());
                drop(t);
            }
            let classifier = Classifier::new(1.0 / c as f64, 0.01).expect("valid classifier");
            let mut state = VerificationState::new(&sub);
            let legacy_chain = reference_verifiers();
            let (legacy, _) = time_pass(
                &sub,
                &classifier,
                &legacy_chain,
                &mut state,
                reps,
                |i, j, _| subregion_qualification(&sub, i, j),
            );
            let kernel_chain = default_verifiers();
            let (kernel, refined) = time_pass(
                &sub,
                &classifier,
                &kernel_chain,
                &mut state,
                reps,
                |i, j, s| kernels::nn_qualification(&sub, i, j, s),
            );
            table.push_row(vec![
                c.to_string(),
                sub.subregion_count().to_string(),
                ms(build),
                ms(legacy),
                ms(kernel),
                format!(
                    "{:.2}x",
                    legacy.as_secs_f64() / kernel.as_secs_f64().max(1e-12)
                ),
                refined.integrations.to_string(),
                refined.column_passes.to_string(),
            ]);
        }
    }
    table
}
