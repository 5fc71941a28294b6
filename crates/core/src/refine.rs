//! Incremental refinement (paper Sec. IV-D).
//!
//! Objects still `Unknown` after verification get their exact probabilities
//! computed — but *incrementally*: one subregion at a time. After computing
//! the exact `q_ij` for one subregion, the bound `[q_ij.l, q_ij.u]`
//! collapses to a point, the object-level bound is recomputed, and the
//! classifier re-checks the object; often a verdict is reached after only a
//! few subregions, skipping the rest. Each per-subregion integral is also
//! cheaper than one over the whole uncertainty region (smaller domain,
//! polynomial integrand).

use crate::classify::{Classifier, Label};
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::{kernels, KernelScratch, VerificationState};

/// In which order refinement visits an object's subregions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefinementOrder {
    /// Largest subregion probability first — collapses the most bound width
    /// per integration (our default; the tech report's heuristic is not
    /// public, so this choice is ablated in the benches).
    #[default]
    DescendingMass,
    /// Left-to-right in distance order.
    LeftToRight,
}

/// Statistics from a refinement pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Objects that entered refinement.
    pub refined_objects: usize,
    /// Per-subregion integrations performed: `q_ij` collapsed to a point.
    pub integrations: usize,
    /// Composite quadrature passes the kernels ran to serve them: for 1-NN
    /// one per distinct subregion column (shared by every `Unknown` object,
    /// see [`kernels::nn_qualification`]), for k-NN one per integration;
    /// 0 when `qual` bypasses the kernels.
    pub column_passes: usize,
}

/// Refine every `Unknown` object in `state` until classified, using the
/// 1-NN exact subregion qualification (kernel path).
pub fn incremental_refine(
    table: &SubregionTable,
    classifier: &Classifier,
    state: &mut VerificationState,
    order: RefinementOrder,
) -> RefineReport {
    incremental_refine_with(table, classifier, state, order, |i, j, scr| {
        kernels::nn_qualification(table, i, j, scr)
    })
}

/// Refine every `Unknown` object in `state` until classified, with a
/// caller-supplied exact qualification `qual(i, j, scratch)` — the 1-NN
/// product integral ([`kernels::nn_qualification`]) or the k-NN
/// Poisson-binomial integral ([`kernels::knn_qualification`]); the naive
/// references ([`crate::exact::subregion_qualification`],
/// [`crate::knn::knn_subregion_qualification`]) fit by ignoring the scratch
/// argument. This is the single refinement loop every query path shares
/// (paper Sec. IV-D).
///
/// The subregion visit order is materialized in the state's kernel scratch
/// (no allocation per object); `DescendingMass` breaks mass ties by
/// ascending index, which is exactly the order the previous stable sort
/// produced, so refinement trajectories — and therefore verdicts and final
/// bounds — are unchanged.
///
/// The object-level bounds `Σ_j s_ij·q_ij.l` / `Σ_j s_ij·q_ij.u` (Eq. 4) are
/// summed once when an object is entered and then updated by
/// `s_ij·(q − old)` per collapsed subregion, so a collapse costs O(1)
/// rather than two O(L) re-sums.
pub fn incremental_refine_with(
    table: &SubregionTable,
    classifier: &Classifier,
    state: &mut VerificationState,
    order: RefinementOrder,
    mut qual: impl FnMut(usize, usize, &mut KernelScratch) -> f64,
) -> RefineReport {
    let n = table.n_objects();
    let l = table.left_regions();
    let mut report = RefineReport::default();
    let passes_before = state.kernel.quadrature_passes;
    // Take the visit-order buffer out of the scratch so the scratch itself
    // can still be handed to `qual` inside the loop; returned at the end.
    let mut regions = std::mem::take(&mut state.kernel.regions);
    for i in 0..n {
        if state.labels[i] != Label::Unknown {
            continue;
        }
        if report.refined_objects == 0 {
            // The rows still `Unknown` now share their column integrals; a
            // query the verifiers resolved never gets here.
            state.kernel.columns.open(&state.labels, l);
            state.open_cells(table);
        }
        report.refined_objects += 1;
        regions.clear();
        let (mut lo, mut hi) = (0.0, 0.0);
        for j in 0..l {
            let s = table.mass(i, j);
            lo += s * state.qij_lo[i * l + j];
            hi += s * state.qij_hi[i * l + j];
            if s > MASS_EPS {
                regions.push(j);
            }
        }
        if order == RefinementOrder::DescendingMass {
            regions.sort_unstable_by(|&a, &b| {
                table
                    .mass(i, b)
                    .total_cmp(&table.mass(i, a))
                    .then(a.cmp(&b))
            });
        }
        for &j in &regions {
            let q = qual(i, j, &mut state.kernel);
            report.integrations += 1;
            let s = table.mass(i, j);
            let cell = i * l + j;
            lo += s * (q - state.qij_lo[cell]);
            hi += s * (q - state.qij_hi[cell]);
            state.qij_lo[cell] = q;
            state.qij_hi[cell] = q;
            state.bounds[i].raise_lo(lo);
            state.bounds[i].lower_hi(hi);
            let label = classifier.classify(&state.bounds[i]);
            if label != Label::Unknown {
                state.labels[i] = label;
                break;
            }
        }
        if state.labels[i] == Label::Unknown {
            // All subregions refined. Re-sum Eq. 4 in full: over collapsed
            // `q_ij` the two sums are one expression, so the bound closes to
            // the exact probability bit for bit (the running sums can differ
            // in the last ulp) and the verdict is definite.
            state.recompute_lower(table, i);
            state.recompute_upper(table, i);
            state.labels[i] = classifier.classify(&state.bounds[i]);
            debug_assert_ne!(state.labels[i], Label::Unknown);
        }
    }
    state.kernel.regions = regions;
    state.kernel.columns.close();
    report.column_passes = state.kernel.quadrature_passes - passes_before;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subregion::SubregionTable;
    use crate::testutil::{fig7_exact, fig7_scenario, run_default_chain};

    fn run(
        threshold: f64,
        tolerance: f64,
        order: RefinementOrder,
    ) -> (VerificationState, RefineReport) {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(threshold, tolerance).unwrap();
        let (mut state, _) = run_default_chain(&table, &classifier);
        let report = incremental_refine(&table, &classifier, &mut state, order);
        (state, report)
    }

    #[test]
    fn refinement_resolves_ambiguous_threshold() {
        // P = 0.45: exact values are .464 (satisfy), .485 (satisfy), .051 (fail).
        let (state, report) = run(0.45, 0.0, RefinementOrder::DescendingMass);
        assert_eq!(state.labels[0], Label::Satisfy);
        assert_eq!(state.labels[1], Label::Satisfy);
        assert_eq!(state.labels[2], Label::Fail);
        assert!(report.refined_objects == 2, "{report:?}");
        assert!(report.integrations >= 2);
    }

    #[test]
    fn refined_bounds_contain_exact_values() {
        let (state, _) = run(0.45, 0.0, RefinementOrder::DescendingMass);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].contains(*p, 1e-6),
                "object {i}: {} vs {p}",
                state.bounds[i]
            );
        }
    }

    #[test]
    fn both_orders_agree_on_labels() {
        let (a, _) = run(0.47, 0.0, RefinementOrder::DescendingMass);
        let (b, _) = run(0.47, 0.0, RefinementOrder::LeftToRight);
        assert_eq!(a.labels, b.labels);
        // Exact: p1 = .4635 < .47 → fail; p2 = .4854 ≥ .47 → satisfy.
        assert_eq!(a.labels[0], Label::Fail);
        assert_eq!(a.labels[1], Label::Satisfy);
    }

    #[test]
    fn refinement_without_verification_works_standalone() {
        // The Refine-only strategy: vacuous bounds straight into refinement.
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.45, 0.0).unwrap();
        let mut state = VerificationState::new(&table);
        let report =
            incremental_refine(&table, &classifier, &mut state, RefinementOrder::default());
        assert_eq!(report.refined_objects, 3);
        assert_eq!(state.labels[0], Label::Satisfy);
        assert_eq!(state.labels[1], Label::Satisfy);
        assert_eq!(state.labels[2], Label::Fail);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(state.bounds[i].contains(*p, 1e-6), "object {i}");
        }
    }

    #[test]
    fn tolerance_lets_refinement_stop_early() {
        // Generous tolerance: the first refined subregion usually suffices.
        let (_, tight) = run(0.45, 0.0, RefinementOrder::DescendingMass);
        let (_, loose) = run(0.45, 0.2, RefinementOrder::DescendingMass);
        assert!(loose.integrations <= tight.integrations);
    }

    #[test]
    fn nothing_to_refine_when_verification_resolved() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.6, 0.0).unwrap();
        let (mut state, _) = run_default_chain(&table, &classifier);
        let report = incremental_refine(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::DescendingMass,
        );
        assert_eq!(report.refined_objects, 0);
        assert_eq!(report.integrations, 0);
    }
}
