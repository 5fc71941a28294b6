//! The Far-endpoint Lower-Subregion (FL-SR) verifier — a lower-bound
//! verifier *beyond the paper*, obtained by specializing the k-NN
//! subregion bound of [`crate::knn`] to `k = 1`.
//!
//! Given `R_i ∈ S_j`, if every other object lies at distance ≥ `e_{j+1}`
//! then `X_i` is certainly the nearest neighbor, so
//!
//! ```text
//! q_ij.l' = Π_{m≠i} (1 − D_m(e_{j+1}))
//! ```
//!
//! is a valid lower bound — *without* the `1/c_j` dilution of L-SR
//! (Lemma 2). Neither bound dominates the other:
//!
//! * when competitors have substantial mass inside `S_j`, the product at
//!   the far end-point collapses and L-SR's symmetry argument wins;
//! * when many competitors merely *graze* `S_j` (tiny `s_mj`), L-SR still
//!   pays the full `1/c_j` factor while FL-SR's product stays near 1 — the
//!   unit test constructs a case where FL-SR is ~6× tighter.
//!
//! The framework takes the per-subregion maximum of both, which is always
//! at least as tight as the paper's chain. Cost: it reads the exclude-one
//! products L-SR already built (`O(|C|·M)` once per query, shared), so its
//! own work is `O(open·M)` bound updates for the `open` rows RS left
//! `Unknown`.

use crate::classify::Label;
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::{VerificationState, Verifier};

/// The FL-SR verifier. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FarLowerSubregion;

impl Verifier for FarLowerSubregion {
    fn name(&self) -> &'static str {
        "FL-SR"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let n = table.n_objects();
        let l = table.left_regions();
        if n == 0 || l == 0 {
            return;
        }
        let VerificationState {
            labels,
            qij_lo,
            kernel,
            ..
        } = state;
        for (i, products) in kernel.open.get(table, labels) {
            if labels[i] != Label::Unknown {
                continue;
            }
            let cells = qij_lo[i * l..(i + 1) * l].iter_mut();
            // `S_j` reads the product at its far end-point `e_{j+1}`.
            let row = cells.zip(table.mass_row(i)).zip(&products[1..]);
            for ((cell, &s), &e) in row {
                if s <= MASS_EPS {
                    continue;
                }
                let q = e.clamp(0.0, 1.0);
                if q > *cell {
                    *cell = q;
                }
            }
        }
        for i in 0..n {
            if state.labels[i] == Label::Unknown {
                state.recompute_lower(table, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateSet;
    use crate::exact::exact_probabilities;
    use crate::object::{ObjectId, UncertainObject};
    use crate::testutil::{fig7_exact, fig7_scenario};
    use crate::verifiers::LowerSubregion;
    use cpnn_pdf::HistogramPdf;

    /// One object tightly bracketing q, five competitors with only 1% mass
    /// in the decisive subregion.
    fn grazing_scenario() -> CandidateSet {
        let mut objects = vec![UncertainObject::uniform(ObjectId(0), 0.0, 1.0).unwrap()];
        for i in 1..=5 {
            objects.push(UncertainObject::from_histogram(
                ObjectId(i),
                HistogramPdf::from_masses(vec![0.0, 1.0, 10.0], vec![0.01, 0.99]).unwrap(),
            ));
        }
        CandidateSet::build(&objects, 0.0, 0).unwrap()
    }

    #[test]
    fn flsr_bound_is_sound_on_fig7() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        FarLowerSubregion.apply(&table, &mut state);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].lo() <= p + 1e-9,
                "object {i}: {} > exact {p}",
                state.bounds[i].lo()
            );
        }
    }

    #[test]
    fn flsr_beats_lsr_on_grazing_competitors() {
        let cands = grazing_scenario();
        let table = SubregionTable::build(&cands);

        let mut lsr_state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_state);
        let mut flsr_state = VerificationState::new(&table);
        FarLowerSubregion.apply(&table, &mut flsr_state);

        // Candidate 0 is the bracketing object (near point 0 ties; find it
        // by id).
        let idx = cands
            .members()
            .iter()
            .position(|m| m.id == ObjectId(0))
            .unwrap();
        let lsr = lsr_state.bounds[idx].lo();
        let flsr = flsr_state.bounds[idx].lo();
        // L-SR pays 1/c_1 = 1/6; FL-SR keeps (0.99)^5 ≈ 0.951.
        assert!(lsr < 0.2, "L-SR = {lsr}");
        assert!(flsr > 0.9, "FL-SR = {flsr}");
        // And both remain below the exact value.
        let (exact, _) = exact_probabilities(&table);
        assert!(flsr <= exact[idx] + 1e-9);
    }

    #[test]
    fn lsr_beats_flsr_on_identical_objects() {
        // Two identical uniforms: exact = 1/2 each. FL-SR's product at the
        // far end-point is 0; L-SR gives exactly 1/2.
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 3.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap(),
        ];
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let mut lsr_state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_state);
        let mut flsr_state = VerificationState::new(&table);
        FarLowerSubregion.apply(&table, &mut flsr_state);
        assert!((lsr_state.bounds[0].lo() - 0.5).abs() < 1e-12);
        assert!(flsr_state.bounds[0].lo() < 1e-12);
    }

    #[test]
    fn combined_chain_takes_the_max_per_subregion() {
        let cands = grazing_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut state);
        FarLowerSubregion.apply(&table, &mut state);
        let idx = cands
            .members()
            .iter()
            .position(|m| m.id == ObjectId(0))
            .unwrap();
        assert!(state.bounds[idx].lo() > 0.9);
        let (exact, _) = exact_probabilities(&table);
        for (i, p) in exact.iter().enumerate() {
            assert!(state.bounds[i].lo() <= p + 1e-9, "object {i}");
        }
    }
}
