//! The Upper-Subregion (U-SR) verifier (paper Appendix I, Eqs. 5/10/11),
//! keeping both halves of its split.
//!
//! Split on the event `F` = "every other object lies beyond `e_{j+1}`":
//!
//! * if `F` holds, `X_i` (whose distance is in `S_j`) is certainly nearest:
//!   contributes `Pr[F] = Π_{k≠i}(1 − D_k(e_{j+1}))`;
//! * otherwise (given `E`) at least one other object shares `S_j`, so the
//!   exchangeability argument caps the conditional probability at `1/2`:
//!   contributes at most `½ (Pr[E] − Pr[F])`.
//!
//! Together `q_ij.u = ½ (Pr[F] + Pr[E]) =
//! ½ (Π_{k≠i}(1 − D_k(e_{j+1})) + Π_{k≠i}(1 − D_k(e_j)))`, and
//! `p_i.u = Σ_j s_ij · q_ij.u`. The first case alone is a lower bound,
//! `q_ij.l = Pr[F]` — beyond the paper, which uses the split for the upper
//! bound only. It reads no value the upper bound does not, and it needs no
//! Lemma 3: `F` implies the qualification whatever the pdfs inside `S_j`.
//! Neither it nor L-SR's `Pr[E] / c_j` dominates the other:
//!
//! * when competitors have substantial mass inside `S_j`, `Pr[F]` collapses
//!   and L-SR's symmetry argument wins;
//! * when many competitors merely *graze* `S_j` (tiny `s_kj`), L-SR still
//!   pays the full `1/c_j` factor while `Pr[F]` stays near 1 — the unit
//!   test constructs a case where it is ~6× tighter.
//!
//! U-SR runs before L-SR, which keeps the per-subregion maximum of both.
//! Consecutive subregions share an end-point, so one exclude-one product
//! per end-point suffices (the paper's Eq. 11 reuse of `Y_j`, `Y_{j+1}`).
//! Cost: those products, `O(|C|·M)` once per query and reused by L-SR,
//! then `O(open·M)` bound updates for the `open` rows RS left `Unknown`.

use crate::classify::Label;
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::{VerificationState, Verifier};

/// The U-SR verifier. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpperSubregion;

impl Verifier for UpperSubregion {
    fn name(&self) -> &'static str {
        "U-SR"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let n = table.n_objects();
        let l = table.left_regions();
        if n == 0 || l == 0 {
            return;
        }
        state.open_cells(table);
        // Consecutive subregions share an end-point (the paper's Y_j /
        // Y_{j+1} reuse): `S_j` reads products `j` and `j + 1` of the row.
        let VerificationState {
            labels,
            qij_lo,
            qij_hi,
            kernel,
            ..
        } = state;
        for (i, products) in kernel.open.get(table, labels) {
            if labels[i] != Label::Unknown {
                continue;
            }
            let cells = qij_lo[i * l..(i + 1) * l]
                .iter_mut()
                .zip(&mut qij_hi[i * l..(i + 1) * l]);
            let row = cells.zip(table.mass_row(i)).zip(products.windows(2));
            for (((lo, hi), &s), e) in row {
                if s <= MASS_EPS {
                    continue;
                }
                let far = e[1].clamp(0.0, 1.0);
                if far > *lo {
                    *lo = far;
                }
                let q = 0.5 * (e[1] + e[0]);
                if q < *hi {
                    *hi = q.clamp(*lo, 1.0);
                }
            }
        }
        for i in 0..n {
            if state.labels[i] == Label::Unknown {
                state.recompute_lower(table, i);
                state.recompute_upper(table, i);
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

    /// Row of the object with id 0 in `cands`.
    fn row_of_id0(cands: &CandidateSet) -> usize {
        cands
            .members()
            .iter()
            .position(|m| m.id == ObjectId(0))
            .unwrap()
    }

    #[test]
    fn usr_upper_bounds_match_hand_computation() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        let want = [0.478_125, 0.5, 0.065_625];
        for (i, w) in want.iter().enumerate() {
            assert!(
                (state.bounds[i].hi() - w).abs() < 1e-12,
                "object {i}: {} vs {w}",
                state.bounds[i].hi()
            );
        }
    }

    #[test]
    fn usr_per_subregion_values() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        let l = table.left_regions();
        // q_14.u = ½[(1−D2(6))(1−D3(6)) + (1−D2(4))(1−D3(4))] = ½[0·0.5 + 0.5·1] = 0.25
        assert!((state.qij_hi[3] - 0.25).abs() < 1e-12);
        // q_24.u = ½[(1−D1(6))(1−D3(6)) + (1−D1(4))(1−D3(4))] = ½[0.0875 + 0.525]
        assert!((state.qij_hi[l + 3] - 0.30625).abs() < 1e-12);
        // q_34.u = ½[(1−D1(6))(1−D2(6)) + (1−D1(4))(1−D2(4))] = ½[0 + 0.2625]
        assert!((state.qij_hi[2 * l + 3] - 0.13125).abs() < 1e-12);
        // The lower halves: q_ij.l = Pr[F], the product at e_{j+1} = 6.
        assert_eq!(state.qij_lo[3], 0.0);
        assert!((state.qij_lo[l + 3] - 0.0875).abs() < 1e-12);
        assert_eq!(state.qij_lo[2 * l + 3], 0.0);
        // q_11.l: nothing else has mass before e_2 = 2, so Pr[F] = 1.
        assert!((state.qij_lo[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn usr_lower_bounds_match_hand_computation_and_never_exceed_exact() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        // X1: .15·1 + .15·.75 + .175·.5 + .35·0; X2: .25·.7 + .25·.525 +
        // .5·.0875; X3's only mass sits where X2 is certainly nearer.
        for (i, w) in [0.35, 0.35, 0.0].iter().enumerate() {
            assert!((state.bounds[i].lo() - w).abs() < 1e-12, "object {i}");
        }
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].lo() <= p + 1e-9,
                "object {i}: lower {} > exact {p}",
                state.bounds[i].lo()
            );
        }
    }

    #[test]
    fn usr_lower_bound_beats_lsr_on_grazing_competitors() {
        let cands = grazing_scenario();
        let table = SubregionTable::build(&cands);
        let mut lsr_state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_state);
        let mut usr_state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut usr_state);
        let idx = row_of_id0(&cands);
        let lsr = lsr_state.bounds[idx].lo();
        let usr = usr_state.bounds[idx].lo();
        // L-SR pays 1/c_1 = 1/6; Pr[F] keeps (0.99)^5 ≈ 0.951.
        assert!(lsr < 0.2, "L-SR = {lsr}");
        assert!(usr > 0.9, "U-SR = {usr}");
        // And both remain below the exact value.
        let (exact, _) = exact_probabilities(&table);
        assert!(usr <= exact[idx] + 1e-9);
    }

    #[test]
    fn lsr_beats_usr_lower_bound_on_identical_objects() {
        // Two identical uniforms: exact = 1/2 each. Pr[F] at the far
        // end-point is 0; L-SR gives exactly 1/2.
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 3.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 1.0, 3.0).unwrap(),
        ];
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let mut lsr_state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_state);
        let mut usr_state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut usr_state);
        assert!((lsr_state.bounds[0].lo() - 0.5).abs() < 1e-12);
        assert!(usr_state.bounds[0].lo() < 1e-12);
    }

    #[test]
    fn chain_keeps_the_max_of_both_lower_bounds_per_subregion() {
        let cands = grazing_scenario();
        let table = SubregionTable::build(&cands);
        let (exact, _) = exact_probabilities(&table);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        let after_usr = state.clone();
        LowerSubregion.apply(&table, &mut state);
        let mut lsr_only = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut lsr_only);
        for (cell, &q) in state.qij_lo.iter().enumerate() {
            let lsr = lsr_only.qij_lo[cell].min(after_usr.qij_hi[cell]);
            let want = after_usr.qij_lo[cell].max(lsr);
            assert_eq!(q.to_bits(), want.to_bits(), "cell {cell}");
            assert!(q <= state.qij_hi[cell], "cell {cell}: lower above upper");
        }
        assert!(state.bounds[row_of_id0(&cands)].lo() > 0.9);
        for (i, p) in exact.iter().enumerate() {
            assert!(state.bounds[i].contains(*p, 1e-9), "object {i}");
        }
    }

    #[test]
    fn usr_upper_bound_never_below_exact() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].hi() >= p - 1e-9,
                "object {i}: upper {} < exact {p}",
                state.bounds[i].hi()
            );
        }
    }

    #[test]
    fn usr_is_at_least_as_tight_as_rs() {
        // p_i.u from U-SR is Σ_j s_ij·q_ij.u ≤ Σ_j s_ij = 1 − s_iM, the RS bound.
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        for i in 0..3 {
            assert!(state.bounds[i].hi() <= 1.0 - table.rightmost(i) + 1e-12);
        }
    }

    #[test]
    fn usr_two_identical_objects_give_half() {
        // Two identical uniforms: exact probability ½ each; U-SR should hit
        // it exactly (Pr[F] = 0 at the far end, Pr[E] = 1 at the near end).
        let objects = vec![
            crate::object::UncertainObject::uniform(crate::object::ObjectId(0), 1.0, 3.0).unwrap(),
            crate::object::UncertainObject::uniform(crate::object::ObjectId(1), 1.0, 3.0).unwrap(),
        ];
        let cands = crate::candidate::CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        UpperSubregion.apply(&table, &mut state);
        for i in 0..2 {
            assert!((state.bounds[i].hi() - 0.5).abs() < 1e-12, "object {i}");
        }
    }
}
