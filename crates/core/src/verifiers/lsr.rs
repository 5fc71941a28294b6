//! The Lower-Subregion (L-SR) verifier (paper Sec. IV-C, Lemma 2).
//!
//! For object `i` with `R_i ∈ S_j`:
//!
//! * `Pr[E]` — the probability every *other* object lies at distance ≥ `e_j`
//!   — is exactly `Π_{k≠i} (1 − D_k(e_j))`;
//! * given `E`, at most `c_j − 1` other objects can share `S_j` with `i`,
//!   and conditioned on the count they are exchangeable (each distance pdf
//!   is constant inside a subregion), so `Pr[N | E] ≥ 1/c_j` (Lemma 3).
//!
//! Hence `q_ij.l = (1/c_j) · Π_{k≠i}(1 − D_k(e_j))` and
//! `p_i.l = Σ_j s_ij · q_ij.l` (Eq. 4). It runs after U-SR, on the rows
//! U-SR left `Unknown`: a cell keeps the larger of this bound and U-SR's
//! `Pr[F]`, and never rises above U-SR's `q_ij.u` (the two bounds bracket
//! the same `q_ij`, so the cap only absorbs rounding). Cost: `O(open·M)`
//! bound updates over the exclude-one products U-SR built (the paper's
//! `Y_j` trick, Eqs. 2–3).
//!
//! Note the product here runs over **all** `k ≠ i`: under the paper's
//! assumption (pdf non-zero throughout `U_k`) the extra factors are exactly
//! 1, and with zero-density histogram bars the full product is still a valid
//! (if occasionally looser) lower bound: extra factors in `[0, 1]` can
//! only shrink the product, never overstate `p_i.l`.

use crate::classify::Label;
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::{VerificationState, Verifier};

/// The L-SR verifier. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerSubregion;

impl Verifier for LowerSubregion {
    fn name(&self) -> &'static str {
        "L-SR"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let n = table.n_objects();
        let l = table.left_regions();
        if n == 0 || l == 0 {
            return;
        }
        state.open_cells(table);
        let VerificationState {
            labels,
            qij_lo,
            qij_hi,
            kernel,
            ..
        } = state;
        // `c_j = 0` means no row has mass in `S_j`: the mass gate below
        // never reads its (infinite) inverse.
        kernel.inv_counts.clear();
        kernel
            .inv_counts
            .extend((0..l).map(|j| 1.0 / table.count(j) as f64));
        for (i, products) in kernel.open.get(table, labels) {
            if labels[i] != Label::Unknown {
                continue;
            }
            let cells = qij_lo[i * l..(i + 1) * l]
                .iter_mut()
                .zip(&qij_hi[i * l..(i + 1) * l]);
            let row = cells
                .zip(table.mass_row(i))
                .zip(products)
                .zip(&kernel.inv_counts);
            for ((((cell, &hi), &s), &e), &inv_cj) in row {
                if s <= MASS_EPS {
                    continue;
                }
                let q = (e * inv_cj).clamp(0.0, hi);
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
    use crate::testutil::{fig7_exact, fig7_scenario};

    #[test]
    fn lsr_lower_bounds_match_hand_computation() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut state);
        // Hand-computed in testutil docs.
        let want = [0.348_958_333_333_333_3, 0.28125, 0.04375];
        for (i, w) in want.iter().enumerate() {
            assert!(
                (state.bounds[i].lo() - w).abs() < 1e-12,
                "object {i}: {} vs {w}",
                state.bounds[i].lo()
            );
        }
    }

    #[test]
    fn lsr_per_subregion_values() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut state);
        let l = table.left_regions();
        // q_11.l = 1 (c_1 = 1, no competitor mass before e_1).
        assert!((state.qij_lo[0] - 1.0).abs() < 1e-12);
        // q_12.l = ½·(1−0)(1−0) = 0.5
        assert!((state.qij_lo[1] - 0.5).abs() < 1e-12);
        // q_23.l = ½·(1−0.3)(1−0) = 0.35 (object index 1, region 2).
        assert!((state.qij_lo[l + 2] - 0.35).abs() < 1e-12);
        // q_34.l = ⅓·(1−0.475)(1−0.5) = 0.0875 (object 2, region 3).
        assert!((state.qij_lo[2 * l + 3] - 0.0875).abs() < 1e-12);
    }

    #[test]
    fn lsr_lower_bound_never_exceeds_exact() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut state);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(
                state.bounds[i].lo() <= p + 1e-9,
                "object {i}: lower {} > exact {p}",
                state.bounds[i].lo()
            );
        }
    }

    #[test]
    fn lsr_single_candidate_proves_certainty() {
        let objects =
            vec![
                crate::object::UncertainObject::uniform(crate::object::ObjectId(0), 1.0, 2.0)
                    .unwrap(),
            ];
        let cands = crate::candidate::CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        LowerSubregion.apply(&table, &mut state);
        assert!((state.bounds[0].lo() - 1.0).abs() < 1e-12);
    }
}
