//! The Upper-Subregion (U-SR) verifier (paper Appendix I, Eqs. 5/10/11).
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
//! `p_i.u = Σ_j s_ij · q_ij.u`. Consecutive subregions share an end-point,
//! so one exclude-one product per end-point suffices (the paper's Eq. 11
//! reuse of `Y_j`, `Y_{j+1}`). Cost: those products, `O(|C|·M)` once per
//! query and shared with L-SR and FL-SR, then `O(open·M)` bound updates for
//! the `open` rows RS left `Unknown`.

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
            let cells = qij_hi[i * l..(i + 1) * l].iter_mut();
            let row = cells
                .zip(table.mass_row(i))
                .zip(&qij_lo[i * l..(i + 1) * l])
                .zip(products.windows(2));
            for (((cell, &s), &lo), e) in row {
                if s <= MASS_EPS {
                    continue;
                }
                let q = 0.5 * (e[1] + e[0]);
                if q < *cell {
                    *cell = q.clamp(lo, 1.0);
                }
            }
        }
        for i in 0..n {
            if state.labels[i] == Label::Unknown {
                state.recompute_upper(table, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig7_exact, fig7_scenario};

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
