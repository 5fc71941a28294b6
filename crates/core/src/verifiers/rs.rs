//! The Rightmost-Subregion (RS) verifier (paper Sec. IV-B, Lemma 1).
//!
//! Any object whose distance exceeds `fmin` cannot be the nearest neighbor,
//! because the object realizing `fmin` is certainly closer. Hence
//! `p_i.u ≤ 1 − s_iM`, where `s_iM = Pr[R_i ∈ S_M] = 1 − D_i(fmin)` is the
//! object's mass in the rightmost subregion. Cost: `O(|C|)`.

use crate::classify::Label;
use crate::subregion::{Columns, SubregionTable};
use crate::verifiers::{VerificationState, Verifier};

/// The RS verifier. Stateless; construct freely.
#[derive(Debug, Clone, Copy, Default)]
pub struct RightmostSubregion;

impl Verifier for RightmostSubregion {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        for i in 0..table.n_objects() {
            if state.labels[i] != Label::Unknown {
                continue;
            }
            state.bounds[i].lower_hi(1.0 - table.rightmost(i));
        }
    }

    fn columns(&self, _table: &SubregionTable) -> Columns {
        Columns::Horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subregion::SubregionTable;
    use crate::testutil::{fig7_exact, fig7_scenario};

    #[test]
    fn rs_bounds_match_hand_computation() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        RightmostSubregion.apply(&table, &mut state);
        // 1 − s_iM: X1 = 1 − .175, X2 = 1 − 0, X3 = 1 − .5.
        let want = [0.825, 1.0, 0.5];
        for (i, w) in want.iter().enumerate() {
            assert!(
                (state.bounds[i].hi() - w).abs() < 1e-12,
                "object {i}: {} vs {w}",
                state.bounds[i].hi()
            );
            assert_eq!(state.bounds[i].lo(), 0.0);
        }
    }

    #[test]
    fn rs_bound_contains_exact_probability() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        RightmostSubregion.apply(&table, &mut state);
        for (i, p) in fig7_exact().iter().enumerate() {
            assert!(state.bounds[i].contains(*p, 1e-9), "object {i}");
        }
    }

    #[test]
    fn rs_skips_already_classified_objects() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        state.labels[2] = Label::Fail;
        RightmostSubregion.apply(&table, &mut state);
        // Object 2 untouched (still vacuous).
        assert_eq!(state.bounds[2].hi(), 1.0);
        assert!((state.bounds[0].hi() - 0.825).abs() < 1e-12);
    }
}
