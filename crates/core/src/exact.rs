//! Exact 1-NN qualification probabilities.
//!
//! [`subregion_qualification`] / [`exact_probabilities`] evaluate the
//! subregion-decomposed form `p_i = Σ_j s_ij · q_ij` (paper Eq. 4), where
//! each `q_ij` integrates a *polynomial* (every distance cdf is linear
//! inside a subregion) with composite Gauss–Legendre panels. They are the
//! 1-NN test oracle, and the pipeline's exact evaluation (Basic and `pnn`)
//! at `k = 1`; refinement evaluates the same integrals through the
//! kernels.

use cpnn_pdf::integrate::{gauss_legendre, GlOrder};

use crate::subregion::{SubregionTable, MASS_EPS};

/// Exact subregion qualification probability `q_ij`: the chance `X_i` is the
/// nearest neighbor given `R_i ∈ S_j`.
///
/// With `t ∈ [0, 1]` parameterizing `S_j` and each competitor cdf linear in
/// `t` (`D_k = a_k + t·s_kj`), and `d_i` constant inside `S_j`:
/// `q_ij = ∫₀¹ Π_{k≠i} (1 − a_k − t·s_kj) dt`.
pub fn subregion_qualification(table: &SubregionTable, i: usize, j: usize) -> f64 {
    let n = table.n_objects();
    // Factors that are not identically 1 on this subregion.
    let active: Vec<(f64, f64)> = (0..n)
        .filter(|&k| k != i)
        .map(|k| (table.cdf_at(k, j), table.mass(k, j)))
        .filter(|&(a, m)| a > 0.0 || m > MASS_EPS)
        .collect();
    if active.is_empty() {
        return 1.0;
    }
    // The integrand is a polynomial of degree `d = active.len()`. One
    // 16-point GL panel is exact to degree 31; splitting does not lower the
    // degree, so past 31 factors no panel count makes the rule exact. What
    // one panel per 24 factors buys is a truncation error that stays bounded
    // however crowded the subregion: a panel of width `w` errs by at most
    // `c·w³³·max|f⁽³²⁾|` with `c = (16!)⁴ / (33·(32!)³) ≈ 3.2e-55`, and
    // `|f⁽³²⁾| ≤ (d·s)³²` for `d` factors in `[0, 1]` of slope at most `s`, so
    // with `w ≤ 24/d` the composite error is at most `c·24³²·s³² ≈ 5e-11·s³²`
    // for every `d` — under 1e-15 once no competitor holds more than 0.7 of
    // its mass in this one subregion.
    let panels = active.len().div_ceil(24).max(1);
    let mut total = 0.0;
    let w = 1.0 / panels as f64;
    for p in 0..panels {
        let a = p as f64 * w;
        let b = a + w;
        total += gauss_legendre(
            |t| {
                active
                    .iter()
                    .map(|&(a_k, m_k)| (1.0 - a_k - t * m_k).max(0.0))
                    .product::<f64>()
            },
            a,
            b,
            GlOrder::Sixteen,
        );
    }
    total.clamp(0.0, 1.0)
}

/// Exact qualification probabilities for every candidate, via the subregion
/// decomposition (Eq. 4). Also returns the number of subregion integrations
/// performed.
pub fn exact_probabilities(table: &SubregionTable) -> (Vec<f64>, usize) {
    let n = table.n_objects();
    let l = table.left_regions();
    let mut probs = vec![0.0; n];
    let mut integrations = 0;
    for (i, slot) in probs.iter_mut().enumerate() {
        let mut p = 0.0;
        for j in 0..l {
            let s = table.mass(i, j);
            if s > MASS_EPS {
                p += s * subregion_qualification(table, i, j);
                integrations += 1;
            }
        }
        *slot = p.clamp(0.0, 1.0);
    }
    (probs, integrations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateSet;
    use crate::knn::knn_probabilities;
    use crate::object::{ObjectId, UncertainObject};
    use crate::testutil::{fig7_exact, fig7_scenario};

    #[test]
    fn subregion_exact_matches_hand_computation() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let (probs, integrations) = exact_probabilities(&table);
        for (got, want) in probs.iter().zip(fig7_exact()) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        // Active subregions: X1 has 4, X2 has 3, X3 has 1.
        assert_eq!(integrations, 8);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let (probs, _) = exact_probabilities(&table);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    /// Basic evaluates every k, k = 1 included, with
    /// [`knn_probabilities`]: it must agree with this oracle.
    #[test]
    fn basic_agrees_with_subregion_exact() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let (want, _) = exact_probabilities(&table);
        let got = knn_probabilities(&table, 1);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12, "{g} vs {w}");
        }
    }

    #[test]
    fn single_candidate_has_probability_one() {
        let objects = vec![UncertainObject::uniform(ObjectId(0), 2.0, 5.0).unwrap()];
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let (probs, _) = exact_probabilities(&table);
        assert!((probs[0] - 1.0).abs() < 1e-12);
        let basic = knn_probabilities(&table, 1);
        assert!((basic[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_objects_split_evenly() {
        let objects: Vec<UncertainObject> = (0..4)
            .map(|i| UncertainObject::uniform(ObjectId(i), 1.0, 3.0).unwrap())
            .collect();
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let (probs, _) = exact_probabilities(&table);
        for p in &probs {
            assert!((p - 0.25).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn dominated_object_has_zero_probability_mass_beyond_fmin() {
        // X0 = [1,2]; X1 = [2.5, 9]: X1's near (2.5) > fmin (2) → X1 is not
        // even a candidate.
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 2.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 2.5, 9.0).unwrap(),
        ];
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        assert_eq!(cands.len(), 1);
        let table = SubregionTable::build(&cands);
        let (probs, _) = exact_probabilities(&table);
        assert!((probs[0] - 1.0).abs() < 1e-9);
    }

    /// Two objects: X1 uniform [0,1], X2 uniform [0,2], q = 0.
    /// p_2 = ∫₀¹ (1/2)(1−r) dr = 1/4; p_1 = 3/4. Analytic cross-check.
    #[test]
    fn analytic_two_object_case() {
        let objects = vec![
            UncertainObject::uniform(ObjectId(1), 0.0, 1.0).unwrap(),
            UncertainObject::uniform(ObjectId(2), 0.0, 2.0).unwrap(),
        ];
        let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
        let table = SubregionTable::build(&cands);
        let (probs, _) = exact_probabilities(&table);
        // Candidate order: both near 0 — order by near then stable; find by checking values.
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(probs.iter().any(|p| (p - 0.75).abs() < 1e-9));
        assert!(probs.iter().any(|p| (p - 0.25).abs() < 1e-9));
    }
}
