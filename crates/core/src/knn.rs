//! Probabilistic k-nearest-neighbor queries — the paper's stated future
//! work ("For future work, we will … study the evaluation of k-NN
//! queries", Sec. VI).
//!
//! For an object `X_i`, the *k-NN qualification probability* is
//!
//! ```text
//! p_i(k) = Pr[ at most k−1 other objects are closer to q than X_i ]
//!        = ∫ d_i(r) · PB_{≤ k−1}( { D_j(r) } for j ≠ i ) dr
//! ```
//!
//! where `PB_{≤ t}` is the Poisson-binomial tail — the probability that at
//! most `t` of the independent events "`R_j < r`" occur. Inside a subregion
//! every `D_j` is linear, so the integrand is a polynomial and the same
//! per-subregion Gauss–Legendre treatment as 1-NN applies; the dynamic
//! program costs `O(|C|·k)` per evaluation point.
//!
//! Two pieces of the 1-NN machinery generalize directly:
//!
//! * **filtering** by `fmin_k`, the k-th smallest far point
//!   ([`cpnn_rtree::RTree::pnn_candidates_k`],
//!   [`CandidateSet::build_k`](crate::candidate::CandidateSet::build_k));
//! * the **RS verifier**: mass beyond `fmin_k` can never qualify, so
//!   `p_i(k).u ≤ 1 − s_iM` with the rightmost subregion now `[fmin_k, fmax]`.
//!
//! L-SR/U-SR-style subregion bounds for `k > 1` need no exchangeability
//! argument: the Poisson-binomial tail at a subregion's two end-points
//! brackets `q_ij` ([`KnnSubregion`], coarse partition first, then the
//! table itself). RS-k, the two SR-k stages and incremental exact
//! refinement evaluate the constrained query (C-PkNN) through the same
//! verify → refine pipeline as Fig. 3.

use crate::subregion::{Columns, SubregionTable, MASS_EPS};
use crate::verifiers::{kernels, VerificationState, Verifier};

use cpnn_pdf::integrate::{gauss_legendre, GlOrder};

/// `PB_{≤ limit}`: probability that at most `limit` of the independent
/// events with probabilities `probs` occur. `O(n·limit)` dynamic program;
/// mass beyond `limit` successes is absorbed (dropped), so the sum of the
/// state vector is exactly the tail probability.
pub(crate) fn poisson_binomial_at_most(probs: impl Iterator<Item = f64>, limit: usize) -> f64 {
    let mut dp = vec![0.0; limit + 1];
    dp[0] = 1.0;
    for p in probs {
        let p = p.clamp(0.0, 1.0);
        for c in (0..=limit).rev() {
            let stay = dp[c] * (1.0 - p);
            let come = if c > 0 { dp[c - 1] * p } else { 0.0 };
            dp[c] = stay + come;
        }
    }
    dp.iter().sum::<f64>().clamp(0.0, 1.0)
}

/// Exact k-NN subregion qualification: the probability that `X_i` is among
/// the `k` nearest, given `R_i ∈ S_j`.
pub fn knn_subregion_qualification(table: &SubregionTable, i: usize, j: usize, k: usize) -> f64 {
    let n = table.n_objects();
    if k >= n {
        return 1.0; // fewer competitors than slots
    }
    let active: Vec<(f64, f64)> = (0..n)
        .filter(|&kk| kk != i)
        .map(|kk| (table.cdf_at(kk, j), table.mass(kk, j)))
        .collect();
    let panels = active.len().div_ceil(24).max(1);
    let w = 1.0 / panels as f64;
    let mut total = 0.0;
    for p in 0..panels {
        let a = p as f64 * w;
        total += gauss_legendre(
            |t| poisson_binomial_at_most(active.iter().map(|&(a_k, m_k)| a_k + t * m_k), k - 1),
            a,
            a + w,
            GlOrder::Sixteen,
        );
    }
    total.clamp(0.0, 1.0)
}

/// Exact k-NN qualification probabilities for every candidate. The table
/// must have been built from a k-horizon candidate set
/// ([`CandidateSet::build_k`](crate::candidate::CandidateSet::build_k) with
/// the same `k`).
pub fn knn_probabilities(table: &SubregionTable, k: usize) -> Vec<f64> {
    let n = table.n_objects();
    let l = table.left_regions();
    let mut out = vec![0.0; n];
    for (i, slot) in out.iter_mut().enumerate() {
        let mut p = 0.0;
        for j in 0..l {
            let s = table.mass(i, j);
            if s > MASS_EPS {
                p += s * knn_subregion_qualification(table, i, j, k);
            }
        }
        *slot = p.clamp(0.0, 1.0);
    }
    out
}

/// The RS-k verifier bound: `p_i(k).u ≤ 1 − s_iM` where the rightmost
/// subregion starts at `fmin_k`.
pub fn knn_upper_bounds(table: &SubregionTable) -> Vec<f64> {
    (0..table.n_objects())
        .map(|i| 1.0 - table.rightmost(i))
        .collect()
}

/// The subregion verifier for k-NN — the L-SR/U-SR generalization the
/// paper leaves to future work, packaged as a [`Verifier`] so the unified
/// pipeline ([`crate::pipeline`]) runs it through the same Fig. 5 framework
/// as the 1-NN chain. For each object `i` and left subregion `S_j`:
///
/// * **lower** (`L-SR-k`): given `R_i ∈ S_j`, if at most `k−1` others lie
///   below `e_{j+1}` then certainly at most `k−1` lie below `R_i`, so
///   `q_ij.l = PB_{≤k−1}({D_m(e_{j+1})}_{m≠i})`;
/// * **upper** (`U-SR-k`): every object below `e_j` is certainly closer, so
///   `q_ij.u = PB_{≤k−1}({D_m(e_j)}_{m≠i})`.
///
/// Both are pure tail evaluations at end-points — no integration — and the
/// tail is non-increasing in the end-point, so the same two bounds hold for
/// a whole *group* of adjacent subregions from the tails at the group's two
/// ends. The chain ([`crate::framework::knn_verifiers`]) therefore runs this
/// verifier twice over one sweep (`kernels::sr_k_pass`): [`Self::coarse`]
/// visits every `⌈√L⌉`-th end-point of the `L` left subregions — `O(√L)`
/// tails per object, enough for the classifier to decide most objects —
/// and [`Self::new`] visits every end-point for the objects still
/// `Unknown` after that, at `O(|C|·M·k)`, the natural k-ary analogue of
/// Table III's `O(|C|·M)`. The fine stage's per-subregion `q_ij` bounds land
/// in the [`VerificationState`], where incremental refinement reuses them;
/// the coarse stage moves the object bounds only.
///
/// The coarse stage reads only the cdf columns it visits
/// ([`Columns::Coarse`], see [`Verifier::columns`]), so on a table the
/// pipeline fills on demand (`FillOnDemand`) it runs
/// before the rest of the table exists, and a query it settles never
/// builds the fine table.
#[derive(Debug, Clone, Copy)]
pub struct KnnSubregion {
    k: usize,
    coarse: bool,
}

impl KnnSubregion {
    /// Verifier for the `k`-nearest-neighbor qualification (`k ≥ 1`) on the
    /// subregion table itself: one tail per object and end-point.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            coarse: false,
        }
    }

    /// The same verifier on the partition that merges every `⌈√L⌉` adjacent
    /// subregions — the cheap stage ahead of [`Self::new`]. Its bounds
    /// contain the fine ones; on a table so small that the two partitions
    /// coincide (`L ≤ 1`) it does nothing.
    pub fn coarse(k: usize) -> Self {
        Self {
            k: k.max(1),
            coarse: true,
        }
    }
}

impl Verifier for KnnSubregion {
    fn name(&self) -> &'static str {
        "SR-k"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let stride = if self.coarse {
            table.coarse_stride()
        } else {
            1
        };
        if self.coarse && stride <= 1 {
            return;
        }
        kernels::sr_k_pass(table, state, self.k, stride);
    }

    /// The coarse stage reads the [`Columns::Coarse`] columns — unless there
    /// are fewer competitors than slots, when the pass sums whole mass rows
    /// (`kernels::sr_k_pass`).
    fn columns(&self, table: &SubregionTable) -> Columns {
        if self.coarse && self.k < table.n_objects() {
            Columns::Coarse
        } else {
            Columns::All
        }
    }
}

/// Aggregated L-SR-k/U-SR-k bounds `(p.l, p.u)` per candidate (Eq. 4
/// aggregation of [`KnnSubregion`]'s per-subregion bounds).
pub fn knn_verifier_bounds(table: &SubregionTable, k: usize) -> (Vec<f64>, Vec<f64>) {
    let n = table.n_objects();
    if n == 0 || table.left_regions() == 0 {
        return (vec![0.0; n], vec![0.0; n]);
    }
    let mut state = VerificationState::new(table);
    KnnSubregion::new(k).apply(table, &mut state);
    (
        state.bounds.iter().map(|b| b.lo()).collect(),
        state.bounds.iter().map(|b| b.hi()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::ProbBound;
    use crate::candidate::CandidateSet;
    use crate::classify::{Classifier, Label};
    use crate::engine::UncertainDb;
    use crate::exact::exact_probabilities;
    use crate::framework::{knn_verifiers, run_verification_into};
    use crate::object::{ObjectId, UncertainObject};
    use crate::pipeline::{
        cpnn_with, pnn, CpnnResult, PipelineConfig, QueryScratch, QuerySpec, Strategy,
    };
    use crate::refine::{incremental_refine_with, RefinementOrder};
    use crate::testutil::fig7_scenario;
    use cpnn_pdf::Pdf as _;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Possible-worlds estimate of k-NN qualification probabilities: each
    /// world draws one distance per candidate by inverse-transform sampling
    /// and credits the `k` smallest. An oracle independent of the subregion
    /// table, for the exact evaluators only.
    fn monte_carlo_knn(cands: &CandidateSet, k: usize, worlds: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let members = cands.members();
        let mut counts = vec![0usize; members.len()];
        let mut sampled: Vec<(f64, usize)> = Vec::with_capacity(members.len());
        for _ in 0..worlds {
            sampled.clear();
            for (i, m) in members.iter().enumerate() {
                sampled.push((m.dist.histogram().quantile(rng.gen()), i));
            }
            sampled.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, i) in sampled.iter().take(k) {
                counts[i] += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| c as f64 / worlds as f64)
            .collect()
    }

    fn knn_setup(k: usize) -> (CandidateSet, SubregionTable) {
        let (_, objects) = fig7_scenario();
        let cands = CandidateSet::build_k(&objects, 0.0, 0, k).unwrap();
        let table = SubregionTable::build(&cands);
        (cands, table)
    }

    #[test]
    fn poisson_binomial_edge_cases() {
        assert_eq!(poisson_binomial_at_most([].into_iter(), 0), 1.0);
        // Two fair coins: P[at most 1 head] = 3/4.
        let p = poisson_binomial_at_most([0.5, 0.5].into_iter(), 1);
        assert!((p - 0.75).abs() < 1e-12);
        // P[at most 0] = product of failures.
        let p0 = poisson_binomial_at_most([0.2, 0.3].into_iter(), 0);
        assert!((p0 - 0.8 * 0.7).abs() < 1e-12);
        // Limit ≥ n means certainty.
        let pn = poisson_binomial_at_most([0.9, 0.9].into_iter(), 2);
        assert!((pn - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_one_matches_exact_pnn() {
        let (_, table) = knn_setup(1);
        let knn = knn_probabilities(&table, 1);
        let (exact, _) = exact_probabilities(&table);
        for (a, b) in knn.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn knn_probabilities_sum_to_k() {
        for k in [1usize, 2, 3] {
            let (_, table) = knn_setup(k);
            let probs = knn_probabilities(&table, k);
            let total: f64 = probs.iter().sum();
            assert!((total - k as f64).abs() < 1e-6, "k = {k}: sum = {total}");
        }
    }

    #[test]
    fn knn_probabilities_monotone_in_k() {
        // Membership probability can only grow as k grows. Build each table
        // at the max horizon so candidate sets align.
        let (_, objects) = fig7_scenario();
        let cands = CandidateSet::build_k(&objects, 0.0, 0, 3).unwrap();
        let table = SubregionTable::build(&cands);
        let p1 = knn_probabilities(&table, 1);
        let p2 = knn_probabilities(&table, 2);
        let p3 = knn_probabilities(&table, 3);
        for i in 0..p1.len() {
            assert!(p1[i] <= p2[i] + 1e-9);
            assert!(p2[i] <= p3[i] + 1e-9);
        }
    }

    #[test]
    fn monte_carlo_confirms_exact_knn() {
        // k = 1 checks the 1-NN oracle (`exact.rs`), k = 2 the k-NN one.
        for k in [1usize, 2] {
            let (cands, table) = knn_setup(k);
            let exact = if k == 1 {
                exact_probabilities(&table).0
            } else {
                knn_probabilities(&table, k)
            };
            let mc = monte_carlo_knn(&cands, k, 100_000, 77);
            // 100k worlds: standard error ≤ 0.0016.
            for (a, b) in mc.iter().zip(&exact) {
                assert!((a - b).abs() < 0.01, "k = {k}: MC {a} vs exact {b}");
            }
        }
    }

    #[test]
    fn rs_k_bound_contains_exact() {
        let (_, table) = knn_setup(2);
        let exact = knn_probabilities(&table, 2);
        let upper = knn_upper_bounds(&table);
        for (p, u) in exact.iter().zip(&upper) {
            assert!(p <= &(u + 1e-9), "exact {p} above RS-k bound {u}");
        }
    }

    /// One C-PkNN query at `q = 0` over the Fig. 7 objects through the
    /// pipeline, candidate order.
    fn knn_query(k: usize, threshold: f64, tolerance: f64, strategy: Strategy) -> CpnnResult {
        let (_, objects) = fig7_scenario();
        let db = UncertainDb::build(objects).unwrap();
        let spec = QuerySpec::knn(k, threshold, tolerance, strategy);
        cpnn_with(
            &db,
            &0.0,
            &spec,
            &PipelineConfig::default(),
            &mut QueryScratch::new(),
        )
        .unwrap()
    }

    #[test]
    fn cpknn_agrees_with_exact_thresholding() {
        let (_, objects) = fig7_scenario();
        let db = UncertainDb::build(objects).unwrap();
        let exact = pnn(&db, &0.0, 2).unwrap().probabilities;
        for threshold in [0.3, 0.6, 0.9] {
            let res = knn_query(2, threshold, 0.0, Strategy::Verified);
            assert_eq!(res.reports.len(), exact.len());
            for r in &res.reports {
                let p = exact.iter().find(|(id, _)| *id == r.id).unwrap().1;
                let want = if p >= threshold {
                    Label::Satisfy
                } else {
                    Label::Fail
                };
                assert_eq!(r.label, want, "object {} at P = {threshold}", r.id);
                assert!(r.bound.contains(p, 1e-6));
            }
        }
    }

    #[test]
    fn cpknn_with_generous_tolerance_skips_work() {
        let tight = knn_query(2, 0.5, 0.0, Strategy::Verified);
        let loose = knn_query(2, 0.5, 0.5, Strategy::Verified);
        assert!(loose.stats.integrations <= tight.stats.integrations);
    }

    #[test]
    fn knn_verifier_bounds_contain_exact() {
        for k in [1usize, 2, 3] {
            let (_, table) = knn_setup(k);
            let exact = knn_probabilities(&table, k);
            let (lo, hi) = knn_verifier_bounds(&table, k);
            for i in 0..exact.len() {
                assert!(
                    lo[i] <= exact[i] + 1e-9,
                    "k = {k}, object {i}: lower {} > exact {}",
                    lo[i],
                    exact[i]
                );
                assert!(
                    hi[i] >= exact[i] - 1e-9,
                    "k = {k}, object {i}: upper {} < exact {}",
                    hi[i],
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn knn_verifier_bounds_match_naive_computation() {
        // Naive reference: per (i, j), PB tails computed from scratch over
        // the other objects' cdf values at the two end-points.
        let (_, table) = knn_setup(2);
        let k = 2;
        let n = table.n_objects();
        let l = table.left_regions();
        let (lo, hi) = knn_verifier_bounds(&table, k);
        for i in 0..n {
            let mut want_lo = 0.0;
            let mut want_hi = 0.0;
            for j in 0..l {
                let s = table.mass(i, j);
                if s <= MASS_EPS {
                    continue;
                }
                let tail_at = |endpoint: usize| {
                    poisson_binomial_at_most(
                        (0..n)
                            .filter(|&m| m != i)
                            .map(|m| table.cdf_at(m, endpoint)),
                        k - 1,
                    )
                };
                want_lo += s * tail_at(j + 1);
                want_hi += s * tail_at(j);
            }
            assert!((lo[i] - want_lo).abs() < 1e-9, "object {i} lower");
            assert!((hi[i] - want_hi).abs() < 1e-9, "object {i} upper");
        }
    }

    /// Apply SR-k stages back to back (no classification in between) to a
    /// fresh state.
    fn apply_stages(table: &SubregionTable, stages: &[KnnSubregion]) -> VerificationState {
        let mut state = VerificationState::new(table);
        for stage in stages {
            stage.apply(table, &mut state);
        }
        state
    }

    /// `n` mutually overlapping uniforms with staggered near points.
    fn crowded_table(n: usize, k: usize) -> SubregionTable {
        let objects: Vec<UncertainObject> = (0..n)
            .map(|i| {
                let lo = 1.0 + 0.37 * i as f64;
                UncertainObject::uniform(ObjectId(i as u64), lo, lo + 6.0 + (i % 5) as f64).unwrap()
            })
            .collect();
        SubregionTable::build(&CandidateSet::build_k(&objects, 0.0, 0, k).unwrap())
    }

    /// The three contracts of the two-stage chain on one table: sound
    /// against the exact probabilities, the fine stage within rounding of
    /// the naive reference (bounds and cells), and coarse ⊇ coarse-then-fine
    /// = fine.
    fn assert_stage_contracts(table: &SubregionTable, k: usize) {
        use crate::verifiers::reference::ReferenceKnnSubregion;
        let coarse = apply_stages(table, &[KnnSubregion::coarse(k)]);
        let fine = apply_stages(table, &[KnnSubregion::new(k)]);
        let both = apply_stages(table, &[KnnSubregion::coarse(k), KnnSubregion::new(k)]);
        let mut reference = VerificationState::new(table);
        ReferenceKnnSubregion::new(k).apply(table, &mut reference);
        let exact = knn_probabilities(table, k);
        for (i, &p) in exact.iter().enumerate() {
            let (c, f, b, r) = (
                coarse.bounds[i],
                fine.bounds[i],
                both.bounds[i],
                reference.bounds[i],
            );
            assert!(c.contains(p, 1e-9), "coarse {c} vs {p}");
            assert!(f.contains(p, 1e-9), "fine {f} vs {p}");
            assert!(c.lo() <= f.lo() + 1e-12 && f.hi() <= c.hi() + 1e-12);
            assert!(c.lo() <= b.lo() && b.hi() <= c.hi(), "fine loosened {c}");
            assert!((b.lo() - f.lo()).abs() <= 1e-12 && (b.hi() - f.hi()).abs() <= 1e-12);
            assert!((f.lo() - r.lo()).abs() <= 1e-12 && (f.hi() - r.hi()).abs() <= 1e-12);
        }
        for (got, want) in [
            (&fine.qij_lo, &reference.qij_lo),
            (&fine.qij_hi, &reference.qij_hi),
            (&both.qij_lo, &reference.qij_lo),
            (&both.qij_hi, &reference.qij_hi),
        ] {
            for (cell, (g, w)) in got.iter().zip(want).enumerate() {
                assert!((g - w).abs() <= 1e-12, "cell {cell}: {g} vs {w}");
            }
        }
        // The coarse stage bounds whole groups; it leaves the cells alone
        // (unless there are fewer competitors than slots: all cells are 1).
        if k < table.n_objects() {
            assert!(coarse.qij_lo.iter().all(|&q| q == 0.0));
            assert!(coarse.qij_hi.iter().all(|&q| q == 1.0));
        }
    }

    #[test]
    fn coarse_bounds_contain_fine_bounds_and_fine_matches_the_reference() {
        for k in [2usize, 3] {
            assert_stage_contracts(&knn_setup(k).1, k);
        }
        for (n, k) in [(12, 2), (12, 4), (30, 4), (9, 8)] {
            let table = crowded_table(n, k);
            assert!(table.left_regions() > 4, "want several groups");
            assert_stage_contracts(&table, k);
        }
    }

    #[test]
    fn tiny_tables_skip_the_coarse_stage_or_make_one_group() {
        let uniform = |id, lo, hi| UncertainObject::uniform(ObjectId(id), lo, hi).unwrap();
        let k = 2;
        for (objects, want_l) in [
            (
                vec![
                    uniform(0, 1.0, 4.0),
                    uniform(1, 1.0, 4.0),
                    uniform(2, 1.0, 5.0),
                ],
                1,
            ),
            (
                vec![
                    uniform(0, 1.0, 3.0),
                    uniform(1, 1.0, 4.0),
                    uniform(2, 1.0, 5.0),
                ],
                2,
            ),
            (
                vec![
                    uniform(0, 1.0, 3.0),
                    uniform(1, 2.0, 4.0),
                    uniform(2, 1.0, 5.0),
                ],
                3,
            ),
        ] {
            let table = SubregionTable::build(&CandidateSet::build_k(&objects, 0.0, 0, k).unwrap());
            assert_eq!(table.left_regions(), want_l);
            assert_stage_contracts(&table, k);
            let coarse = apply_stages(&table, &[KnnSubregion::coarse(k)]);
            if want_l == 1 {
                // The partitions coincide: the stage does nothing at all.
                assert!(coarse.bounds.iter().all(|b| *b == ProbBound::vacuous()));
                assert_eq!(coarse.kernel.pb_tails, 0);
            } else {
                // L = 2: one group, two visited end-points; L = 3: two
                // groups, three — at most one tail per row at each.
                let visited = if want_l == 2 { 2 } else { 3 };
                assert!(coarse.kernel.pb_tails <= visited * table.n_objects());
                assert!(coarse.kernel.pb_tails > 0);
            }
        }
    }

    #[test]
    fn a_row_with_an_interior_zero_mass_column_keeps_that_cell_vacuous() {
        use cpnn_pdf::HistogramPdf;
        // Object 0 has no mass on [2, 3]; the others put end-points there.
        let gap = HistogramPdf::from_masses(vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 0.0, 0.5]).unwrap();
        let objects = vec![
            UncertainObject::from_histogram(ObjectId(0), gap),
            UncertainObject::uniform(ObjectId(1), 1.5, 4.5).unwrap(),
            UncertainObject::uniform(ObjectId(2), 2.5, 5.0).unwrap(),
            UncertainObject::uniform(ObjectId(3), 1.2, 6.0).unwrap(),
        ];
        let k = 2;
        let table = SubregionTable::build(&CandidateSet::build_k(&objects, 0.0, 0, k).unwrap());
        let l = table.left_regions();
        let empty: Vec<usize> = (0..l).filter(|&j| table.mass(0, j) <= MASS_EPS).collect();
        let first = (0..l).find(|&j| table.mass(0, j) > MASS_EPS).unwrap();
        let last = (0..l).rev().find(|&j| table.mass(0, j) > MASS_EPS).unwrap();
        assert!(
            empty.iter().any(|&j| first < j && j < last),
            "no interior gap"
        );
        assert_stage_contracts(&table, k);
        let fine = apply_stages(&table, &[KnnSubregion::new(k)]);
        for j in 0..l {
            let vacuous = (fine.qij_lo[j], fine.qij_hi[j]) == (0.0, 1.0);
            assert_eq!(vacuous, empty.contains(&j), "row 0, column {j}");
        }
    }

    #[test]
    fn fewer_candidates_than_slots_is_decided_by_the_first_stage() {
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 2.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 1.5, 3.0).unwrap(),
        ];
        let cands = CandidateSet::build_k(&objects, 0.0, 0, 5).unwrap();
        let table = SubregionTable::build(&cands);
        let classifier = Classifier::new(0.7, 0.0).unwrap();
        let mut state = VerificationState::new(&table);
        let mut stages = Vec::new();
        run_verification_into(
            &table,
            &classifier,
            &knn_verifiers(5),
            &mut state,
            &mut stages,
        );
        // RS, then the coarse stage's early-out; the fine stage never runs.
        assert_eq!(stages.len(), 2);
        assert_eq!(state.kernel.pb_tails, 0);
        for (i, b) in state.bounds.iter().enumerate() {
            assert_eq!(state.labels[i], Label::Satisfy);
            assert!((b.lo() - 1.0).abs() < 1e-12 && (b.hi() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn knn_verifiers_cut_refinement_work() {
        // With the subregion bounds in place, clear-cut objects classify
        // without any integration.
        let (_, table) = knn_setup(2);
        let classifier = Classifier::new(0.98, 0.0).unwrap();
        let mut state = VerificationState::new(&table);
        let mut stages = Vec::new();
        run_verification_into(
            &table,
            &classifier,
            &knn_verifiers(2),
            &mut state,
            &mut stages,
        );
        // X1 and X2 are almost surely in the top 2 but not ≥ 0.98-certain…
        // X3 fails outright from its upper bound.
        assert_eq!(state.labels[2], Label::Fail);
        let mut integrations = vec![0usize; table.n_objects()];
        incremental_refine_with(
            &table,
            &classifier,
            &mut state,
            RefinementOrder::default(),
            |i, j, scr| {
                integrations[i] += 1;
                kernels::knn_qualification(&table, i, j, 2, scr)
            },
        );
        assert_eq!(integrations[2], 0);
        // The same holds end to end: VR refines at most X1 and X2, and does
        // less work than refining every candidate.
        let vr = knn_query(2, 0.98, 0.0, Strategy::Verified);
        let refine = knn_query(2, 0.98, 0.0, Strategy::RefineOnly);
        assert_eq!(vr.reports[2].id, ObjectId(3));
        assert_eq!(vr.reports[2].label, Label::Fail);
        assert!(vr.stats.refined_objects <= 2);
        assert!(vr.stats.integrations < refine.stats.integrations);
    }

    #[test]
    fn k_larger_than_candidate_count_gives_certainty() {
        let objects = vec![
            UncertainObject::uniform(ObjectId(0), 1.0, 2.0).unwrap(),
            UncertainObject::uniform(ObjectId(1), 1.5, 3.0).unwrap(),
        ];
        let cands = CandidateSet::build_k(&objects, 0.0, 0, 5).unwrap();
        let table = SubregionTable::build(&cands);
        let probs = knn_probabilities(&table, 5);
        for p in probs {
            assert!((p - 1.0).abs() < 1e-9);
        }
    }
}
