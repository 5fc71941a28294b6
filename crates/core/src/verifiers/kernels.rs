//! Column-major verification kernels.
//!
//! Every verifier inner loop sweeps all objects at a fixed end-point `j`,
//! which the SoA [`SubregionTable`] exposes as contiguous slices
//! ([`SubregionTable::cdf_col`] / [`SubregionTable::mass_col`]). The
//! primitives here consume those slices with plain unit-stride loops (one
//! safe scalar form of each, no dispatch) and write into **reusable**
//! buffers ([`KernelScratch`]) so the hot path performs zero heap
//! allocations per subregion.
//!
//! Determinism contract: each kernel evaluates *exactly* the same floating-
//! point expression sequence as its naive counterpart (retained in
//! [`crate::verifiers::reference`] and as naive loops in this module's
//! tests), so verdicts and bounds are bit-identical across the kernel,
//! cached, sharded, and batched paths.

use cpnn_pdf::integrate::{gauss_legendre, GlOrder};

use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::products::survival_products;
use crate::verifiers::ExcludeOneProduct;

/// Reusable kernel buffers, threaded through the pipeline inside
/// [`crate::verifiers::VerificationState`] (and hence per-query scratch).
///
/// Buffers grow to the high-water mark of the tables they meet and are
/// reused thereafter; `Default` starts empty. Every kernel entry point
/// resizes what it needs, so no explicit reset is required between queries.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// Exclude-one survival product at the current end-point — the
    /// fallback when the table is too large for the shared column tables.
    pub(crate) excl: ExcludeOneProduct,
    /// Exclude-one product at the next end-point (U-SR's `Y_{j+1}`).
    pub(crate) excl_next: ExcludeOneProduct,
    /// Shared exclude-one survival products, one column per end-point:
    /// `col_prefix[j·(n+1) + i] = Π_{k<i} (1 − D_k(e_j))` and the matching
    /// suffix table. Built at most once per query
    /// ([`Self::try_shared_products`]) — L-SR, U-SR, and FL-SR all read
    /// the same end-point columns, so sharing halves the product work the
    /// per-verifier ping-pong used to redo.
    pub(crate) col_prefix: Vec<f64>,
    /// Suffix half of the shared product table (same layout).
    pub(crate) col_suffix: Vec<f64>,
    /// Column stride of the product tables (`n + 1`).
    pub(crate) col_stride: usize,
    /// Whether the product tables describe the current query's table.
    pub(crate) products_ready: bool,
    /// Truncated Poisson-binomial state at the current end-point.
    pub(crate) dp: Vec<f64>,
    /// Poisson-binomial state at the next end-point.
    pub(crate) dp_next: Vec<f64>,
    /// Spare DP buffer for exclude-one fallbacks and integrand evaluation.
    pub(crate) dp_spare: Vec<f64>,
    /// Gathered integrand coefficients: competitor cdf values at `e_j`.
    pub(crate) coef_cdf: Vec<f64>,
    /// Gathered integrand coefficients: competitor subregion masses.
    pub(crate) coef_mass: Vec<f64>,
    /// Refinement visit order (indices of massive subregions).
    pub(crate) regions: Vec<usize>,
}

/// Upper size (in `f64`s per half-table) of the shared survival product
/// tables. Beyond this the tables spill out of L2 and the three passes
/// (build + two reading verifiers) cost more in memory traffic than the
/// per-column ping-pong recompute they replace, so the verifiers fall back
/// to [`ExcludeOneProduct::recompute_survival`]. 8192 f64s = 64 KiB per
/// half; both choices produce bit-identical products.
const SHARED_PRODUCTS_MAX: usize = 8192;

impl KernelScratch {
    /// Rotate the Poisson-binomial state pair.
    pub(crate) fn swap_pb(&mut self) {
        std::mem::swap(&mut self.dp, &mut self.dp_next);
    }

    /// Rotate the fallback product pair: `Y_{j+1}` becomes the next `Y_j`.
    pub(crate) fn swap_products(&mut self) {
        std::mem::swap(&mut self.excl, &mut self.excl_next);
    }

    /// Build the shared exclude-one survival product tables for every
    /// end-point column of `table`, unless they are already up to date for
    /// this query ([`crate::verifiers::VerificationState::reset`] clears the
    /// flag) or the table exceeds [`SHARED_PRODUCTS_MAX`] (returns `false`;
    /// callers then recompute per column with
    /// [`ExcludeOneProduct::recompute_survival`] — the same chain, so the
    /// verifiers read bit-identical products either way).
    pub(crate) fn try_shared_products(&mut self, table: &SubregionTable) -> bool {
        let n = table.n_objects();
        let cols = table.left_regions() + 1;
        let stride = n + 1;
        if cols * stride > SHARED_PRODUCTS_MAX {
            return false;
        }
        if self.products_ready {
            return true;
        }
        self.col_stride = stride;
        self.col_prefix.clear();
        self.col_prefix.resize(cols * stride, 0.0);
        self.col_suffix.clear();
        self.col_suffix.resize(cols * stride, 0.0);
        for j in 0..cols {
            let span = j * stride..(j + 1) * stride;
            survival_products(
                table.cdf_col(j),
                &mut self.col_prefix[span.clone()],
                &mut self.col_suffix[span],
            );
        }
        self.products_ready = true;
        true
    }

    /// The exclude-one `(prefix, suffix)` product slices for end-point
    /// column `col`: the shared column table when `shared`, else the
    /// ping-pong fallback product (already recomputed by the caller).
    pub(crate) fn col_products(&self, shared: bool, col: usize) -> (&[f64], &[f64]) {
        if shared {
            let base = col * self.col_stride;
            (
                &self.col_prefix[base..base + self.col_stride],
                &self.col_suffix[base..base + self.col_stride],
            )
        } else {
            self.excl.parts()
        }
    }

    /// The two `(prefix, suffix)` product pairs U-SR's trapezoid reads for
    /// the column pair `(j, j+1)`: `(pc, sc)` at the near end-point and
    /// `(pn, sn)` at the far one. Shared mode slices the column table;
    /// non-shared mode returns the ping-pong pair (`excl` = `Y_j`,
    /// `excl_next` = `Y_{j+1}`, both recomputed by the caller).
    pub(crate) fn usr_products(&self, shared: bool, j: usize) -> (&[f64], &[f64], &[f64], &[f64]) {
        if shared {
            let base = j * self.col_stride;
            let base_next = (j + 1) * self.col_stride;
            (
                &self.col_prefix[base..base + self.col_stride],
                &self.col_suffix[base..base + self.col_stride],
                &self.col_prefix[base_next..base_next + self.col_stride],
                &self.col_suffix[base_next..base_next + self.col_stride],
            )
        } else {
            let (pc, sc) = self.excl.parts();
            let (pn, sn) = self.excl_next.parts();
            (pc, sc, pn, sn)
        }
    }
}

/// Above this success probability the exclude-one deconvolution's division
/// by `1 − p` is ill-conditioned and [`pb_tail_excluding`] recomputes the
/// state without the factor instead.
const PB_FALLBACK_P: f64 = 0.999;

/// One Poisson-binomial DP row update with an already-clamped success
/// probability `p`: `dp[c] ← dp[c]·(1−p) + dp[c−1]·p` for every `c` (with
/// `dp[−1] = 0`), descending so each step reads only pre-update state.
#[inline]
fn pb_row_update(dp: &mut [f64], p: f64) {
    for c in (0..dp.len()).rev() {
        let come = if c > 0 { dp[c - 1] * p } else { 0.0 };
        dp[c] = dp[c] * (1.0 - p) + come;
    }
}

/// Poisson-binomial DP column step: rebuild `dp` in place so that
/// `dp[c] = Pr[exactly c of the events in `probs` occur]` for `c ≤ limit`,
/// with overflow mass absorbed. Identical convolution order and arithmetic
/// as [`crate::knn::poisson_binomial_at_most`].
pub fn pb_into(dp: &mut Vec<f64>, probs: &[f64], limit: usize) {
    dp.clear();
    dp.resize(limit + 1, 0.0);
    dp[0] = 1.0;
    for &p in probs {
        let p = p.clamp(0.0, 1.0);
        pb_row_update(dp, p);
    }
}

/// Tail `Pr[≤ limit]` of the state in `dp` with factor `i` removed by
/// O(limit) deconvolution; falls back to a direct skip-one recompute (into
/// `spare`, no allocation) when `probs[i] ≈ 1` would make the division
/// ill-conditioned. Matches the legacy `PbState::tail_excluding` bit for
/// bit, including the fallback's unclamped sum.
pub fn pb_tail_excluding(dp: &[f64], probs: &[f64], i: usize, spare: &mut Vec<f64>) -> f64 {
    let p = probs[i].clamp(0.0, 1.0);
    if p > PB_FALLBACK_P {
        let limit = dp.len() - 1;
        spare.clear();
        spare.resize(limit + 1, 0.0);
        spare[0] = 1.0;
        for (m, &raw) in probs.iter().enumerate() {
            if m == i {
                continue;
            }
            let q = raw.clamp(0.0, 1.0);
            pb_row_update(spare, q);
        }
        return spare.iter().sum::<f64>();
    }
    let q = 1.0 - p;
    let mut prev = 0.0;
    let mut tail = 0.0;
    for &d in dp {
        let excl = ((d - p * prev) / q).clamp(0.0, 1.0);
        tail += excl;
        prev = excl;
    }
    tail.clamp(0.0, 1.0)
}

/// Kernel form of the 1-NN qualification integrand
/// ([`crate::exact::subregion_qualification`]): gather the active
/// competitor coefficients from the `j`-th columns into scratch, then
/// integrate `Π (1 − a_k − t·s_kj)` with the same Gauss–Legendre panels.
/// Bit-identical to the naive version; zero allocations once warm.
pub fn nn_qualification(
    table: &SubregionTable,
    i: usize,
    j: usize,
    scr: &mut KernelScratch,
) -> f64 {
    let cdf = table.cdf_col(j);
    let mass = table.mass_col(j);
    scr.coef_cdf.clear();
    scr.coef_mass.clear();
    for k in 0..cdf.len() {
        if k == i {
            continue;
        }
        let (a, m) = (cdf[k], mass[k]);
        if a > 0.0 || m > MASS_EPS {
            scr.coef_cdf.push(a);
            scr.coef_mass.push(m);
        }
    }
    let active = scr.coef_cdf.len();
    if active == 0 {
        return 1.0;
    }
    let panels = active.div_ceil(24).max(1);
    let w = 1.0 / panels as f64;
    let coef_cdf = &scr.coef_cdf;
    let coef_mass = &scr.coef_mass;
    let mut total = 0.0;
    for p in 0..panels {
        let a = p as f64 * w;
        total += gauss_legendre(
            |t| {
                coef_cdf
                    .iter()
                    .zip(coef_mass)
                    .map(|(&a_k, &m_k)| (1.0 - a_k - t * m_k).max(0.0))
                    .product::<f64>()
            },
            a,
            a + w,
            GlOrder::Sixteen,
        );
    }
    total.clamp(0.0, 1.0)
}

/// Kernel form of the k-NN qualification integrand
/// ([`crate::knn::knn_subregion_qualification`]): gather competitor
/// coefficients, then integrate the Poisson-binomial tail with the DP
/// running in the spare scratch buffer. Bit-identical to the naive version.
pub fn knn_qualification(
    table: &SubregionTable,
    i: usize,
    j: usize,
    k: usize,
    scr: &mut KernelScratch,
) -> f64 {
    let n = table.n_objects();
    if k >= n {
        return 1.0; // fewer competitors than slots
    }
    let cdf = table.cdf_col(j);
    let mass = table.mass_col(j);
    scr.coef_cdf.clear();
    scr.coef_mass.clear();
    for kk in 0..n {
        if kk == i {
            continue;
        }
        scr.coef_cdf.push(cdf[kk]);
        scr.coef_mass.push(mass[kk]);
    }
    let limit = k - 1;
    let active = scr.coef_cdf.len();
    let panels = active.div_ceil(24).max(1);
    let w = 1.0 / panels as f64;
    let coef_cdf = &scr.coef_cdf;
    let coef_mass = &scr.coef_mass;
    let dp = &mut scr.dp_spare;
    let mut total = 0.0;
    for p in 0..panels {
        let a = p as f64 * w;
        total += gauss_legendre(
            |t| {
                dp.clear();
                dp.resize(limit + 1, 0.0);
                dp[0] = 1.0;
                for (a_k, m_k) in coef_cdf.iter().zip(coef_mass) {
                    let pr = (a_k + t * m_k).clamp(0.0, 1.0);
                    pb_row_update(dp, pr);
                }
                dp.iter().sum::<f64>().clamp(0.0, 1.0)
            },
            a,
            a + w,
            GlOrder::Sixteen,
        );
    }
    total.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateSet;
    use crate::classify::Classifier;
    use crate::exact::subregion_qualification;
    use crate::framework::{default_verifiers, extended_verifiers, run_verification_into};
    use crate::knn::{knn_subregion_qualification, poisson_binomial_at_most};
    use crate::object::{ObjectId, UncertainObject};
    use crate::subregion::SubregionTable;
    use crate::testutil::fig7_scenario;
    use crate::verifiers::reference::{reference_extended_verifiers, reference_verifiers};
    use crate::verifiers::VerificationState;
    use cpnn_pdf::HistogramPdf;

    #[test]
    fn pb_into_matches_naive_tail_bitwise() {
        let probs = [0.2, 0.5, 0.9, 0.0, 1.0, 0.33];
        for limit in 0..4 {
            let mut dp = Vec::new();
            pb_into(&mut dp, &probs, limit);
            let tail = dp.iter().sum::<f64>().clamp(0.0, 1.0);
            let naive = poisson_binomial_at_most(probs.iter().copied(), limit);
            assert_eq!(tail.to_bits(), naive.to_bits(), "limit {limit}");
        }
    }

    #[test]
    fn pb_tail_excluding_matches_skip_one_recompute() {
        // Includes a p = 1.0 factor to exercise the fallback path.
        let probs = [0.2, 0.5, 1.0, 0.05, 0.9995];
        let limit = 2;
        let mut dp = Vec::new();
        pb_into(&mut dp, &probs, limit);
        let mut spare = Vec::new();
        for i in 0..probs.len() {
            let got = pb_tail_excluding(&dp, &probs, i, &mut spare);
            let rest: Vec<f64> = probs
                .iter()
                .enumerate()
                .filter(|&(m, _)| m != i)
                .map(|(_, &p)| p)
                .collect();
            let want = poisson_binomial_at_most(rest.iter().copied(), limit);
            assert!((got - want).abs() < 1e-9, "i = {i}: {got} vs {want}");
        }
    }

    #[test]
    fn nn_qualification_matches_naive_bitwise() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut scr = KernelScratch::default();
        for i in 0..table.n_objects() {
            for j in 0..table.left_regions() {
                let got = nn_qualification(&table, i, j, &mut scr);
                let want = subregion_qualification(&table, i, j);
                assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn knn_qualification_matches_naive_bitwise() {
        let (_, objects) = fig7_scenario();
        for k in 1..=3 {
            let cands = crate::candidate::CandidateSet::build_k(&objects, 0.0, 0, k).unwrap();
            let table = SubregionTable::build(&cands);
            let mut scr = KernelScratch::default();
            for i in 0..table.n_objects() {
                for j in 0..table.left_regions() {
                    let got = knn_qualification(&table, i, j, k, &mut scr);
                    let want = knn_subregion_qualification(&table, i, j, k);
                    assert_eq!(got.to_bits(), want.to_bits(), "({i},{j}) k={k}");
                }
            }
        }
    }

    /// `n` overlapping two-bin histograms with distinct near points and
    /// shared interior/far edges: `n + 1` left regions, so the product
    /// tables would need `(n + 1)·(n + 2)` entries per half.
    fn overlapping_histograms(n: usize) -> SubregionTable {
        let objects: Vec<UncertainObject> = (0..n)
            .map(|i| {
                let near = 1.0 + 0.05 * i as f64;
                let first = 0.2 + 0.6 * ((i * 37) % 101) as f64 / 101.0;
                let far = 60.0 + (i % 7) as f64;
                let pdf =
                    HistogramPdf::from_masses(vec![near, 30.0, far], vec![first, 1.0 - first])
                        .unwrap();
                UncertainObject::from_histogram(ObjectId(i as u64), pdf)
            })
            .collect();
        SubregionTable::build(&CandidateSet::build(&objects, 0.0, 0).unwrap())
    }

    /// Both sides of the [`SHARED_PRODUCTS_MAX`] fork — the shared column
    /// tables just under the cap and the ping-pong fallback over it — are
    /// bit-identical to the reference chains on bounds, labels and `q_ij`.
    #[test]
    fn verifier_chains_match_reference_on_both_sides_of_the_products_cap() {
        for (n, want_shared) in [(89, true), (130, false)] {
            let table = overlapping_histograms(n);
            assert_eq!(table.n_objects(), n);
            assert_eq!(
                KernelScratch::default().try_shared_products(&table),
                want_shared,
                "n = {n}: {} product entries vs cap {SHARED_PRODUCTS_MAX}",
                (n + 1) * (table.left_regions() + 1)
            );
            let classifier = Classifier::new(1.0 / n as f64, 0.0).unwrap();
            // The default chain reaches U-SR with every row still Unknown;
            // in the extended one FL-SR decides some first, so U-SR's label
            // gate is compared too.
            for (chain, reference, gated) in [
                (default_verifiers(), reference_verifiers(), false),
                (extended_verifiers(), reference_extended_verifiers(), true),
            ] {
                let mut got = VerificationState::new(&table);
                let mut want = VerificationState::new(&table);
                let mut stages = Vec::new();
                run_verification_into(&table, &classifier, &chain, &mut got, &mut stages);
                run_verification_into(&table, &classifier, &reference, &mut want, &mut stages);
                assert_eq!(got.labels, want.labels, "n = {n}");
                if gated {
                    let before_usr = stages[2].unknown_after;
                    assert!(
                        0 < before_usr && before_usr < n,
                        "n = {n}: U-SR ran ungated"
                    );
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.qij_lo), bits(&want.qij_lo), "n = {n}");
                assert_eq!(bits(&got.qij_hi), bits(&want.qij_hi), "n = {n}");
                for (g, w) in got.bounds.iter().zip(&want.bounds) {
                    assert_eq!(g.lo().to_bits(), w.lo().to_bits(), "n = {n}");
                    assert_eq!(g.hi().to_bits(), w.hi().to_bits(), "n = {n}");
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_are_reused_not_reallocated() {
        let (cands, _) = fig7_scenario();
        let table = SubregionTable::build(&cands);
        let mut scr = KernelScratch::default();
        // Warm every buffer once.
        let _ = nn_qualification(&table, 0, 3, &mut scr);
        let _ = knn_qualification(&table, 0, 3, 2, &mut scr);
        let ptrs = (
            scr.coef_cdf.as_ptr(),
            scr.coef_mass.as_ptr(),
            scr.dp_spare.as_ptr(),
        );
        // Re-run the kernels: the backing allocations must not move.
        for j in 0..table.left_regions() {
            let _ = nn_qualification(&table, 1, j, &mut scr);
            let _ = knn_qualification(&table, 1, j, 2, &mut scr);
        }
        assert_eq!(ptrs.0, scr.coef_cdf.as_ptr());
        assert_eq!(ptrs.1, scr.coef_mass.as_ptr());
        assert_eq!(ptrs.2, scr.dp_spare.as_ptr());
    }
}
