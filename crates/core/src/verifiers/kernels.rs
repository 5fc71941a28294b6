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
//! Determinism contract, in two halves.
//!
//! * **Verifier stages and the k-NN integrand** evaluate *exactly* the same
//!   floating-point expression sequence as their naive counterparts
//!   (retained in [`crate::verifiers::reference`],
//!   [`crate::knn::knn_subregion_qualification`] and as naive loops in this
//!   module's tests): bit-identical to them, and so across the kernel,
//!   cached, sharded, and batched paths.
//! * **The 1-NN refine integrand** ([`nn_qualification`]) shares one
//!   quadrature pass among all rows still `Unknown`, so a `q_ij` multiplies
//!   its factors in a different order than the naive expression tree
//!   ([`crate::exact::subregion_qualification`], the independent oracle). It
//!   is bit-identical *across execution modes* (same table and same
//!   `Unknown` set ⇒ same bits), within `1e-12` of the naive integrand, and
//!   *sound* against the exact oracle (`p.l − 1e-9 ≤ p ≤ p.u + 1e-9`);
//!   labels agree with the naive run whenever the exact probability is
//!   farther than `1e-9` from the decision thresholds `P` and `P − Δ`.
//!   `proptest_kernels.rs` pins all of this.

use cpnn_pdf::integrate::{gauss_legendre, Gl16, GlOrder};

use crate::classify::Label;
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
    /// Gathered integrand coefficients: competitor cdf values at `e_j`
    /// (for a 1-NN column pass, the *settled* competitors only).
    pub(crate) coef_cdf: Vec<f64>,
    /// Gathered integrand coefficients: competitor subregion masses.
    pub(crate) coef_mass: Vec<f64>,
    /// 1-NN column pass: cdf values at `e_j` of the pending rows — the rows
    /// whose `q_ij` the pass produces.
    pub(crate) pend_cdf: Vec<f64>,
    /// 1-NN column pass: subregion masses of the pending rows.
    pub(crate) pend_mass: Vec<f64>,
    /// 1-NN column pass: table row of each gathered pending coefficient.
    pub(crate) pend_row: Vec<usize>,
    /// 1-NN column pass: `prefix[v·16 + n]` is the product, at node `n` of
    /// the current panel, of every settled factor and of the pending
    /// factors before `v`.
    pub(crate) prefix: Vec<f64>,
    /// 1-NN column pass output: `q_ij` per gathered pending row.
    pub(crate) pend_q: Vec<f64>,
    /// The column integrals of the refine pass in progress.
    pub(crate) columns: ColumnMemo,
    /// Composite quadrature passes run so far (a running total; refinement
    /// reports the difference over a pass).
    pub(crate) quadrature_passes: usize,
    /// Refinement visit order (indices of massive subregions).
    pub(crate) regions: Vec<usize>,
}

/// Memo of the 1-NN column integrals of one refine pass.
///
/// The integrands of the rows still `Unknown` at one subregion column differ
/// by a single factor, so the first request for a column integrates it for
/// all of them at once ([`nn_qualification`]) and later requests are a load.
/// The memo describes one table and one `Unknown` set:
/// [`crate::refine::incremental_refine_with`] opens it when it meets the
/// first `Unknown` row and closes it when the pass ends, and
/// [`crate::verifiers::VerificationState::reset`] closes it too, so a stale
/// column can never answer for another table.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnMemo {
    /// Row → memo slot, [`SETTLED`] for rows decided before the pass began.
    /// Empty while no pass is open.
    slot: Vec<usize>,
    /// Number of pending rows (memo slots).
    pending: usize,
    /// `q[j·pending + slot]`, meaningful where `done[j]` and the row has
    /// mass in column `j`. Grows to a high-water mark; never shrunk.
    q: Vec<f64>,
    /// Which columns have been integrated in this pass.
    done: Vec<bool>,
}

/// [`ColumnMemo::slot`] of a row that was decided before refinement began.
const SETTLED: usize = usize::MAX;

impl ColumnMemo {
    /// Open the memo for a refine pass over a table with `left_regions`
    /// columns: the rows `Unknown` in `labels` are the pending ones.
    pub(crate) fn open(&mut self, labels: &[Label], left_regions: usize) {
        self.slot.clear();
        self.pending = 0;
        for &label in labels {
            if label == Label::Unknown {
                self.slot.push(self.pending);
                self.pending += 1;
            } else {
                self.slot.push(SETTLED);
            }
        }
        let cells = self.pending * left_regions;
        if self.q.len() < cells {
            self.q.resize(cells, 0.0);
        }
        self.done.clear();
        self.done.resize(left_regions, false);
    }

    /// Close the memo: until the next [`Self::open`] every request is
    /// integrated on its own.
    pub(crate) fn close(&mut self) {
        self.slot.clear();
    }

    /// Memo slot of row `i` if a pass over a table of `table`'s shape is
    /// open and the row is pending in it.
    fn slot_of(&self, table: &SubregionTable, i: usize) -> Option<usize> {
        let open = self.slot.len() == table.n_objects() && self.done.len() == table.left_regions();
        let slot = *self.slot.get(i)?;
        (open && slot != SETTLED).then_some(slot)
    }
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

/// The 1-NN qualification integrand `q_ij = ∫₀¹ Π_{k≠i} (1 − a_k − t·s_kj) dt`
/// ([`crate::exact::subregion_qualification`] is the naive form), computed
/// per *column*: one composite Gauss–Legendre pass at column `j` yields the
/// integral for every pending row (`column_pass`).
///
/// Inside a refine pass (`ColumnMemo`) the pending rows are the ones that
/// were `Unknown` when it began: the first request for a column integrates
/// it for all of them and memoises the results, later requests load. Any
/// other call — no pass open, or a row the pass does not cover — is the
/// one-pending-row case of the same kernel, whose multiplication order
/// coincides with the naive expression tree. Zero allocations once warm.
pub fn nn_qualification(
    table: &SubregionTable,
    i: usize,
    j: usize,
    scr: &mut KernelScratch,
) -> f64 {
    let cdf = table.cdf_col(j);
    let mass = table.mass_col(j);
    // A competitor whose factor is identically 1 on this subregion is left
    // out of the product; a row without mass here never asks the memo.
    let active = |k: usize| cdf[k] > 0.0 || mass[k] > MASS_EPS;
    let memo_slot = scr.columns.slot_of(table, i).filter(|_| active(i));
    if let Some(slot) = memo_slot {
        if scr.columns.done[j] {
            return scr.columns.q[j * scr.columns.pending + slot];
        }
    }
    scr.coef_cdf.clear();
    scr.coef_mass.clear();
    scr.pend_cdf.clear();
    scr.pend_mass.clear();
    scr.pend_row.clear();
    for k in 0..cdf.len() {
        let pending = match memo_slot {
            Some(_) => scr.columns.slot[k] != SETTLED && active(k),
            None => k == i,
        };
        if pending {
            scr.pend_cdf.push(cdf[k]);
            scr.pend_mass.push(mass[k]);
            scr.pend_row.push(k);
        } else if active(k) {
            scr.coef_cdf.push(cdf[k]);
            scr.coef_mass.push(mass[k]);
        }
    }
    column_pass(scr);
    let Some(slot) = memo_slot else {
        return scr.pend_q[0];
    };
    let memo = &mut scr.columns;
    let column = &mut memo.q[j * memo.pending..][..memo.pending];
    for (&k, &q) in scr.pend_row.iter().zip(&scr.pend_q) {
        column[memo.slot[k]] = q;
    }
    memo.done[j] = true;
    column[slot]
}

/// Nodes of one Gauss–Legendre panel, evaluated side by side.
const NODES: usize = 16;

/// `(1 − a − t·s)⁺` at every node of a panel, multiplied into `run`.
#[inline]
fn fold_factor(run: &mut [f64; NODES], nodes: &[f64; NODES], a: f64, s: f64) {
    for (r, &t) in run.iter_mut().zip(nodes) {
        *r *= (1.0 - a - t * s).max(0.0);
    }
}

/// One composite GL-16 pass over a subregion column: for every pending row
/// `v` (coefficients in `pend_cdf`/`pend_mass`), integrate the product of
/// all *other* factors — the settled competitors (`coef_cdf`/`coef_mass`)
/// and the other pending rows — into `pend_q[v]`.
///
/// Per panel the settled factors are multiplied once per node, and each
/// pending row's exclude-one product is `prefix_v · suffix_v` from one
/// forward and one backward sweep over the pending rows. The 16 nodes of a
/// panel advance together — factors in the outer loop, a `[f64; 16]` of
/// running products in the inner one — so the multiply chains are
/// independent of one another and the loop pipelines and vectorises.
///
/// Same rule as the naive integrand: `⌈competitors / 24⌉` panels of the
/// 16-point rule, factors floored at 0, result clamped to `[0, 1]`.
fn column_pass(scr: &mut KernelScratch) {
    scr.quadrature_passes += 1;
    let pending = scr.pend_cdf.len();
    let competitors = scr.coef_cdf.len() + pending - 1;
    scr.pend_q.clear();
    scr.pend_q.resize(pending, 0.0);
    if competitors == 0 {
        scr.pend_q[0] = 1.0;
        return;
    }
    if scr.prefix.len() < pending * NODES {
        scr.prefix.resize(pending * NODES, 0.0);
    }
    let panels = competitors.div_ceil(24);
    let w = 1.0 / panels as f64;
    for p in 0..panels {
        let a = p as f64 * w;
        let rule = Gl16::new(a, a + w);
        let mut run = [1.0; NODES];
        for (&a_k, &s_k) in scr.coef_cdf.iter().zip(&scr.coef_mass) {
            fold_factor(&mut run, &rule.nodes, a_k, s_k);
        }
        let rows = scr.pend_cdf.iter().zip(&scr.pend_mass);
        for ((&a_v, &s_v), prefix) in rows.clone().zip(scr.prefix.chunks_exact_mut(NODES)) {
            prefix.copy_from_slice(&run);
            fold_factor(&mut run, &rule.nodes, a_v, s_v);
        }
        let mut suffix = [1.0; NODES];
        let mut values = [0.0; NODES];
        let sweep = rows
            .zip(scr.prefix[..pending * NODES].chunks_exact(NODES))
            .zip(&mut scr.pend_q);
        for (((&a_v, &s_v), prefix), q) in sweep.rev() {
            for ((value, &pre), &suf) in values.iter_mut().zip(prefix).zip(&suffix) {
                *value = pre * suf;
            }
            *q += rule.integrate(&values);
            fold_factor(&mut suffix, &rule.nodes, a_v, s_v);
        }
    }
    for q in &mut scr.pend_q {
        *q = q.clamp(0.0, 1.0);
    }
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
    scr.quadrature_passes += 1;
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
    use crate::refine::{incremental_refine, RefinementOrder};
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

    /// A direct call with a default scratch is the one-pending-row case of
    /// the column kernel, which multiplies in the naive order — on a small
    /// table and on one crowded enough for several panels.
    #[test]
    fn nn_qualification_matches_naive_bitwise() {
        for table in [
            SubregionTable::build(&fig7_scenario().0),
            overlapping_histograms(130),
        ] {
            let mut scr = KernelScratch::default();
            for i in 0..table.n_objects() {
                for j in 0..table.left_regions() {
                    let got = nn_qualification(&table, i, j, &mut scr);
                    let want = subregion_qualification(&table, i, j);
                    assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    /// Inside an open pass the first request for a column integrates it for
    /// every pending row; a settled row is served on its own and leaves the
    /// memo alone.
    #[test]
    fn open_pass_integrates_each_column_once_for_all_pending_rows() {
        let table = overlapping_histograms(40);
        let labels: Vec<Label> = (0..table.n_objects())
            .map(|i| {
                if i % 3 == 0 {
                    Label::Fail
                } else {
                    Label::Unknown
                }
            })
            .collect();
        let mut scr = KernelScratch::default();
        scr.columns.open(&labels, table.left_regions());
        let mut columns = std::collections::BTreeSet::new();
        for (i, &label) in labels.iter().enumerate() {
            for j in 0..table.left_regions() {
                if label == Label::Unknown && table.mass(i, j) > MASS_EPS {
                    columns.insert(j);
                    let got = nn_qualification(&table, i, j, &mut scr);
                    let want = subregion_qualification(&table, i, j);
                    assert!((got - want).abs() <= 1e-12, "({i},{j}): {got} vs {want}");
                }
            }
        }
        assert!(columns.len() > 1);
        assert_eq!(scr.quadrature_passes, columns.len());
        let j = *columns.first().unwrap();
        let settled = nn_qualification(&table, 0, j, &mut scr);
        assert_eq!(
            settled.to_bits(),
            subregion_qualification(&table, 0, j).to_bits()
        );
        assert_eq!(scr.quadrature_passes, columns.len() + 1);
        let again = nn_qualification(&table, 1, j, &mut scr);
        assert!((again - subregion_qualification(&table, 1, j)).abs() <= 1e-12);
        assert_eq!(scr.quadrature_passes, columns.len() + 1, "memo hit");
    }

    /// One state reused over different tables back to back (large, then
    /// smaller, then larger) ends bit-identical to a fresh state per table:
    /// no column memoised for one table can answer for the next.
    #[test]
    fn reused_state_over_different_tables_matches_fresh_states() {
        let chain = default_verifiers();
        let mut stages = Vec::new();
        let mut reused = VerificationState::default();
        for n in [40, 12, 60] {
            let table = overlapping_histograms(n);
            let classifier = Classifier::new(1.0 / n as f64, 0.0).unwrap();
            let mut fresh = VerificationState::new(&table);
            reused.reset(&table);
            let mut reports = Vec::new();
            for state in [&mut reused, &mut fresh] {
                run_verification_into(&table, &classifier, &chain, state, &mut stages);
                reports.push(incremental_refine(
                    &table,
                    &classifier,
                    state,
                    RefinementOrder::default(),
                ));
            }
            assert_eq!(reports[0], reports[1], "n = {n}");
            assert!(
                reports[0].column_passes < reports[0].integrations,
                "n = {n}: no column was shared ({:?})",
                reports[0]
            );
            // The pass is closed: a direct call through the same scratch
            // integrates on its own instead of loading the pass's memo.
            // (`j`: the row's heaviest subregion, which the pass visited.)
            let i = reports[0].per_object.iter().position(|&c| c > 0).unwrap();
            let j = (0..table.left_regions())
                .max_by(|&a, &b| table.mass(i, a).total_cmp(&table.mass(i, b)))
                .unwrap();
            let passes = reused.kernel.quadrature_passes;
            let direct = nn_qualification(&table, i, j, &mut reused.kernel);
            assert_eq!(
                direct.to_bits(),
                subregion_qualification(&table, i, j).to_bits()
            );
            assert_eq!(reused.kernel.quadrature_passes, passes + 1, "n = {n}");
            assert_eq!(reused.labels, fresh.labels, "n = {n}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused.qij_lo), bits(&fresh.qij_lo), "n = {n}");
            assert_eq!(bits(&reused.qij_hi), bits(&fresh.qij_hi), "n = {n}");
            for (r, f) in reused.bounds.iter().zip(&fresh.bounds) {
                assert_eq!(r.lo().to_bits(), f.lo().to_bits(), "n = {n}");
                assert_eq!(r.hi().to_bits(), f.hi().to_bits(), "n = {n}");
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
