//! Verification kernels over the row-major [`SubregionTable`].
//!
//! The 1-NN subregion verifiers (U-SR, L-SR) share one table of
//! exclude-one survival products (`OpenProducts`), built on first use per
//! query for the rows RS left `Unknown` only; each verifier then walks such
//! a row's products, its [`SubregionTable::mass_row`] and its `q_ij` row side
//! by side. The products cost `O(|C|·M)` once per query, the bound updates
//! `O(open·M)` per verifier. Readers that need an end-point column — the
//! SR-k sweep, the refine integrands — gather it. Every primitive has one
//! safe scalar form (no dispatch) and writes into **reusable** buffers
//! ([`KernelScratch`]), so the hot path performs zero heap allocations once
//! warm.
//!
//! Determinism contract, in three parts.
//!
//! * **1-NN verifier stages and the k-NN refine integrand**
//!   ([`knn_qualification`]) evaluate *exactly* the same floating-point
//!   expression sequence as their naive counterparts (retained in
//!   [`crate::verifiers::reference`],
//!   [`crate::knn::knn_subregion_qualification`] and as naive loops in this
//!   module's tests): bit-identical to them, and so across the kernel,
//!   cached, sharded, and batched paths. For the survival products that
//!   holds per end-point column: the open-row sweeps multiply each column's
//!   factors in the order of the reference's prefix/suffix chain.
//! * **The 1-NN refine integrand** ([`nn_qualification`]) shares one
//!   quadrature pass among all rows still `Unknown`, so a `q_ij` multiplies
//!   its factors in a different order than the naive expression tree
//!   ([`crate::exact::subregion_qualification`], the independent oracle). It
//!   is bit-identical *across execution modes* (same table and same
//!   `Unknown` set ⇒ same bits), within `1e-12` of the naive integrand, and
//!   *sound* against the exact oracle (`p.l − 1e-9 ≤ p ≤ p.u + 1e-9`);
//!   labels agree with the naive run whenever the exact probability is
//!   farther than `1e-9` from the decision thresholds `P` and `P − Δ`.
//! * **The k-NN subregion verifier** (`sr_k_pass`, run by
//!   [`crate::knn::KnnSubregion`] on a coarse partition and then on the
//!   table itself) stops an object at the first stage whose bound decides
//!   it, so the bound an object ends with depends on where it stopped. It is
//!   bit-identical *across execution modes* (same table and classifier ⇒
//!   same bits) and *sound* against the naive
//!   [`crate::knn::knn_probabilities`] (`p.l − 1e-9 ≤ p ≤ p.u + 1e-9`,
//!   labels as Definition 1 allows). Against the naive fine-partition
//!   verifier ([`crate::verifiers::reference::reference_knn_verifiers`]): an
//!   object that reaches the fine stage ends within `1e-12` of its bounds
//!   with the same label; one decided on the coarse partition has bounds
//!   that contain them. And it is *monotone*: the fine stage never loosens a
//!   cell or a bound the coarse one left, and coarse bounds contain
//!   fine-only bounds.
//!
//! `proptest_kernels.rs` pins all of this.

use cpnn_pdf::integrate::{gauss_legendre, Gl16, GlOrder};

use crate::classify::Label;
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::VerificationState;

/// Reusable kernel buffers, threaded through the pipeline inside
/// [`crate::verifiers::VerificationState`] (and hence per-query scratch).
///
/// Buffers grow to the high-water mark of the tables they meet and are
/// reused thereafter; `Default` starts empty. Every kernel entry point
/// resizes what it needs, so no explicit reset is required between queries.
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    /// The exclude-one survival products of the rows RS left open, shared
    /// by U-SR and L-SR.
    pub(crate) open: OpenProducts,
    /// L-SR: `1 / c_j` per left subregion.
    pub(crate) inv_counts: Vec<f64>,
    /// SR-k: the gathered cdf column of the end-point before the visited
    /// one. The three column buffers rotate as the sweep advances, so each
    /// visited column is gathered once.
    pub(crate) col_below: Vec<f64>,
    /// SR-k: the gathered cdf column of the visited end-point.
    pub(crate) col_here: Vec<f64>,
    /// SR-k: the gathered cdf column of the next visited end-point.
    pub(crate) col_above: Vec<f64>,
    /// DP buffer of the k-NN integrand's Poisson-binomial tail.
    pub(crate) dp_spare: Vec<f64>,
    /// SR-k: `(row, cdf)` of the factors with `0 < cdf < 1` at the end-point
    /// being visited, in row order.
    pub(crate) straddlers: Vec<(usize, f64)>,
    /// SR-k: Poisson-binomial states over the first `t` straddlers, one row
    /// per `t` (`straddler_states`).
    pub(crate) pb_prefix: Vec<f64>,
    /// SR-k: cumulative states over the straddlers from `t` on.
    pub(crate) pb_suffix: Vec<f64>,
    /// SR-k: the rows still `Unknown` when the sweep began, each with its
    /// running Eq. 4 sums.
    pub(crate) sr_rows: Vec<SrRow>,
    /// Poisson-binomial tails the SR-k sweeps evaluated so far (a running
    /// total, like [`Self::quadrature_passes`]).
    pub(crate) pb_tails: usize,
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

/// The exclude-one survival products `Π_{k≠i} (1 − D_k(e_j))` at every
/// end-point `j ∈ 0..=L` of the rows still `Unknown` when the first 1-NN
/// subregion verifier of a query runs — the rows RS left *open*.
///
/// Built on first use after [`crate::verifiers::VerificationState::reset`]
/// (by U-SR) and reused by every later verifier of the chain: U-SR and
/// L-SR serve only rows still `Unknown`, a subset of the open ones. Two sweeps
/// over the cdf rows advance all `L + 1` column products side by side:
///
/// * forward over rows `0..=last_open`, `run[j] *= 1 − D_k(e_j)`, copying
///   `run` into an open row's slot before its own factor — its prefix;
/// * backward over rows `first_open..n`, the same update from a fresh
///   `run`, multiplied into an open row's slot before its own factor — its
///   suffix.
///
/// Per column that is the multiplication sequence of the prefix/suffix
/// chain of [`crate::verifiers::ExcludeOneProduct`] (a product of two
/// floats does not depend on their order), so every entry is the
/// reference's `prefix[i]·suffix[i+1]` bit for bit. With at most `|C|` rows
/// the table is never larger than the cdf table it is read from.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpenProducts {
    /// The open rows, ascending.
    rows: Vec<usize>,
    /// `products[r·(L+1) + j]`: the product of the `r`-th open row at `e_j`.
    products: Vec<f64>,
    /// The running column products of the sweep in progress.
    run: Vec<f64>,
    /// Whether `rows` and `products` describe the current query.
    ready: bool,
}

impl OpenProducts {
    /// Forget the current query: the next [`Self::get`] builds afresh.
    pub(crate) fn invalidate(&mut self) {
        self.ready = false;
    }

    /// Every open row `i` of `table` with its products at `e_0 … e_L`, the
    /// open rows being those `Unknown` in `labels` on the first call since
    /// [`Self::invalidate`]. Builds nothing when no row is open.
    pub(crate) fn get(
        &mut self,
        table: &SubregionTable,
        labels: &[Label],
    ) -> impl Iterator<Item = (usize, &[f64])> + '_ {
        if !self.ready {
            self.build(table, labels);
        }
        let cols = table.left_regions() + 1;
        self.rows
            .iter()
            .copied()
            .zip(self.products.chunks_exact(cols))
    }

    fn build(&mut self, table: &SubregionTable, labels: &[Label]) {
        self.ready = true;
        self.rows.clear();
        let open = labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == Label::Unknown);
        self.rows.extend(open.map(|(i, _)| i));
        let (Some(&first), Some(&last)) = (self.rows.first(), self.rows.last()) else {
            return;
        };
        let cols = table.left_regions() + 1;
        self.products.clear();
        self.products.resize(self.rows.len() * cols, 0.0);

        self.run.clear();
        self.run.resize(cols, 1.0);
        let mut slots = self
            .rows
            .iter()
            .zip(self.products.chunks_exact_mut(cols))
            .peekable();
        for k in 0..=last {
            if let Some((_, prefix)) = slots.next_if(|&(&i, _)| i == k) {
                prefix.copy_from_slice(&self.run);
            }
            if k < last {
                fold_survival(&mut self.run, table.cdf_row(k));
            }
        }

        self.run.fill(1.0);
        let mut slots = self
            .rows
            .iter()
            .zip(self.products.chunks_exact_mut(cols))
            .rev()
            .peekable();
        for k in (first..table.n_objects()).rev() {
            if let Some((_, product)) = slots.next_if(|&(&i, _)| i == k) {
                for (p, &r) in product.iter_mut().zip(&self.run) {
                    *p *= r;
                }
            }
            if k > first {
                fold_survival(&mut self.run, table.cdf_row(k));
            }
        }
    }
}

/// Multiply one row's survival factors `1 − D_k(e_j)` into the running
/// column products, all end-points side by side.
#[inline]
fn fold_survival(run: &mut [f64], cdf_row: &[f64]) {
    for (r, &c) in run.iter_mut().zip(cdf_row) {
        *r *= 1.0 - c;
    }
}

/// Gather end-point column `j` of the cdf table, `D_·(e_j)`, into `out`.
fn gather_cdf_column(table: &SubregionTable, j: usize, out: &mut Vec<f64>) {
    out.clear();
    out.extend((0..table.n_objects()).map(|i| table.cdf_at(i, j)));
}

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

/// [`pb_row_update`] out of place: `dst` is the state `src` after one more
/// factor `p` (same expression per entry).
#[inline]
fn pb_row_from(dst: &mut [f64], src: &[f64], p: f64) {
    let mut below = 0.0;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s * (1.0 - p) + below * p;
        below = s;
    }
}

/// A row an SR-k sweep serves — `Unknown` when the sweep began — and its
/// Eq. 4 sums on the sweep's partition so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrRow {
    row: usize,
    lo: f64,
    hi: f64,
}

/// The Poisson-binomial states of one end-point column, reduced to the
/// factors that can change them. The *straddlers* — factors with
/// `0 < p < 1` — are gathered in row order, `(row, p)`; with `m` of them and
/// `w = limit + 1` counts kept (overflow absorbed),
///
/// * `prefix[t·w + c] = Pr[exactly c of the first t straddlers occur]`,
/// * `suffix[t·w + c] = Pr[at most c of the straddlers from t on occur]`
///   (row `m` is all ones),
///
/// for `t ∈ 0..=m`, and the returned count is that of the certain factors
/// (`p ≥ 1`). Both tables take one [`pb_row_from`] per straddler (the update
/// is linear, so it carries cumulative sums as it carries counts).
///
/// Eliding the other factors is exact, not approximate. A row update with
/// `p = 0` computes `dp[c]·1 + dp[c−1]·0 = dp[c]`, and one with `p = 1`
/// computes `dp[c]·0 + dp[c−1]·1 = dp[c−1]` — an identity and a shift by one
/// count, both without rounding — and the shift commutes with every other
/// update (both orders read `dp[c−1]·(1−p) + dp[c−2]·p`). The states over
/// the whole column are these shifted up by the certain factors, entry for
/// entry, so only the *number* of certain factors is needed ([`sr_k_tail`]).
fn straddler_states(
    prefix: &mut Vec<f64>,
    suffix: &mut Vec<f64>,
    straddlers: &mut Vec<(usize, f64)>,
    probs: &[f64],
    limit: usize,
) -> usize {
    straddlers.clear();
    let mut ones = 0;
    for (row, &raw) in probs.iter().enumerate() {
        let p = raw.clamp(0.0, 1.0);
        if p >= 1.0 {
            ones += 1;
        } else if p > 0.0 {
            straddlers.push((row, p));
        }
    }
    let w = limit + 1;
    let m = straddlers.len();
    // Grown to a high-water mark, never cleared: every row read below is
    // written first.
    for table in [&mut *prefix, &mut *suffix] {
        if table.len() < (m + 1) * w {
            table.resize((m + 1) * w, 0.0);
        }
    }
    prefix[..w].fill(0.0);
    prefix[0] = 1.0;
    suffix[m * w..(m + 1) * w].fill(1.0);
    for (t, &(_, p)) in straddlers.iter().enumerate() {
        let (done, rest) = prefix.split_at_mut((t + 1) * w);
        pb_row_from(&mut rest[..w], &done[t * w..], p);
    }
    for (t, &(_, p)) in straddlers.iter().enumerate().rev() {
        let (rest, done) = suffix.split_at_mut((t + 1) * w);
        pb_row_from(&mut rest[t * w..], &done[..w], p);
    }
    ones
}

/// `T = Pr[at most limit of the column's events occur, one row's own left
/// out]` from the column's [`straddler_states`]: `at` is the row's position
/// among the `m` straddlers if it is one, `ones` the number of certain
/// factors among the *other* rows, `w = limit + 1`.
///
/// The certain factors use up `ones` of the `limit` counts (`T = 0` when
/// there are more); the other straddlers — the `at` before the row and those
/// after it — may take the rest between them:
/// `T = Σ_a prefix[at][a] · suffix[at + 1][limit − ones − a]`. A row that is
/// not a straddler leaves nothing out: the same sum with all `m` before it.
/// Every term is a product of probabilities, so unlike dividing the row's
/// factor back out of the full state — which multiplies rounding error by
/// `p / (1 − p)` per count — the relative error stays at a few ulps per
/// straddler for any `p`.
fn sr_k_tail(
    prefix: &[f64],
    suffix: &[f64],
    w: usize,
    m: usize,
    at: Option<usize>,
    ones: usize,
) -> f64 {
    let Some(top) = (w - 1).checked_sub(ones) else {
        return 0.0;
    };
    let (before, after) = at.map_or((m, m), |t| (t, t + 1));
    let exactly = &prefix[before * w..][..=top];
    let at_most = &suffix[after * w..][..=top];
    let mut tail = 0.0;
    for (a, b) in exactly.iter().zip(at_most.iter().rev()) {
        tail += a * b;
    }
    tail.min(1.0)
}

/// One SR-k sweep over every `stride`-th end-point (and the last): the
/// L-SR-k / U-SR-k bounds of [`crate::knn::KnnSubregion`] for the rows still
/// `Unknown`, on the partition whose groups are the runs of `stride` columns
/// between visited end-points. `stride = 1` is the subregion table itself.
///
/// `T_i(e) = PB_{≤ k−1}({D_m(e)}_{m ≠ i})` is the probability that at most
/// `k − 1` others lie below `e`. It is non-increasing in `e` (every `D_m`
/// is a cdf), so for a group of columns `[e_a, e_b]` and any `R_i` inside
/// it, `T_i(e_b) ≤ Pr[X_i among the k nearest | R_i] ≤ T_i(e_a)`: the
/// group's end-point tails bound `q_ij` for every column `j` inside the
/// group, and with the group's mass `D_i(e_b) − D_i(e_a)` (the sum of its
/// columns' `s_ij`) Eq. 4 reads `p_i.l = Σ_groups T_i(e_b)·mass` and
/// `p_i.u = Σ_groups T_i(e_a)·mass`. A coarser partition is therefore
/// sound, only looser, and each visited end-point yields **one** tail per
/// row that serves two groups — `q.u` of the group on its right, `q.l` of
/// the group on its left.
///
/// Per visited end-point: a row asks for a tail only if one of the two
/// groups holds more than [`MASS_EPS`] of its mass (the convention of U-SR
/// and L-SR: a group below it keeps `[0, 1]`), read off the three cdf
/// columns involved — each gathered from the row-major table once per
/// sweep, into buffers that rotate as it advances; the column's states are
/// built once, over the
/// straddlers only ([`straddler_states`]), and only if some row asks. When
/// the groups are single columns the tails are the `q_ij` bounds refinement
/// reuses, so they are also recorded in the cells (`max`/`min`, like the
/// object bounds: a later, finer sweep never loosens what is there). Zero
/// allocations once warm.
pub(crate) fn sr_k_pass(
    table: &SubregionTable,
    state: &mut VerificationState,
    k: usize,
    stride: usize,
) {
    let n = table.n_objects();
    let l = table.left_regions();
    if n == 0 || l == 0 {
        return;
    }
    if k >= n {
        // Fewer competitors than slots: membership is certain wherever
        // the object has mass below the horizon.
        state.open_cells(table);
        for i in 0..n {
            if state.labels[i] != Label::Unknown {
                continue;
            }
            state.qij_lo[i * l..(i + 1) * l].fill(1.0);
            state.qij_hi[i * l..(i + 1) * l].fill(1.0);
            state.recompute_lower(table, i);
            state.recompute_upper(table, i);
        }
        return;
    }
    let w = k.max(1);
    let stride = stride.max(1);
    if stride == 1 {
        // Only the table itself records `q_ij` cells.
        state.open_cells(table);
    }
    let KernelScratch {
        pb_prefix,
        pb_suffix,
        straddlers,
        sr_rows,
        pb_tails,
        col_below,
        col_here,
        col_above,
        ..
    } = &mut state.kernel;
    sr_rows.clear();
    for (row, &label) in state.labels.iter().enumerate() {
        if label == Label::Unknown {
            sr_rows.push(SrRow {
                row,
                lo: 0.0,
                hi: 0.0,
            });
        }
    }

    // The group end-points around `e`: `below` (= `e` at the first) and
    // `next` (= `e` at the last), their cdf columns gathered once each.
    let (mut e, mut next) = (0, stride.min(l));
    gather_cdf_column(table, 0, col_below);
    gather_cdf_column(table, 0, col_here);
    gather_cdf_column(table, next, col_above);
    loop {
        let (below, probs, above) = (&col_below[..], &col_here[..], &col_above[..]);
        // The column's states, built by the first row that asks for a tail
        // here (if any does), and the merge position of the served rows —
        // both ascending — in its straddler list.
        let mut ones = None;
        let mut cursor = 0;
        for r in sr_rows.iter_mut() {
            let i = r.row;
            // Mass of the groups on the left and right of `e` (none before
            // the first end-point, none after the last).
            let left = (probs[i] - below[i]).max(0.0);
            let right = (above[i] - probs[i]).max(0.0);
            if left <= MASS_EPS && right <= MASS_EPS {
                r.hi += right; // below the gate `q.u` stays 1
                continue;
            }
            let ones = *ones.get_or_insert_with(|| {
                straddler_states(pb_prefix, pb_suffix, straddlers, probs, w - 1)
            });
            while straddlers.get(cursor).is_some_and(|s| s.0 < i) {
                cursor += 1;
            }
            let at = straddlers.get(cursor).is_some_and(|s| s.0 == i);
            *pb_tails += 1;
            let tail = sr_k_tail(
                pb_prefix,
                pb_suffix,
                w,
                straddlers.len(),
                at.then_some(cursor),
                ones - usize::from(probs[i] >= 1.0),
            );
            if left > MASS_EPS {
                r.lo += tail * left;
                if stride == 1 {
                    let cell = &mut state.qij_lo[i * l + e - 1];
                    *cell = cell.max(tail);
                }
            }
            if right > MASS_EPS {
                r.hi += tail * right;
                if stride == 1 {
                    let cell = &mut state.qij_hi[i * l + e];
                    *cell = cell.min(tail);
                }
            } else {
                r.hi += right; // below the gate `q.u` stays 1
            }
        }
        if e == l {
            break;
        }
        (e, next) = (next, (next + stride).min(l));
        std::mem::swap(col_below, col_here);
        std::mem::swap(col_here, col_above);
        gather_cdf_column(table, next, col_above);
    }

    for r in sr_rows.iter() {
        state.bounds[r.row].raise_lo(r.lo);
        state.bounds[r.row].lower_hi(r.hi);
    }
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
    // A competitor whose factor is identically 1 on this subregion is left
    // out of the product; a row without mass here never asks the memo.
    let active = |cdf: f64, mass: f64| cdf > 0.0 || mass > MASS_EPS;
    let memo_slot = scr
        .columns
        .slot_of(table, i)
        .filter(|_| active(table.cdf_at(i, j), table.mass(i, j)));
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
    for k in 0..table.n_objects() {
        let (cdf, mass) = (table.cdf_at(k, j), table.mass(k, j));
        let pending = match memo_slot {
            Some(_) => scr.columns.slot[k] != SETTLED && active(cdf, mass),
            None => k == i,
        };
        if pending {
            scr.pend_cdf.push(cdf);
            scr.pend_mass.push(mass);
            scr.pend_row.push(k);
        } else if active(cdf, mass) {
            scr.coef_cdf.push(cdf);
            scr.coef_mass.push(mass);
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
    scr.coef_cdf.clear();
    scr.coef_mass.clear();
    for kk in 0..n {
        if kk == i {
            continue;
        }
        scr.coef_cdf.push(table.cdf_at(kk, j));
        scr.coef_mass.push(table.mass(kk, j));
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
    use crate::framework::{default_verifiers, run_verification_into};
    use crate::knn::{knn_subregion_qualification, poisson_binomial_at_most};
    use crate::object::{ObjectId, UncertainObject};
    use crate::refine::{incremental_refine, RefinementOrder};
    use crate::subregion::SubregionTable;
    use crate::testutil::fig7_scenario;
    use crate::verifiers::reference::reference_verifiers;
    use crate::verifiers::VerificationState;
    use cpnn_pdf::HistogramPdf;

    /// SR-k tails of every row of a column, from the straddler states.
    fn column_tails(probs: &[f64], k: usize) -> Vec<f64> {
        let (mut prefix, mut suffix, mut straddlers) = (Vec::new(), Vec::new(), Vec::new());
        let ones = straddler_states(&mut prefix, &mut suffix, &mut straddlers, probs, k - 1);
        (0..probs.len())
            .map(|i| {
                let at = straddlers.iter().position(|s| s.0 == i);
                let ones = ones - usize::from(probs[i] >= 1.0);
                sr_k_tail(&prefix, &suffix, k, straddlers.len(), at, ones)
            })
            .collect()
    }

    /// The naive tail over the column with row `i` skipped.
    fn naive_tail(probs: &[f64], i: usize, k: usize) -> f64 {
        let others = probs.iter().enumerate().filter(|&(m, _)| m != i);
        poisson_binomial_at_most(others.map(|(_, &p)| p), k - 1)
    }

    /// Random columns seeded with exact 0s and 1s, near-certain factors and
    /// duplicates: every row's tail agrees with the naive skip-one tail to
    /// rounding, for any own factor — nothing is divided back out.
    #[test]
    fn straddler_tails_match_the_naive_skip_one_tail() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5121);
        for case in 0..300 {
            let n = rng.gen_range(1usize..14);
            let mut probs: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0u32..8) {
                    0 | 1 => 0.0,
                    2 | 3 => 1.0,
                    4 => 1.0 - 1e-3 * rng.gen::<f64>(),
                    _ => rng.gen::<f64>(),
                })
                .collect();
            if case % 5 == 0 {
                probs[0] = probs[n - 1]; // duplicate objects
            }
            for k in [1usize, 2, 4, 8] {
                for (i, got) in column_tails(&probs, k).into_iter().enumerate() {
                    let want = naive_tail(&probs, i, k);
                    assert!(
                        (got - want).abs() <= 1e-13,
                        "row {i}, k = {k}, column {probs:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn straddler_tail_edge_cases() {
        let tail = |probs: &[f64], i: usize, k: usize| column_tails(probs, k)[i];
        // More certain competitors than slots: no chance, whatever the rest.
        assert_eq!(tail(&[0.3, 1.0, 1.0, 0.5], 0, 2), 0.0);
        assert_eq!(tail(&[0.0, 1.0, 1.0], 0, 2), 0.0);
        // Exactly k − 1 certain competitors: every straddler must miss.
        assert!((tail(&[0.0, 1.0, 0.25, 0.5], 0, 2) - 0.75 * 0.5).abs() < 1e-15);
        // The row's own certain factor is not a competitor (its cdf is 1
        // at its last end-point): one slot taken by row 2, one left.
        assert!((tail(&[1.0, 0.25, 1.0], 0, 2) - 0.75).abs() < 1e-15);
        assert_eq!(tail(&[1.0, 0.25, 1.0], 0, 3), 1.0);
        // An own factor just below 1 is left out like any other.
        let own = 0.9995;
        assert!((tail(&[own, 0.5, 0.5], 0, 2) - 0.75).abs() < 1e-15);
        assert!((tail(&[own, 0.5, 0.5, 1.0], 0, 2) - 0.25).abs() < 1e-15);
        // Duplicate objects get the same tail to rounding (their factors
        // sit at different positions of the product).
        let dup = [0.4, 0.7, 0.4, 0.1];
        assert!((tail(&dup, 0, 2) - tail(&dup, 2, 2)).abs() < 1e-15);
        // No straddlers at all, and a single row.
        assert_eq!(column_tails(&[1.0, 1.0, 1.0], 3), vec![1.0; 3]);
        assert_eq!(column_tails(&[1.0, 1.0, 1.0], 2), vec![0.0; 3]);
        assert_eq!(column_tails(&[0.0, 0.0], 1), vec![1.0; 2]);
        assert_eq!(column_tails(&[0.5], 1), vec![1.0]);
    }

    /// Dividing a row's factor back out of the full-column state — what
    /// SR-k did before the prefix/suffix states — multiplies rounding error
    /// by `p / (1 − p)` per count: with an own factor of 0.95 and `k = 8`
    /// that is `19⁷ ≈ 10⁹` ulps. The states stay at a few ulps.
    #[test]
    fn tails_stay_accurate_where_deconvolution_does_not() {
        let probs = [0.95, 0.31, 0.62, 0.18, 0.77, 0.45, 0.53, 0.29, 0.84, 0.36];
        let k = 8;
        let mut full = vec![0.0; k];
        full[0] = 1.0;
        for &p in &probs {
            pb_row_update(&mut full, p);
        }
        let (p, q) = (probs[0], 1.0 - probs[0]);
        let (mut prev, mut deconvolved) = (0.0, 0.0);
        for &d in &full {
            prev = ((d - p * prev) / q).clamp(0.0, 1.0);
            deconvolved += prev;
        }
        let want = naive_tail(&probs, 0, k);
        assert!(
            (deconvolved - want).abs() > 1e-11,
            "{deconvolved} vs {want}"
        );
        assert!((column_tails(&probs, k)[0] - want).abs() <= 1e-15);
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
            let mut refined = None;
            for state in [&mut reused, &mut fresh] {
                run_verification_into(&table, &classifier, &chain, state, &mut stages);
                refined = refined.or(state.labels.iter().position(|&l| l == Label::Unknown));
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
            // (`i`: a row the pass refined; `j`: its heaviest subregion,
            // which the pass visited first.)
            let i = refined.unwrap();
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
    /// shared interior/far edges: `n + 1` left regions.
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `got` and `want` agree bit for bit on labels, `q_ij` and bounds.
    fn assert_same_bits(got: &VerificationState, want: &VerificationState, what: &str) {
        assert_eq!(got.labels, want.labels, "{what}");
        assert_eq!(bits(&got.qij_lo), bits(&want.qij_lo), "{what}");
        assert_eq!(bits(&got.qij_hi), bits(&want.qij_hi), "{what}");
        for (g, w) in got.bounds.iter().zip(&want.bounds) {
            assert_eq!(g.lo().to_bits(), w.lo().to_bits(), "{what}");
            assert_eq!(g.hi().to_bits(), w.hi().to_bits(), "{what}");
        }
    }

    /// Run the chain and its reference chain over `table`; the two must
    /// agree bit for bit. Returns the kernel state and stage reports.
    fn chain_against_reference(
        table: &SubregionTable,
        classifier: &Classifier,
        what: &str,
    ) -> (VerificationState, Vec<crate::framework::StageReport>) {
        let mut got = VerificationState::new(table);
        let mut want = VerificationState::new(table);
        let (mut stages, mut ref_stages) = (Vec::new(), Vec::new());
        let (chain, reference) = (default_verifiers(), reference_verifiers());
        run_verification_into(table, classifier, &chain, &mut got, &mut stages);
        run_verification_into(table, classifier, &reference, &mut want, &mut ref_stages);
        assert_same_bits(&got, &want, what);
        (got, stages)
    }

    /// The open-row products against the reference chain, bitwise, on
    /// tables of 89 and 130 rows. U-SR decides some open rows before L-SR
    /// runs: L-SR reuses the table U-SR built (its rows are still RS's open
    /// set) and skips the decided rows. (At `P = 1/130` U-SR decides all
    /// 130 rows, hence the lower threshold there.)
    #[test]
    fn open_row_products_match_reference_bitwise() {
        for (n, threshold) in [(89, 1.0 / 89.0), (130, 0.5 / 130.0)] {
            let table = overlapping_histograms(n);
            assert_eq!(table.n_objects(), n);
            let classifier = Classifier::new(threshold, 0.0).unwrap();
            let (state, stages) = chain_against_reference(&table, &classifier, &format!("n = {n}"));
            let (after_rs, before_lsr) = (stages[0].unknown_after, stages[1].unknown_after);
            assert!(
                0 < before_lsr && before_lsr < after_rs,
                "n = {n}: L-SR ran ungated ({after_rs} open, {before_lsr} left)"
            );
            assert_eq!(stages[2].name, "L-SR");
            assert_eq!(state.kernel.open.rows.len(), after_rs, "n = {n}: rebuilt");
        }
    }

    /// Each open row's products at every end-point are the two-pass
    /// exclude-one chain over that column's survival factors, bit for bit,
    /// whatever rows are open.
    #[test]
    fn open_products_match_exclude_one_chain_bitwise() {
        let table = overlapping_histograms(23);
        let (n, l) = (table.n_objects(), table.left_regions());
        for open in [
            vec![0, 1, 2],
            vec![n - 1],
            vec![3, 9, 10, 17],
            (0..n).collect(),
        ] {
            let labels: Vec<Label> = (0..n)
                .map(|i| match open.contains(&i) {
                    true => Label::Unknown,
                    false => Label::Fail,
                })
                .collect();
            let mut products = OpenProducts::default();
            let rows: Vec<(usize, Vec<f64>)> = products
                .get(&table, &labels)
                .map(|(i, p)| (i, p.to_vec()))
                .collect();
            assert_eq!(rows.iter().map(|r| r.0).collect::<Vec<_>>(), open);
            for j in 0..=l {
                let factors: Vec<f64> = (0..n).map(|k| 1.0 - table.cdf_at(k, j)).collect();
                let chain = crate::verifiers::ExcludeOneProduct::new(&factors);
                for (i, p) in &rows {
                    assert_eq!(p[j].to_bits(), chain.excluding(*i).to_bits(), "({i},{j})");
                }
            }
        }
    }

    /// RS fails the first, a middle and the last row (their mass lies far
    /// beyond `fmin`), so the open set is not contiguous and neither sweep
    /// may cover all rows: the forward one stops at the last open row, the
    /// backward one at the first.
    #[test]
    fn open_rows_with_gaps_at_both_ends_match_reference_bitwise() {
        let mut objects = vec![
            UncertainObject::uniform(ObjectId(100), 0.5, 200.0).unwrap(),
            UncertainObject::uniform(ObjectId(101), 1.35, 250.0).unwrap(),
            UncertainObject::uniform(ObjectId(102), 9.5, 300.0).unwrap(),
        ];
        objects.extend((0..8).map(|i| {
            let lo = 1.0 + 0.1 * i as f64;
            UncertainObject::uniform(ObjectId(i), lo, lo + 9.0).unwrap()
        }));
        let table = SubregionTable::build(&CandidateSet::build(&objects, 0.0, 0).unwrap());
        let n = table.n_objects();
        let classifier = Classifier::new(0.1, 0.0).unwrap();
        let (state, stages) = chain_against_reference(&table, &classifier, "gaps");
        let rows = &state.kernel.open.rows;
        assert_eq!(rows.len(), stages[0].unknown_after);
        assert!(rows[0] > 0 && rows[rows.len() - 1] < n - 1, "{rows:?}");
        assert!(rows.windows(2).any(|w| w[1] > w[0] + 1), "{rows:?}");
    }

    /// When RS decides every row the chain stops before U-SR, and a
    /// subregion verifier applied anyway finds no open row: no product is
    /// ever built, and no `q_ij` cell written until a stage reads one.
    #[test]
    fn no_products_are_built_when_rs_decides_every_row() {
        let table = SubregionTable::build(&fig7_scenario().0);
        let classifier = Classifier::new(0.3, 1.0).unwrap();
        let (mut state, stages) = chain_against_reference(&table, &classifier, "RS only");
        assert_eq!(stages.len(), 1);
        assert_eq!(state.unknown_count(), 0);
        assert!(state.qij_lo.is_empty() && state.qij_hi.is_empty());
        let (labels, bounds) = (state.labels.clone(), state.bounds.clone());
        for v in default_verifiers() {
            v.apply(&table, &mut state);
        }
        assert_eq!(state.labels, labels);
        assert_eq!(state.bounds, bounds, "decided rows stay untouched");
        let cells = table.n_objects() * table.left_regions();
        assert_eq!(state.qij_lo, vec![0.0; cells]);
        assert_eq!(state.qij_hi, vec![1.0; cells]);
        assert!(state.kernel.open.rows.is_empty());
        assert_eq!(state.kernel.open.products.capacity(), 0);
    }

    #[test]
    fn scratch_buffers_are_reused_not_reallocated() {
        let (_, objects) = fig7_scenario();
        let cands = CandidateSet::build_k(&objects, 0.0, 0, 2).unwrap();
        let table = SubregionTable::build(&cands);
        let mut state = VerificationState::new(&table);
        let chain = default_verifiers();
        let classifier = Classifier::new(0.45, 0.0).unwrap();
        let mut stages = Vec::new();
        // Warm every buffer once.
        let _ = nn_qualification(&table, 0, 3, &mut state.kernel);
        let _ = knn_qualification(&table, 0, 3, 2, &mut state.kernel);
        sr_k_pass(&table, &mut state, 2, 1);
        state.reset(&table);
        run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
        let scr = &state.kernel;
        // The SR-k column buffers rotate, so their allocations are pinned
        // as a set.
        let columns = |scr: &KernelScratch| {
            let mut ptrs = [
                scr.col_below.as_ptr(),
                scr.col_here.as_ptr(),
                scr.col_above.as_ptr(),
            ];
            ptrs.sort();
            ptrs
        };
        let ptrs = (
            scr.coef_cdf.as_ptr(),
            scr.coef_mass.as_ptr(),
            scr.dp_spare.as_ptr(),
            scr.pb_prefix.as_ptr(),
            scr.pb_suffix.as_ptr(),
            scr.straddlers.as_ptr(),
            scr.sr_rows.as_ptr(),
            columns(scr),
            scr.open.rows.as_ptr(),
            scr.open.products.as_ptr(),
            scr.open.run.as_ptr(),
            scr.inv_counts.as_ptr(),
        );
        // Re-run the kernels: the backing allocations must not move.
        for j in 0..table.left_regions() {
            let _ = nn_qualification(&table, 1, j, &mut state.kernel);
            let _ = knn_qualification(&table, 1, j, 2, &mut state.kernel);
        }
        for stride in [2, 1] {
            state.reset(&table);
            sr_k_pass(&table, &mut state, 2, stride);
        }
        state.reset(&table);
        stages.clear();
        run_verification_into(&table, &classifier, &chain, &mut state, &mut stages);
        let scr = &state.kernel;
        assert!(scr.pb_tails > 0 && !scr.sr_rows.is_empty());
        assert!(!scr.open.rows.is_empty() && stages.len() > 1);
        assert_eq!(ptrs.0, scr.coef_cdf.as_ptr());
        assert_eq!(ptrs.1, scr.coef_mass.as_ptr());
        assert_eq!(ptrs.2, scr.dp_spare.as_ptr());
        assert_eq!(ptrs.3, scr.pb_prefix.as_ptr());
        assert_eq!(ptrs.4, scr.pb_suffix.as_ptr());
        assert_eq!(ptrs.5, scr.straddlers.as_ptr());
        assert_eq!(ptrs.6, scr.sr_rows.as_ptr());
        assert_eq!(ptrs.7, columns(scr));
        assert_eq!(ptrs.8, scr.open.rows.as_ptr());
        assert_eq!(ptrs.9, scr.open.products.as_ptr());
        assert_eq!(ptrs.10, scr.open.run.as_ptr());
        assert_eq!(ptrs.11, scr.inv_counts.as_ptr());
    }
}
