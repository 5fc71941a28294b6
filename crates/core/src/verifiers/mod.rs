//! Probabilistic verifiers (paper Sec. IV).
//!
//! A verifier inspects the subregion table and tightens the probability
//! bounds of still-`Unknown` objects using algebraic operations only — no
//! numerical integration. The three verifiers from the paper, in ascending
//! cost order (Table III):
//!
//! | verifier | tightens | cost |
//! |----------|----------|------|
//! | [`RightmostSubregion`] (RS)  | upper | `O(|C|)` |
//! | [`LowerSubregion`] (L-SR)    | lower | `O(|C|·M)` |
//! | [`UpperSubregion`] (U-SR)    | upper | `O(|C|·M)` |
//!
//! The `O(|C|·M)` of L-SR and U-SR (and FL-SR) is the exclude-one survival
//! products, built once per query and shared by all three
//! (`kernels::OpenProducts`); each verifier's own bound updates cost
//! `O(open·M)`, `open` being the objects RS left `Unknown`.
//!
//! Besides the object-level bounds, L-SR and U-SR also record per-subregion
//! qualification bounds `[q_ij.l, q_ij.u]`, which the incremental refinement
//! stage (Sec. IV-D) reuses.

mod flsr;
pub mod kernels;
mod lsr;
mod products;
pub mod reference;
mod rs;
mod usr;

pub(crate) use flsr::FarLowerSubregion;
pub use kernels::KernelScratch;
pub use lsr::LowerSubregion;
pub(crate) use products::ExcludeOneProduct;
pub use rs::RightmostSubregion;
pub use usr::UpperSubregion;

use crate::bounds::ProbBound;
use crate::classify::Label;
use crate::subregion::{Columns, SubregionTable};

/// Mutable state threaded through the verification pipeline: object-level
/// probability bounds, labels, and per-subregion qualification bounds.
///
/// The backing vectors are reusable: [`VerificationState::reset`] re-sizes
/// them for a new table without discarding capacity, which is what lets the
/// batch executor keep one state per worker thread.
#[derive(Debug, Clone, Default)]
pub struct VerificationState {
    /// `[p_i.l, p_i.u]` per candidate.
    pub bounds: Vec<ProbBound>,
    /// Current verdict per candidate.
    pub labels: Vec<Label>,
    /// `q_ij.l` flattened as `i·L + j` (left subregions only).
    pub qij_lo: Vec<f64>,
    /// `q_ij.u` flattened as `i·L + j`.
    pub qij_hi: Vec<f64>,
    /// Reusable kernel buffers (open-row survival products, Poisson-binomial
    /// states, integrand coefficients, refinement order). Living here means
    /// every path that reuses the state — the per-query scratch, the batch
    /// executor's per-thread states — gets allocation-free verify/refine
    /// loops for free.
    pub(crate) kernel: KernelScratch,
}

impl VerificationState {
    /// Fresh state: vacuous bounds, every object `Unknown`,
    /// `[q_ij.l, q_ij.u] = [0, 1]`.
    pub fn new(table: &SubregionTable) -> Self {
        let mut state = Self::default();
        state.reset(table);
        state
    }

    /// Re-initialize for `table`, reusing the existing allocations.
    pub fn reset(&mut self, table: &SubregionTable) {
        let n = table.n_objects();
        let l = table.left_regions();
        self.bounds.clear();
        self.bounds.resize(n, ProbBound::vacuous());
        self.labels.clear();
        self.labels.resize(n, Label::Unknown);
        self.qij_lo.clear();
        self.qij_lo.resize(n * l, 0.0);
        self.qij_hi.clear();
        self.qij_hi.resize(n * l, 1.0);
        // The open-row survival products describe a specific table and
        // `Unknown` set; a reset means a new query, so force a rebuild on
        // first verifier use.
        self.kernel.open.invalidate();
        // So do the memoised refine column integrals.
        self.kernel.columns.close();
    }

    /// Recompute `p_i.l = Σ_j s_ij · q_ij.l` (paper Eq. 4) and raise the
    /// object's lower bound if it improved.
    pub(crate) fn recompute_lower(&mut self, table: &SubregionTable, i: usize) {
        let l = table.left_regions();
        let mut lo = 0.0;
        for (&s, &q) in table.mass_row(i).iter().zip(&self.qij_lo[i * l..]) {
            lo += s * q;
        }
        self.bounds[i].raise_lo(lo);
    }

    /// Recompute `p_i.u = Σ_j s_ij · q_ij.u` (rightmost subregion
    /// contributes zero) and lower the object's upper bound if it improved.
    pub(crate) fn recompute_upper(&mut self, table: &SubregionTable, i: usize) {
        let l = table.left_regions();
        let mut hi = 0.0;
        for (&s, &q) in table.mass_row(i).iter().zip(&self.qij_hi[i * l..]) {
            hi += s * q;
        }
        self.bounds[i].lower_hi(hi);
    }

    /// Number of objects still labelled `Unknown`.
    pub fn unknown_count(&self) -> usize {
        self.labels.iter().filter(|&&l| l == Label::Unknown).count()
    }
}

/// A probability-bound tightening pass.
pub trait Verifier {
    /// Short name for reports ("RS", "L-SR", "U-SR").
    fn name(&self) -> &'static str;

    /// Tighten bounds of `Unknown` objects in `state`.
    fn apply(&self, table: &SubregionTable, state: &mut VerificationState);

    /// The columns of `table` (laid out, perhaps not filled) that
    /// [`apply`](Self::apply) reads. The default is the whole table.
    fn columns(&self, table: &SubregionTable) -> Columns {
        let _ = table;
        Columns::All
    }
}
