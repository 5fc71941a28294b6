//! Probabilistic verifiers (paper Sec. IV).
//!
//! A verifier inspects the subregion table and tightens the probability
//! bounds of still-`Unknown` objects using algebraic operations only — no
//! numerical integration. The 1-NN chain, in the order it runs:
//!
//! | verifier | tightens | cost |
//! |----------|----------|------|
//! | [`RightmostSubregion`] (RS)  | upper | `O(|C|)` |
//! | [`UpperSubregion`] (U-SR)    | both  | `O(|C|·M)` |
//! | [`LowerSubregion`] (L-SR)    | lower | `O(|C|·M)` |
//!
//! The `O(|C|·M)` of U-SR and L-SR is the exclude-one survival products,
//! built once per query by U-SR and reused by L-SR
//! (`kernels::OpenProducts`); each verifier's own bound updates cost
//! `O(open·M)`, `open` being the objects RS left `Unknown`. U-SR runs
//! first because beyond the paper it also keeps the lower half of its own
//! split (`Pr[F]`, see `usr.rs`), which decides most of what L-SR would;
//! L-SR serves only the rows U-SR leaves open.
//!
//! Besides the object-level bounds, U-SR and L-SR also record per-subregion
//! qualification bounds `[q_ij.l, q_ij.u]`, which the incremental refinement
//! stage (Sec. IV-D) reuses.

pub mod kernels;
mod lsr;
mod products;
pub mod reference;
mod rs;
mod usr;

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
/// batch executor keep one state per worker thread. The `q_ij` cells are
/// sized and filled only when a stage first reads them: a query that RS or
/// a coarse SR-k stage settles never writes its `2·|C|·L` cells.
#[derive(Debug, Clone, Default)]
pub struct VerificationState {
    /// `[p_i.l, p_i.u]` per candidate.
    pub bounds: Vec<ProbBound>,
    /// Current verdict per candidate.
    pub labels: Vec<Label>,
    /// `q_ij.l` flattened as `i·L + j` (left subregions only); empty until
    /// a stage first reads a cell, which stands for `0` everywhere.
    pub qij_lo: Vec<f64>,
    /// `q_ij.u` flattened as `i·L + j`; empty until a stage first reads a
    /// cell, which stands for `1` everywhere.
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
    /// `[q_ij.l, q_ij.u] = [0, 1]` (cells not yet sized).
    pub fn new(table: &SubregionTable) -> Self {
        let mut state = Self::default();
        state.reset(table);
        state
    }

    /// Re-initialize for `table`, reusing the existing allocations.
    pub fn reset(&mut self, table: &SubregionTable) {
        let n = table.n_objects();
        self.bounds.clear();
        self.bounds.resize(n, ProbBound::vacuous());
        self.labels.clear();
        self.labels.resize(n, Label::Unknown);
        // Sized on first use (`open_cells`).
        self.qij_lo.clear();
        self.qij_hi.clear();
        // The open-row survival products describe a specific table and
        // `Unknown` set; a reset means a new query, so force a rebuild on
        // first verifier use.
        self.kernel.open.invalidate();
        // So do the memoised refine column integrals.
        self.kernel.columns.close();
    }

    /// Size the `q_ij` cells for `table` and fill them with `[0, 1]`, unless
    /// a stage has done so since [`Self::reset`]. Every stage that reads
    /// a cell, or calls `recompute_lower`/`recompute_upper`, calls it
    /// first.
    pub(crate) fn open_cells(&mut self, table: &SubregionTable) {
        let cells = table.n_objects() * table.left_regions();
        if self.qij_lo.len() < cells {
            self.qij_lo.resize(cells, 0.0);
            self.qij_hi.resize(cells, 1.0);
        }
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
    /// Short name for reports ("RS", "U-SR", "L-SR", "SR-k").
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
