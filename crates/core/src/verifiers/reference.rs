//! Retained naive/legacy verifier implementations.
//!
//! These are the pre-kernel scalar code paths: per-element
//! `cdf_at`/`mass` accessor calls, a fresh factor `Vec` and
//! `ExcludeOneProduct::new` (two more `Vec`s) per subregion, and for k-NN
//! a fresh Poisson-binomial tail per cell and end-point. They exist for two
//! reasons:
//!
//! 1. **Ground truth** — the 1-NN kernel verifiers must produce
//!    bit-identical verdicts and bounds (the parity proptests run both
//!    chains and compare `f64::to_bits`); the k-NN chain, which stops at a
//!    coarser partition when that decides, must end within `1e-12` of the
//!    reference for a row that reaches the finest one and contain it
//!    otherwise.
//! 2. **The `verify` micro-bench** — kernel vs. legacy throughput across
//!    |C| × M is measured by timing these against the kernel verifiers.
//!
//! Do not "optimize" this module; its value is being the unoptimized
//! baseline.

use crate::classify::Label;
use crate::knn::poisson_binomial_at_most;
use crate::subregion::{SubregionTable, MASS_EPS};
use crate::verifiers::{ExcludeOneProduct, VerificationState, Verifier};

/// Legacy L-SR: allocates a factor vector once per apply and a fresh
/// exclude-one product per subregion. Capped at `q_ij.u`, as the kernel
/// L-SR is behind U-SR.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferenceLowerSubregion;

impl Verifier for ReferenceLowerSubregion {
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
        let mut factors = vec![0.0; n];
        for j in 0..l {
            let cj = table.count(j);
            if cj == 0 {
                continue;
            }
            for (k, f) in factors.iter_mut().enumerate() {
                *f = 1.0 - table.cdf_at(k, j);
            }
            let prod = ExcludeOneProduct::new(&factors);
            let inv_cj = 1.0 / cj as f64;
            for i in 0..n {
                if state.labels[i] != Label::Unknown || table.mass(i, j) <= MASS_EPS {
                    continue;
                }
                let hi = state.qij_hi[i * l + j];
                let q = (prod.excluding(i) * inv_cj).clamp(0.0, hi);
                let cell = &mut state.qij_lo[i * l + j];
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

/// Legacy U-SR: collects a fresh factor vector and product per end-point;
/// records `Pr[F]` as `q_ij.l` and `½ (Pr[F] + Pr[E])` as `q_ij.u`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferenceUpperSubregion;

impl Verifier for ReferenceUpperSubregion {
    fn name(&self) -> &'static str {
        "U-SR"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let n = table.n_objects();
        let l = table.left_regions();
        if n == 0 || l == 0 {
            return;
        }
        state.open_cells(table);
        let product_at = |j: usize| {
            let factors: Vec<f64> = (0..n).map(|k| 1.0 - table.cdf_at(k, j)).collect();
            ExcludeOneProduct::new(&factors)
        };
        let mut prod_cur = product_at(0);
        for j in 0..l {
            let prod_next = product_at(j + 1);
            for i in 0..n {
                if state.labels[i] != Label::Unknown || table.mass(i, j) <= MASS_EPS {
                    continue;
                }
                let far = prod_next.excluding(i).clamp(0.0, 1.0);
                let lo = &mut state.qij_lo[i * l + j];
                if far > *lo {
                    *lo = far;
                }
                let lo = *lo;
                let q = 0.5 * (prod_next.excluding(i) + prod_cur.excluding(i));
                let cell = &mut state.qij_hi[i * l + j];
                if q < *cell {
                    *cell = q.clamp(lo, 1.0);
                }
            }
            prod_cur = prod_next;
        }
        for i in 0..n {
            if state.labels[i] == Label::Unknown {
                state.recompute_lower(table, i);
                state.recompute_upper(table, i);
            }
        }
    }
}

/// Naive k-NN subregion verifier, on the finest partition only: every
/// massive cell of an `Unknown` row gets its two tails from scratch, each a
/// fresh [`poisson_binomial_at_most`] over the other rows' cdf values —
/// `O(|C|²·M·k)`, no shared state, nothing divided back out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReferenceKnnSubregion {
    k: usize,
}

impl ReferenceKnnSubregion {
    /// Verifier for the `k`-nearest-neighbor qualification (`k ≥ 1`).
    pub(crate) fn new(k: usize) -> Self {
        Self { k: k.max(1) }
    }
}

impl Verifier for ReferenceKnnSubregion {
    fn name(&self) -> &'static str {
        "SR-k"
    }

    fn apply(&self, table: &SubregionTable, state: &mut VerificationState) {
        let n = table.n_objects();
        let l = table.left_regions();
        if n == 0 || l == 0 {
            return;
        }
        state.open_cells(table);
        let k = self.k;
        if k >= n {
            for i in 0..n {
                if state.labels[i] != Label::Unknown {
                    continue;
                }
                for j in 0..l {
                    state.qij_lo[i * l + j] = 1.0;
                    state.qij_hi[i * l + j] = 1.0;
                }
                state.recompute_lower(table, i);
                state.recompute_upper(table, i);
            }
            return;
        }
        // q_ij.l / q_ij.u from their definitions: the tail over the other
        // objects' cdf values at the subregion's far / near end-point.
        let tail_at = |i: usize, endpoint: usize| {
            poisson_binomial_at_most(
                (0..n)
                    .filter(|&m| m != i)
                    .map(|m| table.cdf_at(m, endpoint)),
                k - 1,
            )
        };
        for j in 0..l {
            for i in 0..n {
                if state.labels[i] != Label::Unknown || table.mass(i, j) <= MASS_EPS {
                    continue;
                }
                let lo = tail_at(i, j + 1);
                let cell = &mut state.qij_lo[i * l + j];
                if lo > *cell {
                    *cell = lo;
                }
                let hi = tail_at(i, j);
                let cell = &mut state.qij_hi[i * l + j];
                if hi < *cell {
                    *cell = hi;
                }
            }
        }
        for i in 0..n {
            if state.labels[i] == Label::Unknown {
                state.recompute_lower(table, i);
                state.recompute_upper(table, i);
            }
        }
    }
}

/// Legacy counterpart of [`crate::framework::default_verifiers`].
pub fn reference_verifiers() -> Vec<Box<dyn Verifier>> {
    vec![
        Box::new(crate::verifiers::RightmostSubregion),
        Box::new(ReferenceUpperSubregion),
        Box::new(ReferenceLowerSubregion),
    ]
}

/// Legacy counterpart of [`crate::framework::knn_verifiers`].
pub fn reference_knn_verifiers(k: usize) -> Vec<Box<dyn Verifier>> {
    vec![
        Box::new(crate::verifiers::RightmostSubregion),
        Box::new(ReferenceKnnSubregion::new(k)),
    ]
}
