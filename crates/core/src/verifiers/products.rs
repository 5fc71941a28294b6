//! Exclude-one products — the `Y_j` optimization of the paper (Eqs. 2/3/11)
//! made numerically safe.
//!
//! The L-SR and U-SR verifiers need, for every object `i`, the product of
//! `(1 − D_k(e_j))` over all `k ≠ i`. The paper computes the full product
//! `Y_j` once and divides by object `i`'s own factor — which breaks when a
//! factor is zero (an object certainly closer than `e_j`) and loses
//! precision when a factor is tiny. We instead precompute prefix and suffix
//! products, giving every exclude-one product in O(1) with no division at
//! all: `Π_{k≠i} f_k = prefix[i] · suffix[i+1]`. Same O(|C|) cost per
//! subregion as the paper's `Y_j` trick.
//!
//! [`ExcludeOneProduct`] is the per-column form the reference verifiers
//! use. The kernel verifiers run the same chain for every end-point column
//! at once, and only for the rows RS left open (`kernels::OpenProducts`),
//! with the same multiplication order per column and so the same bits.

/// Prefix/suffix product table over a factor vector.
///
/// The `Default` value is an *empty* table (no factors recorded yet); call
/// [`Self::recompute`] before querying it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExcludeOneProduct {
    /// `prefix[i] = Π_{k < i} f_k` (so `prefix[0] = 1`), length `n + 1`.
    prefix: Vec<f64>,
    /// `suffix[i] = Π_{k ≥ i} f_k` (so `suffix[n] = 1`), length `n + 1`.
    suffix: Vec<f64>,
}

impl ExcludeOneProduct {
    /// Build from the factor sequence.
    pub(crate) fn new(factors: &[f64]) -> Self {
        let mut p = Self::default();
        p.recompute(factors);
        p
    }

    /// Rebuild the prefix/suffix tables in place, reusing the existing
    /// allocations — the kernel-path replacement for constructing a fresh
    /// product per subregion. Multiplication order matches [`Self::new`]
    /// exactly, so the resulting products are bit-identical.
    pub(crate) fn recompute(&mut self, factors: &[f64]) {
        let n = factors.len();
        self.prefix.clear();
        self.prefix.reserve(n + 1);
        self.prefix.push(1.0);
        let mut acc = 1.0;
        for &f in factors {
            acc *= f;
            self.prefix.push(acc);
        }
        self.suffix.clear();
        self.suffix.resize(n + 1, 1.0);
        for i in (0..n).rev() {
            self.suffix[i] = factors[i] * self.suffix[i + 1];
        }
    }

    /// Product of all factors except index `i`.
    pub(crate) fn excluding(&self, i: usize) -> f64 {
        self.prefix[i] * self.suffix[i + 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Product of all factors.
    fn total(p: &ExcludeOneProduct) -> f64 {
        *p.prefix.last().expect("non-empty prefix")
    }

    /// Number of factors.
    fn len(p: &ExcludeOneProduct) -> usize {
        p.prefix.len() - 1
    }

    #[test]
    fn excluding_matches_naive() {
        let factors = [0.5, 0.9, 0.1, 1.0, 0.3];
        let p = ExcludeOneProduct::new(&factors);
        for i in 0..factors.len() {
            let naive: f64 = factors
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .map(|(_, &f)| f)
                .product();
            assert!(
                (p.excluding(i) - naive).abs() < 1e-15,
                "i = {i}: {} vs {naive}",
                p.excluding(i)
            );
        }
        assert!((total(&p) - factors.iter().product::<f64>()).abs() < 1e-15);
    }

    #[test]
    fn zero_factors_are_exact() {
        // One zero: excluding it gives the nonzero product; excluding others gives 0.
        let factors = [0.5, 0.0, 0.25];
        let p = ExcludeOneProduct::new(&factors);
        assert_eq!(total(&p), 0.0);
        assert!((p.excluding(1) - 0.125).abs() < 1e-15);
        assert_eq!(p.excluding(0), 0.0);
        assert_eq!(p.excluding(2), 0.0);
        // Two zeros: every exclude-one product is 0.
        let p2 = ExcludeOneProduct::new(&[0.0, 0.5, 0.0]);
        for i in 0..3 {
            assert_eq!(p2.excluding(i), 0.0);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let p = ExcludeOneProduct::new(&[]);
        assert!(len(&p) == 0);
        assert_eq!(total(&p), 1.0);
        let p1 = ExcludeOneProduct::new(&[0.7]);
        assert_eq!(p1.excluding(0), 1.0);
        assert_eq!(total(&p1), 0.7);
    }

    #[test]
    fn recompute_matches_new_bitwise_and_reuses_buffers() {
        let a = [0.5, 0.9, 0.1, 1.0, 0.3];
        let b = [0.25, 0.75];
        let mut p = ExcludeOneProduct::default();
        p.recompute(&a);
        let fresh = ExcludeOneProduct::new(&a);
        for i in 0..a.len() {
            assert_eq!(p.excluding(i).to_bits(), fresh.excluding(i).to_bits());
        }
        assert_eq!(total(&p).to_bits(), total(&fresh).to_bits());
        // Shrinking reuse: shorter factor list after a longer one.
        p.recompute(&b);
        let fresh_b = ExcludeOneProduct::new(&b);
        assert_eq!(len(&p), 2);
        for i in 0..b.len() {
            assert_eq!(p.excluding(i).to_bits(), fresh_b.excluding(i).to_bits());
        }
    }

    #[test]
    fn many_tiny_factors_keep_precision() {
        let factors = vec![0.99999; 1000];
        let p = ExcludeOneProduct::new(&factors);
        let expect = 0.99999f64.powi(999);
        assert!((p.excluding(500) / expect - 1.0).abs() < 1e-9);
    }
}
