//! Subregion construction (paper Sec. IV-A, Fig. 7).
//!
//! *End-points* are: every candidate's near point, every point at which some
//! distance pdf changes (i.e. every distance-histogram bin edge) below
//! `fmin`, plus `fmin` itself; the rightmost subregion `S_M = [fmin, fmax]`
//! is kept implicitly as a per-object mass (`s_iM = 1 − D_i(fmin)`), since
//! no end-points are defined inside it.
//!
//! Keeping **every** pdf breakpoint below `fmin` as an end-point is not just
//! bookkeeping — it is what makes Lemma 3 sound: within a subregion each
//! object's distance pdf is constant, so conditioned on falling inside the
//! subregion all objects are uniformly (and identically) distributed there,
//! which is exactly the exchangeability the `1/|K|` symmetry argument needs.
//!
//! For each object `i` and left subregion `S_j = [e_j, e_{j+1}]`, the table
//! stores the *subregion probability* `s_ij = Pr[R_i ∈ S_j]` and the cdf
//! value `D_i(e_j)` — the two numbers the verifiers consume. The paper keeps
//! these per-subregion lists in a hash table; this implementation stores
//! them as dense flat arrays indexed by `(object, subregion)`, which is the
//! in-memory equivalent (space `O(|C|·M)`, as in the paper).

use crate::candidate::CandidateSet;

/// Mass below this threshold is treated as "no mass in the subregion"
/// (the paper's `U_k ∩ S_j ≠ ∅` membership test).
pub const MASS_EPS: f64 = 1e-12;

/// The subregion table: end-points plus the `(s_ij, D_i(e_j))` pairs of
/// Fig. 7(b).
///
/// Storage is **row-major (object-major)**: the build evaluates one
/// member's cdf over every end-point in a single sweep, and the 1-NN
/// verifiers walk one object's subregions at a time — its product row,
/// [`Self::mass_row`] and its `q_ij` row side by side — so each object's
/// `D_i(e_·)` / `s_i·` is a contiguous slice ([`Self::cdf_row`] /
/// [`Self::mass_row`]). Readers that need an end-point column gather it
/// through [`Self::cdf_at`] / [`Self::mass`].
#[derive(Debug, Clone)]
pub struct SubregionTable {
    /// End-points `e_1 … e_{M}`; the last entry equals `fmin`. The *left*
    /// subregions are `S_j = [endpoints[j], endpoints[j+1]]` for
    /// `j ∈ 0 .. L` with `L = endpoints.len() − 1`; the rightmost subregion
    /// `[fmin, fmax]` is implicit.
    endpoints: Vec<f64>,
    fmax: f64,
    n: usize,
    /// `mass[i·L + j] = s_ij` (row-major by object).
    mass: Vec<f64>,
    /// `cdf[i·(L+1) + j] = D_i(e_j)` (row-major by object).
    cdf: Vec<f64>,
    /// `rightmost[i] = s_{i,M} = 1 − D_i(fmin)`.
    rightmost: Vec<f64>,
    /// `counts[j] = c_j`, the number of objects with `s_ij > MASS_EPS`.
    counts: Vec<usize>,
}

impl SubregionTable {
    /// Build the table for a candidate set (the "initialization" box of the
    /// verification framework, Fig. 5).
    pub fn build(candidates: &CandidateSet) -> Self {
        let n = candidates.len();
        // The last end-point is the candidate set's pruning horizon: fmin
        // for 1-NN, fmin_k for the k-NN extension. All formulas below are
        // stated in terms of it.
        let fmin = candidates.horizon();
        let fmax = candidates.fmax();
        if n == 0 {
            return Self {
                endpoints: Vec::new(),
                fmax,
                n,
                mass: Vec::new(),
                cdf: Vec::new(),
                rightmost: Vec::new(),
                counts: Vec::new(),
            };
        }

        // Collect end-points: near points and pdf breakpoints below fmin.
        let upper: usize = candidates
            .members()
            .iter()
            .map(|m| m.dist.breakpoints().len())
            .sum();
        let mut pts: Vec<f64> = Vec::with_capacity(upper + 1);
        for m in candidates.members() {
            for &b in m.dist.breakpoints() {
                if b < fmin {
                    pts.push(b);
                }
            }
        }
        pts.push(fmin);
        // Unstable is exact here: `total_cmp`-equal keys are bit-equal.
        pts.sort_unstable_by(f64::total_cmp);
        let scale = fmin.abs().max(1.0);
        let mut endpoints: Vec<f64> = Vec::with_capacity(pts.len());
        for p in pts {
            match endpoints.last() {
                Some(&last) if p - last <= 1e-9 * scale => {}
                _ => endpoints.push(p),
            }
        }
        // Snap the final endpoint to exactly fmin (the merge above may have
        // absorbed it into a close neighbour).
        if let Some(last) = endpoints.last_mut() {
            *last = fmin;
        }
        let l = endpoints.len() - 1;
        let cols = l + 1;

        let mut mass = vec![0.0; n * l];
        let mut cdf = vec![0.0; n * cols];
        let mut rightmost = Vec::with_capacity(n);
        let mut counts = vec![0usize; l];
        // One contiguous sweep over the end-points per member fills its cdf
        // row; its mass row is the clamped differences of that row.
        for (i, member) in candidates.members().iter().enumerate() {
            let row = &mut cdf[i * cols..(i + 1) * cols];
            member.dist.cdf_many(&endpoints, row);
            let masses = mass[i * l..(i + 1) * l].iter_mut();
            for ((s, pair), c) in masses.zip(row.windows(2)).zip(&mut counts) {
                *s = (pair[1] - pair[0]).max(0.0);
                *c += usize::from(*s > MASS_EPS);
            }
            rightmost.push((1.0 - row[l]).max(0.0));
        }

        Self {
            endpoints,
            fmax,
            n,
            mass,
            cdf,
            rightmost,
            counts,
        }
    }

    /// Number of candidate objects `|C|`.
    pub fn n_objects(&self) -> usize {
        self.n
    }

    /// Number of *left* subregions `L` (the paper's `M − 1`).
    pub fn left_regions(&self) -> usize {
        self.endpoints.len().saturating_sub(1)
    }

    /// Total subregion count, the paper's `M` (left regions + rightmost).
    pub fn subregion_count(&self) -> usize {
        self.left_regions() + 1
    }

    /// End-point `e_{j+1}` in paper numbering (`j` is 0-based here).
    pub fn endpoint(&self, j: usize) -> f64 {
        self.endpoints[j]
    }

    /// All end-points (last equals `fmin`).
    pub fn endpoints(&self) -> &[f64] {
        &self.endpoints
    }

    /// Width of left subregion `j`.
    pub fn width(&self, j: usize) -> f64 {
        self.endpoints[j + 1] - self.endpoints[j]
    }

    /// Subregion probability `s_ij` for left region `j`.
    pub fn mass(&self, i: usize, j: usize) -> f64 {
        self.mass[i * self.left_regions() + j]
    }

    /// Distance cdf `D_i(e_j)` at end-point `j ∈ 0..=L`.
    pub fn cdf_at(&self, i: usize, j: usize) -> f64 {
        self.cdf[i * self.endpoints.len() + j]
    }

    /// Contiguous cdf row `D_i(e_·)` of object `i`: element `j ∈ 0..=L` is
    /// `D_i(e_j)`.
    pub fn cdf_row(&self, i: usize) -> &[f64] {
        let cols = self.endpoints.len();
        &self.cdf[i * cols..(i + 1) * cols]
    }

    /// Contiguous mass row `s_i·` of object `i`: element `j ∈ 0..L` is
    /// `s_ij`.
    pub fn mass_row(&self, i: usize) -> &[f64] {
        let l = self.left_regions();
        &self.mass[i * l..(i + 1) * l]
    }

    /// Rightmost-subregion probability `s_{iM} = 1 − D_i(fmin)`.
    pub fn rightmost(&self, i: usize) -> f64 {
        self.rightmost[i]
    }

    /// `c_j`: number of objects with non-zero mass in left region `j`.
    pub fn count(&self, j: usize) -> usize {
        self.counts[j]
    }

    /// `fmin` (the last end-point).
    pub fn fmin(&self) -> f64 {
        *self.endpoints.last().expect("non-empty table")
    }

    /// `fmax` (right edge of the rightmost subregion).
    pub fn fmax(&self) -> f64 {
        self.fmax
    }

    /// Linear interpolation of `D_i(r)` inside left region `j`, with
    /// `t ∈ [0, 1]` the relative position: `D_i(e_j + t·w_j)`.
    ///
    /// Exact because distance cdfs are piecewise linear with knots at
    /// end-points.
    pub fn cdf_interp(&self, i: usize, j: usize, t: f64) -> f64 {
        let a = self.cdf_at(i, j);
        a + t * self.mass(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig7_scenario;

    #[test]
    fn endpoints_match_hand_construction() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        // Near points {1, 2, 4}, breakpoint of X1's pdf at 3, fmin = 6.
        assert_eq!(t.endpoints(), &[1.0, 2.0, 3.0, 4.0, 6.0]);
        assert_eq!(t.left_regions(), 4);
        assert_eq!(t.subregion_count(), 5); // the paper's M
        assert_eq!(t.fmin(), 6.0);
        assert_eq!(t.fmax(), 8.0);
    }

    #[test]
    fn masses_match_hand_computation() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        // X1 (histogram [1,3]=0.3, [3,7]=0.7):
        let x1 = [0.15, 0.15, 0.175, 0.35];
        // X2 (uniform [2,6]):
        let x2 = [0.0, 0.25, 0.25, 0.5];
        // X3 (uniform [4,8]):
        let x3 = [0.0, 0.0, 0.0, 0.5];
        for j in 0..4 {
            assert!((t.mass(0, j) - x1[j]).abs() < 1e-12, "s_1{j}");
            assert!((t.mass(1, j) - x2[j]).abs() < 1e-12, "s_2{j}");
            assert!((t.mass(2, j) - x3[j]).abs() < 1e-12, "s_3{j}");
        }
        assert!((t.rightmost(0) - 0.175).abs() < 1e-12);
        assert!((t.rightmost(1) - 0.0).abs() < 1e-12);
        assert!((t.rightmost(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_match_membership() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        assert_eq!(t.count(0), 1);
        assert_eq!(t.count(1), 2);
        assert_eq!(t.count(2), 2);
        assert_eq!(t.count(3), 3);
    }

    #[test]
    fn rows_agree_with_scalar_accessors() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        let l = t.left_regions();
        for i in 0..t.n_objects() {
            let row = t.cdf_row(i);
            assert_eq!(row.len(), l + 1);
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(c.to_bits(), t.cdf_at(i, j).to_bits(), "cdf ({i},{j})");
            }
            let row = t.mass_row(i);
            assert_eq!(row.len(), l);
            for (j, &m) in row.iter().enumerate() {
                assert_eq!(m.to_bits(), t.mass(i, j).to_bits(), "mass ({i},{j})");
            }
        }
    }

    #[test]
    fn masses_and_rightmost_sum_to_one() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        for i in 0..t.n_objects() {
            let total: f64 =
                (0..t.left_regions()).map(|j| t.mass(i, j)).sum::<f64>() + t.rightmost(i);
            assert!((total - 1.0).abs() < 1e-9, "object {i}: {total}");
        }
    }

    #[test]
    fn cdf_values_at_endpoints() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        // D1 at endpoints [1,2,3,4,6]:
        for (j, want) in [0.0, 0.15, 0.3, 0.475, 0.825].iter().enumerate() {
            assert!((t.cdf_at(0, j) - want).abs() < 1e-12, "D1(e{j})");
        }
        // D2:
        for (j, want) in [0.0, 0.0, 0.25, 0.5, 1.0].iter().enumerate() {
            assert!((t.cdf_at(1, j) - want).abs() < 1e-12, "D2(e{j})");
        }
        // D3:
        for (j, want) in [0.0, 0.0, 0.0, 0.0, 0.5].iter().enumerate() {
            assert!((t.cdf_at(2, j) - want).abs() < 1e-12, "D3(e{j})");
        }
    }

    #[test]
    fn cdf_interp_is_linear_within_regions() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        // D2 halfway through S4 = [4, 6]: 0.5 + 0.5·0.5 = 0.75.
        assert!((t.cdf_interp(1, 3, 0.5) - 0.75).abs() < 1e-12);
        // Interp endpoints agree with stored cdf values.
        for i in 0..3 {
            for j in 0..4 {
                assert!((t.cdf_interp(i, j, 0.0) - t.cdf_at(i, j)).abs() < 1e-12);
                assert!((t.cdf_interp(i, j, 1.0) - t.cdf_at(i, j + 1)).abs() < 1e-12);
            }
        }
    }

    /// The row sweep against the scalar pdf: every cdf cell is bit-equal to
    /// `dist.cdf(e_j)`, every mass cell to the clamped difference of those,
    /// the rightmost mass to `1 − D_i(fmin)` clamped, and `count(j)` to a
    /// scan of column `j`.
    fn assert_build_matches_pointwise_cdf(cands: &crate::candidate::CandidateSet) {
        let t = SubregionTable::build(cands);
        let l = t.left_regions();
        let bits = |x: f64| x.to_bits();
        for (i, member) in cands.members().iter().enumerate() {
            let cdf = |j: usize| member.dist.cdf(t.endpoint(j));
            for j in 0..=l {
                assert_eq!(bits(t.cdf_at(i, j)), bits(cdf(j)), "cdf ({i},{j})");
            }
            for j in 0..l {
                let want = (cdf(j + 1) - cdf(j)).max(0.0);
                assert_eq!(bits(t.mass(i, j)), bits(want), "mass ({i},{j})");
            }
            let want = (1.0 - cdf(l)).max(0.0);
            assert_eq!(bits(t.rightmost(i)), bits(want), "rightmost {i}");
        }
        for j in 0..l {
            let scan = (0..t.n_objects())
                .filter(|&i| t.mass(i, j) > MASS_EPS)
                .count();
            assert_eq!(t.count(j), scan, "count {j}");
        }
    }

    #[test]
    fn blocked_build_matches_row_reference_bitwise() {
        let (cands, _) = fig7_scenario();
        assert_build_matches_pointwise_cdf(&cands);
    }

    #[test]
    fn blocked_build_spans_multiple_blocks_bitwise() {
        // 300 staggered members give more than 256 end-point columns, so
        // each cdf row spans many cache lines of the sweep.
        let staggered: Vec<_> = (0..300u32)
            .map(|k| {
                let lo = 1.0 + k as f64 * 0.01;
                crate::object::UncertainObject::uniform(
                    crate::object::ObjectId(k as u64),
                    lo,
                    lo + 5.0,
                )
                .unwrap()
            })
            .collect();
        let wide = crate::candidate::CandidateSet::build(&staggered, 0.0, 0).unwrap();
        assert!(SubregionTable::build(&wide).left_regions() + 1 > 256);
        assert_build_matches_pointwise_cdf(&wide);
    }

    #[test]
    fn empty_candidate_set_gives_empty_table() {
        let cands = crate::candidate::CandidateSet::build(std::iter::empty(), 0.0, 0).unwrap();
        let t = SubregionTable::build(&cands);
        assert_eq!(t.n_objects(), 0);
        assert_eq!(t.left_regions(), 0);
    }

    #[test]
    fn single_candidate_has_one_left_region_and_no_rightmost_mass() {
        let objects =
            vec![
                crate::object::UncertainObject::uniform(crate::object::ObjectId(9), 3.0, 5.0)
                    .unwrap(),
            ];
        let cands = crate::candidate::CandidateSet::build(&objects, 0.0, 0).unwrap();
        let t = SubregionTable::build(&cands);
        assert_eq!(t.left_regions(), 1);
        assert!((t.mass(0, 0) - 1.0).abs() < 1e-12);
        assert!((t.rightmost(0)).abs() < 1e-12);
        assert_eq!(t.count(0), 1);
    }
}
