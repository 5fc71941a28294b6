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

/// End-point columns per block of the cache-blocked table fill. One block
/// of cdf columns touches `BUILD_BLOCK · 8 B = 2 KiB` per object row slot,
/// and consecutive members land in the same cache lines (column-major), so
/// the scatter working set (~16 KiB of distinct lines for 8-member groups)
/// stays L1-resident across all candidates instead of streaming one full
/// `L+1`-column row per member through the cache.
const BUILD_BLOCK: usize = 256;

/// The subregion table: end-points plus the `(s_ij, D_i(e_j))` pairs of
/// Fig. 7(b).
///
/// Storage is **column-major (subregion-major)**: every verifier inner loop
/// walks all objects at a fixed end-point `j`, so keeping each column
/// `D_·(e_j)` / `s_·j` contiguous turns those sweeps into unit-stride slices
/// ([`Self::cdf_col`] / [`Self::mass_col`]) that the verification kernels
/// consume directly.
#[derive(Debug, Clone)]
pub struct SubregionTable {
    /// End-points `e_1 … e_{M}`; the last entry equals `fmin`. The *left*
    /// subregions are `S_j = [endpoints[j], endpoints[j+1]]` for
    /// `j ∈ 0 .. L` with `L = endpoints.len() − 1`; the rightmost subregion
    /// `[fmin, fmax]` is implicit.
    endpoints: Vec<f64>,
    fmax: f64,
    n: usize,
    /// `mass[j·n + i] = s_ij` (column-major by subregion).
    mass: Vec<f64>,
    /// `cdf[j·n + i] = D_i(e_j)` (column-major by end-point).
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
        pts.sort_by(f64::total_cmp);
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

        let mut mass = vec![0.0; n * l];
        let mut cdf = vec![0.0; n * (l + 1)];
        let mut rightmost = vec![0.0; n];
        // Cache-blocked fill: sweep the end-points in BUILD_BLOCK-column
        // chunks across *all* members before advancing, resuming each
        // member's sorted histogram merge from a per-member bin cursor
        // (cdf_many_resume). Chunked evaluation is bit-identical to one
        // full cdf_many_into row per member, and the column-major scatter
        // now reuses L1-resident lines across consecutive members.
        let cols = l + 1;
        let mut cursors = vec![0usize; n];
        // Per member: the last cdf value of the previous block, so the mass
        // column straddling a block boundary needs no second pass.
        let mut prev = vec![0.0f64; n];
        let mut block = [0.0f64; BUILD_BLOCK];
        let mut j0 = 0;
        while j0 < cols {
            let j1 = (j0 + BUILD_BLOCK).min(cols);
            let xs = &endpoints[j0..j1];
            for (i, member) in candidates.members().iter().enumerate() {
                let out = &mut block[..j1 - j0];
                member.dist.cdf_many_resume(xs, &mut cursors[i], out);
                // Scatter the cdf chunk and fold the mass differences in
                // while the chunk is still in registers/L1 — the exact
                // expressions of the old row-at-a-time fill, on exactly the
                // old row values, so every output is bit-equal.
                for (dj, &v) in out.iter().enumerate() {
                    cdf[(j0 + dj) * n + i] = v;
                }
                if j0 > 0 {
                    mass[(j0 - 1) * n + i] = (out[0] - prev[i]).max(0.0);
                }
                for dj in 0..j1 - j0 - 1 {
                    mass[(j0 + dj) * n + i] = (out[dj + 1] - out[dj]).max(0.0);
                }
                prev[i] = out[j1 - j0 - 1];
            }
            j0 = j1;
        }
        // After the last block `prev[i]` holds `D_i(e_L)` — the rightmost
        // column — for every member.
        for i in 0..n {
            rightmost[i] = (1.0 - prev[i]).max(0.0);
        }
        // Column-major mass makes the membership count a contiguous scan.
        let counts = mass
            .chunks_exact(n)
            .map(|col| col.iter().filter(|&&s| s > MASS_EPS).count())
            .collect();

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
        self.mass[j * self.n + i]
    }

    /// Distance cdf `D_i(e_j)` at end-point `j ∈ 0..=L`.
    pub fn cdf_at(&self, i: usize, j: usize) -> f64 {
        self.cdf[j * self.n + i]
    }

    /// Contiguous cdf column `D_·(e_j)` for end-point `j ∈ 0..=L`: element
    /// `i` is `D_i(e_j)`. Unit-stride input for the verification kernels.
    pub fn cdf_col(&self, j: usize) -> &[f64] {
        &self.cdf[j * self.n..(j + 1) * self.n]
    }

    /// Contiguous mass column `s_·j` for left region `j ∈ 0..L`: element
    /// `i` is `s_ij`.
    pub fn mass_col(&self, j: usize) -> &[f64] {
        &self.mass[j * self.n..(j + 1) * self.n]
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
    fn columns_agree_with_scalar_accessors() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        let n = t.n_objects();
        for j in 0..=t.left_regions() {
            let col = t.cdf_col(j);
            assert_eq!(col.len(), n);
            for (i, &c) in col.iter().enumerate() {
                assert_eq!(c.to_bits(), t.cdf_at(i, j).to_bits(), "cdf ({i},{j})");
            }
        }
        for j in 0..t.left_regions() {
            let col = t.mass_col(j);
            assert_eq!(col.len(), n);
            for (i, &m) in col.iter().enumerate() {
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

    /// Per-member one-shot reference for the blocked fill: every cdf, mass,
    /// and rightmost cell must be bit-equal to one whole-row
    /// `cdf_many_into` pass per member (the pre-blocking implementation).
    fn assert_build_matches_row_reference(
        t: &SubregionTable,
        cands: &crate::candidate::CandidateSet,
    ) {
        let l = t.left_regions();
        let mut row = Vec::new();
        for (i, member) in cands.members().iter().enumerate() {
            member.dist.cdf_many_into(t.endpoints(), &mut row);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(t.cdf_at(i, j).to_bits(), v.to_bits(), "cdf ({i},{j})");
            }
            for j in 0..l {
                let want = (row[j + 1] - row[j]).max(0.0);
                assert_eq!(t.mass(i, j).to_bits(), want.to_bits(), "mass ({i},{j})");
            }
            let want = (1.0 - row[l]).max(0.0);
            assert_eq!(t.rightmost(i).to_bits(), want.to_bits(), "rightmost {i}");
        }
    }

    #[test]
    fn blocked_build_matches_row_reference_bitwise() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        assert_build_matches_row_reference(&t, &cands);
    }

    #[test]
    fn blocked_build_spans_multiple_blocks_bitwise() {
        // Enough staggered near points that the end-point list crosses at
        // least one BUILD_BLOCK boundary, so the resumable cursors carry
        // real state between blocks.
        let objects: Vec<_> = (0..300u32)
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
        let cands = crate::candidate::CandidateSet::build(&objects, 0.0, 0).unwrap();
        let t = SubregionTable::build(&cands);
        assert!(
            t.left_regions() + 1 > super::BUILD_BLOCK,
            "scenario too small to cross a block boundary: {} cols",
            t.left_regions() + 1
        );
        assert_build_matches_row_reference(&t, &cands);
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
