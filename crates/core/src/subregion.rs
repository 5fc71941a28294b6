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
//!
//! **Filled in phases.** Not every verifier reads every cell: RS reads the
//! horizon column, the coarse SR-k stage every `⌈√L⌉`-th column, and the
//! stride-1 stages (U-SR, L-SR, fine SR-k) and refinement the whole table.
//! [`SubregionTable::layout`] computes the end-points (no cdf value is
//! needed for them) and the horizon column; [`SubregionTable::fill`] adds
//! the coarse columns or the rest ([`Columns`]) when the first stage that
//! reads them runs, so a query the cheap stages settle never builds the
//! fine table. Every cell is the same value whenever it is filled. A 2-D
//! candidate's cdf is read through its knot grid, whose knots the table
//! keeps per member for the query ([`DistanceDistribution::cdf_many`]):
//! each knot is computed once, and none past the first edge beyond `fmin`.

use std::time::{Duration, Instant};

use crate::candidate::CandidateSet;
#[cfg(doc)]
use crate::distance::DistanceDistribution;
use crate::verifiers::Verifier;

/// Mass below this threshold is treated as "no mass in the subregion"
/// (the paper's `U_k ∩ S_j ≠ ∅` membership test).
pub const MASS_EPS: f64 = 1e-12;

/// How much of a [`SubregionTable`] is filled; each level includes the
/// ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Columns {
    /// The end-points, the horizon column `D_i(fmin)` and the rightmost
    /// masses — what RS reads.
    #[default]
    Horizon,
    /// Also every [`coarse_stride`](SubregionTable::coarse_stride)-th cdf
    /// column — what the coarse SR-k stage reads.
    Coarse,
    /// Every cdf column, every `s_ij` and every `c_j`.
    All,
}

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
///
/// [`Self::build`] fills the whole table; a table kept in per-query
/// scratch is re-laid out per query ([`Self::layout`]) and filled as far as
/// its readers need ([`Self::fill`]), reusing its buffers. Reading a cell
/// that is not filled is a logic error (checked in debug builds).
#[derive(Debug, Clone, Default)]
pub struct SubregionTable {
    /// End-points `e_1 … e_{M}`; the last entry equals `fmin`. The *left*
    /// subregions are `S_j = [endpoints[j], endpoints[j+1]]` for
    /// `j ∈ 0 .. L` with `L = endpoints.len() − 1`; the rightmost subregion
    /// `[fmin, fmax]` is implicit.
    endpoints: Vec<f64>,
    n: usize,
    /// How much is filled.
    filled: Columns,
    /// `mass[i·L + j] = s_ij` (row-major by object).
    mass: Vec<f64>,
    /// `cdf[i·(L+1) + j] = D_i(e_j)` (row-major by object).
    cdf: Vec<f64>,
    /// `rightmost[i] = s_{i,M} = 1 − D_i(fmin)`.
    rightmost: Vec<f64>,
    /// `counts[j] = c_j`, the number of objects with `s_ij > MASS_EPS`.
    counts: Vec<usize>,
    /// Per member, the knots of its grid computed so far (empty for a
    /// histogram).
    knots: Vec<Vec<f64>>,
    /// Closed-form cdf evaluations since the last layout.
    cdf_evals: usize,
    /// Work buffers: the sorted breakpoints of a layout, the radii of a
    /// coarse fill, and a member's cdf values there.
    radii: Vec<f64>,
    values: Vec<f64>,
}

impl SubregionTable {
    /// Build the whole table for a candidate set (the "initialization" box
    /// of the verification framework, Fig. 5).
    pub fn build(candidates: &CandidateSet) -> Self {
        let mut table = Self::default();
        table.layout(candidates);
        table.fill(candidates, Columns::All);
        table
    }

    /// Lay the table out for `candidates`, reusing its buffers: the
    /// end-points and the horizon column ([`Columns::Horizon`]). Forgets
    /// every value and knot of the previous layout.
    pub fn layout(&mut self, candidates: &CandidateSet) {
        let n = candidates.len();
        // The last end-point is the candidate set's pruning horizon: fmin
        // for 1-NN, fmin_k for the k-NN extension. All formulas below are
        // stated in terms of it.
        let fmin = candidates.horizon();
        self.n = n;
        self.filled = Columns::Horizon;
        self.cdf_evals = 0;
        self.endpoints.clear();
        self.rightmost.clear();
        if n == 0 {
            return;
        }

        // Collect end-points: near points and pdf breakpoints below fmin.
        let pts = &mut self.radii;
        pts.clear();
        for m in candidates.members() {
            pts.extend(m.dist.breakpoints().take_while(|&b| b < fmin));
        }
        pts.push(fmin);
        // Each member's breakpoints are an ascending run, and a stable sort
        // merges runs; `total_cmp`-equal keys are bit-equal, so any sort
        // gives these values in this order.
        pts.sort_by(f64::total_cmp);
        let scale = fmin.abs().max(1.0);
        for &p in pts.iter() {
            match self.endpoints.last() {
                Some(&last) if p - last <= 1e-9 * scale => {}
                _ => self.endpoints.push(p),
            }
        }
        // Snap the final endpoint to exactly fmin (the merge above may have
        // absorbed it into a close neighbour).
        if let Some(last) = self.endpoints.last_mut() {
            *last = fmin;
        }
        let l = self.endpoints.len() - 1;
        let cols = l + 1;

        // Cells are written before they are read (`filled` guards), so the
        // buffer keeps whatever it held.
        self.cdf.resize(n * cols, 0.0);
        if self.knots.len() < n {
            self.knots.resize_with(n, Vec::new);
        }
        let mut value = [0.0];
        for (i, member) in candidates.members().iter().enumerate() {
            let knots = &mut self.knots[i];
            knots.clear();
            member
                .dist
                .cdf_many(&[fmin], &mut value, knots, &mut self.cdf_evals);
            self.cdf[i * cols + l] = value[0];
            self.rightmost.push((1.0 - value[0]).max(0.0));
        }
    }

    /// Fill the table for `candidates` — the set it was laid out for — up
    /// to `need`; a level already filled costs nothing.
    pub fn fill(&mut self, candidates: &CandidateSet, need: Columns) {
        debug_assert_eq!(candidates.len(), self.n, "fill for another set");
        if self.n == 0 || need <= self.filled {
            self.filled = self.filled.max(need);
            return;
        }
        let (n, l) = (self.n, self.left_regions());
        let cols = l + 1;
        let Self {
            endpoints,
            mass,
            cdf,
            counts,
            knots,
            cdf_evals,
            radii,
            values,
            ..
        } = self;
        let members = candidates.members();
        if need == Columns::Coarse {
            // Columns 0, s, 2s, … and L — the end-points the coarse SR-k
            // sweep visits — gathered into one ascending list.
            let stride = coarse_stride(l);
            radii.clear();
            radii.extend(endpoints.iter().step_by(stride).copied());
            if !l.is_multiple_of(stride) {
                radii.push(endpoints[l]);
            }
            values.resize(radii.len(), 0.0);
            for (i, member) in members.iter().enumerate() {
                member
                    .dist
                    .cdf_many(radii, values, &mut knots[i], cdf_evals);
                let row = &mut cdf[i * cols..(i + 1) * cols];
                for (t, &v) in values.iter().enumerate() {
                    row[(t * stride).min(l)] = v;
                }
            }
        } else {
            mass.resize(n * l, 0.0);
            counts.clear();
            counts.resize(l, 0);
            // One contiguous sweep over the end-points per member fills its
            // cdf row; its mass row is the clamped differences of that row.
            for (i, member) in members.iter().enumerate() {
                let row = &mut cdf[i * cols..(i + 1) * cols];
                member
                    .dist
                    .cdf_many(endpoints, row, &mut knots[i], cdf_evals);
                let masses = mass[i * l..(i + 1) * l].iter_mut();
                for ((s, pair), c) in masses.zip(row.windows(2)).zip(counts.iter_mut()) {
                    *s = (pair[1] - pair[0]).max(0.0);
                    *c += usize::from(*s > MASS_EPS);
                }
            }
        }
        self.filled = need;
    }

    /// How much of the table is filled.
    pub(crate) fn filled(&self) -> Columns {
        self.filled
    }

    /// Closed-form cdf evaluations (2-D knots) the table made since it was
    /// laid out; 0 for histogram members.
    pub fn cdf_evals(&self) -> usize {
        self.cdf_evals
    }

    /// The coarse SR-k stage's stride `⌈√L⌉`: it visits end-points
    /// `0, s, 2s, …` and `L`, the [`Columns::Coarse`] columns.
    pub fn coarse_stride(&self) -> usize {
        coarse_stride(self.left_regions())
    }

    /// Is cdf column `j` filled?
    fn has_column(&self, j: usize) -> bool {
        let l = self.left_regions();
        match self.filled {
            Columns::All => true,
            Columns::Coarse => j.is_multiple_of(coarse_stride(l)) || j == l,
            Columns::Horizon => j == l,
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

    /// Subregion probability `s_ij` for left region `j`.
    pub fn mass(&self, i: usize, j: usize) -> f64 {
        debug_assert_eq!(self.filled, Columns::All, "mass of a partial table");
        self.mass[i * self.left_regions() + j]
    }

    /// Distance cdf `D_i(e_j)` at end-point `j ∈ 0..=L`.
    pub fn cdf_at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(self.has_column(j), "cdf column {j} is not filled");
        self.cdf[i * self.endpoints.len() + j]
    }

    /// Contiguous cdf row `D_i(e_·)` of object `i`: element `j ∈ 0..=L` is
    /// `D_i(e_j)`.
    pub fn cdf_row(&self, i: usize) -> &[f64] {
        debug_assert_eq!(self.filled, Columns::All, "cdf row of a partial table");
        let cols = self.endpoints.len();
        &self.cdf[i * cols..(i + 1) * cols]
    }

    /// Contiguous mass row `s_i·` of object `i`: element `j ∈ 0..L` is
    /// `s_ij`.
    pub fn mass_row(&self, i: usize) -> &[f64] {
        debug_assert_eq!(self.filled, Columns::All, "mass row of a partial table");
        let l = self.left_regions();
        &self.mass[i * l..(i + 1) * l]
    }

    /// Rightmost-subregion probability `s_{iM} = 1 − D_i(fmin)`.
    pub fn rightmost(&self, i: usize) -> f64 {
        self.rightmost[i]
    }

    /// `c_j`: number of objects with non-zero mass in left region `j`.
    pub fn count(&self, j: usize) -> usize {
        debug_assert_eq!(self.filled, Columns::All, "count of a partial table");
        self.counts[j]
    }

    /// `fmin` (the last end-point).
    pub fn fmin(&self) -> f64 {
        *self.endpoints.last().expect("non-empty table")
    }
}

/// `⌈√L⌉`: groups of this many columns make about as many groups as a
/// group has columns. Fewer groups leave more objects to the fine stage,
/// more groups cost more tails; the sum is flat from about half to twice
/// this stride (the stride sweep recorded in CHANGES.md), so it needs no
/// tuning.
fn coarse_stride(left_regions: usize) -> usize {
    ((left_regions as f64).sqrt().ceil() as usize).max(1)
}

/// Where a verifier chain reads its table from
/// ([`crate::framework::run_verification_into`]): a table filled already
/// (`&SubregionTable`, checked in debug builds), or one filled as the
/// stages need it (`FillOnDemand`).
pub trait TableSource {
    /// The table with at least the columns `stage` reads
    /// ([`Verifier::columns`]) filled.
    fn for_stage(&mut self, stage: &dyn Verifier) -> &SubregionTable;
}

impl TableSource for &SubregionTable {
    fn for_stage(&mut self, stage: &dyn Verifier) -> &SubregionTable {
        debug_assert!(
            self.filled() >= stage.columns(self),
            "{} reads columns the table does not have",
            stage.name()
        );
        self
    }
}

impl<S: TableSource + ?Sized> TableSource for &mut S {
    fn for_stage(&mut self, stage: &dyn Verifier) -> &SubregionTable {
        (**self).for_stage(stage)
    }
}

/// A laid-out table and its candidate set, filled on demand — what the
/// pipeline hands the verifier chain, and then refinement
/// ([`Self::filled`]).
#[derive(Debug)]
pub(crate) struct FillOnDemand<'a> {
    table: &'a mut SubregionTable,
    candidates: &'a CandidateSet,
    /// Time spent filling so far.
    fill_time: Duration,
}

impl<'a> FillOnDemand<'a> {
    /// `table` must be laid out for `candidates` ([`SubregionTable::layout`]).
    pub(crate) fn new(table: &'a mut SubregionTable, candidates: &'a CandidateSet) -> Self {
        Self {
            table,
            candidates,
            fill_time: Duration::ZERO,
        }
    }

    /// The table, filled at least to `need`.
    pub(crate) fn filled(&mut self, need: Columns) -> &SubregionTable {
        if need > self.table.filled() {
            let start = Instant::now();
            self.table.fill(self.candidates, need);
            self.fill_time += start.elapsed();
        }
        self.table
    }

    /// Time the fills took so far.
    pub(crate) fn fill_time(&self) -> Duration {
        self.fill_time
    }
}

impl TableSource for FillOnDemand<'_> {
    fn for_stage(&mut self, stage: &dyn Verifier) -> &SubregionTable {
        let need = stage.columns(self.table);
        self.filled(need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fig7_scenario;
    use cpnn_pdf::Pdf as _;

    #[test]
    fn endpoints_match_hand_construction() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        // Near points {1, 2, 4}, breakpoint of X1's pdf at 3, fmin = 6.
        assert_eq!(t.endpoints(), &[1.0, 2.0, 3.0, 4.0, 6.0]);
        assert_eq!(t.left_regions(), 4);
        assert_eq!(t.subregion_count(), 5); // the paper's M
        assert_eq!(t.fmin(), 6.0);
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

    /// Inside a left region every distance cdf is linear, so the cell
    /// pair `(D_i(e_j), s_ij)` determines it: `D_i(e_j + t·w_j) =
    /// D_i(e_j) + t·s_ij` for every `t ∈ [0, 1]`.
    #[test]
    fn cdf_interp_is_linear_within_regions() {
        let (cands, _) = fig7_scenario();
        let t = SubregionTable::build(&cands);
        let e = t.endpoints();
        // D2 halfway through S4 = [4, 6]: 0.5 + 0.5·0.5 = 0.75.
        assert!((t.cdf_at(1, 3) + 0.5 * t.mass(1, 3) - 0.75).abs() < 1e-12);
        for (i, m) in cands.members().iter().enumerate() {
            for j in 0..4 {
                for step in 0..=4 {
                    let frac = step as f64 / 4.0;
                    let r = e[j] + frac * (e[j + 1] - e[j]);
                    let linear = t.cdf_at(i, j) + frac * t.mass(i, j);
                    assert!(
                        (linear - m.dist.histogram().cdf(r)).abs() < 1e-12,
                        "D{i}({r})"
                    );
                }
            }
        }
    }

    /// The row sweep against the scalar pdf: every cdf cell is bit-equal to
    /// `dist.histogram().cdf(e_j)`, every mass cell to the clamped difference of those,
    /// the rightmost mass to `1 − D_i(fmin)` clamped, and `count(j)` to a
    /// scan of column `j`.
    fn assert_build_matches_pointwise_cdf(cands: &crate::candidate::CandidateSet) {
        let t = SubregionTable::build(cands);
        let l = t.left_regions();
        let bits = |x: f64| x.to_bits();
        for (i, member) in cands.members().iter().enumerate() {
            let cdf = |j: usize| member.dist.histogram().cdf(t.endpoint(j));
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
