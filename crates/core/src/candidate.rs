//! The candidate set: objects surviving the filtering phase, with their
//! distance distributions, sorted by near point (paper Sec. IV-A: "sort
//! these objects in the ascending order of their near points").

use crate::distance::DistanceDistribution;
use crate::error::Result;
use crate::object::{ObjectId, UncertainObject};

/// The k-NN pruning horizon: the `k`-th smallest far point (`fmin` for
/// `k = 1`) — objects whose near point exceeds it cannot be among the `k`
/// nearest (the largest far point when fewer than `k`). Reorders `fars`
/// in place — a selection, not a sort: only the order statistic is
/// placed — and returns `INFINITY` when empty. Shared by the candidate set
/// and every [`crate::pipeline::DistanceModel`] filter that pre-prunes with
/// exact region distances.
pub(crate) fn k_horizon(fars: &mut [f64], k: usize) -> f64 {
    if fars.is_empty() {
        return f64::INFINITY;
    }
    let rank = k.max(1).min(fars.len()) - 1;
    *fars.select_nth_unstable_by(rank, f64::total_cmp).1
}

/// One candidate: an object id plus its distance distribution w.r.t. the
/// query point.
#[derive(Debug, Clone)]
pub struct CandidateMember {
    /// The object's id.
    pub id: ObjectId,
    /// Distribution of `Ri = |Xi − q|`.
    pub dist: DistanceDistribution,
}

/// The candidate set `C` for a query point `q`, ordered by near point.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    members: Vec<CandidateMember>,
    /// Pruning horizon: `fmin` for 1-NN, the `k`-th smallest far point for
    /// the k-NN extension.
    horizon: f64,
}

impl CandidateSet {
    /// Build the candidate set from `objects` for query point `q`.
    ///
    /// Objects whose near point exceeds `fmin` are dropped here as a safety
    /// net (the R-tree filter normally already pruned them — the pruning
    /// rule is identical, so this is a no-op after filtering).
    ///
    /// `max_distance_bins`, when non-zero, re-bins each distance pdf onto at
    /// most that many bars (see `DistanceDistribution::with_max_bins`).
    pub fn build<'a, I>(objects: I, q: f64, max_distance_bins: usize) -> Result<Self>
    where
        I: IntoIterator<Item = &'a UncertainObject>,
    {
        Self::build_k(objects, q, max_distance_bins, 1)
    }

    /// k-NN generalization: keep every object whose near point is within
    /// `fmin_k`, the `k`-th smallest far point (objects beyond it cannot be
    /// among the `k` nearest).
    pub fn build_k<'a, I>(objects: I, q: f64, max_distance_bins: usize, k: usize) -> Result<Self>
    where
        I: IntoIterator<Item = &'a UncertainObject>,
    {
        let mut members: Vec<CandidateMember> = Vec::new();
        for obj in objects {
            let dist =
                DistanceDistribution::from_pdf(obj.pdf(), q)?.with_max_bins(max_distance_bins)?;
            members.push(CandidateMember { id: obj.id(), dist });
        }
        Ok(Self::assemble(members, k))
    }

    /// Assemble a candidate set directly from distance distributions —
    /// the entry point for non-1-D uncertainty (e.g. 2-D circular regions),
    /// whose verifier machinery only ever sees distances (paper Sec. IV-A:
    /// "our solution only needs distance pdfs and cdfs").
    pub fn from_distances(items: Vec<(ObjectId, DistanceDistribution)>, k: usize) -> Self {
        let members = items
            .into_iter()
            .map(|(id, dist)| CandidateMember { id, dist })
            .collect();
        Self::assemble(members, k)
    }

    fn assemble(mut members: Vec<CandidateMember>, k: usize) -> Self {
        let mut fars: Vec<f64> = members.iter().map(|m| m.dist.far()).collect();
        let horizon = k_horizon(&mut fars, k);
        members.retain(|m| m.dist.near() <= horizon);
        // Tie-break equal near points by id: candidate order (and with it
        // report order) is then independent of how the survivors arrived —
        // R-tree emission order and sharded merge order give the same set.
        members.sort_by(|a, b| {
            a.dist
                .near()
                .total_cmp(&b.dist.near())
                .then(a.id.cmp(&b.id))
        });
        Self { members, horizon }
    }

    /// Candidates in ascending near-point order.
    pub fn members(&self) -> &[CandidateMember] {
        &self.members
    }

    /// Number of candidates `|C|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Is the candidate set empty?
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The pruning horizon: `fmin` for 1-NN candidate sets, `fmin_k` for
    /// k-NN candidate sets. Subregions are built up to this distance.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u64, lo: f64, hi: f64) -> UncertainObject {
        UncertainObject::uniform(ObjectId(id), lo, hi).unwrap()
    }

    #[test]
    fn members_sorted_by_near_point() {
        let objects = vec![obj(0, 8.0, 12.0), obj(1, 1.0, 4.0), obj(2, 4.5, 6.0)];
        let c = CandidateSet::build(&objects, 5.0, 0).unwrap();
        let nears: Vec<f64> = c.members().iter().map(|m| m.dist.near()).collect();
        for w in nears.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // q = 5 is inside object 2: its near point is 0.
        assert_eq!(c.members()[0].id, ObjectId(2));
    }

    #[test]
    fn fmin_and_fmax_are_extremes_of_far_points() {
        let objects = vec![obj(0, 0.0, 2.0), obj(1, 1.0, 5.0)];
        let c = CandidateSet::build(&objects, 0.0, 0).unwrap();
        assert_eq!(c.horizon(), 2.0);
        let fmax = c
            .members()
            .iter()
            .map(|m| m.dist.far())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(fmax, 5.0);
    }

    #[test]
    fn hopeless_objects_are_dropped() {
        // Object 1's nearest possible distance (8) exceeds fmin (= 2).
        let objects = vec![obj(0, 0.0, 2.0), obj(1, 8.0, 9.0)];
        let c = CandidateSet::build(&objects, 0.0, 0).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.members()[0].id, ObjectId(0));
    }

    #[test]
    fn empty_input_gives_empty_set() {
        let c = CandidateSet::build(std::iter::empty(), 0.0, 0).unwrap();
        assert!(c.is_empty());
    }
}
