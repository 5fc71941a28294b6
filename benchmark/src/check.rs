//! The correctness check that rides along with every measured run.
//!
//! Answers are checked for *soundness* against exact probabilities
//! (`pipeline::pnn`), not for bit-equality with today's output, so a later
//! PR may change the algorithm — but not return a wrong answer
//! (Definition 1 of the paper): every returned object has exact
//! probability ≥ P − Δ, and every candidate left out has exact
//! probability < P.

use cpnn_core::pipeline::pnn;
use cpnn_core::{DistanceModel, ObjectId, QuerySpec};

/// Slack for the exact oracle's own quadrature error.
const EPS: f64 = 1e-6;

/// Number of Definition-1 violations in one answer set, given the exact
/// probability of every candidate (objects absent from `exact` have
/// probability 0).
pub fn violations(answers: &[ObjectId], exact: &[(ObjectId, f64)], spec: &QuerySpec) -> usize {
    let p_of = |id: &ObjectId| exact.iter().find(|(e, _)| e == id).map_or(0.0, |&(_, p)| p);
    let wrongly_returned = answers
        .iter()
        .filter(|id| p_of(id) < spec.threshold - spec.tolerance - EPS)
        .count();
    let wrongly_dropped = exact
        .iter()
        .filter(|(id, p)| *p >= spec.threshold + EPS && !answers.contains(id))
        .count();
    wrongly_returned + wrongly_dropped
}

/// Check the sampled queries of a run; returns how many of them hold an
/// unsound answer set (or could not be checked at all).
pub fn unsound_queries<M: DistanceModel>(
    model: &M,
    points: &[M::Query],
    answers: &[Vec<ObjectId>],
    sample: &[usize],
    spec: &QuerySpec,
) -> usize {
    sample
        .iter()
        .filter(|&&i| match pnn(model, &points[i], spec.k) {
            Ok(exact) => violations(&answers[i], &exact.probabilities, spec) > 0,
            Err(_) => true,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_core::pipeline::cpnn;
    use cpnn_core::{PipelineConfig, Strategy, UncertainDb, UncertainObject};

    fn spec() -> QuerySpec {
        QuerySpec::nn(0.3, 0.01, Strategy::Verified)
    }

    fn exact() -> Vec<(ObjectId, f64)> {
        vec![
            (ObjectId(1), 0.55),
            (ObjectId(2), 0.295),
            (ObjectId(3), 0.15),
            (ObjectId(4), 0.005),
        ]
    }

    #[test]
    fn accepts_every_answer_set_definition_1_allows() {
        // Object 2 sits in the tolerance band [P − Δ, P): either verdict
        // is sound.
        assert_eq!(violations(&[ObjectId(1)], &exact(), &spec()), 0);
        assert_eq!(
            violations(&[ObjectId(1), ObjectId(2)], &exact(), &spec()),
            0
        );
    }

    #[test]
    fn rejects_an_answer_below_threshold_minus_tolerance() {
        assert_eq!(
            violations(&[ObjectId(1), ObjectId(3)], &exact(), &spec()),
            1
        );
        // An id that is not even a candidate has probability 0.
        assert_eq!(
            violations(&[ObjectId(1), ObjectId(9)], &exact(), &spec()),
            1
        );
    }

    #[test]
    fn rejects_a_dropped_answer_at_or_above_threshold() {
        assert_eq!(violations(&[], &exact(), &spec()), 1);
        assert_eq!(violations(&[ObjectId(2)], &exact(), &spec()), 1);
    }

    #[test]
    fn real_pipeline_answers_pass_and_tampered_ones_fail() {
        let db = UncertainDb::build(
            (0..40)
                .map(|i| {
                    let lo = f64::from(i) * 1.5;
                    UncertainObject::uniform(ObjectId(i as u64), lo, lo + 4.0).unwrap()
                })
                .collect(),
        )
        .unwrap();
        let points = [3.0, 17.2, 30.9, 58.0];
        let spec = spec();
        let mut answers: Vec<Vec<ObjectId>> = points
            .iter()
            .map(|q| {
                cpnn(&db, q, &spec, &PipelineConfig::default())
                    .unwrap()
                    .answers
            })
            .collect();
        let sample = [0, 1, 2, 3];
        assert_eq!(unsound_queries(&db, &points, &answers, &sample, &spec), 0);
        assert!(
            !answers[1].is_empty(),
            "fixture query has an answer to drop"
        );
        answers[1].clear();
        answers[2].push(ObjectId(39));
        assert_eq!(unsound_queries(&db, &points, &answers, &sample, &spec), 2);
    }
}
