//! Shared test fixtures (compiled only for tests).
//!
//! The main fixture mirrors the structure of paper Fig. 7: three candidates
//! whose distance pdfs overlap in a staircase of subregions. With `q = 0`
//! and all regions on the positive axis, each object's distance distribution
//! *is* its uncertainty pdf, so every expected number below can be derived
//! by hand (and was; see the comments).

use cpnn_pdf::HistogramPdf;

use crate::candidate::CandidateSet;
use crate::classify::Classifier;
use crate::framework::{default_verifiers, run_verification_into, StageReport};
use crate::object::{ObjectId, UncertainObject};
use crate::subregion::SubregionTable;
use crate::verifiers::VerificationState;

/// Hand-analyzed three-object scenario.
///
/// * `X1`: histogram pdf, mass 0.3 on `[1, 3]`, 0.7 on `[3, 7]`
/// * `X2`: uniform on `[2, 6]`
/// * `X3`: uniform on `[4, 8]`
/// * query `q = 0`, so `R_i = X_i`; `fmin = 6`, `fmax = 8`.
///
/// End-points: `[1, 2, 3, 4, 6]`; left subregions `S1..S4`; rightmost
/// `[6, 8]`.
///
/// Hand-computed ground truth (see the subregion/verifier/exact tests):
/// * masses: X1 `[.15, .15, .175, .35]` + rightmost `.175`;
///   X2 `[0, .25, .25, .5]` + `0`; X3 `[0, 0, 0, .5]` + `.5`
/// * counts `c = [1, 2, 2, 3]`
/// * RS upper bounds: `[.825, 1, .5]`
/// * L-SR lower bounds: `p.l = [0.3489583, 0.28125, 0.04375]`
/// * U-SR upper bounds: `p.u = [0.478125, 0.5, 0.065625]`; its `Pr[F]`
///   lower bounds: `p.l = [0.35, 0.35, 0]`
/// * exact probabilities: `[0.4635417, 0.4854167, 0.0510417]` (sum = 1)
pub(crate) fn fig7_scenario() -> (CandidateSet, Vec<UncertainObject>) {
    let x1 = UncertainObject::from_histogram(
        ObjectId(1),
        HistogramPdf::from_masses(vec![1.0, 3.0, 7.0], vec![0.3, 0.7]).unwrap(),
    );
    let x2 = UncertainObject::uniform(ObjectId(2), 2.0, 6.0).unwrap();
    let x3 = UncertainObject::uniform(ObjectId(3), 4.0, 8.0).unwrap();
    let objects = vec![x1, x2, x3];
    let cands = CandidateSet::build(&objects, 0.0, 0).unwrap();
    (cands, objects)
}

/// Exact qualification probabilities of [`fig7_scenario`], computed
/// analytically (piecewise-polynomial integration by hand).
pub(crate) fn fig7_exact() -> [f64; 3] {
    [
        0.463_541_666_666_666_7,
        0.485_416_666_666_666_7,
        0.051_041_666_666_666_67,
    ]
}

/// Paper Fig. 2 scenario: four uncertain objects with qualification
/// probabilities A ≈ 20%, B ≈ 41%, C ≈ 10%, D ≈ 29%.
///
/// The geometry was solved for analytically: with `q = 0` and all four
/// regions starting at 1, `p_i = ∫ f_i Π_{k≠i}(1 − F_k)` evaluates to
/// approximately (19%, 41%, 11%, 29%) for widths (7, 4, 11, 5) — matching
/// the paper's rounded percentages.
pub(crate) fn fig2_scenario() -> (Vec<UncertainObject>, f64) {
    let a = UncertainObject::uniform(ObjectId(0), 1.0, 8.0).unwrap();
    let b = UncertainObject::uniform(ObjectId(1), 1.0, 5.0).unwrap();
    let c = UncertainObject::uniform(ObjectId(2), 1.0, 12.0).unwrap();
    let d = UncertainObject::uniform(ObjectId(3), 1.0, 6.0).unwrap();
    (vec![a, b, c, d], 0.0)
}

/// The default 1-NN chain (RS, U-SR, L-SR) over a filled table, from
/// fresh state: the final state and the per-stage reports.
pub(crate) fn run_default_chain(
    table: &SubregionTable,
    classifier: &Classifier,
) -> (VerificationState, Vec<StageReport>) {
    let mut state = VerificationState::new(table);
    let mut stages = Vec::new();
    run_verification_into(
        table,
        classifier,
        &default_verifiers(),
        &mut state,
        &mut stages,
    );
    (state, stages)
}
