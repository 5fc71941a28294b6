//! Anatomy of a verification run: watch the probability bounds tighten
//! verifier by verifier, then collapse under incremental refinement.
//!
//! Reproduces, step by step, the flow of paper Figs. 5 and 7 on a small
//! hand-built candidate set.
//!
//! Run with: `cargo run --example verifier_anatomy`

use cpnn::core::classify::Label;
use cpnn::core::exact::exact_probabilities;
use cpnn::core::framework::classify_all;
use cpnn::core::refine::{incremental_refine, RefinementOrder};
use cpnn::core::verifiers::{
    LowerSubregion, RightmostSubregion, UpperSubregion, VerificationState, Verifier,
};
use cpnn::core::{CandidateSet, Classifier, ObjectId, SubregionTable, UncertainObject};
use cpnn::pdf::HistogramPdf;

fn show(state: &VerificationState, stage: &str) {
    println!("after {stage}:");
    for (i, (b, l)) in state.bounds.iter().zip(&state.labels).enumerate() {
        println!("  X{} : bound {} → {:?}", i + 1, b, l);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three overlapping objects, q = 0 (distances = values).
    let objects = vec![
        UncertainObject::from_histogram(
            ObjectId(1),
            HistogramPdf::from_masses(vec![1.0, 3.0, 7.0], vec![0.3, 0.7])?,
        ),
        UncertainObject::uniform(ObjectId(2), 2.0, 6.0)?,
        UncertainObject::uniform(ObjectId(3), 4.0, 8.0)?,
    ];
    let q = 0.0;
    let cands = CandidateSet::build(&objects, q, 0)?;
    let table = SubregionTable::build(&cands);

    println!(
        "candidate set |C| = {}, fmin = {}",
        cands.len(),
        table.fmin()
    );
    println!("end-points: {:?}", table.endpoints());
    println!("subregion probabilities s_ij (left regions):");
    for i in 0..table.n_objects() {
        let row: Vec<String> = (0..table.left_regions())
            .map(|j| format!("{:.3}", table.mass(i, j)))
            .collect();
        println!(
            "  X{}: [{}] + rightmost {:.3}",
            i + 1,
            row.join(", "),
            table.rightmost(i)
        );
    }
    println!(
        "c_j (objects per subregion): {:?}\n",
        (0..table.left_regions())
            .map(|j| table.count(j))
            .collect::<Vec<_>>()
    );

    // C-PNN with an awkward threshold that forces every stage to work.
    let classifier = Classifier::new(0.45, 0.0)?;
    let mut state = VerificationState::new(&table);

    // The pipeline's order: U-SR, which also keeps Pr[F] as a lower
    // bound, before L-SR.
    for verifier in [
        Box::new(RightmostSubregion) as Box<dyn Verifier>,
        Box::new(UpperSubregion),
        Box::new(LowerSubregion),
    ] {
        verifier.apply(&table, &mut state);
        classify_all(&classifier, &mut state);
        show(&state, verifier.name());
    }

    let unknowns = state
        .labels
        .iter()
        .filter(|&&l| l == Label::Unknown)
        .count();
    println!("\n{unknowns} object(s) still unknown → incremental refinement");
    let report = incremental_refine(
        &table,
        &classifier,
        &mut state,
        RefinementOrder::DescendingMass,
    );
    show(&state, "refinement");
    println!(
        "refined {} object(s) with {} per-subregion integrations",
        report.refined_objects, report.integrations
    );

    let (exact, _) = exact_probabilities(&table);
    println!("\nexact probabilities for reference:");
    for (i, p) in exact.iter().enumerate() {
        println!("  X{}: {:.4}", i + 1, p);
    }
    Ok(())
}
