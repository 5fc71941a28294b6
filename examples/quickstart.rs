//! Quickstart: the paper's Figure 2 scenario.
//!
//! Four uncertain objects A–D around a query point. A plain PNN returns
//! every object's qualification probability; a C-PNN with threshold P and
//! tolerance Δ returns only the confident answers — much cheaper to compute.
//!
//! Run with: `cargo run --example quickstart`

use cpnn::core::{CpnnQuery, ObjectId, Strategy, UncertainDb, UncertainObject};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four uncertain objects (uniform pdfs), mimicking paper Fig. 2 where
    // B ≈ 41%, D ≈ 29%, A ≈ 20%, C ≈ 10%.
    let objects = vec![
        UncertainObject::uniform(ObjectId(0), 1.0, 8.0)?, // A
        UncertainObject::uniform(ObjectId(1), 1.0, 5.0)?, // B
        UncertainObject::uniform(ObjectId(2), 1.0, 12.0)?, // C
        UncertainObject::uniform(ObjectId(3), 1.0, 6.0)?, // D
    ];
    let names = ["A", "B", "C", "D"];
    let db = UncertainDb::build(objects)?;
    let q = 0.0;

    // --- Plain PNN: every probability, computed exactly. -----------------
    let pnn = db.pnn(q)?;
    println!("PNN at q = {q}: qualification probabilities");
    for (id, p) in &pnn.probabilities {
        println!("  {:>2} ({}): {:5.1}%", id, names[id.0 as usize], 100.0 * p);
    }

    // --- C-PNN: only objects with probability ≥ 30% (tolerance 2%). ------
    let query = CpnnQuery::new(q, 0.30, 0.02);
    let result = db.cpnn(&query, Strategy::Verified)?;
    println!("\nC-PNN (P = 30%, Δ = 2%) answers:");
    for id in &result.answers {
        println!("  {} ({})", id, names[id.0 as usize]);
    }
    println!("\nPer-candidate verdicts:");
    for r in &result.reports {
        println!(
            "  {} ({}): bound {} → {:?}",
            r.id, names[r.id.0 as usize], r.bound, r.label
        );
    }
    println!(
        "\nresolved by verifiers alone: {} (refined {} object(s), {} integrations)",
        result.stats.resolved_by_verification,
        result.stats.refined_objects,
        result.stats.integrations,
    );

    // --- The same query with every strategy gives the same answers. ------
    for (name, strategy) in [
        ("Basic      ", Strategy::Basic),
        ("Refine-only", Strategy::RefineOnly),
        ("Verified   ", Strategy::Verified),
    ] {
        let res = db.cpnn(&query, strategy)?;
        let answers: Vec<String> = res
            .answers
            .iter()
            .map(|id| names[id.0 as usize].to_string())
            .collect();
        println!(
            "{name} -> answers {:?} in {:?}",
            answers,
            res.stats.total_time()
        );
    }
    Ok(())
}
