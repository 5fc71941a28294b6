//! 2-D uncertainty: ride-hailing dispatch with circular uncertainty
//! regions.
//!
//! The paper's machinery "only needs distance pdfs and cdfs", so it extends
//! to 2-D by deriving those from 2-D regions (Sec. IV-A, after [8]). Here
//! each driver's position is a uniform disk (last GPS fix + drift bound);
//! the distance cdf from a rider is a closed-form lens-area ratio, and the
//! verifiers run unchanged on top.
//!
//! Run with: `cargo run --example spatial_2d`

use cpnn::core::{Object2d, ObjectId, UncertainDb2d};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 120 drivers scattered over a 10 km × 10 km city grid (meters).
    let mut rng = StdRng::seed_from_u64(314);
    let drivers: Vec<Object2d> = (0..120)
        .map(|i| {
            let center = [rng.gen_range(0.0..10_000.0), rng.gen_range(0.0..10_000.0)];
            let drift = rng.gen_range(40.0..400.0); // staleness-dependent
            Object2d::circle(ObjectId(i), center, drift).expect("valid circle")
        })
        .collect();
    let db = UncertainDb2d::build(drivers.clone())?;

    let rider = [5_000.0, 5_000.0];
    println!("Rider at {rider:?}. Who is most likely the nearest driver?\n");

    // Exact probabilities for the contenders.
    let pnn = db.pnn(rider)?;
    println!("PNN probabilities (nonzero candidates):");
    for (id, p) in pnn.probabilities.iter().filter(|(_, p)| *p > 1e-6) {
        let Object2d::Circle(d) = &drivers[id.0 as usize] else {
            unreachable!("every driver is a disk")
        };
        let dx = d.center[0] - rider[0];
        let dy = d.center[1] - rider[1];
        println!(
            "  driver {id}: {:5.1}%  (center distance {:6.0} m, drift ±{:3.0} m)",
            100.0 * p,
            (dx * dx + dy * dy).sqrt(),
            d.radius
        );
    }

    // Constrained query: dispatch candidates with ≥ 30% confidence.
    let res = db.cpnn(rider, 0.30, 0.01)?;
    println!(
        "\nC-PNN (P = 30%): {} candidate(s) after filtering, answers {:?}",
        res.stats.candidates, res.answers
    );
    println!(
        "verifiers resolved the query without integration: {}",
        res.stats.resolved_by_verification
    );
    for r in res.reports.iter().filter(|r| r.bound.hi() > 0.05) {
        println!("  driver {}: bound {} → {:?}", r.id, r.bound, r.label);
    }
    Ok(())
}
