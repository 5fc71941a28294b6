//! Table III — verifier complexities, checked empirically.
//!
//! The paper states RS costs `O(|C|)` while L-SR and U-SR cost `O(|C|·M)`,
//! and that verification as a whole (`O(|C|(log|C| + M))`) is far cheaper
//! than exact evaluation (`O(|C|²·M)`). We time each verifier in isolation
//! on candidate sets of controlled size and report the scaling, with the
//! integrations exact evaluation runs (`|C|·(|C|+1)/2` here) as its work.

use std::time::{Duration, Instant};

use cpnn_core::verifiers::{
    LowerSubregion, RightmostSubregion, UpperSubregion, VerificationState, Verifier,
};
use cpnn_core::{CandidateSet, ObjectId, SubregionTable, UncertainObject};

use crate::report::{key, measured, ms, work, Table};

/// Build a candidate set of exactly `c` mutually overlapping objects.
fn candidate_set(c: usize) -> CandidateSet {
    // Intervals [i·δ, W + i·δ] all containing the query point 0..W.
    let objects: Vec<UncertainObject> = (0..c)
        .map(|i| {
            let lo = 1.0 + 0.05 * i as f64;
            UncertainObject::uniform(ObjectId(i as u64), lo, lo + 50.0).expect("valid region")
        })
        .collect();
    CandidateSet::build(&objects, 0.0, 0).expect("valid candidate set")
}

fn time_verifier(v: &dyn Verifier, table: &SubregionTable, reps: usize) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let mut state = VerificationState::new(table);
        let start = Instant::now();
        v.apply(table, &mut state);
        total += start.elapsed();
    }
    total / reps as u32
}

/// Run the scaling experiment.
pub fn run(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick {
        vec![16, 32, 64, 128]
    } else {
        vec![16, 32, 64, 128, 256, 512]
    };
    let reps = if quick { 20 } else { 50 };
    let mut table = Table::new(
        "Table III",
        "verifier cost scaling with |C| (and M)",
        &[
            key("|C|"),
            work("M"),
            measured("RS (ms)"),
            measured("L-SR (ms)"),
            measured("U-SR (ms)"),
            measured("exact eval (ms)"),
            work("exact integ."),
        ],
    );
    table.note("paper: RS = O(|C|); L-SR, U-SR = O(|C|·M); exact = O(|C|²·M)");
    for &c in &sizes {
        let cands = candidate_set(c);
        let sub = SubregionTable::build(&cands);
        let rs = time_verifier(&RightmostSubregion, &sub, reps);
        let lsr = time_verifier(&LowerSubregion, &sub, reps);
        let usr = time_verifier(&UpperSubregion, &sub, reps);
        let exact_start = Instant::now();
        let (_, exact_integrations) = cpnn_core::exact::exact_probabilities(&sub);
        let exact = exact_start.elapsed();
        table.push_row(vec![
            c.to_string(),
            sub.subregion_count().to_string(),
            ms(rs),
            ms(lsr),
            ms(usr),
            ms(exact),
            exact_integrations.to_string(),
        ]);
    }
    table
}
