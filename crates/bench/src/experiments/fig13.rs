//! Fig. 13 — *Effect of tolerance Δ*: fraction of queries fully resolved by
//! verification (no refinement needed) as Δ grows.
//!
//! Paper shape: monotone increase; ~10% more queries finish at Δ = 0.16
//! than at Δ = 0.

use cpnn_core::Strategy;

use crate::experiments::{longbeach_db, workload_queries};
use crate::harness::run_queries;
use crate::report::{frac, key, measured, ms, work, Table};

/// Threshold for the tolerance sweep.
///
/// The paper runs this at its default P = 0.3; our verifiers (with exact
/// full-candidate products) already resolve 100% of queries there, which
/// would make the sweep a flat line. P = 0.1 is the regime where our
/// verification leaves queries unfinished (~73% resolved at Δ = 0), i.e.
/// the regime the paper's Fig. 13 actually probes. Documented in
/// the table note.
const SWEEP_P: f64 = 0.1;

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 13",
        "queries finished after verification vs. tolerance Δ",
        &[
            key("Δ"),
            work("finished fraction"),
            measured("VR time (ms)"),
            work("avg refine integ."),
        ],
    );
    table.note("paper: ≈10% more queries complete at Δ = 0.16 than at Δ = 0");
    table.note(format!(
        "run at P = {SWEEP_P}, below the paper's default 0.3: the regime where \
         our verifiers leave queries unfinished, so the tolerance sweep has \
         something to resolve (see the SWEEP_P doc comment)"
    ));
    for delta in [0.0, 0.04, 0.08, 0.12, 0.16, 0.2] {
        let s = run_queries(&db, &queries, SWEEP_P, delta, Strategy::Verified);
        table.push_row(vec![
            format!("{delta:.2}"),
            frac(s.resolved_fraction),
            ms(s.avg_total),
            format!("{:.1}", s.avg_integrations),
        ]);
    }
    table
}
