//! Fig. 11 — *Analysis of VR*: per-phase breakdown (filtering,
//! verification, refinement) across thresholds.
//!
//! Paper shape: filtering time is constant; verification is small (~1 ms)
//! and roughly constant; refinement shrinks as P grows and vanishes for
//! P > 0.3.

use cpnn_core::Strategy;

use crate::experiments::{longbeach_db, workload_queries, DEFAULT_DELTA};
use crate::harness::run_queries;
use crate::report::{key, measured, ms, work, Table};

/// Run the experiment. Verification is reported as init + verifier passes
/// (the paper's Fig. 5 counts initialization as part of verification).
pub fn run(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 11",
        "VR phase breakdown vs. threshold",
        &[
            key("P"),
            measured("filter (ms)"),
            measured("verify (ms)"),
            measured("refine (ms)"),
            work("refined integ."),
            work("resolved by verif."),
        ],
    );
    table.note("paper: verification ≈ 1 ms; refinement → 0 for P > 0.3");
    for p in [0.0f64, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let p = p.max(0.05); // threshold must be > 0
        let s = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Verified);
        table.push_row(vec![
            format!("{p:.2}"),
            ms(s.avg_filter),
            ms(s.avg_init + s.avg_verify),
            ms(s.avg_refine),
            format!("{:.1}", s.avg_integrations),
            format!("{:.2}", s.resolved_fraction),
        ]);
    }
    table
}
