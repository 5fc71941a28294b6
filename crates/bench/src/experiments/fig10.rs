//! Fig. 10 — *Time vs. threshold P* for Basic / Refine / VR.
//!
//! Paper shape: both Refine and VR beat Basic everywhere; at P = 0.3 the
//! costs of Refine and VR are ~80% and ~16% of Basic; VR is ~5× faster than
//! Refine at P = 0.3 and ~40× at P = 0.7.
//!
//! The figure is about time; the integrations each strategy ran are the
//! work behind it.

use cpnn_core::Strategy;

use crate::experiments::{longbeach_db, threshold_sweep, workload_queries, DEFAULT_DELTA};
use crate::harness::run_queries;
use crate::report::{key, measured, ms, work, Table};

/// Run the experiment. One row per threshold; three timing series, the
/// headline ratios, and the integrations behind each series.
pub fn run(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 10",
        "query time vs. threshold P (Basic / Refine / VR)",
        &[
            key("P"),
            measured("Basic (ms)"),
            measured("Refine (ms)"),
            measured("VR (ms)"),
            measured("VR/Basic"),
            measured("Refine/VR"),
            work("Basic integ."),
            work("Refine integ."),
            work("VR integ."),
        ],
    );
    table.note("paper: VR ≈ 16% of Basic at P=0.3; VR 5× faster than Refine at 0.3, 40× at 0.7");
    for p in threshold_sweep() {
        let basic = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Basic);
        let refine = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::RefineOnly);
        let vr = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Verified);
        let vr_over_basic = vr.avg_total.as_secs_f64() / basic.avg_total.as_secs_f64().max(1e-12);
        let refine_over_vr = refine.avg_total.as_secs_f64() / vr.avg_total.as_secs_f64().max(1e-12);
        table.push_row(vec![
            format!("{p:.1}"),
            ms(basic.avg_total),
            ms(refine.avg_total),
            ms(vr.avg_total),
            format!("{vr_over_basic:.3}"),
            format!("{refine_over_vr:.1}"),
            format!("{:.1}", basic.avg_integrations),
            format!("{:.1}", refine.avg_integrations),
            format!("{:.1}", vr.avg_integrations),
        ]);
    }
    table
}
