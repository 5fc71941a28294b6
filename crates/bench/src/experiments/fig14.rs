//! Fig. 14 — *Gaussian pdf*: the threshold sweep repeated with Gaussian
//! uncertainty pdfs (mean at region center, σ = width/6, 300-bar
//! histograms), plotted in log scale in the paper.
//!
//! Paper shape: VR again wins, with larger savings than the uniform case
//! (Gaussian probability evaluation is pricier, and the verifiers avoid
//! it); at P = 1 all methods are cheap because at most one candidate can
//! satisfy the query.
//!
//! Like Fig. 10, the figure is about time; the integrations each strategy
//! ran are the work behind it.

use cpnn_core::{Strategy, UncertainDb};
use cpnn_datagen::gaussian_variant;

use crate::experiments::{longbeach_objects, workload_queries, DEFAULT_DELTA};
use crate::harness::run_queries;
use crate::report::{key, measured, ms, work, Table};

/// Build the Gaussian variant of the Long Beach analog.
pub fn gaussian_db(quick: bool, bars: usize) -> UncertainDb {
    let base = longbeach_objects(if quick { 4_000 } else { 20_000 });
    UncertainDb::build(gaussian_variant(&base, bars)).expect("valid generated data")
}

/// Run the experiment (300-bar Gaussians as in the paper).
pub fn run(quick: bool) -> Table {
    let db = gaussian_db(quick, 300);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 14",
        "Gaussian pdfs: time vs. threshold (log-scale shape)",
        &[
            key("P"),
            measured("Basic (ms)"),
            measured("Refine (ms)"),
            measured("VR (ms)"),
            measured("VR/Basic"),
            work("Basic integ."),
            work("Refine integ."),
            work("VR integ."),
        ],
    );
    table.note("paper: VR's saving is larger than with uniform pdfs; all methods cheap at P = 1");
    let sweep = if quick {
        vec![0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    } else {
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    };
    for p in sweep {
        let basic = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Basic);
        let refine = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::RefineOnly);
        let vr = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Verified);
        let ratio = vr.avg_total.as_secs_f64() / basic.avg_total.as_secs_f64().max(1e-12);
        table.push_row(vec![
            format!("{p:.1}"),
            ms(basic.avg_total),
            ms(refine.avg_total),
            ms(vr.avg_total),
            format!("{ratio:.3}"),
            format!("{:.1}", basic.avg_integrations),
            format!("{:.1}", refine.avg_integrations),
            format!("{:.1}", vr.avg_integrations),
        ]);
    }
    table
}
