//! Ablations of design choices the paper leaves implicit:
//!
//! * **verifier chains** — does the RS → U-SR → L-SR chain pay for itself
//!   against refinement alone? We time both end to end;
//! * **refinement order** — largest-mass-first vs. left-to-right subregion
//!   visiting during incremental refinement;
//! * **distance-histogram resolution** — how the `max_distance_bins` knob
//!   (our representation of the paper's "distance pdf as a histogram")
//!   trades verification cost for bound tightness on Gaussian data.

use cpnn_core::{EngineConfig, RefinementOrder, Strategy, UncertainDb};
use cpnn_datagen::gaussian_variant;

use crate::experiments::{
    longbeach_db, longbeach_objects, workload_queries, DEFAULT_DELTA, DEFAULT_P,
};
use crate::harness::run_queries;
use crate::report::{frac, key, measured, ms, work, Table};

/// Ablation A: alternative verifier chains.
///
/// Chains are simulated through the public engine by comparing `Verified`
/// (full chain) against `RefineOnly` (empty chain); the per-stage timings
/// of the full chain come from the stage reports in Fig. 12's data. Here we
/// report the end-to-end effect of verification at several thresholds.
pub fn verifier_chain(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Ablation A",
        "does verification pay for itself? (VR vs Refine-only)",
        &[
            key("P"),
            measured("VR (ms)"),
            measured("Refine (ms)"),
            work("VR integ."),
            work("Refine integ."),
            work("resolved by verif."),
        ],
    );
    table.note("verification is profitable whenever its integ. saving outweighs its pass cost");
    for p in [0.1, 0.3, 0.5, 0.7] {
        let vr = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Verified);
        let refine = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::RefineOnly);
        table.push_row(vec![
            format!("{p:.1}"),
            ms(vr.avg_total),
            ms(refine.avg_total),
            format!("{:.1}", vr.avg_integrations),
            format!("{:.1}", refine.avg_integrations),
            frac(vr.resolved_fraction),
        ]);
    }
    table
}

/// Ablation B: refinement subregion-visiting order.
pub fn refinement_order(quick: bool) -> Table {
    let data = longbeach_objects(if quick { 8_000 } else { 53_144 });
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Ablation B",
        "refinement order: largest-mass-first vs left-to-right",
        &[
            key("P"),
            work("desc-mass integ."),
            work("left-right integ."),
            measured("desc (ms)"),
            measured("ltr (ms)"),
        ],
    );
    table.note("fewer integrations per refined object = earlier classification");
    for p in [0.2, 0.3, 0.4, 0.5] {
        let mut results = Vec::new();
        for order in [
            RefinementOrder::DescendingMass,
            RefinementOrder::LeftToRight,
        ] {
            let config = EngineConfig {
                refinement_order: order,
                ..EngineConfig::default()
            };
            let db = UncertainDb::with_config(data.clone(), config).expect("valid data");
            results.push(run_queries(
                &db,
                &queries,
                p,
                DEFAULT_DELTA,
                Strategy::Verified,
            ));
        }
        table.push_row(vec![
            format!("{p:.1}"),
            format!("{:.1}", results[0].avg_integrations),
            format!("{:.1}", results[1].avg_integrations),
            ms(results[0].avg_total),
            ms(results[1].avg_total),
        ]);
    }
    table
}

/// Ablation C: distance-histogram resolution on Gaussian data.
pub fn distance_bins(quick: bool) -> Table {
    let base = longbeach_objects(if quick { 3_000 } else { 10_000 });
    let gauss = gaussian_variant(&base, 300);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Ablation C",
        "distance-histogram resolution (Gaussian pdfs)",
        &[
            key("max bins"),
            measured("VR (ms)"),
            work("avg M"),
            work("resolved by verif."),
        ],
    );
    table.note("coarser distance histograms = smaller M = cheaper verifiers, looser bounds");
    for bins in [16usize, 32, 64, 128] {
        let config = EngineConfig {
            max_distance_bins: bins,
            ..EngineConfig::default()
        };
        let db = UncertainDb::with_config(gauss.clone(), config).expect("valid data");
        let s = run_queries(&db, &queries, DEFAULT_P, DEFAULT_DELTA, Strategy::Verified);
        table.push_row(vec![
            bins.to_string(),
            ms(s.avg_total),
            format!("{:.0}", s.avg_subregions),
            frac(s.resolved_fraction),
        ]);
    }
    table
}
