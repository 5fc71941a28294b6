//! Fig. 12 — *Comparison of verifiers*: fraction of candidate objects still
//! labelled `unknown` after RS, after L-SR, and after U-SR, across
//! thresholds.
//!
//! Paper shape: at P = 0.1, RS leaves ~75% unknown, L-SR removes ~7 more
//! points, U-SR leaves ~15%; RS and U-SR work better at large P (they lower
//! upper bounds → `fail`), L-SR helps at small P (raises lower bounds →
//! `satisfy`); U-SR beats L-SR overall because candidate sets are large so
//! individual probabilities are small.

use cpnn_core::Strategy;

use crate::experiments::{longbeach_db, workload_queries, DEFAULT_DELTA};
use crate::harness::run_queries;
use crate::report::{frac, key, work, Table};

/// Run the experiment. One row per threshold; one column per verifier
/// stage, each the average fraction of candidates still unknown after it.
pub fn run(quick: bool) -> Table {
    let db = longbeach_db(quick);
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 12",
        "fraction of objects unknown after each verifier",
        &[
            key("P"),
            work("after RS"),
            work("after L-SR"),
            work("after U-SR"),
        ],
    );
    table.note("paper: ~0.75 after RS at P=0.1; U-SR strongest overall; L-SR matters at small P");
    for p in [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4] {
        let s = run_queries(&db, &queries, p, DEFAULT_DELTA, Strategy::Verified);
        let get = |name: &str| {
            s.unknown_fraction_after
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, f)| *f)
                .unwrap_or(0.0)
        };
        table.push_row(vec![
            format!("{p:.2}"),
            frac(get("RS")),
            frac(get("L-SR")),
            frac(get("U-SR")),
        ]);
    }
    table
}
