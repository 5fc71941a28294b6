//! Fig. 12 — *Comparison of verifiers*: fraction of candidate objects still
//! labelled `unknown` after RS, after U-SR, and after L-SR, across
//! thresholds, in the order the chain runs them.
//!
//! Paper shape: at P = 0.1, RS leaves ~75% unknown, L-SR removes ~7 more
//! points, U-SR leaves ~15%; RS and U-SR work better at large P (they lower
//! upper bounds → `fail`), L-SR helps at small P (raises lower bounds →
//! `satisfy`); U-SR beats L-SR overall because candidate sets are large so
//! individual probabilities are small.
//!
//! The columns are not the paper's: beyond it, U-SR also keeps the lower
//! half of its split (`Pr[F]`) and runs before L-SR, so the U-SR column
//! carries both bounds and the L-SR column only what L-SR adds after it.

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
            work("after U-SR"),
            work("after L-SR"),
        ],
    );
    table.note(
        "paper (chain RS, L-SR, U-SR; U-SR upper bound only): ~0.75 after RS at P=0.1; \
         U-SR strongest overall; L-SR matters at small P. Here U-SR runs second with Pr[F] \
         as a lower bound too",
    );
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
            frac(get("U-SR")),
            frac(get("L-SR")),
        ]);
    }
    table
}
