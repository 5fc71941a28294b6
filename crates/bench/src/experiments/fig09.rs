//! Fig. 9 — *Basic vs. Filtering*: as the dataset grows, the Basic
//! method's probability-evaluation time comes to dominate the R-tree
//! filtering time (crossover near |T| ≈ 5,000 in the paper).

use cpnn_core::Strategy;

use crate::experiments::{longbeach_db_sized, workload_queries, DEFAULT_DELTA, DEFAULT_P};
use crate::harness::run_queries;
use crate::report::{frac, key, measured, ms, work, Table};

/// Run the experiment. Columns: dataset size, filtering ms, Basic ms, and
/// the fraction of total time spent in Basic (the paper's y-axis).
pub fn run(quick: bool) -> Table {
    let sizes: Vec<usize> = if quick {
        vec![1_000, 2_000, 5_000, 10_000]
    } else {
        vec![1_000, 2_000, 5_000, 10_000, 20_000, 53_144]
    };
    let queries = workload_queries(quick);
    let mut table = Table::new(
        "Fig. 9",
        "Basic vs. Filtering time as |T| grows",
        &[
            key("|T|"),
            measured("filter (ms)"),
            measured("basic eval (ms)"),
            measured("basic share"),
            work("avg |C|"),
        ],
    );
    table.note("paper: Basic starts to dominate filtering beyond |T| ≈ 5,000");
    for &size in &sizes {
        let db = longbeach_db_sized(size);
        let s = run_queries(&db, &queries, DEFAULT_P, DEFAULT_DELTA, Strategy::Basic);
        let basic = s.avg_refine; // Basic's evaluation is booked as "refine"
        let share = basic.as_secs_f64() / (basic + s.avg_filter).as_secs_f64().max(1e-12);
        table.push_row(vec![
            size.to_string(),
            ms(s.avg_filter),
            ms(basic),
            frac(share),
            format!("{:.1}", s.avg_candidates),
        ]);
    }
    table
}
