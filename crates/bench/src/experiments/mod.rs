//! One module per figure/table of the paper's evaluation (Sec. V), plus
//! ablations. Every module exposes `run(quick) -> Table` producing the same
//! rows/series the paper plots.

pub mod ablations;
pub mod cache;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod knn2d;
pub mod recovery;
pub mod table3;
pub mod update;
pub mod verify;

use cpnn_core::{UncertainDb, UncertainObject};
use cpnn_datagen::{longbeach::longbeach_with, query_points, LongBeachConfig};

/// The paper's threshold default.
pub const DEFAULT_P: f64 = 0.3;
/// The paper's tolerance default.
pub const DEFAULT_DELTA: f64 = 0.01;

/// Long Beach analog database. `quick` trades cardinality for wall-clock
/// (8k objects instead of 53,144) without changing the candidate-set
/// density that drives the per-query work.
pub fn longbeach_db(quick: bool) -> UncertainDb {
    longbeach_db_sized(if quick { 8_000 } else { 53_144 })
}

/// Long Beach analog database at an explicit cardinality (for |T| sweeps).
pub fn longbeach_db_sized(count: usize) -> UncertainDb {
    UncertainDb::build(longbeach_objects(count)).expect("valid generated data")
}

/// The Long Beach analog's objects at an explicit cardinality: one seed
/// for every experiment.
pub fn longbeach_objects(count: usize) -> Vec<UncertainObject> {
    let cfg = LongBeachConfig {
        count,
        ..LongBeachConfig::default()
    };
    longbeach_with(0xC0FFEE, cfg)
}

/// Query workload ("Each point in the graph is an average of the results
/// for 100 queries").
pub fn workload_queries(quick: bool) -> Vec<f64> {
    query_points(0xBEEF, if quick { 20 } else { 100 })
}

/// The paper's threshold sweep for Figs. 10/11/14.
pub fn threshold_sweep() -> Vec<f64> {
    vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
}
