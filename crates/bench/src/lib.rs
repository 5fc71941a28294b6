//! # cpnn-bench — benchmark harness for the ICDE 2008 C-PNN evaluation
//!
//! Every figure of the paper's Sec. V (Figs. 9–14) plus Table III has a
//! module under [`experiments`] that regenerates its rows/series. The
//! `repro` binary drives the full sweep:
//!
//! ```text
//! cargo run -p cpnn-bench --release --bin repro -- all
//! cargo run -p cpnn-bench --release --bin repro -- --quick fig10 fig12
//! ```
//!
//! Results land in `results/<id>.md` and `results/<id>.csv`, with every
//! table in `results/tables.json`. Each column is declared a key, work or
//! measured ([`report::Kind`]); `results/paper_work.json` keeps the key
//! and work columns only, so it is equal on every run and host, and a
//! quick run of every experiment must reproduce the committed
//! `crates/bench/paper_work.json` (see the README's figure → experiment
//! table for the paper-vs-measured mapping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{run_queries, RunSummary};
pub use report::Table;
