//! The repo benchmark: six seeded workloads measured end to end
//! ([`workloads`], façade calls only), the inputs they run on
//! ([`inputs`]), the soundness check that rides along ([`check`]), the
//! open-loop generator ([`openloop`]), sample statistics ([`stats`]) and
//! the metric tables and output format ([`report`]). The per-layer time
//! budget is taken by the separate `trace` binary.

pub mod check;
pub mod inputs;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod workloads;
