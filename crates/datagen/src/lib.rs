//! # cpnn-datagen — workload generators for the C-PNN reproduction
//!
//! The paper evaluates on the Long Beach county TIGER dataset: "the 53,144
//! intervals, distributed in the x-dimension of 10K units, are treated as
//! uncertainty regions with uniform pdfs" (Sec. V-A), with query points
//! generated at random and an average candidate-set size of 96 objects.
//!
//! The original file is not redistributable here, so [`longbeach`] builds a
//! **synthetic analog** calibrated to the statistics the paper reports:
//! same cardinality, same domain, clustered interval centers (geography is
//! clumpy), and interval lengths tuned so the average candidate set lands
//! near 96 objects. The algorithms only see the workload through distance
//! distributions and candidate density, so this preserves the computational
//! shape of every experiment (the substitution rationale is recorded in
//! [`longbeach`]'s module docs).
//!
//! [`uniform_intervals`] and [`gaussian_variant`] provide the size sweeps
//! of Fig. 9 and the Gaussian-pdf variants of Fig. 14; [`query_points`]
//! and its siblings generate query workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod longbeach;
mod queries;
mod synthetic;
mod synthetic2d;

pub use longbeach::{longbeach_with, LongBeachConfig};
pub use queries::{query_points, query_points_in, zipfian_query_points};
pub use synthetic::{gaussian_variant, uniform_intervals, SyntheticConfig};
pub use synthetic2d::{objects_2d, query_points_2d, Synthetic2dConfig};
