//! # cpnn — umbrella crate
//!
//! Re-exports the whole workspace reproducing *"Probabilistic Verifiers:
//! Evaluating Constrained Nearest-Neighbor Queries over Uncertain Data"*
//! (Cheng, Chen, Mokbel, Chow — ICDE 2008):
//!
//! * [`pdf`] — probability substrate (pdfs, cdfs, quadrature, `erf`);
//! * [`rtree`] — from-scratch R-tree with the PNN candidate filter;
//! * [`core`] — the paper: subregions, RS/L-SR/U-SR verifiers, incremental
//!   refinement, baselines, the query engine, and extensions (k-NN, 2-D
//!   regions, persistence);
//! * [`datagen`] — synthetic workloads calibrated to the paper's setup.
//!
//! ```
//! use cpnn::core::{CpnnQuery, ObjectId, Strategy, UncertainDb, UncertainObject};
//!
//! let db = UncertainDb::build(vec![
//!     UncertainObject::uniform(ObjectId(1), 1.0, 4.0)?,
//!     UncertainObject::uniform(ObjectId(2), 2.0, 6.0)?,
//! ])?;
//! let res = db.cpnn(&CpnnQuery::new(0.0, 0.3, 0.01), Strategy::Verified)?;
//! assert_eq!(res.answers, vec![ObjectId(1)]);
//! # Ok::<(), cpnn::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use cpnn_core as core;
pub use cpnn_datagen as datagen;
pub use cpnn_pdf as pdf;
pub use cpnn_rtree as rtree;
