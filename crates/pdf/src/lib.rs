//! # cpnn-pdf — probability substrate for the C-PNN reproduction
//!
//! This crate provides everything the paper assumes about probability
//! distributions on closed intervals (the *attribute uncertainty* model):
//!
//! * [`Pdf`] — the trait describing a probability density function bounded
//!   inside a closed *uncertainty region*, with density, cdf and quantile.
//! * [`UniformPdf`] — the uniform distribution used for the Long Beach
//!   experiments (Sec. V-A of the paper).
//! * [`TruncatedGaussian`] — the Gaussian uncertainty pdf of Sec. V-B.5
//!   (mean at the region center, `σ = width/6`), renormalized on the region.
//! * [`HistogramPdf`] — the paper's canonical representation: an arbitrary
//!   pdf stored as a piecewise-constant histogram ("We represent a distance
//!   pdf of each object as a histogram", Sec. IV-A).
//! * [`integrate`] — numerical integration: Gauss–Legendre for the
//!   per-subregion integrals of exact evaluation and refinement, adaptive
//!   Simpson as the tests' independent oracle.
//! * the normal cdf behind [`TruncatedGaussian`], from an `erfc`
//!   implemented from scratch (no external math crates), accurate to
//!   ~1e-15.
//! * [`discretize()`] — mass-preserving conversion of any [`Pdf`] into an
//!   `N`-bar histogram (the paper approximates each Gaussian with a 300-bar
//!   histogram).
//!
//! Everything in this crate is deterministic: no randomness is drawn here,
//! which is what makes the experiment harness reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
// Validation code writes `!(x > 0.0)` deliberately: unlike `x <= 0.0`, the
// negated form also rejects NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod integrate;

mod discretize;
mod error;
mod gaussian;
mod histogram;
mod special;
mod traits;
mod uniform;

pub use discretize::discretize;
pub use error::PdfError;
pub use gaussian::TruncatedGaussian;
pub use histogram::HistogramPdf;
pub use traits::Pdf;
pub use uniform::UniformPdf;

/// Convenience result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, PdfError>;
