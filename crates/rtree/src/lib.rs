//! # cpnn-rtree — from-scratch R-tree substrate
//!
//! The C-PNN paper's pipeline begins with a **filtering** phase that uses an
//! R-tree to prune objects with zero qualification probability (Sec. III,
//! after Cheng et al.'s TKDE 2004 pruning rule \[8\]). The original
//! implementation used Hadjieleftheriou's spatial index library \[18\]; this
//! crate re-implements the substrate from scratch:
//!
//! * [`Rect`] — axis-aligned rectangles in const-generic dimension `D`, with
//!   the `min_dist` / `max_dist` metrics the pruning rule is built on;
//! * [`RTree`] — a **persistent** (path-copying) Guttman R-tree: quadratic
//!   split, least-enlargement insertion, condense-tree deletion, STR bulk
//!   loading. Every node sits behind an `Arc`, so a handle is an immutable
//!   snapshot, `Clone` is O(1), and [`RTree::with_inserted`] /
//!   [`RTree::with_removed`] produce a new snapshot in O(log n) node
//!   copies while readers pinned to the old handle are never torn;
//! * [`RTree::search_intersecting`] — range search, the shard layer's and
//!   the cache's region probe;
//! * [`RTree::pnn_candidates`] / [`RTree::pnn_candidates_k`] — the paper's
//!   filtering phase: a single best-first traversal that returns the
//!   candidate set `{ Xi : min_dist(q, Ui) ≤ fmin }` where
//!   `fmin = min_k max_dist(q, Uk)` (the `k`-th smallest far point for
//!   k-NN).
//!
//! `cpnn-core`'s `IndexedStore` holds an [`RTree`] directly: bulk load for
//! the initial build, path-copying insert/remove for updates, the filter
//! for queries.
//!
//! The tree is generic over dimension; the paper's experiments are 1-D
//! (intervals) and the 2-D extension indexes circles' bounding boxes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bulk;
mod filter;
mod geometry;
mod node;
mod split;
mod tree;

pub use filter::{Candidate, FilterStats};
pub use geometry::Rect;
pub use node::Params;
pub use tree::{RTree, TreeStats};
