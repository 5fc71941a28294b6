//! Distributed shard serving: shard processes on sockets, plus the
//! horizon-pruned query router that makes a fleet of them answer exactly
//! like one in-process [`ShardedDb`](cpnn_core::ShardedDb).
//!
//! Every building block here is a thin lift of an existing in-process
//! seam onto a wire:
//!
//! * **shard process** ([`ShardServerHandle`]) — one OS process hosts one slab's
//!   flat model behind a [`QueryServer`](cpnn_core::QueryServer)
//!   (coalesced write lane, write-ahead durability, per-shard
//!   checkpoint + journal in its own `--data-dir`), and answers
//!   *filter* requests against pinned snapshots over a Unix-domain or
//!   TCP socket;
//! * **wire protocol** ([`Request`] / [`Response`]) — length-prefixed, FNV-checksummed
//!   frames in the `storage.rs` record idiom, with a torn/corrupt error
//!   taxonomy instead of panics on any malformed input;
//! * **router** ([`QueryRouter`]) — owns the shard map (partition axis +
//!   slab boundaries), selects shards with the *same*
//!   [`select_overlapping`](cpnn_core::shard::select_overlapping)
//!   horizon argument the in-process database uses, asks them in
//!   groups of equal bound, nearest first, until the
//!   [`Horizon`](cpnn_core::pipeline::Horizon) over the replies in hand
//!   excludes the next bound — a superset of the shards the in-process
//!   fan-out visits — merges shard candidate replies through the *same*
//!   [`fan_out_filter`](cpnn_core::pipeline::fan_out_filter) /
//!   [`evaluate_candidates`](cpnn_core::pipeline::evaluate_candidates)
//!   seam (verify/refine runs once, router-side), routes update bursts
//!   to the owning shard by the *same* slab arithmetic, and degrades
//!   with a typed [`RouterError::ShardUnavailable`]
//!   instead of a wrong answer when a shard the horizon needs dies.
//!
//! The headline property (see `tests/proptest_router.rs`): a routed
//! query is **bit-for-bit** the single-process answer — same verdicts,
//! same probability bounds — for 1-D, 2-D, and k-NN queries, under
//! interleaved coalesced updates, at any shard-process count, and
//! regardless of the order shard replies arrive in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use cpnn_core::persist::PersistentModel;
use cpnn_core::shard::{ShardPoint, ShardableModel};
use cpnn_core::store::CowModel;
use cpnn_core::{DistanceModel, UncertainDb, UncertainDb2d};

mod map;
mod net;
mod router;
mod serve;
mod wire;

pub use cpnn_core::UpdateOp;
pub use map::ShardMap;
pub use net::{ShardAddr, ShardListener, ShardStream};
pub use router::{
    merge_replies, ClusterStats, QueryRouter, RouterConfig, RouterError, RouterStats, ShardReply,
    UpdateReport,
};
pub use serve::{ShardServeConfig, ShardServerHandle};
pub use wire::{
    read_frame, tag, write_frame, Request, Response, ShardStatus, WireError, MAX_FRAME,
};

/// A model a shard process can host and a router can fan out over: a
/// [`ShardableModel`] (per-shard builds, exact extents, copy-on-write
/// updates) that is also a [`PersistentModel`] (object wire codec,
/// per-shard checkpoint + journal recovery) built from the same
/// configuration type, whose query points cross the wire as plain
/// coordinates.
///
/// Implementations: [`UncertainDb`] (1-D) and [`UncertainDb2d`] (2-D).
pub trait RoutedModel:
    DistanceModel<Query: ShardPoint + Send + Sync + 'static>
    + CowModel<Object: Send + 'static>
    + ShardableModel
    + PersistentModel<Context = <Self as ShardableModel>::Config>
    + Send
    + Sync
    + 'static
{
    /// Rebuild a query point from its wire coordinates (length
    /// [`PersistentModel::DIM`]); `None` when the length is wrong.
    fn query_from_coords(coords: &[f64]) -> Option<Self::Query>;
}

impl RoutedModel for UncertainDb {
    fn query_from_coords(coords: &[f64]) -> Option<f64> {
        match coords {
            [q] => Some(*q),
            _ => None,
        }
    }
}

impl RoutedModel for UncertainDb2d {
    fn query_from_coords(coords: &[f64]) -> Option<[f64; 2]> {
        match coords {
            [x, y] => Some([*x, *y]),
            _ => None,
        }
    }
}

/// The wire coordinates of a query point (length [`PersistentModel::DIM`]).
pub(crate) fn query_coords<M: RoutedModel>(q: &M::Query) -> Vec<f64> {
    (0..M::DIM as usize).map(|a| q.coord(a)).collect()
}
