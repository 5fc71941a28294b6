//! One update op, from the line protocol to the journal.
//!
//! [`UpdateOp`] is the single shape an update takes everywhere: the serve
//! loops parse a line into one, the server's write lane queues it
//! ([`crate::server::QueryServer::queue_update`]), the write-ahead journal
//! ([`crate::storage`]) records it, a router ships it to a shard, and
//! recovery replays it. [`apply`](UpdateOp::apply) is the one way an op
//! changes a model, and [`write_op`](UpdateOp::write_op) /
//! [`read_op`](UpdateOp::read_op) are the one op codec the journal record
//! and the wire's `Update` message embed:
//!
//! ```text
//! op : tag u8 (0 insert, 1 remove)
//!      | insert: one object record (the snapshot codec)
//!      | remove: id u64
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use crate::error::Result;
use crate::object::ObjectId;
use crate::persist::{
    PersistentModel, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter,
};
use crate::shard::Extent;
use crate::store::CowModel;

const OP_INSERT: u8 = 0;
const OP_REMOVE: u8 = 1;

/// One update to a model `M`: insert an object, or remove one by id.
pub enum UpdateOp<M: CowModel> {
    /// Insert one object (fails on a duplicate id).
    Insert(M::Object),
    /// Remove one object by id (an absent id is a no-op that succeeds).
    Remove(ObjectId),
}

impl<M: CowModel> UpdateOp<M> {
    /// Apply the op copy-on-write: `model`'s successor, plus the extent
    /// the op touched (`None` when a remove found nothing). `model` is
    /// unchanged either way; a duplicate-id insert fails.
    pub(crate) fn apply(self, model: &M) -> Result<(M, Option<Extent>)> {
        match self {
            Self::Insert(object) => {
                let extent = M::object_extent(&object);
                Ok((model.with_inserted(object)?, Some(extent)))
            }
            Self::Remove(id) => {
                let (next, removed) = model.with_removed(id);
                Ok((next, removed.as_ref().map(M::object_extent)))
            }
        }
    }
}

impl<M: PersistentModel> UpdateOp<M> {
    /// Encode the op: its tag, then the object record or the id.
    pub fn write_op<W: Write>(&self, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        match self {
            Self::Insert(object) => {
                w.put_u8(OP_INSERT)?;
                M::write_object(object, w)
            }
            Self::Remove(id) => {
                w.put_u8(OP_REMOVE)?;
                w.put_u64(id.0)
            }
        }
    }

    /// Decode one op written by [`write_op`](Self::write_op). An unknown
    /// tag is [`SnapshotError::UnknownOp`].
    pub fn read_op<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<Self> {
        match r.take_u8()? {
            OP_INSERT => Ok(Self::Insert(M::read_object(r)?)),
            OP_REMOVE => Ok(Self::Remove(ObjectId(r.take_u64()?))),
            tag => Err(SnapshotError::UnknownOp(tag)),
        }
    }
}

impl<M: CowModel> fmt::Debug for UpdateOp<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Insert(object) => write!(f, "Insert({:?})", M::object_id(object)),
            Self::Remove(id) => write!(f, "Remove({id:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::UncertainDb;
    use crate::object::UncertainObject;

    fn db() -> UncertainDb {
        UncertainDb::build(vec![
            UncertainObject::uniform(ObjectId(1), 0.0, 1.0).unwrap()
        ])
        .unwrap()
    }

    fn round_trip(op: &UpdateOp<UncertainDb>) -> UpdateOp<UncertainDb> {
        let mut w = SnapshotWriter::new(Vec::new());
        op.write_op(&mut w).unwrap();
        let bytes = w.into_inner();
        let mut r = SnapshotReader::new(bytes.as_slice());
        let back = UpdateOp::read_op(&mut r).unwrap();
        assert!(r.into_inner().is_empty(), "the op consumes its own bytes");
        back
    }

    #[test]
    fn ops_round_trip_and_apply() {
        let insert = round_trip(&UpdateOp::Insert(
            UncertainObject::uniform(ObjectId(7), 4.0, 6.0).unwrap(),
        ));
        let (next, touched) = insert.apply(&db()).unwrap();
        assert_eq!(next.len(), 2);
        assert_eq!(touched, Some(Extent::new(vec![4.0], vec![6.0])));
        let remove = round_trip(&UpdateOp::Remove(ObjectId(1)));
        let (next, touched) = remove.apply(&next).unwrap();
        assert_eq!(next.len(), 1);
        assert_eq!(touched, Some(Extent::new(vec![0.0], vec![1.0])));
        let (same, touched) = UpdateOp::Remove(ObjectId(99)).apply(&next).unwrap();
        assert_eq!((same.len(), touched), (1, None));
        let dup = UpdateOp::<UncertainDb>::Insert(
            UncertainObject::uniform(ObjectId(7), 0.0, 1.0).unwrap(),
        );
        assert!(dup.apply(&next).is_err());
    }

    #[test]
    fn unknown_tag_is_typed() {
        let mut r = SnapshotReader::new([9u8].as_slice());
        match UpdateOp::<UncertainDb>::read_op(&mut r) {
            Err(SnapshotError::UnknownOp(9)) => {}
            other => panic!("expected UnknownOp, got {other:?}"),
        }
    }
}
