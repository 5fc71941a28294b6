//! Snapshot persistence for uncertain databases.
//!
//! A small self-contained binary format (no external serialization
//! crates), generalized in the durability PR from the original 1-D-only
//! layout to a **versioned, dimension-tagged** family that covers every
//! model the server can host — flat 1-D ([`UncertainDb`]), flat 2-D
//! ([`UncertainDb2d`]), and sharded databases
//! ([`crate::shard::ShardedDb`]), which checkpoint shard-by-shard:
//!
//! ```text
//! header  : magic "CPNN" | format version u32 (= 2) | dim u32
//!           | kind u8 (0 flat, 1 sharded) | snapshot version u64
//! flat    : object count u64 | records
//! sharded : axis u32 | boundary count u32 | boundaries [f64]
//!           | shard count u32 | per shard: object count u64 | records
//! trailer : FNV-1a checksum u64 over everything before it
//!
//! 1-D record: id u64 | bar count u32 | edges [f64] | masses [f64]
//! 2-D record: id u64 | shape u8 (0 circle, 1 rectangle)
//!             | circle: cx f64, cy f64, radius f64
//!             | rectangle: min x, min y, max x, max y (f64 each)
//! ```
//!
//! The byte codec ([`SnapshotWriter`] / [`SnapshotReader`]) only encodes
//! and decodes; it is shared with WAL records and wire messages, which
//! checksum their finished buffer once. A snapshot streams to its sink,
//! so its trailer comes from a [`ChecksumWriter`] around the sink and is
//! checked by a [`ChecksumReader`] around the source.
//!
//! All integers and floats are little-endian. The `snapshot version`
//! field carries the serving layer's published snapshot version through
//! checkpoints, so a recovered server resumes the citation sequence its
//! clients saw before the crash (see [`StorageBackend`](crate::StorageBackend)).
//!
//! Version-1 files (the original `magic | version | count | records`
//! layout, implicitly 1-D flat) still load; files from a *future* format
//! version fail with the dedicated [`SnapshotError::UnsupportedVersion`]
//! so callers can distinguish "not a snapshot" from "snapshot from a
//! newer build". Loading re-validates every record through the normal
//! constructors, so a corrupted or hand-edited snapshot can produce a
//! checksum error or a validation error but never a malformed in-memory
//! database.
//!
//! Sharded bodies persist the partition **axis and exact slab
//! boundaries** rather than re-deriving them from the recovered objects:
//! a database whose contents drifted away from the build-time
//! distribution (via the serve lane's inserts/removes) must recover with
//! the *same* routing it had before the crash, bit for bit.

use std::io::{self, Read, Write};

use cpnn_pdf::HistogramPdf;

use crate::engine::{EngineConfig, UncertainDb};
use crate::engine2d::{Object2d, UncertainDb2d};
use crate::error::CoreError;
use crate::object::{ObjectId, UncertainObject};
use crate::shard::{ShardableModel, ShardedDb};
use crate::store::CowModel;

const MAGIC: &[u8; 4] = b"CPNN";
/// Current snapshot format version.
pub const VERSION: u32 = 2;
/// The original 1-D-only layout (no dim/kind/snapshot-version fields).
const LEGACY_VERSION: u32 = 1;
/// Largest buffer (in values) a record reserves from a length it read,
/// before the values themselves arrive.
const PREALLOC: usize = 1 << 16;

/// `kind` header tag for flat (single-model) bodies.
pub(crate) const KIND_FLAT: u8 = 0;
/// `kind` header tag for sharded bodies.
pub(crate) const KIND_SHARDED: u8 = 1;

/// Errors specific to snapshot encoding/decoding.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a snapshot (bad magic), or a malformed/mismatched header.
    BadHeader,
    /// The file is a snapshot, but from a newer format version than this
    /// build understands.
    UnsupportedVersion {
        /// Format version stored in the file.
        found: u32,
        /// Newest format version this build can read.
        supported: u32,
    },
    /// The snapshot's spatial dimension does not match the model being
    /// loaded (e.g. a 2-D checkpoint fed to a 1-D database).
    DimensionMismatch {
        /// Dimension tag stored in the file.
        found: u32,
        /// Dimension the caller's model requires.
        expected: u32,
    },
    /// Trailer checksum mismatch (corruption).
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the payload.
        computed: u64,
    },
    /// Payload decoded but failed semantic validation.
    Invalid(CoreError),
    /// An update op whose tag is neither insert nor remove
    /// ([`crate::update::UpdateOp::read_op`]).
    UnknownOp(u8),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadHeader => write!(f, "not a cpnn snapshot (bad magic/header)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported ({supported})"
            ),
            SnapshotError::DimensionMismatch { found, expected } => write!(
                f,
                "snapshot is {found}-dimensional, expected {expected}-dimensional"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Invalid(e) => write!(f, "snapshot payload invalid: {e}"),
            SnapshotError::UnknownOp(tag) => write!(f, "unknown update op kind {tag}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Convenience: result alias used by callers.
pub type SnapshotResult<T> = std::result::Result<T, SnapshotError>;

/// Incremental FNV-1a (64-bit) — tiny, dependency-free integrity check.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

/// One-shot FNV-1a (64-bit) over a byte slice — the same digest the
/// snapshot trailer uses, exported for the checksums computed over a
/// finished buffer: WAL records ([`crate::encode_record`]) and wire frames.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.0
}

/// Write one `len u32 | payload | fnv1a(payload) u64` frame — the layout
/// of a write-ahead journal record ([`crate::storage::encode_record`]) and
/// of a router wire frame alike. Only the writer is shared: the readers
/// keep their own contracts (a torn journal tail ends replay cleanly; the
/// wire caps the length and types every failure).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(payload).to_le_bytes())
}

/// A [`Write`] adapter that FNV-1a-hashes every byte it forwards — the
/// streaming trailer of the formats written straight to a sink
/// (checkpoints, the router's shard map). [`finish`](Self::finish)
/// appends the digest as the little-endian trailer.
pub struct ChecksumWriter<W: Write> {
    inner: W,
    hash: Fnv1a,
}

impl<W: Write> ChecksumWriter<W> {
    /// Wrap a sink; every byte written through the adapter is hashed.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }
    /// Append the digest trailer (the trailer itself is not hashed) and
    /// return the sink.
    pub fn finish(mut self) -> io::Result<W> {
        let digest = self.hash.0;
        self.inner.write_all(&digest.to_le_bytes())?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for ChecksumWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`Read`] adapter that FNV-1a-hashes every byte it yields — the
/// reading half of [`ChecksumWriter`].
pub struct ChecksumReader<R: Read> {
    inner: R,
    hash: Fnv1a,
}

impl<R: Read> ChecksumReader<R> {
    /// Wrap a source; every byte read through the adapter is hashed.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            hash: Fnv1a::new(),
        }
    }
    /// Read the (unhashed) trailer and compare it to the digest of
    /// everything read so far.
    pub fn verify_trailer(mut self) -> SnapshotResult<()> {
        let computed = self.hash.0;
        let mut trailer = [0u8; 8];
        self.inner.read_exact(&mut trailer)?;
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(())
    }
}

impl<R: Read> Read for ChecksumReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }
}

/// The little-endian byte codec shared by snapshots, WAL records and wire
/// messages — the encoding half. It only encodes: a format whose trailer
/// is streamed wraps its sink in a [`ChecksumWriter`], and one checksummed
/// over a finished buffer hashes that buffer once ([`fnv1a`]).
pub struct SnapshotWriter<W: Write> {
    inner: W,
}

impl<W: Write> SnapshotWriter<W> {
    /// Wrap a sink.
    pub fn new(inner: W) -> Self {
        Self { inner }
    }
    /// Write raw bytes.
    pub fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_all(bytes)
    }
    /// Write a little-endian `u8`.
    pub fn put_u8(&mut self, v: u8) -> io::Result<()> {
        self.put(&[v])
    }
    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
    /// Write a little-endian `f64` (raw IEEE-754 bits — round trips
    /// exactly).
    pub fn put_f64(&mut self, v: f64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }
    /// Unwrap, returning the sink.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// The decoding half of the byte codec (see [`SnapshotWriter`]); a
/// streamed trailer is the job of a [`ChecksumReader`] under it.
pub struct SnapshotReader<R: Read> {
    inner: R,
}

impl<R: Read> SnapshotReader<R> {
    /// Wrap a source.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }
    /// Read exactly `N` raw bytes.
    pub fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut buf = [0u8; N];
        self.inner.read_exact(&mut buf)?;
        Ok(buf)
    }
    /// Read a little-endian `u8`.
    pub fn take_u8(&mut self) -> io::Result<u8> {
        Ok(self.take::<1>()?[0])
    }
    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }
    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }
    /// Read a little-endian `f64` (raw IEEE-754 bits).
    pub fn take_f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }
    /// Unwrap, returning the underlying source (for slice readers: the
    /// unconsumed remainder).
    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// A model that can be checkpointed to and recovered from the snapshot
/// format — the persistence seam the [`StorageBackend`](crate::StorageBackend)s and the
/// server's durability hooks are generic over.
///
/// The split between object-level and body-level methods is deliberate:
/// `write_object`/`read_object` serialize **one** record and double as
/// the WAL insert-op payload codec, while `write_body`/`read_body` cover
/// whole-model layout (counts, shard boundaries). Tuning state
/// ([`Context`](Self::Context)) is *not* persisted — recovery composes
/// stored data with caller-supplied configuration, so a snapshot written
/// at 48 distance bins can be reopened at 96.
pub trait PersistentModel: CowModel {
    /// Engine/tuning configuration supplied at load time.
    type Context: Clone;
    /// Spatial dimension tag stamped into snapshot headers.
    const DIM: u32;
    /// Layout kind tag (`KIND_FLAT` or `KIND_SHARDED`).
    const KIND: u8;

    /// Serialize one object record.
    fn write_object<W: Write>(object: &Self::Object, w: &mut SnapshotWriter<W>) -> io::Result<()>;
    /// Deserialize and re-validate one object record.
    fn read_object<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<Self::Object>;
    /// Serialize the model body (everything between header and trailer).
    fn write_body<W: Write>(&self, w: &mut SnapshotWriter<W>) -> io::Result<()>;
    /// Rebuild the model from a body.
    fn read_body<R: Read>(r: &mut SnapshotReader<R>, ctx: &Self::Context) -> SnapshotResult<Self>;
}

/// Serialize any [`PersistentModel`] with its published snapshot
/// `version` into `w` (header, body, checksum trailer).
pub fn write_model<M: PersistentModel, W: Write>(
    model: &M,
    snapshot_version: u64,
    w: W,
) -> SnapshotResult<()> {
    let mut w = SnapshotWriter::new(ChecksumWriter::new(w));
    w.put(MAGIC)?;
    w.put_u32(VERSION)?;
    w.put_u32(M::DIM)?;
    w.put_u8(M::KIND)?;
    w.put_u64(snapshot_version)?;
    model.write_body(&mut w)?;
    w.into_inner().finish()?;
    Ok(())
}

/// Deserialize a [`PersistentModel`] from `r`, returning the model and
/// the snapshot version recorded at checkpoint time. Accepts the current
/// format and (for 1-D flat models) legacy version-1 files, which carry
/// snapshot version 0.
pub fn read_model<M: PersistentModel, R: Read>(r: R, ctx: &M::Context) -> SnapshotResult<(M, u64)> {
    let mut r = SnapshotReader::new(ChecksumReader::new(r));
    let format = read_magic_and_version(&mut r)?;
    let snapshot_version = if format == LEGACY_VERSION {
        if M::DIM != 1 || M::KIND != KIND_FLAT {
            return Err(SnapshotError::BadHeader);
        }
        0
    } else {
        let dim = r.take_u32()?;
        if dim != M::DIM {
            return Err(SnapshotError::DimensionMismatch {
                found: dim,
                expected: M::DIM,
            });
        }
        if r.take_u8()? != M::KIND {
            return Err(SnapshotError::BadHeader);
        }
        r.take_u64()?
    };
    let model = M::read_body(&mut r, ctx)?;
    r.into_inner().verify_trailer()?;
    Ok((model, snapshot_version))
}

fn read_magic_and_version<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<u32> {
    let magic = r.take::<4>()?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadHeader);
    }
    let version = r.take_u32()?;
    if version == 0 {
        return Err(SnapshotError::BadHeader);
    }
    if version > VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    Ok(version)
}

// ---------------------------------------------------------------------------
// Record codecs
// ---------------------------------------------------------------------------

fn write_object_1d<W: Write>(obj: &UncertainObject, w: &mut SnapshotWriter<W>) -> io::Result<()> {
    let pdf = obj.pdf();
    w.put_u64(obj.id().0)?;
    w.put_u32(pdf.bar_count() as u32)?;
    for &e in pdf.edges() {
        w.put_f64(e)?;
    }
    // Store masses (cdf differences): re-normalization on load is then
    // exact by construction.
    let cdf = pdf.cdf_at_edges();
    for i in 0..pdf.bar_count() {
        w.put_f64(cdf[i + 1] - cdf[i])?;
    }
    Ok(())
}

fn read_object_1d<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<UncertainObject> {
    let id = r.take_u64()?;
    let bars = r.take_u32()? as usize;
    if bars == 0 || bars > 1 << 24 {
        return Err(SnapshotError::BadHeader);
    }
    // Edges then masses, read into the histogram's own buffer (room for
    // its cdf too). The header's bar count is not trusted for the reserve:
    // a corrupt count grows the buffer only as far as values arrive.
    let mut buf = Vec::with_capacity((3 * bars + 2).min(PREALLOC));
    for _ in 0..2 * bars + 1 {
        buf.push(r.take_f64()?);
    }
    let pdf =
        HistogramPdf::from_packed_masses(buf).map_err(|e| SnapshotError::Invalid(e.into()))?;
    Ok(UncertainObject::from_histogram(ObjectId(id), pdf))
}

const SHAPE_CIRCLE: u8 = 0;
const SHAPE_RECTANGLE: u8 = 1;

fn write_object_2d<W: Write>(obj: &Object2d, w: &mut SnapshotWriter<W>) -> io::Result<()> {
    w.put_u64(obj.id().0)?;
    match obj {
        Object2d::Circle(c) => {
            w.put_u8(SHAPE_CIRCLE)?;
            w.put_f64(c.center[0])?;
            w.put_f64(c.center[1])?;
            w.put_f64(c.radius)?;
        }
        Object2d::Rectangle { rect, .. } => {
            w.put_u8(SHAPE_RECTANGLE)?;
            w.put_f64(rect.min[0])?;
            w.put_f64(rect.min[1])?;
            w.put_f64(rect.max[0])?;
            w.put_f64(rect.max[1])?;
        }
    }
    Ok(())
}

fn read_object_2d<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<Object2d> {
    let id = ObjectId(r.take_u64()?);
    match r.take_u8()? {
        SHAPE_CIRCLE => {
            let cx = r.take_f64()?;
            let cy = r.take_f64()?;
            let radius = r.take_f64()?;
            Object2d::circle(id, [cx, cy], radius).map_err(SnapshotError::Invalid)
        }
        SHAPE_RECTANGLE => {
            let min = [r.take_f64()?, r.take_f64()?];
            let max = [r.take_f64()?, r.take_f64()?];
            Object2d::rectangle(id, min, max).map_err(SnapshotError::Invalid)
        }
        _ => Err(SnapshotError::BadHeader),
    }
}

fn write_object_list<M: PersistentModel, W: Write>(
    objects: &[M::Object],
    w: &mut SnapshotWriter<W>,
) -> io::Result<()> {
    w.put_u64(objects.len() as u64)?;
    for obj in objects {
        M::write_object(obj, w)?;
    }
    Ok(())
}

fn read_object_list<M: PersistentModel, R: Read>(
    r: &mut SnapshotReader<R>,
) -> SnapshotResult<Vec<M::Object>> {
    let count = r.take_u64()? as usize;
    // Cap pre-allocation: a corrupt count must not OOM us.
    let mut objects = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        objects.push(M::read_object(r)?);
    }
    Ok(objects)
}

// ---------------------------------------------------------------------------
// Model impls
// ---------------------------------------------------------------------------

impl PersistentModel for UncertainDb {
    type Context = EngineConfig;
    const DIM: u32 = 1;
    const KIND: u8 = KIND_FLAT;

    fn write_object<W: Write>(
        object: &UncertainObject,
        w: &mut SnapshotWriter<W>,
    ) -> io::Result<()> {
        write_object_1d(object, w)
    }
    fn read_object<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<UncertainObject> {
        read_object_1d(r)
    }
    fn write_body<W: Write>(&self, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        write_object_list::<Self, W>(&self.objects(), w)
    }
    fn read_body<R: Read>(r: &mut SnapshotReader<R>, ctx: &EngineConfig) -> SnapshotResult<Self> {
        let objects = read_object_list::<Self, R>(r)?;
        UncertainDb::with_config(objects, *ctx).map_err(SnapshotError::Invalid)
    }
}

impl PersistentModel for UncertainDb2d {
    type Context = ();
    const DIM: u32 = 2;
    const KIND: u8 = KIND_FLAT;

    fn write_object<W: Write>(object: &Object2d, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        write_object_2d(object, w)
    }
    fn read_object<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<Object2d> {
        read_object_2d(r)
    }
    fn write_body<W: Write>(&self, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        write_object_list::<Self, W>(&self.objects(), w)
    }
    fn read_body<R: Read>(r: &mut SnapshotReader<R>, _: &()) -> SnapshotResult<Self> {
        let objects = read_object_list::<Self, R>(r)?;
        UncertainDb2d::build(objects).map_err(SnapshotError::Invalid)
    }
}

impl<M> PersistentModel for ShardedDb<M>
where
    M: ShardableModel + PersistentModel,
{
    type Context = <M as ShardableModel>::Config;
    const DIM: u32 = M::DIM;
    const KIND: u8 = KIND_SHARDED;

    fn write_object<W: Write>(object: &M::Object, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        M::write_object(object, w)
    }
    fn read_object<R: Read>(r: &mut SnapshotReader<R>) -> SnapshotResult<M::Object> {
        M::read_object(r)
    }
    fn write_body<W: Write>(&self, w: &mut SnapshotWriter<W>) -> io::Result<()> {
        w.put_u32(self.partition_axis() as u32)?;
        let bounds = self.slab_bounds();
        w.put_u32(bounds.len() as u32)?;
        for &b in bounds {
            w.put_f64(b)?;
        }
        w.put_u32(self.num_shards() as u32)?;
        for i in 0..self.num_shards() {
            write_object_list::<M, W>(&self.shard_model(i).shard_objects(), w)?;
        }
        Ok(())
    }
    fn read_body<R: Read>(
        r: &mut SnapshotReader<R>,
        ctx: &<M as ShardableModel>::Config,
    ) -> SnapshotResult<Self> {
        let axis = r.take_u32()? as usize;
        let nbounds = r.take_u32()? as usize;
        if !(2..=(1 << 16) + 1).contains(&nbounds) {
            return Err(SnapshotError::BadHeader);
        }
        let mut bounds = Vec::with_capacity(nbounds);
        for _ in 0..nbounds {
            bounds.push(r.take_f64()?);
        }
        let nshards = r.take_u32()? as usize;
        if nshards + 1 != nbounds {
            return Err(SnapshotError::BadHeader);
        }
        let mut buckets = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            buckets.push(read_object_list::<M, R>(r)?);
        }
        ShardedDb::from_parts(axis, bounds, buckets, ctx.clone()).map_err(SnapshotError::Invalid)
    }
}

// ---------------------------------------------------------------------------
// 1-D convenience surface (the original public API, kept intact)
// ---------------------------------------------------------------------------

/// Serialize the database's objects into `w` (current format, snapshot
/// version 0).
pub fn save_snapshot<W: Write>(db: &UncertainDb, w: W) -> SnapshotResult<()> {
    write_model(db, 0, w)
}

/// Deserialize a 1-D database from `r`, rebuilding the R-tree.
pub fn load_snapshot<R: Read>(r: R) -> SnapshotResult<UncertainDb> {
    load_snapshot_with(r, EngineConfig::default())
}

/// Deserialize with an explicit engine configuration.
pub(crate) fn load_snapshot_with<R: Read>(
    r: R,
    config: EngineConfig,
) -> SnapshotResult<UncertainDb> {
    UncertainDb::with_config(load_objects(r)?, config).map_err(SnapshotError::Invalid)
}

/// Deserialize just the 1-D objects — no index build. The entry point for
/// callers that construct their own storage over the snapshot (e.g. a
/// [`crate::shard::ShardedDb`], which would otherwise pay a full flat
/// database build only to re-shard it). Accepts legacy version-1 files,
/// current flat files, and current *sharded* files (flattened in slab
/// order, so the caller may re-partition freely).
pub fn load_objects<R: Read>(r: R) -> SnapshotResult<Vec<UncertainObject>> {
    let mut r = SnapshotReader::new(ChecksumReader::new(r));
    let format = read_magic_and_version(&mut r)?;
    let objects = if format == LEGACY_VERSION {
        read_object_list::<UncertainDb, _>(&mut r)?
    } else {
        let dim = r.take_u32()?;
        if dim != 1 {
            return Err(SnapshotError::DimensionMismatch {
                found: dim,
                expected: 1,
            });
        }
        match r.take_u8()? {
            KIND_FLAT => {
                let _snapshot_version = r.take_u64()?;
                read_object_list::<UncertainDb, _>(&mut r)?
            }
            KIND_SHARDED => {
                let _snapshot_version = r.take_u64()?;
                let _axis = r.take_u32()?;
                let nbounds = r.take_u32()? as usize;
                if !(2..=(1 << 16) + 1).contains(&nbounds) {
                    return Err(SnapshotError::BadHeader);
                }
                for _ in 0..nbounds {
                    let _ = r.take_f64()?;
                }
                let nshards = r.take_u32()? as usize;
                if nshards + 1 != nbounds {
                    return Err(SnapshotError::BadHeader);
                }
                let mut all = Vec::new();
                for _ in 0..nshards {
                    all.extend(read_object_list::<UncertainDb, _>(&mut r)?);
                }
                all
            }
            _ => return Err(SnapshotError::BadHeader),
        }
    };
    r.into_inner().verify_trailer()?;
    Ok(objects)
}

/// Round-trip helper used by the CLI: save to a file path.
pub fn save_to_path(db: &UncertainDb, path: &std::path::Path) -> SnapshotResult<()> {
    let file = std::fs::File::create(path)?;
    write_model(db, 0, io::BufWriter::new(file))
}

/// Round-trip helper used by the CLI: load from a file path.
pub fn load_from_path(path: &std::path::Path) -> SnapshotResult<UncertainDb> {
    let file = std::fs::File::open(path)?;
    load_snapshot(io::BufReader::new(file))
}

/// Load just the objects from a file path (no index build) — see
/// [`load_objects`].
pub fn load_objects_from_path(path: &std::path::Path) -> SnapshotResult<Vec<UncertainObject>> {
    let file = std::fs::File::open(path)?;
    load_objects(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CpnnQuery, Strategy};
    use crate::testutil::fig7_scenario;

    fn sample_db() -> UncertainDb {
        let (_, objects) = fig7_scenario();
        UncertainDb::build(objects).unwrap()
    }

    #[test]
    fn round_trip_preserves_objects_and_answers() {
        let db = sample_db();
        let mut buf = Vec::new();
        save_snapshot(&db, &mut buf).unwrap();
        let loaded = load_snapshot(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), db.len());
        for (a, b) in db.objects().iter().zip(loaded.objects()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.region(), b.region());
            assert_eq!(a.pdf().bar_count(), b.pdf().bar_count());
        }
        // Query results are identical.
        let q = CpnnQuery::new(0.0, 0.45, 0.0);
        let x = db.cpnn(&q, Strategy::Verified).unwrap();
        let y = loaded.cpnn(&q, Strategy::Verified).unwrap();
        assert_eq!(x.answers, y.answers);
    }

    #[test]
    fn empty_database_round_trips() {
        let db = UncertainDb::build(Vec::new()).unwrap();
        let mut buf = Vec::new();
        save_snapshot(&db, &mut buf).unwrap();
        let loaded = load_snapshot(buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = load_snapshot(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::BadHeader));
    }

    #[test]
    fn future_version_is_a_dedicated_error() {
        // magic + version 9: a snapshot from a newer build must be
        // distinguishable from garbage.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&9u32.to_le_bytes());
        let err = load_snapshot(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::UnsupportedVersion {
                    found: 9,
                    supported: VERSION
                }
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn legacy_v1_files_still_load() {
        // Hand-encode the version-1 layout for one uniform object.
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes()); // count
        payload.extend_from_slice(&7u64.to_le_bytes()); // id
        payload.extend_from_slice(&1u32.to_le_bytes()); // bars
        payload.extend_from_slice(&2.0f64.to_le_bytes()); // edges
        payload.extend_from_slice(&4.0f64.to_le_bytes());
        payload.extend_from_slice(&1.0f64.to_le_bytes()); // mass
        let digest = fnv1a(&payload);
        payload.extend_from_slice(&digest.to_le_bytes());
        let loaded = load_snapshot(payload.as_slice()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.objects()[0].id(), ObjectId(7));
    }

    #[test]
    fn huge_bar_count_with_truncated_body_is_typed() {
        // A v1 record claiming the largest accepted bar count (2^24) but
        // holding three edges: the reader must fail typed at the end of
        // the data, having reserved a bounded buffer, not ≈ 256 MiB.
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes()); // count
        payload.extend_from_slice(&7u64.to_le_bytes()); // id
        payload.extend_from_slice(&(1u32 << 24).to_le_bytes()); // bars
        for e in [2.0f64, 3.0, 4.0] {
            payload.extend_from_slice(&e.to_le_bytes());
        }
        let err = load_snapshot(payload.as_slice()).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn dimension_mismatch_is_a_dedicated_error() {
        let db2d =
            UncertainDb2d::build(vec![Object2d::circle(ObjectId(1), [3.0, 4.0], 1.0).unwrap()])
                .unwrap();
        let mut buf = Vec::new();
        write_model(&db2d, 5, &mut buf).unwrap();
        let err = load_snapshot(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::DimensionMismatch {
                found: 2,
                expected: 1
            }
        ));
    }

    #[test]
    fn model_round_trip_preserves_snapshot_version() {
        let db = sample_db();
        let mut buf = Vec::new();
        write_model(&db, 42, &mut buf).unwrap();
        let (loaded, version): (UncertainDb, u64) =
            read_model(buf.as_slice(), &EngineConfig::default()).unwrap();
        assert_eq!(version, 42);
        assert_eq!(loaded.len(), db.len());
    }

    #[test]
    fn sharded_round_trip_preserves_partitioning() {
        let (_, objects) = fig7_scenario();
        let db: ShardedDb<UncertainDb> = UncertainDb::build_sharded(objects, 3).unwrap();
        let mut buf = Vec::new();
        write_model(&db, 9, &mut buf).unwrap();
        let (loaded, version): (ShardedDb<UncertainDb>, u64) =
            read_model(buf.as_slice(), &EngineConfig::default()).unwrap();
        assert_eq!(version, 9);
        assert_eq!(loaded.num_shards(), db.num_shards());
        assert_eq!(loaded.partition_axis(), db.partition_axis());
        assert_eq!(loaded.slab_bounds(), db.slab_bounds());
    }

    #[test]
    fn sharded_snapshot_flattens_through_load_objects() {
        let (_, objects) = fig7_scenario();
        let n = objects.len();
        let db: ShardedDb<UncertainDb> = UncertainDb::build_sharded(objects, 3).unwrap();
        let mut buf = Vec::new();
        write_model(&db, 0, &mut buf).unwrap();
        let flat = load_objects(buf.as_slice()).unwrap();
        assert_eq!(flat.len(), n);
    }

    #[test]
    fn truncation_is_detected() {
        let db = sample_db();
        let mut buf = Vec::new();
        save_snapshot(&db, &mut buf).unwrap();
        buf.truncate(buf.len() - 12);
        assert!(load_snapshot(buf.as_slice()).is_err());
    }

    #[test]
    fn bit_flip_is_detected_by_checksum() {
        let db = sample_db();
        let mut buf = Vec::new();
        save_snapshot(&db, &mut buf).unwrap();
        // Flip one payload byte in a float (past the header).
        let idx = buf.len() / 2;
        buf[idx] ^= 0x01;
        let err = load_snapshot(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::ChecksumMismatch { .. } | SnapshotError::Invalid(_)
            ),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("cpnn_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.cpnn");
        save_to_path(&db, &path).unwrap();
        let loaded = load_from_path(&path).unwrap();
        assert_eq!(loaded.len(), db.len());
        std::fs::remove_file(&path).ok();
    }
}
