//! Durable storage: snapshot **checkpoints** composed with a
//! **write-ahead journal** behind the [`StorageBackend`] seam.
//!
//! # Why a journal at all
//!
//! The serve lane publishes coalesced update bursts as single snapshot
//! versions ([`crate::server::QueryServer::flush_writes`]). Writing a
//! full checkpoint per burst would make update durability O(|T|); the
//! journal makes it O(burst): each published burst appends **one**
//! fsync'd record describing exactly the operations that were applied,
//! and a periodic checkpoint resets the journal so recovery stays
//! bounded.
//!
//! # Wire format
//!
//! Little-endian throughout, like [`crate::persist`]:
//!
//! ```text
//! journal file : magic "CPWL" | journal version u32 (= 1) | records
//! record       : payload length u32 | payload | FNV-1a(payload) u64
//! payload      : snapshot version u64 | op count u32 | ops
//! ```
//!
//! A record is framed by [`persist::write_frame`] (the wire protocol's
//! frame layout too), and each op is one [`UpdateOp`] in its own codec.
//!
//! # Torn-tail contract
//!
//! A crash mid-append leaves a structurally incomplete tail. Replay
//! distinguishes two cases:
//!
//! - **Torn**: the remaining bytes are too short to hold a complete
//!   record (length prefix, payload, or checksum cut off), or the
//!   record's checksum does not match — the tell-tale of a write that
//!   never finished. Replay stops cleanly at the last complete record
//!   and reports the offset in [`Recovered::torn_at`]. This is the
//!   normal crash outcome, not an error.
//! - **Corrupt**: the file is structurally complete but semantically
//!   wrong — bad magic, an unknown op tag, a checksum-valid record that
//!   fails to decode or apply. That is damage no crash timing explains,
//!   and it surfaces as [`StorageError::Corrupt`] rather than a silent
//!   partial recovery.
//!
//! Records whose snapshot version is not newer than the state already
//! recovered are skipped, which makes replay idempotent when a crash
//! lands between "checkpoint written" and "journal truncated".
//!
//! # Checkpoint / truncate protocol
//!
//! [`FileBackend::checkpoint`] writes the snapshot to a temp file,
//! fsyncs it, atomically renames it over `checkpoint.cpnn`, fsyncs the
//! directory, and only then resets `wal.cpwl` to an empty journal — so
//! at every instant the pair (checkpoint, journal) on disk reconstructs
//! a state the server actually published.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::persist::{self, PersistentModel, SnapshotError, SnapshotReader};
use crate::update::UpdateOp;

const WAL_MAGIC: &[u8; 4] = b"CPWL";
const WAL_VERSION: u32 = 1;
const WAL_HEADER_LEN: usize = 8;

/// Errors raised by the durable-storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (append, fsync, rename, ...).
    Io(io::Error),
    /// Checkpoint encode/decode failure.
    Snapshot(SnapshotError),
    /// The journal is damaged in a way no crash timing explains (bad
    /// magic, undecodable checksum-valid record, ...). Torn tails are
    /// *not* errors: replay stops at the last complete record.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            StorageError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<SnapshotError> for StorageError {
    fn from(e: SnapshotError) -> Self {
        StorageError::Snapshot(e)
    }
}

/// Result alias for the storage layer.
pub(crate) type StorageResult<T> = std::result::Result<T, StorageError>;

/// The durability seam the server writes through. Implementations append
/// journal records and write checkpoints; both are called **before** the
/// corresponding snapshot is published (write-ahead: durable, then
/// visible).
///
/// The trait is deliberately object-safe: ops arrive encoded (by
/// [`UpdateOp::write_op`]), so a `Box<dyn StorageBackend<M>>` can live
/// inside a [`crate::server::QueryServer`].
pub trait StorageBackend<M>: Send {
    /// Append one journal record covering a published burst: the `count`
    /// encoded ops in `ops` (in application order) produced snapshot
    /// `version`. Must be durable when it returns.
    fn append_burst(&mut self, version: u64, count: u32, ops: &[u8]) -> StorageResult<()>;
    /// Write a full checkpoint of `model` at snapshot `version` and
    /// truncate the journal it supersedes.
    fn checkpoint(&mut self, model: &M, version: u64) -> StorageResult<()>;
}

/// Assemble one framed journal record from `count` encoded ops.
pub fn encode_record(version: u64, count: u32, ops: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + ops.len());
    payload.extend_from_slice(&version.to_le_bytes());
    payload.extend_from_slice(&count.to_le_bytes());
    payload.extend_from_slice(ops);
    let mut record = Vec::with_capacity(payload.len() + 12);
    persist::write_frame(&mut record, &payload).expect("write to Vec<u8> is infallible");
    record
}

/// The 8-byte journal file header (magic + version).
pub fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// The outcome of checkpoint-plus-journal recovery.
#[derive(Debug)]
pub struct Recovered<M> {
    /// The recovered model: the checkpoint with every durable journal
    /// record replayed on top.
    pub model: M,
    /// The snapshot version the recovered state corresponds to — the
    /// version a restarted server should resume citing from.
    pub version: u64,
    /// Complete journal records replayed (including version-skipped
    /// duplicates).
    pub records: u64,
    /// Byte offset of a torn tail, if the journal ended mid-record (the
    /// normal trace of a crash mid-append); `None` for a clean journal.
    pub torn_at: Option<usize>,
}

/// Replay journal bytes on top of `base` (the checkpointed model at
/// `base_version`). A torn tail (a record cut short, or failing its
/// checksum) ends replay cleanly at [`Recovered::torn_at`]; damage no
/// crash explains is [`StorageError::Corrupt`].
pub fn replay_wal<M: PersistentModel>(
    wal: &[u8],
    base: M,
    base_version: u64,
) -> StorageResult<Recovered<M>> {
    let mut model = base;
    let mut version = base_version;
    let mut records = 0u64;
    let mut torn_at = None;
    // An absent/empty journal is a clean journal (nothing since the
    // checkpoint); a short or mismatched header is torn/corrupt.
    if !wal.is_empty() {
        if wal.len() < WAL_HEADER_LEN {
            return Ok(Recovered {
                model,
                version,
                records,
                torn_at: Some(0),
            });
        }
        if &wal[..4] != WAL_MAGIC {
            return Err(StorageError::Corrupt("bad journal magic".into()));
        }
        let jv = u32::from_le_bytes(wal[4..8].try_into().expect("4-byte slice"));
        if jv != WAL_VERSION {
            return Err(StorageError::Corrupt(format!(
                "unsupported journal version {jv}"
            )));
        }
        let mut off = WAL_HEADER_LEN;
        while off < wal.len() {
            // Incomplete length prefix, payload, or checksum: torn tail.
            if wal.len() - off < 4 {
                torn_at = Some(off);
                break;
            }
            let len =
                u32::from_le_bytes(wal[off..off + 4].try_into().expect("4-byte slice")) as usize;
            if wal.len() - off - 4 < len + 8 {
                torn_at = Some(off);
                break;
            }
            let payload = &wal[off + 4..off + 4 + len];
            let stored = u64::from_le_bytes(
                wal[off + 4 + len..off + 4 + len + 8]
                    .try_into()
                    .expect("8-byte slice"),
            );
            if persist::fnv1a(payload) != stored {
                // A checksum that does not match is the tell-tale of a
                // write that never completed: stop at the durable prefix.
                torn_at = Some(off);
                break;
            }
            let rec_version = decode_record_version(payload)?;
            if rec_version > version {
                model = apply_record::<M>(model, payload)?;
                version = rec_version;
            }
            records += 1;
            off += 4 + len + 8;
        }
    }
    Ok(Recovered {
        model,
        version,
        records,
        torn_at,
    })
}

fn corrupt<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> StorageError + '_ {
    move |e| StorageError::Corrupt(format!("{what}: {e}"))
}

fn decode_record_version(payload: &[u8]) -> StorageResult<u64> {
    if payload.len() < 12 {
        return Err(StorageError::Corrupt(
            "checksum-valid record shorter than its fixed fields".into(),
        ));
    }
    Ok(u64::from_le_bytes(
        payload[..8].try_into().expect("8-byte slice"),
    ))
}

/// Apply one checksum-valid record's ops. Any failure here is
/// [`StorageError::Corrupt`]: the journal only ever records ops that
/// *did* apply to the live model, so a replay failure means the bytes do
/// not describe what was journaled.
fn apply_record<M: PersistentModel>(mut model: M, payload: &[u8]) -> StorageResult<M> {
    let mut r = SnapshotReader::new(&payload[8..]);
    let count = r.take_u32().map_err(corrupt("journal record op count"))?;
    for _ in 0..count {
        let op = UpdateOp::<M>::read_op(&mut r).map_err(corrupt("journal op"))?;
        model = op.apply(&model).map_err(corrupt("journal op replay"))?.0;
    }
    if !r.into_inner().is_empty() {
        return Err(StorageError::Corrupt(
            "journal record has trailing bytes past its ops".into(),
        ));
    }
    Ok(model)
}

#[derive(Debug, Default)]
struct MemoryState {
    checkpoint: Option<Vec<u8>>,
    wal: Vec<u8>,
}

/// An in-memory backend holding the exact bytes a [`FileBackend`] would
/// have written. Cloning shares the state, so tests (and the recovery
/// property suite) can attach one handle to a server and inspect or
/// replay from the other — including from arbitrary byte prefixes.
#[derive(Debug, Default, Clone)]
pub struct MemoryBackend {
    state: Arc<Mutex<MemoryState>>,
}

impl MemoryBackend {
    /// A fresh, empty backend (no checkpoint, empty journal).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current checkpoint image, if one was written.
    pub fn checkpoint_bytes(&self) -> Option<Vec<u8>> {
        self.state
            .lock()
            .expect("storage state lock")
            .checkpoint
            .clone()
    }

    /// The current journal bytes (header + records).
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.state.lock().expect("storage state lock").wal.clone()
    }

    /// Recover a model from the held bytes: decode the checkpoint, then
    /// replay the journal. `None` when no checkpoint was ever written.
    pub fn recover<M: PersistentModel>(
        &self,
        ctx: &M::Context,
    ) -> StorageResult<Option<Recovered<M>>> {
        let (checkpoint, wal) = {
            let state = self.state.lock().expect("storage state lock");
            (state.checkpoint.clone(), state.wal.clone())
        };
        let Some(checkpoint) = checkpoint else {
            return Ok(None);
        };
        let (model, version) = persist::read_model::<M, _>(checkpoint.as_slice(), ctx)?;
        replay_wal(&wal, model, version).map(Some)
    }
}

impl<M: PersistentModel> StorageBackend<M> for MemoryBackend {
    fn append_burst(&mut self, version: u64, count: u32, ops: &[u8]) -> StorageResult<()> {
        let record = encode_record(version, count, ops);
        let mut state = self.state.lock().expect("storage state lock");
        if state.wal.is_empty() {
            state.wal.extend_from_slice(&wal_header());
        }
        state.wal.extend_from_slice(&record);
        Ok(())
    }
    fn checkpoint(&mut self, model: &M, version: u64) -> StorageResult<()> {
        let mut image = Vec::new();
        persist::write_model(model, version, &mut image)?;
        let mut state = self.state.lock().expect("storage state lock");
        state.checkpoint = Some(image);
        state.wal = wal_header().to_vec();
        Ok(())
    }
}

/// The file-backed backend: `checkpoint.cpnn` + `wal.cpwl` inside one
/// data directory. Appends are fsync'd before they return; checkpoints
/// go through a temp-file + atomic-rename + directory-fsync dance and
/// only then truncate the journal.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// Kept open across appends so each burst costs one write + fsync.
    wal: Option<File>,
}

impl FileBackend {
    /// Open (creating if needed) the data directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, wal: None })
    }

    /// Path of the checkpoint image.
    pub(crate) fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.cpnn")
    }

    /// Path of the write-ahead journal.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.cpwl")
    }

    /// Recover from the directory: decode `checkpoint.cpnn`, replay
    /// `wal.cpwl` on top. `None` when no checkpoint exists yet (a fresh
    /// directory — the caller seeds the initial state and should
    /// checkpoint it immediately).
    pub fn recover<M: PersistentModel>(
        &mut self,
        ctx: &M::Context,
    ) -> StorageResult<Option<Recovered<M>>> {
        self.wal = None;
        let checkpoint = self.checkpoint_path();
        if !checkpoint.exists() {
            return Ok(None);
        }
        let file = File::open(&checkpoint)?;
        let (model, version) = persist::read_model::<M, _>(io::BufReader::new(file), ctx)?;
        let wal = match fs::read(self.wal_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        replay_wal(&wal, model, version).map(Some)
    }

    fn wal_file(&mut self) -> io::Result<&mut File> {
        if self.wal.is_none() {
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.wal_path())?;
            if file.metadata()?.len() == 0 {
                file.write_all(&wal_header())?;
            }
            self.wal = Some(file);
        }
        Ok(self.wal.as_mut().expect("wal file just ensured"))
    }

    /// fsync the directory so renames/creates within it are durable.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }
}

impl<M: PersistentModel> StorageBackend<M> for FileBackend {
    fn append_burst(&mut self, version: u64, count: u32, ops: &[u8]) -> StorageResult<()> {
        let record = encode_record(version, count, ops);
        let file = self.wal_file()?;
        file.write_all(&record)?;
        file.sync_data()?;
        Ok(())
    }

    fn checkpoint(&mut self, model: &M, version: u64) -> StorageResult<()> {
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let file = File::create(&tmp)?;
            let mut w = io::BufWriter::new(file);
            persist::write_model(model, version, &mut w)?;
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        fs::rename(&tmp, self.checkpoint_path())?;
        self.sync_dir()?;
        // The checkpoint now covers everything the journal recorded:
        // reset it to an empty journal.
        self.wal = None;
        let mut wal = File::create(self.wal_path())?;
        wal.write_all(&wal_header())?;
        wal.sync_all()?;
        self.sync_dir()?;
        Ok(())
    }
}

/// Fault injection for durability tests: forwards writes to `inner`
/// until `budget` bytes have passed, then fails every further write —
/// simulating a crash that tore the stream at an arbitrary byte
/// boundary. The final chunk is short-written, exactly like a real torn
/// write.
#[derive(Debug)]
pub struct CrashWriter<W> {
    inner: W,
    budget: usize,
}

impl<W: Write> CrashWriter<W> {
    /// Crash after exactly `budget` bytes reach `inner`.
    pub fn new(inner: W, budget: usize) -> Self {
        Self { inner, budget }
    }
    /// Unwrap the sink, keeping whatever made it through.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CrashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 && !buf.is_empty() {
            return Err(io::Error::other("injected crash"));
        }
        let n = buf.len().min(self.budget);
        let written = self.inner.write(&buf[..n])?;
        self.budget -= written;
        Ok(written)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, UncertainDb};
    use crate::object::{ObjectId, UncertainObject};
    use crate::persist::SnapshotWriter;

    fn obj(id: u64, lo: f64, hi: f64) -> UncertainObject {
        UncertainObject::uniform(ObjectId(id), lo, hi).unwrap()
    }

    fn insert(object: UncertainObject) -> UpdateOp<UncertainDb> {
        UpdateOp::Insert(object)
    }

    /// The ops' bytes, each written by [`UpdateOp::write_op`].
    fn op_bytes(ops: &[UpdateOp<UncertainDb>]) -> Vec<u8> {
        let mut w = SnapshotWriter::new(Vec::new());
        for op in ops {
            op.write_op(&mut w).unwrap();
        }
        w.into_inner()
    }

    fn record(version: u64, ops: &[UpdateOp<UncertainDb>]) -> Vec<u8> {
        encode_record(version, ops.len() as u32, &op_bytes(ops))
    }

    fn base_db() -> UncertainDb {
        UncertainDb::build((0..4).map(|i| obj(i, i as f64, i as f64 + 1.0)).collect()).unwrap()
    }

    #[test]
    fn record_round_trip_replays() {
        let db = base_db();
        let ops = [insert(obj(100, 8.0, 9.0)), UpdateOp::Remove(ObjectId(1))];
        let mut wal = wal_header().to_vec();
        wal.extend_from_slice(&record(1, &ops));
        let rec = replay_wal(&wal, db.clone(), 0).unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.records, 1);
        assert_eq!(rec.torn_at, None);
        assert_eq!(rec.model.len(), db.len()); // +1 −1
        assert!(rec.model.objects().iter().any(|o| o.id() == ObjectId(100)));
        assert!(!rec.model.objects().iter().any(|o| o.id() == ObjectId(1)));
    }

    #[test]
    fn stale_records_are_skipped_idempotently() {
        let db = base_db();
        let ops = [insert(obj(100, 8.0, 9.0))];
        let mut wal = wal_header().to_vec();
        wal.extend_from_slice(&record(1, &ops));
        // Base already at version 1: the record must be skipped, so the
        // duplicate insert never replays.
        let rec = replay_wal(&wal, db.clone(), 1).unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.records, 1);
        assert_eq!(rec.model.len(), db.len());
    }

    #[test]
    fn every_torn_prefix_recovers_the_durable_prefix() {
        let db = base_db();
        let mut wal = wal_header().to_vec();
        wal.extend_from_slice(&record(1, &[insert(obj(100, 8.0, 9.0))]));
        let first_burst_end = wal.len();
        wal.extend_from_slice(&record(2, &[UpdateOp::Remove(ObjectId(0))]));
        for cut in 0..wal.len() {
            let rec = replay_wal(&wal[..cut], db.clone(), 0).unwrap();
            if cut < first_burst_end {
                assert_eq!(rec.version, 0, "cut={cut}");
            } else if cut < wal.len() {
                assert_eq!(rec.version, 1, "cut={cut}");
            }
            // Never a torn in-between: version fully determines contents.
            match rec.version {
                0 => assert_eq!(rec.model.len(), 4),
                1 => assert_eq!(rec.model.len(), 5),
                _ => unreachable!(),
            }
        }
        let full = replay_wal(&wal, db, 0).unwrap();
        assert_eq!(full.version, 2);
        assert_eq!(full.torn_at, None);
    }

    #[test]
    fn bad_magic_is_corrupt_not_torn() {
        let mut wal = b"XXXX\x01\x00\x00\x00".to_vec();
        wal.extend_from_slice(&encode_record(1, 0, &[]));
        let err = replay_wal(&wal, base_db(), 0).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unknown_op_tag_is_corrupt() {
        let mut wal = wal_header().to_vec();
        wal.extend_from_slice(&encode_record(1, 1, &[9u8]));
        let err = replay_wal(&wal, base_db(), 0).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
    }

    #[test]
    fn memory_backend_full_cycle() {
        let db = base_db();
        let mut backend = MemoryBackend::new();
        StorageBackend::<UncertainDb>::checkpoint(&mut backend, &db, 0).unwrap();
        StorageBackend::<UncertainDb>::append_burst(
            &mut backend,
            1,
            1,
            &op_bytes(&[insert(obj(100, 8.0, 9.0))]),
        )
        .unwrap();
        let rec = backend
            .recover::<UncertainDb>(&EngineConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.model.len(), 5);
        // A new checkpoint truncates the journal.
        StorageBackend::<UncertainDb>::checkpoint(&mut backend, &rec.model, rec.version).unwrap();
        assert_eq!(backend.wal_bytes(), wal_header().to_vec());
    }

    #[test]
    fn file_backend_full_cycle() {
        let dir = std::env::temp_dir().join(format!("cpnn_storage_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let db = base_db();
        {
            let mut backend = FileBackend::open(&dir).unwrap();
            assert!(backend
                .recover::<UncertainDb>(&EngineConfig::default())
                .unwrap()
                .is_none());
            StorageBackend::<UncertainDb>::checkpoint(&mut backend, &db, 0).unwrap();
            StorageBackend::<UncertainDb>::append_burst(
                &mut backend,
                1,
                1,
                &op_bytes(&[insert(obj(100, 8.0, 9.0))]),
            )
            .unwrap();
            StorageBackend::<UncertainDb>::append_burst(
                &mut backend,
                2,
                1,
                &op_bytes(&[UpdateOp::Remove(ObjectId(2))]),
            )
            .unwrap();
        }
        let mut backend = FileBackend::open(&dir).unwrap();
        let rec = backend
            .recover::<UncertainDb>(&EngineConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(rec.version, 2);
        assert_eq!(rec.records, 2);
        assert_eq!(rec.model.len(), 4);
        // Checkpoint resets the journal file to just its header.
        StorageBackend::<UncertainDb>::checkpoint(&mut backend, &rec.model, rec.version).unwrap();
        assert_eq!(fs::read(backend.wal_path()).unwrap(), wal_header().to_vec());
        let rec2 = backend
            .recover::<UncertainDb>(&EngineConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(rec2.version, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_writer_short_writes_then_fails() {
        let mut w = CrashWriter::new(Vec::new(), 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2);
        assert!(w.write(b"h").is_err());
        assert_eq!(w.into_inner(), b"abcde");
    }
}
