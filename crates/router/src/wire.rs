//! The shard-serving wire protocol: length-prefixed, FNV-checksummed
//! frames — the write-ahead journal's record layout, written by the same
//! [`cpnn_core::persist::write_frame`] — carrying a small set of tagged
//! messages. An `Update` message's ops are [`UpdateOp`]s in the journal's
//! op codec.
//!
//! ## Frame layout
//!
//! ```text
//! | len: u32 LE | payload (len bytes) | fnv1a(payload): u64 LE |
//! ```
//!
//! `len` is capped at [`MAX_FRAME`]; the payload's first byte is the
//! message tag. The error taxonomy mirrors the write-ahead journal's
//! torn-vs-corrupt split: a clean EOF at a frame boundary is end of
//! stream (`Ok(None)`), an EOF *inside* a frame is [`WireError::Torn`]
//! (the peer died mid-send), and everything else — bad checksum,
//! oversized prefix, unknown tag, undecodable body, trailing garbage —
//! is a typed [`WireError`], never a panic (fixture-tested in
//! `tests/wire_fixtures.rs`).
//!
//! ## Bit-exact candidate transport
//!
//! `Candidates` replies ship each surviving object's distance histogram
//! as its **raw parts** (its one buffer: edges, densities, cdf knots,
//! every `f64` bit preserved) and the router reads each item back into
//! one buffer and reassembles it through
//! [`HistogramPdf::from_raw_parts`] — validation without
//! renormalization — so a routed candidate set compares equal to the one
//! an in-process [`ShardedDb`](cpnn_core::ShardedDb) builds. That is the
//! keystone of the routed ≡ single-process property.

use std::fmt;
use std::io::{self, Read, Write};

use cpnn_core::persist::{self, fnv1a, SnapshotReader, SnapshotWriter};
use cpnn_core::shard::Extent;
use cpnn_core::{DistanceDistribution, ObjectId, ServerStats, UpdateOp};
use cpnn_pdf::HistogramPdf;

use crate::RoutedModel;

/// Connection magic, sent inside every `Hello` request.
pub(crate) const WIRE_MAGIC: [u8; 4] = *b"CPRT";
/// Protocol version, checked at `Hello`.
pub(crate) const WIRE_VERSION: u32 = 1;
/// Maximum frame payload length (16 MiB) — anything larger is rejected
/// as [`WireError::Oversized`] before any allocation happens.
pub const MAX_FRAME: u32 = 1 << 24;

/// Request tags (payload byte 0).
pub mod tag {
    /// Handshake: magic + protocol version + spatial dimension.
    pub const HELLO: u8 = 0x01;
    /// Filter phase for one query point.
    pub(crate) const FILTER: u8 = 0x02;
    /// One coalesced update burst.
    pub const UPDATE: u8 = 0x03;
    /// Server counters.
    pub(crate) const STATS: u8 = 0x04;
    /// All stored object ids (router id-map seeding / resync).
    pub(crate) const IDS: u8 = 0x05;
    /// Reply: shard status after a handshake.
    pub(crate) const HELLO_OK: u8 = 0x11;
    /// Reply: filter survivors with their distance histograms.
    pub const CANDIDATES: u8 = 0x12;
    /// Reply: post-burst status plus per-op outcomes.
    pub(crate) const UPDATE_OK: u8 = 0x13;
    /// Reply: counters.
    pub(crate) const STATS_OK: u8 = 0x14;
    /// Reply: stored object ids.
    pub(crate) const IDS_OK: u8 = 0x15;
    /// Reply: a typed remote error (never a closed socket mid-frame).
    pub(crate) const ERROR: u8 = 0x1F;
}

const MAX_ITEMS: u32 = 1 << 20;
const MAX_BARS: u32 = 1 << 20;
const MAX_STR: u32 = 4096;
const MAX_IDS: u32 = 1 << 26;
/// Pre-allocation clamp: counts are validated against the caps above,
/// but allocation still grows incrementally so a lying length prefix
/// cannot balloon memory before the decode fails.
const PREALLOC: usize = 1 << 16;

/// Wire-level failures, split along the journal's torn-vs-corrupt
/// taxonomy.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed (includes read/write timeouts).
    Io(io::Error),
    /// The stream ended inside a frame — the peer died mid-send.
    Torn(&'static str),
    /// A structurally invalid frame or message: checksum mismatch,
    /// unknown tag, short body, trailing bytes, invalid histogram parts.
    Corrupt(String),
    /// A length prefix beyond [`MAX_FRAME`] (or zero).
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket i/o failed: {e}"),
            Self::Torn(what) => write!(f, "stream torn mid-frame ({what})"),
            Self::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            Self::Oversized { len, max } => {
                write!(f, "frame length {len} outside (0, {max}]")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl WireError {
    /// Whether the connection is worth redialing: transport errors and
    /// torn streams are (the peer or network died); corrupt frames are
    /// not a transient condition but desynchronize the stream, so the
    /// caller should drop the connection either way.
    pub(crate) fn is_disconnect(&self) -> bool {
        matches!(self, Self::Io(_) | Self::Torn(_))
    }
}

/// Write one frame: length prefix, payload, checksum trailer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    debug_assert!(
        !payload.is_empty() && payload.len() <= MAX_FRAME as usize,
        "frame payloads are bounded by construction"
    );
    persist::write_frame(w, payload)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` is a clean EOF at a frame
/// boundary; an EOF anywhere inside a frame is [`WireError::Torn`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Torn("length prefix")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, "payload")?;
    let mut crc = [0u8; 8];
    read_exact_frame(r, &mut crc, "checksum trailer")?;
    if u64::from_le_bytes(crc) != fnv1a(&payload) {
        return Err(WireError::Corrupt("checksum mismatch".into()));
    }
    Ok(Some(payload))
}

fn read_exact_frame<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    what: &'static str,
) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Torn(what)
        } else {
            WireError::Io(e)
        }
    })
}

/// A request frame, router → shard.
pub enum Request<M: RoutedModel> {
    /// Handshake: verify magic, protocol version, and spatial dimension;
    /// the reply carries the shard's status summary.
    Hello,
    /// Run the filter phase for the query at `coords` with candidate
    /// budget `k`; the reply ships the survivors' distance histograms.
    Filter {
        /// Wire coordinates of the query point (length `M::DIM`).
        coords: Vec<f64>,
        /// Candidate budget (`k` of the k-NN query).
        k: u64,
    },
    /// Apply one coalesced burst: queue every op, publish once.
    Update(Vec<UpdateOp<M>>),
    /// Report counters.
    Stats,
    /// Report every stored object id (id-map seeding / post-crash
    /// resync).
    Ids,
}

impl<M: RoutedModel> fmt::Debug for Request<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Hello => write!(f, "Hello"),
            Self::Filter { coords, k } => write!(f, "Filter {{ coords: {coords:?}, k: {k} }}"),
            Self::Update(ops) => write!(f, "Update({ops:?})"),
            Self::Stats => write!(f, "Stats"),
            Self::Ids => write!(f, "Ids"),
        }
    }
}

/// A shard's status summary: snapshot version, object count, and exact
/// extent — everything [`select_overlapping`](cpnn_core::shard::select_overlapping)
/// needs for horizon-pruned fan-out.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// The shard server's current snapshot version.
    pub(crate) version: u64,
    /// Objects stored.
    pub objects: u64,
    /// Exact extent of the stored objects (`None` when empty).
    pub(crate) extent: Option<Extent>,
}

/// A shard process's counters: wire-level filter requests served plus
/// the hosted [`QueryServer`](cpnn_core::QueryServer)'s own counters.
#[derive(Debug, Clone)]
pub struct ShardProcessStats {
    /// Filter requests answered over the socket.
    pub(crate) filters: u64,
    /// The hosted server's counters (updates, WAL records, checkpoints…).
    pub(crate) server: ServerStats,
}

/// A response frame, shard → router.
#[derive(Debug)]
pub enum Response {
    /// Handshake accepted.
    Hello(ShardStatus),
    /// Filter survivors at the snapshot `version` that answered.
    Candidates {
        /// Snapshot version the filter ran against.
        version: u64,
        /// `(id, distance distribution)` per surviving object.
        items: Vec<(ObjectId, DistanceDistribution)>,
    },
    /// Burst applied (publish happened iff any op succeeded).
    Update {
        /// Post-burst status.
        status: ShardStatus,
        /// Per-op outcome, in burst order.
        outcomes: Vec<Result<(), String>>,
    },
    /// Counters.
    Stats(ShardProcessStats),
    /// Stored object ids.
    Ids(Vec<u64>),
    /// A typed remote failure (bad request, filter error, …). The
    /// connection stays framed; the peer may continue.
    Error(String),
}

fn writer() -> SnapshotWriter<Vec<u8>> {
    SnapshotWriter::new(Vec::new())
}

fn put_extent(w: &mut SnapshotWriter<Vec<u8>>, extent: &Option<Extent>) -> io::Result<()> {
    match extent {
        None => w.put_u8(0),
        Some(e) => {
            w.put_u8(1)?;
            w.put_u32(e.dims() as u32)?;
            for &v in &e.lo {
                w.put_f64(v)?;
            }
            for &v in &e.hi {
                w.put_f64(v)?;
            }
            Ok(())
        }
    }
}

fn put_status(w: &mut SnapshotWriter<Vec<u8>>, status: &ShardStatus) -> io::Result<()> {
    w.put_u64(status.version)?;
    w.put_u64(status.objects)?;
    put_extent(w, &status.extent)
}

fn put_str(w: &mut SnapshotWriter<Vec<u8>>, s: &str) -> io::Result<()> {
    let bytes = s.as_bytes();
    let take = bytes.len().min(MAX_STR as usize);
    // Truncate at a char boundary so the decode side never sees broken
    // UTF-8 (error strings only; data is never truncated).
    let mut end = take;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    w.put_u32(end as u32)?;
    w.put(&bytes[..end])
}

impl<M: RoutedModel> Request<M> {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = writer();
        let encode = |w: &mut SnapshotWriter<Vec<u8>>| -> io::Result<()> {
            match self {
                Self::Hello => {
                    w.put_u8(tag::HELLO)?;
                    w.put(&WIRE_MAGIC)?;
                    w.put_u32(WIRE_VERSION)?;
                    w.put_u32(M::DIM)
                }
                Self::Filter { coords, k } => {
                    w.put_u8(tag::FILTER)?;
                    w.put_u32(coords.len() as u32)?;
                    for &c in coords {
                        w.put_f64(c)?;
                    }
                    w.put_u64(*k)
                }
                Self::Update(ops) => {
                    w.put_u8(tag::UPDATE)?;
                    w.put_u32(ops.len() as u32)?;
                    ops.iter().try_for_each(|op| op.write_op(w))
                }
                Self::Stats => w.put_u8(tag::STATS),
                Self::Ids => w.put_u8(tag::IDS),
            }
        };
        encode(&mut w).expect("in-memory encode never fails");
        w.into_inner()
    }

    /// Decode a frame payload. Every failure is typed; unknown tags,
    /// short bodies, and trailing bytes are [`WireError::Corrupt`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = SnapshotReader::new(payload);
        let req = match take_u8(&mut r)? {
            tag::HELLO => {
                let magic: [u8; 4] = take_bytes(&mut r)?;
                if magic != WIRE_MAGIC {
                    return Err(WireError::Corrupt("bad hello magic".into()));
                }
                let version = take_u32(&mut r)?;
                if version != WIRE_VERSION {
                    return Err(WireError::Corrupt(format!(
                        "unsupported protocol version {version} (expected {WIRE_VERSION})"
                    )));
                }
                let dim = take_u32(&mut r)?;
                if dim != M::DIM {
                    return Err(WireError::Corrupt(format!(
                        "dimension mismatch: peer speaks {dim}-D, shard is {}-D",
                        M::DIM
                    )));
                }
                Self::Hello
            }
            tag::FILTER => {
                let n = take_count(&mut r, 16, "query coordinates")?;
                let coords = take_f64s(&mut r, n)?;
                let k = take_u64(&mut r)?;
                Self::Filter { coords, k }
            }
            tag::UPDATE => {
                let n = take_count(&mut r, MAX_ITEMS, "update ops")?;
                let mut ops = Vec::with_capacity(n.min(PREALLOC as u32) as usize);
                for _ in 0..n {
                    let op = UpdateOp::read_op(&mut r)
                        .map_err(|e| WireError::Corrupt(format!("bad update op: {e}")))?;
                    ops.push(op);
                }
                Self::Update(ops)
            }
            tag::STATS => Self::Stats,
            tag::IDS => Self::Ids,
            t => return Err(WireError::Corrupt(format!("unknown request tag {t:#04x}"))),
        };
        expect_consumed(r)?;
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = writer();
        let encode = |w: &mut SnapshotWriter<Vec<u8>>| -> io::Result<()> {
            match self {
                Self::Hello(status) => {
                    w.put_u8(tag::HELLO_OK)?;
                    put_status(w, status)
                }
                Self::Candidates { version, items } => {
                    w.put_u8(tag::CANDIDATES)?;
                    w.put_u64(*version)?;
                    w.put_u32(items.len() as u32)?;
                    for (id, dist) in items {
                        w.put_u64(id.0)?;
                        let hist = dist.histogram();
                        w.put_u32(hist.bar_count() as u32)?;
                        for &v in hist.raw_parts() {
                            w.put_f64(v)?;
                        }
                    }
                    Ok(())
                }
                Self::Update { status, outcomes } => {
                    w.put_u8(tag::UPDATE_OK)?;
                    put_status(w, status)?;
                    w.put_u32(outcomes.len() as u32)?;
                    for outcome in outcomes {
                        match outcome {
                            Ok(()) => w.put_u8(0)?,
                            Err(msg) => {
                                w.put_u8(1)?;
                                put_str(w, msg)?;
                            }
                        }
                    }
                    Ok(())
                }
                Self::Stats(stats) => {
                    w.put_u8(tag::STATS_OK)?;
                    w.put_u64(stats.filters)?;
                    let s = &stats.server;
                    for v in [
                        s.served,
                        s.updates,
                        s.coalesced_batches,
                        s.applied_updates,
                        s.cache_hits,
                        s.cache_misses,
                        s.shared_hits,
                        s.outcome_hits,
                        s.wal_records,
                        s.checkpoints,
                    ] {
                        w.put_u64(v)?;
                    }
                    Ok(())
                }
                Self::Ids(ids) => {
                    w.put_u8(tag::IDS_OK)?;
                    w.put_u32(ids.len() as u32)?;
                    for &id in ids {
                        w.put_u64(id)?;
                    }
                    Ok(())
                }
                Self::Error(msg) => {
                    w.put_u8(tag::ERROR)?;
                    put_str(w, msg)
                }
            }
        };
        encode(&mut w).expect("in-memory encode never fails");
        w.into_inner()
    }

    /// Decode a frame payload; the dual of [`encode`](Self::encode),
    /// with the same typed-error discipline as
    /// [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = SnapshotReader::new(payload);
        let resp = match take_u8(&mut r)? {
            tag::HELLO_OK => Self::Hello(take_status(&mut r)?),
            tag::CANDIDATES => {
                let version = take_u64(&mut r)?;
                let n = take_count(&mut r, MAX_ITEMS, "candidate items")?;
                let mut items = Vec::with_capacity(n.min(PREALLOC as u32) as usize);
                for _ in 0..n {
                    let id = ObjectId(take_u64(&mut r)?);
                    let bars = take_count(&mut r, MAX_BARS, "histogram bars")?;
                    // `edges | densities | cdf`: the histogram's own layout.
                    let parts = take_f64s(&mut r, 3 * bars + 2)?;
                    let hist = HistogramPdf::from_raw_parts(parts)
                        .map_err(|e| WireError::Corrupt(format!("bad distance histogram: {e}")))?;
                    items.push((id, DistanceDistribution::from_histogram(hist)));
                }
                Self::Candidates { version, items }
            }
            tag::UPDATE_OK => {
                let status = take_status(&mut r)?;
                let n = take_count(&mut r, MAX_ITEMS, "update outcomes")?;
                let mut outcomes = Vec::with_capacity(n.min(PREALLOC as u32) as usize);
                for _ in 0..n {
                    match take_u8(&mut r)? {
                        0 => outcomes.push(Ok(())),
                        1 => outcomes.push(Err(take_str(&mut r)?)),
                        k => {
                            return Err(WireError::Corrupt(format!("unknown outcome kind {k}")));
                        }
                    }
                }
                Self::Update { status, outcomes }
            }
            tag::STATS_OK => {
                let filters = take_u64(&mut r)?;
                let mut f = || take_u64(&mut r);
                let server = ServerStats {
                    served: f()?,
                    updates: f()?,
                    coalesced_batches: f()?,
                    applied_updates: f()?,
                    cache_hits: f()?,
                    cache_misses: f()?,
                    shared_hits: f()?,
                    outcome_hits: f()?,
                    wal_records: f()?,
                    checkpoints: f()?,
                };
                Self::Stats(ShardProcessStats { filters, server })
            }
            tag::IDS_OK => {
                let n = take_count(&mut r, MAX_IDS, "object ids")?;
                let mut ids = Vec::with_capacity(n.min(PREALLOC as u32) as usize);
                for _ in 0..n {
                    ids.push(take_u64(&mut r)?);
                }
                Self::Ids(ids)
            }
            tag::ERROR => Self::Error(take_str(&mut r)?),
            t => return Err(WireError::Corrupt(format!("unknown response tag {t:#04x}"))),
        };
        expect_consumed(r)?;
        Ok(resp)
    }
}

fn truncated(_: io::Error) -> WireError {
    WireError::Corrupt("truncated message body".into())
}

fn take_u8(r: &mut SnapshotReader<&[u8]>) -> Result<u8, WireError> {
    r.take_u8().map_err(truncated)
}

fn take_u32(r: &mut SnapshotReader<&[u8]>) -> Result<u32, WireError> {
    r.take_u32().map_err(truncated)
}

fn take_u64(r: &mut SnapshotReader<&[u8]>) -> Result<u64, WireError> {
    r.take_u64().map_err(truncated)
}

fn take_bytes<const N: usize>(r: &mut SnapshotReader<&[u8]>) -> Result<[u8; N], WireError> {
    r.take::<N>().map_err(truncated)
}

fn take_count(
    r: &mut SnapshotReader<&[u8]>,
    max: u32,
    what: &'static str,
) -> Result<u32, WireError> {
    let n = take_u32(r)?;
    if n > max {
        return Err(WireError::Corrupt(format!(
            "implausible {what} count {n} (cap {max})"
        )));
    }
    Ok(n)
}

fn take_f64s(r: &mut SnapshotReader<&[u8]>, n: u32) -> Result<Vec<f64>, WireError> {
    let mut out = Vec::with_capacity((n as usize).min(PREALLOC));
    for _ in 0..n {
        out.push(r.take_f64().map_err(truncated)?);
    }
    Ok(out)
}

fn take_str(r: &mut SnapshotReader<&[u8]>) -> Result<String, WireError> {
    let n = take_count(r, MAX_STR, "string bytes")?;
    let mut bytes = vec![0u8; n as usize];
    for b in bytes.iter_mut() {
        *b = r.take_u8().map_err(truncated)?;
    }
    String::from_utf8(bytes).map_err(|_| WireError::Corrupt("non-UTF-8 string".into()))
}

fn take_extent(r: &mut SnapshotReader<&[u8]>) -> Result<Option<Extent>, WireError> {
    match take_u8(r)? {
        0 => Ok(None),
        1 => {
            let dims = take_count(r, 16, "extent dimensions")?;
            if dims == 0 {
                return Err(WireError::Corrupt("zero-dimensional extent".into()));
            }
            let lo = take_f64s(r, dims)?;
            let hi = take_f64s(r, dims)?;
            if lo
                .iter()
                .zip(&hi)
                .any(|(a, b)| !a.is_finite() || !b.is_finite() || a > b)
            {
                return Err(WireError::Corrupt("inverted or non-finite extent".into()));
            }
            Ok(Some(Extent::new(lo, hi)))
        }
        k => Err(WireError::Corrupt(format!("unknown extent marker {k}"))),
    }
}

fn take_status(r: &mut SnapshotReader<&[u8]>) -> Result<ShardStatus, WireError> {
    Ok(ShardStatus {
        version: take_u64(r)?,
        objects: take_u64(r)?,
        extent: take_extent(r)?,
    })
}

fn expect_consumed(r: SnapshotReader<&[u8]>) -> Result<(), WireError> {
    let mut rest = r.into_inner();
    let mut probe = [0u8; 1];
    match rest.read(&mut probe) {
        Ok(0) => Ok(()),
        _ => Err(WireError::Corrupt("trailing bytes after message".into())),
    }
}
