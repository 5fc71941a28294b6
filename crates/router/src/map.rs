//! The shard map: the router's authoritative picture of the fleet — the
//! partition axis, the slab boundaries, and where each shard listens.
//!
//! Persisted as a tiny `CPSM` file in the snapshot idiom (`cpnn
//! shard-split` writes it next to the per-shard data directories; `cpnn
//! route` loads it). The axis and boundaries are the *same* values a
//! single-process [`ShardedDb`](cpnn_core::ShardedDb) would carry, which
//! is what lets the router reuse
//! [`slab_of`](cpnn_core::shard::slab_of) for update routing and claim
//! equivalence with in-process placement.
//!
//! ```text
//! magic "CPSM" | format version u32 (= 1) | axis u32
//! | boundary count u32 | boundaries [f64]
//! | shard count u32 | per shard: kind u8 (0 unix, 1 tcp)
//!                   | addr byte length u32 | addr bytes (UTF-8)
//! | FNV-1a trailer u64
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use cpnn_core::persist::{
    ChecksumReader, ChecksumWriter, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter,
};

use crate::net::ShardAddr;

const MAGIC: &[u8; 4] = b"CPSM";
const VERSION: u32 = 1;

/// Partition axis + slab boundaries + shard addresses. `bounds` has
/// `addrs.len() + 1` ascending entries; shard `i` owns slab
/// `[bounds[i], bounds[i + 1])` along `axis` (outer slabs unbounded in
/// practice — inserts clamp, exactly as
/// [`slab_of`](cpnn_core::shard::slab_of) does in-process).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMap {
    /// The partition axis (0 for 1-D; widest domain axis for 2-D).
    pub axis: usize,
    /// `addrs.len() + 1` ascending slab boundaries along `axis`.
    pub bounds: Vec<f64>,
    /// Where each shard listens, in slab order.
    pub addrs: Vec<ShardAddr>,
}

impl ShardMap {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.addrs.len()
    }

    /// Structural validity: at least one shard, one more boundary than
    /// shards, boundaries finite and non-decreasing (quantile balancing
    /// can produce duplicate boundaries — empty slabs — exactly as
    /// [`ShardedDb::from_parts`](cpnn_core::ShardedDb::from_parts)
    /// accepts).
    pub(crate) fn validate(&self) -> SnapshotResult<()> {
        let ok = !self.addrs.is_empty()
            && self.bounds.len() == self.addrs.len() + 1
            && self.bounds.iter().all(|b| b.is_finite())
            && self.bounds.windows(2).all(|w| w[0] <= w[1]);
        if ok {
            Ok(())
        } else {
            Err(SnapshotError::BadHeader)
        }
    }

    /// Encode into `sink` (snapshot idiom: hashed body + FNV trailer).
    pub(crate) fn write_to<W: Write>(&self, sink: W) -> SnapshotResult<()> {
        self.validate()?;
        let mut w = SnapshotWriter::new(ChecksumWriter::new(sink));
        w.put(MAGIC)?;
        w.put_u32(VERSION)?;
        w.put_u32(self.axis as u32)?;
        w.put_u32(self.bounds.len() as u32)?;
        for &b in &self.bounds {
            w.put_f64(b)?;
        }
        w.put_u32(self.addrs.len() as u32)?;
        for addr in &self.addrs {
            let (kind, text) = match addr {
                ShardAddr::Unix(p) => (0u8, p.display().to_string()),
                ShardAddr::Tcp(a) => (1u8, a.clone()),
            };
            w.put_u8(kind)?;
            let bytes = text.as_bytes();
            w.put_u32(bytes.len() as u32)?;
            w.put(bytes)?;
        }
        let mut sink = w.into_inner().finish()?;
        sink.flush()?;
        Ok(())
    }

    /// Decode from `source`; the dual of [`write_to`](Self::write_to).
    pub(crate) fn read_from<R: Read>(source: R) -> SnapshotResult<Self> {
        let mut r = SnapshotReader::new(ChecksumReader::new(source));
        if &r.take::<4>()? != MAGIC {
            return Err(SnapshotError::BadHeader);
        }
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let axis = r.take_u32()? as usize;
        let nb = r.take_u32()?;
        if !(2..=65_536).contains(&nb) {
            return Err(SnapshotError::BadHeader);
        }
        let mut bounds = Vec::with_capacity(nb as usize);
        for _ in 0..nb {
            bounds.push(r.take_f64()?);
        }
        let na = r.take_u32()?;
        if na + 1 != nb {
            return Err(SnapshotError::BadHeader);
        }
        let mut addrs = Vec::with_capacity(na as usize);
        for _ in 0..na {
            let kind = r.take_u8()?;
            let len = r.take_u32()?;
            if len > 4096 {
                return Err(SnapshotError::BadHeader);
            }
            let mut bytes = vec![0u8; len as usize];
            for b in bytes.iter_mut() {
                *b = r.take_u8()?;
            }
            let text = String::from_utf8(bytes).map_err(|_| SnapshotError::BadHeader)?;
            addrs.push(match kind {
                0 => ShardAddr::Unix(text.into()),
                1 => ShardAddr::Tcp(text),
                _ => return Err(SnapshotError::BadHeader),
            });
        }
        r.into_inner().verify_trailer()?;
        let map = Self {
            axis,
            bounds,
            addrs,
        };
        map.validate()?;
        Ok(map)
    }

    /// Write to a file (buffered; creates or truncates).
    pub fn write_to_path(&self, path: &Path) -> SnapshotResult<()> {
        self.write_to(BufWriter::new(File::create(path)?))
    }

    /// Read from a file (buffered).
    pub fn read_from_path(path: &Path) -> SnapshotResult<Self> {
        Self::read_from(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardMap {
        ShardMap {
            axis: 0,
            bounds: vec![0.0, 50.0, 100.0],
            addrs: vec![
                ShardAddr::Unix("fleet/s0.sock".into()),
                ShardAddr::Tcp("127.0.0.1:7001".into()),
            ],
        }
    }

    #[test]
    fn round_trips() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        assert_eq!(ShardMap::read_from(bytes.as_slice()).unwrap(), sample());
    }

    #[test]
    fn corrupted_trailer_is_a_checksum_mismatch() {
        let mut bytes = Vec::new();
        sample().write_to(&mut bytes).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            ShardMap::read_from(bytes.as_slice()),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }
}
