//! Socket plumbing shared by shard processes and the router: one address
//! type covering Unix-domain sockets (the default — shard fleets live on
//! one box first) and TCP, with listener/stream wrappers that erase the
//! transport.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a shard process listens: a Unix-domain socket path, or a TCP
/// address spelled `tcp:HOST:PORT`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP `HOST:PORT` address.
    Tcp(String),
}

impl ShardAddr {
    /// Parse a CLI/shard-map spelling: `tcp:HOST:PORT` is TCP, anything
    /// else is a Unix-domain socket path.
    pub fn parse(s: &str) -> Self {
        match s.strip_prefix("tcp:") {
            Some(hostport) => Self::Tcp(hostport.to_string()),
            None => Self::Unix(PathBuf::from(s)),
        }
    }
}

impl fmt::Display for ShardAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unix(p) => write!(f, "{}", p.display()),
            Self::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A bound listener on either transport.
#[derive(Debug)]
pub enum ShardListener {
    /// Unix-domain listener.
    Unix(UnixListener),
    /// TCP listener.
    Tcp(TcpListener),
}

impl ShardListener {
    /// Bind `addr`. A stale Unix socket file (the trace of a killed
    /// shard process) is removed first, so a crashed shard can be
    /// restarted on the same address without manual cleanup.
    pub fn bind(addr: &ShardAddr) -> io::Result<Self> {
        match addr {
            ShardAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok(Self::Unix(UnixListener::bind(path)?))
            }
            ShardAddr::Tcp(hostport) => Ok(Self::Tcp(TcpListener::bind(hostport)?)),
        }
    }

    /// Accept one connection.
    pub(crate) fn accept(&self) -> io::Result<ShardStream> {
        match self {
            Self::Unix(l) => l.accept().map(|(s, _)| ShardStream::Unix(s)),
            Self::Tcp(l) => l.accept().map(|(s, _)| ShardStream::Tcp(s)),
        }
    }

    /// The address the listener actually bound (resolves `tcp:...:0`
    /// ephemeral ports — tests bind port 0 and dial the result).
    pub(crate) fn bound_addr(&self) -> io::Result<ShardAddr> {
        match self {
            Self::Unix(l) => Ok(ShardAddr::Unix(
                l.local_addr()?
                    .as_pathname()
                    .map(PathBuf::from)
                    .unwrap_or_default(),
            )),
            Self::Tcp(l) => Ok(ShardAddr::Tcp(l.local_addr()?.to_string())),
        }
    }
}

/// One accepted or dialed connection on either transport.
#[derive(Debug)]
pub enum ShardStream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl ShardStream {
    /// Dial `addr`.
    pub fn connect(addr: &ShardAddr) -> io::Result<Self> {
        match addr {
            ShardAddr::Unix(path) => UnixStream::connect(path).map(Self::Unix),
            ShardAddr::Tcp(hostport) => TcpStream::connect(hostport.as_str()).map(Self::Tcp),
        }
    }

    /// Bound every read and write by `timeout` (`None` blocks forever) —
    /// the router's per-request watchdog, so a hung shard surfaces as a
    /// timed-out I/O error instead of a wedged router.
    pub(crate) fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            Self::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// An independently owned handle to the same connection (reader and
    /// writer halves).
    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        match self {
            Self::Unix(s) => s.try_clone().map(Self::Unix),
            Self::Tcp(s) => s.try_clone().map(Self::Tcp),
        }
    }

    /// Sever both directions immediately (crash simulation and handle
    /// teardown; concurrent reads fail over to their error paths).
    pub(crate) fn shutdown_both(&self) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.shutdown(Shutdown::Both),
            Self::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for ShardStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ShardStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.flush(),
            Self::Tcp(s) => s.flush(),
        }
    }
}
