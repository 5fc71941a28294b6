//! The shard process: one [`QueryServer`] hosting one slab's flat model,
//! answering wire requests over a socket.
//!
//! A shard server is deliberately dumb: it runs the **filter phase
//! only** and ships the surviving candidates' distance histograms back
//! raw. Verify/refine — the expensive, configuration-sensitive part of
//! the pipeline — runs exactly once, router-side, over the merged
//! candidate set, which is what makes the routed answer provably
//! identical to the single-process one (see the crate docs).
//!
//! Update bursts ride the hosted server's coalesced write lane (each
//! decoded op through [`QueryServer::queue_update`], then one
//! [`flush_writes`](QueryServer::flush_writes) per burst frame),
//! so a burst of `n` ops publishes one snapshot swap, mirroring the
//! single-process serve loop. When a storage backend is attached the
//! same flush appends the burst to the shard's own write-ahead journal,
//! and every [`ShardServeConfig::checkpoint_every`] bursts the shard
//! checkpoints and truncates — which is exactly why a killed shard
//! process restarts from its `--data-dir` without any global rebuild.
//!
//! Robustness contract (fixture-tested): malformed frames and requests
//! never panic the process. A frame-level error (bad checksum, oversized
//! prefix, torn stream) desynchronizes the byte stream, so the
//! connection is dropped after a best-effort typed
//! [`Response::Error`]; a message-level error (unknown tag, bad body,
//! wrong dimension) leaves framing intact, so the server replies with a
//! typed error and keeps the connection.

use std::io::BufReader;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cpnn_core::{QueryServer, ServerStats};

use crate::net::{ShardAddr, ShardListener, ShardStream};
use crate::wire::{read_frame, write_frame, Request, Response, ShardProcessStats, ShardStatus};
use crate::RoutedModel;

/// Tuning for a shard process's serve loop.
#[derive(Debug, Clone, Copy)]
pub struct ShardServeConfig {
    /// Checkpoint (and truncate the journal) every this many update
    /// bursts, `0` = never — matching the single-process serve loop's
    /// `--checkpoint-every`. No-op unless a storage backend is attached
    /// to the hosted server.
    pub checkpoint_every: u64,
}

impl Default for ShardServeConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 8,
        }
    }
}

/// Everything the per-connection handler threads share.
struct ServeShared<M: RoutedModel> {
    server: Arc<QueryServer<M>>,
    cfg: ShardServeConfig,
    /// Filter requests answered over the wire (reported by `Stats`).
    filters: AtomicU64,
    /// Update bursts since the last checkpoint.
    bursts_since_checkpoint: AtomicU64,
    stop: AtomicBool,
    /// Accepted connections, kept as independently owned handles so
    /// teardown (and crash simulation) can sever them mid-read.
    conns: Mutex<Vec<ShardStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A running shard server: the hosted [`QueryServer`], its listener's
/// accept thread, and one handler thread per accepted connection.
///
/// [`kill`](Self::kill) tears the process down *abruptly* — sockets
/// severed mid-conversation, no farewell frames — which is how the
/// fault-injection tests simulate a crashed shard without leaving the
/// test process. [`shutdown`](Self::shutdown) is the graceful twin.
pub struct ShardServerHandle<M: RoutedModel> {
    shared: Arc<ServeShared<M>>,
    addr: ShardAddr,
    accept: Option<JoinHandle<()>>,
}

impl<M: RoutedModel> ShardServerHandle<M> {
    /// Serve `server` on `listener` (already bound). Returns once the
    /// accept thread is running; the handle's [`addr`](Self::addr) is
    /// the listener's resolved address (ephemeral TCP ports resolved).
    pub fn spawn(
        server: Arc<QueryServer<M>>,
        listener: ShardListener,
        cfg: ShardServeConfig,
    ) -> std::io::Result<Self> {
        let addr = listener.bound_addr()?;
        let shared = Arc::new(ServeShared {
            server,
            cfg,
            filters: AtomicU64::new(0),
            bursts_since_checkpoint: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("cpnn-shard-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Self {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The address the shard is serving on.
    pub fn addr(&self) -> &ShardAddr {
        &self.addr
    }

    /// Simulate a crash: stop accepting and sever every live connection
    /// mid-read, with no farewell frames. Peers observe a torn stream /
    /// connection reset — exactly what a `kill -9` of a real shard
    /// process produces. The hosted server is dropped with the handle;
    /// its durable state (checkpoint + journal in the backend's
    /// `--data-dir`) is whatever the crash moment left, ready for
    /// recovery by a restarted shard.
    pub fn kill(mut self) {
        self.teardown();
    }

    /// Graceful stop: stop accepting, sever connections, join handler
    /// threads, and report final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.teardown();
        self.shared.server.stats()
    }

    fn teardown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let conns = self.shared.conns.lock().expect("conn list unpoisoned");
            for conn in conns.iter() {
                let _ = conn.shutdown_both();
            }
        }
        // Unblock the accept thread (blocking accept has no timeout on
        // either transport): one throwaway dial.
        let _ = ShardStream::connect(&self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect("handler list"));
        for h in handlers {
            let _ = h.join();
        }
        if let ShardAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<M: RoutedModel> Drop for ShardServerHandle<M> {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.teardown();
        }
    }
}

fn accept_loop<M: RoutedModel>(listener: ShardListener, shared: Arc<ServeShared<M>>) {
    loop {
        let stream = match listener.accept() {
            _ if shared.stop.load(Ordering::SeqCst) => return,
            Ok(s) => s,
            // Transient accept failures (e.g. the peer vanished between
            // SYN and accept) must not kill the shard.
            Err(_) => continue,
        };
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        shared
            .conns
            .lock()
            .expect("conn list unpoisoned")
            .push(clone);
        let conn_shared = Arc::clone(&shared);
        let handler = std::thread::Builder::new()
            .name("cpnn-shard-conn".into())
            .spawn(move || handle_conn(stream, conn_shared));
        if let Ok(h) = handler {
            shared
                .handlers
                .lock()
                .expect("handler list unpoisoned")
                .push(h);
        }
    }
}

fn handle_conn<M: RoutedModel>(stream: ShardStream, shared: Arc<ServeShared<M>>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = write_half;
    serve_conn(&mut reader, &mut writer, &shared);
    // Actively shut the socket down (not just drop this clone): teardown's
    // tracking clone still holds the fd, and without a shutdown the peer
    // would never see EOF on a dropped connection.
    let _ = writer.shutdown_both();
}

fn serve_conn<M: RoutedModel>(
    reader: &mut BufReader<ShardStream>,
    writer: &mut ShardStream,
    shared: &ServeShared<M>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(reader) {
            Ok(Some(p)) => p,
            // Clean EOF at a frame boundary: the peer hung up.
            Ok(None) => return,
            Err(e) => {
                // A structurally broken frame desynchronizes the stream:
                // send a best-effort typed error, then drop the
                // connection. Torn streams and transport errors get no
                // farewell (nobody is listening).
                if !e.is_disconnect() {
                    let reply = Response::Error(format!("dropping connection: {e}"));
                    let _ = write_frame(writer, &reply.encode());
                }
                return;
            }
        };
        let reply = match Request::<M>::decode(&payload) {
            // Message-level errors leave framing intact: reply typed,
            // keep serving this connection.
            Err(e) => Response::Error(format!("bad request: {e}")),
            Ok(req) => respond(shared, req),
        };
        if write_frame(writer, &reply.encode()).is_err() {
            return;
        }
    }
}

fn status<M: RoutedModel>(server: &QueryServer<M>) -> ShardStatus {
    let snap = server.snapshot();
    ShardStatus {
        version: snap.version,
        objects: snap.model.total_objects() as u64,
        extent: snap.model.model_extent(),
    }
}

fn respond<M: RoutedModel>(shared: &ServeShared<M>, req: Request<M>) -> Response {
    let server = &shared.server;
    match req {
        // Request::decode already validated magic, protocol version, and
        // dimension — a decoded Hello is an accepted handshake.
        Request::Hello => Response::Hello(status(server)),
        Request::Filter { coords, k } => {
            shared.filters.fetch_add(1, Ordering::Relaxed);
            let Some(q) = M::query_from_coords(&coords) else {
                return Response::Error(format!(
                    "query has {} coordinates, shard is {}-dimensional",
                    coords.len(),
                    M::DIM
                ));
            };
            let snap = server.snapshot();
            match snap
                .model
                .check_query(&q)
                .and_then(|_| snap.model.filter(&q, k as usize))
            {
                Ok(filtered) => Response::Candidates {
                    version: snap.version,
                    items: filtered.items,
                },
                Err(e) => Response::Error(format!("filter failed: {e}")),
            }
        }
        Request::Update(ops) => {
            let tickets: Vec<_> = ops.into_iter().map(|op| server.queue_update(op)).collect();
            server.flush_writes();
            let outcomes = tickets
                .into_iter()
                .map(|t| t.wait().result.map_err(|e| e.to_string()))
                .collect();
            let since = shared
                .bursts_since_checkpoint
                .fetch_add(1, Ordering::Relaxed)
                + 1;
            if shared.cfg.checkpoint_every > 0 && since >= shared.cfg.checkpoint_every {
                shared.bursts_since_checkpoint.store(0, Ordering::Relaxed);
                // Best-effort: a failed checkpoint leaves the journal
                // long but the reply correct.
                let _ = server.checkpoint_now();
            }
            Response::Update {
                status: status(server),
                outcomes,
            }
        }
        Request::Stats => Response::Stats(ShardProcessStats {
            filters: shared.filters.load(Ordering::Relaxed),
            server: server.stats(),
        }),
        Request::Ids => {
            let snap = server.snapshot();
            let ids = snap
                .model
                .shard_objects()
                .iter()
                .map(|o| M::object_id(o).0)
                .collect();
            Response::Ids(ids)
        }
    }
}
